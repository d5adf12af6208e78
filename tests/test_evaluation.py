import numpy as np
import pytest

from drekge import data, evaluation
from drekge.domains import fit_all_domains, penalties_all
from drekge.ellipsoid import Ellipsoid, FitConfig
from drekge.errors import ConfigurationError, StaleDomainModelError
from drekge.evaluation import (EvalReport, comparison_rows, csv_rows,
                               evaluate, format_comparison, format_report,
                               rank_of_gold, validation_hits10)
from drekge.models import VARIANTS, EmbeddingModel, score_all

from generators import (domain_model, random_domain_model, random_graph,
                        random_model)
from refeval import ref_evaluate


class TestRankOfGold:
    def test_strictly_better_counting(self):
        scores = np.array([0.5, 2.0, 1.0, 3.0])
        assert rank_of_gold(scores, 2) == (2, 0)
        assert rank_of_gold(scores, 0) == (1, 0)
        assert rank_of_gold(scores, 3) == (4, 0)

    def test_tie_handling(self):
        scores = np.array([1.0, 2.0, 2.0, 3.0])
        assert rank_of_gold(scores, 1) == (2, 1)
        assert rank_of_gold(scores, 1, tie_break="pessimistic") == (3, 1)

    def test_mask_removes_competitors(self):
        scores = np.array([0.1, 0.2, 5.0, 0.3])
        known = np.array([0, 1])
        rank, ties = rank_of_gold(scores, 2, known)
        assert (rank, ties) == (2, 0)

    def test_gold_always_allowed(self):
        scores = np.array([1.0, 2.0])
        known = np.array([0, 1])
        assert rank_of_gold(scores, 1, known) == (1, 0)

    @pytest.mark.parametrize("tie_break", ["optimistic", "pessimistic"])
    def test_filtered_counts_match_brute_force(self, tie_break):
        # few distinct scores, so most candidates tie with the gold
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            scores = rng.integers(0, 3, size=n).astype(float)
            gold = int(rng.integers(n))
            known = np.flatnonzero(rng.random(n) < 0.5)
            rivals = [e for e in range(n) if e != gold and e not in known]
            better = sum(scores[e] < scores[gold] for e in rivals)
            ties = sum(scores[e] == scores[gold] for e in rivals)
            rank = 1 + better + (ties if tie_break == "pessimistic" else 0)
            assert rank_of_gold(scores, gold, known, tie_break) == \
                (rank, ties)


def zero_model(graph, dim=4):
    return EmbeddingModel("transe", "l1",
                          np.zeros((graph.n_entities, dim)),
                          np.zeros((graph.n_relations, dim)))


class TestEvaluate:
    def test_two_known_competitors_split_raw_and_filtered(self):
        # head "a" must beat b and c for tail x; both are known heads, so
        # filtering removes them: raw rank 3, filtered rank 1
        g = data.build_graph([("b", "r", "x"), ("c", "r", "x")],
                             [], [("a", "r", "x")])
        dim = 2
        ent = np.zeros((g.n_entities, dim))
        ent[g.entities.id("a")] = (3.0, 0.0)
        ent[g.entities.id("b")] = (1.0, 0.0)
        ent[g.entities.id("c")] = (2.0, 0.0)
        ent[g.entities.id("x")] = (9.0, 9.0)
        # target x - r is the origin: f is b 1, c 2, a 3, x itself 18
        m = EmbeddingModel("transe", "l1", ent, np.array([[9.0, 9.0]]))
        rep = evaluate(g, m)
        assert rep.overall[("raw", "head")].mean_rank == 3.0
        assert rep.overall[("filtered", "head")].mean_rank == 1.0
        assert rep.overall[("filtered", "head")].hits[1] == 100.0

    def test_matches_reference_evaluator(self):
        rng = np.random.default_rng(121)
        g = random_graph(rng, n_entities=25, n_relations=3, n_train=40,
                         n_valid=6, n_test=10)
        m = random_model(rng, g, variant="transr", dim=5)
        params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
                  "head_proj": m.head_proj}
        ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test,
                           "transr", "l1", params)
        rep = evaluate(g, m)
        for key, block in rep.overall.items():
            assert block.mean_rank == ref[key]["mean_rank"]
            for k, v in block.hits.items():
                assert v == ref[key]["hits"][k]

    def test_all_tied_scores(self):
        rng = np.random.default_rng(122)
        g = random_graph(rng, n_entities=10)
        m = zero_model(g)
        rep = evaluate(g, m)
        assert rep.tie_rate == 1.0
        assert rep.overall[("raw", "combined")].mean_rank == 1.0
        pess = evaluate(g, m, tie_break="pessimistic")
        assert pess.overall[("raw", "head")].mean_rank == g.n_entities

    def test_filtered_never_worse_than_raw(self):
        rng = np.random.default_rng(123)
        for trial in range(5):
            g = random_graph(rng, n_entities=15, n_train=40, n_test=10)
            m = random_model(rng, g)
            rep = evaluate(g, m)
            for side in ("head", "tail", "combined"):
                raw = rep.overall[("raw", side)]
                filt = rep.overall[("filtered", side)]
                assert filt.mean_rank <= raw.mean_rank
                for k in filt.hits:
                    assert filt.hits[k] >= raw.hits[k]

    def test_combined_concatenates_sides(self):
        rng = np.random.default_rng(124)
        g = random_graph(rng)
        rep = evaluate(g, random_model(rng, g))
        head = rep.overall[("raw", "head")]
        tail = rep.overall[("raw", "tail")]
        both = rep.overall[("raw", "combined")]
        assert both.n == head.n + tail.n
        assert both.mean_rank == pytest.approx(
            (head.mean_rank * head.n + tail.mean_rank * tail.n) / both.n)

    def test_category_blocks_partition_the_predictions(self):
        rng = np.random.default_rng(125)
        g = random_graph(rng, n_entities=20, n_train=60, n_test=12)
        rep = evaluate(g, random_model(rng, g))
        for setting in ("raw", "filtered"):
            for side in ("head", "tail"):
                total = sum(block.n for (s, d, _), block
                            in rep.by_category.items()
                            if s == setting and d == side)
                assert total == rep.overall[(setting, side)].n

    def test_category_blocks_rank_their_own_relations(self):
        rng = np.random.default_rng(129)
        g = random_graph(rng, n_entities=20, n_train=60, n_test=12)
        m = random_model(rng, g)
        rep = evaluate(g, m)
        categories = data.classify_relations(g)
        ranks = {}
        for h, r, t in g.test:
            for side, gold, fixed in (("head", h, {"tail": t}),
                                      ("tail", t, {"head": h})):
                rank, _ = rank_of_gold(score_all(m, r, **fixed), gold)
                ranks.setdefault((side, categories[r]), []).append(rank)
        assert len({cat for _, cat in ranks}) > 1
        for (side, cat), values in ranks.items():
            block = rep.by_category[("raw", side, cat)]
            assert block.n == len(values)
            assert block.mean_rank == pytest.approx(np.mean(values))

    def test_validation_split_and_helper(self):
        rng = np.random.default_rng(127)
        g = random_graph(rng)
        m = random_model(rng, g)
        rep = evaluate(g, m, split="valid")
        assert rep.n_test == len(g.valid)
        assert validation_hits10(g, m) == rep.overall[("filtered",
                                                       "combined")].hits[10]

    def test_validation_reads_the_filtered_ranks(self):
        # a dense graph, so that filtering moves Hits@10
        rng = np.random.default_rng(128)
        g = random_graph(rng, n_entities=20, n_train=150, n_valid=20)
        m = random_model(rng, g)
        rep = evaluate(g, m, split="valid")
        raw, filtered = (rep.overall[(setting, "combined")].hits[10]
                         for setting in ("raw", "filtered"))
        assert raw != filtered
        assert validation_hits10(g, m) == filtered

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_validation_sees_in_place_updates(self, variant):
        # train moves entity_vecs in place between validations, so no
        # projection of them may outlive the call that made it
        rng = np.random.default_rng(129)
        g = random_graph(rng, n_entities=40, n_valid=20)
        m = random_model(rng, g, variant=variant)
        before = validation_hits10(g, m)
        m.entity_vecs[:] = m.entity_vecs[0]   # every score ties: rank 1
        fresh = EmbeddingModel(
            variant, m.dissimilarity, m.entity_vecs.copy(),
            m.relation_vecs.copy(),
            None if m.head_proj is None else m.head_proj.copy(),
            m.tail_proj.copy() if variant == "stranse" else None)
        after = validation_hits10(g, m)
        assert before < 100.0
        assert after == validation_hits10(g, fresh) == 100.0

    def test_bad_arguments_rejected(self):
        rng = np.random.default_rng(128)
        g = random_graph(rng)
        m = random_model(rng, g)
        with pytest.raises(ConfigurationError):
            evaluate(g, m, split="train")
        with pytest.raises(ConfigurationError):
            evaluate(g, m, tie_break="lucky")
        with pytest.raises(ConfigurationError):
            evaluate(g, random_model(rng, random_graph(
                np.random.default_rng(2), n_entities=5)), split="test")


class TestOracleShapes:
    """The oracle comparison where candidates laid out (k, E) differ most
    from rows: projections to a smaller or a larger relation space
    (d = 9, k = 6 and d = 6, k = 9), and transe at d = k = 12, where a
    sum down the leading axis adds in another order than a row's
    pairwise sum. Every second entity copies a vector, so both tie
    breaks have ties to break."""

    @pytest.mark.parametrize("tie_break", evaluation.TIE_BREAKS)
    @pytest.mark.parametrize("with_domains", [False, True],
                             ids=["plain", "domains"])
    @pytest.mark.parametrize("variant,dim,rel_dim", [
        ("transr", 9, 6), ("transr", 6, 9), ("stranse", 9, 6),
        ("stranse", 6, 9), ("transe", 12, 12)])
    @pytest.mark.parametrize("dissim", ["l1", "l2"])
    def test_matches_reference(self, variant, dim, rel_dim, dissim,
                               with_domains, tie_break):
        rng = np.random.default_rng(
            [dim, rel_dim, VARIANTS.index(variant), dissim == "l2"])
        g = random_graph(rng, n_entities=31, n_relations=3, n_train=60,
                         n_test=10)
        m = random_model(rng, g, variant=variant, dim=dim,
                         dissimilarity=dissim, rel_dim=rel_dim)
        m.entity_vecs[1::2] = m.entity_vecs[::2][:g.n_entities // 2]
        params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
                  "head_proj": m.head_proj, "tail_proj": m.tail_proj}
        dm = ells = None
        if with_domains:
            dm = random_domain_model(rng, g, m)
            ells = {key: (ell.center, ell.factor)
                    for key, ell in dm.ellipsoids.items()}
        ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test, variant,
                           dissim, params, ellipsoids=ells,
                           tie_break=tie_break)
        rep = evaluate(g, m, dm, tie_break=tie_break)
        assert rep.tie_rate > 0
        for key, block in rep.overall.items():
            assert block.mean_rank == ref[key]["mean_rank"], key
            assert block.hits == ref[key]["hits"], key


class TestDomainPenalties:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_degenerate_fitted_domains_match_reference(self, variant):
        # fitted with min_members=1 at k = 5: the head slot of r0 has
        # three members that share one vector, the slots of r1 have two
        # members, and those of r2 one
        rng = np.random.default_rng([136, VARIANTS.index(variant)])
        filler = [(f"e{h}", "r3", f"e{t}")
                  for h, t in rng.integers(0, 12, size=(30, 2))]
        train = [("a0", "r0", "x0"), ("a1", "r0", "x1"), ("a2", "r0", "x2"),
                 ("y0", "r1", "b0"), ("y1", "r1", "b1"),
                 ("c", "r2", "d"), *filler]
        test = [("a0", "r0", "x1"), ("a2", "r0", "e4"), ("e3", "r0", "x0"),
                ("y1", "r1", "b0"), ("e1", "r1", "b1"), ("y0", "r1", "e7"),
                ("c", "r2", "e2"), ("e5", "r2", "d")]
        g = data.build_graph(train, [], test)
        m = random_model(rng, g, variant=variant, dim=5)
        shared = [g.entities.id(label) for label in ("a0", "a1", "a2")]
        m.entity_vecs[shared] = m.entity_vecs[shared[0]]
        dm = fit_all_domains(g, m, FitConfig(lr=0.01, epochs=20,
                                             batch_size=2, seed=4),
                             min_members=1)
        assert dm.n_fitted == 2 * g.n_relations and len(dm.skipped) == 0
        params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
                  "head_proj": m.head_proj, "tail_proj": m.tail_proj}
        ells = {key: (ell.center, ell.factor)
                for key, ell in dm.ellipsoids.items()}
        for tie_break in ("optimistic", "pessimistic"):
            ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test,
                               variant, "l1", params, ellipsoids=ells,
                               tie_break=tie_break)
            rep = evaluate(g, m, dm, tie_break=tie_break)
            assert rep.missing_domain_predictions == 0
            for key, block in rep.overall.items():
                assert block.mean_rank == ref[key]["mean_rank"], key
                assert block.hits == ref[key]["hits"], key

    def test_enclosing_domains_change_nothing(self):
        rng = np.random.default_rng(131)
        g = random_graph(rng, n_entities=20)
        m = random_model(rng, g, variant="stranse", dim=4)
        huge = {}
        for r in range(g.n_relations):
            for side in ("head", "tail"):
                huge[(r, side)] = Ellipsoid(np.zeros(4), np.eye(4) * 1e-4)
        dm = domain_model(4, m.fingerprint(), huge)
        base = evaluate(g, m)
        dre = evaluate(g, m, dm)
        assert dre.overall == base.overall
        assert dre.missing_domain_predictions == 0

    def test_empty_domain_model_counts_missing_slots(self):
        rng = np.random.default_rng(132)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = domain_model(m.rel_dim, m.fingerprint(), {})
        rep = evaluate(g, m, dm)
        assert rep.missing_domain_predictions == 2 * len(g.test)
        assert rep.overall == evaluate(g, m).overall

    def test_matches_reference_with_penalties(self):
        rng = np.random.default_rng(133)
        g = random_graph(rng, n_entities=18, n_relations=3, n_test=8)
        m = random_model(rng, g, variant="stranse", dim=4)
        dm = random_domain_model(rng, g, m)
        params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
                  "head_proj": m.head_proj, "tail_proj": m.tail_proj}
        ells = {key: (ell.center, ell.factor)
                for key, ell in dm.ellipsoids.items()}
        ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test,
                           "stranse", "l1", params, ellipsoids=ells)
        rep = evaluate(g, m, dm)
        for key, block in rep.overall.items():
            assert block.mean_rank == ref[key]["mean_rank"]
            assert block.hits == ref[key]["hits"]

    def test_penalty_can_rescue_the_gold_entity(self):
        # an impostor head beats gold on raw score but sits outside the
        # head domain; the penalty flips the order
        g = data.build_graph([("good", "r", "x"), ("other", "r", "y")],
                             [], [("good", "r", "y")])
        dim = 2
        ent = np.zeros((g.n_entities, dim))
        rid = g.entities.id
        ent[rid("good")] = (1.0, 0.0)
        ent[rid("other")] = (2.5, 0.0)
        ent[rid("x")] = (-3.0, 1.0)
        ent[rid("y")] = (4.0, 0.0)
        rel = np.array([[2.0, 0.0]])
        # f(e) = |e + r - y|: other 0.5, good 1.0, y 2.0, x 6.0
        m = EmbeddingModel("transe", "l1", ent, rel)
        base = evaluate(g, m)
        assert base.overall[("raw", "head")].mean_rank == 2.0

        # head domain: tiny sphere around gold's embedding
        ells = {(0, "head"): Ellipsoid(np.array([1.0, 0.0]),
                                       np.eye(2) / 0.05)}
        dm = domain_model(dim, m.fingerprint(), ells)
        dre = evaluate(g, m, dm)
        assert dre.overall[("raw", "head")].mean_rank == 1.0

    def test_stale_domains_are_refused(self):
        rng = np.random.default_rng(134)
        g = random_graph(rng)
        m = random_model(rng, g)
        dm = random_domain_model(rng, g, m)
        with pytest.raises(StaleDomainModelError):
            evaluate(g, random_model(rng, g), dm)


class TestSinglePass:
    @pytest.mark.parametrize("dissim", ["l1", "l2"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_baseline_is_the_plain_report(self, variant, dissim):
        rng = np.random.default_rng(135)
        g = random_graph(rng, n_entities=30, n_relations=4, n_test=16)
        m = random_model(rng, g, variant=variant, dissimilarity=dissim)
        # every entity shares its vector with another one, so ties occur
        m.entity_vecs[1::2] = m.entity_vecs[::2][:g.n_entities // 2]
        dm = random_domain_model(rng, g, m, coverage=0.6)
        rep = evaluate(g, m, dm)
        plain = evaluate(g, m)
        assert rep.baseline == plain
        assert plain.baseline is None

        # the diagnostics, recomputed query by query from the kernels
        ties = {"base": [], "pen": []}
        terms = {"gold_baseline": [], "median_baseline": [],
                 "gold_penalty": [], "median_penalty": []}
        missing = 0
        for h, r, t in g.test:
            for side, gold, fixed in (("head", h, {"tail": t}),
                                      ("tail", t, {"head": h})):
                base = score_all(m, r, **fixed)
                pen = penalties_all(dm, m, r, side)
                missing += pen is None
                pen = np.zeros_like(base) if pen is None else pen
                for name, scores in (("base", base), ("pen", base + pen)):
                    ties[name].append(
                        np.count_nonzero(scores == scores[gold]) > 1)
                terms["gold_baseline"].append(base[gold])
                terms["median_baseline"].append(np.median(base))
                terms["gold_penalty"].append(pen[gold])
                terms["median_penalty"].append(np.median(pen))
        stats = {}
        for term, values in terms.items():
            qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
            stats[term] = dict(zip(["min", "p25", "median", "p75", "max"],
                                   qs.tolist()))
        assert 0 < plain.tie_rate == np.mean(ties["base"])
        assert rep.tie_rate == np.mean(ties["pen"])
        assert plain.missing_domain_predictions == 0
        assert 0 < rep.missing_domain_predictions == missing
        assert plain.term_stats == {k: stats[k] for k in
                                    ("gold_baseline", "median_baseline")}
        assert rep.term_stats == stats


class TestReportRendering:
    def make_report(self):
        rng = np.random.default_rng(141)
        g = random_graph(rng)
        m = random_model(rng, g)
        return evaluate(g, m), evaluate(g, m, random_domain_model(rng, g, m))

    def test_text_report_mentions_every_block(self):
        rep, _ = self.make_report()
        text = format_report(rep, title="check")
        assert "# check" in text
        assert f"n_test={rep.n_test}" in text
        for setting, side in rep.overall:
            assert f"{setting} {side} " in text

    def test_csv_rows_cover_overall_and_categories(self):
        rep, _ = self.make_report()
        rows = csv_rows(rep)
        expected = 4 * (len(rep.overall) + len(rep.by_category))
        assert len(rows) == expected
        assert {r[:3] for r in rows} >= {(s, d, "all") for s, d in rep.overall}

    def test_comparison_rows_align(self):
        base, dre = self.make_report()
        rows = comparison_rows(base, dre)
        for setting, side, cat, metric, b, v, delta in rows:
            assert delta == pytest.approx(v - b)
        text = format_comparison(base, dre)
        assert "delta" in text

    def test_term_stats_compare_score_and_penalty_scales(self):
        base, dre = self.make_report()
        assert set(base.term_stats) == {"gold_baseline", "median_baseline"}
        assert set(dre.term_stats) >= {"gold_penalty", "median_penalty"}
        for stats in dre.term_stats.values():
            assert set(stats) == {"min", "p25", "median", "p75", "max"}
            assert stats["min"] <= stats["median"] <= stats["max"]
