import concurrent.futures
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from drekge import data, evaluation
from drekge.domains import fit_all_domains, penalties_all, save_domains
from drekge.ellipsoid import Ellipsoid, FitConfig
from drekge.errors import (ConfigurationError, NumericalError,
                           StaleDomainModelError)
from drekge.evaluation import (EvalReport, comparison_rows, csv_rows,
                               evaluate, format_comparison, format_report,
                               score_query, validation_hits10)
from drekge.models import (VARIANTS, EmbeddingModel, _anchor,
                           _coordinate_scores, _score_rows, project_all,
                           save_model)

from generators import (domain_model, random_domain_model, random_graph,
                        random_model, save_graph)
from refeval import ref_evaluate


def raw_rank(scores, gold, tie_break="optimistic"):
    """(rank, tie count) of the gold against every candidate."""
    return evaluation._ranks(scores, gold, np.empty(0, np.int64),
                             tie_break)[:2]


class TestRankOfGold:
    def test_strictly_better_counting(self):
        scores = np.array([0.5, 2.0, 1.0, 3.0])
        assert raw_rank(scores, 2) == (2, 0)
        assert raw_rank(scores, 0) == (1, 0)
        assert raw_rank(scores, 3) == (4, 0)

    def test_tie_handling(self):
        scores = np.array([1.0, 2.0, 2.0, 3.0])
        assert raw_rank(scores, 1) == (2, 1)
        assert raw_rank(scores, 1, "pessimistic") == (3, 1)

    def test_mask_removes_competitors(self):
        scores = np.array([0.1, 0.2, 5.0, 0.3])
        known = np.array([0, 1])
        rank, ties = evaluation._ranks(scores, 2, known, "optimistic")[2:]
        assert (rank, ties) == (2, 0)

    def test_gold_always_allowed(self):
        scores = np.array([1.0, 2.0])
        known = np.array([0, 1])
        assert evaluation._ranks(scores, 1, known, "optimistic")[2:] == (1, 0)

    @pytest.mark.parametrize("tie_break", ["optimistic", "pessimistic"])
    def test_filtered_counts_match_brute_force(self, tie_break):
        # few distinct scores, so most candidates tie with the gold
        rng = np.random.default_rng(17)
        gold_listed = 0
        for _ in range(200):
            n = int(rng.integers(1, 12))
            scores = rng.integers(0, 3, size=n).astype(float)
            gold = int(rng.integers(n))
            known = np.flatnonzero(rng.random(n) < 0.5)
            rivals = [e for e in range(n) if e != gold and e not in known]
            better = sum(scores[e] < scores[gold] for e in rivals)
            ties = sum(scores[e] == scores[gold] for e in rivals)
            rank = 1 + better + (ties if tie_break == "pessimistic" else 0)
            assert evaluation._ranks(scores, gold, known, tie_break)[2:] == \
                (rank, ties)
            # raw: every candidate but the gold competes
            everyone = [e for e in range(n) if e != gold]
            raw_ties = sum(scores[e] == scores[gold] for e in everyone)
            raw = (1 + sum(scores[e] < scores[gold] for e in everyone)
                   + (raw_ties if tie_break == "pessimistic" else 0), raw_ties)
            assert raw_rank(scores, gold, tie_break) == raw
            # one count gives both settings, as the two views give them
            assert evaluation._ranks(scores, gold, known, tie_break) == \
                (*raw, rank, ties)
            gold_listed += gold in known
        assert gold_listed > 0


def zero_model(graph, dim=4):
    return EmbeddingModel("l1",
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
        m = EmbeddingModel("l1", ent, np.array([[9.0, 9.0]]))
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
                rank, _ = raw_rank(score_query(g, m, None, r, **fixed)[0],
                                   gold)
                ranks.setdefault((side, categories[r]), []).append(rank)
        assert len({cat for _, cat in ranks}) > 1
        for (side, cat), values in ranks.items():
            block = rep.by_category[("raw", side, cat)]
            assert block.n == len(values)
            assert block.mean_rank == pytest.approx(np.mean(values))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_combined_category_blocks_take_their_own_ranks(self, seed):
        """A combined category block is the block of its head and tail
        ranks together, to the last bit, as the overall one is."""
        rng = np.random.default_rng(seed)
        n_test = int(rng.integers(7, 30))
        g = random_graph(rng, n_entities=40, n_relations=5, n_train=80,
                         n_valid=5, n_test=n_test)
        m = random_model(rng, g, dim=4)
        rep = evaluate(g, m)
        categories = data.classify_relations(g)
        ranks = {}
        for h, r, t in g.test.tolist():
            for gold, fixed, known in (
                    (h, {"tail": t}, g.heads_by_rt[(r, t)]),
                    (t, {"head": h}, g.tails_by_hr[(h, r)])):
                scores = score_query(g, m, None, r, **fixed)[0]
                for setting, col in (("raw", 0), ("filtered", 2)):
                    ranks.setdefault((setting, categories[r]), []).append(
                        evaluation._ranks(scores, gold, known,
                                          "optimistic")[col])
        for (setting, cat), values in ranks.items():
            block = rep.by_category[(setting, "combined", cat)]
            assert block.n == len(values)
            assert block.mean_rank == np.mean(values)
            assert block.hits == {
                k: 100.0 * sum(v <= k for v in values) / len(values)
                for k in (1, 3, 10)}

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
        fresh = EmbeddingModel(m.dissimilarity, m.entity_vecs.copy(),
                               m.relation_vecs.copy(), m.proj.copy())
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


class TestScoreQuery:
    def test_a_model_of_another_graph_is_refused(self):
        rng = np.random.default_rng(129)
        g = random_graph(rng)
        other = random_graph(np.random.default_rng(2), n_entities=5)
        m = random_model(rng, other)
        with pytest.raises(ConfigurationError, match="counts do not match"):
            score_query(g, m, None, 0, head=0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ids_outside_the_model_are_refused(self, variant):
        rng = np.random.default_rng(131)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=8)
        dm = random_domain_model(rng, g, m)
        for relation, fixed in [(-1, {"head": 0}), (0, {"head": -1}),
                                (0, {"tail": -1}),
                                (0, {"tail": g.n_entities})]:
            with pytest.raises(ConfigurationError, match="outside"):
                score_query(g, m, dm, relation, **fixed)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ids_that_are_not_integers_are_refused(self, variant):
        # an array index would truncate 0.5 to 0, or fail on it
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=8)
        dm = random_domain_model(rng, g, m)
        for relation, fixed in [(1, {"head": 0.5}), (1, {"tail": 0.5}),
                                (1, {"tail": np.float64(2.0)}),
                                (0.5, {"head": 0}), (1.0, {"tail": 0})]:
            for domains in (None, dm):
                with pytest.raises(ConfigurationError,
                                   match="not an integer"):
                    score_query(g, m, domains, relation, **fixed)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bool_ids_are_refused(self, variant):
        # operator.index reads True as 1 and False as 0
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=8)
        dm = random_domain_model(rng, g, m)
        for relation, fixed in [(0, {"head": True}), (0, {"tail": False}),
                                (True, {"head": 0}), (False, {"tail": 1})]:
            for domains in (None, dm):
                with pytest.raises(ConfigurationError,
                                   match="not an integer"):
                    score_query(g, m, domains, relation, **fixed)

    @pytest.mark.parametrize("variant", ["transr", "stranse"])
    def test_a_relation_past_the_last_is_refused_before_projecting(
            self, variant):
        # the open slot is projected before the query's anchor is formed
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=8)
        for fixed in ({"head": 0}, {"tail": 0}):
            with pytest.raises(ConfigurationError, match="outside"):
                score_query(g, m, None, g.n_relations, **fixed)

    def test_transe_holds_no_candidate_copy(self):
        # transe's candidates are entity_vecs itself: only the |E|-length
        # score arrays are made
        rng = np.random.default_rng(130)
        n = 20000
        chain = [(f"e{i}", f"r{i % 3}", f"e{i + 1}") for i in range(n - 1)]
        g = data.build_graph(chain, chain[:40:2], chain[1:40:2])
        m = EmbeddingModel("l1", rng.normal(size=(n, 50)),
                           rng.normal(size=(3, 50)))
        for r in range(g.n_relations):
            for side in ("head", "tail"):
                assert np.shares_memory(project_all(m, r, side),
                                        m.entity_vecs)
        tracemalloc.start()
        try:
            score_query(g, m, None, 0, head=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m.entity_vecs.nbytes


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
        m = EmbeddingModel("l1", ent, rel)
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
                base = score_query(g, m, None, r, **fixed)[0]
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


# evaluates the files named on its command line, pinned to one CPU when
# the first argument is "pin", and prints every rendering of the reports
SCHEDULED = """
import os, sys
from drekge.data import load_graph
from drekge.domains import load_domains
from drekge.evaluation import csv_rows, evaluate, format_comparison, \\
    format_report
from drekge.models import load_model
pin, directory, variants = sys.argv[1], sys.argv[2], sys.argv[3:]
if pin == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
g = load_graph(*(os.path.join(directory, f"{name}.txt")
                 for name in ("train", "valid", "test")))
for variant in variants:
    rep = evaluate(g, load_model(os.path.join(directory, variant + ".bin")),
                   load_domains(os.path.join(directory, variant + ".dom")))
    print(format_report(rep), format_comparison(rep.baseline, rep),
          csv_rows(rep), sep="")
"""


class TestPenaltiesAhead:
    """With domains, one helper thread computes the next slot's
    penalties while the caller ranks; the reports do not depend on it."""

    def build(self, seed, variant, dissim="l1"):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n_entities=40, n_relations=4, n_test=16)
        m = random_model(rng, g, variant=variant, dissimilarity=dissim)
        return g, m, random_domain_model(rng, g, m, coverage=0.8)

    @pytest.mark.parametrize("variant", ["transe", "transr"])
    def test_a_helper_failure_reaches_the_caller(self, variant, monkeypatch):
        g, m, dm = self.build(171, variant)
        calls, threads = itertools.count(), set()

        def failing(*args):
            threads.add(threading.get_ident())
            if next(calls) == 1:
                raise NumericalError("planted")
            return penalties_all(*args)

        monkeypatch.setattr(evaluation, "penalties_all", failing)
        before = threading.active_count()
        with pytest.raises(NumericalError, match="planted"):
            evaluate(g, m, dm)
        assert threading.active_count() == before
        # the first slot submits the second before it takes its own
        assert len(threads) == 2

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_thread_outlives_a_pass(self, variant):
        g, m, dm = self.build(172, variant)
        before = threading.active_count()
        evaluate(g, m, dm)
        assert threading.active_count() == before

    def test_no_thread_starts_without_domains(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        g, m, _ = self.build(173, "transr")
        evaluate(g, m)
        validation_hits10(g, m)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no os.sched_setaffinity")
    def test_reports_do_not_depend_on_scheduling(self, tmp_path):
        for variant, dissim in (("transe", "l1"), ("transr", "l2"),
                                ("stranse", "l1")):
            g, m, dm = self.build(174, variant, dissim)
            save_model(m, str(tmp_path / f"{variant}.bin"))
            save_domains(dm, str(tmp_path / f"{variant}.dom"))
        save_graph(g, str(tmp_path))
        src = os.path.dirname(os.path.dirname(evaluation.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs = [subprocess.run(
            [sys.executable, "-c", SCHEDULED, pin, str(tmp_path), "transe",
             "transr", "stranse"], env=env, capture_output=True, text=True,
            check=True).stdout for pin in ("free", "pin")]
        assert outs[0].count("# evaluation") == 3
        assert outs[0] == outs[1]


def exact_split(g, m, dm, tie_break, penalties=penalties_all):
    """``_rank_split``'s (ranks, terms, missing) over the test split from
    every candidate's ``score_query`` score: the pass without a screen."""
    n = 2 * len(g.test)
    ranks = np.empty((2, n, 4), dtype=np.int64)
    terms = np.empty((4, n))
    missing = np.empty(n, dtype=bool)
    for i, (h, r, t) in enumerate(g.test.tolist()):
        for col, (side, gold, fixed, known) in enumerate((
                ("head", h, {"tail": t}, g.heads_by_rt[(r, t)]),
                ("tail", t, {"head": h}, g.tails_by_hr[(h, r)]))):
            row = 2 * i + col
            base = score_query(g, m, None, r, **fixed)[0]
            pen = None if dm is None else penalties(dm, m, r, side)
            ranks[0, row] = evaluation._ranks(base, gold, known, tie_break)
            ranks[1, row] = ranks[0, row] if pen is None else \
                evaluation._ranks(base + pen, gold, known, tie_break)
            terms[:, row] = (base[gold], np.median(base),
                             0.0 if pen is None else pen[gold],
                             0.0 if pen is None else np.median(pen))
            missing[row] = pen is None
    return ranks, terms, missing


def assert_exact(g, m, dm, tie_break, penalties=penalties_all):
    """The screened pass gives the unscreened pass's ranks and terms,
    bit for bit."""
    got = evaluation._rank_split(g, m, dm, g.test, tie_break,
                                 with_terms=True)
    want = exact_split(g, m, dm, tie_break, penalties)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))
    assert np.array_equal(got[2], want[2])


def assert_matches_oracle(g, m, variant, dissim, dm, tie_break):
    params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
              "head_proj": m.head_proj, "tail_proj": m.tail_proj}
    ells = None if dm is None else {key: (ell.center, ell.factor)
                                    for key, ell in dm.ellipsoids.items()}
    ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test, variant,
                       dissim, params, ellipsoids=ells, tie_break=tie_break)
    rep = evaluate(g, m, dm, tie_break=tie_break)
    for key, block in rep.overall.items():
        assert block.mean_rank == ref[key]["mean_rank"], key
        assert block.hits == ref[key]["hits"], key


def plant(m, g, rng, steps):
    """Copies of the golds of the first test triples, each moved along
    one random entity coordinate by one of ``steps`` (a function of the
    coordinate's value): a copy scores within a few roundings, or a
    relative 1e-9, of its gold. Returns the planted (copy, gold) ids."""
    ent = m.entity_vecs
    golds = sorted({e for h, _, t in g.test[:2].tolist() for e in (h, t)})
    others = [e for e in range(g.n_entities) if e not in set(
        g.test[:, [0, 2]].ravel().tolist())]
    copies = rng.choice(others, size=len(golds) * len(steps), replace=False)
    pairs = []
    for j, (copy, gold) in enumerate(zip(copies.tolist(),
                                         np.repeat(golds, len(steps)))):
        coord = int(rng.integers(m.dim))
        ent[copy] = ent[gold]
        ent[copy, coord] = steps[j % len(steps)](ent[gold, coord])
        pairs.append((copy, int(gold)))
    return pairs


def ulps(n):
    """A step of ``n`` floats up (or down, for negative ``n``)."""
    def step(x):
        for _ in range(abs(n)):
            x = np.nextafter(x, np.inf if n > 0 else -np.inf)
        return x
    return step


def relative(eps):
    """A step to ``x * (1 + eps)``."""
    return lambda x: x * (1 + eps)


class TestScreen:
    """The screen decides only what its bound allows; everything else is
    re-scored exactly, so ranks, tie counts and the median term are
    those of ``score_query``, and those of the oracle."""

    SHAPES = [("transe", "l1"), ("transe", "l2"), ("transr", "l1"),
              ("transr", "l2")]

    def build(self, seed, variant, dissim, n_entities=60, n_train=180):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n_entities=n_entities, n_relations=3,
                         n_train=n_train, n_test=10)
        m = random_model(rng, g, variant=variant, dim=7,
                         dissimilarity=dissim)
        return rng, g, m

    @pytest.mark.parametrize("dissim", ["l1", "l2"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gathered_rescore_is_score_all_bit_for_bit(self, variant,
                                                       dissim):
        rng, g, m = self.build([150, VARIANTS.index(variant)], variant,
                               dissim)
        for r in range(g.n_relations):
            for side, entity in (("head", 3), ("tail", 5)):
                rows = project_all(m, r, side)
                anchor = _anchor(m, r, side, entity)
                full = _coordinate_scores(rows.T, anchor, dissim)
                ids = rng.permutation(g.n_entities)[:25]
                got = _score_rows(rows, ids, anchor, dissim)
                assert np.array_equal(got.view(np.int64),
                                      full[ids].view(np.int64))

    @pytest.mark.parametrize("tie_break", evaluation.TIE_BREAKS)
    @pytest.mark.parametrize("with_domains", [False, True],
                             ids=["plain", "domains"])
    @pytest.mark.parametrize("variant,dissim", SHAPES)
    def test_near_ties_inside_the_bound(self, variant, dissim, with_domains,
                                        tie_break):
        rng, g, m = self.build([151, VARIANTS.index(variant),
                                dissim == "l2"], variant, dissim)
        steps = [ulps(1), ulps(-1), ulps(3), ulps(-4), relative(1e-9),
                 relative(-1e-9), relative(0.0)]
        pairs = plant(m, g, rng, steps)
        dm = random_domain_model(rng, g, m, coverage=1.0) \
            if with_domains else None
        # the planted copies' bounds hold their gold's exact score, and
        # some differ from it: the screen alone cannot rank them. A
        # projected L1 variant is not screened at all
        screened = (variant, dissim) != ("transr", "l1")
        inside = differ = 0
        for copy, gold in pairs:
            for r in range(g.n_relations):
                anchor = _anchor(m, r, "tail", 0)
                screen = evaluation._Screen(m, r, "tail")
                lo, hi, _ = screen(anchor, None, 0.0, r)
                assert (lo is not hi) == screened   # zero-width: one array
                exact = _score_rows(screen.rows, [copy, gold], anchor, dissim)
                if screened:
                    inside += lo[copy] <= exact[1] <= hi[copy]
                differ += exact[0] != exact[1]
        assert differ > 0
        assert inside == (len(pairs) * g.n_relations if screened else 0)
        assert_exact(g, m, dm, tie_break)

    @pytest.mark.parametrize("tie_break", evaluation.TIE_BREAKS)
    @pytest.mark.parametrize("with_domains", [False, True],
                             ids=["plain", "domains"])
    @pytest.mark.parametrize("variant,dissim", SHAPES)
    def test_near_ties_match_the_oracle(self, variant, dissim, with_domains,
                                        tie_break):
        # exact copies tie in any summation order, and a relative 1e-9
        # is far above any order's rounding, so the oracle's own sums
        # rank them as the library does
        rng, g, m = self.build([152, VARIANTS.index(variant),
                                dissim == "l2"], variant, dissim)
        plant(m, g, rng, [relative(1e-9), relative(-1e-9), relative(0.0),
                          relative(0.0)])
        dm = random_domain_model(rng, g, m, coverage=1.0) \
            if with_domains else None
        assert_matches_oracle(g, m, variant, dissim, dm, tie_break)
        assert evaluate(g, m, dm, tie_break=tie_break).tie_rate > 0

    @pytest.mark.parametrize("n_entities", [59, 60], ids=["odd", "even"])
    @pytest.mark.parametrize("variant,dissim", SHAPES)
    def test_a_median_inside_a_band(self, variant, dissim, n_entities):
        # most entities are copies of one vector a few roundings apart,
        # so every query's middle order statistics sit among them
        rng, g, m = self.build([153, VARIANTS.index(variant),
                                dissim == "l2", n_entities], variant, dissim,
                               n_entities=n_entities, n_train=500)
        golds = set(g.test[:, [0, 2]].ravel().tolist())
        cluster = [e for e in range(g.n_entities) if e not in golds]
        assert 2 * len(cluster) > g.n_entities == n_entities
        # steps on both sides of float32's resolution, so that the
        # screen's order of the cluster is not its exact order
        steps = [ulps(1), ulps(-2), relative(3e-8), relative(-5e-8),
                 relative(1e-7), relative(-2e-7), ulps(0)]
        for j, e in enumerate(cluster[1:]):
            coord = j % m.dim
            m.entity_vecs[e] = m.entity_vecs[cluster[0]]
            m.entity_vecs[e, coord] = steps[j % len(steps)](
                m.entity_vecs[e, coord])
        assert_exact(g, m, random_domain_model(rng, g, m), "optimistic")

    @pytest.mark.parametrize("variant,dissim", SHAPES)
    def test_penalized_near_ties_of_far_baselines(self, variant, dissim,
                                                  monkeypatch):
        # penalties that level every candidate of a slot's first query to
        # within a few roundings of one combined score, whatever its
        # baseline: the baseline screen decides them all, the penalized
        # one none
        rng, g, m = self.build([158, VARIANTS.index(variant),
                                dissim == "l2"], variant, dissim)
        pens = {}
        for h, r, t in g.test.tolist():
            for side, fixed in (("head", {"tail": t}), ("tail", {"head": h})):
                if (r, side) not in pens:
                    base = score_query(g, m, None, r, **fixed)[0]
                    pen = base.max() + 1.0 - base
                    pen[::3] = np.nextafter(pen[::3], np.inf)
                    pen[1::3] = np.nextafter(pen[1::3], 0.0)
                    pens[(r, side)] = pen

        def planted(domain_model, model, relation, side, projected=None):
            return pens.get((relation, side))

        monkeypatch.setattr(evaluation, "penalties_all", planted)
        dm = random_domain_model(rng, g, m)   # stands in for the planted
        for tie_break in evaluation.TIE_BREAKS:
            assert_exact(g, m, dm, tie_break, planted)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("variant,dissim", SHAPES)
    def test_a_non_finite_penalty_is_refused(self, variant, dissim, bad,
                                             monkeypatch):
        # one candidate's penalty in one slot: whether or not the slot is
        # screened, its queries end in the refusal, not in a rank
        rng, g, m = self.build([163, VARIANTS.index(variant),
                                dissim == "l2"], variant, dissim)
        _, r, _ = g.test[0].tolist()

        def planted(domain_model, model, relation, side, projected=None):
            pen = np.zeros(model.n_entities)
            if (relation, side) == (r, "tail"):
                pen[7] = bad
            return pen

        monkeypatch.setattr(evaluation, "penalties_all", planted)
        dm = random_domain_model(rng, g, m)   # stands in for the planted
        with pytest.raises(NumericalError, match="non-finite score"):
            evaluate(g, m, dm)

    @pytest.mark.parametrize("with_domains", [False, True],
                             ids=["plain", "domains"])
    @pytest.mark.parametrize("variant", ["transe", "transr"])
    def test_a_coordinate_past_float32_is_rescored(self, variant,
                                                   with_domains):
        # finite in float64, inf in float32: those queries take the
        # exact path, and rank as the oracle ranks them
        rng, g, m = self.build([154, VARIANTS.index(variant)], variant, "l1")
        m.entity_vecs[7, 2] = 1e39
        dm = random_domain_model(rng, g, m) if with_domains else None
        for tie_break in evaluation.TIE_BREAKS:
            assert_exact(g, m, dm, tie_break)
            assert_matches_oracle(g, m, variant, "l1", dm, tie_break)

    def test_an_overflowing_l2_screen_is_rescored(self):
        # every entity's first coordinate is 1e155: ||x||^2 overflows,
        # but it cancels from every exact x + a
        rng, g, m = self.build(155, "transe", "l2")
        m.entity_vecs[:, 0] = 1e155
        assert_exact(g, m, None, "pessimistic")
        assert_matches_oracle(g, m, "transe", "l2", None, "pessimistic")

    @pytest.mark.parametrize("variant,dissim", SHAPES)
    def test_a_float64_overflow_is_still_refused(self, variant, dissim):
        rng, g, m = self.build([156, VARIANTS.index(variant),
                                dissim == "l2"], variant, dissim)
        m.entity_vecs[7, :2] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="non-finite score"):
            evaluate(g, m)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="non-finite score"):
            validation_hits10(g, m)

    @pytest.mark.parametrize("dissim", ["l1", "l2"])
    def test_a_large_entity_widens_only_its_own_bounds(self, dissim):
        rng, g, m = self.build(159, "transe", dissim)
        anchor = _anchor(m, 0, "tail", 0)
        lo, hi, _ = evaluation._Screen(m, 0, "tail")(anchor, None, 0.0, 0)
        m.entity_vecs[7] *= 1e6
        big_lo, big_hi, _ = evaluation._Screen(m, 0, "tail")(anchor, None,
                                                             0.0, 0)
        others = np.arange(g.n_entities) != 7
        assert np.array_equal(big_hi[others] - big_lo[others],
                              (hi - lo)[others])
        assert big_hi[7] - big_lo[7] > 1e5 * (hi[7] - lo[7])

    def test_a_gathered_rescore_holds_only_the_gather(self):
        rng = np.random.default_rng(160)
        rows = rng.normal(size=(8000, 50))
        ids = rng.permutation(8000)[:5000]
        for dissim in ("l1", "l2"):
            tracemalloc.start()
            try:
                _score_rows(rows, ids, rows[0], dissim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.1 * rows[ids].nbytes

    def test_validation_holds_no_float64_candidate_copy(self):
        # transe screens from a float32 (k, E) block, half the size of
        # entity_vecs; a float64 copy of the candidates would be all of it
        rng = np.random.default_rng(157)
        n = 20000
        chain = [(f"e{i}", f"r{i % 3}", f"e{i + 1}") for i in range(n - 1)]
        g = data.build_graph(chain, chain[:40:2], chain[1:40:2])
        m = EmbeddingModel("l1", rng.normal(size=(n, 50)),
                           rng.normal(size=(3, 50)))
        g.heads_by_rt, g.tails_by_hr   # the filter index is the graph's
        tracemalloc.start()
        try:
            validation_hits10(g, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * m.entity_vecs.nbytes

    def test_projected_l1_holds_only_its_projection(self):
        # a projected L1 variant is not screened: no float32 block beside
        # the float64 projection, which the exact path reads
        rng = np.random.default_rng(161)
        n = 20000
        chain = [(f"e{i}", f"r{i % 3}", f"e{i + 1}") for i in range(n - 1)]
        g = data.build_graph(chain, chain[:40:2], chain[1:40:2])
        m = random_model(rng, g, variant="transr", dim=50)
        g.heads_by_rt, g.tails_by_hr   # the filter index is the graph's
        assert not hasattr(evaluation._Screen(m, 0, "tail"), "block")
        tracemalloc.start()
        try:
            validation_hits10(g, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * m.entity_vecs.nbytes


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
