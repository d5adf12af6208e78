import copy
import hashlib
import struct
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from drekge import models
from drekge.data import build_graph
from drekge.errors import (ConfigurationError, FormatError,
                           TrainingDivergedError)
from drekge.evaluation import score_query, validation_hits10
from drekge.models import (EmbeddingModel, TrainConfig, _anchor,
                           _coordinate_scores, load_model, project_all,
                           project_slots, save_model, score_gradients,
                           score_triple, train)

from generators import model_bytes, random_graph, random_model


def tiny_model(variant="transe", dissim="l1"):
    ent = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    rel = np.array([[1.0, 1.0]])
    # the one relation's head matrix, then stranse's tail matrix
    mats = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    return EmbeddingModel(dissim, ent, rel,
                          mats[:models.VARIANTS.index(variant), None])


def tiny_graph():
    """A graph of ``tiny_model``'s counts: 3 entities, 1 relation."""
    return build_graph([("a", "r", "b"), ("b", "r", "c")], [], [])


class TestConfig:
    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(variant="distmult").validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(dissimilarity="cosine").validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(negative_sampling="nce").validate()

    def test_rejects_bad_numbers(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(lr=0.0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(margin=-1.0).validate()
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0).validate()
        for name in ("lr", "margin"):
            for value in (np.nan, np.inf):
                with pytest.raises(ConfigurationError, match="finite"):
                    TrainConfig(**{name: value}).validate()
        for dims in ({"dim": 0}, {"rel_dim": 0}):
            with pytest.raises(ConfigurationError,
                               match="embedding dimensions must be >= 1"):
                TrainConfig(variant="transr", **dims).validate()

    def test_translation_only_variant_rejects_projection_size(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(variant="transe", dim=50, rel_dim=30).validate()
        TrainConfig(variant="transr", dim=50, rel_dim=30).validate()

    def test_projection_size_defaults_to_dim(self):
        assert TrainConfig(dim=40).k == 40
        assert TrainConfig(dim=40, rel_dim=20).k == 20


class TestProjShape:
    """``proj`` must be (s, |R|, k, d) with s matrices per relation for
    one of the variants."""

    @pytest.mark.parametrize("s", range(len(models.VARIANTS)))
    def test_each_variant_shape_is_accepted(self, s):
        m = EmbeddingModel("l1", np.zeros((4, 3)), np.zeros((2, 3)),
                           np.zeros((s, 2, 3, 3)))
        assert m.variant == models.VARIANTS[s]

    @pytest.mark.parametrize("shape", [
        (3, 2, 3, 3),   # more matrices per relation than any variant
        (1, 5, 3, 3),   # matrices for 5 relations beside 2 vectors
        (1, 2, 4, 3),   # rows that are not k
        (1, 2, 3, 4),   # columns that are not d
        (2, 3, 3),      # no slot axis
    ])
    def test_other_shapes_are_refused(self, shape):
        with pytest.raises(ValueError, match=r"proj has shape"):
            EmbeddingModel("l1", np.zeros((4, 3)), np.zeros((2, 3)),
                           np.zeros(shape))


class TestModelFields:
    """A model that no scorer reads as written is refused at
    construction, as ``load_model`` refuses its file."""

    @pytest.mark.parametrize("dissim", ["L1", "l3", ""])
    def test_an_unknown_dissimilarity_is_refused(self, dissim):
        # "L1" would otherwise rank as L2 and save a file that no load
        # accepts
        with pytest.raises(ValueError, match="unknown dissimilarity"):
            EmbeddingModel(dissim, np.zeros((4, 3)), np.zeros((2, 3)))

    def test_transe_needs_rel_dim_equal_to_dim(self):
        with pytest.raises(ValueError, match="transe has no projection"):
            EmbeddingModel("l1", np.zeros((4, 3)), np.zeros((2, 2)))
        # a projection takes d = 3 to k = 2
        assert EmbeddingModel("l1", np.zeros((4, 3)), np.zeros((2, 2)),
                              np.zeros((1, 2, 2, 3))).variant == "transr"

    def test_the_fingerprint_is_not_a_constructor_argument(self):
        ent, rel = np.zeros((4, 3)), np.zeros((2, 3))
        with pytest.raises(TypeError):
            EmbeddingModel("l1", ent, rel, None, 42)
        with pytest.raises(TypeError):
            EmbeddingModel("l1", ent, rel, _fingerprint=42)


class TestRefusedArguments:
    """A side outside ``data.SIDES`` is refused, not read as the tail,
    and an id outside the model is refused, not wrapped around."""

    @pytest.mark.parametrize("variant", models.VARIANTS)
    @pytest.mark.parametrize("side", ["heads", "Head", "", None])
    def test_an_unknown_side_is_refused(self, variant, side):
        m = tiny_model(variant)
        with pytest.raises(ConfigurationError, match="unknown side"):
            project_all(m, 0, side)
        with pytest.raises(ConfigurationError, match="unknown side"):
            project_slots(m, np.array([[0]]), np.array([0]), [side])

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_ids_outside_the_model_are_refused(self, variant):
        # 3 entities, 1 relation
        m = tiny_model(variant)
        for triple in [(0, -1, 1), (0, 1, 1), (-1, 0, 1), (0, 0, -1),
                       (3, 0, 1), (0, 0, 3)]:
            with pytest.raises(ConfigurationError, match="outside"):
                score_triple(m, triple)
        for relation, fixed in [(-1, {"head": 0}), (1, {"tail": 0}),
                                (0, {"head": -1}), (0, {"tail": 3})]:
            with pytest.raises(ConfigurationError, match="outside"):
                score_query(tiny_graph(), m, None, relation, **fixed)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_a_triple_of_ids_that_are_not_integers_is_refused(self,
                                                              variant):
        # an array index would truncate 0.9 to 0 and 1.7 to 1
        m = tiny_model(variant)
        for triple in [(0.9, 0, 1), (0, 0.5, 1), (0, 0, 1.7),
                       (0, 0, np.float64(1.0))]:
            with pytest.raises(ConfigurationError, match="not an integer"):
                score_triple(m, triple)
        # numpy's integers are ids
        assert score_triple(m, (np.int32(0), np.int64(0), np.uint8(1))) \
            == score_triple(m, (0, 0, 1))

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_bool_ids_are_refused(self, variant):
        # operator.index reads True as 1 and False as 0
        m = tiny_model(variant)
        for triple in [(True, 0, 1), (0, False, 1), (0, 0, True),
                       (np.True_, 0, 1)]:
            with pytest.raises(ConfigurationError, match="not an integer"):
                score_triple(m, triple)
        for side in ("head", "tail"):
            with pytest.raises(ConfigurationError, match="not an integer"):
                project_all(m, False, side)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_a_relation_that_is_not_an_integer_is_not_projected(self,
                                                                variant):
        m = tiny_model(variant)
        for side in ("head", "tail"):
            with pytest.raises(ConfigurationError, match="not an integer"):
                project_all(m, 0.0, side)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_a_relation_outside_the_model_is_not_projected(self, variant):
        # transe has no matrix to index, and -1 would index the last one
        m = tiny_model(variant)
        for relation in (-1, 1):
            for side in ("head", "tail"):
                with pytest.raises(ConfigurationError, match="outside"):
                    project_all(m, relation, side)


class TestScoring:
    # triple (0, 0, 1): h = (1,0), r = (1,1), t = (0,2)
    def test_translation_hand_values(self):
        m = tiny_model()
        assert score_triple(m, (0, 0, 1)) == pytest.approx(3.0)  # |2| + |-1|
        m = tiny_model(dissim="l2")
        assert score_triple(m, (0, 0, 1)) == pytest.approx(np.sqrt(5.0))

    def test_shared_projection_hand_value(self):
        # W swaps coordinates: Wh = (0,1), Wt = (2,0), u = (-1, 2)
        m = tiny_model("transr")
        assert score_triple(m, (0, 0, 1)) == pytest.approx(3.0)

    def test_split_projection_hand_value(self):
        # W1 h = (0,1); W2 t = (0,-2); u = (1, 4)
        m = tiny_model("stranse")
        assert score_triple(m, (0, 0, 1)) == pytest.approx(5.0)

    def test_score_all_matches_triple_loop(self):
        rng = np.random.default_rng(61)
        g = random_graph(rng, n_entities=12)
        for variant in models.VARIANTS:
            for dissim in models.DISSIMILARITIES:
                m = random_model(rng, g, variant=variant, dissimilarity=dissim)
                r, h, t = 1, 3, 5
                tails = score_query(g, m, None, r, head=h)[0]
                heads = score_query(g, m, None, r, tail=t)[0]
                for e in range(g.n_entities):
                    assert tails[e] == pytest.approx(
                        score_triple(m, (h, r, e)), rel=1e-12, abs=1e-12)
                    assert heads[e] == pytest.approx(
                        score_triple(m, (e, r, t)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("anchors", [{"head": 0, "tail": 1}, {}])
    def test_score_all_needs_exactly_one_anchor(self, anchors):
        with pytest.raises(ConfigurationError, match="fix exactly one"):
            score_query(tiny_graph(), tiny_model(), None, 0, **anchors)

    @pytest.mark.parametrize("dim,rel_dim", [(9, 6), (6, 9)])
    def test_rectangular_projections_score_every_candidate(self, dim,
                                                           rel_dim):
        rng = np.random.default_rng(64)
        g = random_graph(rng, n_entities=12)
        for variant in ("transr", "stranse"):
            for dissim in models.DISSIMILARITIES:
                m = random_model(rng, g, variant=variant, dim=dim,
                                 dissimilarity=dissim, rel_dim=rel_dim)
                assert project_all(m, 1, "tail").shape == (12, rel_dim)
                tails = score_query(g, m, None, 1, head=3)[0]
                heads = score_query(g, m, None, 1, tail=5)[0]
                for e in range(g.n_entities):
                    assert tails[e] == pytest.approx(
                        score_triple(m, (3, 1, e)), rel=1e-12, abs=1e-12)
                    assert heads[e] == pytest.approx(
                        score_triple(m, (e, 1, 5)), rel=1e-12, abs=1e-12)

    def test_member_rows_match_the_full_projection(self):
        rng = np.random.default_rng(62)
        g = random_graph(rng, n_entities=12)
        rows = np.array([7, 0, 3, 3])
        for variant in models.VARIANTS:
            m = random_model(rng, g, variant=variant)
            for side in ("head", "tail"):
                picked = project_slots(m, rows[None], np.array([2]), [side])[0]
                assert picked.shape == (len(rows), m.rel_dim)
                np.testing.assert_allclose(picked,
                                           project_all(m, 2, side)[rows],
                                           rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("dissim", models.DISSIMILARITIES)
    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_score_all_into_a_buffer_is_bit_identical(self, variant, dissim):
        rng = np.random.default_rng(63)
        g = random_graph(rng, n_entities=300, n_train=400)
        m = random_model(rng, g, variant=variant, dim=50,
                         dissimilarity=dissim)
        r_vec = m.relation_vecs[2]

        def norms(diff):  # reference: reduce a fresh (k, E) residual array
            diff = np.ascontiguousarray(diff)  # over its leading axis
            if dissim == "l1":
                return np.abs(diff).sum(axis=0)
            return np.sqrt((diff ** 2).sum(axis=0))

        def row_norms(diff):  # the former (E, k) formula, one row each
            diff = np.ascontiguousarray(diff.T)
            if dissim == "l1":
                return np.abs(diff).sum(axis=-1)
            return np.sqrt((diff ** 2).sum(axis=-1))

        def one(e, side):  # entity e projected into one slot of relation 2
            return project_slots(m, np.array([[e]]), np.array([2]),
                                 [side])[0, 0]

        for e in (0, 7, g.n_entities - 1):
            tails = project_all(m, 2, "tail")
            diff = (one(e, "head") + r_vec)[:, None] \
                - tails.T
            want = norms(diff)
            assert np.array_equal(score_query(g, m, None, 2, head=e)[0], want)
            assert np.array_equal(_coordinate_scores(
                tails.T, _anchor(m, 2, "tail", e), dissim), want)
            np.testing.assert_allclose(want, row_norms(diff), rtol=1e-13)

            heads = project_all(m, 2, "head")
            diff = heads.T + (r_vec - one(e, "tail"))[:, None]
            want = norms(diff)
            assert np.array_equal(score_query(g, m, None, 2, tail=e)[0], want)
            assert np.array_equal(_coordinate_scores(
                heads.T, _anchor(m, 2, "head", e), dissim), want)
            np.testing.assert_allclose(want, row_norms(diff), rtol=1e-13)

    @pytest.mark.parametrize("dissim", models.DISSIMILARITIES)
    def test_score_all_holds_no_residual_array(self, dissim):
        rng = np.random.default_rng(65)
        n, k = 20000, 50
        m = EmbeddingModel(dissim, rng.normal(size=(n, k)),
                           rng.normal(size=(3, k)))
        cand, anchor = project_all(m, 2, "tail"), _anchor(m, 2, "tail", 0)
        tracemalloc.start()
        try:
            _coordinate_scores(cand.T, anchor, dissim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (k, E) residual would be k * E doubles; the kernel needs a
        # few E-length vectors
        assert peak < 4 * n * 8


class TestScoreGradients:
    def check_fd(self, m, triple, rel_tol=2e-5):
        h = 1e-6
        grads = score_gradients(m, triple)
        # each distinct parameter slice against its total gradient: transr's
        # one matrix gets both projection terms, and h == t both entity terms
        blocks = {}
        r = triple[1]
        params = [("head", m.entity_vecs, (triple[0],)),
                  ("relation", m.relation_vecs, (r,)),
                  ("tail", m.entity_vecs, (triple[2],))]
        if len(m.proj):
            # transr's two slots share one key: matrix 0 of relation r
            params += [(f"{side}_proj", m.proj, (models._slot(m, side), r))
                       for side in ("head", "tail")]
        for name, arr, idx in params:
            key = (id(arr), idx)
            if key in blocks:
                names, _, _, total = blocks[key]
                blocks[key] = (f"{names}+{name}", arr, idx,
                               total + grads[name])
            else:
                blocks[key] = (name, arr, idx, grads[name])
        for name, arr, idx, g in blocks.values():
            fd = np.zeros_like(g)
            it = np.nditer(fd, flags=["multi_index"])
            for _ in it:
                ix = idx + it.multi_index
                keep = arr[ix]
                arr[ix] = keep + h
                up = score_triple(m, triple)
                arr[ix] = keep - h
                down = score_triple(m, triple)
                arr[ix] = keep
                fd[it.multi_index] = (up - down) / (2 * h)
            err = np.linalg.norm(g - fd) / (1 + np.linalg.norm(fd))
            assert err < rel_tol, f"{name} gradient off by {err}"

    def safe_triple(self, rng, m, g):
        # keep away from the l1 kink where the subgradient is arbitrary
        while True:
            h, t = rng.integers(0, g.n_entities, size=2)
            r = int(rng.integers(0, g.n_relations))
            triple = (int(h), r, int(t))
            if score_triple(m, triple) > 1e-2:
                return triple

    @pytest.mark.parametrize("variant", models.VARIANTS)
    @pytest.mark.parametrize("dissim", models.DISSIMILARITIES)
    def test_matches_finite_differences(self, variant, dissim):
        rng = np.random.default_rng(62)
        g = random_graph(rng, n_entities=10)
        for _ in range(5):
            m = random_model(rng, g, variant=variant, dissimilarity=dissim,
                             dim=5)
            self.check_fd(m, self.safe_triple(rng, m, g))

    def test_l1_subgradient_is_zero_at_kink(self):
        m = tiny_model()
        m.entity_vecs[1] = m.entity_vecs[0] + m.relation_vecs[0]  # u = 0
        grads = score_gradients(m, (0, 0, 1))
        assert not grads["head"].any()
        assert not grads["relation"].any()

    def test_l2_gradient_is_zero_at_zero_residual(self):
        m = tiny_model(dissim="l2")
        m.entity_vecs[1] = m.entity_vecs[0] + m.relation_vecs[0]
        grads = score_gradients(m, (0, 0, 1))
        assert not grads["head"].any()


class TestBatchUpdate:
    @pytest.mark.parametrize("variant", models.VARIANTS)
    @pytest.mark.parametrize("dissim", models.DISSIMILARITIES)
    def test_step_is_the_summed_score_gradients(self, variant, dissim):
        rng = np.random.default_rng(63)
        g = random_graph(rng, n_entities=6, n_relations=3)
        m = random_model(rng, g, variant=variant, dissimilarity=dissim,
                         dim=4)
        # few ids, so relations, heads and tails repeat within the batch
        pos = np.stack([rng.integers(0, 6, 12), rng.integers(0, 3, 12),
                        rng.integers(0, 6, 12)], axis=1)
        neg = pos.copy()
        neg[:, 2] = rng.integers(0, 6, 12)
        lr = 0.1

        params = (m.entity_vecs, m.relation_vecs, m.proj)
        expected = {id(a): a.copy() for a in params}
        for sign, triples in ((1.0, pos), (-1.0, neg)):
            for h, r, t in triples.tolist():
                grads = score_gradients(m, (h, r, t))
                steps = [("head", m.entity_vecs, h),
                         ("relation", m.relation_vecs, r),
                         ("tail", m.entity_vecs, t)]
                if len(m.proj):
                    steps += [(f"{side}_proj", m.proj,
                               (models._slot(m, side), r))
                              for side in ("head", "tail")]
                for name, arr, idx in steps:
                    expected[id(arr)][idx] -= lr * sign * grads[name]

        norm_grad = models._norm_grad
        models._batch_update(m, lr, np.concatenate([pos, neg]), np.concatenate(
            [norm_grad(models._residuals(m, pos), dissim),
             -norm_grad(models._residuals(m, neg), dissim)]))
        for arr in params:
            np.testing.assert_allclose(arr, expected[id(arr)], rtol=0,
                                       atol=1e-12)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    @pytest.mark.parametrize("dissim", models.DISSIMILARITIES)
    def test_steps_add_in_the_documented_order(self, variant, dissim):
        """The update has the bits of its steps added one by one in the
        order its docstring lists, with each row's values from
        ``_relation_grads``."""
        rng = np.random.default_rng(67)
        g = random_graph(rng, n_entities=6, n_relations=3)
        m = random_model(rng, g, variant=variant, dissimilarity=dissim,
                         dim=4)
        # relation 1 repeats, and entity 2 is a positive tail and a
        # negative head
        pos = np.array([[0, 1, 2], [3, 1, 2], [2, 0, 4], [5, 1, 1]])
        neg = np.array([[2, 1, 2], [3, 1, 5], [2, 0, 2], [5, 1, 3]])
        triples, half = np.concatenate([pos, neg]), len(pos)
        # rows scaled by 1e-8 .. 1e8, so another summation order changes
        # bits
        grad = models._norm_grad(models._residuals(m, triples), dissim) \
            * 10.0 ** np.array([0, 8, 0, -8, 0, 8, 0, -8])[:, None]
        grad[half:] *= -1
        lr = 0.1

        ends = {0: np.empty((len(triples), m.dim)),
                2: np.empty((len(triples), m.dim))}
        mat_steps = []
        for rows, head, tail, mats in models._relation_grads(m, triples,
                                                             grad):
            ends[0][rows], ends[2][rows] = head, tail
            # the head matrix, then the tail matrix
            assert [slot for slot, _, _ in mats] == [0, -1][:len(mats)]
            mat_steps += mats

        def reference(segments):
            """The steps added one by one: relations, then the entity
            steps of each (column, rows) segment, then the matrices."""
            ent, rel, proj = (a.copy() for a in (m.entity_vecs,
                                                 m.relation_vecs, m.proj))
            for i in range(half):
                rel[triples[i, 1]] += -lr * (grad[i] + grad[half + i])
            for column, rows in segments:
                for e, step in zip(triples[rows, column],
                                   ends[column][rows]):
                    ent[e] += -lr * step
            for slot, r, step in mat_steps:
                proj[slot, r] -= lr * step
            return ent, rel, proj

        every, positives, negatives = (slice(None), slice(None, half),
                                       slice(half, None))
        expected = reference([(0, every), (2, every)])
        # tails before heads, or positives before negatives, move bits
        for other in ([(2, every), (0, every)],
                      [(0, positives), (2, positives), (0, negatives),
                       (2, negatives)]):
            assert not np.array_equal(reference(other)[0], expected[0])
        models._batch_update(m, lr, triples, grad)
        for arr, want in zip((m.entity_vecs, m.relation_vecs, m.proj),
                             expected, strict=True):
            assert np.array_equal(arr, want)

    def test_update_holds_one_step_array_and_one_chunk_index(self):
        """A transr update holds its (2n, d) entity steps, scaled in
        place, and one chunk of the scatter index at a time: no scaled
        copy and no whole-batch index."""
        rng = np.random.default_rng(68)
        d, n_rel, half = 32, 20, 4000
        m = EmbeddingModel("l2", rng.normal(size=(500, d)),
                           rng.normal(size=(n_rel, d)),
                           rng.normal(size=(1, n_rel, d, d)))
        triples = np.stack([rng.integers(0, 500, 2 * half),
                            rng.integers(0, n_rel, 2 * half),
                            rng.integers(0, 500, 2 * half)], axis=1)
        grad = rng.normal(size=(2 * half, d))
        steps = 2 * len(triples) * d * 8
        # the steps span several chunks
        assert steps // 8 > 3 * models._SCATTER_CHUNK
        tracemalloc.start()
        try:
            models._batch_update(m, 1e-3, triples, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * steps + 8 * models._SCATTER_CHUNK

    def test_transr_keeps_one_matrix(self, tmp_path):
        rng = np.random.default_rng(64)
        g = random_graph(rng)
        base = train(g, TrainConfig(dim=5, lr=0.01, epochs=2, seed=0))
        staged = models._init_model(g, TrainConfig(variant="transr", dim=5),
                                    base, rng)
        assert staged.proj.shape == (1, g.n_relations, 5, 5)

        cfg = TrainConfig(variant="transr", dim=5, lr=0.05, epochs=12,
                          seed=1, eval_every=2, patience=2)
        seen = []

        def validator(model):
            seen.append(model_bytes(model))
            return -len(seen)       # the first validation stays the best

        m = train(g, cfg, init=base, validator=validator)
        assert len(seen) == 3 and seen[0] != seen[-1]
        assert model_bytes(m) == seen[0]       # restored
        assert m.proj.shape == (1, g.n_relations, 5, 5)
        assert not np.allclose(m.head_proj, np.eye(5))   # it did train

        path = str(tmp_path / "transr.bin")
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.proj.shape == (1, g.n_relations, 5, 5)
        clone = copy.deepcopy(m)
        assert clone.proj.shape == (1, g.n_relations, 5, 5)
        assert not np.shares_memory(clone.proj, m.proj)


class TestScatterAdd:
    @pytest.mark.parametrize("k", [1, 50])
    @pytest.mark.parametrize("case", ["mixed", "one-id", "empty", "one-row"])
    def test_same_bits_as_add_at(self, k, case):
        rng = np.random.default_rng(65)
        n_rows, n_ids = (1, 40) if case == "one-row" else (7, 40)
        ids = {"mixed": rng.integers(0, n_rows, n_ids),
               "one-id": np.full(n_ids, 3),      # repeated batch-length times
               "empty": np.empty(0, dtype=np.int64),
               "one-row": np.zeros(n_ids, dtype=np.int64)}[case]
        table = rng.normal(size=(n_rows, k))
        # magnitudes 1e-8 .. 1e8, so another summation order changes bits
        rows = rng.normal(size=(len(ids), k)) \
            * 10.0 ** rng.integers(-8, 9, size=(len(ids), 1))
        expected = table.copy()
        np.add.at(expected, ids, rows)
        if case == "one-id":
            backwards = table.copy()
            np.add.at(backwards, ids[::-1], rows[::-1])
            assert not np.array_equal(backwards, expected)
        models._scatter_add(table, ids, rows)
        assert np.array_equal(table, expected)

    def test_chunks_add_in_the_two_d_order(self):
        """Ids spanning several chunks, one of them on both sides of a
        chunk boundary, add in the order a 2-D ``np.add.at`` adds them."""
        rng = np.random.default_rng(69)
        k = 50
        per_chunk = models._SCATTER_CHUNK // k
        ids = rng.integers(0, 30, 3 * per_chunk + 7)
        ids[per_chunk - 1:per_chunk + 1] = 4     # the last and first rows
        table = rng.normal(size=(30, k))
        rows = rng.normal(size=(len(ids), k)) \
            * 10.0 ** rng.integers(-8, 9, size=(len(ids), 1))
        expected = table.copy()
        np.add.at(expected, ids, rows)
        models._scatter_add(table, ids, rows)
        assert len(ids) * k > 3 * models._SCATTER_CHUNK
        assert np.array_equal(table, expected)

    def test_a_fortran_ordered_table_raises(self):
        table = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        before = table.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            models._scatter_add(table, np.array([0, 1, 1]), np.ones((3, 3)))
        assert np.array_equal(table, before)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    @pytest.mark.parametrize("dissim", models.DISSIMILARITIES)
    def test_training_matches_two_d_add_at(self, variant, dissim,
                                           monkeypatch):
        """Training on the flat scatter gives the bits that a plain 2-D
        ``np.add.at`` scatter gives."""
        rng = np.random.default_rng(66)
        g = random_graph(rng, n_entities=9, n_relations=3, n_train=50)
        ent, rel = g.entities.labels, g.relations.labels
        labels = [(ent[h], rel[r], ent[t]) for h, r, t in g.train]
        g = build_graph(labels + labels[:20],           # duplicate triples
                        [(ent[h], rel[r], ent[t]) for h, r, t in g.valid],
                        [(ent[h], rel[r], ent[t]) for h, r, t in g.test])

        def run():
            base = None
            if variant != "transe":
                base = train(g, TrainConfig(dim=5, lr=0.05, epochs=3,
                                            seed=2, dissimilarity=dissim))
            cfg = TrainConfig(variant=variant, dim=5, lr=0.05, margin=1.0,
                              batch_size=16, dissimilarity=dissim, epochs=6,
                              negative_sampling="bernoulli", seed=3,
                              eval_every=2, patience=2)
            return train(g, cfg, init=base,
                         validator=lambda m: validation_hits10(g, m))

        flat = run()
        monkeypatch.setattr(models, "_scatter_add",
                            lambda table, ids, rows: np.add.at(table, ids,
                                                               rows))
        plain = run()
        for a, b in zip(models._param_arrays(flat),
                        models._param_arrays(plain), strict=True):
            assert np.array_equal(a, b)


class TestTraining:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="Python 3.10 keeps a call's arguments on "
                               "the caller's stack until it returns")
    def test_an_init_passed_as_a_temporary_is_freed(self):
        rng = np.random.default_rng(79)
        g = random_graph(rng)
        base = random_model(rng, g, dim=4)
        refs = []

        def temporary():
            init = copy.deepcopy(base)
            refs.append(weakref.ref(init))
            return init

        alive = []
        train(g, TrainConfig(variant="transr", dim=4, epochs=2), temporary(),
              on_epoch=lambda epoch, loss: alive.append(refs[0]() is not None))
        assert alive == [False, False]

    def test_loss_goes_down(self):
        rng = np.random.default_rng(71)
        g = random_graph(rng, n_entities=20, n_train=80)
        losses = []
        train(g, TrainConfig(dim=8, lr=0.02, margin=1.0, batch_size=20,
                             epochs=40, seed=0),
              on_epoch=lambda e, loss: losses.append(loss))
        assert len(losses) == 40
        assert losses[-1] < losses[0]

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(72)
        g = random_graph(rng)
        cfg = TrainConfig(dim=6, lr=0.01, epochs=10, batch_size=16, seed=5)
        assert model_bytes(train(g, cfg)) == model_bytes(train(g, cfg))

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(73)
        g = random_graph(rng)
        a = train(g, TrainConfig(dim=6, epochs=3, seed=1))
        b = train(g, TrainConfig(dim=6, epochs=3, seed=2))
        assert model_bytes(a) != model_bytes(b)

    def test_fresh_init_range(self):
        rng = np.random.default_rng(74)
        g = random_graph(rng)
        m = train(g, TrainConfig(dim=16, lr=1e-12, epochs=1, seed=0))
        bound = 6.0 / np.sqrt(16) + 1e-6
        assert np.abs(m.entity_vecs).max() <= bound
        assert np.abs(m.relation_vecs).max() <= bound

    def test_projected_variants_need_a_base_model(self):
        rng = np.random.default_rng(75)
        g = random_graph(rng)
        for variant in ("transr", "stranse"):
            with pytest.raises(ConfigurationError):
                train(g, TrainConfig(variant=variant, dim=6, epochs=1))

    def test_staged_start_copies_base_and_identity_projections(self):
        rng = np.random.default_rng(76)
        g = random_graph(rng)
        base = train(g, TrainConfig(dim=6, lr=0.01, epochs=5, seed=3))
        for variant in ("transr", "stranse"):
            m = train(g, TrainConfig(variant=variant, dim=6, lr=1e-13,
                                     epochs=1, seed=0), init=base)
            assert np.allclose(m.entity_vecs, base.entity_vecs, atol=1e-9)
            eye = np.broadcast_to(np.eye(6), (g.n_relations, 6, 6))
            assert np.allclose(m.head_proj, eye, atol=1e-9)
            if variant == "stranse":
                assert np.allclose(m.tail_proj, eye, atol=1e-9)
                assert not np.shares_memory(m.tail_proj, m.head_proj)

    def test_staged_start_rejects_wrong_base(self):
        rng = np.random.default_rng(77)
        g = random_graph(rng)
        base = train(g, TrainConfig(dim=6, epochs=1, seed=0))
        with pytest.raises(ConfigurationError):
            train(g, TrainConfig(variant="transr", dim=8, epochs=1),
                  init=base)
        other = train(random_graph(np.random.default_rng(0), n_entities=9),
                      TrainConfig(dim=6, epochs=1))
        with pytest.raises(ConfigurationError):
            train(g, TrainConfig(variant="transr", dim=6, epochs=1),
                  init=other)

    def test_entity_renormalization_is_opt_in(self):
        rng = np.random.default_rng(78)
        g = random_graph(rng)
        plain = train(g, TrainConfig(dim=12, lr=1e-13, epochs=1, seed=4))
        normed = train(g, TrainConfig(dim=12, lr=1e-13, epochs=1, seed=4,
                                      normalize_entities=True))
        assert np.linalg.norm(plain.entity_vecs, axis=1).max() > 1.2
        assert np.allclose(np.linalg.norm(normed.entity_vecs, axis=1), 1.0,
                           atol=1e-9)

    def test_bernoulli_sampling_changes_the_run(self):
        rng = np.random.default_rng(79)
        g = random_graph(rng, n_entities=15, n_train=50)
        uni = train(g, TrainConfig(dim=6, epochs=5, seed=0))
        ber = train(g, TrainConfig(dim=6, epochs=5, seed=0,
                                   negative_sampling="bernoulli"))
        assert model_bytes(uni) != model_bytes(ber)

    def test_empty_training_split_rejected(self):
        g = __import__("drekge").data.build_graph(
            [], [("a", "r", "b")], [("a", "r", "b")])
        with pytest.raises(ConfigurationError):
            train(g, TrainConfig(dim=4, epochs=1))

    def test_early_stopping_keeps_the_best_snapshot(self):
        rng = np.random.default_rng(80)
        g = random_graph(rng)
        scores = iter([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
        seen = []

        def validator(model):
            seen.append(model_bytes(model))
            return next(scores)

        epochs_run = []
        m = train(g, TrainConfig(dim=6, lr=0.01, epochs=100, seed=1,
                                 eval_every=2, patience=3),
                  validator=validator,
                  on_epoch=lambda e, loss: epochs_run.append(e))
        # first validation wins; three more without improvement stop the run
        assert len(seen) == 4
        assert len(epochs_run) < 100
        assert model_bytes(m) == seen[0]

    def test_a_better_validation_refreshes_the_snapshot_in_place(
            self, monkeypatch):
        # two improving validations: the second copies the parameters
        # into the arrays the first made, so the best parameters are
        # never held twice
        rng = np.random.default_rng(82)
        g = random_graph(rng)
        scores = iter([1.0, 2.0, 0.0, 0.0])
        seen, params, snaps = [], [], []
        snapshot = models._snapshot

        def recording(model, snap=None):
            out = snapshot(model, snap)
            snaps.append((out, [a.copy() for a in out]))
            return out

        def validator(model):
            seen.append(model_bytes(model))
            params.append([a.copy() for a in models._param_arrays(model)])
            return next(scores)

        monkeypatch.setattr(models, "_snapshot", recording)
        m = train(g, TrainConfig(dim=6, lr=0.01, epochs=100, seed=1,
                                 eval_every=2, patience=2),
                  validator=validator)
        assert len(seen) == 4 and len(snaps) == 2
        (first, held_first), (second, held_second) = snaps
        assert len(second) == len(first) == 2
        assert all(a is b for a, b in zip(first, second))
        for held, want in ((held_first, params[0]), (held_second, params[1])):
            assert all(np.array_equal(a, b) for a, b in zip(held, want))
        assert not np.array_equal(params[0][0], params[1][0])
        assert model_bytes(m) == seen[1]


class TestSerialization:
    def build(self, variant):
        rng = np.random.default_rng(81)
        g = random_graph(rng)
        base = train(g, TrainConfig(dim=5, epochs=2, seed=0))
        if variant == "transe":
            return base
        return train(g, TrainConfig(variant=variant, dim=5, epochs=2,
                                    seed=0), init=base)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_round_trip_is_bit_exact(self, variant, tmp_path):
        m = self.build(variant)
        path = str(tmp_path / "model.bin")
        save_model(m, path)
        loaded = load_model(path)
        assert model_bytes(loaded) == model_bytes(m)
        assert loaded.fingerprint() == m.fingerprint()
        assert loaded.variant == variant

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_fingerprint_hashes_the_file_bytes(self, variant, tmp_path):
        m = self.build(variant)
        path = str(tmp_path / "model.bin")
        save_model(m, path)
        blob = open(path, "rb").read()
        digest = hashlib.blake2b(blob, digest_size=8).digest()
        assert m.fingerprint() == int.from_bytes(digest, "little")
        assert model_bytes(m) == blob

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_file_layout_is_header_vectors_head_then_tail_matrices(
            self, variant, tmp_path):
        """The v1 bytes written out by hand: transr stores its one matrix
        per relation once, stranse its head matrices before its tails."""
        rng = np.random.default_rng(84)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=5, dissimilarity="l2",
                         rel_dim=None if variant == "transe" else 3)
        arrays = [m.entity_vecs, m.relation_vecs]
        if variant != "transe":
            arrays.append(m.head_proj)
        if variant == "stranse":
            arrays.append(m.tail_proj)
        payload = b"".join(a.astype("<f8").tobytes() for a in arrays)
        header = (f"DREKGE v1 {variant} {g.n_entities} {g.n_relations} "
                  f"5 {m.rel_dim} l2\n").encode("ascii")
        path = tmp_path / "model.bin"
        save_model(m, str(path))
        assert path.read_bytes() == \
            header + payload + struct.pack("<Q", len(payload))

    @pytest.mark.parametrize("variant, name", [("stranse", "tail_proj"),
                                               ("transr", "head_proj")])
    def test_a_non_finite_matrix_is_named(self, variant, name):
        rng = np.random.default_rng(85)
        g = random_graph(rng)
        m = random_model(rng, g, variant=variant, dim=4)
        m.tail_proj[1, 2, 3] = np.nan     # transr: its one matrix
        with pytest.raises(TrainingDivergedError,
                           match=f"epoch 7: non-finite {name}$"):
            models._check_finite(m, 7)

    def test_fingerprint_tracks_content(self):
        a = self.build("transe")
        b = self.build("transe")
        assert a.fingerprint() == b.fingerprint()
        b.entity_vecs[0, 0] += 1.0
        assert EmbeddingModel(b.dissimilarity, b.entity_vecs,
                              b.relation_vecs).fingerprint() != a.fingerprint()

    def test_corrupted_files_are_rejected(self, tmp_path):
        m = self.build("transe")
        path = str(tmp_path / "model.bin")
        save_model(m, path)
        blob = open(path, "rb").read()

        def expect_error(mutated):
            bad = str(tmp_path / "bad.bin")
            with open(bad, "wb") as fh:
                fh.write(mutated)
            with pytest.raises(FormatError):
                load_model(bad)

        expect_error(b"NOPEGE" + blob[6:])          # wrong magic
        expect_error(blob.replace(b" v1 ", b" v9 ", 1))
        expect_error(blob.replace(b"transe", b"transx", 1))
        expect_error(blob[:-12])                    # truncated payload
        expect_error(blob[:-8] + b"\0" * 8)         # wrong length footer
        expect_error(blob + b"junk")                # trailing garbage

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_non_finite_parameters_are_rejected(self, variant, tmp_path):
        clean = self.build(variant)
        path = str(tmp_path / "model.bin")
        for name in ("entity_vecs", "relation_vecs", "head_proj",
                     "tail_proj"):
            if getattr(clean, name) is None:
                continue
            for value in (np.nan, np.inf, -np.inf):
                m = copy.deepcopy(clean)
                getattr(m, name).flat[-1] = value
                save_model(m, path)
                with pytest.raises(FormatError):
                    load_model(path)

    def test_header_is_single_ascii_line(self, tmp_path):
        m = self.build("stranse")
        path = str(tmp_path / "model.bin")
        save_model(m, path)
        header = open(path, "rb").readline()
        fields = header.decode("ascii").split()
        assert fields[0] == "DREKGE" and fields[1] == "v1"
        assert fields[2] == "stranse"
        assert [int(x) for x in fields[3:6]] == [m.n_entities, m.n_relations,
                                                 m.dim]
