"""Release gate: one test per shipping criterion.

Each test checks a behavior contract at a fixed tolerance and asserts a
wall-clock budget, then prints a PASS line with the measured numbers
(visible with -s or in captured output). The two dataset-scale checks
need real benchmark triples and run only when DREKGE_DATA_DIR points at
a directory laid out as <dir>/{wn18,fb15k}/{train,valid,test}.txt; they
carry the "extended" marker and are excluded from default runs.
"""

import os
import time

import numpy as np
import pytest

from drekge import data, domains, ellipsoid, evaluation, models

from generators import (country_capital_kg, domain_members,
                        random_domain_model, random_ellipsoid, random_graph,
                        random_model, surface_points)
from refeval import ref_evaluate

DATA_ENV = "DREKGE_DATA_DIR"


def elapsed(t0):
    return time.perf_counter() - t0


class TestCriterion1Geometry:
    def test_distance_examples_exact(self):
        t0 = time.perf_counter()
        tol = 1e-12

        sphere = ellipsoid.Ellipsoid(np.zeros(3), np.eye(3))
        assert abs(ellipsoid.distance(sphere, np.array([2.0, 0, 0])) - 1.0) <= tol
        assert abs(ellipsoid.distance(sphere, np.array([0, -2.0, 0])) - 1.0) <= tol

        stretched = ellipsoid.Ellipsoid(np.zeros(2), np.diag([0.5, 1.0]))
        assert abs(ellipsoid.distance(stretched, np.array([4.0, 0.0])) - 2.0) <= tol

        on_surface = np.array([1.0, 0, 0])
        assert abs(ellipsoid.distance(sphere, on_surface)) <= tol
        assert ellipsoid.score_test(sphere, on_surface) == 0.0

        interior = np.array([0.3, 0.1, -0.2])
        assert ellipsoid.score_test(sphere, interior) == 0.0
        assert ellipsoid.score_test(sphere, np.array([3.0, 0, 0])) > 0

        dt = elapsed(t0)
        assert dt < 1.0
        print(f"criterion 1 geometry: PASS in {dt:.3f}s (tol 1e-12)")


class TestCriterion2Gradients:
    PAIRS = ((2, 600), (8, 300), (50, 100))  # 1000 pairs total

    @staticmethod
    def _fd_error(rng, k):
        while True:
            ell = random_ellipsoid(rng, k)
            direction = rng.normal(size=k)
            direction /= np.linalg.norm(direction)
            point = ell.center + direction * rng.uniform(0.2, 3.0)
            q = ellipsoid.quad_form(ell, point)
            if q > 0.04 and abs(q - 1.0) > 0.04:
                break
        grad_c, grad_l = ellipsoid.gradient(ell, point)
        h = 1e-6
        fd_c = np.zeros(k)
        for i in range(k):
            up, dn = ell.copy(), ell.copy()
            up.center[i] += h
            dn.center[i] -= h
            fd_c[i] = (ellipsoid.distance(up, point)
                       - ellipsoid.distance(dn, point)) / (2 * h)
        rows, cols = np.tril_indices(k)
        fd_l = np.zeros(len(rows))
        up, dn = ell.copy(), ell.copy()
        for n, (i, j) in enumerate(zip(rows, cols)):
            up.factor[i, j] += h
            dn.factor[i, j] -= h
            fd_l[n] = (ellipsoid.distance(up, point)
                       - ellipsoid.distance(dn, point)) / (2 * h)
            up.factor[i, j] -= h
            dn.factor[i, j] += h
        analytic = np.concatenate([grad_c, grad_l[rows, cols]])
        fd = np.concatenate([fd_c, fd_l])
        return float(np.linalg.norm(analytic - fd)
                     / max(np.linalg.norm(fd), 1e-12))

    def test_thousand_finite_difference_checks(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = 0.0
        for k, n in self.PAIRS:
            for _ in range(n):
                worst = max(worst, self._fd_error(rng, k))
        assert worst <= 1e-4
        dt = elapsed(t0)
        assert dt < 10.0
        print(f"criterion 2 gradients: PASS in {dt:.2f}s "
              f"(worst rel err {worst:.2e} over 1000 pairs)")


class TestCriterion3Invariants:
    def test_invariant_bundle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)

        # factor stays lower triangular with positive diagonal across
        # 10,000 mini-batch updates at a deliberately hot learning rate
        pts = rng.normal(size=(240, 4)) * np.array([1.0, 0.6, 0.3, 0.2])
        diag_ok = []

        def watch(epoch, ell, mean_score):
            diag_ok.append(float(np.diag(ell.factor).min()))
            assert np.allclose(ell.factor, np.tril(ell.factor))

        cfg = ellipsoid.FitConfig(lr=0.05, epochs=1000, batch_size=24, seed=3)
        ellipsoid.fit(pts, cfg, callback=watch)
        assert len(diag_ok) == 1000          # 10 updates per epoch
        assert min(diag_ok) > 0.0

        # spheres give the exact radial distance at any radius
        for _ in range(50):
            radius = rng.uniform(0.1, 5.0)
            sphere = ellipsoid.Ellipsoid(rng.normal(size=3),
                                         np.eye(3) / radius)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            r = rng.uniform(0.05, 6.0)
            d = ellipsoid.distance(sphere, sphere.center + r * u)
            assert abs(d - abs(r - radius)) <= 1e-12

        # along any ray from the center the distance falls to zero at the
        # surface then rises, and is continuous across the crossing
        for _ in range(20):
            ell = random_ellipsoid(rng, 3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            t_surf = 1.0 / np.linalg.norm(ell.factor.T @ u)
            inside = [ellipsoid.distance(ell, ell.center + t * u)
                      for t in np.linspace(0.05, 0.98, 25) * t_surf]
            outside = [ellipsoid.distance(ell, ell.center + t * u)
                       for t in np.linspace(1.02, 4.0, 25) * t_surf]
            assert np.all(np.diff(inside) < 0)
            assert np.all(np.diff(outside) > 0)
            for eps in (1e-3, 1e-6, 1e-9):
                for t in (t_surf * (1 - eps), t_surf * (1 + eps)):
                    d = ellipsoid.distance(ell, ell.center + t * u)
                    assert d <= eps * t_surf * 1.01 + 1e-12

        # rotating the space rotates the answer: distances are intrinsic
        for _ in range(10):
            ell = random_ellipsoid(rng, 5)
            point = ell.center + rng.normal(size=5)
            q_mat, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            m = ell.factor @ ell.factor.T
            rotated = ellipsoid.Ellipsoid(
                q_mat @ ell.center, np.linalg.cholesky(q_mat @ m @ q_mat.T))
            before = ellipsoid.distance(ell, point)
            after = ellipsoid.distance(rotated, q_mat @ point)
            assert abs(before - after) <= 1e-10

        # filtering can only remove competitors, so ranks only improve
        for seed in range(4):
            g_rng = np.random.default_rng(200 + seed)
            g = random_graph(g_rng, n_entities=20, n_relations=3)
            m = random_model(g_rng, g, dim=4)
            rep = evaluation.evaluate(g, m)
            for side in (data.HEAD, data.TAIL, evaluation.COMBINED):
                raw = rep.overall[("raw", side)]
                filt = rep.overall[("filtered", side)]
                assert filt.mean_rank <= raw.mean_rank
                for n in evaluation.HITS_AT:
                    assert filt.hits[n] >= raw.hits[n]

        dt = elapsed(t0)
        assert dt < 30.0
        print(f"criterion 3 invariants: PASS in {dt:.2f}s")


class TestCriterion4SyntheticFit:
    def test_recovers_planted_ellipsoids(self):
        t0 = time.perf_counter()
        worst_center, worst_f, worst_ratio = 0.0, 0.0, 0.0
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            center = rng.normal(size=4)
            axes = np.sort(rng.uniform(0.5, 1.0, size=4))[::-1]
            axes[0] = axes[-1] * rng.uniform(1.4, 2.0)  # ratio near the 2:1 cap
            pts = surface_points(rng, 400, center, axes)

            cfg = ellipsoid.FitConfig(lr=1e-4, epochs=800, batch_size=64, seed=0)
            ell = ellipsoid.fit(pts, cfg)

            center_err = float(np.linalg.norm(ell.center - center))
            mean_f = float(ellipsoid.scores_train_stack(
                ell.center[None], ell.factor[None], pts[None])[0].mean())
            m = ell.factor @ ell.factor.T
            fitted = np.sort(1.0 / np.sqrt(np.linalg.eigvalsh(m)))[::-1]
            ratio_err = abs((fitted[0] / fitted[-1]) / (axes[0] / axes[-1]) - 1)

            assert center_err <= 0.05
            assert mean_f < 0.02
            assert ratio_err <= 0.20
            worst_center = max(worst_center, center_err)
            worst_f = max(worst_f, mean_f)
            worst_ratio = max(worst_ratio, ratio_err)

        dt = elapsed(t0)
        assert dt < 120.0
        print(f"criterion 4 synthetic fit: PASS in {dt:.2f}s "
              f"(center {worst_center:.4f}, mean f {worst_f:.4f}, "
              f"ratio err {worst_ratio:.3f})")


class TestCriterion5OracleEquivalence:
    def test_twenty_graphs_match_reference(self):
        t0 = time.perf_counter()
        variants = ("transe", "transr", "stranse")
        dissims = ("l1", "l2")
        for i in range(20):
            rng = np.random.default_rng(1000 + i)
            g = random_graph(rng,
                             n_entities=int(rng.integers(15, 51)),
                             n_relations=int(rng.integers(2, 6)),
                             n_train=60, n_valid=6, n_test=8)
            variant = variants[i % 3]
            dissim = dissims[i % 2]
            m = random_model(rng, g, variant=variant, dim=5,
                             dissimilarity=dissim)
            params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
                      "head_proj": m.head_proj, "tail_proj": m.tail_proj}
            dm = None
            ells = None
            if i % 2 == 1:
                dm = random_domain_model(rng, g, m)
                ells = {key: (e.center, e.factor)
                        for key, e in dm.ellipsoids.items()}
            ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test,
                               variant, dissim, params, ellipsoids=ells)
            rep = evaluation.evaluate(g, m, dm)
            for key, block in rep.overall.items():
                assert block.mean_rank == ref[key]["mean_rank"], (i, key)
                for n, pct in block.hits.items():
                    assert pct == ref[key]["hits"][n], (i, key, n)

        dt = elapsed(t0)
        assert dt < 60.0
        print(f"criterion 5 oracle equivalence: PASS in {dt:.2f}s (20 graphs)")


def _label_triples(g, triples):
    ent, rel = g.entities.labels, g.relations.labels
    return [(ent[h], rel[r], ent[t]) for h, r, t in triples]


class TestCriterion5Ties:
    """Criterion 5's oracle comparison on graphs built to tie: every
    entity shares its vector with another, and the test split repeats
    triples, under both tie breaks."""

    @pytest.mark.parametrize("tie_break", evaluation.TIE_BREAKS)
    def test_tied_graphs_match_reference(self, tie_break):
        variants = ("transe", "transr", "stranse")
        dissims = ("l1", "l2")
        for i in range(12):
            rng = np.random.default_rng(2000 + i)
            g = random_graph(rng, n_entities=int(rng.integers(15, 41)),
                             n_relations=int(rng.integers(2, 5)),
                             n_train=60, n_valid=6, n_test=8)
            # the same labels in the same order keep every id
            test = _label_triples(g, g.test)
            g = data.build_graph(_label_triples(g, g.train),
                                 _label_triples(g, g.valid),
                                 test + test[::3])
            variant = variants[i % 3]
            dissim = dissims[i % 2]
            m = random_model(rng, g, variant=variant, dim=5,
                             dissimilarity=dissim)
            m.entity_vecs[1::2] = m.entity_vecs[::2][:g.n_entities // 2]
            params = {"entity": m.entity_vecs, "relation": m.relation_vecs,
                      "head_proj": m.head_proj, "tail_proj": m.tail_proj}
            dm = ells = None
            if i % 4 >= 2:
                dm = random_domain_model(rng, g, m)
                ells = {key: (e.center, e.factor)
                        for key, e in dm.ellipsoids.items()}
            ref = ref_evaluate(g.n_entities, g.train, g.valid, g.test,
                               variant, dissim, params, ellipsoids=ells,
                               tie_break=tie_break)
            rep = evaluation.evaluate(g, m, dm, tie_break=tie_break)
            assert rep.tie_rate > 0, i
            for key, block in rep.overall.items():
                assert block.mean_rank == ref[key]["mean_rank"], (i, key)
                assert block.hits == ref[key]["hits"], (i, key)


class TestCriterion6ToyEndToEnd:
    def test_country_capital_toy(self):
        t0 = time.perf_counter()
        g = country_capital_kg()
        assert g.n_entities == 20 and g.n_relations == 2

        cfg = models.TrainConfig(variant="transe", dim=8, lr=0.01, margin=2.0,
                                 batch_size=153, dissimilarity="l1",
                                 epochs=600, seed=0)
        model = models.train(g, cfg)
        dm = domains.fit_all_domains(
            g, model, config=ellipsoid.FitConfig(lr=1e-6, epochs=100,
                                                 batch_size=120, seed=0))

        base = evaluation.evaluate(g, model)
        dre = evaluation.evaluate(g, model, dm)
        key = ("filtered", evaluation.COMBINED)
        assert dre.overall[key].hits[10] >= base.overall[key].hits[10]

        drifters = [g.entities.id("drifter_0"), g.entities.id("drifter_1")]
        doms = domain_members(g)
        min_drifter = np.inf
        zero, total = 0, 0
        for (rel, side), members in doms.items():
            pens = domains.penalties_all(dm, model, rel, side)
            for e in drifters:
                assert pens[e] > 0.0, (rel, side, e)
                min_drifter = min(min_drifter, pens[e])
            for e in members:
                total += 1
                if pens[e] == 0.0:
                    zero += 1
        coverage = zero / total
        assert coverage >= 0.90

        dt = elapsed(t0)
        assert dt < 120.0
        print(f"criterion 6 toy end-to-end: PASS in {dt:.1f}s "
              f"(hits@10 {base.overall[key].hits[10]:.1f}->"
              f"{dre.overall[key].hits[10]:.1f}, member coverage "
              f"{coverage:.3f}, min drifter penalty {min_drifter:.2f})")


def _benchmark_graph(name):
    root = os.environ.get(DATA_ENV)
    if not root:
        pytest.skip(f"set {DATA_ENV} to a directory holding "
                    f"{name}/{{train,valid,test}}.txt")
    base = os.path.join(root, name)
    paths = [os.path.join(base, f"{split}.txt")
             for split in ("train", "valid", "test")]
    if not all(os.path.exists(p) for p in paths):
        pytest.skip(f"no {name} triples under {base}")
    return data.load_graph(*paths)


def _train_and_fit(g, margin):
    cfg = models.TrainConfig(variant="transe", dim=50, lr=0.001, margin=margin,
                             batch_size=120, dissimilarity="l1", epochs=1000,
                             normalize_entities=True, seed=0,
                             eval_every=25, patience=50)

    def validator(m):
        return evaluation.validation_hits10(g, m)

    model = models.train(g, cfg, validator=validator)
    dm = domains.fit_all_domains(g, model)
    return model, dm


@pytest.mark.extended
class TestCriterion7Wn18:
    def test_wn18_reproduction(self):
        g = _benchmark_graph("wn18")
        model, dm = _train_and_fit(g, margin=2.0)
        base = evaluation.evaluate(g, model)
        dre = evaluation.evaluate(g, model, dm)
        key = ("filtered", evaluation.COMBINED)
        base_hits = base.overall[key].hits[10]
        dre_hits = dre.overall[key].hits[10]
        base_mr = base.overall[key].mean_rank
        dre_mr = dre.overall[key].mean_rank
        print(f"criterion 7 wn18: baseline hits@10 {base_hits:.1f} "
              f"mr {base_mr:.0f}; with domains hits@10 {dre_hits:.1f} "
              f"mr {dre_mr:.0f}")
        assert abs(base_hits - 89.2) <= 3.0
        assert dre_hits >= base_hits + 2.0
        assert dre_mr <= 0.85 * base_mr


@pytest.mark.extended
class TestCriterion8Fb15kCategories:
    def test_fb15k_category_gains(self):
        g = _benchmark_graph("fb15k")
        model, dm = _train_and_fit(g, margin=1.0)
        base = evaluation.evaluate(g, model)
        dre = evaluation.evaluate(g, model, dm)
        for side, cat in ((data.HEAD, data.CAT_N_TO_1),
                          (data.TAIL, data.CAT_1_TO_N)):
            b = base.by_category[("filtered", side, cat)].hits[10]
            d = dre.by_category[("filtered", side, cat)].hits[10]
            print(f"criterion 8 fb15k {side}/{cat}: {b:.1f} -> {d:.1f}")
            assert d >= b + 10.0, (side, cat)
