import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drekge import ellipsoid
from drekge.ellipsoid import (DIAG_FLOOR, Q_FLOOR, SURFACE_TOL, Ellipsoid,
                              FitConfig, distance, fit, fit_stack, gradient,
                              quad_form, score_test, scores_test,
                              scores_train_stack)
from drekge.errors import ConfigurationError, DegeneratePointError

from generators import random_ellipsoid, surface_points


def unit_sphere(k=2):
    return Ellipsoid(np.zeros(k), np.eye(k))


def row_quad_forms(ell, pts):
    """q = ||L^T (e - a)||^2 of each row of ``pts``, one row each."""
    w = (pts - ell.center) @ ell.factor
    return np.einsum("bi,bi->b", w, w)


class TestQuadForm:
    def test_unit_sphere_is_squared_radius(self):
        ell = unit_sphere(3)
        assert quad_form(ell, np.array([2.0, 0.0, 0.0])) == 4.0
        assert quad_form(ell, np.array([0.0, 3.0, 4.0])) == 25.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        ell = random_ellipsoid(rng, 5)
        pts = rng.normal(size=(20, 5))
        qs = row_quad_forms(ell, pts)
        for i in range(20):
            assert qs[i] == pytest.approx(quad_form(ell, pts[i]), rel=1e-14)

class TestDistance:
    def test_sphere_radius_two_point(self):
        # point at radius 2 on the unit sphere: one unit outside
        assert distance(unit_sphere(), np.array([2.0, 0.0])) == pytest.approx(
            1.0, abs=1e-12)

    def test_axis_aligned_hand_value(self):
        # M = diag(1/4, 1), point (4, 0): q = 4, D = (1 - 1/2) * 4 = 2
        ell = Ellipsoid(np.zeros(2), np.diag([0.5, 1.0]))
        assert distance(ell, np.array([4.0, 0.0])) == pytest.approx(2.0,
                                                                    abs=1e-12)

    def test_interior_point(self):
        # halfway to the surface of a radius-2 sphere
        ell = Ellipsoid(np.zeros(2), np.eye(2) / 2.0)
        d = distance(ell, np.array([1.0, 0.0]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_boundary_is_zero(self):
        rng = np.random.default_rng(21)
        center = rng.normal(size=3)
        axes = np.array([1.0, 2.0, 0.5])
        ell = Ellipsoid(center, np.diag(1.0 / axes))
        for p in surface_points(rng, 50, center, axes):
            assert distance(ell, p) == pytest.approx(0.0, abs=1e-9)

    def test_sphere_exactness_any_radius(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            radius = float(rng.uniform(0.2, 5.0))
            center = rng.normal(size=4)
            ell = Ellipsoid(center, np.eye(4) / radius)
            p = center + rng.normal(size=4) * rng.uniform(0.1, 3.0)
            expected = abs(np.linalg.norm(p - center) - radius)
            assert distance(ell, p) == pytest.approx(expected, abs=1e-10)

    def test_center_raises(self):
        ell = unit_sphere(3)
        with pytest.raises(DegeneratePointError):
            distance(ell, np.zeros(3))

    def test_scoring_sides(self):
        ell = unit_sphere(2)
        inside = np.array([0.5, 0.0])
        outside = np.array([3.0, 0.0])
        assert distance(ell, inside) > 0
        assert score_test(ell, inside) == 0.0
        assert score_test(ell, outside) == pytest.approx(2.0, abs=1e-12)
        # exactly on the surface: no penalty either way
        assert score_test(ell, np.array([1.0, 0.0])) == 0.0

    def test_batch_scores_substitute_zero_at_center(self):
        ell = unit_sphere(2)
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert scores_train_stack(ell.center[None], ell.factor[None],
                                  pts[None])[0].tolist() == [0.0, 1.0]
        assert scores_test(ell, pts).tolist() == [0.0, 1.0]
        assert scores_train_stack(ell.center[None], ell.factor[None],
                                  pts[:0][None])[0].shape == (0,)

    def test_batch_equals_scalar_row_by_row(self):
        # integer coordinates and factor entries make every quadratic form
        # and squared norm an exact integer, so no BLAS summation order can
        # separate the batch product from the one-row product
        rng = np.random.default_rng(24)
        k = 12
        factor = np.tril(rng.integers(-2, 3, size=(k, k))).astype(float)
        np.fill_diagonal(factor, rng.integers(1, 3, size=k))
        center = rng.integers(-3, 4, size=k).astype(float)
        ell = Ellipsoid(center, factor)
        on_surface = center.copy()
        on_surface[0] += 1.0 / factor[0, 0]
        pts = np.vstack([center, on_surface,
                         center + rng.integers(-3, 4, size=(200, k))])
        assert quad_form(ell, pts[1]) == 1.0
        batch = scores_test(ell, pts)
        assert batch[0] == 0.0 and batch[1] == 0.0
        assert (batch > 0).any()
        for i, pt in enumerate(pts):
            assert batch[i] == score_test(ell, pt)

        # on arbitrary floats the two differ only by the matrix product
        pts = rng.normal(size=(50, k)) * 3
        batch = scores_test(ell, pts)
        for i, pt in enumerate(pts):
            assert batch[i] == pytest.approx(score_test(ell, pt), rel=1e-13)

    def test_batch_is_the_full_size_formula(self):
        rng = np.random.default_rng(25)
        block = ellipsoid._BLOCK
        for k, n in ((1, 3000), (8, 3000), (50, 3000), (50, 2 * block + 99)):
            ell = random_ellipsoid(rng, k)
            pts = np.vstack([ell.center, rng.normal(size=(n, k))])
            # reference: distances of every column of the (k, n) layout,
            # w = L^T v formed in blocks of columns from the first, each
            # sum taken down a column, kept only outside
            v = np.ascontiguousarray((pts - ell.center).T)
            w = np.hstack([ell.factor.T @ v[:, lo:lo + block]
                           for lo in range(0, n + 1, block)])
            q = (w * w).sum(axis=0)
            n = np.sqrt((v * v).sum(axis=0))
            want = np.zeros(len(q))
            outside = q >= 1.0
            want[outside] = (1.0 - q[outside] ** -0.5) * n[outside]
            assert 0 < outside.sum() < len(q)
            assert np.array_equal(scores_test(ell, pts), want)

            # the former row formula, to rounding
            q_rows = row_quad_forms(ell, pts)
            n_rows = np.linalg.norm(pts - ell.center, axis=1)
            rows = np.zeros(len(q))
            rows[q_rows >= 1.0] = (1.0 - q_rows[q_rows >= 1.0] ** -0.5) \
                * n_rows[q_rows >= 1.0]
            assert np.array_equal(q_rows >= 1.0, outside)
            np.testing.assert_allclose(want, rows, rtol=1e-13)

    # candidates as project_all lays them out: transe's entity_vecs,
    # C-ordered, and a projection, column-major
    @pytest.mark.parametrize("layout", [np.ascontiguousarray,
                                        np.asfortranarray],
                             ids=["c-ordered", "column-major"])
    def test_batch_holds_no_full_size_temporary(self, layout):
        rng = np.random.default_rng(26)
        k, block = 16, ellipsoid._BLOCK
        ell = random_ellipsoid(rng, k)
        peaks = {}
        for n in (2 * block, 8 * block):
            pts = layout(ell.center + rng.normal(size=(n, k)))
            tracemalloc.start()
            try:
                scores_test(ell, pts)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the blocks cost the same at any n; only the returned n-length
        # scores grow, where a (k, n) v would grow k times as fast
        grown = 6 * block * 8
        assert peaks[8 * block] - peaks[2 * block] <= 2 * grown

    def test_batch_holds_two_blocks(self):
        # v, w and the outside columns of v share two (k, block) buffers
        rng = np.random.default_rng(28)
        k, block = 50, ellipsoid._BLOCK
        ell = random_ellipsoid(rng, k)
        n = 3 * block
        pts = np.asfortranarray(ell.center + rng.normal(size=(n, k)))
        tracemalloc.start()
        try:
            scores = scores_test(ell, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (scores > 0).all()
        assert peak < 2.5 * k * block * 8 + n * 8

    def test_stack_scores_come_in_blocks(self):
        # a stack of three clouds of a block's rows each: every score is
        # the one the whole stack's v and w give, and only a block of
        # rows is held as v and w at a time
        rng = np.random.default_rng(29)
        g, m, k, block = 3, ellipsoid._BLOCK, 20, ellipsoid._BLOCK
        ells = [random_ellipsoid(rng, k) for _ in range(g)]
        centers = np.stack([e.center for e in ells])
        factors = np.stack([e.factor for e in ells])
        points = centers[:, None, :] + rng.normal(size=(g, m, k))
        points[1, 7] = centers[1]
        v = points - centers[:, None, :]
        w = v @ factors
        q = np.einsum("gbi,gbi->gb", w, w)
        n = np.sqrt(np.einsum("gbi,gbi->gb", v, v))
        want = np.zeros((g, m))
        ok = q >= Q_FLOOR
        want[ok] = np.abs(1.0 - q[ok] ** -0.5) * n[ok]
        tracemalloc.start()
        try:
            got = ellipsoid.scores_train_stack(centers, factors, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert got[1, 7] == 0.0 and (np.delete(got[1], 7) > 0).all()
        assert peak < 1.25 * 2 * block * k * 8 + 2 * got.nbytes
        assert peak < 0.5 * (v.nbytes + w.nbytes)

    @pytest.mark.parametrize("n_blocks, extra", [(1, -1), (1, 0), (3, 1)])
    def test_scratch_blocks_give_fresh_block_bits(self, n_blocks, extra):
        """One block less a column, one block, and a last block of one
        column after three full ones: the scratch views give the bits
        that fresh C-ordered arrays per block give."""
        rng = np.random.default_rng(27)
        k, block = 12, ellipsoid._BLOCK
        n = n_blocks * block + extra
        ell = random_ellipsoid(rng, k)
        pts = np.asfortranarray(ell.center
                                + rng.normal(scale=0.5, size=(n, k)))
        want = np.zeros(n)
        for lo in range(0, n, block):
            v = np.subtract(pts.T[:, lo:lo + block], ell.center[:, None],
                            order="C")
            w = ell.factor.T @ v
            q = (w * w).sum(axis=0)
            norm = np.sqrt((v * v).sum(axis=0))
            outside = q >= 1.0
            want[lo:lo + block][outside] = (1.0 - q[outside] ** -0.5) \
                * norm[outside]
        assert 0 < np.count_nonzero(want) < n
        assert np.array_equal(scores_test(ell, pts), want)

    def test_ray_monotonicity(self):
        rng = np.random.default_rng(23)
        ell = random_ellipsoid(rng, 4)
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)
        ts = np.linspace(0.05, 6.0, 120)
        ds = np.array([distance(ell, ell.center + t * direction) for t in ts])
        qs = np.array([quad_form(ell, ell.center + t * direction) for t in ts])
        inside, outside = qs < 1, qs > 1
        # shrinking toward the surface, then growing past it
        assert (np.diff(ds[inside]) < 1e-12).all()
        assert (np.diff(ds[outside]) > -1e-12).all()


class TestGradient:
    def test_sphere_hand_values(self):
        # unit sphere, point (2, 0): D = 1, dD/da = (-1, 0)
        ell = unit_sphere(2)
        ga, gl = gradient(ell, np.array([2.0, 0.0]))
        assert np.allclose(ga, [-1.0, 0.0], atol=1e-12)
        assert np.allclose(gl, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_interior_sign_flips(self):
        ell = unit_sphere(2)
        ga, _ = gradient(ell, np.array([0.5, 0.0]))
        # moving the center toward the point shrinks an interior distance,
        # so the center gradient points away from the point
        assert ga[0] > 0

    def test_gradient_is_lower_triangular(self):
        rng = np.random.default_rng(31)
        ell = random_ellipsoid(rng, 5)
        _, gl = gradient(ell, ell.center + rng.normal(size=5))
        assert np.allclose(gl, np.tril(gl))

    def test_on_surface_gradient_is_zero(self):
        ell = unit_sphere(2)
        ga, gl = gradient(ell, np.array([1.0, 0.0]))
        assert not ga.any() and not gl.any()

    def test_center_raises(self):
        with pytest.raises(DegeneratePointError):
            gradient(unit_sphere(2), np.zeros(2))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        h = 1e-6
        checked = 0
        while checked < 60:
            k = int(rng.integers(2, 6))
            ell = random_ellipsoid(rng, k)
            pt = ell.center + rng.normal(size=k)
            q = quad_form(ell, pt)
            if q < 1e-2 or abs(q - 1.0) < 1e-2:
                continue
            ga, gl = gradient(ell, pt)
            fa = np.zeros(k)
            for i in range(k):
                step = np.zeros(k)
                step[i] = h
                fa[i] = (distance(Ellipsoid(ell.center + step, ell.factor), pt)
                         - distance(Ellipsoid(ell.center - step, ell.factor),
                                    pt)) / (2 * h)
            fl = np.zeros((k, k))
            for i in range(k):
                for j in range(i + 1):
                    bump = np.zeros((k, k))
                    bump[i, j] = h
                    fl[i, j] = (distance(Ellipsoid(ell.center,
                                                   ell.factor + bump), pt)
                                - distance(Ellipsoid(ell.center,
                                                     ell.factor - bump),
                                           pt)) / (2 * h)
            assert np.linalg.norm(ga - fa) <= 1e-5 * (1 + np.linalg.norm(fa))
            assert np.linalg.norm(gl - fl) <= 1e-5 * (1 + np.linalg.norm(fl))
            checked += 1


class TestFit:
    def test_recovers_sphere(self):
        rng = np.random.default_rng(41)
        center = np.array([1.0, -2.0, 0.5])
        pts = surface_points(rng, 600, center, np.full(3, 2.0))
        ell = fit(pts, FitConfig(lr=1e-4, epochs=300, batch_size=60, seed=0))
        assert np.linalg.norm(ell.center - center) < 0.05
        semi = 1.0 / np.sqrt(np.linalg.eigvalsh(ell.factor @ ell.factor.T))
        assert np.allclose(semi, 2.0, rtol=0.05)
        assert scores_train_stack(ell.center[None], ell.factor[None],
                                  pts[None])[0].mean() < 0.02

    def test_initial_surface_roughly_encloses_members(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(40, 6)) * np.array([3.0, 1.0, 1.0, 0.5, 2.0, 1.0])
        centers, factors = ellipsoid._init_stack(pts[None])
        ell = Ellipsoid(centers[0], factors[0])
        assert (row_quad_forms(ell, pts) <= 1.0).mean() >= 0.95

    def test_degenerate_axis_gets_thickness_floor(self):
        rng = np.random.default_rng(43)
        pts = np.zeros((30, 3))
        pts[:, 0] = rng.normal(size=30)  # other two axes constant
        ell = fit(pts, FitConfig(lr=1e-6, epochs=2, batch_size=30, seed=0))
        assert np.isfinite(ell.factor).all()
        assert (np.diag(ell.factor) >= DIAG_FLOOR).all()

    def test_positive_definiteness_survives_aggressive_steps(self):
        rng = np.random.default_rng(44)
        pts = rng.normal(size=(64, 3)) * 0.05
        ell = fit(pts, FitConfig(lr=0.5, epochs=200, batch_size=8, seed=1))
        assert (np.diag(ell.factor) >= DIAG_FLOOR).all()

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(45)
        pts = rng.normal(size=(50, 4))
        cfg = FitConfig(lr=1e-4, epochs=40, batch_size=16, seed=7)
        a = fit(pts, cfg)
        b = fit(pts, cfg)
        assert (a.center == b.center).all()
        assert (a.factor == b.factor).all()

    def test_callback_sees_every_epoch(self):
        rng = np.random.default_rng(46)
        pts = rng.normal(size=(20, 3))
        seen = []
        fit(pts, FitConfig(lr=1e-5, epochs=5, batch_size=10, seed=0),
            callback=lambda epoch, ell, mean: seen.append((epoch, mean)))
        assert [e for e, _ in seen] == list(range(5))
        assert all(np.isfinite(m) for _, m in seen)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            fit(np.zeros((0, 3)), FitConfig())
        with pytest.raises(ConfigurationError):
            FitConfig(lr=0.0).validate()
        for value in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                FitConfig(lr=value).validate()


def loop_step(ell, rows, lr, diag_floor):
    """One mini-batch step of one ellipsoid, in place, with the rows at
    the center or on the surface compacted out of ``rows`` first: the
    arithmetic of ``_step_stack`` on the kept rows alone. Returns the
    number of rows left out."""
    v = rows - ell.center
    w = v @ ell.factor
    q = np.einsum("bi,bi->b", w, w)
    keep = (q >= Q_FLOOR) & (np.abs(q - 1.0) >= SURFACE_TOL)
    if keep.any():
        k = len(ell.center)
        v, w, q = v[keep], w[keep], q[keep]
        n = np.sqrt(np.einsum("bi,bi->b", v, v))
        s = np.sign(q - 1.0)
        q_m12 = q ** -0.5
        c1 = s * n * q_m12 / q
        c2 = s * (1.0 - q_m12) / n
        # the factor gradient and s1 = sum c1 w from one product
        product = np.hstack([v * c1[:, None], c1[:, None]]).T @ w
        grad_factor = np.tril(product[:k])
        grad_center = -(ell.factor @ product[k]
                        + (c2[:, None] * v).sum(axis=0))
        ell.center -= lr * grad_center
        ell.factor -= lr * grad_factor
    d = np.diagonal(ell.factor).copy()
    np.fill_diagonal(ell.factor, np.maximum(d, diag_floor))
    return int((~keep).sum())


def loop_fit(points, config):
    """Reference fitter: one cloud, one ``loop_step`` at a time.
    Returns the ellipsoid and the number of batch rows it skipped."""
    pts = np.asarray(points, dtype=np.float64)
    k = pts.shape[1]
    center = pts.mean(axis=0)
    base = pts.std(axis=0) * np.sqrt(k)
    eps = 0.01 * float(np.sqrt(np.mean(base ** 2))) + 1e-12
    active = base > 0
    scale_sq = 0.0
    if active.any():
        q0 = (((pts - center)[:, active] / base[active]) ** 2).sum(axis=1)
        scale_sq = 1.05 * float(np.quantile(q0, 0.99))
    scale = np.sqrt(scale_sq) if scale_sq > 0 else 1.0
    ell = Ellipsoid(center, np.diag(1.0 / (scale * base + eps)))

    rng = np.random.default_rng(config.seed)
    skipped = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(pts))
        for start in range(0, len(pts), config.batch_size):
            rows = pts[order[start:start + config.batch_size]]
            skipped += loop_step(ell, rows, config.lr, DIAG_FLOOR)
    return ell, skipped


def textbook_gradients(ell, rows):
    """Summed (dD/da, dD/dL) of the rows of ``rows`` off the center and
    off the surface, each row's term formed in full as
    -(c1 L w + c2 v) and c1 tril(v w^T): an independent check of the
    factored form that ``_gradients`` takes. Also returns the sums of
    the norms of the rows' parts, c1 L w, c2 v and c1 tril(v w^T): the
    scale that rounding in either form of either sum is relative to."""
    k = len(ell.center)
    grad_center, grad_factor = np.zeros(k), np.zeros((k, k))
    scale_center = scale_factor = 0.0
    for row in rows:
        v = row - ell.center
        w = ell.factor.T @ v
        q = w @ w
        if q < Q_FLOOR or abs(q - 1.0) < SURFACE_TOL:
            continue
        n = np.sqrt(v @ v)
        c1 = np.sign(q - 1.0) * n * q ** -1.5
        c2 = np.sign(q - 1.0) * (1.0 - q ** -0.5) / n
        radial, along = c1 * (ell.factor @ w), c2 * v
        term_factor = c1 * np.tril(np.outer(v, w))
        grad_center -= radial + along
        grad_factor += term_factor
        scale_center += np.linalg.norm(radial) + np.linalg.norm(along)
        scale_factor += np.linalg.norm(term_factor)
    return grad_center, grad_factor, scale_center, scale_factor


def batch_with_skipped_rows(rng, ells, b):
    """A (G, b, k) batch about ``ells`` whose rows in the middle of every
    batch but the last are one at the center and two on the surface."""
    k = len(ells[0].center)
    batch = np.stack([e.center for e in ells])[:, None, :] \
        + rng.normal(size=(len(ells), b, k)) * 1.5
    for ell, rows in zip(ells[:-1], batch[:-1]):
        middle = rng.choice(np.arange(1, b - 1), size=3, replace=False)
        rows[middle[0]] = ell.center
        for i in middle[1:]:
            u = rng.normal(size=k)
            rows[i] = ell.center + u / np.linalg.norm(u @ ell.factor)
    return batch


def edge_clouds(rng):
    """Five-point clouds in 3-d, each hitting one special case of the
    fitter, plus two plain ones."""
    const_axis = rng.normal(size=(5, 3))
    const_axis[:, 2] = 0.5                      # base == 0 on axis 2
    # integer coordinates: the mean is exactly the origin, a member
    at_center = np.array([[0, 0, 0], [1, 2, -1], [-1, -2, 1], [2, -1, 3],
                          [-2, 1, -3]], dtype=float)
    rows = rng.normal(size=(3, 3))
    duplicated = rows[[0, 0, 1, 1, 2]]
    constant = np.full((5, 3), 0.25)            # every row at the center
    return {"plain_a": rng.normal(size=(5, 3)), "const_axis": const_axis,
            "at_center": at_center, "duplicated": duplicated,
            "constant": constant, "plain_b": rng.normal(size=(5, 3)) * 3}


class TestFitStack:
    def test_each_cloud_fits_as_if_alone(self):
        clouds = edge_clouds(np.random.default_rng(61))
        cfg = FitConfig(lr=0.05, epochs=6, batch_size=2, seed=0)
        seeds = [100 + i for i in range(len(clouds))]
        centers, factors = fit_stack(np.stack(list(clouds.values())), cfg,
                                     seeds)
        for (name, pts), seed, center, factor in zip(
                clouds.items(), seeds, centers, factors):
            alone = fit(pts, replace(cfg, seed=seed))
            ref, skipped = loop_fit(pts, replace(cfg, seed=seed))
            assert (center == alone.center).all(), name
            assert (factor == alone.factor).all(), name
            assert (center == ref.center).all(), name
            assert (factor == ref.factor).all(), name
            if name == "at_center":
                assert skipped == 1     # the origin, in the first batch
            if name == "constant":
                assert skipped == cfg.epochs * len(pts)

    def test_one_seed_per_cloud(self):
        points = np.random.default_rng(63).normal(size=(3, 20, 4))
        cfg = FitConfig(epochs=1, batch_size=8)
        for seeds in ([7], [7, 8], [7, 8, 9, 10], []):
            with pytest.raises(ConfigurationError, match="seeds for 3"):
                fit_stack(points, cfg, seeds)

    def test_big_ragged_stack_matches_the_loop(self):
        rng = np.random.default_rng(62)
        cfg = FitConfig(lr=1e-3, epochs=3, batch_size=16, seed=0)
        for k in (1, 13):
            clouds = rng.normal(size=(4, 37, k)) * rng.uniform(0.5, 3, k)
            centers, factors = fit_stack(clouds, cfg, [5, 6, 7, 8])
            for g, seed in enumerate([5, 6, 7, 8]):
                ref, _ = loop_fit(clouds[g], replace(cfg, seed=seed))
                assert (centers[g] == ref.center).all()
                assert (factors[g] == ref.factor).all()

    @pytest.mark.parametrize("m", [130, 300])
    def test_stacks_at_the_published_stranse_width(self, m):
        # FB15k stranse projects to k = 100 and fits at the CLI's batch
        # of 120: clouds of more than one batch, so every epoch ends on
        # a short batch, each stacked fit ending as its lone fit
        rng = np.random.default_rng(69)
        k, seeds = 100, [11, 12]
        cfg = FitConfig(lr=1e-3, epochs=3, batch_size=120, seed=0)
        clouds = rng.normal(size=(2, m, k)) * rng.uniform(0.5, 3, k)
        centers, factors = fit_stack(clouds, cfg, seeds)
        for cloud, seed, center, factor in zip(clouds, seeds, centers,
                                               factors):
            alone = fit(cloud, replace(cfg, seed=seed))
            assert (center == alone.center).all()
            assert (factor == alone.factor).all()

    def test_rows_at_the_center_or_on_the_surface_are_left_out(self):
        # stepping a batch with such a row moves its ellipsoid exactly
        # as the same batch without that row does, inside a stack
        rng = np.random.default_rng(63)
        k, b = 3, 5
        ells = [random_ellipsoid(rng, k) for _ in range(3)]
        ells[0] = Ellipsoid(ells[0].center, np.eye(k))
        centers = np.stack([e.center for e in ells])
        factors = np.stack([e.factor for e in ells])
        batch = centers[:, None, :] + rng.normal(size=(3, b, k))
        batch[0, 1] = ells[0].center + np.array([1.0, 0.0, 0.0])  # surface
        batch[1, 3] = ells[1].center                              # center
        left_out = {0: 1, 1: 3}
        assert abs(quad_form(ells[0], batch[0, 1]) - 1.0) < SURFACE_TOL

        stacked_c, stacked_f = centers.copy(), factors.copy()
        ellipsoid._step_stack(stacked_c, stacked_f, batch, 0.05)
        for g in range(3):
            rows = [i for i in range(b) if i != left_out.get(g)]
            c, f = centers[g:g + 1].copy(), factors[g:g + 1].copy()
            ellipsoid._step_stack(c, f, batch[g:g + 1, rows], 0.05)
            assert (stacked_c[g] == c[0]).all()
            assert (stacked_f[g] == f[0]).all()
        assert not (stacked_c == centers).all(axis=1).any()

    def test_skipped_rows_at_the_cli_batch_size(self):
        # the CLI's batch of 120 rows at k = 50: the sums over the batch
        # must add its rows in order for zeroed rows in the middle to
        # leave the kept rows' bits as the compacted batch has them.
        # A last-bit change of one sum often rounds away in a small
        # step, so the steps are large (lr a power of two, so lr times
        # a gradient is exact) and several run, each from the
        # parameters the last left
        rng = np.random.default_rng(66)
        g, b, k, lr = 6, 120, 50, 0.25
        ells = [random_ellipsoid(rng, k) for _ in range(g)]
        centers = np.stack([e.center for e in ells])
        factors = np.stack([e.factor for e in ells])
        for _ in range(4):
            batch = batch_with_skipped_rows(rng, ells, b)
            ellipsoid._step_stack(centers, factors, batch, lr)
            for ell, rows, center, factor in zip(ells, batch, centers,
                                                 factors):
                skips = loop_step(ell, rows, lr, DIAG_FLOOR)
                assert skips == (3 if ell is not ells[-1] else 0)
                assert (center == ell.center).all()
                assert (factor == ell.factor).all()

    @pytest.mark.parametrize("g, b, k", [(3, 120, 50), (5, 16, 13),
                                         (4, 7, 3), (2, 120, 1)])
    def test_gradients_are_the_textbook_sums(self, g, b, k):
        rng = np.random.default_rng(67 + k)
        ells = [random_ellipsoid(rng, k) for _ in range(g)]
        batch = batch_with_skipped_rows(rng, ells, b)
        centers = np.stack([e.center for e in ells])
        factors = np.stack([e.factor for e in ells])
        v, w, nsq, q = ellipsoid._quad_stack(centers, factors, batch)
        q[~((q >= Q_FLOOR) & (np.abs(q - 1.0) >= SURFACE_TOL))] = 1.0
        grad_center, grad_factor = ellipsoid._gradients(factors, v, w, nsq,
                                                        q)
        # relative to the parts' scale, not to the sum's own norm: at
        # k = 1 every row's center term is +-1, its two parts cancel
        # near the center, and the sum over the batch may cancel to zero
        for ell, rows, gc, gf in zip(ells, batch, grad_center, grad_factor):
            want_c, want_f, scale_c, scale_f = textbook_gradients(ell, rows)
            assert np.linalg.norm(gc - want_c) <= 1e-13 * scale_c
            assert np.linalg.norm(gf - want_f) <= 1e-13 * scale_f
            assert (gf == np.tril(gf)).all()

    def test_step_is_minus_lr_times_the_summed_gradients(self):
        rng = np.random.default_rng(64)
        k, b, lr = 4, 6, 1e-3
        ells = [random_ellipsoid(rng, k) for _ in range(5)]
        centers = np.stack([e.center for e in ells])
        factors = np.stack([e.factor for e in ells])
        batch = centers[:, None, :] + rng.normal(size=(5, b, k)) * 1.5
        batch[2, 4] = centers[2]          # skipped: no gradient there
        new_c, new_f = centers.copy(), factors.copy()
        ellipsoid._step_stack(new_c, new_f, batch, lr)
        for g, ell in enumerate(ells):
            grad_c, grad_f = np.zeros(k), np.zeros((k, k))
            for row in batch[g]:
                if quad_form(ell, row) < Q_FLOOR:
                    continue
                gc, gf = gradient(ell, row)
                grad_c += gc
                grad_f += gf
            np.testing.assert_allclose(new_c[g] - centers[g], -lr * grad_c,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(new_f[g] - factors[g], -lr * grad_f,
                                       rtol=0, atol=1e-12)
            assert np.abs(grad_c).max() > 1e-3

    def test_step_holds_one_k_by_k_array_beside_the_factors(self):
        # k large against the batch, so the (G, k, k) arrays dominate
        rng = np.random.default_rng(65)
        g, k, b = 4, 64, 2
        centers = rng.normal(size=(g, k))
        factors = np.tril(rng.normal(scale=0.1, size=(g, k, k)))
        ellipsoid._diagonals(factors)[:] = 1.0
        batch = centers[:, None, :] + rng.normal(size=(g, b, k))
        tracemalloc.start()
        try:
            ellipsoid._step_stack(centers, factors, batch, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * factors.nbytes


class TestRotationEquivariance:
    def test_distance_commutes_with_rotation(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            k = 4
            ell = random_ellipsoid(rng, k)
            rot, _ = np.linalg.qr(rng.normal(size=(k, k)))
            m = ell.factor @ ell.factor.T
            rotated = Ellipsoid(rot @ ell.center,
                                np.linalg.cholesky(rot @ m @ rot.T))
            for _ in range(20):
                p = ell.center + rng.normal(size=k)
                if quad_form(ell, p) < 1e-6:
                    continue
                assert distance(rotated, rot @ p) == pytest.approx(
                    distance(ell, p), abs=1e-10)
