"""Hyper-ellipsoid geometry and per-domain surface fitting.

An ellipsoid is the set {x : (x - a)^T M (x - a) = 1} with M symmetric
positive definite. M is never materialized; it is carried as a lower
triangular Cholesky factor L with M = L L^T, so the quadratic form is a
single triangular product q = ||L^T (x - a)||^2 and positive definiteness
reduces to keeping diag(L) above a floor.

The distance used everywhere is the radial gap between a point and the
surface along the ray from the center:

    D(e) = |1 - q^{-1/2}| * ||e - a||_2

which is exact for spheres and cheap for everything else. Training
penalizes both sides of the surface; scoring only penalizes the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DegeneratePointError

# q below this is treated as "at the center": the radial direction is
# meaningless and callers substitute a zero distance or skip the sample
Q_FLOOR = 1e-12

# SGD skips samples this close to the surface; the gradient flips sign
# across q = 1 and a step would overshoot back and forth
SURFACE_TOL = 1e-9

DIAG_FLOOR = 1e-6

# points per block of the scores' v = e - a and w = L^T v, counted from
# the first, so that neither is the size of all the points. numpy 2's
# ufuncs buffer a 2-D operation whose rows are shorter than about a third
# of their 8,192-element buffer, which made ``scores_test``'s broadcast
# subtraction twice as slow in 2,048-column blocks
_BLOCK = 4096


@dataclass
class Ellipsoid:
    center: np.ndarray   # (k,)
    factor: np.ndarray   # (k, k) lower triangular, diag >= DIAG_FLOOR

    def copy(self) -> "Ellipsoid":
        return Ellipsoid(self.center.copy(), self.factor.copy())


@dataclass
class FitConfig:
    lr: float = 1e-5
    epochs: int = 500
    batch_size: int = 120
    seed: int = 0

    def validate(self) -> None:
        # written so that NaN fails too
        if not (0 < self.lr < math.inf) or self.epochs < 1 \
                or self.batch_size < 1:
            raise ConfigurationError("fit config needs a finite lr > 0, "
                                     "epochs >= 1, batch_size >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


def _as_batch(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[None, :] if pts.ndim == 1 else pts


def _quad_stack(centers: np.ndarray, factors: np.ndarray,
                points: np.ndarray):
    """For each row of each (b, k) batch of a (G, b, k) stack, at its
    own ellipsoid: v = e - a and w = (L^T v)^T as (G, b, k) arrays, and
    the squared norms ||v||^2 and q = w^T w as (G, b) arrays.

    v and w are the two halves of one buffer, so one einsum takes both
    squared norms; ``scores_test`` forms its own ||v||^2."""
    vw = np.empty((2,) + points.shape)
    v, w = vw[0], vw[1]
    np.subtract(points, centers[:, None, :], out=v)
    np.matmul(v, factors, out=w)
    squares = np.einsum("xgbi,xgbi->xgb", vw, vw)
    return v, w, squares[0], squares[1]


def _off_center_row(ell: Ellipsoid, point: np.ndarray):
    """``_quad_stack`` of one point at one ellipsoid; raises
    DegeneratePointError when the point sits at the center."""
    v, w, nsq, q = _quad_stack(ell.center[None], ell.factor[None],
                               _as_batch(point)[None])
    if q[0, 0] < Q_FLOOR:
        raise DegeneratePointError(f"quadratic form {q[0, 0]:.3e} below "
                                   "floor")
    return v, w, nsq, q


def _radial(q, nsq):
    """D = |1 - q^{-1/2}| n, from q and nsq = n^2 = ||e - a||^2."""
    return np.abs(1.0 - q ** -0.5) * np.sqrt(nsq)


def quad_form(ell: Ellipsoid, point: np.ndarray) -> float:
    """q = (e - a)^T L L^T (e - a)."""
    return float(_quad_stack(ell.center[None], ell.factor[None],
                             _as_batch(point)[None])[3][0, 0])


def distance(ell: Ellipsoid, point: np.ndarray) -> float:
    """Radial distance from ``point`` to the surface. Raises
    DegeneratePointError at the center, where no ray direction exists."""
    nsq, q = _off_center_row(ell, point)[2:]
    return float(_radial(q[0, 0], nsq[0, 0]))


def score_test(ell: Ellipsoid, point: np.ndarray) -> float:
    """Link-prediction penalty: zero anywhere inside, distance outside."""
    return float(scores_test(ell, point)[0])


def scores_train_stack(centers: np.ndarray, factors: np.ndarray,
                       points: np.ndarray) -> np.ndarray:
    """Batch ``distance`` (the fitting objective, penalizing both sides)
    of each (m, k) cloud of a (G, m, k) stack at its own ellipsoid, as a
    (G, m) array, with zero substituted at degenerate points.

    A stack of large domains is several times the size of one domain, so
    its clouds are scored as many whole clouds as ``_BLOCK`` rows hold
    (at least one) at a time: v and w are not the size of the stack, and
    each cloud is scored by the products that score it alone."""
    g, m, _ = points.shape
    out = np.zeros((g, m))
    clouds = max(1, _BLOCK // max(m, 1))
    for lo in range(0, g, clouds):
        block = slice(lo, lo + clouds)
        nsq, q = _quad_stack(centers[block], factors[block],
                             points[block])[2:]
        ok = q >= Q_FLOOR
        out[block][ok] = _radial(q[ok], nsq[ok])
    return out


def scores_test(ell: Ellipsoid, points: np.ndarray) -> np.ndarray:
    """Batch ``score_test``: zero inside (the center included), radial
    distance outside. Only the outside points get a distance computed.

    The points are worked on as columns of their (k, n) transpose (a
    C-ordered one for a projection from ``models.project_all``, a
    strided view of transe's ``entity_vecs``), in fixed-offset blocks of
    ``_BLOCK`` columns: v = X - a, then w = L^T v and
    q = sum of w*w down each column. No (k, n) temporary is held: v and
    w are written into two scratch buffers made once per call, each
    block's as a C-ordered (k, width) view of a buffer's head: the
    layout a fresh array of the block would have. Once q is taken, the
    outside columns of v are copied into w's buffer for their squared
    norms, summed down each column like q.
    """
    cols = _as_batch(points).T
    k, n = cols.shape
    lt = ell.factor.T
    out = np.zeros(n)
    scratch = np.empty((2, k * min(n, _BLOCK)))
    for lo in range(0, n, _BLOCK):
        width = min(n - lo, _BLOCK)
        v, w = (buf[:k * width].reshape(k, width) for buf in scratch)
        np.subtract(cols[:, lo:lo + width], ell.center[:, None], out=v)
        np.matmul(lt, v, out=w)
        q = np.multiply(w, w, out=w).sum(axis=0)
        outside = np.flatnonzero(q >= 1.0)
        # take keeps the copy C-ordered (v[:, outside] would not), so its
        # norms are sums down each column, like q. The indices are all in
        # range; mode "clip" lets take write into w's buffer with no copy
        v_out = np.take(v, outside, axis=1, mode="clip", out=scratch[1][
            :k * outside.size].reshape(k, outside.size))
        nsq = np.multiply(v_out, v_out, out=v_out).sum(axis=0)
        out[lo + outside] = _radial(q[outside], nsq)
    return out


def gradient(ell: Ellipsoid, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dD/da, dD/dL) at one point, as ``_gradients`` gives
    it. Raises DegeneratePointError at the center."""
    grad_center, grad_factor = _gradients(ell.factor[None],
                                          *_off_center_row(ell, point))
    return grad_center[0], grad_factor[0]


def _init_stack(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned starting ellipsoids, one per cloud of a (G, m, k)
    stack, as (centers (G, k), factors (G, k, k)).

    Semi-axes are proportional to the per-axis spread sigma_i * sqrt(k),
    then inflated by a single data-driven scale so essentially the whole
    cloud starts inside: without the inflation, concentration of the
    quadratic form around its mean of 1 would leave about half the cloud
    outside. The 99th percentile rather than the max keeps one wild
    outlier from blowing up the volume. Small clouds barely move under
    the default learning rate, so for them this enclosure is also
    roughly the end state; large clouds have enough gradient mass to
    tighten the surface regardless of where it starts. Near-constant
    axes get a small floor relative to the overall scale instead of
    collapsing to zero thickness; they add nothing to the scale.
    """
    g, m, k = points.shape
    centers = points.mean(axis=1)
    base = points.std(axis=1) * np.sqrt(k)
    eps = 0.01 * np.sqrt(np.mean(base ** 2, axis=1)) + 1e-12

    # squared normalized offsets laid out (G, k, m), so each point's sum
    # adds its k axes one after another
    sq = np.subtract(points.transpose(0, 2, 1), centers[:, :, None],
                     out=np.empty((g, k, m)))
    active = base > 0
    np.divide(sq, base[:, :, None], out=sq, where=active[:, :, None])
    sq[~active] = 0.0
    np.square(sq, out=sq)
    scale_sq = 1.05 * np.quantile(sq.sum(axis=1), 0.99, axis=1)
    scale = np.sqrt(scale_sq)
    scale[scale_sq <= 0] = 1.0

    factors = np.zeros((g, k, k))
    _diagonals(factors)[:] = 1.0 / (scale[:, None] * base + eps[:, None])
    return centers, factors


def _diagonals(factors: np.ndarray) -> np.ndarray:
    """Writable (G, k) view of the diagonals of a C-ordered (G, k, k)."""
    g, k, _ = factors.shape
    return factors.reshape(g, k * k)[:, ::k + 1]


@lru_cache(maxsize=8)
def _strict_upper(k: int) -> np.ndarray:
    """Read-only (k, k) mask of the entries above the diagonal."""
    mask = ~np.tri(k, dtype=bool)
    mask.flags.writeable = False
    return mask


def _gradients(factors: np.ndarray, v: np.ndarray, w: np.ndarray,
               nsq: np.ndarray, q: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per ellipsoid of a stack, the summed analytic gradients of D over
    its batch rows, as (dD/da (G, k), dD/dL (G, k, k)); v, w, nsq and q
    are ``_quad_stack``'s.

    With v = e - a, w = L^T v, q = w^T w, n = ||v|| and s = sign(q - 1),
    one row contributes

        dD/da = -[ c1 L w + c2 v ],   c1 = s n q^{-3/2},
                                      c2 = s (1 - q^{-1/2}) / n
        dD/dL =  c1 tril(v w^T)

    Summed over the b rows, the center gradient is
    -(L s1 + sum_b c2 v) with s1 = sum_b c1 w, a k-vector, so no (b, k)
    product L w is formed. With ``_quad_stack``'s w = v L a step makes
    two GEMMs: that one and the (k+1, b) x (b, k) product A^T w with
    A = [c1 v | c1], whose first k rows are the factor gradient
    sum_b c1 v w^T and whose last row is s1. L s1 is one (k, k) x k
    product per ellipsoid.

    Only the lower triangle of the factor is a free parameter, so the
    factor gradient is masked to it. Where q = 1, s = 0 and the row's
    terms are exactly zero; n is taken as 1 there, so that the row at
    the center which a caller set to q = 1 gives 0 and not 0/0.

    Both sums over the batch add its rows in order (the GEMM down each
    output's b rows, and the axis-1 sum of c2 v), so a zeroed row leaves
    them as a batch without it has them, while both batches stay on one
    side of OpenBLAS's small-matrix GEMM threshold, about 1e6 / k^2 rows
    (at b = 120, k near 91; FB15k stranse fits at k = 100). A GEMV, or a
    GEMM of one or two rows, would split the sum across lanes, and a
    zeroed row would change how the kept ones round.
    """
    g, b, k = v.shape
    n = np.sqrt(nsq)
    s = np.sign(q - 1.0)
    n[s == 0] = 1.0
    q_m12 = q ** -0.5
    c1 = s * n * q_m12 / q
    c2 = s * (1.0 - q_m12) / n
    a = np.empty((g, b, k + 1))
    np.multiply(v, c1[..., None], out=a[..., :k])
    a[..., k] = c1
    product = a.transpose(0, 2, 1) @ w
    grad_factor, s1 = product[:, :k], product[:, k]
    # np.tril's +0.0 above the diagonal, written in place: no second
    # (G, k, k) array
    np.copyto(grad_factor, 0.0, where=_strict_upper(k))
    # A's first k columns are free again: c2 v goes there
    c2v = np.multiply(v, c2[..., None], out=a[..., :k])
    grad_center = (factors @ s1[..., None])[..., 0]
    grad_center += c2v.sum(axis=1)
    np.negative(grad_center, out=grad_center)
    return grad_center, grad_factor


def _step_stack(centers: np.ndarray, factors: np.ndarray, batch: np.ndarray,
                lr: float) -> None:
    """Apply one accumulated mini-batch of per-sample gradient steps to
    each ellipsoid of a stack, in place; ``batch`` is (G, b, k).

    Each sample contributes a full lr-sized step; steps in a batch are
    evaluated at the same parameters and summed, by ``_gradients``' two
    GEMMs. Samples at the center or within SURFACE_TOL of the surface
    are skipped: they get q = 1, whose terms are exactly zero, and
    every batch sum adds its rows in order, so every ellipsoid moves
    bit for bit as a lone ``fit`` of its cloud, and, below the GEMM
    threshold of ``_gradients``, as if fitted on its kept rows. The factor
    diagonal is clamped to DIAG_FLOOR after the update, which is what
    keeps L L^T positive definite through any number of steps.
    """
    v, w, nsq, q = _quad_stack(centers, factors, batch)
    q[~((q >= Q_FLOOR) & (np.abs(q - 1.0) >= SURFACE_TOL))] = 1.0
    grad_center, grad_factor = _gradients(factors, v, w, nsq, q)
    # scaled in place: the factor gradient, a view of the (G, k + 1, k)
    # product, is the one such array held beside the factors. One ufunc
    # call across its layout and the factors' would take a 64 KiB
    # iteration buffer, so it is subtracted one ellipsoid at a time
    grad_center *= lr
    centers -= grad_center
    grad_factor *= lr
    for factor, grad in zip(factors, grad_factor):
        factor -= grad
    diag = _diagonals(factors)
    np.maximum(diag, DIAG_FLOOR, out=diag)


def fit_stack(points: np.ndarray, config: FitConfig, seeds,
              callback=None) -> tuple[np.ndarray, np.ndarray]:
    """Fit one ellipsoid surface to each cloud of a (G, m, k) stack.

    Cloud g is fitted exactly as ``fit`` fits it alone with
    ``seed=seeds[g]``: its own generator draws one permutation of its m
    points per epoch, and the stack steps through the batches together.
    Returns (centers (G, k), factors (G, k, k)), updated in place each
    step; ``callback(epoch, centers, factors)`` is invoked after each
    epoch's updates.
    """
    config.validate()
    points = np.ascontiguousarray(points, dtype=np.float64)
    g, m, k = points.shape
    if m < 1:
        raise ConfigurationError("cannot fit an ellipsoid to zero points")
    if len(seeds) != g:
        raise ConfigurationError(f"{len(seeds)} seeds for {g} clouds")
    centers, factors = _init_stack(points)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = points.reshape(g * m, k)
    first_row = np.arange(0, g * m, m)[:, None]
    for epoch in range(config.epochs):
        order = np.stack([rng.permutation(m) for rng in rngs]) + first_row
        for start in range(0, m, config.batch_size):
            _step_stack(centers, factors,
                        rows[order[:, start:start + config.batch_size]],
                        config.lr)
        if callback is not None:
            callback(epoch, centers, factors)
    return centers, factors


def fit(points: np.ndarray, config: FitConfig | None = None,
        callback=None) -> Ellipsoid:
    """Fit one ellipsoid surface to a point cloud by mini-batch SGD: the
    one-cloud case of ``fit_stack``.

    Minimizes the sum of radial distances from the points to the surface.
    ``callback(epoch, ellipsoid, mean_score)`` is invoked once per epoch
    after its updates, with the mean training score at the new parameters.
    """
    config = config or FitConfig()
    pts = _as_batch(points)[None]
    hook = None
    if callback is not None:
        def hook(epoch, centers, factors):
            callback(epoch, Ellipsoid(centers[0], factors[0]), float(
                scores_train_stack(centers, factors, pts)[0].mean()))
    centers, factors = fit_stack(pts, config, [config.seed], hook)
    return Ellipsoid(centers[0], factors[0])
