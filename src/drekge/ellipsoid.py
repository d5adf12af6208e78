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

import numpy as np

from .errors import ConfigurationError, DegeneratePointError

# q below this is treated as "at the center": the radial direction is
# meaningless and callers substitute a zero distance or skip the sample
Q_FLOOR = 1e-12

# SGD skips samples this close to the surface; the gradient flips sign
# across q = 1 and a step would overshoot back and forth
SURFACE_TOL = 1e-9

DIAG_FLOOR = 1e-6

# columns per block of ``scores_test``'s w = L^T v, counted from the
# first column, so that w never needs a second (k, n) array
_TEST_BLOCK = 8192


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
    diag_floor: float = DIAG_FLOOR
    seed: int = 0

    def validate(self) -> None:
        # written so that NaN fails too
        if not (0 < self.lr < math.inf) or self.epochs < 1 \
                or self.batch_size < 1:
            raise ConfigurationError("fit config needs a finite lr > 0, "
                                     "epochs >= 1, batch_size >= 1")
        if not (0 < self.diag_floor < math.inf):
            raise ConfigurationError("diag_floor must be positive and finite")


def _as_batch(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[None, :] if pts.ndim == 1 else pts


def _quad_stack(centers: np.ndarray, factors: np.ndarray,
                points: np.ndarray):
    """For each row of each (b, k) batch of a (G, b, k) stack, at its
    own ellipsoid: v = e - a and w = (L^T v)^T as (G, b, k) arrays, and
    q = w^T w as a (G, b) array."""
    v = points - centers[:, None, :]
    w = v @ factors
    return v, w, np.einsum("gbi,gbi->gb", w, w)


def _off_center_row(ell: Ellipsoid, point: np.ndarray):
    """``_quad_stack`` of one point at one ellipsoid; raises
    DegeneratePointError when the point sits at the center."""
    v, w, q = _quad_stack(ell.center[None], ell.factor[None],
                          _as_batch(point)[None])
    if q[0, 0] < Q_FLOOR:
        raise DegeneratePointError(f"quadratic form {q[0, 0]:.3e} below "
                                   "floor")
    return v, w, q


def _radial(q, n):
    """D = |1 - q^{-1/2}| n, from q and n = ||e - a||."""
    return np.abs(1.0 - q ** -0.5) * n


def quad_form(ell: Ellipsoid, point: np.ndarray) -> float:
    """q = (e - a)^T L L^T (e - a)."""
    return float(_quad_stack(ell.center[None], ell.factor[None],
                             _as_batch(point)[None])[2][0, 0])


def distance(ell: Ellipsoid, point: np.ndarray) -> float:
    """Radial distance from ``point`` to the surface. Raises
    DegeneratePointError at the center, where no ray direction exists."""
    v, _, q = _off_center_row(ell, point)
    return float(_radial(q[0, 0], np.linalg.norm(v[0, 0])))


def score_test(ell: Ellipsoid, point: np.ndarray) -> float:
    """Link-prediction penalty: zero anywhere inside, distance outside."""
    return float(scores_test(ell, point)[0])


def scores_train(ell: Ellipsoid, points: np.ndarray) -> np.ndarray:
    """Batch ``distance`` (the fitting objective, penalizing both sides)
    with zero substituted at degenerate points."""
    return scores_train_stack(ell.center[None], ell.factor[None],
                              _as_batch(points)[None])[0]


def scores_train_stack(centers: np.ndarray, factors: np.ndarray,
                       points: np.ndarray) -> np.ndarray:
    """``scores_train`` of each (m, k) cloud of a (G, m, k) stack at its
    own ellipsoid, as a (G, m) array."""
    v, w, q = _quad_stack(centers, factors, points)
    # each (G, m, k) temporary is dropped once used: a stack of large
    # domains is several times the size of one domain, and the norm
    # makes one more
    del w
    n = np.linalg.norm(v, axis=2)
    del v
    out = np.zeros(q.shape)
    ok = q >= Q_FLOOR
    out[ok] = _radial(q[ok], n[ok])
    return out


def scores_test(ell: Ellipsoid, points: np.ndarray) -> np.ndarray:
    """Batch ``score_test``: zero inside (the center included), radial
    distance outside. Only the outside points get a distance computed.

    The points are worked on as columns of their (k, n) transpose,
    which is C-ordered for ``models.project_all`` output, in fixed-offset
    blocks of ``_TEST_BLOCK`` columns: v = X - a, then w = L^T v and
    q = sum of w*w down each column. No (k, n) temporary is held.
    """
    cols = _as_batch(points).T
    n = cols.shape[1]
    lt = ell.factor.T
    out = np.zeros(n)
    for lo in range(0, n, _TEST_BLOCK):
        v = np.subtract(cols[:, lo:lo + _TEST_BLOCK], ell.center[:, None],
                        order="C")
        w = lt @ v
        q = np.multiply(w, w, out=w).sum(axis=0)
        outside = np.flatnonzero(q >= 1.0)
        # take keeps the copy C-ordered (v[:, outside] would not), so its
        # norms are sums down each column, like q
        v_out = np.take(v, outside, axis=1)
        norm = np.sqrt(np.multiply(v_out, v_out, out=v_out).sum(axis=0))
        out[lo + outside] = _radial(q[outside], norm)
    return out


def gradient(ell: Ellipsoid, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dD/da, dD/dL) at one point, as ``_gradients`` gives
    it. Raises DegeneratePointError at the center."""
    v, w, q = _off_center_row(ell, point)
    grad_center, grad_factor = _gradients(ell.factor[None], v, w, q)
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


def _gradients(factors: np.ndarray, v: np.ndarray, w: np.ndarray,
               q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per ellipsoid of a stack, the summed analytic gradients of D over
    its batch rows, as (dD/da (G, k), dD/dL (G, k, k)); v, w and q are
    ``_quad_stack``'s.

    With v = e - a, w = L^T v, q = w^T w, n = ||v|| and s = sign(q - 1),
    one row contributes

        dD/da = -s [ n q^{-3/2} L w + (1 - q^{-1/2}) v / n ]
        dD/dL =  s n q^{-3/2} tril(v w^T)

    Only the lower triangle of the factor is a free parameter, so the
    factor gradient is masked to it. Where q = 1, s = 0 and the row's
    terms are exactly zero; n is taken as 1 there, so that the row at
    the center which a caller set to q = 1 gives 0 and not 0/0.
    """
    n = np.linalg.norm(v, axis=2)
    s = np.sign(q - 1.0)
    n[s == 0] = 1.0
    q_m12 = q ** -0.5
    c1 = s * n * q_m12 / q            # weight on the L w term
    c2 = s * (1.0 - q_m12) / n        # weight on the v / n term
    lw = w @ factors.transpose(0, 2, 1)
    grad_center = -(c1[..., None] * lw + c2[..., None] * v).sum(axis=1)
    grad_factor = np.tril((v * c1[..., None]).transpose(0, 2, 1) @ w)
    return grad_center, grad_factor


def _step_stack(centers: np.ndarray, factors: np.ndarray, batch: np.ndarray,
                lr: float, diag_floor: float) -> None:
    """Apply one accumulated mini-batch of per-sample gradient steps to
    each ellipsoid of a stack, in place; ``batch`` is (G, b, k).

    Each sample contributes a full lr-sized step; steps in a batch are
    evaluated at the same parameters and summed. Samples at the center
    or within SURFACE_TOL of the surface are skipped: they get q = 1,
    whose terms are exactly zero, so every ellipsoid moves exactly as if
    it were fitted alone on its kept rows. The factor diagonal is
    clamped to the floor after the update, which is what keeps L L^T
    positive definite through any number of steps.
    """
    v, w, q = _quad_stack(centers, factors, batch)
    q[~((q >= Q_FLOOR) & (np.abs(q - 1.0) >= SURFACE_TOL))] = 1.0
    grad_center, grad_factor = _gradients(factors, v, w, q)
    centers -= lr * grad_center
    factors -= lr * grad_factor
    diag = _diagonals(factors)
    np.maximum(diag, diag_floor, out=diag)


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
    centers, factors = _init_stack(points)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = points.reshape(g * m, k)
    first_row = np.arange(0, g * m, m)[:, None]
    for epoch in range(config.epochs):
        order = np.stack([rng.permutation(m) for rng in rngs]) + first_row
        for start in range(0, m, config.batch_size):
            _step_stack(centers, factors,
                        rows[order[:, start:start + config.batch_size]],
                        config.lr, config.diag_floor)
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
            ell = Ellipsoid(centers[0], factors[0])
            callback(epoch, ell, float(scores_train(ell, pts[0]).mean()))
    centers, factors = fit_stack(pts, config, [config.seed], hook)
    return Ellipsoid(centers[0], factors[0])
