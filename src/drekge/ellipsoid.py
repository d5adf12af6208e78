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


@dataclass
class Ellipsoid:
    center: np.ndarray   # (k,)
    factor: np.ndarray   # (k, k) lower triangular, diag >= DIAG_FLOOR

    @property
    def dim(self) -> int:
        return self.center.shape[0]

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
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("fit config needs lr > 0, epochs >= 1, "
                                     "batch_size >= 1")
        if self.diag_floor <= 0:
            raise ConfigurationError("diag_floor must be positive")


def _as_batch(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[None, :] if pts.ndim == 1 else pts


def quad_forms(ell: Ellipsoid, points: np.ndarray) -> np.ndarray:
    """q = (e - a)^T L L^T (e - a) for each row of ``points``."""
    v = _as_batch(points) - ell.center
    w = v @ ell.factor  # row b is (L^T v_b)^T
    return np.einsum("bi,bi->b", w, w)


def quad_form(ell: Ellipsoid, point: np.ndarray) -> float:
    return float(quad_forms(ell, point)[0])


def distance(ell: Ellipsoid, point: np.ndarray) -> float:
    """Radial distance from ``point`` to the surface.

    Raises DegeneratePointError when the point sits at the center, where
    no ray direction exists.
    """
    q = quad_form(ell, point)
    if q < Q_FLOOR:
        raise DegeneratePointError(f"quadratic form {q:.3e} below floor")
    n = float(np.linalg.norm(np.asarray(point, dtype=np.float64) - ell.center))
    return abs(1.0 - q ** -0.5) * n


def score_train(ell: Ellipsoid, point: np.ndarray) -> float:
    """Fitting objective for one point: distance, penalizing both sides."""
    return distance(ell, point)


def score_test(ell: Ellipsoid, point: np.ndarray) -> float:
    """Link-prediction penalty: zero anywhere inside, distance outside."""
    return float(scores_test(ell, point)[0])


def scores_train(ell: Ellipsoid, points: np.ndarray) -> np.ndarray:
    """Batch ``score_train`` with zero substituted at degenerate points."""
    pts = _as_batch(points)
    v = pts - ell.center
    q = quad_forms(ell, pts)
    n = np.linalg.norm(v, axis=1)
    out = np.zeros(len(q))
    ok = q >= Q_FLOOR
    out[ok] = np.abs(1.0 - q[ok] ** -0.5) * n[ok]
    return out


def scores_test(ell: Ellipsoid, points: np.ndarray) -> np.ndarray:
    """Batch ``score_test``: zero inside (the center included), radial
    distance outside. Only the outside rows get a distance computed."""
    pts = _as_batch(points)
    q = quad_forms(ell, pts)
    out = np.zeros(len(q))
    outside = np.flatnonzero(q >= 1.0)
    n = np.linalg.norm(pts[outside] - ell.center, axis=1)
    out[outside] = (1.0 - q[outside] ** -0.5) * n
    return out


def gradient(ell: Ellipsoid, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dD/d​center, dD/d​factor) at one point.

    With v = e - a, w = L^T v, q = w^T w, n = ||v|| and s = sign(q - 1):

        dD/da = -s [ n q^{-3/2} L w + (1 - q^{-1/2}) v / n ]
        dD/dL =  s n q^{-3/2} tril(v w^T)

    Only the lower triangle of the factor is a free parameter, so the
    factor gradient is masked to it. Exactly on the surface s = 0 and
    both gradients vanish. Raises DegeneratePointError at the center.
    """
    v = np.asarray(point, dtype=np.float64) - ell.center
    w = ell.factor.T @ v
    q = float(w @ w)
    if q < Q_FLOOR:
        raise DegeneratePointError(f"quadratic form {q:.3e} below floor")
    n = float(np.linalg.norm(v))
    s = float(np.sign(q - 1.0))
    q_m12 = q ** -0.5
    q_m32 = q_m12 / q
    grad_center = -s * (n * q_m32 * (ell.factor @ w) + (1.0 - q_m12) * v / n)
    grad_factor = s * n * q_m32 * np.tril(np.outer(v, w))
    return grad_center, grad_factor


def _init_ellipsoid(points: np.ndarray) -> Ellipsoid:
    """Axis-aligned starting ellipsoid covering the point cloud.

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
    collapsing to zero thickness.
    """
    pts = _as_batch(points)
    k = pts.shape[1]
    center = pts.mean(axis=0)
    base = pts.std(axis=0) * np.sqrt(k)
    eps = 0.01 * float(np.sqrt(np.mean(base ** 2))) + 1e-12

    v = pts - center
    active = base > 0
    if active.any():
        q0 = ((v[:, active] / base[active]) ** 2).sum(axis=1)
        scale_sq = 1.05 * float(np.quantile(q0, 0.99))
    else:
        scale_sq = 0.0
    scale = np.sqrt(scale_sq) if scale_sq > 0 else 1.0

    factor = np.diag(1.0 / (scale * base + eps))
    return Ellipsoid(center, factor)


def _batch_step(ell: Ellipsoid, batch: np.ndarray, lr: float,
                diag_floor: float) -> None:
    """Apply one accumulated mini-batch of per-sample gradient steps.

    Each sample contributes a full lr-sized step; steps in a batch are
    evaluated at the same parameters and summed. Samples at the center
    or within SURFACE_TOL of the surface are skipped. The factor diagonal
    is clamped to the floor after the update, which is what keeps L L^T
    positive definite through any number of steps.
    """
    v = batch - ell.center
    w = v @ ell.factor
    q = np.einsum("bi,bi->b", w, w)
    keep = (q >= Q_FLOOR) & (np.abs(q - 1.0) >= SURFACE_TOL)
    if keep.any():
        v, w, q = v[keep], w[keep], q[keep]
        n = np.linalg.norm(v, axis=1)
        s = np.sign(q - 1.0)
        q_m12 = q ** -0.5
        c1 = s * n * q_m12 / q            # weight on the L w term
        c2 = s * (1.0 - q_m12) / n        # weight on the v / n term
        lw = w @ ell.factor.T
        grad_center = -(c1[:, None] * lw + c2[:, None] * v).sum(axis=0)
        grad_factor = np.tril((v * c1[:, None]).T @ w)
        ell.center -= lr * grad_center
        ell.factor -= lr * grad_factor
    d = np.diagonal(ell.factor).copy()
    np.fill_diagonal(ell.factor, np.maximum(d, diag_floor))


def fit(points: np.ndarray, config: FitConfig | None = None,
        callback=None) -> Ellipsoid:
    """Fit one ellipsoid surface to a point cloud by mini-batch SGD.

    Minimizes the sum of radial distances from the points to the surface.
    ``callback(epoch, ellipsoid, mean_score)`` is invoked once per epoch
    after its updates, with the mean training score at the new parameters.
    """
    config = config or FitConfig()
    config.validate()
    pts = _as_batch(points)
    if pts.shape[0] < 1:
        raise ConfigurationError("cannot fit an ellipsoid to zero points")

    ell = _init_ellipsoid(pts)
    rng = np.random.default_rng(config.seed)
    m = pts.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(m)
        for start in range(0, m, config.batch_size):
            _batch_step(ell, pts[order[start:start + config.batch_size]],
                        config.lr, config.diag_floor)
        if callback is not None:
            callback(epoch, ell, float(scores_train(ell, pts).mean()))
    return ell
