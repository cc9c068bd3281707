"""Entropy-regularized soft partitions and the regularized semi-discrete dual solve.

The soft membership of grid point y_alpha in cell i is the softmax over i
of (g_i - |y_alpha - x_i|^2) / epsilon.

On the tensor grid (alpha = iy*M + ix, y_alpha = (gx[ix], gy[iy])) the
unnormalized weights split into one factor per axis,

    chi[i, alpha] = s_i Ex[i, ix] Ey[i, iy] / Z[iy, ix],
    Ex = exp((g_i - (x_i1 - gx)^2)/eps - a_i),  Ey = exp(-(x_i2 - gy)^2/eps - b_i),
    s_i = exp(a_i + b_i - max_j(a_j + b_j)),    Z = Ey^T diag(s) Ex,

with a_i, b_i the per-site maxima, so every factor is at most one. Any
chi-weighted sum over the grid is then a matmul of an (M, M) array with
(n, M) factors, and only 2 n M exponentials are taken (SeparableChi). The
prior enters only through nu / Z. Terms that underflow to zero are below
~1e-308; while Z.min() stays above Z_FLOOR each lost term is under 1e-58
of its normaliser. Where Z drops below the floor (a small epsilon or a
site far outside the grid), chi_kernel falls back to the dense log-domain
softmax, which subtracts the per-point maximum logit before exponentiating
(DenseChi). soft_partition always returns the dense chi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import GridMeasure
from .power_diagram import DiagramParams, sq_dists


@dataclass(frozen=True)
class EntropicConfig:
    """Regularization strength epsilon, in squared-distance units."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon!r}")


@dataclass(frozen=True)
class SoftPartition:
    """Soft memberships chi (n, M^2)."""

    chi: np.ndarray


@dataclass(frozen=True)
class SoftCellStats:
    """Regularized masses and barycenters of the soft cells."""

    masses: np.ndarray
    barycenters: np.ndarray


def _softmax_cols(logits: np.ndarray) -> np.ndarray:
    # softmax over axis 0, stabilized by per-column max subtraction
    shifted = logits - logits.max(axis=0, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=0, keepdims=True)


def _stats_from_chi(
    chi: np.ndarray, grid: GridMeasure, sites: np.ndarray
) -> SoftCellStats:
    nu = grid.masses
    masses = chi @ nu
    first_moments = chi @ (nu[:, None] * grid.centers)
    # masses are strictly positive in exact arithmetic; guard float underflow
    safe = np.maximum(masses, np.finfo(float).tiny)
    barycenters = first_moments / safe[:, None]
    dead = masses <= 0.0
    if np.any(dead):
        barycenters = np.where(dead[:, None], sites, barycenters)
    return SoftCellStats(masses=masses, barycenters=barycenters)


def soft_partition(
    params: DiagramParams, grid: GridMeasure, cfg: EntropicConfig
) -> tuple[SoftPartition, SoftCellStats]:
    """Soft memberships and the induced masses/barycenters.

    chi[i, alpha] = softmax_i((g_i - |y_alpha - x_i|^2) / epsilon). Every
    column sums to one, and chi is invariant under a common shift of the
    weights.
    """
    logits = (params.weights[:, None] - sq_dists(params.sites, grid.centers)) / cfg.epsilon
    chi = _softmax_cols(logits)
    return SoftPartition(chi=chi), _stats_from_chi(chi, grid, params.sites)


# Above this floor on Z every term lost to underflow is under 1e-58 of Z.
Z_FLOOR = 1e-250

# Both kernels answer the same two questions about the prior-weighted soft
# memberships nu_alpha chi[i, alpha], with u = y_alpha - x_i the offset from
# site i:
#   moments(w)    -> (6, n) sums of nu w chi [1, u1, u2, u1^2, u1 u2, u2^2]
#                    (w may be overwritten);
#   average(coef) -> per point sum_i chi[i] (coef[0, i] + coef[1, i] u1 + coef[2, i] u2).
# A per-point array w is in the kernel's own layout: (M, M) indexed [iy, ix]
# for SeparableChi, (M^2,) for DenseChi; average() returns that layout.


class SeparableChi:
    """Soft memberships on the tensor grid, kept as per-axis factors.

    ``work`` is an optional (3, M, M) float array that receives Z, nu / Z
    and the result of average(); without it each is a fresh array.
    """

    def __init__(self, ex, sey, ux, uy, z, nu, work=None):
        # x factors as columns (M, 3n): Ex, Ex u1, Ex u1^2; y factors (3, n, M): s Ey u2^q
        self._xs = np.concatenate([ex, ex * ux, ex * ux * ux]).T.copy()
        self._ys = np.stack([sey, sey * uy, sey * uy * uy])
        self._z = z
        self._r = np.divide(nu.reshape(z.shape), z, out=None if work is None else work[1])
        self._avg = None if work is None else work[2]

    def moments(self, w: np.ndarray | None = None) -> np.ndarray:
        """Weighted moments; a given w is overwritten with nu / Z * w."""
        weight = self._r if w is None else np.multiply(w, self._r, out=w)
        t = (weight @ self._xs).reshape(weight.shape[0], 3, -1)  # [iy, p, i]
        full = np.einsum("qiy,ypi->pqi", self._ys, t)
        return full[[0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 1, 2]]

    def average(self, coef: np.ndarray) -> np.ndarray:
        sey, seyu = self._ys[0].T, self._ys[1].T
        left = np.concatenate([sey * coef[0] + seyu * coef[2], sey * coef[1]], axis=1)
        out = np.matmul(left, self._xs[:, : left.shape[1]].T, out=self._avg)
        return np.divide(out, self._z, out=out)


class DenseChi:
    """Soft memberships as an explicit (n, M^2) array over the grid."""

    def __init__(self, chi, ux, uy, nu):
        self._chi, self._ux, self._uy, self._nu = chi, ux, uy, nu

    def moments(self, w: np.ndarray | None = None) -> np.ndarray:
        cw = self._chi * (self._nu if w is None else self._nu * w)
        ux, uy = self._ux, self._uy
        return np.stack([(cw * f).sum(axis=1) for f in (1.0, ux, uy, ux * ux, ux * uy, uy * uy)])

    def average(self, coef: np.ndarray) -> np.ndarray:
        psi = coef[0][:, None] + coef[1][:, None] * self._ux + coef[2][:, None] * self._uy
        return np.einsum("ip,ip->p", self._chi, psi)


def dense_chi(params: DiagramParams, grid: GridMeasure, cfg: EntropicConfig) -> DenseChi:
    """Log-domain softmax over every grid point."""
    points = grid.centers
    logits = (params.weights[:, None] - sq_dists(params.sites, points)) / cfg.epsilon
    ux = points[:, 0][None, :] - params.sites[:, 0:1]
    uy = points[:, 1][None, :] - params.sites[:, 1:2]
    return DenseChi(_softmax_cols(logits), ux, uy, grid.masses)


def chi_kernel(
    params: DiagramParams, grid: GridMeasure, cfg: EntropicConfig,
    work: np.ndarray | None = None,
) -> SeparableChi | DenseChi:
    """Separable kernel on the grid, or the dense one where Z < Z_FLOOR.

    A (3, M, M) ``work`` array, if given, holds the separable kernel's
    (M, M) arrays; the kernel is valid until the next call with it.
    """
    m = grid.resolution
    gx = grid.centers[:m, 0]
    gy = grid.centers[::m, 1]
    eps = cfg.epsilon
    ux = gx[None, :] - params.sites[:, 0:1]
    uy = gy[None, :] - params.sites[:, 1:2]
    lx = (params.weights[:, None] - ux * ux) / eps
    ly = -(uy * uy) / eps
    a = lx.max(axis=1)
    b = ly.max(axis=1)
    ex = np.exp(lx - a[:, None])
    ey = np.exp(ly - b[:, None])
    shift = a + b
    sey = np.exp(shift - shift.max())[:, None] * ey
    z = np.matmul(sey.T, ex, out=None if work is None else work[0])
    if z.min() < Z_FLOOR:
        return dense_chi(params, grid, cfg)
    return SeparableChi(ex, sey, ux, uy, z, grid.masses, work)


def _log_soft_masses(
    d2: np.ndarray, g: np.ndarray, log_nu: np.ndarray, live: np.ndarray, eps: float
) -> np.ndarray:
    # log m_i = logsumexp_alpha(log nu_alpha + logit_i - logsumexp_j logit_j)
    logits = (g[:, None] - d2[:, live]) / eps
    top = logits.max(axis=0)
    log_z = top + np.log(np.exp(logits - top[None, :]).sum(axis=0))
    a = log_nu[None, :] + logits - log_z[None, :]
    amax = a.max(axis=1)
    return amax + np.log(np.exp(a - amax[:, None]).sum(axis=1))


def sinkhorn_dual_solve(
    sites: np.ndarray,
    target_masses: np.ndarray,
    grid: GridMeasure,
    cfg: EntropicConfig,
    tol: float,
    max_iters: int = 20000,
) -> np.ndarray:
    """Weights whose soft cell masses match the targets.

    Runs the semi-discrete Sinkhorn fixed point in the log domain: the
    continuous potential is eliminated in closed form, and each sweep
    rescales g_i by eps*log(target_i / m_i^eps). Stops when the mass
    residual max_i |m_i^eps - target_i| drops below tol; the returned g is
    normalized so g[0] = 0.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    targets = np.asarray(target_masses, dtype=float)
    n = sites.shape[0]
    if targets.shape != (n,):
        raise ValueError("one target mass per site required")
    if np.any(targets <= 0.0):
        raise ValueError("target masses must be positive")
    if abs(targets.sum() - 1.0) > 1e-9:
        raise ValueError("target masses must sum to one")

    eps = cfg.epsilon
    live = grid.masses > 0.0
    log_nu = np.log(grid.masses[live])
    d2 = sq_dists(sites, grid.centers)
    log_targets = np.log(targets)
    g = np.zeros(n)
    residual = np.inf
    for _ in range(max_iters):
        log_m = _log_soft_masses(d2, g, log_nu, live, eps)
        residual = float(np.max(np.abs(np.exp(log_m) - targets)))
        if residual < tol:
            return g - g[0]
        g = g + eps * (log_targets - log_m)
    raise ConvergenceError(
        f"sinkhorn residual {residual:.3e} after {max_iters} iterations (tol {tol:.1e})",
        residual=residual,
    )
