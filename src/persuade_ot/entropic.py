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
(DenseChi). soft_partition returns the dense kernel, whose chi is the
(n, M^2) membership array; soft_cell_stats turns either kernel's moments
into the soft masses and barycenters. The mass-matching dual solve
(sinkhorn_dual_solve) reads its soft masses from the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import GridMeasure
from .power_diagram import CellStats, DiagramParams, stacked


@dataclass(frozen=True)
class EntropicConfig:
    """Regularization strength epsilon, in squared-distance units."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon!r}")


def _softmax_cols(logits: np.ndarray) -> np.ndarray:
    # softmax over axis 0, stabilized by per-column max subtraction
    shifted = logits - logits.max(axis=0, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=0, keepdims=True)


def soft_cell_stats(mom: np.ndarray, sites: np.ndarray) -> CellStats:
    """Soft masses and barycenters from a kernel's moments() about the sites.

    A cell whose mass underflows to zero keeps its site as barycenter.
    Leading batch axes carry through.
    """
    masses = mom[..., 0, :]
    # masses are strictly positive in exact arithmetic; guard float underflow
    safe = np.maximum(masses, np.finfo(float).tiny)
    barycenters = sites + mom[..., 1:3, :].swapaxes(-1, -2) / safe[..., None]
    dead = masses <= 0.0
    if dead.any():
        barycenters = np.where(dead[..., None], sites, barycenters)
    return CellStats(masses=masses, barycenters=barycenters)


def soft_partition(
    params: DiagramParams, grid: GridMeasure, cfg: EntropicConfig
) -> tuple[DenseChi, CellStats]:
    """The dense kernel (dense_chi) and the induced masses/barycenters.

    The kernel's chi[i, alpha] = softmax_i((g_i - |y_alpha - x_i|^2) / epsilon).
    Every column sums to one, and chi is invariant under a common shift of
    the weights. The masses and barycenters come from the kernel's moments.
    """
    kernel = dense_chi(params, grid, cfg)
    return kernel, soft_cell_stats(kernel.moments(), params.sites)


# Above this floor on Z every term lost to underflow is under 1e-58 of Z.
Z_FLOOR = 1e-250
# the (p, q) powers of (u1, u2) in moment order, as rows 3p + q of a (3, 3) table
_MOMENT_ROWS = np.array([0, 3, 1, 6, 4, 2])

# Both kernels answer the same two questions about the prior-weighted soft
# memberships nu_alpha chi[i, alpha], with u = y_alpha - x_i the offset from
# site i:
#   moments(w)    -> (6, n) sums of nu w chi [1, u1, u2, u1^2, u1 u2, u2^2]
#                    (w may be overwritten);
#   average(coef) -> per point sum_i chi[i] (coef[0, i] + coef[1, i] u1 + coef[2, i] u2).
# A per-point array w is in the kernel's own layout: (M, M) indexed [iy, ix]
# for SeparableChi, (M^2,) for DenseChi; average() returns that layout.
# The separable kernel of a batch puts a leading restart axis R on every
# array, its arguments and its results; each restart's slice is computed
# with the floating-point operations of that restart's own kernel.


class SeparableChi:
    """Soft memberships on the tensor grid, kept as per-axis factors.

    ``work`` is a (3, M, M) float array, (3, R, M, M) for a batch, whose
    rows hold Z, nu / Z and the result of average().
    """

    def __init__(self, ex, sey, ux, uy, z, nu, work):
        # x factors as columns (M, 3n): Ex, Ex u1, Ex u1^2; y factors (3, n, M): s Ey u2^q
        self._xs = np.concatenate([ex, ex * ux, ex * ux * ux], axis=-2).swapaxes(-1, -2).copy()
        self._ys = np.stack([sey, sey * uy, sey * uy * uy], axis=-3)
        self._z = z
        self._r = np.divide(nu.reshape(z.shape[-2:]), z, out=work[1])
        self._avg = work[2]

    def moments(self, w: np.ndarray | None = None) -> np.ndarray:
        """Weighted moments; a given w is overwritten with nu / Z * w."""
        weight = self._r if w is None else np.multiply(w, self._r, out=w)
        t = (weight @ self._xs).reshape(*weight.shape[:-1], 3, -1)  # [..., iy, p, i]
        full = np.einsum("...qiy,...ypi->...pqi", self._ys, t)
        return full.reshape(*full.shape[:-3], 9, -1)[..., _MOMENT_ROWS, :]

    def average(self, coef: np.ndarray) -> np.ndarray:
        sey, seyu = self._ys[..., 0, :, :].swapaxes(-1, -2), self._ys[..., 1, :, :].swapaxes(-1, -2)
        c0, c1, c2 = coef[..., 0, None, :], coef[..., 1, None, :], coef[..., 2, None, :]
        left = np.concatenate([sey * c0 + seyu * c2, sey * c1], axis=-1)
        out = np.matmul(left, self._xs[..., : left.shape[-1]].swapaxes(-1, -2), out=self._avg)
        return np.divide(out, self._z, out=out)


class DenseChi:
    """Soft memberships as an explicit (n, M^2) array over the grid."""

    def __init__(self, chi, ux, uy, nu):
        self.chi, self._ux, self._uy, self._nu = chi, ux, uy, nu

    def moments(self, w: np.ndarray | None = None) -> np.ndarray:
        cw = self.chi * (self._nu if w is None else self._nu * w)
        ux, uy = self._ux, self._uy
        cu1, cu2 = cw * ux, cw * uy
        second = ((cu1 * ux).sum(axis=1), (cu1 * uy).sum(axis=1), (cu2 * uy).sum(axis=1))
        return np.stack([cw.sum(axis=1), cu1.sum(axis=1), cu2.sum(axis=1), *second])

    def average(self, coef: np.ndarray) -> np.ndarray:
        psi = coef[0][:, None] + coef[1][:, None] * self._ux + coef[2][:, None] * self._uy
        return np.einsum("ip,ip->p", self.chi, psi)


def dense_chi(params: DiagramParams, grid: GridMeasure, cfg: EntropicConfig) -> DenseChi:
    """Log-domain softmax over every grid point."""
    points = grid.centers
    ux = points[:, 0][None, :] - params.sites[:, 0:1]
    uy = points[:, 1][None, :] - params.sites[:, 1:2]
    logits = (params.weights[:, None] - (ux * ux + uy * uy)) / cfg.epsilon
    return DenseChi(_softmax_cols(logits), ux, uy, grid.masses)


def chi_kernel(
    params: DiagramParams | list, grid: GridMeasure, cfg: EntropicConfig,
    work: np.ndarray | None = None,
):
    """Separable kernel on the grid, or the dense one where Z < Z_FLOOR.

    A (3, M, M) ``work`` array, if given, holds the separable kernel's
    (M, M) arrays; the kernel is valid until the next call with it.
    Without one a fresh array is allocated.

    For a batch (a list of R diagrams with one n) ``work`` is (3, R, M, M)
    and the separable kernel has a leading restart axis. The dense path is
    per diagram: a batch in which some restart's Z falls below the floor
    gets None, and its caller evaluates each restart alone.
    """
    m = grid.resolution
    sites = stacked(params, "sites")
    weights = stacked(params, "weights")
    if work is None:
        work = np.empty((3, *weights.shape[:-1], m, m))
    gx = grid.centers[:m, 0]
    gy = grid.centers[::m, 1]
    eps = cfg.epsilon
    ux = gx - sites[..., 0:1]
    uy = gy - sites[..., 1:2]
    lx = (weights[..., None] - ux * ux) / eps
    ly = -(uy * uy) / eps
    a = lx.max(axis=-1)
    b = ly.max(axis=-1)
    ex = np.exp(lx - a[..., None])
    ey = np.exp(ly - b[..., None])
    shift = a + b
    sey = np.exp(shift - shift.max(axis=-1, keepdims=True))[..., None] * ey
    z = np.matmul(sey.swapaxes(-1, -2), ex, out=work[0])
    if z.min() < Z_FLOOR:
        return dense_chi(params, grid, cfg) if isinstance(params, DiagramParams) else None
    return SeparableChi(ex, sey, ux, uy, z, grid.masses, work)


def sinkhorn_dual_solve(
    sites: np.ndarray,
    target_masses: np.ndarray,
    grid: GridMeasure,
    cfg: EntropicConfig,
    tol: float,
    max_iters: int = 20000,
) -> np.ndarray:
    """Weights whose soft cell masses match the targets.

    Runs the semi-discrete Sinkhorn fixed point: the continuous potential
    is eliminated in closed form, and each sweep takes the soft masses
    m_i^eps from chi_kernel and rescales g_i by eps*log(target_i / m_i^eps).
    A mass that underflows to zero enters as the smallest positive float,
    so g stays finite. Stops when the mass residual
    max_i |m_i^eps - target_i| drops below tol; the returned g is
    normalized so g[0] = 0.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    targets = np.asarray(target_masses, dtype=float)
    n = sites.shape[0]
    if targets.shape != (n,):
        raise ValueError("one target mass per site required")
    # negated comparisons, so that NaN fails them too
    if not np.all(targets > 0.0):
        raise ValueError("target masses must be positive")
    if not abs(targets.sum() - 1.0) <= 1e-9:
        raise ValueError("target masses must sum to one")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    log_targets = np.log(targets)
    g = np.zeros(n)
    residual = np.inf
    for _ in range(max_iters):
        masses = chi_kernel(DiagramParams(sites, g), grid, cfg).moments()[0]
        residual = float(np.max(np.abs(masses - targets)))
        if residual < tol:
            return g - g[0]
        g = g + cfg.epsilon * (log_targets - np.log(np.maximum(masses, np.finfo(float).tiny)))
    raise ConvergenceError(
        f"sinkhorn residual {residual:.3e} after {max_iters} iterations (tol {tol:.1e})",
        residual=residual,
    )
