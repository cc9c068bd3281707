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
(DenseChi). A stack of R diagrams (Diagrams) has one kernel with a leading
restart axis, or each row's own (RowKernels) where a row's Z is below the
floor. soft_partition returns the dense kernel, whose chi is the (n, M^2)
membership array; soft_cell_stats turns any kernel's moments into the soft
masses and barycenters, which the dual solve (sinkhorn_dual_solve) matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import GridMeasure
from .power_diagram import CellStats, DiagramParams, Diagrams


@dataclass(frozen=True)
class EntropicConfig:
    """Regularization strength epsilon, in squared-distance units."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be a positive real, got {self.epsilon!r}")


TINY = np.finfo(float).tiny


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
    safe = np.maximum(masses, TINY)
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
# The kernel of a stack of diagrams puts a leading restart axis R on every
# array, its arguments and its results; each restart's slice is computed
# with the floating-point operations of that restart's own kernel.


class Workspace:
    """The separable kernel's arrays, kept from one evaluation to the next.

    Each role has one flat buffer that grows to the largest shape asked of
    it, so a run's steps, a batch that loses restarts and the one-diagram
    evaluations beside it reuse the same pages instead of freeing them to
    the system and faulting them back in. A kernel built on a workspace is
    valid until the next kernel is built on it.
    """

    def __init__(self):
        self.buffers: dict = {}
        self._views: dict = {}  # (role, shape) -> that view of the role's buffer

    def __call__(self, role: str, shape: tuple) -> np.ndarray:
        view = self._views.get((role, shape))
        if view is None:
            size = math.prod(shape)
            buf = self.buffers.get(role)
            if buf is None or buf.size < size:
                buf = self.buffers[role] = np.empty(size)
                self._views = {key: v for key, v in self._views.items() if key[0] != role}
            view = self._views[role, shape] = buf[:size].reshape(shape)
        return view


class SeparableChi:
    """Soft memberships on the tensor grid, kept as per-axis factors.

    ``xs`` and ``ys`` (..., 3, n, M) hold Ex and s Ey in their first slots,
    and every array lives in the Workspace ``work``.
    """

    def __init__(self, xs, ys, ux, uy, z, nu, work):
        # x factors as columns (M, 3n): Ex, Ex u1, Ex u1^2; y factors (3, n, M): s Ey u2^q
        for f, u in ((xs, ux), (ys, uy)):
            np.multiply(f[..., 0, :, :], u, out=f[..., 1, :, :])
            np.multiply(f[..., 1, :, :], u, out=f[..., 2, :, :])
        lead, (n, m) = xs.shape[:-3], xs.shape[-2:]
        self._xs = work("xcols", (*lead, m, 3 * n))
        np.copyto(self._xs, xs.reshape(*lead, 3 * n, m).swapaxes(-1, -2))
        self._ys = ys
        self._z = z
        self._r = np.divide(nu.reshape(z.shape[-2:]), z, out=work("r", z.shape))
        self._avg = work("avg", z.shape)
        self._t = work("t", self._xs.shape)
        self._left = work("left", (*lead, m, 2 * n))
        self._rows = work("rows", (*lead, 2 * n, m))

    def moments(self, w: np.ndarray | None = None) -> np.ndarray:
        """Weighted moments; a given w is overwritten with nu / Z * w."""
        weight = self._r if w is None else np.multiply(w, self._r, out=w)
        t = np.matmul(weight, self._xs, out=self._t).reshape(*weight.shape[:-1], 3, -1)
        full = np.einsum("...qiy,...ypi->...pqi", self._ys, t)  # [..., iy, p, i]
        return full.reshape(*full.shape[:-3], 9, -1)[..., _MOMENT_ROWS, :]

    def average(self, coef: np.ndarray) -> np.ndarray:
        sey, seyu = self._ys[..., 0, :, :], self._ys[..., 1, :, :]
        c0, c1, c2 = coef[..., 0, :, None], coef[..., 1, :, None], coef[..., 2, :, None]
        n = sey.shape[-2]
        # rows (sey c0 + seyu c2, sey c1), the second block first as scratch
        rows = self._rows
        np.multiply(seyu, c2, out=rows[..., n:, :])
        np.multiply(sey, c0, out=rows[..., :n, :])
        rows[..., :n, :] += rows[..., n:, :]
        np.multiply(sey, c1, out=rows[..., n:, :])
        np.copyto(self._left, rows.swapaxes(-1, -2))
        out = np.matmul(self._left, self._xs[..., : 2 * n].swapaxes(-1, -2), out=self._avg)
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


class RowKernels(list):
    """A stack's kernels one diagram at a time (each its own chi_kernel),
    whose results stack on the leading axis; average gives a list of rows."""

    def moments(self, w: list | None = None) -> np.ndarray:
        return np.stack([k.moments(None if w is None else w[j]) for j, k in enumerate(self)])

    def average(self, coef: np.ndarray) -> list:
        return [k.average(c) for k, c in zip(self, coef)]


def chi_kernel(
    params: DiagramParams | Diagrams, grid: GridMeasure, cfg: EntropicConfig,
    work: Workspace | None = None,
):
    """Separable kernel on the grid, or the dense one where Z < Z_FLOOR.

    The separable kernel's arrays live in ``work`` (a fresh Workspace if
    none is given); the kernel is valid until the next one built on it.

    For a stack (Diagrams) every array carries the leading restart axis.
    The dense path is per diagram: a stack in which some row's Z falls
    below the floor gets RowKernels.
    """
    m = grid.resolution
    work = Workspace() if work is None else work
    sites, weights = params.sites, params.weights
    shape = (*weights.shape, m)  # (..., n, M)
    gx = grid.centers[:m, 0]
    gy = grid.centers[::m, 1]
    eps = cfg.epsilon
    ux = np.subtract(gx, sites[..., 0:1], out=work("ux", shape))
    uy = np.subtract(gy, sites[..., 1:2], out=work("uy", shape))
    # lx = (g - ux^2) / eps and ly = -uy^2 / eps, then Ex and Ey, in place
    xs = work("xs", (*shape[:-2], 3, *shape[-2:]))
    ys = work("ys", xs.shape)
    ex = np.multiply(ux, ux, out=xs[..., 0, :, :])
    np.subtract(weights[..., None], ex, out=ex)
    ex /= eps
    ey = np.multiply(uy, uy, out=ys[..., 0, :, :])
    np.negative(ey, out=ey)
    ey /= eps
    a = ex.max(axis=-1)
    b = ey.max(axis=-1)
    ex -= a[..., None]
    np.exp(ex, out=ex)
    ey -= b[..., None]
    np.exp(ey, out=ey)
    shift = a + b
    sey = np.multiply(np.exp(shift - shift.max(axis=-1, keepdims=True))[..., None], ey, out=ey)
    z = np.matmul(sey.swapaxes(-1, -2), ex, out=work("z", (*shape[:-2], m, m)))
    if z.min() < Z_FLOOR:
        if isinstance(params, DiagramParams):
            return dense_chi(params, grid, cfg)
        rows = zip(params.sites, params.weights)
        return RowKernels([chi_kernel(DiagramParams(*row), grid, cfg) for row in rows])
    return SeparableChi(xs, ys, ux, uy, z, grid.masses, work)


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
        g = g + cfg.epsilon * (log_targets - np.log(np.maximum(masses, TINY)))
    raise ConvergenceError(
        f"sinkhorn residual {residual:.3e} after {max_iters} iterations (tol {tol:.1e})",
        residual=residual,
    )
