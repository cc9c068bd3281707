"""Persuasion objective, penalty, and its analytic gradient.

The soft objective is F = sum_i m_i Phi(b_i) over soft cells, minus
eta times the penalty

    R = sum_i sum_a nu_a chi_ia |y_a - x_i|^2 + sum_{i != j} m_i m_j / |x_i - x_j|^2,

each cell's second moment about its site plus a mass-weighted inverse-square
repulsion between sites. _penalty_terms computes R and its derivatives
from the moments and the diagram's separation matrix.

The gradient is assembled in a factored adjoint form: for any functional
sum_{j,alpha} A_{j,alpha} chi_{j,alpha} the softmax derivative identity
collapses the chain rule to

    dF/dg_k = (1/eps) sum_alpha nu_a chi_ka (Psi_ka - Psibar_a)
    dF/dx_k = (2/eps) sum_alpha nu_a (y_a - x_k) chi_ka (Psi_ka - Psibar_a)
              + explicit penalty terms,

with Psi the per-cell adjoint and Psibar its chi-average per point. Psi is
affine in y up to a term common to all cells, so both sums, the masses,
barycenters and the penalty are all weighted moments of chi up to second
order. They are taken from one kernel (entropic.chi_kernel): on the tensor
grid the separable factors turn each into an (M, M) @ (M, 3n) matmul, with
the dense log-domain softmax only where the factors underflow. No n x M^2
array is built on the separable path.

One evaluation path (_evaluate) serves one diagram and a stack of R
(power_diagram.Diagrams), whose kernel, moments, separation matrices and
gradients carry a leading restart axis. One payoff call covers all R n
barycentres, every reduction over cells is made per restart with the
operations of a single diagram, so each restart's results equal its own
evaluation bit for bit. Both get one report type, ObjectiveReport, whose
fields carry the stack's restart axis; ObjectiveReport.row(k) is restart k's.
The hard value of a diagram (hard_objective) prices the hard cells of its
hard_assign record with cells_value, which the optimizer's finalisation
applies to the record it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropic import EntropicConfig, Workspace, chi_kernel, soft_cell_stats
from .errors import SingularPenaltyError
from .grid import GridMeasure
from .payoffs import PayoffModel
from .power_diagram import CellStats, DiagramParams, Diagrams, hard_assign


@dataclass(frozen=True)
class ObjectiveConfig:
    """Penalty weight eta, entropic config, and the payoff surface."""

    eta: float
    entropic: EntropicConfig
    payoff: PayoffModel

    def __post_init__(self):
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be a nonnegative real, got {self.eta!r}")


class ObjectiveReport(NamedTuple):
    """Value decomposition plus the soft cells and their payoffs, with the
    leading restart axis of a stack of diagrams (none for one DiagramParams,
    whose scalar fields are np.float64). The fields are the arrays the
    evaluation computed, not copies."""

    value: np.ndarray
    payoff_term: np.ndarray
    penalty_term: np.ndarray
    masses: np.ndarray
    barycenters: np.ndarray
    payoffs: np.ndarray

    @property
    def cells(self) -> CellStats:
        return CellStats(self.masses, self.barycenters)

    @property
    def per_cell(self) -> list:
        """(mass, (b1, b2), payoff) per cell of one diagram, as Python floats."""
        return [
            (float(m), (float(b[0]), float(b[1])), float(v))
            for m, b, v in zip(self.masses, self.barycenters, self.payoffs)
        ]

    def row(self, k: int) -> ObjectiveReport:
        """Restart k's report, of a stack's."""
        return ObjectiveReport(*(field[k] for field in self))


def cells_value(stats: CellStats, payoff: PayoffModel) -> float:
    """sum over supported cells of m_i * Phi(b_i); empty cells contribute 0."""
    phis = payoff.value(stats.barycenters[stats.support])
    return float(stats.masses[stats.support] @ phis)


def hard_objective(params: DiagramParams, grid: GridMeasure, payoff: PayoffModel) -> float:
    """cells_value of the diagram's hard cells (its hard_assign record)."""
    return cells_value(hard_assign(params, grid), payoff)


def _penalty_terms(mom: np.ndarray, sites: np.ndarray, sep2: np.ndarray, eta: float) -> tuple:
    """Penalty R, the adjoint's per-cell r and R's explicit dR/dX.

    All three read the separation matrix sep2 (DiagramParams.separation_sq),
    whose inf diagonal makes the i = j repulsion terms exact zeros, so one
    site needs no special case. Leading batch axes carry through. At eta = 0
    the gradient does not see the penalty, and r and dR/dX are 0.0.
    """
    m = mom[..., 0, :]
    mm = m[..., :, None] * m[..., None, :]
    # an overflow here is the failure reported below, not a warning
    with np.errstate(over="ignore", divide="ignore"):
        total = (mom[..., 3, :] + mom[..., 5, :]).sum(axis=-1) + (mm / sep2).sum(axis=(-2, -1))
    if not np.isfinite(total).all():
        raise SingularPenaltyError("sites too close: repulsion term is not finite")
    if eta == 0.0:
        return total, 0.0, 0.0
    # r_j = dR/dm_j of the repulsion; dR/dX with chi held fixed
    r = 2.0 * (m[..., None, :] / sep2).sum(axis=-1)
    diff = sites[..., :, None, :] - sites[..., None, :, :]
    rep_x = -4.0 * ((mm / sep2**2)[..., None] * diff).sum(axis=-2)
    return total, r, -2.0 * mom[..., 1:3, :].swapaxes(-1, -2) + rep_x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per restart, by a single diagram's BLAS call: a (..., n), b (..., n) or (..., n, k)."""
    if a.ndim == b.ndim:
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]
    return np.matmul(a[..., None, :], b)[..., 0, :]


def _evaluate(kernel, params: DiagramParams | Diagrams, cfg: ObjectiveConfig,
              gradient: bool = True):
    """The ObjectiveReport and, unless ``gradient`` is False, (dF/dX, dF/dg)
    from one kernel; a stack's cfg.payoff takes its points row after row."""
    eps, eta = cfg.entropic.epsilon, cfg.eta
    sites = params.sites
    mom = kernel.moments()
    stats = soft_cell_stats(mom, sites)
    m, b = stats.masses, stats.barycenters
    phis, gphis = cfg.payoff.value_and_grad(b.reshape(-1, 2))
    phis, gphis = phis.reshape(m.shape), gphis.reshape(b.shape)
    # the report carries the penalty value even when eta = 0
    penalty, r, penalty_x = _penalty_terms(mom, sites, params.separation_sq, eta)
    payoff_term = _dot(m, phis)[()]  # for one diagram a scalar, as the other two
    reports = ObjectiveReport(payoff_term - eta * penalty, payoff_term, penalty, m, b, phis)
    if not gradient:
        return reports

    # Payoff adjoint Psi_ja = c_j + G_j . y_a - eta (|y_a - x_j|^2 + r_j), with
    # G = grad Phi(b) and c = Phi(b) - G . b, reproduces d(m_j Phi(b_j))/dchi_ja
    # by the quotient rule. As c'_j + lin_j . y - eta |y|^2, the last term is
    # common to all cells and cancels in Psi - Psibar; so does the mass-weighted
    # mean cell's affine part, subtracted here so that the moment sums below do
    # not cancel in floating point (a single cell then gives exactly zero, as
    # the dense path does).
    c = phis - np.einsum("...jk,...jk->...j", gphis, b) - eta * (r + (sites * sites).sum(axis=-1))
    lin = gphis + 2.0 * eta * sites
    w = m / m.sum(axis=-1, keepdims=True)
    c = c - _dot(w, c)[..., None]
    lin = lin - _dot(w, lin)[..., None, :]
    # rows: Psi_j about its site, c'_j + lin_j . x_j + lin_j . (y - x_j)
    coef = np.concatenate([
        (c + np.einsum("...jk,...jk->...j", lin, sites))[..., None, :], lin.swapaxes(-1, -2)
    ], axis=-2)
    # with D_ja = nu_a chi_ja (Psi_ja - Psibar_a): dF/dg_j = sum_a D_ja / eps and
    # dF/dx_j = (2/eps) sum_a D_ja (y_a - x_j), from the zeroth and first moments
    pm = kernel.moments(kernel.average(coef))
    c0, c1, c2 = coef[..., 0:1, :], coef[..., 1:2, :], coef[..., 2:3, :]
    row_sum = c0[..., 0, :] * m + np.einsum("...kj,...kj->...j", coef[..., 1:, :], mom[..., 1:3, :])
    # the u1 and u2 rows: c0 m_k + m_1k c1 + m_2k c2 - pm_k for k = 1, 2
    core_u = c0 * mom[..., 1:3, :] + mom[..., 3:5, :] * c1 + mom[..., 4:6, :] * c2
    dg = (row_sum - pm[..., 0, :]) / eps
    dx = (2.0 / eps) * (core_u - pm[..., 1:3, :]).swapaxes(-1, -2) - eta * penalty_x
    return reports, dx, dg


def soft_objective(params: DiagramParams, grid: GridMeasure, cfg: ObjectiveConfig,
                   work: Workspace | None = None) -> ObjectiveReport:
    """Penalized soft objective F - eta*R with its per-cell decomposition:
    value_and_grad's evaluation up to the report; ``work`` is as there."""
    return _evaluate(chi_kernel(params, grid, cfg.entropic, work), params, cfg, False)


def value_and_grad(params: DiagramParams | Diagrams, grid: GridMeasure,
                   cfg: ObjectiveConfig, work: Workspace | None = None):
    """Objective report plus (dF/dX, dF/dg) in one pass, from one kernel.

    ``work`` is an optional Workspace that keeps the kernel's arrays from
    call to call (see entropic.chi_kernel); the results do not depend on it,
    and a report holds none of its arrays. A stack (Diagrams) gets its
    report with a leading restart axis and (R, n, 2), (R, n) gradients, and
    its restarts may differ in the payoff (cfg.payoff a payoffs.stacked_payoff).
    """
    return _evaluate(chi_kernel(params, grid, cfg.entropic, work), params, cfg)
