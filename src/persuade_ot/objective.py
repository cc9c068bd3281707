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

The evaluation also takes a batch: a list of R diagrams with one n. The
kernel's arrays, the moments, the separation matrices (R, n, n) and the
gradients then carry a leading restart axis, one payoff call covers all
R n barycentres, and every reduction over cells is made per restart with
the operations of a single diagram, so each restart's report and gradient
equal its own evaluation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic import (
    DenseChi, EntropicConfig, SeparableChi, Workspace, chi_kernel, soft_cell_stats,
)
from .errors import SingularPenaltyError
from .grid import GridMeasure
from .payoffs import PayoffModel, stacked_value_and_grad
from .power_diagram import (
    CellStats, DiagramParams, HardAssignment, hard_assign, hard_cell_stats, stacked,
)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Penalty weight eta, entropic config, and the payoff surface."""

    eta: float
    entropic: EntropicConfig
    payoff: PayoffModel

    def __post_init__(self):
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be a nonnegative real, got {self.eta!r}")


@dataclass(frozen=True, eq=False)
class ObjectiveReport:
    """Value decomposition plus the soft cells and their payoffs.

    ``cells`` and ``payoffs`` are the arrays the evaluation computed, not
    copies; reports compare by identity.
    """

    value: float
    payoff_term: float
    penalty_term: float
    cells: CellStats
    payoffs: np.ndarray

    @property
    def per_cell(self) -> list:
        """(mass, (b1, b2), payoff) per cell, as Python floats."""
        return [
            (float(m), (float(b[0]), float(b[1])), float(v))
            for m, b, v in zip(self.cells.masses, self.cells.barycenters, self.payoffs)
        ]


def hard_objective(
    params: DiagramParams, grid: GridMeasure, payoff: PayoffModel,
    assignment: HardAssignment | None = None,
) -> float:
    """sum over supported hard cells of m_i * Phi(b_i); empty cells contribute 0.

    ``assignment`` is the diagram's hard_assign labelling, if the caller has it.
    """
    if assignment is None:
        assignment = hard_assign(params, grid)
    stats = hard_cell_stats(assignment, grid)
    phis = payoff.value(stats.barycenters[stats.support])
    return float(stats.masses[stats.support] @ phis)


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
    """a @ b per restart, by the BLAS call of a single diagram's a @ b, for
    a (..., n) and b (..., n) or (..., n, k)."""
    if a.ndim == 1:
        return a @ b
    if a.ndim == b.ndim:
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]
    return np.matmul(a[..., None, :], b)[..., 0, :]


def _evaluate(kernel: SeparableChi | DenseChi, params: DiagramParams | list,
              cfg: ObjectiveConfig | list):
    """The objective's one evaluation: report and (dF/dX, dF/dg) from one kernel.

    For a batch kernel, a list of R diagrams and a list of their R configs
    it gives R reports and (R, n, 2), (R, n) gradients.
    """
    single = isinstance(params, DiagramParams)
    first = cfg if single else cfg[0]
    eps, eta = first.entropic.epsilon, first.eta
    sites = stacked(params, "sites")
    mom = kernel.moments()
    stats = soft_cell_stats(mom, sites)
    m, b = stats.masses, stats.barycenters
    if single:
        phis, gphis = cfg.payoff.value_and_grad(b)
    else:
        phis, gphis = stacked_value_and_grad([c.payoff for c in cfg], b)
    # the report carries the penalty value even when eta = 0
    penalty, r, penalty_x = _penalty_terms(mom, sites, stacked(params, "separation_sq"), eta)
    payoff_term = _dot(m, phis)
    value = payoff_term - eta * penalty
    if single:
        report = ObjectiveReport(float(value), float(payoff_term), float(penalty), stats, phis)
    else:
        report = [
            ObjectiveReport(float(value[k]), float(payoff_term[k]), float(penalty[k]),
                            CellStats(m[k], b[k]), phis[k])
            for k in range(len(params))
        ]

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
    c0, c1, c2 = coef[..., 0, :], coef[..., 1, :], coef[..., 2, :]
    m1, m2, m11, m12, m22 = mom[..., 1, :], mom[..., 2, :], mom[..., 3, :], mom[..., 4, :], mom[..., 5, :]
    row_sum = c0 * m + np.einsum("...kj,...kj->...j", coef[..., 1:, :], mom[..., 1:3, :]) - pm[..., 0, :]
    core_u = np.stack([
        c0 * m1 + m11 * c1 + m12 * c2 - pm[..., 1, :],
        c0 * m2 + m12 * c1 + m22 * c2 - pm[..., 2, :],
    ], axis=-1)
    dg = row_sum / eps
    dx = (2.0 / eps) * core_u - eta * penalty_x
    return report, dx, dg


def soft_objective(
    params: DiagramParams, grid: GridMeasure, cfg: ObjectiveConfig,
    work: Workspace | None = None,
) -> ObjectiveReport:
    """Penalized soft objective F - eta*R with its per-cell decomposition.

    It makes value_and_grad's one evaluation, gradient included, and keeps
    the report; ``work`` is as in value_and_grad.
    """
    return _evaluate(chi_kernel(params, grid, cfg.entropic, work), params, cfg)[0]


def value_and_grad(
    params: DiagramParams | list, grid: GridMeasure, cfg: ObjectiveConfig | list,
    work: Workspace | None = None,
):
    """Objective report plus (dF/dX, dF/dg) in one pass.

    Shares the kernel between the value and the gradient; this is the
    workhorse the optimizer calls every iteration. ``work`` is an optional
    Workspace that keeps the kernel's arrays from call to call (see
    entropic.chi_kernel); the results do not depend on it, and a report
    holds none of its arrays.

    For a batch (a list of R diagrams with one n) it returns R reports and
    the stacked (R, n, 2) and (R, n) gradients; each restart's entries equal
    its own call bit for bit. ``cfg`` is then one config for all, or a list
    of one per diagram that share eta and epsilon and differ in the payoff
    (payoffs.stacked_value_and_grad).
    """
    if isinstance(params, DiagramParams):
        return _evaluate(chi_kernel(params, grid, cfg.entropic, work), params, cfg)
    cfgs = cfg if isinstance(cfg, list) else [cfg] * len(params)
    if len(cfgs) != len(params) or any(
        (c.eta, c.entropic) != (cfgs[0].eta, cfgs[0].entropic) for c in cfgs
    ):
        raise ValueError("a batch needs one config per diagram, with one eta and epsilon")
    if len(params) == 1:
        # the unbatched call makes the same operations: through the batched one a
        # single restart costs ~40 us more, +8 % at (M, n) = (128, 12) and +4 % at
        # (256, 12) (2-core VM, OPENBLAS_NUM_THREADS=1)
        report, dx, dg = value_and_grad(params[0], grid, cfgs[0], work)
        return [report], dx[None], dg[None]
    kernel = chi_kernel(params, grid, cfgs[0].entropic, work)
    if kernel is None:
        # a restart whose Z fell below the floor takes the dense path: each goes alone
        reports, dx, dg = zip(*(value_and_grad(p, grid, c, work) for p, c in zip(params, cfgs)))
        return list(reports), np.stack(dx), np.stack(dg)
    return _evaluate(kernel, params, cfgs)
