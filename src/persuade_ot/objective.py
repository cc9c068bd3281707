"""Persuasion objective, penalty, and its analytic gradient.

The soft objective is F = sum_i m_i Phi(b_i) over soft cells, minus
eta times the penalty R (site-to-cell second moment plus pairwise site
repulsion). The gradient is assembled in a factored adjoint form: for any
functional sum_{j,alpha} A_{j,alpha} chi_{j,alpha} the softmax derivative
identity collapses the chain rule to

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropic import DenseChi, EntropicConfig, SeparableChi, SoftCellStats, chi_kernel
from .errors import SingularPenaltyError
from .grid import GridMeasure
from .payoffs import PayoffModel, phi_eval, phi_value_and_grad
from .power_diagram import DiagramParams, hard_assign, hard_cell_stats


@dataclass(frozen=True)
class ObjectiveConfig:
    """Penalty weight eta, entropic config, and the payoff surface."""

    eta: float
    entropic: EntropicConfig
    payoff: PayoffModel

    def __post_init__(self):
        if not (self.eta >= 0.0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be a nonnegative real, got {self.eta!r}")


@dataclass(frozen=True)
class ObjectiveReport:
    """Value decomposition plus per-cell (mass, barycenter, payoff) triples."""

    value: float
    payoff_term: float
    penalty_term: float
    per_cell: list

    @staticmethod
    def build(eta: float, masses, barycenters, phis, penalty_term: float) -> "ObjectiveReport":
        payoff_term = float(masses @ phis)
        value = payoff_term - eta * penalty_term
        per_cell = [
            (float(m), (float(b[0]), float(b[1])), float(v))
            for m, b, v in zip(masses, barycenters, phis)
        ]
        return ObjectiveReport(
            value=value,
            payoff_term=payoff_term,
            penalty_term=float(penalty_term),
            per_cell=per_cell,
        )

    def cell_stats(self) -> SoftCellStats:
        """The per-cell masses and barycenters as arrays."""
        return SoftCellStats(
            masses=np.array([m for m, _, _ in self.per_cell]),
            barycenters=np.array([b for _, b, _ in self.per_cell]).reshape(-1, 2),
        )


def hard_objective(params: DiagramParams, grid: GridMeasure, payoff: PayoffModel) -> float:
    """sum over supported hard cells of m_i * Phi(b_i); empty cells contribute 0."""
    stats = hard_cell_stats(hard_assign(params, grid), grid)
    if not np.any(stats.support):
        return 0.0
    phis = phi_eval(payoff, stats.barycenters[stats.support])
    return float(stats.masses[stats.support] @ phis)


def _separation_sq(sites: np.ndarray) -> np.ndarray:
    diff = sites[:, None, :] - sites[None, :, :]
    sep2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(sep2, np.inf)
    return sep2


def _penalty(mom: np.ndarray, sites: np.ndarray) -> float:
    # quantization sum_i sum_a nu_a chi_ia |y_a - x_i|^2 plus repulsion
    quantization = float((mom[3] + mom[5]).sum())
    if sites.shape[0] == 1:
        return quantization
    m = mom[0]
    total = quantization + float((m[:, None] * m[None, :] / _separation_sq(sites)).sum())
    if not np.isfinite(total):
        raise SingularPenaltyError("sites too close: repulsion term is not finite")
    return total


def _evaluate(
    kernel: SeparableChi | DenseChi, sites: np.ndarray, cfg: ObjectiveConfig, grad: bool
) -> tuple[ObjectiveReport, np.ndarray | None, np.ndarray | None]:
    """Report, and with grad also (dF/dX, dF/dg), from one soft-membership kernel."""
    eps = cfg.entropic.epsilon
    eta = cfg.eta
    mom = kernel.moments()
    m = mom[0]
    u1 = mom[1:3].T  # sum_a nu_a chi_ja (y_a - x_j)
    # masses are strictly positive in exact arithmetic; guard float underflow
    safe = np.maximum(m, np.finfo(float).tiny)
    b = sites + u1 / safe[:, None]
    dead = m <= 0.0
    if np.any(dead):
        b = np.where(dead[:, None], sites, b)
    if grad:
        phis, gphis = phi_value_and_grad(cfg.payoff, b)
    else:
        phis = np.atleast_1d(phi_eval(cfg.payoff, b))
    # the report carries the penalty value even when eta = 0
    report = ObjectiveReport.build(eta, m, b, phis, _penalty(mom, sites))
    if not grad:
        return report, None, None

    # Payoff adjoint Psi_ja = c_j + G_j . y_a - eta (|y_a - x_j|^2 + r_j), with
    # G = grad Phi(b) and c = Phi(b) - G . b, reproduces d(m_j Phi(b_j))/dchi_ja
    # by the quotient rule. As c'_j + lin_j . y - eta |y|^2, the last term is
    # common to all cells and cancels in Psi - Psibar; so does the mass-weighted
    # mean cell's affine part, subtracted here so that the moment sums below do
    # not cancel in floating point (a single cell then gives exactly zero, as
    # the dense path does).
    n = sites.shape[0]
    r = np.zeros(n)
    if eta > 0.0 and n > 1:
        r = 2.0 * (m[None, :] / _separation_sq(sites)).sum(axis=1)
    c = phis - np.einsum("jk,jk->j", gphis, b) - eta * (r + (sites * sites).sum(axis=1))
    lin = gphis + 2.0 * eta * sites
    w = m / m.sum()
    c = c - w @ c
    lin = lin - w @ lin
    # rows: Psi_j about its site, c'_j + lin_j . x_j + lin_j . (y - x_j)
    coef = np.vstack([c + np.einsum("jk,jk->j", lin, sites), lin.T])
    # with D_ja = nu_a chi_ja (Psi_ja - Psibar_a): dF/dg_j = sum_a D_ja / eps and
    # dF/dx_j = (2/eps) sum_a D_ja (y_a - x_j), from the zeroth and first moments
    pm = kernel.moments(kernel.average(coef))
    row_sum = coef[0] * m + np.einsum("kj,kj->j", coef[1:], mom[1:3]) - pm[0]
    core_u = np.stack([
        coef[0] * mom[1] + mom[3] * coef[1] + mom[4] * coef[2] - pm[1],
        coef[0] * mom[2] + mom[4] * coef[1] + mom[5] * coef[2] - pm[2],
    ], axis=1)
    dg = row_sum / eps
    dx = (2.0 / eps) * core_u

    if eta > 0.0:
        # explicit x-dependence of the penalty (chi held fixed)
        quant_x = -2.0 * u1
        if n > 1:
            diff = sites[:, None, :] - sites[None, :, :]
            coef_rep = m[:, None] * m[None, :] / _separation_sq(sites) ** 2
            rep_x = -4.0 * (coef_rep[:, :, None] * diff).sum(axis=1)
        else:
            rep_x = np.zeros_like(sites)
        dx = dx - eta * (quant_x + rep_x)
    return report, dx, dg


def soft_objective(
    params: DiagramParams, grid: GridMeasure, cfg: ObjectiveConfig
) -> ObjectiveReport:
    """Penalized soft objective F - eta*R with its per-cell decomposition."""
    kernel = chi_kernel(params, grid, cfg.entropic)
    return _evaluate(kernel, params.sites, cfg, grad=False)[0]


def value_and_grad(
    params: DiagramParams, grid: GridMeasure, cfg: ObjectiveConfig,
    work: np.ndarray | None = None,
) -> tuple[ObjectiveReport, np.ndarray, np.ndarray]:
    """Objective report plus (dF/dX, dF/dg) in one pass.

    Shares the kernel between the value and the gradient; this is the
    workhorse the optimizer calls every iteration. ``work`` is an optional
    (3, M, M) float array the kernel reuses for its grid-sized arrays (see
    entropic.chi_kernel); the results do not depend on it.
    """
    kernel = chi_kernel(params, grid, cfg.entropic, work)
    return _evaluate(kernel, params.sites, cfg, grad=True)
