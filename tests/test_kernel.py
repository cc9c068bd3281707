"""Separable tensor-grid kernel against the dense log-domain kernel.

Both kernels feed the same adjoint (objective._evaluate); these tests check
that the separable factors reproduce the dense softmax sums on the report
and the gradient, that the dense fallback is taken exactly where the factors
underflow, and that the shared adjoint matches a reference that forms
chi, Psi and Psibar explicitly.
"""

import itertools

import numpy as np
import pytest

from persuade_ot import (
    DensitySpec,
    DiagramParams,
    EntropicConfig,
    MarketConfig,
    ObjectiveConfig,
    build_grid,
    discretize_density,
    init_sites,
    monopolist_payoff,
    phi_eval,
    phi_grad,
    soft_objective,
    tri_modal,
    value_and_grad,
)
from persuade_ot.entropic import (
    DenseChi,
    SeparableChi,
    _softmax_cols,
    _stats_from_chi,
    chi_kernel,
    dense_chi,
)
from persuade_ot.objective import ObjectiveReport, _evaluate, _separation_sq
from persuade_ot.power_diagram import sq_dists

BOUNDS = ((0.0, 2.0), (0.0, 2.0))
RES = 48


def _tilted(pts):
    return 1.0 + pts[:, 0] + 2.0 * pts[:, 1] ** 2


def _holed(pts):
    # zero prior mass on a vertical strip: grid points with nu = 0
    return np.where(np.abs(pts[:, 0] - 0.7) < 0.2, 0.0, 1.0 + pts[:, 1])


PRIORS = {
    "uniform": DensitySpec("uniform"),
    "tilted": DensitySpec("callable", _tilted),
    "holed": DensitySpec("callable", _holed),
}
PAYOFFS = {
    # relative tolerance; the monopolist gradient is a central difference
    # with step 2e-4, which amplifies barycenter rounding
    "tri-modal": (tri_modal(), 1e-12),
    "monopolist": (monopolist_payoff(MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0)), 1e-10),
}


def grid_with(prior):
    return discretize_density(PRIORS[prior], build_grid(BOUNDS, RES))


def both_paths(params, grid, cfg):
    sep = chi_kernel(params, grid, cfg.entropic)
    assert isinstance(sep, SeparableChi)
    dense = dense_chi(params, grid, cfg.entropic)
    return (
        _evaluate(sep, params.sites, cfg, grad=True),
        _evaluate(dense, params.sites, cfg, grad=True),
    )


def assert_close(new, ref, tol):
    (r1, dx1, dg1), (r0, dx0, dg0) = new, ref
    for a, b in ((r1.value, r0.value), (r1.payoff_term, r0.payoff_term),
                 (r1.penalty_term, r0.penalty_term)):
        assert abs(a - b) <= tol * max(abs(b), 1e-3), (a, b)
    scale = max(np.abs(dx0).max(), np.abs(dg0).max())
    assert np.abs(dx1 - dx0).max() <= tol * scale
    assert np.abs(dg1 - dg0).max() <= tol * scale


@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
@pytest.mark.parametrize("prior", sorted(PRIORS))
def test_separable_matches_dense(payoff, prior):
    grid = grid_with(prior)
    model, tol = PAYOFFS[payoff]
    rng = np.random.default_rng(17)
    h = grid.spacing[0]
    for eps_cells, eta, n in itertools.product((5.0, 2.0, 1.0, 0.5, 0.25), (0.0, 1e-3), (1, 2, 12)):
        base = init_sites(n, grid, int(rng.integers(2**31)), strategy="jittered-grid")
        params = DiagramParams(base.sites, 0.01 * rng.normal(size=n))
        cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(eps_cells * h), payoff=model)
        assert_close(*both_paths(params, grid, cfg), tol)


def test_dead_cell_matches_dense():
    grid = grid_with("tilted")
    params = DiagramParams(
        sites=[(0.5, 1.0), (1.0, 1.0), (1.5, 1.0)], weights=[0.0, -60.0, 0.0]
    )
    for eta in (0.0, 1e-3):
        cfg = ObjectiveConfig(
            eta=eta, entropic=EntropicConfig(grid.spacing[0]), payoff=tri_modal()
        )
        new, ref = both_paths(params, grid, cfg)
        assert new[0].per_cell[1][0] == 0.0 and ref[0].per_cell[1][0] == 0.0
        assert new[0].per_cell[1][1] == (1.0, 1.0)
        assert_close(new, ref, 1e-12)


def test_fallback_where_factors_underflow():
    # one site in a corner at a quarter cell: Z underflows far from it
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), 128))
    params = DiagramParams(sites=[(0.05, 0.05)], weights=[0.0])
    for eta in (0.0, 1e-3):
        cfg = ObjectiveConfig(
            eta=eta, entropic=EntropicConfig(0.25 * grid.spacing[0]), payoff=tri_modal()
        )
        assert isinstance(chi_kernel(params, grid, cfg.entropic), DenseChi)
        report, dx, dg = value_and_grad(params, grid, cfg)
        dense = dense_chi(params, grid, cfg.entropic)
        ref, rdx, rdg = _evaluate(dense, params.sites, cfg, grad=True)
        assert report == ref
        assert np.array_equal(dx, rdx) and np.array_equal(dg, rdg)
        assert np.isfinite(report.value) and np.all(np.isfinite(dx)) and np.all(np.isfinite(dg))


def test_reused_workspace_matches_fresh_kernel():
    # one workspace over consecutive, different iterates, with the forced
    # dense fallback (one site at (0.05, 0.05), a quarter cell) in between
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), 128))
    h = grid.spacing[0]
    corner = DiagramParams(sites=[(0.05, 0.05)], weights=[0.0])
    steps = [
        (init_sites(12, grid, 1), 5.0, 0.0),
        (init_sites(5, grid, 2), 2.0, 1e-3),
        (corner, 0.25, 0.0),
        (init_sites(12, grid, 3), 1.0, 1e-3),
        (corner, 0.25, 1e-3),
        (init_sites(12, grid, 1), 5.0, 0.0),
    ]
    work = np.full((3, 128, 128), np.nan)
    for params, eps_cells, eta in steps:
        cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(eps_cells * h), payoff=tri_modal())
        dense = isinstance(chi_kernel(params, grid, cfg.entropic, work), DenseChi)
        assert dense == (params is corner)
        report, dx, dg = value_and_grad(params, grid, cfg, work)
        ref, rdx, rdg = value_and_grad(params, grid, cfg)
        assert report == ref
        assert np.array_equal(dx, rdx) and np.array_equal(dg, rdg)


def test_no_fallback_for_spread_sites_below_one_cell():
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), 256))
    for seed in range(3):
        params = init_sites(12, grid, seed)
        cfg = EntropicConfig(0.5 * grid.spacing[0])
        assert isinstance(chi_kernel(params, grid, cfg), SeparableChi)


def reference_value_and_grad(params, grid, cfg):
    """Reference: explicit chi, Psi and Psibar at every grid point."""
    sites, eps, eta = params.sites, cfg.entropic.epsilon, cfg.eta
    nu, y = grid.masses, grid.centers
    d2 = sq_dists(sites, y)
    chi = _softmax_cols((params.weights[:, None] - d2) / eps)
    stats = _stats_from_chi(chi, grid, sites)
    m, b = stats.masses, stats.barycenters
    phis = np.atleast_1d(phi_eval(cfg.payoff, b))
    gphis = np.atleast_2d(phi_grad(cfg.payoff, b))
    psi = (phis - np.einsum("jk,jk->j", gphis, b))[:, None] + gphis @ y.T
    penalty = float(np.einsum("ip,ip,p->", d2, chi, nu))
    n = sites.shape[0]
    sep2 = _separation_sq(sites) if n > 1 else None
    if n > 1:
        penalty += float((m[:, None] * m[None, :] / sep2).sum())
    if eta > 0.0:
        r = 2.0 * (m[None, :] / sep2).sum(axis=1) if n > 1 else np.zeros(1)
        psi = psi - eta * (d2 + r[:, None])
    core = chi * (psi - np.einsum("jp,jp->p", chi, psi)[None, :]) * nu[None, :]
    row_sum = core.sum(axis=1)
    dg = row_sum / eps
    dx = (2.0 / eps) * (core @ y - row_sum[:, None] * sites)
    if eta > 0.0:
        quant_x = 2.0 * (m[:, None] * sites - chi @ (nu[:, None] * y))
        rep_x = np.zeros_like(sites)
        if n > 1:
            diff = sites[:, None, :] - sites[None, :, :]
            rep_x = -4.0 * ((m[:, None] * m[None, :] / sep2**2)[:, :, None] * diff).sum(axis=1)
        dx = dx - eta * (quant_x + rep_x)
    return ObjectiveReport.build(eta, m, b, phis, penalty), dx, dg


@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
def test_adjoint_matches_dense_reference(payoff):
    model, tol = PAYOFFS[payoff]
    rng = np.random.default_rng(5)
    for prior, eta, n in itertools.product(("uniform", "holed"), (0.0, 1e-3), (1, 3, 12)):
        grid = grid_with(prior)
        params = init_sites(n, grid, int(rng.integers(2**31)))
        cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(2.0 * grid.spacing[0]), payoff=model)
        reference = reference_value_and_grad(params, grid, cfg)
        assert_close(value_and_grad(params, grid, cfg), reference, tol)
        assert soft_objective(params, grid, cfg) == value_and_grad(params, grid, cfg)[0]
