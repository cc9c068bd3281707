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
    CellStats,
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
    soft_partition,
    tri_modal,
    value_and_grad,
)
from persuade_ot.entropic import (
    DenseChi,
    SeparableChi,
    Workspace,
    _softmax_cols,
    chi_kernel,
    dense_chi,
)
from persuade_ot.objective import ObjectiveReport, _evaluate
from persuade_ot.power_diagram import _separation_sq
from reference import assert_reports_equal, sq_dists

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
    # relative tolerance; this market's revenue rises from zero at the
    # one-cell barycenter (1, 1), where barycenter rounding moves it by ~1e-15
    "tri-modal": (tri_modal(), 1e-12),
    "monopolist": (monopolist_payoff(MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0)), 1e-10),
}


def grid_with(prior):
    return discretize_density(PRIORS[prior], build_grid(BOUNDS, RES))


def with_report(evaluation):
    """_evaluate's (Reports, dX, dg) with the report as an ObjectiveReport."""
    reports, dx, dg = evaluation
    return reports.report(), dx, dg


def both_paths(params, grid, cfg):
    sep = chi_kernel(params, grid, cfg.entropic)
    assert isinstance(sep, SeparableChi)
    dense = dense_chi(params, grid, cfg.entropic)
    return (
        with_report(_evaluate(sep, params, cfg)),
        with_report(_evaluate(dense, params, cfg)),
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
        ref, rdx, rdg = with_report(_evaluate(dense, params, cfg))
        assert_reports_equal(report, ref)
        assert np.array_equal(dx, rdx) and np.array_equal(dg, rdg)
        assert np.isfinite(report.value) and np.all(np.isfinite(dx)) and np.all(np.isfinite(dg))


def poison(work):
    """Fill every array of a workspace with NaN, so that a result read from a
    stale entry shows."""
    for buf in work.buffers.values():
        buf.fill(np.nan)


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
    work = Workspace()
    for params, eps_cells, eta in steps:
        cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(eps_cells * h), payoff=tri_modal())
        dense = isinstance(chi_kernel(params, grid, cfg.entropic, work), DenseChi)
        assert dense == (params is corner)
        poison(work)
        report, dx, dg = value_and_grad(params, grid, cfg, work)
        ref, rdx, rdg = value_and_grad(params, grid, cfg)
        assert_reports_equal(report, ref)
        assert np.array_equal(dx, rdx) and np.array_equal(dg, rdg)


def test_no_fallback_for_spread_sites_below_one_cell():
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), 256))
    for seed in range(3):
        params = init_sites(12, grid, seed)
        cfg = EntropicConfig(0.5 * grid.spacing[0])
        assert isinstance(chi_kernel(params, grid, cfg), SeparableChi)


def test_dense_chi_equals_distance_matrix_softmax():
    # dense_chi takes its logits from the per-axis offsets it keeps for the
    # moments; they must give the distance-matrix softmax bit for bit
    grid = grid_with("tilted")
    h = grid.spacing[0]
    rng = np.random.default_rng(41)
    outside = DiagramParams(
        sites=[(-0.5, 1.0), (2.7, -0.3), (1.0, 1.0), (0.2, 2.4)], weights=rng.normal(size=4)
    )
    far = DiagramParams(sites=[(0.1, 0.1), (30.0, -4.0)], weights=[0.0, 0.1])
    cases = [
        (init_sites(n, grid, int(rng.integers(2**31))), eps_cells)
        for n, eps_cells in itertools.product((1, 2, 12), (5.0, 0.25))
    ]
    cases += [(outside, 1.0), (DiagramParams(sites=[(3.0, -1.0)], weights=[0.5]), 1.0), (far, 0.25)]
    for params, eps_cells in cases:
        cfg = EntropicConfig(eps_cells * h)
        d2 = sq_dists(params.sites, grid.centers)
        ref = _softmax_cols((params.weights[:, None] - d2) / cfg.epsilon)
        assert np.array_equal(dense_chi(params, grid, cfg).chi, ref)
    # the last case is one where chi_kernel itself falls back to the dense kernel
    fallback = chi_kernel(far, grid, cfg)
    assert isinstance(fallback, DenseChi) and np.array_equal(fallback.chi, ref)


@pytest.mark.parametrize("payoff", sorted(PAYOFFS))
def test_report_does_not_alias_reused_workspace(payoff):
    # a report holds the evaluation's arrays, not copies: later calls on the
    # same workspace (other diagrams, other n, the dense fallback) must leave
    # an earlier report as it was
    grid = grid_with("holed")
    h = grid.spacing[0]
    model = PAYOFFS[payoff][0]
    work = Workspace()
    cfg = ObjectiveConfig(eta=1e-3, entropic=EntropicConfig(2.0 * h), payoff=model)
    start = init_sites(12, grid, 1)
    first = value_and_grad(start, grid, cfg, work)[0]
    corner = DiagramParams(sites=[(0.05, 0.05)], weights=[0.0])
    for params, eps_cells in ((init_sites(12, grid, 2), 2.0), (init_sites(5, grid, 3), 1.0),
                              (corner, 0.25), (init_sites(12, grid, 4), 5.0)):
        later = ObjectiveConfig(eta=1e-3, entropic=EntropicConfig(eps_cells * h), payoff=model)
        value_and_grad(params, grid, later, work)
    for array in (first.cells.masses, first.cells.barycenters, first.payoffs):
        assert not any(np.shares_memory(array, buf) for buf in work.buffers.values())
    assert_reports_equal(first, value_and_grad(start, grid, cfg)[0])


def _stats_from_chi(chi, grid, sites):
    """Reference: masses chi @ nu and barycenters from the explicit first moments."""
    nu = grid.masses
    masses = chi @ nu
    first_moments = chi @ (nu[:, None] * grid.centers)
    # masses are strictly positive in exact arithmetic; guard float underflow
    safe = np.maximum(masses, np.finfo(float).tiny)
    barycenters = first_moments / safe[:, None]
    dead = masses <= 0.0
    if np.any(dead):
        barycenters = np.where(dead[:, None], sites, barycenters)
    return CellStats(masses=masses, barycenters=barycenters)


@pytest.mark.parametrize("prior", ["uniform", "holed"])
def test_soft_partition_stats_match_explicit_chi_reference(prior):
    grid = grid_with(prior)
    h = grid.spacing[0]
    rng = np.random.default_rng(29)
    cases = [
        (init_sites(n, grid, int(rng.integers(2**31))), eps_cells)
        for n, eps_cells in itertools.product((1, 3, 12), (5.0, 1.0, 0.25))
    ]
    # the middle cell's weight leaves it no mass at all
    dead = DiagramParams(sites=[(0.5, 1.0), (1.0, 1.0), (1.5, 1.0)], weights=[0.0, -60.0, 0.0])
    cases.append((dead, 1.0))
    for params, eps_cells in cases:
        part, stats = soft_partition(params, grid, EntropicConfig(eps_cells * h))
        ref = _stats_from_chi(part.chi, grid, params.sites)
        assert np.allclose(stats.masses, ref.masses, rtol=1e-12, atol=0.0)
        assert np.allclose(stats.barycenters, ref.barycenters, rtol=1e-12, atol=0.0)
    assert stats.masses[1] == 0.0 and np.array_equal(stats.barycenters[1], (1.0, 1.0))


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
    payoff_term = float(m @ phis)
    report = ObjectiveReport(payoff_term - eta * penalty, payoff_term, penalty, stats, phis)
    return report, dx, dg


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
        soft = soft_objective(params, grid, cfg)
        assert_reports_equal(soft, value_and_grad(params, grid, cfg)[0])


def test_warm_batched_step_allocates_no_grid_arrays():
    # table1's batch shape: 25 restarts of 12 sites at 128^2. On a warm
    # workspace a step keeps its factors, moment columns and products there,
    # so what it allocates is small next to one (R, M, 3n) array (0.9 MiB);
    # with fresh arrays every step it peaked at 4.4 MiB
    import tracemalloc

    grid = build_grid(((0.0, 2.0), (0.0, 2.0)), 128)
    payoff = monopolist_payoff(MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0))
    cfg = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(5.0 * grid.spacing[0]), payoff=payoff)
    batch = [init_sites(12, grid, seed) for seed in range(25)]
    work = Workspace()
    first = value_and_grad(batch, grid, cfg, work)
    tracemalloc.start()
    try:
        again = value_and_grad(batch, grid, cfg, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 19
    for report, ref in zip(again[0], first[0]):
        assert_reports_equal(report, ref)
    assert np.array_equal(again[1], first[1]) and np.array_equal(again[2], first[2])
