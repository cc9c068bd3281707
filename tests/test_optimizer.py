from dataclasses import replace

import numpy as np
import pytest

import persuade_ot.optimizer as optimizer_mod
from persuade_ot import (
    DensitySpec,
    DiagramParams,
    EntropicConfig,
    MarketConfig,
    NumericFailure,
    ObjectiveConfig,
    OptimizerConfig,
    build_grid,
    concave_bowl,
    discretize_density,
    init_sites,
    monopolist_payoff,
    optimize,
    prune_cells,
    soft_objective,
    soft_partition,
    tri_modal,
    value_and_grad,
)
from persuade_ot.power_diagram import min_separation
from reference import assert_reports_equal


def unit_grid(res):
    return discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))


def bowl_cfg(eps=0.1, eta=0.0):
    return ObjectiveConfig(eta=eta, entropic=EntropicConfig(eps), payoff=concave_bowl())


def test_init_sites_deterministic():
    grid = unit_grid(16)
    for strategy in ("uniform-random", "jittered-grid"):
        a = init_sites(9, grid, seed=5, strategy=strategy)
        b = init_sites(9, grid, seed=5, strategy=strategy)
        c = init_sites(9, grid, seed=6, strategy=strategy)
        assert np.array_equal(a.sites, b.sites)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.sites, c.sites)


def test_init_sites_in_bounds_distinct_zero_weights():
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 2.0), (-1.0, 1.0)), 16))
    for strategy in ("uniform-random", "jittered-grid"):
        params = init_sites(40, grid, seed=11, strategy=strategy)
        assert params.n == 40
        assert np.all(params.sites[:, 0] >= 0.0) and np.all(params.sites[:, 0] <= 2.0)
        assert np.all(params.sites[:, 1] >= -1.0) and np.all(params.sites[:, 1] <= 1.0)
        assert min_separation(params.sites) > 0.0
        assert np.all(params.weights == 0.0)


def test_init_jittered_grid_separation():
    grid = unit_grid(16)
    # 12 sites on a 4x3 lattice; quarter-cell jitter keeps half a cell apart
    params = init_sites(12, grid, seed=0, strategy="jittered-grid")
    assert min_separation(params.sites) >= 0.5 * 0.25 - 1e-12


def test_init_rejects_bad_input():
    grid = unit_grid(8)
    with pytest.raises(ValueError):
        init_sites(0, grid, seed=0)
    with pytest.raises(ValueError):
        init_sites(4, grid, seed=0, strategy="banana")


def test_prune_identity_when_all_alive():
    grid = unit_grid(32)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.0, 0.0])
    _, stats = soft_partition(params, grid, EntropicConfig(0.05))
    pruned = prune_cells(params, stats, 1e-4, grid)
    assert pruned is params


def test_prune_drops_dominated_cell():
    grid = unit_grid(32)
    params = DiagramParams(
        sites=[(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)], weights=[0.0, -50.0, 0.0]
    )
    _, stats = soft_partition(params, grid, EntropicConfig(0.05))
    pruned = prune_cells(params, stats, 1e-4, grid)
    assert pruned.n == 2
    assert np.array_equal(pruned.sites, params.sites[[0, 2]])


def test_prune_keeps_hard_supported_or_soft_cells():
    # cell 2 owns no grid point hardly, but its soft mass is large: kept
    grid = unit_grid(8)
    params = DiagramParams(sites=[(0.3, 0.5), (0.7, 0.5)], weights=[0.0, -0.5])
    _, stats = soft_partition(params, grid, EntropicConfig(10.0))
    assert stats.masses[1] > 0.1
    pruned = prune_cells(params, stats, 1e-4, grid)
    assert pruned.n == 2


def test_flat_payoff_keeps_sites_still():
    # nobody ever buys on [0, 0.9]^2 at unit prices: gradient is exactly zero
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 0.9), (0.0, 0.9)), 32))
    payoff = monopolist_payoff(MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=0.9))
    cfg = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(0.05), payoff=payoff)
    init = init_sites(4, grid, seed=2)
    dx, dg = value_and_grad(init, grid, cfg)[1:]
    assert np.all(dx == 0.0) and np.all(dg == 0.0)
    result = optimize(init, grid, cfg, OptimizerConfig(n_init=4, max_iters=10, seed=2))
    assert np.array_equal(result.params.sites, init.sites)
    assert result.report.value == 0.0


def test_optimize_reproducible():
    grid = unit_grid(32)
    cfg = ObjectiveConfig(eta=1e-4, entropic=EntropicConfig(0.1), payoff=tri_modal())
    opt = OptimizerConfig(n_init=3, max_iters=60, seed=4)
    a = optimize(init_sites(3, grid, seed=4), grid, cfg, opt)
    b = optimize(init_sites(3, grid, seed=4), grid, cfg, opt)
    assert a.report.value == b.report.value
    assert np.array_equal(a.params.sites, b.params.sites)
    assert np.array_equal(a.params.weights, b.params.weights)
    assert a.trajectory == b.trajectory


def test_optimize_returns_best_iterate():
    grid = unit_grid(32)
    cfg = bowl_cfg(eps=0.05)
    opt = OptimizerConfig(n_init=3, max_iters=120, learning_rate=0.05, seed=1)
    result = optimize(init_sites(3, grid, seed=1), grid, cfg, opt)
    values = [v for v, _ in result.trajectory]
    assert values[result.best_iteration] == max(values)
    assert result.report.value >= values[0]
    assert result.effective_n == result.params.n <= 3


def test_optimize_improves_on_init():
    grid = unit_grid(32)
    cfg = bowl_cfg(eps=0.05)
    init = init_sites(3, grid, seed=8)
    start = soft_objective(init, grid, cfg).value
    result = optimize(init, grid, cfg, OptimizerConfig(n_init=3, max_iters=200, seed=8))
    assert result.report.value > start


def test_optimize_epsilon_anneal_final_report():
    grid = unit_grid(32)
    cfg = bowl_cfg(eps=0.2)
    opt = OptimizerConfig(n_init=3, max_iters=80, seed=3, epsilon_final=0.02)
    result = optimize(init_sites(3, grid, seed=3), grid, cfg, opt)
    recomputed = soft_objective(result.params, grid, bowl_cfg(eps=0.02)).value
    assert result.report.value == recomputed


def test_optimize_flags_nonfinite_objective(monkeypatch):
    grid = unit_grid(16)
    cfg = bowl_cfg()
    real = optimizer_mod.value_and_grad
    calls = {"k": 0}

    def poisoned(params, g, c, work=None):
        calls["k"] += 1
        if calls["k"] > 3:
            report = replace(
                real(params, g, c, work)[0],
                value=float("nan"), payoff_term=float("nan"), penalty_term=0.0,
            )
            n = params.n
            return report, np.zeros((n, 2)), np.zeros(n)
        return real(params, g, c, work)

    monkeypatch.setattr(optimizer_mod, "value_and_grad", poisoned)
    with pytest.raises(NumericFailure) as exc:
        optimize(init_sites(2, grid, seed=0), grid, cfg, OptimizerConfig(n_init=2, max_iters=50))
    assert exc.value.iteration == 3
    assert exc.value.last_params.n == 2
    assert np.all(np.isfinite(exc.value.last_params.sites))


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(n_init=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(TypeError):
        OptimizerConfig(grad_mode="exact")
    with pytest.raises(TypeError):
        OptimizerConfig(init_strategy="spiral")
    with pytest.raises(ValueError):
        OptimizerConfig(epsilon_final=-1.0)
    # non-finite values fail here, not later as a misreported stopped_early
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=bad)
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon_final=bad)
    with pytest.raises(TypeError):
        OptimizerConfig(grad_mode="monte-carlo", batch_size=0)


def test_pruning_check_raises_numeric_failure(monkeypatch):
    # cell 1 is dead softly and hardly, so finalisation prunes it; a report
    # for the pruned diagram that moves the value past the bound must raise
    # (an explicit check, kept under python -O)
    grid = unit_grid(32)
    init = DiagramParams(sites=[(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)], weights=[0.0, -50.0, 0.0])
    real = optimizer_mod.soft_objective

    def shifted(params, g, c):
        report = real(params, g, c)
        if params.n < init.n:
            report = replace(report, value=report.value + 1.0)
        return report

    opt = OptimizerConfig(n_init=3, max_iters=1, learning_rate=1e-3, seed=0)
    assert optimize(init, grid, bowl_cfg(eps=0.05), opt).effective_n == 2
    monkeypatch.setattr(optimizer_mod, "soft_objective", shifted)
    with pytest.raises(NumericFailure, match=r"pruning moved the objective by 1\.000e\+00 > bound"):
        optimize(init, grid, bowl_cfg(eps=0.05), opt)


@pytest.mark.parametrize("prunes", [False, True])
def test_final_report_is_soft_objective_of_result(monkeypatch, prunes):
    # the returned report is the annealed final objective of the returned
    # diagram; a second evaluation happens only when a cell was pruned
    grid = unit_grid(32)
    if prunes:
        init = DiagramParams(
            sites=[(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)], weights=[0.0, -50.0, 0.0]
        )
    else:
        init = init_sites(3, grid, seed=3)
    real = optimizer_mod.soft_objective
    calls = []

    def counted(params, g, c):
        calls.append(params.n)
        return real(params, g, c)

    monkeypatch.setattr(optimizer_mod, "soft_objective", counted)
    opt = OptimizerConfig(n_init=3, max_iters=20, learning_rate=1e-3, seed=0, epsilon_final=0.02)
    result = optimize(init, grid, bowl_cfg(eps=0.05), opt)
    assert result.effective_n == (2 if prunes else 3)
    assert calls == ([3, 2] if prunes else [3])
    assert_reports_equal(result.report, real(result.params, grid, bowl_cfg(eps=0.02)))
