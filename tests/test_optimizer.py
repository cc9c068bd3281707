from dataclasses import dataclass, replace

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
    PayoffModel,
    SingularPenaltyError,
    build_grid,
    concave_bowl,
    discretize_density,
    hard_assign,
    hard_cell_stats,
    hard_objective,
    init_sites,
    monopolist_payoff,
    optimize,
    optimize_batch,
    prune_cells,
    soft_objective,
    soft_partition,
    tri_modal,
    value_and_grad,
)
from persuade_ot.entropic import DenseChi, RowKernels, chi_kernel
from persuade_ot.power_diagram import min_separation
from reference import assert_reports_equal, sequential_optimize, stack


def unit_grid(res):
    return discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))


def bowl_cfg(eps=0.1, eta=0.0):
    return ObjectiveConfig(eta=eta, entropic=EntropicConfig(eps), payoff=concave_bowl())


def hard_cells(params, grid):
    return hard_cell_stats(hard_assign(params, grid), grid)


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
    pruned = prune_cells(params, stats, hard_cells(params, grid), 1e-4)
    assert pruned is params


def test_prune_drops_dominated_cell():
    grid = unit_grid(32)
    params = DiagramParams(
        sites=[(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)], weights=[0.0, -50.0, 0.0]
    )
    _, stats = soft_partition(params, grid, EntropicConfig(0.05))
    pruned = prune_cells(params, stats, hard_cells(params, grid), 1e-4)
    assert pruned.n == 2
    assert np.array_equal(pruned.sites, params.sites[[0, 2]])


def test_prune_keeps_hard_supported_or_soft_cells():
    # cell 2 owns no grid point hardly, but its soft mass is large: kept
    grid = unit_grid(8)
    params = DiagramParams(sites=[(0.3, 0.5), (0.7, 0.5)], weights=[0.0, -0.5])
    _, stats = soft_partition(params, grid, EntropicConfig(10.0))
    assert stats.masses[1] > 0.1
    pruned = prune_cells(params, stats, hard_cells(params, grid), 1e-4)
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

    def poisoned(batch, g, c, work=None):
        # the optimizer evaluates its restarts as one stack of diagrams
        calls["k"] += 1
        if calls["k"] > 3:
            reports, dx, dg = real(batch, g, c, work)
            nan = np.full(len(batch), np.nan)
            reports = reports._replace(value=nan, payoff_term=nan, penalty_term=np.zeros(len(batch)))
            return reports, np.zeros_like(dx), np.zeros_like(dg)
        return real(batch, g, c, work)

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

    def shifted(params, g, c, work=None):
        report = real(params, g, c, work)
        if params.n < init.n:
            report = report._replace(value=report.value + 1.0)
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

    def counted(params, g, c, work=None):
        calls.append(params.n)
        return real(params, g, c, work)

    monkeypatch.setattr(optimizer_mod, "soft_objective", counted)
    opt = OptimizerConfig(n_init=3, max_iters=20, learning_rate=1e-3, seed=0, epsilon_final=0.02)
    result = optimize(init, grid, bowl_cfg(eps=0.05), opt)
    assert result.effective_n == (2 if prunes else 3)
    assert calls == ([3, 2] if prunes else [3])
    assert_reports_equal(result.report, real(result.params, grid, bowl_cfg(eps=0.02)))


@pytest.mark.parametrize("prunes", [False, True])
def test_fixed_epsilon_final_report_is_the_loops(monkeypatch, prunes):
    # at a fixed epsilon the loop's report of the best iterate is its final
    # report: only a pruned diagram is evaluated again
    grid = unit_grid(32)
    if prunes:
        init = DiagramParams(
            sites=[(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)], weights=[0.0, -50.0, 0.0]
        )
    else:
        init = init_sites(3, grid, seed=3)
    real = optimizer_mod.soft_objective
    calls = []
    monkeypatch.setattr(optimizer_mod, "soft_objective",
                        lambda params, g, c, work=None: calls.append(params.n) or real(params, g, c, work))
    opt = OptimizerConfig(n_init=3, max_iters=20, learning_rate=1e-3, seed=0)
    result = optimize(init, grid, bowl_cfg(eps=0.05), opt)
    assert result.effective_n == (2 if prunes else 3)
    assert calls == ([2] if prunes else [])
    assert_reports_equal(result.report, real(result.params, grid, bowl_cfg(eps=0.05)))


@pytest.mark.parametrize("case", ["unpruned", "owns-nothing", "owns-massless-points"])
def test_pruned_labels_equal_fresh_hard_assignment(monkeypatch, case):
    # the prior has no mass right of x = 0.75. Finalisation labels the best
    # iterate and takes its hard cells once. A pruned cell that owns no grid
    # point leaves the other labels as they were, renumbered past it, and the
    # hard cells as their kept rows; one that owns points of zero mass (cell
    # 2, right of x = 0.735) has the pruned diagram labelled afresh. Each
    # gives hard_assign's labels and hard_objective's value, bit for bit.
    import persuade_ot.objective as objective_mod

    grid = discretize_density(
        DensitySpec("callable", lambda p: (p[:, 0] < 0.75).astype(float)),
        build_grid(((0.0, 1.0), (0.0, 1.0)), 16),
    )
    if case == "unpruned":
        init = DiagramParams(sites=[(0.25, 0.5), (0.5, 0.5), (0.5, 0.2)], weights=[0.0, 0.0, 0.0])
    elif case == "owns-nothing":
        init = DiagramParams(sites=[(0.25, 0.5), (0.5, 0.5), (0.6, 0.3)], weights=[0.0, -50.0, 0.0])
    else:
        init = DiagramParams(sites=[(0.25, 0.5), (0.5, 0.5), (0.97, 0.5)], weights=[0.0, 0.0, 0.0])
    calls, stats_calls = [], []
    real, real_stats = optimizer_mod.hard_assign, optimizer_mod.hard_cell_stats
    monkeypatch.setattr(optimizer_mod, "hard_assign", lambda p, g: calls.append(p.n) or real(p, g))
    for mod in (optimizer_mod, objective_mod):
        monkeypatch.setattr(mod, "hard_cell_stats",
                            lambda a, g: stats_calls.append(a.n_cells) or real_stats(a, g))
    opt = OptimizerConfig(n_init=3, max_iters=1, learning_rate=1e-3, seed=0)
    result = optimize(init, grid, bowl_cfg(eps=1e-3), opt)
    monkeypatch.undo()
    assert result.effective_n == (3 if case == "unpruned" else 2)
    assert calls == stats_calls == ([3, 2] if case == "owns-massless-points" else [3])
    assert result.hard_value == hard_objective(result.params, grid, concave_bowl())
    assert_results_equal(result, sequential_optimize(init, grid, bowl_cfg(eps=1e-3), opt))


BATCH_PAYOFFS = {
    "unit": (
        monopolist_payoff(MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0)),
        ((0.0, 2.0), (0.0, 2.0)),
    ),
    "additive": (
        monopolist_payoff(
            MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-0.5, demand="additive")
        ),
        ((0.0, 2.0), (0.0, 2.0)),
    ),
    "tri-modal": (tri_modal(), ((0.0, 1.0), (0.0, 1.0))),
}


def assert_results_equal(result, ref):
    assert result.trajectory == ref.trajectory
    assert (result.best_iteration, result.stopped_early, result.seed_used) == (
        ref.best_iteration, ref.stopped_early, ref.seed_used
    )
    assert np.array_equal(result.params.sites, ref.params.sites)
    assert np.array_equal(result.params.weights, ref.params.weights)
    assert_reports_equal(result.report, ref.report)
    assert result.hard_value == ref.hard_value
    assert np.array_equal(result.assignment.labels, ref.assignment.labels)
    assert result.assignment.n_cells == ref.assignment.n_cells


def run_batch(inits, grid, obj, opts):
    """optimize_batch, checked restart by restart against the one-restart loop;
    ``obj`` is one objective or a list of one per restart."""
    results = optimize_batch(inits, grid, obj, opts)
    objs = obj if isinstance(obj, list) else [obj] * len(inits)
    assert len(results) == len(inits)
    for init, o, opt, result in zip(inits, objs, opts, results):
        assert_results_equal(result, sequential_optimize(init, grid, o, opt))
    return results


@pytest.mark.parametrize("anneal", [False, True], ids=["fixed", "annealed"])
@pytest.mark.parametrize("eta", [0.0, 1e-3])
@pytest.mark.parametrize("payoff", sorted(BATCH_PAYOFFS))
@pytest.mark.parametrize("restarts", [1, 2, 3, 5])
def test_batch_restarts_equal_sequential_runs(monkeypatch, restarts, payoff, eta, anneal):
    sizes = []
    real = optimizer_mod.value_and_grad

    def counted(batch, g, c, work=None):
        sizes.append(len(batch))
        return real(batch, g, c, work)

    monkeypatch.setattr(optimizer_mod, "value_and_grad", counted)
    model, bounds = BATCH_PAYOFFS[payoff]
    grid = discretize_density(DensitySpec("uniform"), build_grid(bounds, 24))
    h = grid.spacing[0]
    obj = ObjectiveConfig(eta=eta, entropic=EntropicConfig(3.0 * h), payoff=model)
    opt = OptimizerConfig(
        n_init=6, max_iters=25, learning_rate=0.05, epsilon_final=0.5 * h if anneal else None
    )
    opts = [replace(opt, seed=seed) for seed in range(restarts)]
    results = run_batch([init_sites(6, grid, o.seed) for o in opts], grid, obj, opts)
    assert [r.seed_used for r in results] == list(range(restarts))
    # one evaluation per step advanced every restart
    assert sizes[:25] == [restarts] * 25


@pytest.mark.parametrize("anneal", [False, True], ids=["fixed", "annealed"])
@pytest.mark.parametrize("demand", ["unit", "additive"])
def test_batch_of_sweep_columns_equals_sequential_runs(monkeypatch, demand, anneal):
    # three markets of a sweep with two restarts each advance in one batch:
    # each restart runs in its own market, and a step makes one payoff pass
    import persuade_ot.payoffs as payoffs_mod

    base = BATCH_PAYOFFS[demand][0].market
    if demand == "unit":
        markets = [replace(base, p2=p2) for p2 in (0.75, 1.0, 1.5)]
    else:
        markets = [replace(base, delta=delta) for delta in (-0.5, -0.25, 0.25)]
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 2.0), (0.0, 2.0)), 24))
    h = grid.spacing[0]
    objs = [ObjectiveConfig(eta=0.0, entropic=EntropicConfig(3.0 * h), payoff=monopolist_payoff(m))
            for m in markets for _ in range(2)]
    opt = OptimizerConfig(
        n_init=6, max_iters=20, learning_rate=0.05, epsilon_final=0.5 * h if anneal else None
    )
    opts = [replace(opt, seed=seed) for _ in markets for seed in range(2)]
    inits = [init_sites(6, grid, o.seed) for o in opts]
    passes = []
    real = payoffs_mod._revenue_and_grad

    def counted(pts, models):
        passes.append(len(pts))
        return real(pts, models)

    monkeypatch.setattr(payoffs_mod, "_revenue_and_grad", counted)
    results = optimize_batch(inits, grid, objs, opts)
    assert passes[:20] == [6 * 6] * 20 and max(passes[20:], default=0) <= 6
    monkeypatch.undo()
    for init, obj, o, result in zip(inits, objs, opts, results):
        assert_results_equal(result, sequential_optimize(init, grid, obj, o))
    assert len({r.hard_value for r in results}) == 6


def test_batch_restart_that_stops_early_leaves_the_others_running():
    # the coarse bowl of test_coincident_sites_stop_early: seeds 0 and 4 drive
    # two sites onto one point at iterations 628 and 595, seed 1 runs on
    grid = unit_grid(8)
    obj = bowl_cfg(eps=5 * grid.spacing[0])
    opts = [OptimizerConfig(n_init=12, max_iters=640, seed=seed) for seed in (0, 1, 4)]
    results = run_batch([init_sites(12, grid, o.seed) for o in opts], grid, obj, opts)
    assert [r.stopped_early for r in results] == [628, None, 595]
    assert len(results[1].trajectory) == 640


def test_annealed_batch_with_a_restart_that_stops_early_equals_sequential_runs():
    # epsilon annealed from 5 to 8 cells on the coarse bowl: the sites of
    # seeds 2 and 5 meet at iterations 632 and 634, seed 0 runs on
    grid = unit_grid(8)
    h = grid.spacing[0]
    opts = [OptimizerConfig(n_init=12, max_iters=640, seed=s, epsilon_final=8 * h) for s in (2, 0, 5)]
    results = run_batch([init_sites(12, grid, o.seed) for o in opts], grid, bowl_cfg(eps=5 * h), opts)
    assert [r.stopped_early for r in results] == [632, None, 634]


def test_warm_batched_step_builds_no_per_restart_objects(monkeypatch):
    # a step of a (128, 12, 4) batch carries one stacked state: between one
    # evaluation and the next it builds no DiagramParams and one report, the
    # stack's, whose fields carry the restart axis
    from persuade_ot.objective import ObjectiveReport

    params = []
    shapes = []  # np.shape(value) of each report built
    real_init = DiagramParams.__post_init__
    monkeypatch.setattr(DiagramParams, "__post_init__",
                        lambda self: params.append(1) or real_init(self))
    real_new = ObjectiveReport.__new__
    monkeypatch.setattr(ObjectiveReport, "__new__", staticmethod(
        lambda cls, value, *a, **k: shapes.append(np.shape(value)) or real_new(cls, value, *a, **k)))
    seen = []
    real_vg = optimizer_mod.value_and_grad
    monkeypatch.setattr(optimizer_mod, "value_and_grad",
                        lambda *args: seen.append((len(params), len(shapes))) or real_vg(*args))
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 2.0), (0.0, 2.0)), 128))
    model = BATCH_PAYOFFS["unit"][0]
    obj = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(5.0 * grid.spacing[0]), payoff=model)
    opts = [OptimizerConfig(n_init=12, max_iters=4, learning_rate=0.05, seed=s) for s in range(4)]
    inits = [init_sites(12, grid, o.seed) for o in opts]
    results = optimize_batch(inits, grid, obj, opts)
    first = seen[0][1]
    assert seen == [(seen[0][0], first + k) for k in range(4)]
    assert shapes[first : first + 4] == [(4,)] * 4
    # finalisation builds each restart's diagram and takes its row of the report
    assert len(params) >= seen[0][0] + 4
    assert len(shapes) >= first + 8 and set(shapes[first + 4 :]) == {()}
    assert all(r.report.value == r.trajectory[r.best_iteration][0] for r in results)


def test_batch_restart_on_the_dense_path():
    # a lone site near a corner at a quarter cell leaves Z below the floor
    # far from it, so that restart takes the dense kernel alone
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 2.0), (0.0, 2.0)), 48))
    h = grid.spacing[0]
    obj = ObjectiveConfig(eta=1e-3, entropic=EntropicConfig(0.25 * h), payoff=tri_modal())
    far = DiagramParams(sites=[(0.1, 0.1), (30.0, -4.0)], weights=[0.0, 0.1])
    inits = [init_sites(2, grid, 0), far, init_sites(2, grid, 2)]
    assert isinstance(chi_kernel(stack(inits), grid, obj.entropic), RowKernels)
    assert isinstance(chi_kernel(far, grid, obj.entropic), DenseChi)
    opts = [OptimizerConfig(n_init=2, max_iters=15, learning_rate=0.05, seed=s) for s in range(3)]
    run_batch(inits, grid, obj, opts)


@dataclass(frozen=True)
class NanBeyond(PayoffModel):
    """|y - (0.5, 0.5)|^2, undefined (NaN) farther than sqrt(r2) from the centre."""

    r2: float

    def value_and_grad(self, pts):
        d = pts - 0.5
        v = (d * d).sum(axis=1)
        return np.where(v > self.r2, np.nan, v), 2.0 * d


def test_batch_raises_the_first_restarts_failure(monkeypatch):
    # as epsilon anneals, barycentres leave the disc: seed 3's at iteration 11,
    # seed 1's at 12; one dominant central cell keeps restart 0's inside
    grid = unit_grid(16)
    obj = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(2.0), payoff=NanBeyond(0.02))
    opt = OptimizerConfig(n_init=3, max_iters=60, learning_rate=0.02, epsilon_final=0.01)
    central = DiagramParams(sites=[(0.5, 0.5), (0.55, 0.5), (0.5, 0.55)], weights=[50.0, 0.0, 0.0])
    inits = [central, init_sites(3, grid, 1), init_sites(3, grid, 3)]
    opts = [replace(opt, seed=seed) for seed in (0, 1, 3)]
    assert optimize(central, grid, obj, opts[0]).effective_n == 1
    with pytest.raises(NumericFailure) as later:
        optimize(inits[2], grid, obj, opts[2])
    assert later.value.iteration == 11
    with pytest.raises(NumericFailure) as batch:
        optimize_batch(inits, grid, obj, opts)
    for run in (optimize, sequential_optimize):
        with pytest.raises(NumericFailure) as alone:
            run(inits[1], grid, obj, opts[1])
        assert str(batch.value) == str(alone.value) == "objective became non-finite at iteration 12"
        assert (batch.value.iteration, batch.value.last_value) == (12, alone.value.last_value)
        assert np.array_equal(batch.value.last_params.sites, alone.value.last_params.sites)
        assert np.array_equal(batch.value.last_params.weights, alone.value.last_params.weights)

    # the first restart stops early after a later one failed: restart 0 is seed 0
    # of the coarse bowl, whose sites meet at iteration 628; restart 1 starts with
    # two sites 1e-160 apart, so its repulsion term is not finite at iteration 0;
    # restart 2 (seed 1's init) would run on to 640
    sizes = []
    real = optimizer_mod.value_and_grad

    def counted(batch, g, c, work=None):
        sizes.append(len(batch))
        return real(batch, g, c, work)

    grid = unit_grid(8)
    obj = bowl_cfg(eps=5 * grid.spacing[0])
    opts = [OptimizerConfig(n_init=12, max_iters=640, seed=seed) for seed in range(3)]
    sites = init_sites(12, grid, 5).sites.copy()
    sites[0, 0], sites[1] = 0.0, (1e-160, sites[0, 1])
    close = DiagramParams(sites, np.zeros(12))
    inits = [init_sites(12, grid, 0), close, init_sites(12, grid, 1)]
    assert optimize(inits[0], grid, obj, opts[0]).stopped_early == 628
    with pytest.raises(NumericFailure) as alone:
        optimize(close, grid, obj, opts[1])
    monkeypatch.setattr(optimizer_mod, "value_and_grad", counted)
    with pytest.raises(NumericFailure) as batch:
        optimize_batch(inits, grid, obj, opts)
    assert str(batch.value) == str(alone.value) == "sites too close: repulsion term is not finite"
    assert batch.value.iteration == alone.value.iteration == 0
    # iteration 0 evaluates the batch, then each restart alone; restarts 0 and 2
    # go on together, and nothing is evaluated once restart 0 has stopped
    assert sizes == [3, 1, 1, 1] + [2] * 627


def test_singular_penalty_is_a_numeric_failure():
    # 1e-155 apart the sites are distinct, but m_i m_j / |x_i - x_j|^2 overflows
    grid = unit_grid(16)
    init = DiagramParams(sites=[(0.0, 0.0), (1e-155, 0.0), (0.7, 0.7)], weights=np.zeros(3))
    opt = OptimizerConfig(n_init=3, max_iters=5)
    with pytest.raises(SingularPenaltyError):
        sequential_optimize(init, grid, bowl_cfg(eps=0.05), opt)
    with pytest.raises(NumericFailure, match="repulsion term is not finite") as exc:
        optimize(init, grid, bowl_cfg(eps=0.05), opt)
    assert exc.value.iteration == 0 and exc.value.last_value is None
    assert np.array_equal(exc.value.last_params.sites, init.sites)


def test_batch_needs_shared_settings_and_site_count():
    grid = unit_grid(8)
    inits = [init_sites(3, grid, seed) for seed in range(2)]
    opts = [OptimizerConfig(n_init=3, seed=seed) for seed in range(2)]
    with pytest.raises(ValueError, match="differ only in seed"):
        optimize_batch(inits, grid, bowl_cfg(), [opts[0], replace(opts[1], learning_rate=0.1)])
    with pytest.raises(ValueError, match="differ only in seed"):
        optimize_batch(inits, grid, bowl_cfg(), opts[:1])
    with pytest.raises(ValueError, match="one number of sites"):
        optimize_batch([inits[0], init_sites(4, grid, 1)], grid, bowl_cfg(), opts)
    with pytest.raises(ValueError, match="differ only in payoff"):
        optimize_batch(inits, grid, [bowl_cfg(), bowl_cfg(eta=1e-3)], opts)
    with pytest.raises(ValueError, match="one init and objective per restart"):
        optimize_batch(inits, grid, [bowl_cfg()], opts)
