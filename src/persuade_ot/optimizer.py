"""First-order ascent on diagram parameters.

Adam on the concatenated vector (sites, weights) with the exact gradient,
seeded initialization, and finalization pruning of dead cells.

The restarts of a run advance together (optimize_batch): their Adam state
is one (R, 3n) array with a leading restart axis, and each step makes one
batched evaluation (objective.value_and_grad on a list of diagrams). The
restarts may carry objectives that differ in the payoff, such as the
columns of a market sweep, and the evaluation still makes one payoff pass.
Each restart's floating-point operations are those of its own run, so its
result equals a one-restart run bit for bit; optimize is the R = 1 call.
A restart whose sites meet or whose evaluation fails leaves the batch.
Finalisation reuses what the run computed: at a fixed epsilon the best
iterate's report from the loop, and pruning's hard labelling, which also
gives the result's hard value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropic import EntropicConfig, Workspace
from .errors import NumericFailure, SingularPenaltyError
from .grid import GridMeasure
from .objective import (
    ObjectiveConfig, ObjectiveReport, hard_objective, soft_objective, value_and_grad,
)
from .power_diagram import (
    CellStats, DiagramParams, HardAssignment, hard_assign, hard_cell_stats, min_separation,
)

# Adam moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# finalization drops cells below this soft mass that own no grid point
PRUNE_MASS_TOL = 1e-4


@dataclass
class OptimizerConfig:
    n_init: int = 12
    max_iters: int = 1000
    learning_rate: float = 1e-2
    seed: int = 0
    epsilon_final: float | None = None  # optional geometric anneal target, off by default

    def __post_init__(self):
        if self.n_init < 1:
            raise ValueError("n_init must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # negated, so that nan fails too
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be a positive real, got {self.learning_rate!r}")
        if self.epsilon_final is not None and not 0.0 < self.epsilon_final < math.inf:
            raise ValueError(f"epsilon_final must be a positive real, got {self.epsilon_final!r}")


@dataclass(frozen=True)
class OptResult:
    params: DiagramParams
    report: ObjectiveReport
    trajectory: list  # (value, grad_norm) per iteration
    seed_used: int
    best_iteration: int
    hard_value: float  # hard_objective of params
    assignment: HardAssignment  # hard_assign of params
    stopped_early: int | None = None  # iteration whose step made two sites coincide

    @property
    def effective_n(self) -> int:
        """Cells kept after pruning."""
        return self.params.n


def init_sites(
    n: int, grid: GridMeasure, seed: int, strategy: str = "uniform-random"
) -> DiagramParams:
    """n distinct sites inside bounds with zero weights, deterministic per seed.

    "uniform-random" samples the rectangle uniformly; "jittered-grid" lays a
    near-square lattice over the rectangle and jitters each site by at most a
    quarter cell, which keeps pairwise separations at half a lattice cell.
    """
    if n < 1:
        raise ValueError("need at least one site")
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = grid.bounds
    if strategy == "uniform-random":
        for _ in range(100):
            sites = rng.uniform((a1, a2), (b1, b2), size=(n, 2))
            if min_separation(sites) > 0.0:
                break
    elif strategy == "jittered-grid":
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        cw = (b1 - a1) / cols
        ch = (b2 - a2) / rows
        cells = [(i, j) for j in range(rows) for i in range(cols)][:n]
        base = np.array(
            [(a1 + (i + 0.5) * cw, a2 + (j + 0.5) * ch) for i, j in cells]
        )
        jitter = rng.uniform(-0.25, 0.25, size=(n, 2)) * np.array([cw, ch])
        sites = base + jitter
    else:
        raise ValueError(f"unknown init strategy {strategy!r}")
    return DiagramParams(sites, np.zeros(n))


def prune_cells(
    params: DiagramParams,
    stats: CellStats,
    mass_tol: float,
    grid: GridMeasure,
    assignment: HardAssignment | None = None,
) -> DiagramParams:
    """Drop cells that are dead both softly and hardly.

    A cell is removed when its soft mass is below mass_tol AND its hard
    mass is exactly zero. Never removes every cell; survivors keep their
    relative order. ``assignment`` is the diagram's hard_assign labelling,
    if the caller has it.
    """
    if assignment is None:
        assignment = hard_assign(params, grid)
    hard = hard_cell_stats(assignment, grid)
    keep = (stats.masses >= mass_tol) | (hard.masses > 0.0)
    if not np.any(keep):
        keep[int(np.argmax(stats.masses))] = True
    if np.all(keep):
        return params
    return DiagramParams(params.sites[keep], params.weights[keep])


class _Restart:
    """One restart's record while its batch runs."""

    def __init__(self, init: DiagramParams, theta: np.ndarray, obj: ObjectiveConfig):
        self.obj = obj
        self.last_valid = init
        self.best_theta = theta
        self.best_report: ObjectiveReport | None = None
        self.trajectory: list[tuple[float, float]] = []  # (value, grad_norm) per iteration
        self.best_value = -np.inf
        self.best_iteration = 0
        self.stopped_early: int | None = None
        self.failure: NumericFailure | None = None

    def fail(self, message: str, it: int) -> None:
        self.failure = NumericFailure(
            message,
            last_params=self.last_valid,
            last_value=self.best_value if np.isfinite(self.best_value) else None,
            iteration=it,
        )


def optimize(
    init: DiagramParams,
    grid: GridMeasure,
    obj: ObjectiveConfig,
    opt: OptimizerConfig,
) -> OptResult:
    """Adam ascent on (X, g), returning the best iterate after pruning.

    Runs max_iters steps. The raw Adam trajectory is not monotone; the
    best-seen value is tracked separately and its iterate is what gets
    pruned and returned. A step that makes two sites coincide ends the run
    early: the best iterate so far is finalised and ``stopped_early``
    records the iteration. A non-finite objective or gradient, or a
    repulsion term that is not finite, aborts with NumericFailure and the
    last valid state attached. This is optimize_batch on one restart.
    """
    return optimize_batch([init], grid, obj, [opt])[0]


def optimize_batch(
    inits: list[DiagramParams],
    grid: GridMeasure,
    obj: ObjectiveConfig | list[ObjectiveConfig],
    opts: list[OptimizerConfig],
) -> list[OptResult]:
    """optimize for R restarts at once, one result per init.

    The restarts share n and every setting but the seed. ``obj`` is one
    objective for all, or one per restart: those share eta and epsilon and
    may differ in the payoff, as the columns of a market sweep do (see
    payoffs.stacked_value_and_grad). Each Adam step advances all restarts
    in one batched evaluation and one update on an (R, 3n) state, and each
    restart's result equals its own optimize call bit for bit. A restart
    that stops early or fails leaves the batch and the others go on; when
    the batch ends, the first failed restart's NumericFailure is raised, as
    a run of the restarts one by one would.
    """
    opt = opts[0]
    n = inits[0].n
    objs = obj if isinstance(obj, list) else [obj] * len(inits)
    if (
        not len(inits) == len(opts) == len(objs)
        or any(replace(o, seed=opt.seed) != opt for o in opts)
        or any(replace(o, payoff=objs[0].payoff) != objs[0] for o in objs)
    ):
        raise ValueError(
            "a batch needs one init and objective per restart, objectives that differ"
            " only in payoff and settings that differ only in seed"
        )
    if any(init.n != n for init in inits):
        raise ValueError("the restarts of a batch need one number of sites")
    theta = np.stack([np.concatenate([init.sites.ravel(), init.weights]) for init in inits])
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    lr = opt.learning_rate

    eps_run = objs[0].entropic.epsilon
    anneal = 1.0
    if opt.epsilon_final is not None and opt.max_iters > 1:
        anneal = (opt.epsilon_final / eps_run) ** (1.0 / (opt.max_iters - 1))

    def unpack(vec: np.ndarray) -> DiagramParams:
        return DiagramParams(vec[: 2 * n].reshape(n, 2), vec[2 * n :])

    runs = [_Restart(init, vec.copy(), o) for init, vec, o in zip(inits, theta, objs)]
    rows = runs  # the restart behind each row of theta, m1 and m2, in batch order
    work = Workspace()  # the kernel's arrays, reused every step and by _finalise

    for it in range(opt.max_iters):
        batch = []
        for run, vec in zip(rows, theta):
            try:
                batch.append(unpack(vec))
            except ValueError:
                # an Adam step made two sites coincide; iteration 0 (the valid
                # init) already gave a finite best iterate to finalise
                run.stopped_early = it
        if len(batch) < len(rows):
            rows, theta, m1, m2 = _running(rows, theta, m1, m2)
            if _settled(runs, rows):
                break
        cfgs = [run.obj for run in rows]
        if anneal != 1.0:
            entropic = EntropicConfig(eps_run * anneal**it)
            cfgs = [replace(c, entropic=entropic) for c in cfgs]
        reports, grad = _batch_value_and_grad(batch, rows, grid, cfgs, work, it)
        finite = np.isfinite(grad).all(axis=1).tolist()
        gnorms = np.abs(grad).max(axis=1).tolist()
        for run, params, report, ok, gnorm, vec in zip(rows, batch, reports, finite, gnorms, theta):
            if report is None:
                continue
            if not (ok and math.isfinite(report.value)):
                run.fail(f"objective became non-finite at iteration {it}", it)
                continue
            run.last_valid = params
            run.trajectory.append((report.value, gnorm))
            if report.value > run.best_value:
                run.best_value = report.value
                run.best_theta = vec.copy()
                run.best_report = report
                run.best_iteration = it
        if any(run.failure is not None for run in rows):
            rows, theta, m1, m2, grad = _running(rows, theta, m1, m2, grad)
            if _settled(runs, rows):
                break
        # ascent step
        m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * grad
        m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * grad * grad
        m1_hat = m1 / (1.0 - ADAM_BETA1 ** (it + 1))
        m2_hat = m2 / (1.0 - ADAM_BETA2 ** (it + 1))
        theta = theta + lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)

    results = []
    for run, o in zip(runs, opts):
        if run.failure is not None:
            raise run.failure
        final_cfg = run.obj
        if opt.epsilon_final is not None:
            final_cfg = replace(run.obj, entropic=EntropicConfig(opt.epsilon_final))
        results.append(_finalise(run, unpack(run.best_theta), grid, final_cfg, o.seed, work))
    return results


def _running(rows: list, *arrays: np.ndarray) -> tuple:
    """The restarts still running, and their rows of each array."""
    keep = [j for j, run in enumerate(rows) if run.stopped_early is None and run.failure is None]
    return [rows[j] for j in keep], *(a[keep] for a in arrays)


def _settled(runs: list, rows: list) -> bool:
    """No restart is left running, or none whose outcome can change what the
    batch returns: a restart before the first one still running has failed,
    and that failure (or an earlier one) is what is raised."""
    return not rows or any(run.failure is not None for run in runs[: runs.index(rows[0])])


def _batch_value_and_grad(batch, runs, grid, cfgs, work, it):
    """Reports and (R, 3n) gradients of a batch. A restart whose evaluation
    fails gets None and the failure is recorded on its run."""
    try:
        reports, dx, dg = value_and_grad(batch, grid, cfgs, work)
        return reports, np.concatenate([dx.reshape(len(batch), -1), dg], axis=1)
    except (NumericFailure, SingularPenaltyError) as exc:
        if len(batch) == 1:
            runs[0].fail(str(exc), it)
            return [None], np.full((1, 3 * batch[0].n), np.nan)
    # one restart's failure must not end the others: evaluate each alone
    parts = [
        _batch_value_and_grad([p], [run], grid, [c], work, it)
        for p, run, c in zip(batch, runs, cfgs)
    ]
    return [reports[0] for reports, _ in parts], np.concatenate([grad for _, grad in parts])


def _finalise(run: _Restart, best_params: DiagramParams, grid: GridMeasure,
              final_cfg: ObjectiveConfig, seed: int, work: Workspace) -> OptResult:
    """Prune the best iterate's dead cells and report the result at the final epsilon.

    At a fixed epsilon the loop's report of the best iterate is that report.
    The pruned diagram's labels are the best iterate's, renumbered past the
    removed cells, when those own no grid point: hard assignment treats each
    cell's cost alike and a tie goes to the lowest index, so removing cells
    that win no point changes no label.
    """
    report_before = run.best_report
    if final_cfg.entropic != run.obj.entropic:
        report_before = soft_objective(best_params, grid, final_cfg, work)
    assignment = hard_assign(best_params, grid)
    pruned = prune_cells(best_params, report_before.cells, PRUNE_MASS_TOL, grid, assignment)
    report_after = report_before

    if pruned.n < best_params.n:
        # sites are pairwise distinct: a cell is kept iff its site is among the pruned sites
        kept = (best_params.sites[:, None, :] == pruned.sites[None, :, :]).all(axis=2).any(axis=1)
        report_after = soft_objective(pruned, grid, final_cfg, work)
        masses = report_before.cells.masses
        removed = float(masses.sum() - masses[kept].sum())
        scale = max(1.0, float(np.abs(report_before.payoffs).max()))
        bound = 10.0 * removed * scale + final_cfg.eta * abs(
            report_before.penalty_term - report_after.penalty_term
        ) + 1e-8
        delta = abs(report_after.value - report_before.value)
        if not delta <= bound:
            raise NumericFailure(
                f"pruning moved the objective by {delta:.3e} > bound {bound:.3e}",
                last_params=best_params,
                last_value=report_before.value,
                iteration=run.best_iteration,
            )
        if np.bincount(assignment.labels, minlength=best_params.n)[~kept].any():
            # a removed cell owns grid points (of zero mass): label afresh
            assignment = hard_assign(pruned, grid)
        else:
            assignment = HardAssignment((np.cumsum(kept) - 1)[assignment.labels], pruned.n)

    return OptResult(
        params=pruned,
        report=report_after,
        trajectory=run.trajectory,
        seed_used=seed,
        best_iteration=run.best_iteration,
        hard_value=hard_objective(pruned, grid, final_cfg.payoff, assignment),
        assignment=assignment,
        stopped_early=run.stopped_early,
    )
