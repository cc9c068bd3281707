"""First-order ascent on diagram parameters.

Adam on the concatenated vector (sites, weights) with the exact gradient,
seeded initialization, and finalization pruning of dead cells.

The restarts of a run advance together (optimize_batch) as one stacked
state. The Adam iterates and moments are (R, 3n) arrays; a step checks
every row at once (power_diagram.Diagrams.from_rows) and makes one
evaluation of the stacked diagrams (objective.value_and_grad), whose one
payoff pass covers restarts that differ in the payoff, such as the columns
of a market sweep. A step builds no per-restart object: its one report is
the stack's, the loop keeps each restart's best row of it, and a restart's
own report is that row, taken at finalisation. Finalisation takes the hard
cells of the best iterate once: pruning reads them, and the result's hard
value prices them, or the kept rows of them after pruning.
Each restart's floating-point operations are those of its own run, so its
result equals a one-restart run bit for bit; optimize is the R = 1 call.
A restart whose sites meet or whose evaluation fails leaves the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropic import EntropicConfig, Workspace
from .errors import NumericFailure, SingularPenaltyError
from .grid import GridMeasure
from .objective import (
    ObjectiveConfig, ObjectiveReport, cells_value, soft_objective, value_and_grad,
)
from .payoffs import stacked_payoff
from .power_diagram import (
    CellStats, DiagramParams, Diagrams, HardAssignment, hard_assign, hard_cell_stats,
    min_separation,
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
    params: DiagramParams, stats: CellStats, hard: CellStats, mass_tol: float
) -> DiagramParams:
    """Drop cells that are dead both softly and hardly.

    ``stats`` and ``hard`` are the diagram's soft and hard cells. A cell is
    removed when its soft mass is below mass_tol AND its hard mass is
    exactly zero. Never removes every cell; survivors keep their relative order.
    """
    keep = (stats.masses >= mass_tol) | (hard.masses > 0.0)
    if not np.any(keep):
        keep[int(np.argmax(stats.masses))] = True
    if np.all(keep):
        return params
    return DiagramParams(params.sites[keep], params.weights[keep])


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


def optimize_batch(inits: list[DiagramParams], grid: GridMeasure,
                   obj: ObjectiveConfig | list[ObjectiveConfig],
                   opts: list[OptimizerConfig]) -> list[OptResult]:
    """optimize for R restarts at once, one result per init.

    The restarts share n and every setting but the seed. ``obj`` is one
    objective for all, or one per restart: those share eta and epsilon and
    may differ in the payoff, as the columns of a market sweep do (see
    payoffs.stacked_payoff). Each restart's result equals its own optimize
    call bit for bit. A restart that stops early or fails leaves the batch
    and the others go on; when the batch ends, the first failed restart's
    NumericFailure is raised, as a run of the restarts one by one would.
    """
    opt, n, r = opts[0], inits[0].n, len(inits)
    objs = obj if isinstance(obj, list) else [obj] * r
    if (
        not r == len(opts) == len(objs)
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
    m1 = m2 = np.zeros_like(theta)  # Adam's moments, rebound (never written) each step
    eps_run = objs[0].entropic.epsilon
    anneal = 1.0
    if opt.epsilon_final is not None and opt.max_iters > 1:
        anneal = (opt.epsilon_final / eps_run) ** (1.0 / (opt.max_iters - 1))

    def unpack(vec: np.ndarray) -> DiagramParams:
        return DiagramParams(vec[: 2 * n].reshape(n, 2), vec[2 * n :])

    best: list = [None] * r  # per restart: (iteration, row, report, theta) of its best step
    log = np.empty((opt.max_iters, 2, r))  # (value, grad_norm) per iteration and restart
    stopped: dict[int, int] = {}
    failures: dict[int, NumericFailure] = {}
    # per row of theta, m1 and m2: its restart, whether its last step was valid,
    # its best value and its last valid iterate
    rows, ok, best_value, last = np.arange(r), np.ones(r, dtype=bool), np.full(r, -np.inf), theta
    cfg = replace(objs[0], payoff=stacked_payoff([o.payoff for o in objs]))
    work = Workspace()  # the kernel's arrays, reused every step and by _finalise

    for it in range(opt.max_iters):
        diagrams, keep = Diagrams.from_rows(theta)
        if not (keep & ok).all():
            # an Adam step made two sites coincide (iteration 0, the valid init,
            # already gave a finite best iterate to finalise), or the row failed
            stopped.update({k: it for k in rows[~keep].tolist() if k not in failures})
            keep &= ok
            diagrams = diagrams.take(keep)
            rows, theta, m1, m2, best_value, last = (
                a[keep] for a in (rows, theta, m1, m2, best_value, last))
            # done when no restart runs whose outcome can change what is returned:
            # one before the first still running failed, and that failure is raised
            if not len(rows) or any(k < rows[0] for k in failures):
                break
            cfg = replace(cfg, payoff=stacked_payoff([objs[k].payoff for k in rows]))
        cfg_t = cfg
        if anneal != 1.0:
            cfg_t = replace(cfg, entropic=EntropicConfig(eps_run * anneal**it))
        reports, grad, raised = _evaluate_rows(diagrams, rows, grid, cfg_t, objs, work)
        ok = np.isfinite(grad).all(axis=1) & np.isfinite(reports.value)
        log[it, 0, rows] = reports.value
        log[it, 1, rows] = np.abs(grad).max(axis=1)
        better = ok & (reports.value > best_value)
        for j in np.flatnonzero(better).tolist():
            best[rows[j]] = (it, j, reports, theta)
        best_value = np.where(better, reports.value, best_value)
        for j in np.flatnonzero(~ok).tolist():
            failures[rows[j]] = NumericFailure(
                str(raised.get(j, f"objective became non-finite at iteration {it}")),
                last_params=unpack(last[j]), iteration=it,
                last_value=float(best_value[j]) if np.isfinite(best_value[j]) else None,
            )
            grad[j] = 0.0  # the row leaves the batch at the next step
        # ascent step
        m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * grad
        m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * grad * grad
        m1_hat = m1 / (1.0 - ADAM_BETA1 ** (it + 1))
        m2_hat = m2 / (1.0 - ADAM_BETA2 ** (it + 1))
        last = theta
        theta = theta + opt.learning_rate * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)

    results = []
    final_eps = None if opt.epsilon_final is None else EntropicConfig(opt.epsilon_final)
    for k, (o, run_obj) in enumerate(zip(opts, objs)):
        if k in failures:
            raise failures[k]
        best_it, j, reports, best_theta = best[k]
        final_cfg = run_obj if final_eps is None else replace(run_obj, entropic=final_eps)
        params = unpack(best_theta[j])
        # at a fixed epsilon the loop's report of the best iterate is the report
        report = (reports.row(j) if final_cfg.entropic == run_obj.entropic
                  else soft_objective(params, grid, final_cfg, work))
        results.append(_finalise(
            params, report, grid, final_cfg, work, seed_used=o.seed,
            best_iteration=best_it, stopped_early=stopped.get(k),
            trajectory=list(zip(*log[: stopped.get(k, opt.max_iters), :, k].T.tolist())),
        ))
    return results


def _evaluate_rows(diagrams: Diagrams, rows: np.ndarray, grid: GridMeasure,
                   cfg: ObjectiveConfig, objs: list, work: Workspace) -> tuple:
    """The report and (R, 3n) gradients of a stack of restarts ``rows``, and by
    row the exception of each row whose evaluation raised; such a row reads NaN."""
    try:
        reports, dx, dg = value_and_grad(diagrams, grid, cfg, work)
        return reports, np.concatenate([dx.reshape(len(rows), -1), dg], axis=1), {}
    except (NumericFailure, SingularPenaltyError) as exc:
        if len(rows) == 1:
            w = np.full_like(diagrams.weights, np.nan)  # (1, n)
            b = np.full_like(diagrams.sites, np.nan)
            nan = ObjectiveReport(w[:, 0], w[:, 0], w[:, 0], w, b, w)
            return nan, np.full((1, 3 * w.shape[1]), np.nan), {0: exc}
    # one restart's failure must not end the others: evaluate each alone
    reports, grads, raised = zip(*(
        _evaluate_rows(diagrams.take([j]), rows[j : j + 1], grid,
                       replace(cfg, payoff=objs[k].payoff), objs, work)
        for j, k in enumerate(rows.tolist())
    ))
    return (ObjectiveReport(*map(np.concatenate, zip(*reports))), np.concatenate(grads),
            {j: exc[0] for j, exc in enumerate(raised) if exc})


def _finalise(best_params: DiagramParams, report_before: ObjectiveReport, grid: GridMeasure,
              final_cfg: ObjectiveConfig, work: Workspace, **fields) -> OptResult:
    """Prune the best iterate's dead cells and report the result at the final
    epsilon, given the best iterate's report there.

    The best iterate's hard cells are taken once. The pruned diagram's labels
    are the best iterate's, renumbered past the removed cells, when those own
    no grid point: hard assignment treats each cell's cost alike and a tie
    goes to the lowest index, so removing cells that win no point changes no
    label. The renumbering keeps each bin's points in their order, so its
    hard cells are the kept rows, bit for bit, and the hard value prices them.
    """
    assignment = hard_assign(best_params, grid)
    hard = hard_cell_stats(assignment, grid)
    pruned = prune_cells(best_params, report_before.cells, hard, PRUNE_MASS_TOL)
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
                iteration=fields["best_iteration"],
            )
        if np.bincount(assignment.labels, minlength=best_params.n)[~kept].any():
            # a removed cell owns grid points (of zero mass): label afresh
            assignment = hard_assign(pruned, grid)
            hard = hard_cell_stats(assignment, grid)
        else:
            assignment = HardAssignment((np.cumsum(kept) - 1)[assignment.labels], pruned.n)
            hard = CellStats(hard.masses[kept], hard.barycenters[kept])

    return OptResult(
        params=pruned,
        report=report_after,
        hard_value=cells_value(hard, final_cfg.payoff),
        assignment=assignment,
        **fields,
    )
