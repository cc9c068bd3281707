"""First-order ascent on diagram parameters.

Adam on the concatenated vector (sites, weights) with the exact gradient,
seeded initialization, and finalization pruning of dead cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropic import EntropicConfig
from .errors import NumericFailure
from .grid import GridMeasure
from .objective import ObjectiveConfig, ObjectiveReport, soft_objective, value_and_grad
from .power_diagram import CellStats, DiagramParams, hard_assign, hard_cell_stats, min_separation

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
) -> DiagramParams:
    """Drop cells that are dead both softly and hardly.

    A cell is removed when its soft mass is below mass_tol AND its hard
    mass is exactly zero. Never removes every cell; survivors keep their
    relative order.
    """
    hard = hard_cell_stats(hard_assign(params, grid), grid)
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
    records the iteration. NaN or infinite objective values abort with the
    last valid state attached.
    """
    n = init.n
    theta = np.concatenate([init.sites.ravel(), init.weights])
    m1 = np.zeros_like(theta)
    m2 = np.zeros_like(theta)
    lr = opt.learning_rate

    eps_run = obj.entropic.epsilon
    anneal = 1.0
    if opt.epsilon_final is not None and opt.max_iters > 1:
        anneal = (opt.epsilon_final / eps_run) ** (1.0 / (opt.max_iters - 1))

    def unpack(vec: np.ndarray) -> DiagramParams:
        return DiagramParams(vec[: 2 * n].reshape(n, 2), vec[2 * n :])

    def at_epsilon(eps: float) -> ObjectiveConfig:
        return replace(obj, entropic=EntropicConfig(eps))

    trajectory: list[tuple[float, float]] = []
    best_value = -np.inf
    best_theta = theta.copy()
    best_iteration = 0
    last_valid = unpack(theta)
    stopped_early = None
    cfg_t = obj
    m = grid.resolution
    work = np.empty((3, m, m))  # the kernel's grid-sized arrays, reused every step

    for it in range(opt.max_iters):
        if anneal != 1.0:
            cfg_t = at_epsilon(eps_run * anneal**it)
        try:
            params = unpack(theta)
        except ValueError:
            # an Adam step made two sites coincide; iteration 0 (the valid
            # init) already gave a finite best iterate to finalise
            stopped_early = it
            break
        report, dx, dg = value_and_grad(params, grid, cfg_t, work)
        grad = np.concatenate([dx.ravel(), dg])
        if not (np.isfinite(report.value) and np.all(np.isfinite(grad))):
            raise NumericFailure(
                f"objective became non-finite at iteration {it}",
                last_params=last_valid,
                last_value=best_value if np.isfinite(best_value) else None,
                iteration=it,
            )
        last_valid = params
        gnorm = float(np.max(np.abs(grad)))
        trajectory.append((report.value, gnorm))
        if report.value > best_value:
            best_value = report.value
            best_theta = theta.copy()
            best_iteration = it
        # ascent step
        m1 = ADAM_BETA1 * m1 + (1.0 - ADAM_BETA1) * grad
        m2 = ADAM_BETA2 * m2 + (1.0 - ADAM_BETA2) * grad * grad
        m1_hat = m1 / (1.0 - ADAM_BETA1 ** (it + 1))
        m2_hat = m2 / (1.0 - ADAM_BETA2 ** (it + 1))
        theta = theta + lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)

    final_cfg = obj if opt.epsilon_final is None else at_epsilon(opt.epsilon_final)
    best_params = unpack(best_theta)
    report_before = soft_objective(best_params, grid, final_cfg)
    pruned = prune_cells(best_params, report_before.cells, PRUNE_MASS_TOL, grid)
    report_after = report_before

    if pruned.n < best_params.n:
        # sites are pairwise distinct: a cell is kept iff its site is among the pruned sites
        kept = (best_params.sites[:, None, :] == pruned.sites[None, :, :]).all(axis=2).any(axis=1)
        report_after = soft_objective(pruned, grid, final_cfg)
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
                iteration=best_iteration,
            )

    return OptResult(
        params=pruned,
        report=report_after,
        trajectory=trajectory,
        seed_used=opt.seed,
        best_iteration=best_iteration,
        stopped_early=stopped_early,
    )

