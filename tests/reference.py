"""Dense and one-restart references shared by the tests."""

from __future__ import annotations

import numpy as np


def sq_dists(sites: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n, P) matrix of squared distances |y_alpha - x_i|^2."""
    diff = points[None, :, :] - sites[:, None, :]
    return np.einsum("ipk,ipk->ip", diff, diff)


def assert_reports_equal(report, ref):
    """Exact equality of two ObjectiveReports, field by field."""
    assert (report.value, report.payoff_term, report.penalty_term) == (
        ref.value, ref.payoff_term, ref.penalty_term
    )
    assert np.array_equal(report.cells.masses, ref.cells.masses)
    assert np.array_equal(report.cells.barycenters, ref.cells.barycenters)
    assert np.array_equal(report.payoffs, ref.payoffs)


def dense_lloyd(n, grid, seed, max_iters=200):
    """Lloyd's iteration labelling the whole grid on every pass: the dense
    loop ``power_diagram.lloyd_solve`` must reproduce bit for bit."""
    from persuade_ot.power_diagram import (
        DiagramParams, HardAssignment, _power_labels, hard_cell_stats,
    )

    rng = np.random.default_rng(seed)
    sites = grid.centers[rng.choice(len(grid.masses), size=n, replace=False, p=grid.masses)]
    zeros = np.zeros(n)
    moves = 0
    for _ in range(4 * n * (max(max_iters, 0) + 1)):  # up to 4n labellings per move
        assignment = HardAssignment(_power_labels(sites, zeros, grid), n)
        stats = hard_cell_stats(assignment, grid)
        if not stats.support.all():
            empty = int(np.flatnonzero(~stats.support)[0])
            in_cell = np.flatnonzero(assignment.labels == np.argmax(stats.masses))
            for alpha in in_cell[np.argsort(-grid.masses[in_cell], kind="stable")]:
                if not np.any(np.all(sites == grid.centers[alpha], axis=1)):
                    sites[empty] = grid.centers[alpha]
                    break
            else:
                raise RuntimeError("could not reseed an empty cell")
        elif moves >= max_iters or np.array_equal(stats.barycenters, sites):
            return DiagramParams(sites, zeros), stats
        else:
            sites = stats.barycenters
            moves += 1
    raise RuntimeError("empty-cell reseeding did not terminate")


def sequential_optimize(init, grid, obj, opt):
    """Adam ascent on (X, g) for one restart, one evaluation per step: the
    loop ``optimizer.optimize_batch`` must reproduce bit for bit on each
    restart of a batch. A repulsion term that is not finite escapes as
    SingularPenaltyError here."""
    from dataclasses import replace

    from persuade_ot import EntropicConfig, NumericFailure
    from persuade_ot.objective import soft_objective, value_and_grad
    from persuade_ot.optimizer import (
        ADAM_BETA1, ADAM_BETA2, ADAM_EPS, PRUNE_MASS_TOL, OptResult, prune_cells,
    )
    from persuade_ot.power_diagram import DiagramParams

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

