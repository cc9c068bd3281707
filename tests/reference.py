"""Dense, looped and one-restart references shared by the tests."""

from __future__ import annotations

import math

import numpy as np


def sq_dists(sites: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n, P) matrix of squared distances |y_alpha - x_i|^2."""
    diff = points[None, :, :] - sites[:, None, :]
    return np.einsum("ipk,ipk->ip", diff, diff)


def stack(diagrams):
    """The power_diagram.Diagrams of a list of DiagramParams, built as the
    optimizer builds its stacks, from flat rows."""
    from persuade_ot.power_diagram import Diagrams

    rows = np.stack([np.concatenate([d.sites.ravel(), d.weights]) for d in diagrams])
    stacked, valid = Diagrams.from_rows(rows)
    assert valid.all()
    return stacked


def assert_reports_equal(report, ref):
    """Exact equality of two ObjectiveReports, of one diagram or of a stack,
    field by field."""
    assert report._fields == ref._fields
    for field, a, b in zip(report._fields, report, ref):
        assert np.shape(a) == np.shape(b) and np.array_equal(a, b), field


def _loop_survival(lo, hi, inv, x: float, strict: bool) -> np.ndarray:
    """P(V >= x) for V uniform on [lo, hi] with inv = 1 / (hi - lo), or V = lo
    where inv = 0; for that point mass P(V > x) if ``strict``."""
    out = np.maximum(lo, x)
    np.subtract(hi, out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= inv
    np.copyto(out, 1.0, where=x <= lo)
    if strict:
        np.copyto(out, 0.0, where=(x == lo) & (inv == 0.0))
    return out


def loop_shares(a: np.ndarray, c: np.ndarray, market) -> np.ndarray:
    """``payoffs._shares`` for one market as a Python loop over the purchase
    regions, one (k,) row at a time: the arithmetic that the stacked regions
    must reproduce bit for bit. Each row is (sign of A, sign of B, s, t, r,
    strict): the bundle wins its tie with good 2 at a point mass of A on s."""
    d = market.delta if market.demand == "additive" else math.inf
    table = [(1, -1, 0.0, -d, 0.0, False), (-1, 1, -d, 0.0, 0.0, True)]
    table += [(1, 1, d, d, d, False)] if market.demand == "additive" else []
    work = np.empty((len(table) + 11, a.shape[1]))
    lo, hi, inv, half = work[0:2], work[2:4], work[4:6], work[6]
    out, u, tri = work[7 : 7 + len(table)], work[-4:-2], work[-2:]
    swap = np.abs(a[0]) > np.abs(a[1])
    np.copyto(lo, a)
    np.copyto(lo, a[::-1], where=swap)
    c = np.where(swap, c[::-1], c)
    np.maximum(lo, 0.0, out=hi)
    hi += c
    np.minimum(lo, 0.0, out=lo)
    lo += c
    np.subtract(hi, lo, out=inv)
    np.divide(1.0, inv, out=inv, where=inv > 0.0)
    np.multiply(inv[0], 0.5, out=half)
    for row, (sign_a, sign_b, s, t, r, strict) in zip(out, table):
        a_lo, a_hi = (lo[0], hi[0]) if sign_a > 0 else (-hi[0], -lo[0])
        b_lo, b_hi = (lo[1], hi[1]) if sign_b > 0 else (-hi[1], -lo[1])
        # B's part [min(max(b_lo, t), b_hi), b_hi] splits at the cut r - s:
        # above it S_A(max(s, r - B)) = S_A(s); below it, the integral of S_A
        # over u = r - B is a difference of J(u), the integral of S_A from u
        # on: the length of [u, a_lo], where S_A = 1, plus S_A's triangle past u
        np.maximum(b_lo, t, out=u[1])
        np.minimum(u[1], b_hi, out=u[1])
        np.minimum(b_hi, r - s, out=u[0])
        np.maximum(u[0], u[1], out=u[0])
        np.subtract(b_hi, u[0], out=row)
        row *= _loop_survival(a_lo, a_hi, inv[0], s, strict)
        np.subtract(r, u, out=u)
        np.maximum(u, a_lo, out=tri)
        np.minimum(tri, a_hi, out=tri)
        np.subtract(a_hi, tri, out=tri)
        np.square(tri, out=tri)
        tri *= half
        np.subtract(a_lo, u, out=u)
        np.maximum(u, 0.0, out=u)
        u += tri
        np.subtract(u[0], u[1], out=u[0])
        row += u[0]
        row *= inv[1]
    out[:2] = np.where(swap, out[1::-1], out[:2])
    return out


def dense_lloyd(n, grid, seed, max_iters=200):
    """Lloyd's iteration labelling the whole grid on every pass: the dense
    loop ``power_diagram.lloyd_solve`` must reproduce bit for bit."""
    from persuade_ot.power_diagram import DiagramParams, _power_labels, hard_cell_stats

    rng = np.random.default_rng(seed)
    sites = grid.centers[rng.choice(len(grid.masses), size=n, replace=False, p=grid.masses)]
    zeros = np.zeros(n)
    moves = 0
    for _ in range(4 * n * (max(max_iters, 0) + 1)):  # up to 4n labellings per move
        stats = hard_cell_stats(_power_labels(sites, zeros, grid), n, grid)
        if not stats.support.all():
            empty = int(np.flatnonzero(~stats.support)[0])
            in_cell = np.flatnonzero(stats.labels == np.argmax(stats.masses))
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
    from persuade_ot.entropic import Workspace
    from persuade_ot.objective import hard_objective, soft_objective, value_and_grad
    from persuade_ot.optimizer import (
        ADAM_BETA1, ADAM_BETA2, ADAM_EPS, OptResult, kept_cells, prune_cells,
    )
    from persuade_ot.power_diagram import DiagramParams, hard_assign

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
    work = Workspace()  # the kernel's arrays, reused every step

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
    kept = kept_cells(report_before.cells, hard_assign(best_params, grid))
    pruned = prune_cells(best_params, kept)
    report_after = report_before

    if not kept.all():
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
        hard_value=hard_objective(pruned, grid, obj.payoff),
        assignment=hard_assign(pruned, grid),
        stopped_early=stopped_early,
    )



def column_by_column_table(raw, cfg, out_dir):
    """The `table` command with each sweep column solved on its own, one
    restart at a time (sequential_optimize) and its hard value from
    ``hard_objective``, which equals the winner's own: the run that the fused
    columns of ``cli.cmd_table`` must reproduce file for file. Same signature
    as the CLI's commands."""
    from dataclasses import replace

    from persuade_ot import cli
    from persuade_ot.benchmarks import (
        BenchmarkRow, best_lloyd_revenue, full_info_revenue, improvement_table, no_info_revenue,
    )
    from persuade_ot.objective import hard_objective
    from persuade_ot.optimizer import init_sites
    from persuade_ot.power_diagram import hard_assign

    rows, summaries = [], []
    for name, value, row_cfg in cli._market_rows(raw, cfg, "table"):
        grid, obj, opt = cli.build_scenario(row_cfg)
        runs = []
        for k in range(row_cfg.restarts):
            o = replace(opt, seed=opt.seed + k)
            result = sequential_optimize(init_sites(o.n_init, grid, o.seed), grid, obj, o)
            runs.append((hard_objective(result.params, grid, obj.payoff), result))
        top = max(hard for hard, _ in runs)
        hard, best = min(
            (run for run in runs if run[0] >= top - cli.RESTART_TIE_RTOL * abs(top)),
            key=lambda run: (run[1].effective_n, run[1].seed_used),
        )
        assert hard == best.hard_value
        r_noinfo = no_info_revenue(row_cfg.market, grid)
        r_lloyd = best_lloyd_revenue(best.effective_n, row_cfg.market, grid, row_cfg.optimizer.seed,
                                     row_cfg.lloyd_tries)
        r_fullinfo = full_info_revenue(row_cfg.market, grid)
        row = BenchmarkRow(name, float(value), hard, r_noinfo, r_lloyd, r_fullinfo,
                           best.effective_n, best.seed_used)
        rows.append(row)
        cli.export_diagram(best.params, grid, hard_assign(best.params, grid), out_dir,
                           f"diagram_{row.param}")
        summary = cli._result_summary(best, row_cfg, obj, opt)
        summary["param"] = row.param
        summaries.append(summary)
    print(improvement_table(rows))
    cli.write_table_csv(rows, out_dir / "table.csv")
    cli._write_json(out_dir / "result.json", summaries)
    return 0
