"""Dense references shared by the tests."""

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
