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
