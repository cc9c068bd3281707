import warnings

import numpy as np
import pytest

from persuade_ot import (
    ConvergenceError,
    DensitySpec,
    DiagramParams,
    EntropicConfig,
    GridMeasure,
    build_grid,
    discretize_density,
    hard_assign,
    sinkhorn_dual_solve,
    soft_partition,
)
from persuade_ot.entropic import chi_kernel
from reference import sq_dists


def c_transform(
    params: DiagramParams,
    point: np.ndarray,
    cfg: EntropicConfig,
    density_value: float,
) -> float | np.ndarray:
    """Regularized C-transform of the weights at a point.

    Returns eps*log(density) - eps*log sum_j exp((g_j - |y - x_j|^2)/eps),
    the soft analogue of min_j(|y - x_j|^2 - g_j). Accepts a single point
    (shape (2,)) or a batch (k, 2); density_value must be positive and may
    broadcast against the batch.
    """
    dens = np.asarray(density_value, dtype=float)
    if np.any(dens <= 0.0):
        raise ValueError("density_value must be positive")
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    eps = cfg.epsilon
    logits = (params.weights[:, None] - sq_dists(params.sites, pts)) / eps
    top = logits.max(axis=0)
    lse = top + np.log(np.exp(logits - top[None, :]).sum(axis=0))
    out = eps * np.log(dens) - eps * lse
    return float(out[0]) if single and out.ndim > 0 and out.size == 1 else out


def dual_value(
    params: DiagramParams,
    target_masses: np.ndarray,
    grid: GridMeasure,
    cfg: EntropicConfig,
) -> float:
    """Regularized dual objective D^eps at the given weights.

    D^eps[g] = sum_alpha nu_alpha * g^{C,eps}(y_alpha) + g . targets - eps,
    with the grid density nu_alpha / cell_area. Its partial derivative in
    g_i is target_i - m_i^eps, which is what sinkhorn_dual_solve drives to
    zero.
    """
    targets = np.asarray(target_masses, dtype=float)
    live = grid.masses > 0.0
    dens = grid.masses[live] / grid.cell_area
    gc = c_transform(params, grid.centers[live], cfg, dens)
    return float(grid.masses[live] @ gc + params.weights @ targets - cfg.epsilon)


def soft_partition_grads(
    params: DiagramParams, grid: GridMeasure, cfg: EntropicConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Dense derivative tensors of the soft memberships.

    Returns (dchi_dx, dchi_dg) with

        dchi_dg[k, j, alpha]    = -(1/eps) (chi_j - delta_kj) chi_k
        dchi_dx[k, j, alpha, :] = (2 (x_k - y_alpha)/eps) (chi_j - delta_kj) chi_k

    evaluated at each grid point. These are O(n^2 M^2) tensors intended for
    verification at small sizes; the objective gradient uses a factored
    assembly instead and never materializes them.
    """
    part, _ = soft_partition(params, grid, cfg)
    chi = part.chi
    n, p = chi.shape
    eps = cfg.epsilon
    delta = np.eye(n)
    # factor[k, j, alpha] = (chi_j - delta_kj) * chi_k
    factor = (chi[None, :, :] - delta[:, :, None]) * chi[:, None, :]
    dchi_dg = -factor / eps
    diff = params.sites[:, None, :] - grid.centers[None, :, :]  # x_k - y_alpha
    dchi_dx = (2.0 / eps) * factor[:, :, :, None] * diff[:, None, :, :]
    return dchi_dx, dchi_dg


def unit_grid(res):
    return discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))


def random_params(rng, n):
    return DiagramParams(
        sites=rng.uniform(0.05, 0.95, size=(n, 2)),
        weights=0.2 * rng.normal(size=n),
    )


def test_single_cell_soft_partition():
    grid = unit_grid(16)
    part, stats = soft_partition(
        DiagramParams(sites=[(0.3, 0.3)], weights=[0.0]), grid, EntropicConfig(0.1)
    )
    assert np.allclose(part.chi, 1.0)
    assert np.allclose(stats.masses, (1.0,))
    assert np.allclose(stats.barycenters[0], (0.5, 0.5), atol=1e-12)


def test_symmetric_soft_masses():
    grid = unit_grid(64)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.0, 0.0])
    for eps in (0.01, 0.1, 1.0):
        part, stats = soft_partition(params, grid, EntropicConfig(eps))
        assert np.allclose(stats.masses, (0.5, 0.5), atol=1e-12)
        mid = np.isclose(grid.centers[:, 0], 0.5)
        if mid.any():
            assert np.allclose(part.chi[:, mid], 0.5, atol=1e-12)


def test_two_point_logit_oracle():
    # logit gap at (.25,.25) for sites (.25,.25) and (.75,.75) with eps=1 is 0.5
    grid = unit_grid(2)
    params = DiagramParams(sites=[(0.25, 0.25), (0.75, 0.75)], weights=[0.0, 0.0])
    part, _ = soft_partition(params, grid, EntropicConfig(1.0))
    expected = 1.0 / (1.0 + np.exp(-0.5))
    assert abs(part.chi[0, 0] - expected) < 1e-12


def test_partition_of_unity():
    rng = np.random.default_rng(2)
    grid = unit_grid(32)
    for _ in range(10):
        params = random_params(rng, rng.integers(1, 8))
        part, stats = soft_partition(params, grid, EntropicConfig(rng.uniform(0.005, 0.5)))
        assert np.max(np.abs(part.chi.sum(axis=0) - 1.0)) < 1e-12
        assert abs(stats.masses.sum() - 1.0) < 1e-12
        assert np.all(stats.masses > 0)


def test_soft_shift_invariance():
    rng = np.random.default_rng(4)
    grid = unit_grid(32)
    params = random_params(rng, 5)
    cfg = EntropicConfig(0.05)
    base, _ = soft_partition(params, grid, cfg)
    for lam in (-7.0, 3.2):
        shifted, _ = soft_partition(
            DiagramParams(sites=params.sites, weights=params.weights + lam), grid, cfg
        )
        assert np.max(np.abs(base.chi - shifted.chi)) < 1e-12


def test_barycenters_inside_bounds():
    rng = np.random.default_rng(6)
    grid = unit_grid(24)
    for _ in range(5):
        params = random_params(rng, 4)
        _, stats = soft_partition(params, grid, EntropicConfig(0.1))
        assert np.all(stats.barycenters >= 0.0) and np.all(stats.barycenters <= 1.0)


def test_c_transform_single_site():
    params = DiagramParams(sites=[(0.2, 0.6)], weights=[0.7])
    cfg = EntropicConfig(0.3)
    y = np.array([0.5, 0.1])
    val = c_transform(params, y, cfg, density_value=1.0)
    assert abs(val - (((y - [0.2, 0.6]) ** 2).sum() - 0.7)) < 1e-12


def test_c_transform_softmin_sandwich():
    rng = np.random.default_rng(8)
    params = random_params(rng, 6)
    cfg = EntropicConfig(0.2)
    for _ in range(20):
        y = rng.uniform(0, 1, size=2)
        val = c_transform(params, y, cfg, density_value=1.0)
        hard = np.min(((y - params.sites) ** 2).sum(axis=1) - params.weights)
        assert hard - cfg.epsilon * np.log(6) - 1e-12 <= val <= hard + 1e-12


def test_c_transform_hard_limit():
    rng = np.random.default_rng(10)
    params = random_params(rng, 4)
    y = np.array([0.42, 0.58])
    hard = np.min(((y - params.sites) ** 2).sum(axis=1) - params.weights)
    gaps = [
        abs(c_transform(params, y, EntropicConfig(eps), density_value=1.0) - hard)
        for eps in (1e-1, 1e-2, 1e-3)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_c_transform_rejects_bad_density():
    params = DiagramParams(sites=[(0.5, 0.5)], weights=[0.0])
    with pytest.raises(ValueError):
        c_transform(params, np.array([0.1, 0.1]), EntropicConfig(0.1), density_value=0.0)


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        EntropicConfig(0.0)
    with pytest.raises(ValueError):
        EntropicConfig(-0.5)


def test_sinkhorn_symmetric():
    grid = unit_grid(32)
    sites = np.array([(0.25, 0.5), (0.75, 0.5)])
    g = sinkhorn_dual_solve(sites, np.array([0.5, 0.5]), grid, EntropicConfig(0.05), tol=1e-10)
    assert abs(g[1] - g[0]) < 1e-9


def test_sinkhorn_single_cell():
    grid = unit_grid(16)
    g = sinkhorn_dual_solve(np.array([(0.3, 0.3)]), np.array([1.0]), grid, EntropicConfig(0.1), tol=1e-12)
    assert np.allclose(g, 0.0)


def test_sinkhorn_self_consistency():
    grid = unit_grid(64)
    rng = np.random.default_rng(12)
    sites = rng.uniform(0.1, 0.9, size=(3, 2))
    targets = np.array([0.2, 0.3, 0.5])
    cfg = EntropicConfig(0.05)
    g = sinkhorn_dual_solve(sites, targets, grid, cfg, tol=1e-8)
    assert g[0] == 0.0
    _, stats = soft_partition(DiagramParams(sites=sites, weights=g), grid, cfg)
    assert np.max(np.abs(stats.masses - targets)) < 1e-8


def test_sinkhorn_site_far_outside_grid():
    # the far site's soft mass underflows to zero at g = 0; its update still
    # raises the weight by a finite step, with no warning from log(0)
    grid = unit_grid(32)
    sites = np.array([(0.25, 0.5), (0.75, 0.5), (30.0, -4.0)])
    cfg = EntropicConfig(0.05)
    assert chi_kernel(DiagramParams(sites, np.zeros(3)), grid, cfg).moments()[0][2] == 0.0
    targets = np.array([0.4, 0.4, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = sinkhorn_dual_solve(sites, targets, grid, cfg, tol=1e-8)
    assert np.all(np.isfinite(g))
    _, stats = soft_partition(DiagramParams(sites=sites, weights=g), grid, cfg)
    assert np.max(np.abs(stats.masses - targets)) < 1e-8


def test_sinkhorn_budget_exceeded():
    grid = unit_grid(16)
    sites = np.array([(0.2, 0.2), (0.8, 0.8)])
    with pytest.raises(ConvergenceError):
        sinkhorn_dual_solve(sites, np.array([0.6, 0.4]), grid, EntropicConfig(0.05),
                            tol=1e-14, max_iters=3)


@pytest.mark.parametrize("targets, tol, match", [
    ([0.5, np.nan], 1e-8, "positive"),
    ([1.2, -0.2], 1e-8, "positive"),
    ([1.0], 1e-8, "one target mass per site"),
    ([0.5, 0.4], 1e-8, "sum to one"),
    ([0.5, 0.5], 0.0, "tol"),
    ([0.5, 0.5], np.nan, "tol"),
], ids=["nan-target", "negative-target", "wrong-shape", "sum-not-one", "tol-zero", "tol-nan"])
def test_sinkhorn_rejects_bad_input(targets, tol, match):
    sites = np.array([(0.25, 0.5), (0.75, 0.5)])
    with pytest.raises(ValueError, match=match):
        sinkhorn_dual_solve(sites, np.array(targets), unit_grid(8), EntropicConfig(0.05), tol=tol, max_iters=3)


def test_dual_value_maximized_at_solution():
    # the solved weights should beat nearby perturbations in the dual
    grid = unit_grid(32)
    sites = np.array([(0.3, 0.4), (0.7, 0.6), (0.2, 0.8)])
    targets = np.array([0.3, 0.45, 0.25])
    cfg = EntropicConfig(0.08)
    g = sinkhorn_dual_solve(sites, targets, grid, cfg, tol=1e-10)
    params = DiagramParams(sites=sites, weights=g)
    base = dual_value(params, targets, grid, cfg)
    rng = np.random.default_rng(14)
    for _ in range(5):
        bump = rng.normal(scale=0.02, size=3)
        bumped = DiagramParams(sites=sites, weights=g + bump)
        assert dual_value(bumped, targets, grid, cfg) <= base + 1e-10


def test_grads_single_cell_zero():
    grid = unit_grid(8)
    params = DiagramParams(sites=[(0.5, 0.5)], weights=[0.0])
    dchi_dx, dchi_dg = soft_partition_grads(params, grid, EntropicConfig(0.1))
    assert np.allclose(dchi_dx, 0.0)
    assert np.allclose(dchi_dg, 0.0)


def test_grads_preserve_unity():
    rng = np.random.default_rng(16)
    grid = unit_grid(16)
    params = random_params(rng, 4)
    dchi_dx, dchi_dg = soft_partition_grads(params, grid, EntropicConfig(0.1))
    # summing over the output cell index must give zero for every perturbed k
    assert np.max(np.abs(dchi_dg.sum(axis=1))) < 1e-14
    assert np.max(np.abs(dchi_dx.sum(axis=1))) < 1e-13


def test_grads_match_finite_differences():
    rng = np.random.default_rng(18)
    grid = unit_grid(32)
    params = random_params(rng, 3)
    cfg = EntropicConfig(0.1)
    dchi_dx, dchi_dg = soft_partition_grads(params, grid, cfg)
    step = 1e-5

    def chi_at(sites, weights):
        part, _ = soft_partition(DiagramParams(sites=sites, weights=weights), grid, cfg)
        return part.chi

    for k in range(3):
        w_hi = params.weights.copy()
        w_lo = params.weights.copy()
        w_hi[k] += step
        w_lo[k] -= step
        fd = (chi_at(params.sites, w_hi) - chi_at(params.sites, w_lo)) / (2 * step)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(dchi_dg[k] - fd)) / scale < 1e-5
        for axis in range(2):
            s_hi = params.sites.copy()
            s_lo = params.sites.copy()
            s_hi[k, axis] += step
            s_lo[k, axis] -= step
            fd = (chi_at(s_hi, params.weights) - chi_at(s_lo, params.weights)) / (2 * step)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(dchi_dx[k, :, :, axis] - fd)) / scale < 1e-5


def l1_gap(params, grid, eps):
    part, _ = soft_partition(params, grid, EntropicConfig(eps))
    labels = hard_assign(params, grid).labels
    hard = np.zeros_like(part.chi)
    hard[labels, np.arange(grid.centers.shape[0])] = 1.0
    return float((np.abs(part.chi - hard).sum(axis=0) * grid.masses).sum())


def test_soft_partition_hard_limit():
    rng = np.random.default_rng(20)
    grid = unit_grid(64)
    for _ in range(5):
        params = random_params(rng, 4)
        gaps = [l1_gap(params, grid, eps) for eps in (0.1, 0.01, 0.001)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_soft_mass_convergence_bound():
    # |soft mass - hard mass| is controlled by the L1 partition gap
    rng = np.random.default_rng(22)
    grid = unit_grid(64)
    for _ in range(5):
        params = random_params(rng, 3)
        hard = hard_assign(params, grid)
        for eps in (0.05, 0.01):
            _, soft = soft_partition(params, grid, EntropicConfig(eps))
            gap = l1_gap(params, grid, eps)
            assert np.max(np.abs(soft.masses - hard.masses)) <= gap + 1e-12
