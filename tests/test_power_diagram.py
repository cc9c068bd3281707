import numpy as np
import pytest

from persuade_ot import (
    DensitySpec,
    DiagramParams,
    GridMeasure,
    build_grid,
    discretize_density,
    hard_assign,
    hard_cell_stats,
    lloyd_solve,
    lloyd_step,
)
from persuade_ot.power_diagram import sq_dists


def quantization_energy(params: DiagramParams, grid: GridMeasure) -> float:
    """Sum over grid points of nu_alpha |y_alpha - x_label(alpha)|^2."""
    a = hard_assign(params, grid)
    diff = grid.centers - params.sites[a.labels]
    return float(grid.masses @ np.einsum("pk,pk->p", diff, diff))


def dense_labels(params: DiagramParams, grid: GridMeasure) -> np.ndarray:
    """Reference labels: argmin over the dense (n, M^2) power-cost matrix."""
    return np.argmin(sq_dists(params.sites, grid.centers) - params.weights[:, None], axis=0)


def unit_grid(res):
    return discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))


def test_single_site_labels():
    grid = unit_grid(8)
    params = DiagramParams(sites=[(0.3, 0.7)], weights=[0.0])
    a = hard_assign(params, grid)
    assert np.all(a.labels == 0)


def test_symmetric_split():
    grid = unit_grid(64)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.0, 0.0])
    stats = hard_cell_stats(hard_assign(params, grid), grid)
    assert np.allclose(stats.masses, (0.5, 0.5), atol=1e-12)
    assert np.allclose(stats.barycenters[0], (0.25, 0.5), atol=grid.spacing[0])
    assert np.allclose(stats.barycenters[1], (0.75, 0.5), atol=grid.spacing[0])


def test_weighted_bisector():
    # |y-x1|^2 - 0.25 = |y-x2|^2 puts the boundary at v1 = 0.75
    grid = unit_grid(256)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.25, 0.0])
    stats = hard_cell_stats(hard_assign(params, grid), grid)
    assert abs(stats.masses[0] - 0.75) <= grid.spacing[0]
    assert abs(stats.masses[1] - 0.25) <= grid.spacing[0]


def test_duplicate_sites_rejected():
    with pytest.raises(ValueError):
        DiagramParams(sites=[(0.5, 0.5), (0.5, 0.5)], weights=[0.0, 0.0])


def test_single_cell_stats():
    grid = unit_grid(32)
    params = DiagramParams(sites=[(0.1, 0.9)], weights=[0.0])
    stats = hard_cell_stats(hard_assign(params, grid), grid)
    assert np.allclose(stats.masses, (1.0,))
    assert np.allclose(stats.barycenters[0], (0.5, 0.5), atol=1e-12)


def test_dominated_cell_flagged_empty():
    grid = unit_grid(32)
    params = DiagramParams(
        sites=[(0.25, 0.5), (0.75, 0.5), (40.0, 40.0)],
        weights=[0.0, 0.0, -1000.0],
    )
    stats = hard_cell_stats(hard_assign(params, grid), grid)
    assert not stats.support[2]
    assert np.isnan(stats.barycenters[2]).all()
    assert abs(stats.masses[:2].sum() - 1.0) < 1e-12


def test_tie_break_lowest_index():
    grid = unit_grid(9)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.0, 0.0])
    labels = hard_assign(params, grid).labels
    mid = np.isclose(grid.centers[:, 0], 0.5)
    assert np.all(labels[mid] == 0)


def test_labels_match_dense_argmin():
    # n = 1..19 on odd and even M; sites on grid points, inside and outside
    # the box, and mirror-image pairs about a grid column; zero and random
    # weights. On the box [0, M]^2 every coordinate below is exact, so the
    # mirror pairs tie exactly on that column.
    rng = np.random.default_rng(23)
    ties = 0
    parities = set()
    for trial in range(240):
        res = int(rng.integers(10, 41))
        parities.add(res % 2)
        n = 1 + trial % 19
        if trial % 2:
            bounds = ((-0.5, 1.5), (0.25, 1.0))
        else:
            bounds = ((0.0, float(res)), (0.0, float(res)))
        grid = build_grid(bounds, res)
        (a1, b1), (a2, b2) = bounds
        kind = (trial // 2) % 3
        if kind == 0:
            sites = grid.centers[rng.choice(res * res, size=n, replace=False)]
        elif kind == 1:
            w, h = b1 - a1, b2 - a2
            sites = rng.uniform((a1 - w, a2 - h), (b1 + w, b2 + h), size=(n, 2))
        else:
            # pairs (cx - d, y), (cx + d, y) about grid column cx, one row each
            hx, hy = grid.spacing
            pairs = (n + 1) // 2
            cx = a1 + hx * (rng.integers(0, res, size=pairs) + 0.5)
            d = hx * rng.integers(1, res, size=pairs) / 2.0
            y = a2 + hy * (rng.choice(res, size=pairs, replace=False) + 0.5)
            sites = np.stack([np.column_stack([cx - d, y]), np.column_stack([cx + d, y])],
                             axis=1).reshape(-1, 2)[:n]
        if trial % 4 < 2:
            weights = np.zeros(n)
        else:
            # equal weights within each mirror pair keep its ties
            weights = np.repeat(0.05 * (b1 - a1) ** 2 * rng.normal(size=n), 2)[:n]
        params = DiagramParams(sites, weights)
        ref = dense_labels(params, grid)
        assert np.array_equal(hard_assign(params, grid).labels, ref), trial
        costs = sq_dists(params.sites, grid.centers) - params.weights[:, None]
        ties += int(((costs == costs.min(axis=0)).sum(axis=0) > 1).sum())
    assert ties > 0 and parities == {0, 1}


def test_shift_invariance_exact():
    grid = unit_grid(33)
    rng = np.random.default_rng(3)
    sites = rng.uniform(0, 1, size=(5, 2))
    g = rng.normal(size=5)
    base = hard_assign(DiagramParams(sites=sites, weights=g), grid).labels
    for lam in (-7.0, 3.2):
        shifted = hard_assign(DiagramParams(sites=sites, weights=g + lam), grid).labels
        assert np.array_equal(base, shifted)


def test_partition_mass_conservation():
    rng = np.random.default_rng(11)
    grid = unit_grid(32)
    for _ in range(20):
        n = rng.integers(1, 7)
        params = DiagramParams(sites=rng.uniform(0, 1, size=(n, 2)), weights=rng.normal(size=n))
        stats = hard_cell_stats(hard_assign(params, grid), grid)
        assert abs(stats.masses.sum() - 1.0) < 1e-12


def test_cells_convex_along_grid_segments():
    # points between two same-labeled points with strict argmin share the label
    rng = np.random.default_rng(5)
    grid = unit_grid(64)
    params = DiagramParams(sites=rng.uniform(0, 1, size=(4, 2)), weights=0.1 * rng.normal(size=4))
    labels = hard_assign(params, grid).labels
    M = 64
    for _ in range(200):
        iy = rng.integers(0, M)
        ix1, ix2 = sorted(rng.integers(0, M, size=2))
        a, b = iy * M + ix1, iy * M + ix2
        if labels[a] != labels[b]:
            continue
        row = labels[iy * M + ix1: iy * M + ix2 + 1]
        assert np.all(row == labels[a])


def test_lloyd_single_cell():
    grid = unit_grid(32)
    params, stats = lloyd_solve(1, grid, seed=0)
    assert np.allclose(params.sites[0], (0.5, 0.5), atol=1e-9)
    assert np.allclose(params.weights, 0.0)


def test_lloyd_two_cells_reflection():
    grid = unit_grid(64)
    params, stats = lloyd_solve(2, grid, seed=1, tol=1e-10)
    mid = params.sites.mean(axis=0)
    assert np.allclose(mid, (0.5, 0.5), atol=1e-6)
    # converged: sites sit on their cell barycenters
    assert np.allclose(params.sites, stats.barycenters, atol=1e-8)


def test_lloyd_block_fixed_point():
    grid = unit_grid(64)
    blocks = np.array([(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)])
    moved, shift = lloyd_step(blocks, grid)
    assert shift < 1e-12
    assert np.allclose(moved, blocks)


def test_lloyd_energy_decreases():
    grid = unit_grid(32)
    rng = np.random.default_rng(9)
    sites = rng.uniform(0, 1, size=(5, 2))
    energies = [quantization_energy(DiagramParams(sites=sites, weights=np.zeros(5)), grid)]
    for _ in range(15):
        sites, _ = lloyd_step(sites, grid)
        energies.append(quantization_energy(DiagramParams(sites=sites, weights=np.zeros(5)), grid))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)


def test_lloyd_deterministic():
    grid = unit_grid(32)
    p1, _ = lloyd_solve(4, grid, seed=42)
    p2, _ = lloyd_solve(4, grid, seed=42)
    assert np.array_equal(p1.sites, p2.sites)
