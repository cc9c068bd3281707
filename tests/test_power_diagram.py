import numpy as np
import pytest

from persuade_ot import (
    DensitySpec,
    DiagramParams,
    GridMeasure,
    build_grid,
    discretize_density,
    hard_assign,
    lloyd_solve,
)
from persuade_ot import power_diagram
from persuade_ot.power_diagram import _range_cell_sums, _row_ranges
from reference import dense_lloyd, sq_dists


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
    stats = hard_assign(params, grid)
    assert np.allclose(stats.masses, (0.5, 0.5), atol=1e-12)
    assert np.allclose(stats.barycenters[0], (0.25, 0.5), atol=grid.spacing[0])
    assert np.allclose(stats.barycenters[1], (0.75, 0.5), atol=grid.spacing[0])


def test_weighted_bisector():
    # |y-x1|^2 - 0.25 = |y-x2|^2 puts the boundary at v1 = 0.75
    grid = unit_grid(256)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.25, 0.0])
    stats = hard_assign(params, grid)
    assert abs(stats.masses[0] - 0.75) <= grid.spacing[0]
    assert abs(stats.masses[1] - 0.25) <= grid.spacing[0]


def test_duplicate_sites_rejected():
    with pytest.raises(ValueError):
        DiagramParams(sites=[(0.5, 0.5), (0.5, 0.5)], weights=[0.0, 0.0])


def test_single_cell_stats():
    grid = unit_grid(32)
    params = DiagramParams(sites=[(0.1, 0.9)], weights=[0.0])
    stats = hard_assign(params, grid)
    assert np.allclose(stats.masses, (1.0,))
    assert np.allclose(stats.barycenters[0], (0.5, 0.5), atol=1e-12)


def test_dominated_cell_flagged_empty():
    grid = unit_grid(32)
    params = DiagramParams(
        sites=[(0.25, 0.5), (0.75, 0.5), (40.0, 40.0)],
        weights=[0.0, 0.0, -1000.0],
    )
    stats = hard_assign(params, grid)
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
        stats = hard_assign(params, grid)
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
    params, stats = lloyd_solve(2, grid, seed=1)
    mid = params.sites.mean(axis=0)
    assert np.allclose(mid, (0.5, 0.5), atol=1e-6)
    # converged: sites sit on their cell barycenters
    assert np.allclose(params.sites, stats.barycenters, atol=1e-8)


def test_lloyd_block_fixed_point():
    # one Lloyd move sends each site to the barycenter of its Voronoi cell
    grid = unit_grid(64)
    blocks = np.array([(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)])
    moved = hard_assign(DiagramParams(blocks, np.zeros(4)), grid).barycenters
    assert np.max(np.linalg.norm(moved - blocks, axis=1)) < 1e-12


def test_lloyd_energy_decreases():
    grid = unit_grid(32)
    energies = [
        quantization_energy(lloyd_solve(5, grid, seed=9, max_iters=k)[0], grid) for k in range(16)
    ]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)


def test_lloyd_reseeds_an_empty_cell(monkeypatch):
    import persuade_ot.power_diagram as power_diagram

    base = build_grid(((0.0, 1.0), (0.0, 1.0)), 4)
    masses = np.zeros(16)
    masses[[2, 3, 4, 5, 7, 8, 9]] = np.array([7, 5, 8, 2, 3, 7, 3]) / 35
    grid = GridMeasure(base.bounds, 4, base.centers, masses)
    supports = []
    real = power_diagram.hard_cell_stats

    def spy(labels, n, grid):
        stats = real(labels, n, grid)
        supports.append(bool(stats.support.all()))
        return stats

    monkeypatch.setattr(power_diagram, "hard_cell_stats", spy)
    params, stats = lloyd_solve(3, grid, seed=0)
    # the first move empties a cell, and exactly one labelling sees it empty
    assert supports.count(False) == 1
    assert stats.support.all()
    assert np.array_equal(params.sites, stats.barycenters)
    expected = np.array([(15, 59), (91, 21), (45, 63)]) / 120
    assert np.allclose(params.sites, expected, rtol=0.0, atol=1e-12)
    assert np.allclose(stats.masses, np.array([3, 3, 1]) / 7, rtol=0.0, atol=1e-12)


def empty_cell_prior():
    # the 4x4 prior of test_lloyd_reseeds_an_empty_cell: zero mass off 7 points
    base = build_grid(((0.0, 1.0), (0.0, 1.0)), 4)
    masses = np.zeros(16)
    masses[[2, 3, 4, 5, 7, 8, 9]] = np.array([7, 5, 8, 2, 3, 7, 3]) / 35
    return GridMeasure(base.bounds, 4, base.centers, masses)


def assert_same_solve(got, ref, context):
    (params, stats), (ref_params, ref_stats) = got, ref
    assert np.array_equal(params.sites, ref_params.sites), context
    assert np.array_equal(stats.masses, ref_stats.masses), context
    assert np.array_equal(stats.barycenters, ref_stats.barycenters), context


def test_lloyd_equals_dense_reference_bit_for_bit():
    # the range passes change the cost of a solve, never its result: every
    # move budget 0..15 (and the default) on odd and even grids, both table
    # boxes, n = 1..12, and the zero-mass prior whose first move empties a cell
    grids = [(empty_cell_prior(), range(1, 8), (0, 1))]
    for m in (7, 16):
        for lo in (0.0, 0.25):
            grids.append((build_grid(((lo, 2.0), (lo, 2.0)), m), range(1, 13), (0,)))
    for grid, ns, seeds in grids:
        for n in ns:
            for seed in seeds:
                for budget in [*range(16), 200]:
                    assert_same_solve(
                        lloyd_solve(n, grid, seed, max_iters=budget),
                        dense_lloyd(n, grid, seed, max_iters=budget),
                        (grid.resolution, grid.bounds, n, seed, budget),
                    )
    for m in (128, 144):
        for lo in (0.0, 0.25):
            grid = build_grid(((lo, 2.0), (lo, 2.0)), m)
            for n, seed in ((1, 0), (4, 1), (8, 2), (12, 3)):
                for budget in (0, 1, 2, 7, 15, 200):
                    assert_same_solve(
                        lloyd_solve(n, grid, seed, max_iters=budget),
                        dense_lloyd(n, grid, seed, max_iters=budget),
                        (m, lo, n, seed, budget),
                    )


def test_lloyd_leaves_most_passes_to_the_ranges(monkeypatch):
    # pass counts against those when the ranges came in: more dense
    # labellings means work moved back to them, and more than 5 % more
    # range passes means passes that move nothing. The dense counts are two
    # per solve, since a solve returns on the first range pass that finds the
    # cells just labelled, and pairs of sites on one column take range passes
    calls = {"dense": 0, "range": 0}
    for name, key in (("_power_labels", "dense"), ("_range_cell_sums", "range")):
        def counted(*args, _real=getattr(power_diagram, name), _key=key):
            calls[_key] += 1
            return _real(*args)
        monkeypatch.setattr(power_diagram, name, counted)
    # the table baselines at 144^2: n = 4, the six boxes of the tables, seeds 0-9
    for lo in (0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
        grid = build_grid(((lo, 2.0), (lo, 2.0)), 144)
        for seed in range(10):
            lloyd_solve(4, grid, seed)
    assert calls["dense"] <= 120 and calls["range"] <= 1.05 * 1026
    # solves whose range passes reach the fixed point, which the above never do
    calls.update(dense=0, range=0)
    grid = build_grid(((0.0, 2.0), (0.0, 2.0)), 128)
    for seed in range(3):
        lloyd_solve(3, grid, seed)
    assert calls["dense"] <= 6 and calls["range"] <= 1.05 * 100
    # eight cells, whose solves hold pairs of sites on one column for many passes
    calls.update(dense=0, range=0)
    for seed in range(5):
        lloyd_solve(8, grid, seed)
    assert calls["dense"] <= 14 and calls["range"] <= 1.05 * 245


def assert_range_sums_are_dense(sites, grid):
    stats = hard_assign(DiagramParams(sites, np.zeros(len(sites))), grid)
    ranged = _range_cell_sums(sites, _row_ranges(grid))
    assert ranged is not None
    sums = ranged[0]
    moments = stats.masses[:, None] * stats.barycenters
    assert np.allclose(sums[0], stats.masses, rtol=1e-12, atol=0.0)
    assert np.allclose(sums[1:].T, moments, rtol=1e-12, atol=1e-12 * np.abs(moments).max())


def test_range_sums_match_dense_cell_stats():
    # masses and first moments from per-row ranges against the full-grid
    # labelling, on random Voronoi diagrams with sites in and around the box
    rng = np.random.default_rng(31)
    boxes = [((0.0, 2.0), (0.0, 2.0)), ((-1.0, 2.0), (0.5, 1.25)), ((0.25, 2.0), (0.25, 2.0))]
    tilted = DensitySpec("callable", lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1] ** 2)
    ranged = empty = 0
    for trial in range(180):
        bounds = boxes[trial % 3]
        grid = build_grid(bounds, int(rng.integers(5, 60)))
        if trial % 2:
            grid = discretize_density(tilted, grid)
        (a1, b1), (a2, b2) = bounds
        w, h = b1 - a1, b2 - a2
        n = 1 + trial % 12
        if trial % 4 < 2:
            sites = rng.uniform((a1, a2), (b1, b2), size=(n, 2))
        else:
            sites = rng.uniform((a1 - w, a2 - h), (b1 + w, b2 + h), size=(n, 2))
        stats = hard_assign(DiagramParams(sites, np.zeros(n)), grid)
        if not stats.support.all():
            assert _range_cell_sums(sites, _row_ranges(grid)) is None, trial
            empty += 1
            continue
        assert_range_sums_are_dense(sites, grid)
        ranged += 1
    assert ranged >= 90 and empty >= 40


def test_range_pass_takes_sites_on_one_column_row_by_row():
    # the first two sites share an abscissa, so their bisector is the grid
    # line y = 0.5, and each takes the rows on its side
    grid = unit_grid(16)
    sites = np.array([(0.40625, 0.25), (0.40625, 0.75), (0.8, 0.5)])
    assert_range_sums_are_dense(sites, grid)
    # abscissae that nearly tie still go to the dense labelling
    sites[1, 0] += 1e-13
    assert _range_cell_sums(sites, _row_ranges(grid)) is None
    sites[1, 0] += 1e-6
    assert _range_cell_sums(sites, _row_ranges(grid)) is not None
    # so does a bisector through the grid points of row 8, where the two tie
    sites = np.array([(0.40625, 0.28125), (0.40625, 0.78125), (0.8, 0.5)])
    costs = sq_dists(sites, grid.centers)
    assert np.count_nonzero(costs[0] == costs[1]) == 16
    assert _range_cell_sums(sites, _row_ranges(grid)) is None


@pytest.mark.parametrize("m", [16, 17, 144])
def test_range_pass_matches_dense_on_symmetric_two_by_two_layouts(m):
    # four sites at the corners of a rectangle: every pair shares an abscissa
    # or an ordinate, as at the symmetric fixed points of Lloyd on a square
    ties = 0
    for lo in (0.0, 0.25, 1.25):
        grid = build_grid(((lo, 2.0), (lo, 2.0)), m)
        mid, w = (lo + 2.0) / 2, (2.0 - lo) / 4
        for dx, dy, off in ((w, w, 0.0), (w, 0.7 * w, 0.1 * w), (0.3 * w, w, -0.2 * w)):
            sites = np.array([(mid - dx + off, mid - dy), (mid + dx + off, mid - dy),
                              (mid - dx + off, mid + dy), (mid + dx + off, mid + dy)])
            least = np.sort(sq_dists(sites, grid.centers), axis=0)
            if np.min(least[1] - least[0]) <= 1e-9 * ((2.0 - lo) / 2) ** 2:
                # a grid point on a bisector up to rounding, where the dense
                # labelling breaks the tie
                assert _range_cell_sums(sites, _row_ranges(grid)) is None
                ties += 1
            else:
                assert_range_sums_are_dense(sites, grid)
    # on an odd grid the box's middle row and column hold such points
    assert (ties > 0) == (m % 2 == 1)
    for lo in (0.0, 0.25):
        grid = build_grid(((lo, 2.0), (lo, 2.0)), m)
        for seed in range(4):
            assert_same_solve(lloyd_solve(4, grid, seed), dense_lloyd(4, grid, seed),
                              (m, lo, seed))


def test_range_pass_leaves_an_exact_tie_to_the_dense_labelling():
    # the bisector of the first two sites runs through the grid points in
    # columns 4, 3, 2 of rows 0, 3, 6 exactly: each of those rows holds a tie
    grid = unit_grid(8)
    sites = np.array([(1 / 16, 5 / 16), (13 / 16, 9 / 16), (0.9, 0.95)])
    costs = sq_dists(sites, grid.centers)
    assert np.count_nonzero(costs[0] == costs[1]) == 3
    assert not np.any(costs[2] == costs[:2])
    assert _range_cell_sums(sites, _row_ranges(grid)) is None
    # so is a near tie, where rounding might give the dense labelling the other side
    sites[0] += (1e-13, 0.0)
    assert _range_cell_sums(sites, _row_ranges(grid)) is None
    sites[0] += (1e-4, 0.0)
    assert _range_cell_sums(sites, _row_ranges(grid)) is not None


def three_point_prior():
    # a 4x4 unit grid with mass 1/3 on points 1, 5 and 9 only
    base = build_grid(((0.0, 1.0), (0.0, 1.0)), 4)
    masses = np.zeros(16)
    masses[[1, 5, 9]] = 1.0 / 3.0
    return GridMeasure(base.bounds, 4, base.centers, masses)


def test_lloyd_rejects_more_sites_than_points_with_mass():
    with pytest.raises(ValueError, match="cannot place 4 distinct sites on 3 grid points"):
        lloyd_solve(4, three_point_prior(), seed=0)


def test_lloyd_fills_every_point_with_mass():
    grid = three_point_prior()
    params, stats = lloyd_solve(3, grid, seed=0)
    assert stats.support.all() and np.allclose(stats.masses, 1.0 / 3.0, rtol=0.0, atol=1e-15)
    assert sorted(map(tuple, params.sites)) == sorted(map(tuple, grid.centers[[1, 5, 9]]))


def test_lloyd_deterministic():
    grid = unit_grid(32)
    p1, _ = lloyd_solve(4, grid, seed=42)
    p2, _ = lloyd_solve(4, grid, seed=42)
    assert np.array_equal(p1.sites, p2.sites)
    # a negative move budget makes no move, like a budget of zero
    start, _ = lloyd_solve(4, grid, seed=42, max_iters=0)
    assert np.array_equal(lloyd_solve(4, grid, seed=42, max_iters=-1)[0].sites, start.sites)
