"""Hard Laguerre (power) cells on a grid measure.

Assignment, exact cell masses and barycenters, and Lloyd's centroidal
iteration.

A grid point y belongs to the cell i minimizing the power cost
|y - x_i|^2 - g_i; ties go to the lowest index. On the tensor grid the
squared distance splits into per-axis terms, (gy - x_i2)^2 + (gx - x_i1)^2,
so hard_assign keeps a running minimum over sites of one (M, M) cost array
built from (n, M) offsets, and never forms the (n, M^2) cost matrix. These
are the floating-point operations of the dense squared-distance argmin that
the tests use as the reference, so the labels equal its labels bit for bit.

Lloyd's passes skip even that labelling: a Voronoi cell meets each grid row
in one interval whose ends are affine in the row's coordinate, so per-row
prefix sums of the masses and first moments give its sums in O(n^2 M)
work. Each round of the iteration starts with a dense labelling, and
range passes follow only a dense move; the last range move is redone
densely, so the iteration returns the dense loop's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridMeasure


def _separation_sq(sites: np.ndarray) -> np.ndarray:
    """(n, n) squared pairwise site distances, inf on the diagonal."""
    diff = sites[:, None, :] - sites[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    d2.flat[:: len(d2) + 1] = np.inf  # the diagonal
    return d2


def min_separation(sites: np.ndarray) -> float:
    """Smallest pairwise distance between sites (inf for a single site)."""
    return float(np.sqrt(_separation_sq(sites).min()))


@dataclass(frozen=True)
class DiagramParams:
    """Sites and weights of a power diagram.

    Weights only matter up to a common additive shift. Sites must be
    pairwise distinct or the diagram is ill-defined. ``separation_sq`` is
    the read-only (n, n) matrix of squared site distances with an inf
    diagonal, built once here for the distinctness check and the penalty.
    """

    sites: np.ndarray
    weights: np.ndarray
    separation_sq: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "weights", weights)
        if sites.ndim != 2 or sites.shape[1] != 2:
            raise ValueError(f"sites must have shape (n, 2), got {sites.shape}")
        if sites.shape[0] < 1:
            raise ValueError("need at least one site")
        if weights.shape != (sites.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match {sites.shape[0]} sites"
            )
        if not (np.isfinite(sites).all() and np.isfinite(weights).all()):
            raise ValueError("sites and weights must be finite")
        sep2 = _separation_sq(sites)
        if sep2.min() <= 0.0:
            raise ValueError("sites must be pairwise distinct")
        sep2.flags.writeable = False
        object.__setattr__(self, "separation_sq", sep2)

    @property
    def n(self) -> int:
        return self.sites.shape[0]


def stacked(params: DiagramParams | list, name: str) -> np.ndarray:
    """The named array of one diagram, or of a batch (a list of diagrams with
    one n) stacked along a leading axis."""
    if isinstance(params, DiagramParams):
        return getattr(params, name)
    return np.array([getattr(p, name) for p in params])


@dataclass(frozen=True)
class HardAssignment:
    """Per-grid-point cell labels (0-based argmin indices)."""

    labels: np.ndarray
    n_cells: int


@dataclass(frozen=True)
class CellStats:
    """Masses and barycenters per cell, hard or soft.

    The producer chooses a massless cell's barycenter: NaN for hard cells
    (``hard_cell_stats``), the site for soft cells (``soft_cell_stats``).
    """

    masses: np.ndarray
    barycenters: np.ndarray

    @property
    def support(self) -> np.ndarray:
        """Flags the cells with positive mass."""
        return self.masses > 0.0


def _power_labels(sites: np.ndarray, weights: np.ndarray, grid: GridMeasure) -> np.ndarray:
    """(M^2,) index of the power-cost argmin cell at every grid point."""
    m = grid.resolution
    dx = grid.centers[:m, 0][None, :] - sites[:, 0:1]
    dy = grid.centers[::m, 1][None, :] - sites[:, 1:2]
    dx2 = dx * dx
    dy2 = dy * dy
    best = np.add.outer(dy2[0], dx2[0])
    best -= weights[0]
    labels = np.zeros((m, m), dtype=np.intp)
    cost = np.empty_like(best)
    closer = np.empty(best.shape, dtype=bool)
    for i in range(1, len(weights)):
        np.add.outer(dy2[i], dx2[i], out=cost)
        cost -= weights[i]
        # strictly smaller only: a tie keeps the lower index
        np.less(cost, best, out=closer)
        np.minimum(best, cost, out=best)
        labels[closer] = i
    return labels.ravel()


def hard_assign(params: DiagramParams, grid: GridMeasure) -> HardAssignment:
    """Label each grid point with its power-cost argmin cell.

    Ties break to the lowest cell index, so the assignment is deterministic.
    """
    labels = _power_labels(params.sites, params.weights, grid)
    return HardAssignment(labels=labels, n_cells=params.n)


def hard_cell_stats(assignment: HardAssignment, grid: GridMeasure) -> CellStats:
    """Exact masses and barycenters of the hard cells.

    Empty cells keep mass 0 and a NaN barycenter; they are flagged rather
    than silently zeroed.
    """
    n = assignment.n_cells
    labels = assignment.labels
    nu = grid.masses
    masses = np.bincount(labels, weights=nu, minlength=n)
    sx = np.bincount(labels, weights=grid.first_moments[0], minlength=n)
    sy = np.bincount(labels, weights=grid.first_moments[1], minlength=n)
    support = masses > 0.0
    barycenters = np.full((n, 2), np.nan)
    barycenters[support, 0] = sx[support] / masses[support]
    barycenters[support, 1] = sy[support] / masses[support]
    return CellStats(masses=masses, barycenters=barycenters)


def _row_prefix_sums(grid: GridMeasure) -> np.ndarray:
    """(3, M, M + 1) prefix sums along each grid row of nu, nu*x and nu*y, from 0."""
    m = grid.resolution
    prefix = np.zeros((3, m, m + 1))
    for k, weights in enumerate((grid.masses, *grid.first_moments)):
        np.cumsum(weights.reshape(m, m), axis=1, out=prefix[k, :, 1:])
    return prefix


def _range_cell_sums(sites: np.ndarray, grid: GridMeasure, prefix: np.ndarray):
    """(3, n) masses and first moments of the Voronoi cells, from per-row ranges.

    Site i beats site j on row y on one side of the abscissa
    t_ij(y) = (|s_j|^2 - |s_i|^2 - 2y(b_j - b_i)) / (2(a_j - a_i)), where
    s_j = (a_j, b_j), so cell i meets the row in the columns between the
    largest t over the sites left of it and the smallest over those right
    of it; its sums are differences of ``prefix`` (``_row_prefix_sums``),
    O(n^2 M) work in all. Along a range, i's cost margin over j is
    2|a_j - a_i| times the distance to t_ij, smallest at the range's end
    columns. Returns None, for the dense labelling to decide, where the
    ranges might differ from hard_assign's labels or leave a cell empty:
    two sites with (nearly) equal abscissae, an end-column margin below
    1e-9 of the squared scale (box half-width or farthest site), or ranges
    that do not tile the grid.
    """
    m = grid.resolution
    (x0, x1), (y0, y1) = grid.bounds
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    s = sites - (cx, cy)  # box-centred, so the tolerances scale with the box, not its offset
    scale = max(np.abs(s).max(), (x1 - x0) / 2, (y1 - y0) / 2)
    a, b = s[:, 0], s[:, 1]
    da = a[:, None] - a  # [j, i]: a_j - a_i
    apart = np.abs(da)
    np.fill_diagonal(apart, np.inf)
    apart = apart.min(axis=0)  # from each abscissa to the nearest other
    if apart.min() <= 1e-9 * scale:
        return None
    left, right = (da < 0.0)[:, :, None], (da > 0.0)[:, :, None]
    np.fill_diagonal(da, 1.0)  # a site against itself: masked off by left and right
    sq = a * a + b * b
    hx = (x1 - x0) / m
    # t[j, i, y]: t_ij on row y, in columns from the first grid column
    c0 = ((sq[:, None] - sq) / (2.0 * da) - (grid.centers[0, 0] - cx)) / hx
    c1 = (b[:, None] - b) / (da * hx)
    t = c0[:, :, None] - c1[:, :, None] * (grid.centers[::m, 1] - cy)
    lo = np.where(left, t, -np.inf).max(axis=0)
    ends = np.stack([lo, np.where(right, t, np.inf).min(axis=0)])
    np.clip(ends, -0.5, m - 0.5, out=ends)
    cols = np.ceil(ends).astype(np.intp)  # first column of each range, and one past its last
    count = cols[1] - cols[0]
    live = count > 0
    near = np.abs(ends - np.rint(ends)).min(axis=0)
    if 2.0 * hx * np.min(near * apart[:, None], where=live, initial=np.inf) <= 1e-9 * scale**2:
        return None
    if count.sum(where=live) != m * m:
        return None
    np.maximum(cols[1], cols[0], out=cols[1])
    cols += np.arange(0, m * (m + 1), m + 1)
    ranged = prefix.reshape(3, -1).take(cols, axis=1)
    sums = (ranged[:, 1] - ranged[:, 0]).sum(axis=2)
    return sums if np.all(sums[0] > 0.0) else None


def lloyd_solve(
    n: int, grid: GridMeasure, seed: int, max_iters: int = 200
) -> tuple[DiagramParams, CellStats]:
    """Centroidal Voronoi diagram by Lloyd's fixed-point iteration.

    Sites start at n distinct grid points drawn with probability
    proportional to the grid masses (seeded); weights stay zero. Each round
    labels the grid densely. An empty cell's site (the lowest such index)
    moves to the highest-mass grid point, free of other sites, of the
    largest cell, or a RuntimeError is raised. At the exact fixed point a
    finite grid reaches, or after ``max_iters`` moves, it returns. Else the
    sites move to the barycenters and range passes (``_range_cell_sums``)
    go on until they fail, stop moving or spend the budget; the next round
    redoes their last move densely, so the result is the dense iteration's
    bit for bit. Every returned cell has mass.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    support = np.count_nonzero(grid.masses)
    if n > support:
        raise ValueError(f"cannot place {n} distinct sites on {support} grid points with mass")
    rng = np.random.default_rng(seed)
    sites = grid.centers[rng.choice(len(grid.masses), size=n, replace=False, p=grid.masses)]
    zeros = np.zeros(n)
    prefix = _row_prefix_sums(grid)
    moves = 0
    # each round reseeds, returns or nets a move: up to 4n labellings per move
    for _ in range(4 * n * (max(max_iters, 0) + 1)):
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
            continue
        if moves >= max_iters or np.array_equal(stats.barycenters, sites):
            return DiagramParams(sites, zeros), stats
        sites = stats.barycenters
        moves += 1
        undo = None  # (sites, moves) before the last range move
        while moves < max_iters:
            sums = _range_cell_sums(sites, grid, prefix)
            if sums is None:
                break
            barycenters = (sums[1:] / sums[0]).T
            if np.array_equal(barycenters, sites):
                break
            undo = sites, moves
            sites, moves = barycenters, moves + 1
        if undo is not None:
            # the dense labelling redoes the last range move, so the sites it
            # hands on are dense barycenters
            sites, moves = undo
    raise RuntimeError("empty-cell reseeding did not terminate")
