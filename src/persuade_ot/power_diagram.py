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
in one interval whose ends are affine in the row's coordinate (against a
site on its own column, in all of the row or none), so per-row prefix sums
of the masses and first moments give its sums in O(n^2 M) work. Each round
of the iteration starts with a dense labelling, and range passes follow
only a dense move; the last range move is redone densely, so the iteration
returns the dense loop's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import GridMeasure


def _separation_sq(sites: np.ndarray) -> np.ndarray:
    """(..., n, n) squared pairwise site distances, inf on the diagonal."""
    x, y = sites[..., 0, None], sites[..., 1, None]
    dx, dy = x - x.swapaxes(-1, -2), y - y.swapaxes(-1, -2)
    d2 = dx * dx
    d2 += dy * dy
    n = d2.shape[-1]
    d2.reshape(-1, n * n)[:, :: n + 1] = np.inf  # the diagonal, in place: d2 is contiguous
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


@dataclass(slots=True, eq=False)
class Diagrams:
    """R power diagrams with one n, stacked as DiagramParams keeps one:
    sites (R, n, 2), weights (R, n) and separation_sq (R, n, n)."""

    sites: np.ndarray
    weights: np.ndarray
    separation_sq: np.ndarray

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> tuple[Diagrams, np.ndarray]:
        """The stack of flat rows (R, 3n), each a diagram's sites (raveled)
        then weights, and DiagramParams' checks on every row at once: False
        where an entry is not finite or two sites coincide. Rejected rows
        stay in the stack; a non-finite one is measured with its sites at 0."""
        n = rows.shape[1] // 3
        sites, weights = rows[:, : 2 * n].reshape(-1, n, 2), rows[:, 2 * n :]
        finite = np.isfinite(rows).all(axis=1)
        sep2 = _separation_sq(sites if finite.all() else np.where(finite[:, None, None], sites, 0))
        return cls(sites, weights, sep2), finite & (sep2.reshape(len(rows), -1).min(axis=1) > 0.0)

    def __len__(self) -> int:
        return len(self.sites)

    def take(self, rows) -> Diagrams:
        return Diagrams(self.sites[rows], self.weights[rows], self.separation_sq[rows])


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


class _RowRanges(NamedTuple):
    """A grid's constants for _range_cell_sums (_row_ranges), lengths in columns."""

    centre: np.ndarray  # (2,) the box's centre
    inv_h: float  # 1 / hx
    half: float  # the larger of the box's half-width and half-height
    first: float  # the first column's abscissa, from the centre
    lines: np.ndarray  # (2, M): ones, and -2 times each row's ordinate from the centre
    base: np.ndarray  # (M,) each row's offset in ``prefix``
    prefix: np.ndarray  # (3, M (M + 1)) per-row prefix sums of nu, nu x and nu y, from 0


# a range's start is the largest t over the sites left of its cell, its end
# the smallest over those right of it: each side's sign of a_j - a_i and the
# constant, past the box's edge, that stands in for the other sites' t
_SIDES = np.array([-1.0, 1.0])[:, None, None]


def _row_ranges(grid: GridMeasure) -> _RowRanges:
    m = grid.resolution
    (x0, x1), (y0, y1) = grid.bounds
    centre = np.array([(x0 + x1) / 2, (y0 + y1) / 2])
    inv_h = m / (x1 - x0)
    prefix = np.zeros((3, m, m + 1))
    for k, weights in enumerate((grid.masses, *grid.first_moments)):
        np.cumsum(weights.reshape(m, m), axis=1, out=prefix[k, :, 1:])
    rows = (grid.centers[::m, 1] - centre[1]) * inv_h
    return _RowRanges(
        centre, inv_h, max(x1 - x0, y1 - y0) / 2 * inv_h, (grid.centers[0, 0] - centre[0]) * inv_h,
        np.stack([np.ones(m), -2.0 * rows]), np.arange(0, m * (m + 1), m + 1),
        prefix.reshape(3, -1),
    )


def _range_cell_sums(sites: np.ndarray, grid: _RowRanges):
    """(3, n) masses and first moments of the Voronoi cells, from per-row
    ranges, and the ranges' (2, n, M) bounds, which equal iff the cells do.

    Site i beats site j on row y on one side of the abscissa
    t_ij(y) = (|s_j|^2 - |s_i|^2 - 2y(b_j - b_i)) / (2(a_j - a_i)), where
    s_j = (a_j, b_j), so cell i meets the row in the columns between the
    largest t over the sites left of it and the smallest over those right
    of it; its sums are differences of the per-row prefix sums, O(n^2 M)
    work in all. Along a range, i's cost margin over j is 2|a_j - a_i|
    times the distance to t_ij, smallest at the range's end columns. Where
    a_j = a_i the bisector is the row y = (b_i + b_j) / 2, and i loses
    every row on j's side, by a cost margin of |2y(b_j - b_i) - |s_j|^2 + |s_i|^2|.
    Returns None, for the dense labelling to decide, where the ranges might
    differ from hard_assign's labels or leave a cell empty: abscissae that
    nearly but not exactly tie, a margin below 1e-9 of the squared scale
    (box half-width or farthest site), or ranges that do not tile the grid.
    """
    s = (sites - grid.centre) * grid.inv_h  # in columns, so the tolerances scale with the box
    scale = max(np.abs(s).max(), grid.half)
    n, m = len(s), grid.lines.shape[1]
    a, b = s[:, 0], s[:, 1]
    da = a[:, None] - a  # [j, i]: a_j - a_i
    tied = da == 0.0  # the diagonal among them
    gaps = np.where(tied, np.inf, da)
    apart = np.abs(gaps).min(axis=0)  # from each abscissa to the nearest other
    if apart.min() <= 1e-9 * scale:
        return None
    inv = 0.5 / gaps  # 0 where tied
    db = b[:, None] - b
    sq = a * a + b * b
    dsq = sq[:, None] - sq
    # t_ij(y), from the first column, as one product of its two terms with
    # grid.lines; a site on neither side of i (itself or one tied with it)
    # gives a start or end past the box's edge
    sides = np.sign(da) == _SIDES
    terms = np.empty((2, 2, n, n))
    terms[0] = np.where(sides, dsq * inv - grid.first, _SIDES * (m + 0.5))
    np.multiply(db * inv, sides, out=terms[1])
    t = (terms.reshape(2, -1).T @ grid.lines).reshape(2, n, n, m)
    ends = np.empty((2, n, m))
    t[0].max(axis=0, out=ends[0])
    t[1].min(axis=0, out=ends[1])
    np.maximum(ends, -0.5, out=ends)
    np.minimum(ends, m - 0.5, out=ends)
    cols = np.ceil(ends).astype(np.intp)  # first column of each range, and one past its last
    np.maximum(cols[1], cols[0], out=cols[1])
    if np.count_nonzero(tied) > n:
        j, i = np.nonzero(tied & ~np.eye(n, dtype=bool))
        margin = dsq[j, i, None] + db[j, i, None] * grid.lines[1]  # cost_j - cost_i per row
        if np.abs(margin).min() <= 1e-9 * scale**2:
            return None
        lost = np.zeros((n, m), dtype=bool)
        np.logical_or.at(lost, i, margin < 0.0)
        np.copyto(cols[1], cols[0], where=lost)
    count = cols[1] - cols[0]
    if count.sum() != m * m:
        return None
    # each end's distance to the nearest column, 1 or more for an empty range
    near = np.rint(ends)
    np.abs(np.subtract(ends, near, out=near), out=near)
    np.add(near, count == 0, out=near)
    near *= apart[:, None]
    if 2.0 * near.min() <= 1e-9 * scale**2:
        return None
    cols *= count > 0  # an empty range as (0, 0), so that equal cells give equal bounds
    cols += grid.base
    ranged = grid.prefix.take(cols, axis=1)
    sums = (ranged[:, 1] - ranged[:, 0]).sum(axis=2)
    return (sums, cols) if sums[0].min() > 0.0 else None


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
    redoes their last move densely, and returns at once where the first range
    pass after it finds the cells it labelled, so the result is the dense
    iteration's bit for bit. Every returned cell has mass.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    support = np.count_nonzero(grid.masses)
    if n > support:
        raise ValueError(f"cannot place {n} distinct sites on {support} grid points with mass")
    rng = np.random.default_rng(seed)
    sites = grid.centers[rng.choice(len(grid.masses), size=n, replace=False, p=grid.masses)]
    zeros = np.zeros(n)
    ranges = _row_ranges(grid)
    labelled = None  # the range pass's cells of the sites the next round labels
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
            labelled = None
            continue
        if moves >= max_iters or np.array_equal(stats.barycenters, sites):
            return DiagramParams(sites, zeros), stats
        sites = stats.barycenters
        moves += 1
        undo = None  # (sites, moves, cells) before the last range move
        while moves < max_iters:
            ranged = _range_cell_sums(sites, ranges)
            if ranged is None:
                break
            sums, cells = ranged
            if undo is None and np.array_equal(cells, labelled):
                # the sites' cells are those just labelled, whose dense
                # barycenters they are: the next labelling would return them
                return DiagramParams(sites.copy(), zeros), stats
            barycenters = (sums[1:] / sums[0]).T
            if np.array_equal(barycenters, sites):
                break
            undo = sites, moves, cells
            sites, moves = barycenters, moves + 1
        # the dense labelling redoes the last range move, so the sites it
        # hands on are dense barycenters
        sites, moves, labelled = (sites, moves, None) if undo is None else undo
    raise RuntimeError("empty-cell reseeding did not terminate")
