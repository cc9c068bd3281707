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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridMeasure


def _separation_sq(sites: np.ndarray) -> np.ndarray:
    """(n, n) squared pairwise site distances, inf on the diagonal."""
    diff = sites[:, None, :] - sites[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
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
        if not (np.all(np.isfinite(sites)) and np.all(np.isfinite(weights))):
            raise ValueError("sites and weights must be finite")
        sep2 = _separation_sq(sites)
        if sep2.min() <= 0.0:
            raise ValueError("sites must be pairwise distinct")
        sep2.flags.writeable = False
        object.__setattr__(self, "separation_sq", sep2)

    @property
    def n(self) -> int:
        return self.sites.shape[0]


@dataclass(frozen=True)
class HardAssignment:
    """Per-grid-point cell labels (0-based argmin indices)."""

    labels: np.ndarray
    n_cells: int


@dataclass(frozen=True)
class CellStats:
    """Masses and barycenters per cell.

    Barycenter rows are NaN where the cell carries no mass; ``support``
    flags the cells with positive mass.
    """

    masses: np.ndarray
    barycenters: np.ndarray
    support: np.ndarray


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
    sx = np.bincount(labels, weights=nu * grid.centers[:, 0], minlength=n)
    sy = np.bincount(labels, weights=nu * grid.centers[:, 1], minlength=n)
    support = masses > 0.0
    barycenters = np.full((n, 2), np.nan)
    barycenters[support, 0] = sx[support] / masses[support]
    barycenters[support, 1] = sy[support] / masses[support]
    return CellStats(masses=masses, barycenters=barycenters, support=support)


def lloyd_solve(
    n: int, grid: GridMeasure, seed: int, max_iters: int = 200
) -> tuple[DiagramParams, CellStats]:
    """Centroidal Voronoi diagram by Lloyd's fixed-point iteration.

    Sites start at n distinct grid points drawn with probability
    proportional to the grid masses (seeded); weights stay zero. Each pass
    labels the grid. An empty cell's site (the lowest such index) moves to
    the highest-mass grid point, free of other sites, of the largest cell,
    and the grid is labelled again; a RuntimeError is raised where that
    fails. Otherwise the sites stop when each equals its cell's barycenter,
    the exact fixed point a finite grid reaches, or after ``max_iters``
    moves; else each moves to its barycenter. Every returned cell has mass.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    support = np.count_nonzero(grid.masses)
    if n > support:
        raise ValueError(f"cannot place {n} distinct sites on {support} grid points with mass")
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
