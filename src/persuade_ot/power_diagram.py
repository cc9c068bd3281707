"""Hard Laguerre (power) cells on a grid measure.

Assignment, exact cell masses and barycenters, and Lloyd's centroidal
iteration.

A grid point y belongs to the cell i minimizing the power cost
|y - x_i|^2 - g_i; ties go to the lowest index. On the tensor grid the
squared distance splits into per-axis terms, (gy - x_i2)^2 + (gx - x_i1)^2,
so hard_assign keeps a running minimum over sites of one (M, M) cost array
built from (n, M) offsets, and never forms the (n, M^2) cost matrix. These
are the floating-point operations of the dense sq_dists(sites, centers) - g
followed by argmin, so the labels equal the dense argmin's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMeasure


def min_separation(sites: np.ndarray) -> float:
    """Smallest pairwise distance between sites (inf for a single site)."""
    n = sites.shape[0]
    if n < 2:
        return float("inf")
    diff = sites[:, None, :] - sites[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


@dataclass(frozen=True)
class DiagramParams:
    """Sites and weights of a power diagram.

    Weights only matter up to a common additive shift. Sites must be
    pairwise distinct or the diagram is ill-defined.
    """

    sites: np.ndarray
    weights: np.ndarray

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
        if min_separation(sites) <= 0.0:
            raise ValueError("sites must be pairwise distinct")

    @property
    def n(self) -> int:
        return self.sites.shape[0]


@dataclass(frozen=True)
class HardAssignment:
    """Per-grid-point cell labels (0-based argmin indices)."""

    labels: np.ndarray
    n_cells: int
    grid: GridMeasure


@dataclass(frozen=True)
class CellStats:
    """Masses and barycenters per cell.

    Barycenter rows are NaN where the cell carries no mass; ``support``
    flags the cells with positive mass.
    """

    masses: np.ndarray
    barycenters: np.ndarray
    support: np.ndarray


def sq_dists(sites: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(n, P) matrix of squared distances |y_alpha - x_i|^2."""
    diff = points[None, :, :] - sites[:, None, :]
    return np.einsum("ipk,ipk->ip", diff, diff)


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
    return HardAssignment(labels=labels, n_cells=params.n, grid=grid)


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


def _resolve_empty_cells(
    sites: np.ndarray, grid: GridMeasure
) -> tuple[np.ndarray, HardAssignment, CellStats]:
    """Reseed empty Voronoi cells until every cell has mass.

    Walks empty cells in index order; each is re-sited at the highest-mass
    grid point of the currently largest cell (skipping points occupied by
    other sites), then the assignment is recomputed. Deterministic.
    """
    sites = np.array(sites, dtype=float)
    n = sites.shape[0]
    zeros = np.zeros(n)
    for _ in range(4 * n):
        assignment = HardAssignment(_power_labels(sites, zeros, grid), n, grid)
        stats = hard_cell_stats(assignment, grid)
        if stats.support.all():
            return sites, assignment, stats
        empty = int(np.flatnonzero(~stats.support)[0])
        largest = int(np.argmax(stats.masses))
        in_cell = np.flatnonzero(assignment.labels == largest)
        order = in_cell[np.argsort(-grid.masses[in_cell], kind="stable")]
        for alpha in order:
            candidate = grid.centers[alpha]
            if not np.any(np.all(sites == candidate, axis=1)):
                sites[empty] = candidate
                break
        else:
            raise RuntimeError("could not reseed an empty cell")
    raise RuntimeError("empty-cell reseeding did not terminate")


def lloyd_step(sites: np.ndarray, grid: GridMeasure) -> tuple[np.ndarray, float]:
    """One Lloyd iteration: move each site to its Voronoi cell barycenter.

    Returns the new sites and the largest site displacement. Empty cells
    are reseeded (deterministically) before the move.
    """
    sites, _, stats = _resolve_empty_cells(sites, grid)
    new_sites = stats.barycenters.copy()
    shift = float(np.max(np.linalg.norm(new_sites - sites, axis=1)))
    return new_sites, shift


def lloyd_solve(
    n: int,
    grid: GridMeasure,
    seed: int,
    max_iters: int = 200,
    tol: float = 1e-9,
) -> tuple[DiagramParams, CellStats]:
    """Centroidal Voronoi diagram by Lloyd's fixed-point iteration.

    Sites initialize at n distinct grid points drawn with probability
    proportional to the grid masses (seeded); weights stay zero. Iterates
    until the largest site-to-barycenter distance drops below ``tol`` or
    ``max_iters`` is reached.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    p = grid.centers.shape[0]
    if n > p:
        raise ValueError(f"cannot place {n} distinct sites on {p} grid points")
    rng = np.random.default_rng(seed)
    idx = rng.choice(p, size=n, replace=False, p=grid.masses)
    sites = grid.centers[idx].copy()
    for _ in range(max_iters):
        sites, shift = lloyd_step(sites, grid)
        if shift < tol:
            break
    sites, _, stats = _resolve_empty_cells(sites, grid)
    return DiagramParams(sites, np.zeros(n)), stats
