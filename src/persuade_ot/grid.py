"""Dyadic grid discretization of planar prior measures.

The state space is an axis-aligned rectangle subdivided into M x M equal
cells. A measure lives on the cell midpoints; masses come from midpoint
quadrature of a density and are normalized to total mass one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMeasureError

Bounds = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class GridMeasure:
    """Probability measure supported on the midpoints of an M x M grid.

    Attributes
    ----------
    bounds : ((a1, b1), (a2, b2))
        The rectangle [a1,b1] x [a2,b2].
    resolution : int
        Cells per axis, M.
    centers : ndarray, shape (M*M, 2)
        Cell midpoints in row-major order with the first coordinate varying
        fastest: index alpha = iy*M + ix.
    masses : ndarray, shape (M*M,)
        Nonnegative cell masses, summing to one for discretized measures.
    first_moments : (ndarray, ndarray), each shape (M*M,)
        Read-only nu_alpha * x_alpha and nu_alpha * y_alpha, formed once here
        for every hard cell statistic taken on the grid.
    """

    bounds: Bounds
    resolution: int
    centers: np.ndarray
    masses: np.ndarray
    first_moments: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        moments = (self.masses * self.centers[:, 0], self.masses * self.centers[:, 1])
        for moment in moments:
            moment.flags.writeable = False
        object.__setattr__(self, "first_moments", moments)

    @property
    def spacing(self) -> tuple[float, float]:
        """Cell edge lengths (hx, hy)."""
        (a1, b1), (a2, b2) = self.bounds
        m = self.resolution
        return ((b1 - a1) / m, (b2 - a2) / m)

    @property
    def cell_area(self) -> float:
        hx, hy = self.spacing
        return hx * hy

    @property
    def barycenter(self) -> np.ndarray:
        """Mean of the measure: sum_alpha nu_alpha * y_alpha."""
        return self.masses @ self.centers


@dataclass(frozen=True)
class DensitySpec:
    """Prior density relative to Lebesgue measure.

    ``kind`` is "uniform" or "callable". A callable density receives an
    (m, 2) array of points and returns (m,) nonnegative values in units of
    probability per unit area.
    """

    kind: str = "uniform"
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("uniform", "callable"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "callable" and self.density is None:
            raise ValueError("callable density spec requires a density function")


def build_grid(bounds: Bounds, resolution: int) -> GridMeasure:
    """Build the midpoint grid over a rectangle, with provisional equal masses.

    Parameters
    ----------
    bounds : ((a1, b1), (a2, b2))
    resolution : int
        Cells per axis; must be >= 1.

    Returns
    -------
    GridMeasure with M*M midpoint centers and equal masses summing to one.
    """
    if int(resolution) != resolution or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution!r}")
    m = int(resolution)
    (a1, b1), (a2, b2) = bounds
    # negated, so that nan fails too; finite bounds can still overflow the width
    if not (0.0 < b1 - a1 < math.inf and 0.0 < b2 - a2 < math.inf):
        raise ValueError(f"degenerate bounds {bounds!r}")
    hx = (b1 - a1) / m
    hy = (b2 - a2) / m
    xs = a1 + (np.arange(m) + 0.5) * hx
    ys = a2 + (np.arange(m) + 0.5) * hy
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    masses = np.full(m * m, 1.0 / (m * m))
    return GridMeasure(
        bounds=((float(a1), float(b1)), (float(a2), float(b2))),
        resolution=m,
        centers=centers,
        masses=masses,
    )


def discretize_density(spec: DensitySpec, grid: GridMeasure) -> GridMeasure:
    """Discretize a density onto a grid by midpoint quadrature.

    Cell masses are density(center) * cell area, renormalized to total one.
    Exact for uniform densities. Raises DegenerateMeasureError if the
    density vanishes at every grid point.
    """
    if spec.kind == "uniform":
        p = grid.centers.shape[0]
        masses = np.full(p, 1.0 / p)
        return GridMeasure(grid.bounds, grid.resolution, grid.centers, masses)
    vals = np.asarray(spec.density(grid.centers), dtype=float)
    if vals.shape != (grid.centers.shape[0],):
        raise ValueError(
            f"density returned shape {vals.shape}, expected ({grid.centers.shape[0]},)"
        )
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise ValueError("density must be finite and nonnegative on the grid")
    weights = vals * grid.cell_area
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateMeasureError("density is zero at every grid point")
    return GridMeasure(grid.bounds, grid.resolution, grid.centers, weights / total)
