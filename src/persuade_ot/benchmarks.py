"""Comparison policies and summary rows for the revenue tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMeasure
from .payoffs import MarketConfig, monopolist_payoff, revenue
from .power_diagram import lloyd_solve


@dataclass
class BenchmarkRow:
    """One table column: a swept parameter value and its revenue summary."""

    param_name: str
    param_value: float
    r_opt: float
    r_noinfo: float
    r_lloyd: float
    r_fullinfo: float
    effective_n: int = 0
    seed: int = 0

    @property
    def param(self) -> str:
        return f"{self.param_name}={self.param_value:g}"

    @property
    def pp(self) -> float | None:
        """100 (r_opt - r_fullinfo) / r_fullinfo; None when r_fullinfo is not positive."""
        if self.r_fullinfo > 0.0:
            return 100.0 * (self.r_opt - self.r_fullinfo) / self.r_fullinfo
        return None


def no_info_revenue(market: MarketConfig, grid: GridMeasure) -> float:
    """Revenue of the trivial one-cell policy: everything pooled at the prior mean."""
    return revenue(grid.barycenter, market)


def full_info_revenue(market: MarketConfig, grid: GridMeasure) -> float:
    """Revenue under full revelation: sum_alpha nu_alpha R(y_alpha)."""
    # a fixed-order sum: a BLAS dot product splits long vectors across threads
    return float(np.add.reduce(grid.masses * revenue(grid.centers, market)))


def lloyd_revenue(
    n: int, market: MarketConfig, grid: GridMeasure, seed: int, solves: dict | None = None
) -> float:
    """Revenue of the n-cell centroidal (Lloyd) partition.

    ``solves`` memoizes the partition's cell stats across markets on the
    same grid: lloyd_solve reads only n, the seed and the grid's centers
    and masses. Every cell it returns has mass, so each is priced at its
    barycenter.
    """
    import hashlib  # here, not at module level: loading it costs ~4 ms of start-up

    solves = {} if solves is None else solves
    digest = hashlib.sha256(np.ascontiguousarray(grid.centers))
    digest.update(np.ascontiguousarray(grid.masses))
    key = (n, seed, grid.centers.shape, digest.digest())
    if key not in solves:
        solves[key] = lloyd_solve(n, grid, seed)[1]
    stats = solves[key]
    return float(stats.masses @ monopolist_payoff(market).value(stats.barycenters))


def best_lloyd_revenue(
    n: int, market: MarketConfig, grid: GridMeasure, seed: int, tries: int = 5,
    solves: dict | None = None,
) -> float:
    """Best of ``tries`` Lloyd restarts with consecutive seeds."""
    return max(lloyd_revenue(n, market, grid, seed + k, solves) for k in range(tries))


def improvement_table(rows: list[BenchmarkRow]) -> str:
    """Render the five-row table layout; pp reads n/a where it is None."""
    headers = [row.param for row in rows]
    lines = [
        ("", headers),
        ("R_opt", [f"{r.r_opt:.4f}" for r in rows]),
        ("R(no info)", [f"{r.r_noinfo:.4f}" for r in rows]),
        ("R_Lloyd", [f"{r.r_lloyd:.4f}" for r in rows]),
        ("E(R)", [f"{r.r_fullinfo:.4f}" for r in rows]),
        ("pp", ["n/a" if r.pp is None else f"{r.pp:.2f}" for r in rows]),
    ]
    label_w = max(len(label) for label, _ in lines)
    col_w = max(
        [len(h) for h in headers] + [len(c) for _, cells in lines[1:] for c in cells]
    )
    out = []
    for label, cells in lines:
        out.append(
            label.ljust(label_w) + "  " + "  ".join(c.rjust(col_w) for c in cells)
        )
    return "\n".join(out)
