"""Comparison policies and summary rows for the revenue tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMeasure
from .objective import hard_objective
from .payoffs import MarketConfig, monopolist_payoff, revenue
from .power_diagram import lloyd_solve


@dataclass
class BenchmarkRow:
    """One table column: a market scenario and its revenue summary."""

    param_name: str
    param_value: float
    market: MarketConfig
    r_opt: float
    r_noinfo: float
    r_lloyd: float
    r_fullinfo: float
    pp: float | None = None
    effective_n: int = 0
    seed: int = 0

    @property
    def param(self) -> str:
        return f"{self.param_name}={self.param_value:g}"


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

    ``solves`` memoizes the partition across markets on the same grid:
    lloyd_solve reads only n, the seed and the grid's centers and masses.
    """
    import hashlib  # here, not at module level: loading it costs ~4 ms of start-up

    solves = {} if solves is None else solves
    digest = hashlib.sha256(np.ascontiguousarray(grid.centers))
    digest.update(np.ascontiguousarray(grid.masses))
    key = (n, seed, grid.centers.shape, digest.digest())
    if key not in solves:
        solves[key] = lloyd_solve(n, grid, seed)[0]
    return hard_objective(solves[key], grid, monopolist_payoff(market))


def best_lloyd_revenue(
    n: int, market: MarketConfig, grid: GridMeasure, seed: int, tries: int = 5,
    solves: dict | None = None,
) -> float:
    """Best of ``tries`` Lloyd restarts with consecutive seeds."""
    return max(lloyd_revenue(n, market, grid, seed + k, solves) for k in range(tries))


def improvement_table(rows: list[BenchmarkRow]) -> str:
    """Fill the pp column and render the five-row table layout.

    pp = 100 (r_opt - r_fullinfo) / r_fullinfo; reported as n/a when the
    full-information revenue is not positive.
    """
    for row in rows:
        row.pp = (
            100.0 * (row.r_opt - row.r_fullinfo) / row.r_fullinfo
            if row.r_fullinfo > 0.0
            else None
        )
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
