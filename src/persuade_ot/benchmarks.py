"""Comparison policies and summary rows for the revenue tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMeasure
from .payoffs import MarketConfig, revenue, stacked_revenue
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


def grid_baselines(
    markets: list, cells: list, grid: GridMeasure, seed: int, tries: int
) -> list[tuple[float, float]]:
    """No-information and best-Lloyd revenue of scenarios on one grid.

    Scenario j prices markets[j] at the prior mean and at the cells of
    ``tries`` Lloyd partitions into cells[j] cells, with consecutive seeds
    from ``seed``, keeping the best. Each distinct (cells, seed) is solved
    once (lloyd_solve, whose cells all have mass), and every
    scenario's points, all tries, are priced in one closed-form pass
    (stacked_revenue), each at its own market's value. Returns
    (r_noinfo, r_lloyd) per scenario.
    """
    keys = dict.fromkeys((n, seed + k) for n in cells for k in range(tries))
    solved = {(n, s): lloyd_solve(n, grid, s)[1] for n, s in keys}
    runs = [[solved[n, seed + k] for k in range(tries)] for n in cells]
    mean = grid.barycenter[None]
    revs = stacked_revenue(
        markets, [np.concatenate([mean, *(s.barycenters for s in tried)]) for tried in runs]
    )
    out = []
    for rev, tried in zip(revs, runs):
        ends = np.cumsum([1] + [len(s.masses) for s in tried]).tolist()
        lloyd = max(float(s.masses @ rev[i:j]) for s, i, j in zip(tried, ends, ends[1:]))
        out.append((float(rev[0]), lloyd))
    return out


def best_lloyd_revenue(
    n: int, market: MarketConfig, grid: GridMeasure, seed: int, tries: int
) -> float:
    """Best revenue of ``tries`` n-cell Lloyd partitions with consecutive
    seeds: grid_baselines for one scenario."""
    return grid_baselines([market], [n], grid, seed, tries)[0][1]


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
