"""Correctness checks built apart from the program.

Nothing here imports persuade_ot. Revenue is estimated by quadrature over
the buyer's valuations v ~ U[0,1]^2 (the program clips polygons instead),
power cells are relabelled from a diagram's sites and weights with this
file's own grid, and the reference numbers are the paper's published
rows and closed-form values. Every check raises CheckFailed on a
violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An output of the program contradicts an independent computation."""


@dataclass(frozen=True)
class Market:
    p1: float
    p2: float
    q_min: float
    q_max: float
    delta: float = 0.0
    demand: str = "unit"


# Full-information revenue of the unit-demand price sweep (paper, table 1)
PAPER_FULL_INFO = {1.0: 0.2833, 1.25: 0.2407, 1.5: 0.1977, 1.75: 0.1657, 2.0: 0.1534}

# Closed-form no-information revenues R(prior mean):
#   unit, p2=1, q in [0,2]^2: mean (1,1) prices every good at its top value -> 0
#   unit, p2=1.25, q in [0.25,2]^2: only good 1 sells, P(1.125 v1 > 1) = 1/9
#   additive, delta=-1, q in [0,2]^2: the bundle sells when v1 + v2 > 1 -> 1/2
CLOSED_FORM_NO_INFO = {
    Market(1.0, 1.0, 0.0, 2.0): 0.0,
    Market(1.0, 1.25, 0.25, 2.0): 1.0 / 9.0,
    Market(1.0, 1.0, 0.0, 2.0, -1.0, "additive"): 0.5,
}

TRI_MODES = np.array([(0.5, 0.25), (0.75, 0.75), (0.25, 0.75)])
TRI_SIGMA = 0.12


def _revenue_given_v1(q1, q2, t, market: Market) -> np.ndarray:
    """Expected price paid given the first valuation v1 = t, integrating
    the second valuation s ~ U[0,1] in closed form.

    For fixed t, "nothing" and "good 1" have utilities constant in s, while
    "good 2" and "bundle" both rise with slope q2; so the best of the first
    pair wins below a threshold in s and the best of the second pair above.
    """
    p1, p2, p3 = market.p1, market.p2, market.p1 + market.p2 + market.delta
    u1 = q1 * t - p1
    c = np.maximum(u1, 0.0)
    pc = np.where(u1 > 0.0, p1, 0.0)
    d = np.full_like(c, -p2)
    pd = np.full_like(c, p2)
    if market.demand == "additive":
        bundle = q1 * t - p3 > -p2
        d = np.where(bundle, q1 * t - p3, d)
        pd = np.where(bundle, p3, pd)
    upper = np.clip(1.0 - (c - d) / np.maximum(q2, 1e-300), 0.0, 1.0)
    return pc * (1.0 - upper) + pd * upper


def revenue_at(q, market: Market, k: int = 1024) -> float:
    """Expected revenue at one quality pair: the v1 integral is split where
    the price paid jumps and each piece takes a k-point midpoint rule."""
    q1, q2 = float(q[0]), float(q[1])
    cuts = [market.p1 / q1] if q1 > 0 else []
    if market.demand == "additive" and q1 > 0:
        cuts.append((market.p1 + market.delta) / q1)
    edges = sorted({0.0, 1.0, *(x for x in cuts if 0.0 < x < 1.0)})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = a + (np.arange(k) + 0.5) * (b - a) / k
        total += (b - a) * float(_revenue_given_v1(q1, q2, t, market).mean())
    return total


def grid_centers(bounds, resolution: int) -> np.ndarray:
    """Cell midpoints, first coordinate fastest (index iy * M + ix)."""
    (a1, b1), (a2, b2) = bounds
    xs = a1 + (np.arange(resolution) + 0.5) * (b1 - a1) / resolution
    ys = a2 + (np.arange(resolution) + 0.5) * (b2 - a2) / resolution
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    return np.column_stack([gx.ravel(), gy.ravel()])


def full_info_estimate(
    market: Market, resolution: int, rng: np.random.Generator, strata: int = 16
) -> float:
    """Mean revenue over the market's uniform quality grid; v1 is sampled
    by jittered strata (``strata`` per grid point), v2 integrated exactly."""
    bounds = ((market.q_min, market.q_max), (market.q_min, market.q_max))
    q = grid_centers(bounds, resolution)
    t = (np.arange(strata)[None, :] + rng.random((len(q), strata))) / strata
    rev = _revenue_given_v1(q[:, :1], q[:, 1:], t, market)
    return float(rev.mean())


def tri_modal_value(points) -> np.ndarray:
    """Three-bump Gaussian mixture scaled so each mode has value one."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2m = ((TRI_MODES[:, None, :] - TRI_MODES[None, :, :]) ** 2).sum(-1)
    w = np.linalg.solve(np.exp(-d2m / (2 * TRI_SIGMA**2)), np.ones(3))
    d2 = ((pts[:, None, :] - TRI_MODES[None, :, :]) ** 2).sum(-1)
    return np.exp(-d2 / (2 * TRI_SIGMA**2)) @ w


def relabel_diagram(diagram: dict) -> tuple[np.ndarray, np.ndarray]:
    """Recompute labels and cell masses of diagram.json from its sites and
    weights, and check them against the stored label grid and masses.

    Returns (masses, barycenters) of the relabelled cells; barycenter rows
    of empty cells are NaN.
    """
    m = int(diagram["resolution"])
    centers = grid_centers(diagram["bounds"], m)
    sites = np.asarray(diagram["sites"], dtype=float)
    weights = np.asarray(diagram["weights"], dtype=float)
    n = len(sites)
    costs = ((centers[None, :, :] - sites[:, None, :]) ** 2).sum(-1) - weights[:, None]
    labels = np.argmin(costs, axis=0)
    stored = np.asarray(diagram["label_grid"]).reshape(-1)
    if stored.shape != labels.shape:
        raise CheckFailed(f"label grid has {stored.size} entries, expected {m * m}")
    differ = np.flatnonzero(stored != labels)
    if len(differ):
        # only exact power-cost ties may resolve differently
        gap = costs[stored[differ], differ] - costs[labels[differ], differ]
        scale = np.abs(costs[:, differ]).max(axis=0) + 1.0
        if np.any(gap > 1e-9 * scale):
            raise CheckFailed(f"{len(differ)} grid points carry a wrong cell label")
    masses = np.bincount(stored, minlength=n) / (m * m)
    if abs(masses.sum() - 1.0) > 1e-9:
        raise CheckFailed(f"cell masses sum to {masses.sum():.12f}")
    stored_masses = np.asarray(diagram["masses"], dtype=float)
    if stored_masses.shape != (n,) or np.max(np.abs(stored_masses - masses)) > 1e-9:
        raise CheckFailed("diagram masses do not match its label grid")
    bary = np.full((n, 2), np.nan)
    for i in np.flatnonzero(masses > 0):
        bary[i] = centers[stored == i].mean(axis=0)
        got = diagram["barycenters"][i]
        if got is None or np.max(np.abs(np.asarray(got) - bary[i])) > 1e-9:
            raise CheckFailed(f"barycenter of cell {i} does not match its label grid")
    return masses, bary


def hard_value_from_diagram(diagram: dict, payoff) -> float:
    """sum_i m_i Phi(b_i) over the relabelled cells of a diagram."""
    masses, bary = relabel_diagram(diagram)
    live = masses > 0
    return float(sum(m * payoff(b) for m, b in zip(masses[live], bary[live])))


def check_close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: {got:.6f} differs from {want:.6f} by more than {tol:g}")


def check_paper_values(market: Market, r_noinfo: float, r_fullinfo: float, tol: float) -> None:
    """Published full-information row and closed-form no-information values."""
    want = CLOSED_FORM_NO_INFO.get(market)
    if want is not None:
        check_close(f"no-information revenue of {market}", r_noinfo, want, 5e-5)
    if market.demand == "unit" and (market.p1, market.q_min, market.q_max) == (1.0, 0.0, 2.0):
        want = PAPER_FULL_INFO.get(market.p2)
        if want is not None:
            check_close(f"full-information revenue at p2={market.p2}", r_fullinfo, want, tol)


def check_ordering(
    label: str, r_opt: float, r_noinfo: float, r_lloyd: float, r_fullinfo: float
) -> None:
    """The optimised policy dominates Lloyd and no disclosure, and full
    disclosure up to 1e-3 (values as rounded in table.csv)."""
    if r_opt < r_lloyd or r_opt < r_noinfo:
        raise CheckFailed(
            f"{label}: r_opt {r_opt:.4f} below Lloyd {r_lloyd:.4f} or no-info {r_noinfo:.4f}"
        )
    if r_opt < r_fullinfo - 1e-3 - 1e-9:
        raise CheckFailed(f"{label}: r_opt {r_opt:.4f} below full-info {r_fullinfo:.4f} - 1e-3")


def check_three_modes(diagram: dict, effective_n: int, hard_value: float) -> None:
    """Tri-modal optimum: three cells, one per mode, and a hard value near 1."""
    masses, bary = relabel_diagram(diagram)
    live = np.flatnonzero(masses > 0)
    if effective_n != 3 or len(live) != 3:
        raise CheckFailed(f"{effective_n} cells kept, {len(live)} with mass; expected 3")
    dist = np.sqrt(((bary[live][:, None, :] - TRI_MODES[None, :, :]) ** 2).sum(-1))
    worst = min(
        max(dist[i, p[i]] for i in range(3)) for p in itertools.permutations(range(3))
    )
    if worst >= 0.1:
        raise CheckFailed(f"barycenters lie {worst:.3f} from distinct modes (limit 0.1)")
    check_close("tri-modal hard value", hard_value, 1.0, 0.02)
