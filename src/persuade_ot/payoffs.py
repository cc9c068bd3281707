"""Sender payoffs: synthetic test surfaces and monopolist revenue.

The monopolist revenue comes from exact purchase-region areas: every
region boundary is linear in the valuation pair (v1, v2), so regions are
convex polygons obtained by clipping the unit valuation square with
half-planes, and areas are exact by the shoelace formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

Vertex = tuple[float, float]

UNIT_SQUARE: list[Vertex] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

TRI_MODES = np.array([(0.5, 0.25), (0.75, 0.75), (0.25, 0.75)])
TRI_SIGMA = 0.12
BOWL_CENTER = np.array([0.5, 0.5])


def clip_halfplane(polygon: list[Vertex], normal: Vertex, offset: float) -> list[Vertex]:
    """Clip a convex CCW polygon against the half-plane normal . v <= offset.

    Returns the (possibly empty) clipped polygon, CCW. A zero normal is a
    degenerate constraint: it keeps everything when offset >= 0 and nothing
    otherwise.
    """
    ax, ay = float(normal[0]), float(normal[1])
    b = float(offset)
    if ax == 0.0 and ay == 0.0:
        return list(polygon) if b >= 0.0 else []
    out: list[Vertex] = []
    k = len(polygon)
    for idx in range(k):
        x1, y1 = polygon[idx]
        x2, y2 = polygon[(idx + 1) % k]
        s1 = ax * x1 + ay * y1 - b
        s2 = ax * x2 + ay * y2 - b
        if s1 <= 0.0:
            out.append((x1, y1))
            if s2 > 0.0:
                t = s1 / (s1 - s2)
                out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
        elif s2 < 0.0:
            t = s1 / (s1 - s2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def polygon_area(polygon: list[Vertex]) -> float:
    """Shoelace area of a simple polygon; fewer than 3 vertices give 0."""
    k = len(polygon)
    if k < 3:
        return 0.0
    acc = 0.0
    for idx in range(k):
        x1, y1 = polygon[idx]
        x2, y2 = polygon[(idx + 1) % k]
        acc += x1 * y2 - x2 * y1
    return abs(acc) * 0.5


@dataclass(frozen=True)
class MarketConfig:
    """Monopolist market: prices, bundle surcharge, quality bounds, demand model."""

    p1: float
    p2: float
    q_min: float
    q_max: float
    delta: float = 0.0
    demand: str = "unit"

    def __post_init__(self):
        if self.demand not in ("unit", "additive"):
            raise ValueError(f"unknown demand model {self.demand!r}")
        if not (self.p1 > 0 and self.p2 > 0):
            raise ValueError("prices must be positive")
        if not self.q_min < self.q_max:
            raise ValueError("q_min must be below q_max")
        if self.demand == "additive" and not self.p3 > 0:
            raise ValueError("bundle price p1 + p2 + delta must be positive")

    @property
    def p3(self) -> float:
        return self.p1 + self.p2 + self.delta


@dataclass(frozen=True)
class PurchaseBreakdown:
    """Probabilities of buying nothing / good 1 / good 2 / the bundle."""

    c0: float
    c1: float
    c2: float
    c3: float
    region_polygons: dict = field(default_factory=dict)


def _region_constraints(q1: float, q2: float, market: MarketConfig):
    """Half-plane systems (normal, offset) defining each purchase region.

    Buyer utilities: s1 = q1 v1 - p1, s2 = q2 v2 - p2, and under additive
    demand s12 = q1 v1 + q2 v2 - p3. Each region is where one option weakly
    dominates the rest; ties have measure zero.
    """
    p1, p2 = market.p1, market.p2
    if market.demand == "unit":
        return {
            "none": [((q1, 0.0), p1), ((0.0, q2), p2)],
            "good1": [((-q1, 0.0), -p1), ((-q1, q2), p2 - p1)],
            "good2": [((0.0, -q2), -p2), ((q1, -q2), p1 - p2)],
            "bundle": None,
        }
    p3 = market.p3
    d = market.delta
    return {
        "none": [((q1, 0.0), p1), ((0.0, q2), p2), ((q1, q2), p3)],
        "good1": [((-q1, 0.0), -p1), ((-q1, q2), p2 - p1), ((0.0, q2), p2 + d)],
        "good2": [((0.0, -q2), -p2), ((q1, -q2), p1 - p2), ((q1, 0.0), p1 + d)],
        "bundle": [((-q1, -q2), -p3), ((0.0, -q2), -(p2 + d)), ((-q1, 0.0), -(p1 + d))],
    }


def purchase_breakdown(q, market: MarketConfig) -> PurchaseBreakdown:
    """Exact purchase probabilities at quality pair q, with region polygons."""
    q1, q2 = float(q[0]), float(q[1])
    polys: dict[str, list[Vertex]] = {}
    areas: dict[str, float] = {}
    for name, constraints in _region_constraints(q1, q2, market).items():
        if constraints is None:
            polys[name] = []
            areas[name] = 0.0
            continue
        poly = UNIT_SQUARE
        for normal, offset in constraints:
            poly = clip_halfplane(poly, normal, offset)
            if not poly:
                break
        polys[name] = poly
        areas[name] = polygon_area(poly)
    return PurchaseBreakdown(
        c0=areas["none"],
        c1=areas["good1"],
        c2=areas["good2"],
        c3=areas["bundle"],
        region_polygons=polys,
    )


def revenue(q, market: MarketConfig) -> float:
    """Expected revenue p1 c1 + p2 c2 + p3 c3 at quality pair q."""
    q1, q2 = float(q[0]), float(q[1])
    total = 0.0
    constraints = _region_constraints(q1, q2, market)
    for name, price in (("good1", market.p1), ("good2", market.p2), ("bundle", None)):
        cons = constraints[name]
        if cons is None:
            continue
        poly = UNIT_SQUARE
        for normal, offset in cons:
            poly = clip_halfplane(poly, normal, offset)
            if not poly:
                break
        if poly:
            total += (market.p3 if price is None else price) * polygon_area(poly)
    return total


def _tri_modal_weights() -> np.ndarray:
    # mixture weights solving Phi(mode_j) = 1 exactly for every mode
    d2 = ((TRI_MODES[:, None, :] - TRI_MODES[None, :, :]) ** 2).sum(-1)
    gram = np.exp(-d2 / (2.0 * TRI_SIGMA**2))
    return np.linalg.solve(gram, np.ones(3))


@dataclass(frozen=True)
class PayoffModel:
    """A sender payoff surface with a gradient contract.

    kind is one of "concave-bowl", "tri-modal", "monopolist". Synthetic
    kinds carry analytic gradients; the monopolist revenue is only
    piecewise smooth and uses central differences with step fd_step.
    """

    kind: str
    market: Optional[MarketConfig] = None
    fd_step: float = 0.0
    mix_weights: Optional[np.ndarray] = None


def concave_bowl() -> PayoffModel:
    """Phi(y) = 1 - |y - (0.5, 0.5)|^2, strictly concave with peak 1."""
    return PayoffModel(kind="concave-bowl")


def tri_modal() -> PayoffModel:
    """Gaussian mixture with three equal-height modes of value 1 each."""
    return PayoffModel(kind="tri-modal", mix_weights=_tri_modal_weights())


def monopolist_payoff(market: MarketConfig) -> PayoffModel:
    """Phi = expected revenue; gradient by central differences."""
    return PayoffModel(
        kind="monopolist",
        market=market,
        fd_step=1e-4 * (market.q_max - market.q_min),
    )


def phi_eval(model: PayoffModel, point) -> float | np.ndarray:
    """Payoff value at a point (2,) or batch (k, 2) of points."""
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if model.kind == "concave-bowl":
        out = 1.0 - ((pts - BOWL_CENTER) ** 2).sum(axis=1)
    elif model.kind == "tri-modal":
        d2 = ((pts[:, None, :] - TRI_MODES[None, :, :]) ** 2).sum(-1)
        out = np.exp(-d2 / (2.0 * TRI_SIGMA**2)) @ model.mix_weights
    elif model.kind == "monopolist":
        out = np.array([revenue(p, model.market) for p in pts])
    else:
        raise ValueError(f"unknown payoff kind {model.kind!r}")
    return float(out[0]) if single else out


def phi_grad(model: PayoffModel, point) -> np.ndarray:
    """Payoff gradient at a point (2,) or batch (k, 2) of points."""
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if model.kind == "concave-bowl":
        out = -2.0 * (pts - BOWL_CENTER)
    elif model.kind == "tri-modal":
        diff = pts[:, None, :] - TRI_MODES[None, :, :]
        d2 = (diff**2).sum(-1)
        e = np.exp(-d2 / (2.0 * TRI_SIGMA**2)) * model.mix_weights[None, :]
        out = -(e[:, :, None] * diff).sum(axis=1) / TRI_SIGMA**2
    elif model.kind == "monopolist":
        step = model.fd_step
        out = np.empty_like(pts)
        for row, p in enumerate(pts):
            for axis in range(2):
                hi = p.copy()
                lo = p.copy()
                hi[axis] += step
                lo[axis] -= step
                out[row, axis] = (
                    revenue(hi, model.market) - revenue(lo, model.market)
                ) / (2.0 * step)
    else:
        raise ValueError(f"unknown payoff kind {model.kind!r}")
    return out[0] if single else out
