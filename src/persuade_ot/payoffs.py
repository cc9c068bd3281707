"""Sender payoffs: synthetic test surfaces and monopolist revenue.

Every payoff is a PayoffModel with a value and an exact gradient on a batch
of points. The monopolist revenue comes from exact purchase-region areas:
every region boundary is linear in the valuation pair (v1, v2), so regions
are convex polygons obtained by clipping the unit valuation square with
half-planes (Sutherland-Hodgman), and areas are exact by the shoelace
formula. One batched clip serves every caller: each (region, quality pair)
is a column of fixed-width vertex arrays, and each half-plane is one array
step over all columns, in the floating-point order of clipping one polygon
at a time. The revenue gradient follows from the areas and the regions'
lengths along the square's far edges by a scaling identity (Monopolist).
"""

from __future__ import annotations

import functools
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure

TRI_MODES = np.array([(0.5, 0.25), (0.75, 0.75), (0.25, 0.75)])
TRI_SIGMA = 0.12
BOWL_CENTER = np.array([0.5, 0.5])

# quality pairs per clip pass: bounds the work arrays at a few MiB
BLOCK = 1024
# the unit valuation square, CCW from the origin, as (x, y) rows of a closed ring
_SQUARE = np.array([[0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0]])


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


def _region_table(market: MarketConfig) -> dict[str, list[tuple[float, float, float]]]:
    """Half-plane systems defining each purchase region.

    An entry (a, b, c) is the constraint a q1 v1 + b q2 v2 <= c, i.e. the
    normal (a q1, b q2) and the offset c. Buyer utilities: s1 = q1 v1 - p1,
    s2 = q2 v2 - p2, and under additive demand s12 = q1 v1 + q2 v2 - p3.
    Each region is where one option weakly dominates the rest; ties have
    measure zero. Unit demand has no bundle region.
    """
    p1, p2 = market.p1, market.p2
    if market.demand == "unit":
        return {
            "none": [(1, 0, p1), (0, 1, p2)],
            "good1": [(-1, 0, -p1), (-1, 1, p2 - p1)],
            "good2": [(0, -1, -p2), (1, -1, p1 - p2)],
        }
    p3 = market.p3
    d = market.delta
    return {
        "none": [(1, 0, p1), (0, 1, p2), (1, 1, p3)],
        "good1": [(-1, 0, -p1), (-1, 1, p2 - p1), (0, 1, p2 + d)],
        "good2": [(0, -1, -p2), (1, -1, p1 - p2), (1, 0, p1 + d)],
        "bundle": [(-1, -1, -p3), (0, -1, -(p2 + d)), (-1, 0, -(p1 + d))],
    }


class _ClipWork:
    """Work arrays for the float and index steps of _clip_regions.

    They are views of one allocation that every half-plane step, and every
    block of a batch, reuses: reserve(rows, width) makes room for a step on
    rows columns of polygons with at most width edges. The boolean masks are
    an eighth of the size and are allocated per step.
    """

    # units of (width + 2) * rows 8-byte words per array
    UNITS = {"s": 1, "tmp": 1, "edge": 2, "cand": 4, "rank": 2, "packed": 2}
    START = dict(zip(UNITS, itertools.accumulate(UNITS.values(), initial=0)))

    def __init__(self):
        self._buf = np.empty(0)
        self._unit = 0
        self._start: dict[str, int] = {}

    def reserve(self, rows: int, width: int) -> None:
        unit = (width + 2) * rows
        if unit > self._unit:
            self._buf = np.empty(sum(self.UNITS.values()) * unit)
            self._unit = unit
            self._start = {name: k * unit for name, k in self.START.items()}

    def take(self, name: str, *shape: int) -> np.ndarray:
        """A C-contiguous float view of the named array's prefix, in the given shape."""
        start = self._start[name]
        return self._buf[start : start + math.prod(shape)].reshape(shape)


def _clip_regions(
    q: np.ndarray, market: MarketConfig, names, work: _ClipWork | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Clip the unit square to each named region at every quality pair in q (k, 2).

    Returns (poly, count): column r * k + i holds region names[r] at q[i],
    with poly[:, j, col] its j-th vertex (x, y) for j < count[col], the first
    vertex again at j = count[col] and zeros after it. Each half-plane step
    follows the polygon-at-a-time rule exactly: an edge (v1, v2) with signed
    distances s1, s2 emits v1 when s1 <= 0, then the crossing point when
    s1 <= 0 < s2 or s1 > 0 > s2; the emitted points are then packed in order.
    A zero normal needs no special case: every s is -c, so all or nothing
    is kept. Every step writes into ``work``; poly is a view of it, valid
    until the next call with the same work.
    """
    table = _region_table(market)
    cons = np.array([table[name] for name in names], dtype=float)  # (regions, m, 3)
    rows = len(names) * len(q)
    normals = (cons[:, :, None, :2] * q).transpose(1, 3, 0, 2).reshape(-1, 2, rows)
    offsets = np.repeat(cons[:, :, 2].T, len(q), axis=1)
    col = np.arange(rows)
    work = _ClipWork() if work is None else work
    # each cut adds at most one vertex to a convex polygon; a polygon dented
    # by rounded crossings can gain more, and the step then makes more room
    work.reserve(rows, 4 + len(offsets))
    poly = _SQUARE[:, :, None]
    count = 4
    # padded slots and dead edges divide 0/0; their results are never kept
    with np.errstate(invalid="ignore", divide="ignore"):
        for (nx, ny), b in zip(normals, offsets):
            width = poly.shape[1] - 1
            s = np.multiply(poly[0], nx, out=work.take("s", width + 1, rows))
            s += np.multiply(poly[1], ny, out=work.take("tmp", width + 1, rows))
            s -= b
            le, lt, gt = s <= 0.0, s < 0.0, s > 0.0
            keep = np.empty((width, 2, rows), dtype=bool)
            keep[:, 0] = le[:-1]
            keep[:, 1] = (le[:-1] & gt[1:]) | (gt[:-1] & lt[1:])
            keep &= (np.arange(width)[:, None] < count)[:, None]  # real edges only
            p1 = poly[:, :-1]
            t = np.subtract(s[:-1], s[1:], out=work.take("tmp", width, rows))
            np.divide(s[:-1], t, out=t)
            edge = np.subtract(poly[:, 1:], p1, out=work.take("edge", 2, width, rows))
            np.multiply(t, edge, out=edge)
            np.add(p1, edge, out=edge)
            cand = work.take("cand", 2, width, 2, rows)
            cand[:, :, 0] = p1
            cand[:, :, 1] = edge
            keep = keep.reshape(2 * width, rows)
            rank = work.take("rank", 2 * width, rows).view(np.int64)
            np.cumsum(keep, axis=0, dtype=np.int64, out=rank)
            count = rank[-1].copy()
            width = int(count.max(initial=0))
            work.reserve(rows, width)
            # kept points go to slot rank - 1, the rest to the last (dump) slot;
            # slot count repeats the first vertex to close the ring
            dest = np.multiply(rank, keep, out=rank)
            dest -= 1
            dest *= rows
            dest += col
            close = count * rows + col
            # poly's points are all in cand by now, so poly's array is free
            packed = work.take("packed", 2, width + 2, rows)
            packed.fill(0.0)
            for xy in range(2):
                flat = packed[xy].reshape(-1)
                flat[dest] = cand[xy].reshape(-1, rows)
                flat[close] = packed[xy, 0]
            poly = packed[:, : width + 1]
            if width == 0:
                break
    return poly, count


def _areas(poly: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace areas of clipped polygons; fewer than 3 vertices give 0.

    Terms are summed slot by slot, the order of a vertex-by-vertex loop;
    the zero padding adds exact zeros.
    """
    x, y = poly
    terms = x[:-1] * y[1:] - x[1:] * y[:-1]
    acc = np.zeros(len(count))
    for term in terms:
        acc = acc + term
    return np.where(count >= 3, np.abs(acc) * 0.5, 0.0)


def purchase_breakdown(q, market: MarketConfig) -> PurchaseBreakdown:
    """Exact purchase probabilities at quality pair q, with region polygons."""
    names = list(_region_table(market))
    poly, count = _clip_regions(np.asarray(q, dtype=float).reshape(1, 2), market, names)
    areas = dict(zip(names, _areas(poly, count).tolist()))
    polys = {
        name: [(float(x), float(y)) for x, y in poly[:, :c, r].T]
        for r, (name, c) in enumerate(zip(names, count))
    }
    polys.setdefault("bundle", [])
    return PurchaseBreakdown(
        c0=areas["none"],
        c1=areas["good1"],
        c2=areas["good2"],
        c3=areas.get("bundle", 0.0),
        region_polygons=polys,
    )


def revenue(q, market: MarketConfig) -> float | np.ndarray:
    """Expected revenue p1 c1 + p2 c2 + p3 c3 at a quality pair (2,) or batch (k, 2).

    A batch is clipped BLOCK pairs at a time; every value equals the one the
    pair gets on its own.
    """
    pts = np.asarray(q, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    names = ["good1", "good2"] + (["bundle"] if market.demand == "additive" else [])
    prices = [market.p1, market.p2, market.p3]
    out = np.empty(len(pts))
    work = _ClipWork()
    for start in range(0, len(pts), BLOCK):
        block = pts[start : start + BLOCK]
        areas = _areas(*_clip_regions(block, market, names, work)).reshape(len(names), -1)
        out[start : start + BLOCK] = sum(price * area for price, area in zip(prices, areas))
    return float(out[0]) if single else out


def _edge_sections(q: np.ndarray, market: MarketConfig) -> np.ndarray:
    """Lengths (regions, k, 2) of the _region_table regions along the square's far edges.

    [r, i, a] is region r at q[i] on v_a = 1, where each constraint bounds the other
    valuation t by slope * t <= rhs; a zero slope keeps all of [0, 1] or nothing.
    """
    cons = np.array(list(_region_table(market).values()), dtype=float)[:, :, None, :]
    slope = cons[..., 1::-1] * q[:, ::-1]  # (regions, m, k, edge)
    rhs = cons[..., 2:] - cons[..., :2] * q
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = rhs / slope
    hi = np.where(slope > 0.0, bound, np.inf).min(axis=1)
    lo = np.where(slope < 0.0, bound, -np.inf).max(axis=1)
    live = ((slope != 0.0) | (rhs >= 0.0)).all(axis=1)
    return np.where(live, np.maximum(np.minimum(hi, 1.0) - np.maximum(lo, 0.0), 0.0), 0.0)


class PayoffModel(ABC):
    """A sender payoff surface Phi with its exact gradient, on a batch (k, 2) of points."""

    def value(self, pts: np.ndarray) -> np.ndarray:
        """Phi (k,) at a batch (k, 2) of points."""
        return self.value_and_grad(pts)[0]

    @abstractmethod
    def value_and_grad(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phi (k,) and its gradient (k, 2) at a batch (k, 2) of points."""


@dataclass(frozen=True)
class ConcaveBowl(PayoffModel):
    """Phi(y) = 1 - |y - (0.5, 0.5)|^2, strictly concave with peak 1."""

    def value_and_grad(self, pts):
        return 1.0 - ((pts - BOWL_CENTER) ** 2).sum(axis=1), -2.0 * (pts - BOWL_CENTER)


@functools.cache
def _tri_modal_weights() -> np.ndarray:
    # mixture weights solving Phi(mode_j) = 1 exactly for every mode; shared, so read-only
    d2 = ((TRI_MODES[:, None, :] - TRI_MODES[None, :, :]) ** 2).sum(-1)
    gram = np.exp(-d2 / (2.0 * TRI_SIGMA**2))
    weights = np.linalg.solve(gram, np.ones(3))
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class TriModal(PayoffModel):
    """Gaussian mixture with three equal-height modes of value 1 each."""

    def value_and_grad(self, pts):
        diff = pts[:, None, :] - TRI_MODES[None, :, :]
        # a row sum, not a BLAS product, so a point's value is the same in any batch
        ew = np.exp(-(diff**2).sum(-1) / (2.0 * TRI_SIGMA**2)) * _tri_modal_weights()
        return ew.sum(axis=1), -(ew[:, :, None] * diff).sum(axis=1) / TRI_SIGMA**2


@dataclass(frozen=True)
class Monopolist(PayoffModel):
    """Phi = expected revenue in the market, with its exact gradient.

    Region k is {v in [0,1]^2: (q1 v1, q2 v2) in P_k} for a polygon P_k set by
    the prices, so for q_i != 0: dR/dq_i = (sum_k p_k l_k^(i) - R) / q_i,
    where l_k^(i) is the region's length along the edge v_i = 1.
    """

    market: MarketConfig

    def value(self, pts):
        return revenue(pts, self.market)

    def value_and_grad(self, pts):
        if not pts.all():
            point = tuple(pts[~pts.all(axis=1)][0].tolist())
            raise NumericFailure(f"no revenue gradient at q = {point}: a quality is zero")
        m = self.market
        rev = revenue(pts, m)
        # region prices in _region_table order: none, good1, good2, bundle
        sections = zip((0.0, m.p1, m.p2, m.p3), _edge_sections(pts, m))
        return rev, (sum(price * section for price, section in sections) - rev[:, None]) / pts


# the public constructors: concave_bowl(), tri_modal(), monopolist_payoff(market)
concave_bowl = ConcaveBowl
tri_modal = TriModal
monopolist_payoff = Monopolist


def phi_eval(model: PayoffModel, point) -> float | np.ndarray:
    """Payoff value at a point (2,) or batch (k, 2) of points."""
    pts = np.asarray(point, dtype=float)
    out = model.value(np.atleast_2d(pts))
    return float(out[0]) if pts.ndim == 1 else out


def phi_grad(model: PayoffModel, point) -> np.ndarray:
    """Payoff gradient at a point (2,) or batch (k, 2) of points."""
    pts = np.asarray(point, dtype=float)
    out = model.value_and_grad(np.atleast_2d(pts))[1]
    return out[0] if pts.ndim == 1 else out
