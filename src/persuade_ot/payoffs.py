"""Sender payoffs: synthetic test surfaces and monopolist revenue.

Every payoff is a PayoffModel whose value_and_grad gives the value and an
exact gradient on a batch of points. Monopolist.value is the one value-only
path: full_info_revenue prices every grid point, at a quarter of the cost of
value_and_grad. The monopolist revenue comes from purchase probabilities in
closed form: with valuations uniform on the unit square, the buyer's net
utilities from the two goods are independent uniforms, and each purchase
region's probability is an expectation over one of them of the other's
survival function, a product of survivals plus a difference of its
piecewise-quadratic integral. Every step is elementwise over the batch,
so the prices may differ from pair to pair: Monopolists (stacked_payoff)
prices the restarts of several markets in one pass.
The revenue gradient comes from the same closed form by a scaling identity:
dR/dq_i = (R(q | v_i = 1) - R(q)) / q_i, where fixing good i's valuation at
one makes its utility a point mass (Monopolist).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

TRI_MODES = np.array([(0.5, 0.25), (0.75, 0.75), (0.25, 0.75)])
TRI_SIGMA = 0.12
BOWL_CENTER = np.array([0.5, 0.5])
# pairs per block of a revenue batch
REVENUE_BLOCK = 8192


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


# _shares' regions in order, each as the rows that give its (a_lo, a_hi, -,
# b_lo, b_hi) among (lo1, lo2, hi1, hi2, -hi2, -hi1, -lo2, -lo1), the
# utilities' supports and their negations (the middle slot is scratch), and
# the rows that give its bounds (s, t, r) among (0, -d, d)
_REGIONS = (
    ((0, 2, 6, 4, 6), (0, 1, 0)),  # good 1
    ((5, 7, 3, 1, 3), (1, 0, 0)),  # good 2
    ((0, 2, 3, 1, 3), (2, 2, 2)),  # the bundle
)


def _shares(a: np.ndarray, c: np.ndarray, d) -> np.ndarray:
    """Purchase probabilities of good 1, good 2 and, under additive demand,
    the bundle: (regions, k) for net utilities X = a0 v1 + c0 and
    Y = a1 v2 + c1, with slopes a (2, k), offsets c that broadcast to it and
    bundle surcharges d (K,) with K = 1 or k, or None under unit demand.

    With v uniform on the unit square, X and Y are independent uniforms, a
    point mass at c_i where a_i = 0; quality pairs q give a = q and c = -p.
    The regions are symmetric in the goods, so each pair is first ordered to
    make Y the wider. With d the bundle surcharge (+inf under unit demand),
    each region is P(A >= s, B >= t, A + B >= r) for A = +-X and B = +-Y:
    good1 (X, -Y; 0, -d, 0), good2 (-X, Y; -d, 0, 0) and bundle (X, Y; d, d, d).
    That is E_B[1{B >= t} S_A(max(s, r - B))] with S_A(x) = P(A >= x):
    the part B >= r - s is a product of survivals, and the part t <= B <= r - s
    is a difference of J(u), the integral of S_A from u on, divided by B's
    width. Ties go to the bundle over a single good and to buying over
    nothing, so the regions tile the square and buying nothing is the rest.
    Only a point mass ties with positive probability, and only the narrower
    X can be one alone, so every bound is inclusive but one: at X = d, on
    good2's s, its row takes A > s and the bundle wins. The regions are
    stacked on a leading axis, and every step is elementwise, so a pair's
    value depends neither on its batch nor on the other pairs' markets.
    """
    end_rows, bound_rows = (np.array(rows).T for rows in zip(*_REGIONS[: 2 + (d is not None)]))
    bounds = np.zeros((3, 1 if d is None else len(d)))
    np.negative(np.inf if d is None else d, out=bounds[1])
    np.negative(bounds[1], out=bounds[2])
    s, t, r = bounds[bound_rows]  # each (regions, K)
    # one allocation for every (k,) row: it outsizes the call's other
    # temporaries, so the allocator keeps their pages for the next call
    # instead of returning them and faulting them in
    g, k = end_rows.shape[1], a.shape[1]
    work = np.empty((11 + 5 * g, k))
    ends, inv, half = work[:8], work[8:10], work[10]
    lims = work[11:].reshape(5, g, k)
    tri = ends[: 2 * g].reshape(2, g, k)  # once the limits are gathered
    lo, hi = ends[0:2], ends[2:4]
    swap = np.abs(a[0]) > np.abs(a[1])
    np.copyto(lo, a)
    np.copyto(lo, a[::-1], where=swap)
    c = np.where(swap, c[::-1], c)
    np.maximum(lo, 0.0, out=hi)
    hi += c
    np.minimum(lo, 0.0, out=lo)
    lo += c
    np.subtract(hi, lo, out=inv)
    np.divide(1.0, inv, out=inv, where=inv > 0.0)
    np.multiply(inv[0], 0.5, out=half)
    np.negative(ends[3::-1], out=ends[4:])
    np.take(ends, end_rows, axis=0, out=lims, mode="clip")  # "raise" would buffer out
    a_lo, a_hi, u, out = lims[0], lims[1], lims[2:4], lims[4]
    # B's part [min(max(b_lo, t), b_hi), b_hi] splits at the cut r - s:
    # above it S_A(max(s, r - B)) = S_A(s); below it, the integral of S_A
    # over u = r - B is a difference of J(u), the integral of S_A from u
    # on: the length of [u, a_lo], where S_A = 1, plus S_A's triangle past u
    np.maximum(u[1], t, out=u[1])
    np.minimum(u[1], out, out=u[1])
    np.minimum(out, r - s, out=u[0])
    np.maximum(u[0], u[1], out=u[0])
    np.subtract(out, u[0], out=out)
    survival = tri[0]  # S_A(s)
    np.maximum(a_lo, s, out=survival)
    np.subtract(a_hi, survival, out=survival)
    np.maximum(survival, 0.0, out=survival)
    survival *= inv[0]
    np.copyto(survival, 1.0, where=s <= a_lo)
    # the bundle's tie with good 2: S_A(s) = P(A > s) at a point mass on s
    np.copyto(survival[1], 0.0, where=(s[1] == a_lo[1]) & (inv[0] == 0.0))
    out *= survival
    np.subtract(r, u, out=u)
    np.maximum(u, a_lo, out=tri)
    np.minimum(tri, a_hi, out=tri)
    np.subtract(a_hi, tri, out=tri)
    np.square(tri, out=tri)
    tri *= half
    np.subtract(a_lo, u, out=u)
    np.maximum(u, 0.0, out=u)
    u += tri
    np.subtract(u[0], u[1], out=u[0])
    out += u[0]
    out *= inv[1]
    out[:2] = np.where(swap, out[1::-1], out[:2])
    return out


def _terms(markets: list, reps=1) -> tuple:
    """Offsets c (2, K), bundle surcharges d (K,) or None, and prices (3, K)
    of _shares and _revenue for a batch of pairs, reps consecutive pairs per
    market (one count for all, or one per market): K = 1 for one market,
    which broadcasts over any batch."""
    prices = np.array([(m.p1, m.p2, m.p3) for m in markets], dtype=float).T
    d = None if markets[0].demand == "unit" else np.array([m.delta for m in markets], dtype=float)
    if len(markets) > 1:
        prices = np.repeat(prices, reps, axis=1)
        d = None if d is None else np.repeat(d, reps)
    return -prices[:2], d, prices


def purchase_breakdown(q, market: MarketConfig) -> PurchaseBreakdown:
    """Exact purchase probabilities at quality pair q."""
    a = np.asarray(q, dtype=float).reshape(2, 1)
    c, d, _ = _terms([market])
    c1, c2, c3 = _shares(a, c, d)[:, 0].tolist() + [0.0] * (d is None)
    return PurchaseBreakdown(c0=1.0 - (c1 + c2 + c3), c1=c1, c2=c2, c3=c3)


def revenue(q, market: MarketConfig) -> float | np.ndarray:
    """Expected revenue p1 c1 + p2 c2 + p3 c3 at a quality pair (2,) or batch (k, 2)."""
    pts = np.asarray(q, dtype=float)
    out = stacked_revenue([market], [pts.reshape(-1, 2)])[0]
    return float(out[0]) if pts.ndim == 1 else out


def stacked_revenue(markets: list, points: list) -> list:
    """Revenue (k_j,) of each market at its own quality pairs (k_j, 2), in one
    closed-form pass with per-pair prices; the markets share a demand model.

    Each pair's value is that of its own market's revenue call. The pass
    runs in blocks of REVENUE_BLOCK pairs, which keeps a whole-grid call's
    temporaries in the cache and off the peak memory.
    """
    if len({m.demand for m in markets}) > 1:
        raise ValueError("stacked markets must share a demand model")
    counts = [len(p) for p in points]
    c, d, prices = _terms(markets, counts)
    a = (points[0] if len(points) == 1 else np.concatenate(points)).T
    out = []
    for i in range(0, max(a.shape[1], 1), REVENUE_BLOCK):
        part = slice(i, i + REVENUE_BLOCK)
        # per-pair terms are sliced with the pairs; one market's broadcast
        terms = (c, d, prices) if prices.shape[1] == 1 else (
            c[:, part], None if d is None else d[part], prices[:, part])
        out.append(_revenue(a[:, part], *terms))
    return np.split(np.concatenate(out), np.cumsum(counts[:-1]))


def _revenue(a: np.ndarray, c, d, prices: np.ndarray) -> np.ndarray:
    """p1 c1 + p2 c2 + p3 c3 (k,) from the _shares at slopes a (2, k), offsets
    c and surcharges d, with prices (3, .) that broadcast to (3, k)."""
    shares = _shares(a, c, d)
    return sum(price * share for price, share in zip(prices, shares))


def _revenue_and_grad(pts: np.ndarray, markets: list) -> tuple[np.ndarray, np.ndarray]:
    """Revenue (k,) and its gradient (k, 2) at quality pairs pts (k, 2), in
    equal consecutive blocks, one per market (Monopolist)."""
    if not pts.all():
        point = tuple(pts[~pts.all(axis=1)][0].tolist())
        raise NumericFailure(f"no revenue gradient at q = {point}: a quality is zero")
    k = len(pts)
    c, d, prices = _terms(markets, k // len(markets))
    # one closed form over 3k columns: the square, then the edge v1 = 1 and
    # the edge v2 = 1, where good i's utility has slope 0 and offset q_i - p_i
    a = np.tile(pts.T, 3)
    c = np.tile(np.broadcast_to(c, (2, k)), 3)
    if prices.shape[1] > 1:
        prices = np.tile(prices, 3)
        d = None if d is None else np.tile(d, 3)
    for i in range(2):
        edge = slice((i + 1) * k, (i + 2) * k)
        c[i, edge] += a[i, edge]
        a[i, edge] = 0.0
    rev, *edges = _revenue(a, c, d, prices).reshape(3, k)
    return rev, (np.transpose(edges) - rev[:, None]) / pts


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
        ew = np.exp(-(diff**2).sum(-1) / (2.0 * TRI_SIGMA**2)) * _tri_modal_weights()
        # a row sum, not a BLAS product, so a point's value is the same in any batch
        return ew.sum(axis=1), -(ew[:, :, None] * diff).sum(axis=1) / TRI_SIGMA**2


@dataclass(frozen=True)
class Monopolist(PayoffModel):
    """Phi = expected revenue in the market, with its exact gradient.

    Region k is {v in [0,1]^2: (q1 v1, q2 v2) in P_k} for a polygon P_k set by
    the prices, so substituting u_i = q_i v_i gives for q_i != 0:
    dR/dq_i = (R(q | v_i = 1) - R(q)) / q_i, with R(q | v_i = 1) the revenue
    when good i's valuation is one: the same closed form with good i's utility
    the point mass q_i - p_i.
    """

    market: MarketConfig

    def value(self, pts):
        return revenue(pts, self.market)

    def value_and_grad(self, pts):
        return _revenue_and_grad(pts, [self.market])


@dataclass(frozen=True)
class Monopolists(PayoffModel):
    """Monopolists of one demand model, one per consecutive equal block of
    points, in one pass: each point's values are its own market's call's."""

    markets: tuple

    def value_and_grad(self, pts):
        return _revenue_and_grad(pts, self.markets)


def stacked_payoff(models: list) -> PayoffModel:
    """One payoff for R restarts' points, n consecutive ones each under
    models[r]: the one payoff of them all, or Monopolists of one demand model."""
    if all(model == models[0] for model in models):
        return models[0]
    if all(isinstance(model, Monopolist) for model in models) and len(
        {model.market.demand for model in models}
    ) == 1:
        return Monopolists(tuple(model.market for model in models))
    raise ValueError("a batch's payoffs must be one payoff or monopolists of one demand model")


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
