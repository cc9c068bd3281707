"""Sender payoffs: synthetic test surfaces and monopolist revenue.

Every payoff is a PayoffModel whose value_and_grad gives the value and an
exact gradient on a batch of points. Monopolist.value is the one value-only
path: full_info_revenue prices every grid point, at a quarter of the cost of
value_and_grad. The monopolist revenue comes from purchase probabilities in
closed form: with valuations uniform on the unit square, the buyer's net
utilities from the two goods are independent uniforms, and each purchase
region's probability is an expectation over one of them of the other's
survival function, a product of survivals plus a difference of its
piecewise-quadratic integral. Every step is elementwise over the batch.
The revenue gradient comes from the same closed form by a scaling identity:
dR/dq_i = (R(q | v_i = 1) - R(q)) / q_i, where fixing good i's valuation at
one makes its utility a point mass (Monopolist).
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure

TRI_MODES = np.array([(0.5, 0.25), (0.75, 0.75), (0.25, 0.75)])
TRI_SIGMA = 0.12
BOWL_CENTER = np.array([0.5, 0.5])


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


def _survival(lo, hi, inv, x: float) -> np.ndarray:
    """P(V >= x) for V uniform on [lo, hi] with inv = 1 / (hi - lo), or V = lo where inv = 0."""
    out = np.maximum(lo, x)
    np.subtract(hi, out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= inv
    np.copyto(out, 1.0, where=x <= lo)
    return out


def _shares(a: np.ndarray, c: np.ndarray, market: MarketConfig, with_none: bool = False) -> np.ndarray:
    """Purchase probabilities of good 1, good 2, the bundle (additive demand)
    and, if asked, nothing: (regions, k) for net utilities X = a0 v1 + c0 and
    Y = a1 v2 + c1, with slopes a (2, k) and offsets c that broadcast to it.

    With v uniform on the unit square, X and Y are independent uniforms, a
    point mass at c_i where a_i = 0; quality pairs q give a = q and c = -p.
    The regions are symmetric in the goods, so each pair is first ordered to
    make Y the wider. With d the bundle surcharge (+inf under unit demand),
    each region is P(A >= s, B >= t, A + B >= r) for A = +-X and B = +-Y:
    good1 (X, -Y; 0, -d, 0), good2 (-X, Y; -d, 0, 0), bundle (X, Y; d, d, d)
    and none (-X, -Y; 0, 0, max(-d, 0)), whose last bound is implied when
    d >= 0. That is E_B[1{B >= t} S_A(max(s, r - B))] with S_A(x) = P(A >= x):
    the part B >= r - s is a product of survivals, and the part t <= B <= r - s
    is a difference of J(u), the integral of S_A from u on, divided by B's
    width. Bounds are inclusive, and every step is elementwise, so a pair's
    value does not depend on its batch.
    """
    d = market.delta if market.demand == "additive" else math.inf
    table = [(1, -1, 0.0, -d, 0.0), (-1, 1, -d, 0.0, 0.0)]
    table += [(1, 1, d, d, d)] if market.demand == "additive" else []
    table += [(-1, -1, 0.0, 0.0, max(-d, 0.0))] if with_none else []
    # one allocation for the supports, the result and the loop's rows: it
    # outsizes the call's other temporaries, so the allocator keeps their
    # pages for the next call instead of returning them and faulting them in
    work = np.empty((len(table) + 11, a.shape[1]))
    lo, hi, inv, half = work[0:2], work[2:4], work[4:6], work[6]
    out, u, tri = work[7 : 7 + len(table)], work[-4:-2], work[-2:]
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
    for row, (sign_a, sign_b, s, t, r) in zip(out, table):
        a_lo, a_hi = (lo[0], hi[0]) if sign_a > 0 else (-hi[0], -lo[0])
        b_lo, b_hi = (lo[1], hi[1]) if sign_b > 0 else (-hi[1], -lo[1])
        # B's part [min(max(b_lo, t), b_hi), b_hi] splits at the cut r - s:
        # above it S_A(max(s, r - B)) = S_A(s); below it, the integral of S_A
        # over u = r - B is a difference of J(u), the integral of S_A from u
        # on: the length of [u, a_lo], where S_A = 1, plus S_A's triangle past u
        np.maximum(b_lo, t, out=u[1])
        np.minimum(u[1], b_hi, out=u[1])
        np.minimum(b_hi, r - s, out=u[0])
        np.maximum(u[0], u[1], out=u[0])
        np.subtract(b_hi, u[0], out=row)
        row *= _survival(a_lo, a_hi, inv[0], s)
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
        row += u[0]
        row *= inv[1]
    out[:2] = np.where(swap, out[1::-1], out[:2])
    if with_none:
        # where both slopes are zero, B is a point mass and every row reads 0:
        # at q = 0, where c = -p, that is right for the goods and the bundle,
        # as X = -p1, Y = -p2 and X + Y = d - p3 < d, but nothing is bought
        out[-1] = np.where(inv[1] > 0.0, out[-1], 1.0)
    return out


def purchase_breakdown(q, market: MarketConfig) -> PurchaseBreakdown:
    """Exact purchase probabilities at quality pair q."""
    a = np.asarray(q, dtype=float).reshape(2, 1)
    shares = _shares(a, _offsets(market), market, with_none=True)[:, 0].tolist()
    c3 = shares[2] if market.demand == "additive" else 0.0
    return PurchaseBreakdown(c0=shares[-1], c1=shares[0], c2=shares[1], c3=c3)


def revenue(q, market: MarketConfig) -> float | np.ndarray:
    """Expected revenue p1 c1 + p2 c2 + p3 c3 at a quality pair (2,) or batch (k, 2)."""
    pts = np.asarray(q, dtype=float)
    out = _revenue(pts.reshape(-1, 2).T, _offsets(market), market)
    return float(out[0]) if pts.ndim == 1 else out


def _offsets(market: MarketConfig) -> np.ndarray:
    """The offsets c = -p (2, 1) of _shares at quality pairs, broadcast over the batch."""
    return -np.array([[market.p1], [market.p2]], dtype=float)


def _revenue(a: np.ndarray, c, market: MarketConfig) -> np.ndarray:
    """p1 c1 + p2 c2 + p3 c3 (k,) from the _shares at slopes a (2, k) and offsets c."""
    shares = _shares(a, c, market)
    return sum(price * share for price, share in zip((market.p1, market.p2, market.p3), shares))


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
        if not pts.all():
            point = tuple(pts[~pts.all(axis=1)][0].tolist())
            raise NumericFailure(f"no revenue gradient at q = {point}: a quality is zero")
        m, k = self.market, len(pts)
        # one closed form over 3k columns: the square, then the edge v1 = 1 and
        # the edge v2 = 1, where good i's utility has slope 0 and offset q_i - p_i
        a = np.tile(pts.T, 3)
        c = np.tile(_offsets(m), 3 * k)
        for i in range(2):
            edge = slice((i + 1) * k, (i + 2) * k)
            c[i, edge] += a[i, edge]
            a[i, edge] = 0.0
        rev, *edges = _revenue(a, c, m).reshape(3, k)
        return rev, (np.transpose(edges) - rev[:, None]) / pts


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
