import itertools

import numpy as np
import pytest

from persuade_ot import (
    MarketConfig,
    concave_bowl,
    monopolist_payoff,
    phi_eval,
    phi_grad,
    purchase_breakdown,
    revenue,
    tri_modal,
)
from persuade_ot.payoffs import (
    BLOCK,
    TRI_MODES,
    _ClipWork,
    _clip_regions,
    _region_table,
    phi_value_and_grad,
)

# Scalar reference for the batched revenue: one polygon clipped by one
# half-plane at a time (Sutherland-Hodgman), as plain Python floats.

Vertex = tuple[float, float]

UNIT_SQUARE: list[Vertex] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


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


def region_constraints(q1: float, q2: float, market: MarketConfig):
    """Half-plane systems (normal, offset) defining each purchase region."""
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


def reference_polygons(q, market: MarketConfig) -> dict[str, list[Vertex]]:
    polys = {}
    for name, constraints in region_constraints(float(q[0]), float(q[1]), market).items():
        poly = [] if constraints is None else UNIT_SQUARE
        for normal, offset in constraints or []:
            poly = clip_halfplane(poly, normal, offset)
            if not poly:
                break
        polys[name] = poly
    return polys


def reference_revenue(q, market: MarketConfig) -> float:
    polys = reference_polygons(q, market)
    total = 0.0
    for name, price in (("good1", market.p1), ("good2", market.p2), ("bundle", market.p3)):
        if polys[name]:
            total += price * polygon_area(polys[name])
    return total


def table_markets():
    """The 25 markets of the four revenue tables (configs/table1..4.yaml)."""
    for p2 in (1.0, 1.25, 1.5, 1.75, 2.0):
        yield MarketConfig(p1=1.0, p2=p2, q_min=0.0, q_max=2.0)
    for q_min in (0.25, 0.5, 0.75, 1.0, 1.25):
        yield MarketConfig(p1=1.0, p2=1.25, q_min=q_min, q_max=2.0)
    for delta in (-1.0, -0.875, -0.75, -0.625, -0.5, -0.375, -0.25, -0.125, 0.0,
                  0.125, 0.25, 0.375, 0.5, 0.625, 0.75):
        yield MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=delta, demand="additive")


TIE_LATTICE = np.array(list(itertools.product((0.0, 0.5, 1.0, 1.125, 1.25, 1.5, 2.0), repeat=2)))


def test_clip_vertical_halfplane():
    out = clip_halfplane(UNIT_SQUARE, (1.0, 0.0), 0.5)
    assert abs(polygon_area(out) - 0.5) < 1e-12


def test_clip_containing_halfplane_identity():
    out = clip_halfplane(UNIT_SQUARE, (1.0, 1.0), 10.0)
    assert out == UNIT_SQUARE


def test_clip_diagonal_triangle():
    out = clip_halfplane(UNIT_SQUARE, (1.0, 1.0), 1.0)
    assert abs(polygon_area(out) - 0.5) < 1e-12


def test_clip_to_empty():
    assert clip_halfplane(UNIT_SQUARE, (1.0, 0.0), -0.5) == []


def test_area_trivials():
    assert polygon_area(UNIT_SQUARE) == 1.0
    assert polygon_area([]) == 0.0
    assert polygon_area([(0.0, 0.0), (1.0, 0.0)]) == 0.0
    assert abs(polygon_area([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]) - 0.5) < 1e-12


def test_unit_demand_dead_market():
    mkt = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0)
    b = purchase_breakdown((1.0, 1.0), mkt)
    assert b.c0 == 1.0 and b.c1 == 0.0 and b.c2 == 0.0 and b.c3 == 0.0
    assert revenue((1.0, 1.0), mkt) == 0.0


def test_unit_demand_known_share():
    # q=(1.125, 1.125), p=(1, 1.25): only good 1 sells, to v1 > 8/9
    mkt = MarketConfig(p1=1.0, p2=1.25, q_min=0.25, q_max=2.0)
    b = purchase_breakdown((1.125, 1.125), mkt)
    assert abs(b.c1 - 1.0 / 9.0) < 1e-12
    assert b.c2 == 0.0
    assert abs(revenue((1.125, 1.125), mkt) - 1.0 / 9.0) < 1e-12


def test_additive_half_square_bundle():
    mkt = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-1.0, demand="additive")
    b = purchase_breakdown((1.0, 1.0), mkt)
    assert abs(b.c3 - 0.5) < 1e-12
    assert b.c1 == 0.0 and b.c2 == 0.0
    assert abs(revenue((1.0, 1.0), mkt) - 0.5) < 1e-12


def test_additive_discount_sweep_at_mean():
    # exact triangle areas: R(1,1) = p3 (2 - p3)^2 / 2 for p3 in [1, 2]
    for delta in (-1.0, -0.875, -0.75, -0.625, -0.5, -0.375, -0.25, -0.125):
        mkt = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=delta, demand="additive")
        p3 = 2.0 + delta
        expected = p3 * (2.0 - p3) ** 2 / 2.0
        assert abs(revenue((1.0, 1.0), mkt) - expected) < 1e-12


def test_probabilities_partition():
    rng = np.random.default_rng(31)
    for demand in ("unit", "additive"):
        for _ in range(500):
            p1, p2 = rng.uniform(0.2, 2.0, size=2)
            delta = rng.uniform(-min(p1, p2) * 0.9, 1.0) if demand == "additive" else 0.0
            mkt = MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0, delta=delta, demand=demand)
            q = rng.uniform(0.01, 2.0, size=2)
            b = purchase_breakdown(q, mkt)
            for c in (b.c0, b.c1, b.c2, b.c3):
                assert -1e-12 <= c <= 1.0 + 1e-12
            assert abs(b.c0 + b.c1 + b.c2 + b.c3 - 1.0) < 1e-12


def test_unit_demand_monotonicity():
    mkt0 = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0)
    qs = np.linspace(0.2, 2.0, 8)
    for q2 in qs:
        shares = [purchase_breakdown((q1, q2), mkt0).c1 for q1 in qs]
        assert np.all(np.diff(shares) >= -1e-12)
    for q in ((1.5, 1.2), (0.8, 1.9)):
        shares = [
            purchase_breakdown(q, MarketConfig(p1=p1, p2=1.0, q_min=0.0, q_max=2.0)).c1
            for p1 in np.linspace(0.3, 1.8, 8)
        ]
        assert np.all(np.diff(shares) <= 1e-12)


def test_areas_agree_with_quadrature():
    rng = np.random.default_rng(33)
    u = (np.arange(512) + 0.5) / 512
    v1, v2 = np.meshgrid(u, u, indexing="ij")
    for _ in range(20):
        demand = "unit" if rng.random() < 0.5 else "additive"
        p1, p2 = rng.uniform(0.3, 1.8, size=2)
        delta = rng.uniform(-0.5, 0.5) if demand == "additive" else 0.0
        mkt = MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0, delta=delta, demand=demand)
        q1, q2 = rng.uniform(0.1, 2.0, size=2)
        s1 = q1 * v1 - p1
        s2 = q2 * v2 - p2
        b = purchase_breakdown((q1, q2), mkt)
        if demand == "unit":
            c1 = np.mean((s1 >= 0) & (s1 >= s2))
            c2 = np.mean((s2 >= 0) & (s2 >= s1))
        else:
            s12 = s1 + s2 + p1 + p2 - mkt.p3
            c1 = np.mean((s1 >= 0) & (s1 >= s2) & (s1 >= s12))
            c2 = np.mean((s2 >= 0) & (s2 >= s1) & (s2 >= s12))
            c3 = np.mean((s12 >= 0) & (s12 >= s1) & (s12 >= s2))
            assert abs(b.c3 - c3) < 2e-3
        assert abs(b.c1 - c1) < 2e-3
        assert abs(b.c2 - c2) < 2e-3


def test_revenue_bounds():
    rng = np.random.default_rng(35)
    for _ in range(300):
        demand = "unit" if rng.random() < 0.5 else "additive"
        p1, p2 = rng.uniform(0.2, 2.0, size=2)
        delta = rng.uniform(-0.3, 0.8) if demand == "additive" else 0.0
        mkt = MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0, delta=delta, demand=demand)
        q = rng.uniform(0.01, 2.0, size=2)
        r = revenue(q, mkt)
        assert 0.0 <= r <= max(p1, p2, mkt.p3) + 1e-12


def test_prohibitive_surcharge_matches_unit():
    # with the bundle priced out, additive demand reduces to unit demand
    rng = np.random.default_rng(37)
    for _ in range(50):
        p1, p2 = rng.uniform(0.5, 1.5, size=2)
        q = rng.uniform(0.1, 2.0, size=2)
        unit = MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0)
        # delta > max attainable utility of the skipped good
        add = MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0, delta=5.0, demand="additive")
        bu = purchase_breakdown(q, unit)
        ba = purchase_breakdown(q, add)
        assert ba.c3 == 0.0
        assert abs(bu.c1 - ba.c1) < 1e-12
        assert abs(bu.c2 - ba.c2) < 1e-12
        assert abs(revenue(q, unit) - revenue(q, add)) < 1e-12


def test_degenerate_quality_never_bought():
    mkt = MarketConfig(p1=0.5, p2=0.5, q_min=0.0, q_max=2.0)
    b = purchase_breakdown((0.0, 1.5), mkt)
    assert b.c1 == 0.0
    assert b.c2 > 0


def test_market_validation():
    with pytest.raises(ValueError):
        MarketConfig(p1=0.0, p2=1.0, q_min=0.0, q_max=2.0)
    with pytest.raises(ValueError):
        MarketConfig(p1=1.0, p2=1.0, q_min=1.0, q_max=1.0)
    with pytest.raises(ValueError):
        MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-3.0, demand="additive")
    with pytest.raises(ValueError):
        MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, demand="both")


def test_bowl_peak():
    model = concave_bowl()
    assert phi_eval(model, (0.5, 0.5)) == 1.0
    assert np.allclose(phi_grad(model, (0.5, 0.5)), (0.0, 0.0))
    assert np.allclose(phi_grad(model, (0.75, 0.5)), (-0.5, 0.0))


def test_tri_modal_equal_heights():
    model = tri_modal()
    vals = phi_eval(model, TRI_MODES)
    assert np.max(np.abs(vals - 1.0)) < 1e-9
    # modes are near-stationary: the cross-mode pull is tiny at sigma=0.12
    grads = phi_grad(model, TRI_MODES)
    assert np.max(np.abs(grads)) < 1e-2


def test_revenue_gradient_richardson():
    # the measure-zero kink set aside, two different steps must agree
    mkt = MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0)
    model = monopolist_payoff(mkt)
    rng = np.random.default_rng(39)
    checked = 0
    for _ in range(20):
        q = rng.uniform(0.8, 1.9, size=2)
        fine = phi_grad(model, q)
        coarse = np.array([
            (revenue(q + dq, mkt) - revenue(q - dq, mkt)) / (2e-3)
            for dq in (np.array([1e-3, 0.0]), np.array([0.0, 1e-3]))
        ])
        scale = max(np.max(np.abs(coarse)), 1e-6)
        if np.max(np.abs(fine - coarse)) / scale < 1e-3:
            checked += 1
    assert checked >= 15


def test_phi_batch_shapes():
    model = concave_bowl()
    pts = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.9]])
    vals = phi_eval(model, pts)
    assert vals.shape == (3,)
    grads = phi_grad(model, pts)
    assert grads.shape == (3, 2)


def test_batch_revenue_matches_scalar_reference():
    # difference shifts leave [q_min, q_max] (q_min = 0 gives negative q),
    # the lattice holds exact ties, and a zero component zeroes a normal
    rng = np.random.default_rng(41)
    markets = list(table_markets())
    assert len(markets) == 25
    for market in markets:
        q = np.vstack([
            rng.uniform(market.q_min - 0.1, market.q_max + 0.1, size=(400, 2)),
            TIE_LATTICE,
            [[0.0, 1.3], [1.3, 0.0], [0.0, 0.0], [-0.05, 0.7]],
        ])
        want = np.array([reference_revenue(p, market) for p in q])
        got = revenue(q, market)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.array_equal(got, want)
        assert all(revenue(p, market) == w for p, w in zip(q[::50], want[::50]))


def test_batch_revenue_block_edges():
    rng = np.random.default_rng(43)
    for market in (MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0),
                   MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-0.5, demand="additive")):
        q = rng.uniform(-0.1, 2.1, size=(BLOCK + 1, 2))
        one_by_one = np.array([revenue(p, market) for p in q])
        for k in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
            got = revenue(q[:k], market)
            assert got.shape == (k,)
            assert np.array_equal(got, one_by_one[:k])


class GrowingWork(_ClipWork):
    """Reserves room for the square alone up front, so that every step that
    gains vertices grows the arrays in the middle of the clip."""

    def __init__(self):
        super().__init__()
        self.grown = 0

    def reserve(self, rows, width):
        if self._unit == 0:
            width = 4
        elif (width + 2) * rows > self._unit:
            self.grown += 1
        super().reserve(rows, width)


def test_consecutive_calls_match_fresh():
    # batches of alternating markets and sizes across the block edges, by
    # revenue and by one clip work object shared as the blocks of a batch
    # share it; and clips whose work arrays grow between steps
    rng = np.random.default_rng(49)
    unit = MarketConfig(p1=1.0, p2=1.5, q_min=0.0, q_max=2.0)
    additive = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=0.25, demand="additive")
    q = rng.uniform(-0.1, 2.1, size=(BLOCK + 1, 2))
    one_by_one = {m: np.array([revenue(p, m) for p in q]) for m in (unit, additive)}
    calls = [(unit, BLOCK + 1), (additive, BLOCK - 1), (unit, BLOCK), (additive, BLOCK + 1),
             (unit, 3), (additive, BLOCK), (unit, BLOCK - 1)]
    for market, k in calls:
        assert np.array_equal(revenue(q[:k], market), one_by_one[market][:k])
    work = _ClipWork()
    grown = 0
    for market, k in calls:
        names = list(_region_table(market))
        poly, count = _clip_regions(q[:k], market, names, work)
        want_poly, want_count = _clip_regions(q[:k], market, names)
        assert np.array_equal(poly, want_poly) and np.array_equal(count, want_count)
        growing = GrowingWork()
        poly, count = _clip_regions(q[:k], market, names, growing)
        grown += growing.grown
        assert np.array_equal(poly, want_poly) and np.array_equal(count, want_count)
    assert grown > 0


def test_breakdown_polygons_match_scalar_reference():
    rng = np.random.default_rng(45)
    for market in table_markets():
        for q in np.vstack([TIE_LATTICE[::5], rng.uniform(-0.1, 2.1, size=(20, 2))]):
            b = purchase_breakdown(q, market)
            want = reference_polygons(q, market)
            assert b.region_polygons == want
            assert (b.c0, b.c1, b.c2, b.c3) == tuple(
                polygon_area(want[name]) for name in ("none", "good1", "good2", "bundle"))


def test_payoff_batch_equals_point_calls():
    rng = np.random.default_rng(47)
    pts = rng.uniform(-0.1, 2.1, size=(13, 2))
    for market in (MarketConfig(p1=1.0, p2=1.5, q_min=0.0, q_max=2.0),
                   MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=0.25, demand="additive")):
        model = monopolist_payoff(market)
        vals = phi_eval(model, pts)
        grads = phi_grad(model, pts)
        assert np.array_equal(vals, [phi_eval(model, p) for p in pts])
        assert np.array_equal(grads, [phi_grad(model, p) for p in pts])
        both = phi_value_and_grad(model, pts)
        assert np.array_equal(both[0], vals) and np.array_equal(both[1], grads)
        step = model.fd_step
        for p, g in zip(pts, grads):
            for axis in range(2):
                hi, lo = p.copy(), p.copy()
                hi[axis] += step
                lo[axis] -= step
                assert g[axis] == (
                    reference_revenue(hi, market) - reference_revenue(lo, market)) / (2.0 * step)
    for model in (concave_bowl(), tri_modal()):
        both = phi_value_and_grad(model, pts)
        assert np.array_equal(both[0], phi_eval(model, pts))
        assert np.array_equal(both[1], phi_grad(model, pts))
