import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from persuade_ot import (
    EntropicConfig,
    MarketConfig,
    NumericFailure,
    ObjectiveConfig,
    PurchaseBreakdown,
    concave_bowl,
    monopolist_payoff,
    phi_eval,
    phi_grad,
    purchase_breakdown,
    revenue,
    tri_modal,
)
from persuade_ot.payoffs import (
    REVENUE_BLOCK, TRI_MODES, _revenue, _shares, _terms, stacked_payoff,
)
from reference import loop_shares

# Scalar reference for the batched revenue: one polygon clipped by one
# half-plane at a time (Sutherland-Hodgman), as plain Python floats.

Vertex = tuple[float, float]

UNIT_SQUARE: list[Vertex] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def clip_halfplane(polygon: list[Vertex], normal: Vertex, offset: float,
                   strict: bool = False) -> list[Vertex]:
    """Clip a convex CCW polygon against the half-plane normal . v <= offset,
    or normal . v < offset if ``strict``.

    Returns the (possibly empty) clipped polygon, CCW; a strict half-plane
    clips as its closure, which has the same area. A zero normal is a
    degenerate constraint: it keeps everything when offset >= 0 (offset > 0
    if strict) and nothing otherwise.
    """
    ax, ay = float(normal[0]), float(normal[1])
    b = float(offset)
    if ax == 0.0 and ay == 0.0:
        return list(polygon) if b > 0.0 or (b == 0.0 and not strict) else []
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
    """Half-plane systems (normal, offset[, strict]) defining each purchase
    region. Ties go to the bundle, then to a good, then to buying nothing:
    a good's bound against the bundle is strict, and every other is not."""
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
        "good1": [((-q1, 0.0), -p1), ((-q1, q2), p2 - p1), ((0.0, q2), p2 + d, True)],
        "good2": [((0.0, -q2), -p2), ((q1, -q2), p1 - p2), ((q1, 0.0), p1 + d, True)],
        "bundle": [((-q1, -q2), -p3), ((0.0, -q2), -(p2 + d)), ((-q1, 0.0), -(p1 + d))],
    }


def reference_polygons(q, market: MarketConfig) -> dict[str, list[Vertex]]:
    polys = {}
    for name, constraints in region_constraints(float(q[0]), float(q[1]), market).items():
        poly = [] if constraints is None else UNIT_SQUARE
        for constraint in constraints or []:
            poly = clip_halfplane(poly, *constraint)
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
            check_partition(q, mkt)
    # exact ties: a utility that is a point mass on a region's bound
    for mkt in table_markets():
        for q in np.vstack([TIE_LATTICE, -TIE_LATTICE]):
            check_partition(q, mkt)


def check_partition(q, market):
    # c0 is read as 1 - (c1 + c2 + c3), so the sum alone cannot see a region
    # counted twice: each share must be its region's area as well
    b = purchase_breakdown(q, market)
    for c in (b.c0, b.c1, b.c2, b.c3):
        assert -1e-12 <= c <= 1.0 + 1e-12
    assert abs(b.c0 + b.c1 + b.c2 + b.c3 - 1.0) < 1e-12
    polys = reference_polygons(q, market)
    areas = [polygon_area(polys[name]) for name in ("none", "good1", "good2", "bundle")]
    assert np.max(np.abs(np.subtract((b.c0, b.c1, b.c2, b.c3), areas))) < 1e-12


def test_point_mass_on_the_bundle_bound_buys_the_bundle():
    # at q1 = 0 good 1's utility is the point mass -p1 = delta: the buyer is
    # indifferent between the bundle and good 2 alone, and the bundle wins
    mkt = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-1.0, demand="additive")
    assert revenue((0.0, 2.0), mkt) == 0.5
    assert purchase_breakdown((0.0, 2.0), mkt) == PurchaseBreakdown(0.5, 0.0, 0.0, 0.5)
    assert abs(revenue((1e-9, 2.0), mkt) - 0.5) < 1e-8
    # the edge v1 = 1 at q1 = 0.5 puts good 1's utility on delta: dR/dq1
    # is the one-sided derivative from above, 1/3, and not the 1.0 that a
    # double count of good 2 and the bundle gave
    mkt = replace(mkt, delta=-0.5)
    grad = phi_grad(monopolist_payoff(mkt), (0.5, 1.5))
    assert abs(grad[0] - 1.0 / 3.0) < 1e-12
    assert abs(grad[0] - phi_grad(monopolist_payoff(mkt), (0.5 + 1e-9, 1.5))[0]) < 1e-6


def test_tie_lattice_shares_equal_a_valuation_count():
    # brute force on a midpoint grid of valuations (N per axis): the bundle
    # where it is as good as each good alone and as nothing, else a good that
    # is as good as the other and as nothing (half to each on a tie between
    # them), else nothing. Utility ties are compared exactly, as differences
    # of the two options' terms. A region's boundary passes within half a
    # cell of its midpoints, so the count is off by about 0.5 / N
    n = 400
    v = (np.arange(n) + 0.5) / n
    for market in table_markets():
        for q in TIE_LATTICE:
            x, y = q[0] * v - market.p1, q[1] * v - market.p2
            gap = np.subtract.outer(x, y)
            bundle = np.zeros(gap.shape, dtype=bool)
            if market.demand == "additive":
                bundle = np.add.outer(x, y) >= market.delta
                bundle &= (x >= market.delta)[:, None] & (y >= market.delta)
            one = ~bundle & (x >= 0.0)[:, None] & (gap >= 0.0)
            two = ~bundle & (y >= 0.0) & (gap <= 0.0)
            tied = np.count_nonzero(one & two) / 2
            counts = np.array([np.count_nonzero(one) - tied, np.count_nonzero(two) - tied,
                               np.count_nonzero(bundle)]) / n**2
            b = purchase_breakdown(q, market)
            assert np.max(np.abs(counts - (b.c1, b.c2, b.c3))) <= 1.0 / n, (market, q)


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


def random_markets(seed, count):
    """Seeded random markets of both demands. Half of the additive ones put
    the surcharge at -p1 or -p2, where the bundle ties with a good on a
    zero-quality axis, and a quarter below -min(p1, p2)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p1, p2 = rng.uniform(0.2, 2.0, size=2)
        if rng.random() < 0.5:
            yield MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0)
            continue
        floor = -0.999 * (p1 + p2)
        delta = rng.choice([rng.uniform(floor, 1.5), -p1, -p2, rng.uniform(floor, -min(p1, p2))])
        yield MarketConfig(p1=p1, p2=p2, q_min=0.0, q_max=2.0, delta=max(delta, floor),
                           demand="additive")


def test_batch_revenue_matches_scalar_reference():
    # difference shifts leave [q_min, q_max] (q_min = 0 gives negative q),
    # the lattice and its negation hold exact ties, and a zero component
    # makes that axis a point mass
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
        assert np.max(np.abs(got - want)) <= 1e-14
        assert all(revenue(p, market) == g for p, g in zip(q[::50], got[::50]))
    # a quality near zero makes its utility's range narrow
    narrow = [[0.5, -1e-3], [-1e-3, 0.5], [1.5, 2e-3], [2e-3, -1.25], [1e-3, 2e-3]]
    for market in random_markets(42, 200):
        q = np.vstack([rng.uniform(-2.1, 2.1, size=(60, 2)), TIE_LATTICE, -TIE_LATTICE, narrow])
        want = np.array([reference_revenue(p, market) for p in q])
        assert np.max(np.abs(revenue(q, market) - want)) <= 1e-14


def test_batch_revenue_equals_point_calls():
    rng = np.random.default_rng(43)
    for market in (MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0),
                   MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-0.5, demand="additive")):
        q = np.vstack([rng.uniform(-0.1, 2.1, size=(1025 - len(TIE_LATTICE), 2)), TIE_LATTICE])
        one_by_one = np.array([revenue(p, market) for p in q])
        for k in (0, 1, 2, 1023, 1025):
            got = revenue(q[:k], market)
            assert got.shape == (k,)
            assert np.array_equal(got, one_by_one[:k])


def test_consecutive_calls_match_fresh():
    # batches of alternating markets and sizes against single-pair calls
    rng = np.random.default_rng(49)
    unit = MarketConfig(p1=1.0, p2=1.5, q_min=0.0, q_max=2.0)
    additive = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=0.25, demand="additive")
    q = rng.uniform(-0.1, 2.1, size=(1025, 2))
    one_by_one = {m: np.array([revenue(p, m) for p in q]) for m in (unit, additive)}
    calls = [(unit, 1025), (additive, 1023), (unit, 1024), (additive, 1025),
             (unit, 3), (additive, 1024), (unit, 1023)]
    for market, k in calls:
        assert np.array_equal(revenue(q[:k], market), one_by_one[market][:k])


def test_breakdown_polygons_match_scalar_reference():
    # c0..c3 against the areas of the scalar clip's region polygons
    rng = np.random.default_rng(45)
    markets = itertools.chain(table_markets(), random_markets(46, 200))
    for market in markets:
        for q in np.vstack([TIE_LATTICE[::5], -TIE_LATTICE[::7], rng.uniform(-2.1, 2.1, size=(20, 2))]):
            b = purchase_breakdown(q, market)
            want = reference_polygons(q, market)
            areas = [polygon_area(want[name]) for name in ("none", "good1", "good2", "bundle")]
            assert np.max(np.abs(np.subtract((b.c0, b.c1, b.c2, b.c3), areas))) <= 1e-14


def test_payoff_batch_equals_point_calls():
    rng = np.random.default_rng(47)
    pts = rng.uniform(-0.1, 2.1, size=(13, 2))
    markets = (MarketConfig(p1=1.0, p2=1.5, q_min=0.0, q_max=2.0),
               MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=0.25, demand="additive"))
    for model in (concave_bowl(), tri_modal(), *map(monopolist_payoff, markets)):
        vals, grads = model.value_and_grad(pts)
        assert np.array_equal(vals, model.value(pts))
        assert np.array_equal(vals, phi_eval(model, pts)) and np.array_equal(grads, phi_grad(model, pts))
        assert np.array_equal(vals, [phi_eval(model, p) for p in pts])
        assert np.array_equal(grads, [phi_grad(model, p) for p in pts])


def test_revenue_gradient_matches_richardson_reference():
    # the exact gradient against Richardson extrapolations of central
    # differences of the scalar oracle, on every table market and both signs
    # of q; a point is away from kinks when the extrapolations from steps
    # (h, h/2) and (h/2, h/4) agree
    rng = np.random.default_rng(53)
    h = 1e-3
    checked = total = 0
    for market in table_markets():
        q = rng.uniform(-market.q_max, market.q_max, size=(100, 2))
        q = q[np.all(np.abs(q) > 0.05, axis=1)]
        grads = monopolist_payoff(market).value_and_grad(q)[1]
        for p, g in zip(q, grads):
            for axis in range(2):
                step = np.zeros(2)
                diffs = []
                for j in range(3):
                    step[axis] = h / 2**j
                    rise = reference_revenue(p + step, market) - reference_revenue(p - step, market)
                    diffs.append(rise / (2.0 * step[axis]))
                coarse = (4.0 * diffs[1] - diffs[0]) / 3.0
                fine = (4.0 * diffs[2] - diffs[1]) / 3.0
                total += 1
                if abs(coarse - fine) <= 1e-10:
                    checked += 1
                    assert abs(g[axis] - fine) <= 1e-9
    assert checked >= 0.95 * total


def test_edge_revenue_matches_scalar_reference():
    # R + q_a dR/dq_a is the revenue along the edge v_a = 1: the reference
    # polygons' price-weighted lengths there. Their vertices on that edge have
    # v_a == 1.0 exactly: they are the square's corners or crossings along it.
    # A region with a strict bound on the edge's line has nothing on the edge
    rng = np.random.default_rng(55)
    for market in table_markets():
        q = np.vstack([rng.uniform(-2.1, 2.1, size=(40, 2)), TIE_LATTICE, -TIE_LATTICE])
        q = q[np.all(q != 0.0, axis=1)]
        vals, grads = monopolist_payoff(market).value_and_grad(q)
        for p, got in zip(q, vals[:, None] + q * grads):
            polys = reference_polygons(p, market)
            bounds = region_constraints(float(p[0]), float(p[1]), market)
            for edge in range(2):
                want = 0.0
                for name, price in (("good1", market.p1), ("good2", market.p2), ("bundle", market.p3)):
                    if any(strict and normal[1 - edge] == 0.0 and normal[edge] == offset
                           for normal, offset, *strict in bounds[name] or []):
                        continue
                    on = [v[1 - edge] for v in polys[name] if v[edge] == 1.0]
                    want += price * (max(on) - min(on) if on else 0.0)
                assert abs(got[edge] - want) <= 1e-12


def test_zero_quality_gradient_raises():
    market = MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0)
    model = monopolist_payoff(market)
    for point in ((0.0, 1.3), (1.3, 0.0), (0.0, 0.0)):
        with pytest.raises(NumericFailure, match=re.escape(str(point))):
            phi_grad(model, point)
    with pytest.raises(NumericFailure, match=re.escape("(0.0, 1.3)")):
        model.value_and_grad(np.array([[0.5, 0.7], [0.0, 1.3]]))
    # the value needs no division and stays defined there
    assert abs(phi_eval(model, (0.0, 1.3)) - reference_revenue((0.0, 1.3), market)) <= 1e-14


def test_payoffs_compare_and_hash_by_value():
    market = MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0)
    for make in (concave_bowl, tri_modal, lambda: monopolist_payoff(market)):
        assert make() == make() and hash(make()) == hash(make())
        one, two = (ObjectiveConfig(eta=0.0, entropic=EntropicConfig(0.1), payoff=make())
                    for _ in range(2))
        assert one == two and hash(one) == hash(two)
    assert concave_bowl() != tri_modal()
    assert monopolist_payoff(market) != monopolist_payoff(replace(market, p2=1.5))


@pytest.mark.parametrize("ints", [
    dict(p1=1, p2=1, q_min=0, q_max=2),
    dict(p1=1, p2=2, q_min=0, q_max=2, delta=-1, demand="additive"),
], ids=["unit", "additive"])
def test_integer_market_matches_float_twin(ints):
    floats = {k: float(v) if isinstance(v, int) else v for k, v in ints.items()}
    pts = np.random.default_rng(11).uniform(0.05, 2.0, size=(12, 2))
    pts[0] = (1.0, 1.5)
    value, grad = monopolist_payoff(MarketConfig(**ints)).value_and_grad(pts)
    ref_value, ref_grad = monopolist_payoff(MarketConfig(**floats)).value_and_grad(pts)
    assert np.array_equal(value, ref_value) and np.array_equal(grad, ref_grad)


def bits(x):
    """The float64 bit patterns of an array: equal bits, signed zeros included."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("demand", ["unit", "additive"])
def test_stacked_shares_equal_region_loop(demand):
    # the regions on one leading axis against one (k,) row per region: the
    # table markets at the tie lattice, its negation and random pairs, then
    # random markets priced one pair at a time in one call
    rng = np.random.default_rng(51)
    markets = [m for m in itertools.chain(table_markets(), random_markets(52, 60))
               if m.demand == demand]
    for market in markets:
        q = np.vstack([TIE_LATTICE, -TIE_LATTICE, rng.uniform(-2.1, 2.1, size=(50, 2)),
                       [[0.0, 1.3], [1.3, 0.0], [0.0, 0.0], [1e-3, 2e-3]]]).T
        c, d, _ = _terms([market])
        want = loop_shares(q, -np.array([[market.p1], [market.p2]]), market)
        assert np.array_equal(bits(_shares(q, c, d)), bits(want))
    q = np.vstack([TIE_LATTICE[: len(markets)], rng.uniform(-2.1, 2.1, size=(len(markets), 2))])
    q = q[rng.permutation(len(q))[: len(markets)]].T
    c, d, _ = _terms(markets, 1)
    want = [loop_shares(q[:, j : j + 1], -np.array([[m.p1], [m.p2]]), m)[:, 0]
            for j, m in enumerate(markets)]
    assert np.array_equal(bits(_shares(q, c, d)), bits(np.transpose(want)))


@pytest.mark.parametrize("demand", ["unit", "additive"])
def test_stacked_payoff_equals_each_markets_call(demand):
    # one closed-form pass over restarts in several markets: each restart's
    # values and gradients are its own market's call, bit for bit
    markets = [m for m in table_markets() if m.demand == demand][:5]
    models = [monopolist_payoff(m) for m in markets for _ in range(2)]
    pts = np.random.default_rng(53).uniform(0.05, 2.0, size=(len(models), 7, 2))
    pts[0, 0] = TIE_LATTICE[10]
    phis, gphis = stacked_payoff(models).value_and_grad(pts.reshape(-1, 2))
    assert phis.shape == (len(models) * 7,) and gphis.shape == (len(models) * 7, 2)
    for model, p, phi, gphi in zip(models, pts, phis.reshape(-1, 7), gphis.reshape(-1, 7, 2)):
        value, grad = model.value_and_grad(p)
        assert np.array_equal(bits(phi), bits(value)) and np.array_equal(bits(gphi), bits(grad))
    # one payoff for all restarts is that payoff
    assert stacked_payoff([tri_modal()] * 3) == tri_modal()
    other = "additive" if demand == "unit" else "unit"
    with pytest.raises(ValueError, match="one demand model"):
        stacked_payoff(
            [models[0], monopolist_payoff(next(m for m in table_markets() if m.demand == other))]
        )


def test_revenue_blocks_equal_one_pass():
    # a batch longer than REVENUE_BLOCK is priced block by block, with the
    # bits of one pass over all its pairs
    rng = np.random.default_rng(55)
    q = rng.uniform(-0.1, 2.1, size=(2 * REVENUE_BLOCK + 3, 2))
    for market in (MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0),
                   MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-0.5, demand="additive")):
        c, d, prices = _terms([market])
        assert np.array_equal(bits(revenue(q, market)), bits(_revenue(q.T, c, d, prices)))
        assert revenue(q[:0], market).shape == (0,)
