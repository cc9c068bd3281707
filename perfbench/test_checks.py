"""Known-answer tests for the benchmark's own checks and tracer.

Run with: python3 -m pytest perfbench/test_checks.py
"""

import sys
import types

import numpy as np
import pytest

import checks
from checks import CheckFailed, Market
from spans import Tracer

UNIT = Market(1.0, 1.0, 0.0, 2.0)


@pytest.mark.parametrize("market, q, want", [
    (UNIT, (1.0, 1.0), 0.0),  # every good priced at its top value
    (UNIT, (2.0, 2.0), 0.75),  # one unit sold unless both v < 1/2
    (UNIT, (2.0, 1.0), 0.5),  # only good 1 sells, when v1 > 1/2
    (Market(1.0, 1.25, 0.25, 2.0), (1.125, 1.125), 1.0 / 9.0),
    (Market(1.0, 1.0, 0.0, 2.0, -1.0, "additive"), (1.0, 1.0), 0.5),
])
def test_revenue_at_closed_forms(market, q, want):
    assert checks.revenue_at(q, market) == pytest.approx(want, abs=1e-9)


def test_full_info_estimate_matches_point_value_and_paper():
    narrow = Market(1.0, 1.0, 1.999, 2.001)
    rng = np.random.default_rng(0)
    assert checks.full_info_estimate(narrow, 4, rng) == pytest.approx(0.75, abs=2e-3)
    got = checks.full_info_estimate(UNIT, 64, rng, strata=32)
    assert got == pytest.approx(checks.PAPER_FULL_INFO[1.0], abs=2e-3)


def _two_cell_diagram():
    # two sites split [0,1]^2 at x = 1/2 on a 4 x 4 grid
    return {
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "resolution": 4,
        "sites": [[0.25, 0.5], [0.75, 0.5]],
        "weights": [0.0, 0.0],
        "masses": [0.5, 0.5],
        "barycenters": [[0.25, 0.5], [0.75, 0.5]],
        "label_grid": [[0, 0, 1, 1]] * 4,
    }


def test_relabel_diagram_accepts_a_correct_diagram():
    masses, bary = checks.relabel_diagram(_two_cell_diagram())
    assert masses.tolist() == [0.5, 0.5]
    assert bary.tolist() == [[0.25, 0.5], [0.75, 0.5]]


@pytest.mark.parametrize("key, value", [
    ("label_grid", [[0, 1, 1, 1]] * 4),
    ("masses", [0.4, 0.6]),
    ("barycenters", [[0.25, 0.5], [0.7, 0.5]]),
])
def test_relabel_diagram_rejects_a_tampered_diagram(key, value):
    diagram = dict(_two_cell_diagram(), **{key: value})
    with pytest.raises(CheckFailed):
        checks.relabel_diagram(diagram)


def test_hard_value_from_diagram_on_one_cell():
    diagram = dict(_two_cell_diagram(), sites=[[0.5, 0.5]], weights=[0.0], masses=[1.0],
                   barycenters=[[0.5, 0.5]], label_grid=[[0] * 4] * 4)
    got = checks.hard_value_from_diagram(diagram, lambda b: b[0] + b[1])
    assert got == pytest.approx(1.0)


def test_tri_modal_value_is_one_at_each_mode():
    assert checks.tri_modal_value(checks.TRI_MODES) == pytest.approx(np.ones(3))


def test_paper_values():
    checks.check_paper_values(UNIT, 0.0, 0.2833, tol=2e-3)
    checks.check_paper_values(Market(1.0, 1.0, 0.0, 2.0, -1.0, "additive"), 0.5, 0.4481, 2e-3)
    with pytest.raises(CheckFailed):
        checks.check_paper_values(UNIT, 0.0, 0.2900, tol=2e-3)
    with pytest.raises(CheckFailed):
        checks.check_paper_values(Market(1.0, 1.25, 0.25, 2.0), 0.1200, 0.2728, tol=2e-3)


@pytest.mark.parametrize("r_opt, ok", [(0.3153, True), (0.2825, True), (0.2800, False),
                                      (0.2636, False)])
def test_ordering(r_opt, ok):
    # r_noinfo, r_lloyd, r_fullinfo of the p2 = 1 column
    args = ("p2=1", r_opt, 0.0, 0.2637, 0.2833)
    if ok:
        checks.check_ordering(*args)
    else:
        with pytest.raises(CheckFailed):
            checks.check_ordering(*args)


def _mode_diagram(n_sites=3):
    # sites at the modes; labels follow the benchmark's own relabelling
    m = 32
    sites = checks.TRI_MODES[:n_sites]
    centers = checks.grid_centers(((0.0, 1.0), (0.0, 1.0)), m)
    labels = ((centers[None] - sites[:, None]) ** 2).sum(-1).argmin(0)
    masses = np.bincount(labels, minlength=n_sites) / m**2
    bary = [centers[labels == i].mean(0).tolist() for i in range(n_sites)]
    return {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": m, "sites": sites.tolist(),
            "weights": [0.0] * n_sites, "masses": masses.tolist(), "barycenters": bary,
            "label_grid": labels.reshape(m, m).tolist()}


def test_three_modes():
    checks.check_three_modes(_mode_diagram(), 3, 0.999)
    with pytest.raises(CheckFailed):
        checks.check_three_modes(_mode_diagram(), 3, 0.95)
    with pytest.raises(CheckFailed):
        checks.check_three_modes(_mode_diagram(2), 2, 0.999)


def test_tracer_binds_every_namespace_and_splits_self_time():
    def leaf(x):
        return x + 1

    def outer(x):
        return user.leaf(x) * 2

    home = types.ModuleType("persuade_ot.fakehome")
    user = types.ModuleType("persuade_ot.fakeuser")
    home.leaf, home.outer, user.leaf = leaf, outer, leaf
    sys.modules.update({home.__name__: home, user.__name__: user})
    tracer = Tracer(["fakehome.leaf", "fakehome.outer", "fakehome.gone"],
                    leaves={"fakehome.leaf"})
    try:
        tracer.install()
        assert user.leaf is not leaf and home.leaf is user.leaf
        tracer.begin_op()
        assert home.outer(1) == 4
    finally:
        tracer.uninstall()
        del sys.modules[home.__name__], sys.modules[user.__name__]
    assert user.leaf is leaf and home.outer is outer
    assert tracer.absent == ["fakehome.gone"]
    assert tracer.calls == {"fakehome.leaf": 1, "fakehome.outer": 1}
    assert tracer.self_s["fakehome.outer"] <= tracer.total_s["fakehome.outer"]
    assert [s[3] for s in tracer.spans] == ["fakehome.outer"]  # leaves are not spans
