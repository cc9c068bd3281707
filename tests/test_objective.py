import numpy as np
import pytest

from persuade_ot import (
    DensitySpec,
    DiagramParams,
    EntropicConfig,
    MarketConfig,
    ObjectiveConfig,
    build_grid,
    concave_bowl,
    discretize_density,
    hard_objective,
    monopolist_payoff,
    phi_eval,
    soft_objective,
    tri_modal,
    value_and_grad,
)


def unit_grid(res):
    return discretize_density(DensitySpec("uniform"), build_grid(((0.0, 1.0), (0.0, 1.0)), res))


def random_params(rng, n):
    return DiagramParams(
        sites=rng.uniform(0.1, 0.9, size=(n, 2)),
        weights=0.2 * rng.normal(size=n),
    )


def test_single_cell_dead_market_revenue():
    grid = discretize_density(DensitySpec("uniform"), build_grid(((0.0, 2.0), (0.0, 2.0)), 64))
    payoff = monopolist_payoff(MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0))
    val = hard_objective(DiagramParams(sites=[(0.7, 0.7)], weights=[0.0]), grid, payoff)
    assert val == 0.0


def test_jensen_bound_concave():
    rng = np.random.default_rng(41)
    grid = unit_grid(32)
    payoff = concave_bowl()
    top = phi_eval(payoff, grid.barycenter)
    for _ in range(20):
        params = random_params(rng, rng.integers(1, 7))
        assert hard_objective(params, grid, payoff) <= top + 1e-12


def test_symmetric_split_of_symmetric_payoff():
    grid = unit_grid(64)
    params = DiagramParams(sites=[(0.25, 0.5), (0.75, 0.5)], weights=[0.0, 0.0])
    cfg = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(0.05), payoff=concave_bowl())
    report = soft_objective(params, grid, cfg)
    phis = [cell[2] for cell in report.per_cell]
    assert abs(phis[0] - phis[1]) < 1e-12


def test_single_cell_penalty_is_variance():
    # quantization term about the barycenter tends to the prior variance 1/6
    vals = []
    for res in (16, 64, 256):
        grid = unit_grid(res)
        params = DiagramParams(sites=[(0.5, 0.5)], weights=[0.0])
        cfg = ObjectiveConfig(0.0, EntropicConfig(0.05), concave_bowl())
        vals.append(soft_objective(params, grid, cfg).penalty_term)
    assert abs(vals[-1] - 1.0 / 6.0) < 1e-4
    assert abs(vals[-1] - 1.0 / 6.0) <= abs(vals[0] - 1.0 / 6.0)


def test_penalty_repulsion_decreases_with_separation():
    from persuade_ot import soft_partition

    grid = unit_grid(32)
    cfg = EntropicConfig(0.01)
    vals = []
    for gap in (0.2, 0.4, 0.6):
        params = DiagramParams(
            sites=[(0.5 - gap / 2, 0.5), (0.5 + gap / 2, 0.5)], weights=[0.0, 0.0]
        )
        part = soft_objective(params, grid, ObjectiveConfig(0.0, cfg, concave_bowl())).penalty_term
        # subtract the quantization part to isolate repulsion
        soft, _ = soft_partition(params, grid, cfg)
        d2 = ((grid.centers[None, :, :] - params.sites[:, None, :]) ** 2).sum(-1)
        quant = float((d2 * soft.chi * grid.masses[None, :]).sum())
        vals.append(part - quant)
    assert vals[0] > vals[1] > vals[2]


def test_report_identity_exact():
    rng = np.random.default_rng(43)
    grid = unit_grid(24)
    for eta in (0.0, 1e-3, 0.7):
        cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(0.08), payoff=tri_modal())
        params = random_params(rng, 5)
        report = soft_objective(params, grid, cfg)
        assert report.value == report.payoff_term - eta * report.penalty_term


def test_single_cell_soft_objective_any_epsilon():
    grid = unit_grid(32)
    payoff = concave_bowl()
    for eps in (0.001, 0.1, 10.0):
        cfg = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(eps), payoff=payoff)
        report = soft_objective(DiagramParams(sites=[(0.2, 0.8)], weights=[0.0]), grid, cfg)
        assert abs(report.value - phi_eval(payoff, grid.barycenter)) < 1e-12


def test_soft_converges_to_hard():
    rng = np.random.default_rng(45)
    grid = unit_grid(64)
    payoff = tri_modal()
    params = random_params(rng, 4)
    hard = hard_objective(params, grid, payoff)
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        cfg = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(eps), payoff=payoff)
        gaps.append(abs(soft_objective(params, grid, cfg).value - hard))
    assert gaps[0] > gaps[2]
    assert gaps[2] < 1e-3


def test_value_shift_invariance():
    rng = np.random.default_rng(47)
    grid = unit_grid(32)
    cfg = ObjectiveConfig(eta=1e-3, entropic=EntropicConfig(0.05), payoff=tri_modal())
    params = random_params(rng, 5)
    base = soft_objective(params, grid, cfg).value
    for lam in (-7.0, 3.2):
        shifted = DiagramParams(sites=params.sites, weights=params.weights + lam)
        assert abs(soft_objective(shifted, grid, cfg).value - base) < 1e-10


def test_weight_gradient_sums_to_zero():
    rng = np.random.default_rng(49)
    grid = unit_grid(32)
    for eta in (0.0, 1e-3):
        cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(0.05), payoff=tri_modal())
        params = random_params(rng, 5)
        _, dg = value_and_grad(params, grid, cfg)[1:]
        assert abs(dg.sum()) < 1e-8


def test_single_cell_gradient_formulas():
    grid = unit_grid(32)
    eta = 1e-2
    cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(0.1), payoff=concave_bowl())
    site = np.array([0.3, 0.6])
    params = DiagramParams(sites=[site], weights=[0.0])
    dx, dg = value_and_grad(params, grid, cfg)[1:]
    assert np.allclose(dg, 0.0, atol=1e-14)
    expected = -eta * (2.0 * (site[None, :] - grid.centers) * grid.masses[:, None]).sum(axis=0)
    assert np.allclose(dx[0], expected, atol=1e-12)


def fd_gradient(params, grid, cfg, step=1e-5):
    n = params.n
    dx = np.zeros((n, 2))
    dg = np.zeros(n)
    for k in range(n):
        for axis in range(2):
            hi = params.sites.copy()
            lo = params.sites.copy()
            hi[k, axis] += step
            lo[k, axis] -= step
            fp = soft_objective(DiagramParams(sites=hi, weights=params.weights), grid, cfg).value
            fm = soft_objective(DiagramParams(sites=lo, weights=params.weights), grid, cfg).value
            dx[k, axis] = (fp - fm) / (2 * step)
        wh = params.weights.copy()
        wl = params.weights.copy()
        wh[k] += step
        wl[k] -= step
        fp = soft_objective(DiagramParams(sites=params.sites, weights=wh), grid, cfg).value
        fm = soft_objective(DiagramParams(sites=params.sites, weights=wl), grid, cfg).value
        dg[k] = (fp - fm) / (2 * step)
    return dx, dg


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(51)
    grid = unit_grid(24)
    market = MarketConfig(p1=0.5, p2=0.6, q_min=0.0, q_max=1.0)
    for payoff in (concave_bowl(), tri_modal(), monopolist_payoff(market)):
        for eta in (0.0, 1e-3):
            cfg = ObjectiveConfig(eta=eta, entropic=EntropicConfig(0.1), payoff=payoff)
            params = random_params(rng, 3)
            dx, dg = value_and_grad(params, grid, cfg)[1:]
            fdx, fdg = fd_gradient(params, grid, cfg)
            scale = max(np.max(np.abs(fdx)), np.max(np.abs(fdg)), 1e-12)
            assert np.max(np.abs(dx - fdx)) / scale < 1e-4
            assert np.max(np.abs(dg - fdg)) / scale < 1e-4


def test_directional_derivative_consistency():
    rng = np.random.default_rng(53)
    grid = unit_grid(24)
    cfg = ObjectiveConfig(eta=1e-3, entropic=EntropicConfig(0.08), payoff=tri_modal())
    t = 1e-5
    for _ in range(5):
        params = random_params(rng, 4)
        dx, dg = value_and_grad(params, grid, cfg)[1:]
        ds = rng.normal(size=(4, 2))
        dw = rng.normal(size=4)
        analytic = float((dx * ds).sum() + dg @ dw)
        fp = soft_objective(
            DiagramParams(sites=params.sites + t * ds, weights=params.weights + t * dw), grid, cfg
        ).value
        fm = soft_objective(
            DiagramParams(sites=params.sites - t * ds, weights=params.weights - t * dw), grid, cfg
        ).value
        fd = (fp - fm) / (2 * t)
        assert abs(analytic - fd) / max(abs(fd), 1e-12) < 1e-4


def test_eta_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(eta=-0.1, entropic=EntropicConfig(0.1), payoff=concave_bowl())


@pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
@pytest.mark.parametrize("payoff", ["monopolist", "tri-modal"])
def test_eta_zero_skips_penalty_gradient_terms(monkeypatch, payoff, batch):
    # at eta = 0 the penalty's r and dR/dX are not formed; the gradient is
    # the one they gave multiplied by eta = 0, and the report keeps the value
    import persuade_ot.objective as objective

    grid = unit_grid(24)
    model = tri_modal() if payoff == "tri-modal" else monopolist_payoff(
        MarketConfig(p1=0.5, p2=0.4, q_min=0.0, q_max=1.0))
    cfg = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(0.01), payoff=model)
    rng = np.random.default_rng(17)
    params = [random_params(rng, 5) for _ in range(3)] if batch else random_params(rng, 5)
    got = value_and_grad(params, grid, cfg)
    real = objective._penalty_terms
    formed = []

    def with_gradient_terms(mom, sites, sep2, eta):
        formed.append(real(mom, sites, sep2, eta)[1:] == (0.0, 0.0))
        return real(mom, sites, sep2, 1.0)

    monkeypatch.setattr(objective, "_penalty_terms", with_gradient_terms)
    want = value_and_grad(params, grid, cfg)
    assert formed == [True]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    reports, refs = (r[0] if batch else [r[0]] for r in (got, want))
    assert [r.penalty_term for r in reports] == [r.penalty_term for r in refs]
    assert all(r.penalty_term > 0.0 for r in reports)
