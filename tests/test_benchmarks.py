import numpy as np

from persuade_ot import (
    BenchmarkRow,
    DensitySpec,
    MarketConfig,
    best_lloyd_revenue,
    build_grid,
    discretize_density,
    full_info_revenue,
    improvement_table,
    lloyd_revenue,
    no_info_revenue,
)


def make_grid(res, lo=0.0, hi=2.0):
    return discretize_density(DensitySpec("uniform"), build_grid(((lo, hi), (lo, hi)), res))


UNIT_11 = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0)
ADD_DISCOUNT = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=-1.0, demand="additive")


def test_no_info_dead_market():
    # prior mean (1,1) leaves every surplus at zero, nothing is bought
    assert no_info_revenue(UNIT_11, make_grid(64)) == 0.0


def test_no_info_known_values():
    grid = make_grid(128, lo=0.25)
    market = MarketConfig(p1=1.0, p2=1.25, q_min=0.25, q_max=2.0)
    assert abs(no_info_revenue(market, grid) - 1.0 / 9.0) < 1e-9
    assert abs(no_info_revenue(ADD_DISCOUNT, make_grid(64)) - 0.5) < 1e-12


def test_full_info_unit_market():
    assert abs(full_info_revenue(UNIT_11, make_grid(256)) - 0.2833) < 2e-3


def test_full_info_additive_market():
    market = MarketConfig(p1=1.0, p2=1.0, q_min=0.0, q_max=2.0, delta=0.0, demand="additive")
    assert abs(full_info_revenue(market, make_grid(256)) - 0.3069) < 2e-3


def test_full_info_grid_convergence():
    vals = {res: full_info_revenue(UNIT_11, make_grid(res)) for res in (128, 256, 512)}
    assert abs(vals[256] - vals[512]) < 5e-4
    assert abs(vals[128] - vals[512]) < 2e-3


def test_lloyd_single_cell_equals_no_info():
    grid = make_grid(128, lo=0.25)
    market = MarketConfig(p1=1.0, p2=1.25, q_min=0.25, q_max=2.0)
    assert abs(lloyd_revenue(1, market, grid, seed=3) - no_info_revenue(market, grid)) < 1e-12


def test_lloyd_four_cells_unit_market():
    # quantization-only partition, no price information used in the updates
    val = best_lloyd_revenue(4, UNIT_11, make_grid(256), seed=0, tries=5)
    assert abs(val - 0.3056) < 0.01


def test_lloyd_deterministic_in_seed():
    grid = make_grid(64)
    a = lloyd_revenue(3, UNIT_11, grid, seed=7)
    b = lloyd_revenue(3, UNIT_11, grid, seed=7)
    assert a == b


def test_best_lloyd_takes_max():
    grid = make_grid(64)
    singles = [lloyd_revenue(4, UNIT_11, grid, seed=k) for k in range(5)]
    assert best_lloyd_revenue(4, UNIT_11, grid, seed=0, tries=5) == max(singles)


def row(r_opt, r_fullinfo, name="p2", value=1.0):
    return BenchmarkRow(
        param_name=name,
        param_value=value,
        market=UNIT_11,
        r_opt=r_opt,
        r_noinfo=0.0,
        r_lloyd=0.0,
        r_fullinfo=r_fullinfo,
    )


def test_improvement_percentage_points():
    rows = [row(0.3153, 0.2833), row(0.2999, 0.2728)]
    table = improvement_table(rows)
    assert abs(rows[0].pp - 11.2954) < 5e-3
    assert abs(rows[1].pp - 9.9340) < 5e-3
    assert "11.30" in table
    assert "9.93" in table


def test_improvement_zero_baseline():
    rows = [row(0.0, 0.0)]
    table = improvement_table(rows)
    assert rows[0].pp is None
    assert "n/a" in table


def test_improvement_no_gain():
    rows = [row(0.25, 0.25)]
    improvement_table(rows)
    assert rows[0].pp == 0.0


def test_table_layout_has_all_labels():
    table = improvement_table([row(0.3, 0.28), row(0.2, 0.19, value=1.25)])
    lines = table.splitlines()
    assert len(lines) == 6
    labels = [ln.split()[0] for ln in lines[1:]]
    assert labels == ["R_opt", "R(no", "R_Lloyd", "E(R)", "pp"]
    assert "p2=1 " in lines[0] + " " or "p2=1" in lines[0]


def test_full_info_bit_identical_across_blas_threads():
    # a BLAS dot product over M^2 = 65536 terms splits the sum across threads
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from persuade_ot import DensitySpec, MarketConfig, build_grid, discretize_density, "
        "full_info_revenue\n"
        "grid = discretize_density(DensitySpec('uniform'), build_grid(((0.0, 2.0), (0.0, 2.0)), 256))\n"
        "print(repr(full_info_revenue(MarketConfig(p1=1.0, p2=1.25, q_min=0.0, q_max=2.0), grid)))\n"
    )
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        values.append(run.stdout.strip())
    assert values[0] == values[1]
