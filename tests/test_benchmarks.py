from itertools import groupby
from pathlib import Path

import numpy as np

from persuade_ot import (
    BenchmarkRow,
    DensitySpec,
    MarketConfig,
    best_lloyd_revenue,
    build_grid,
    discretize_density,
    full_info_revenue,
    hard_objective,
    improvement_table,
    lloyd_solve,
    monopolist_payoff,
    no_info_revenue,
    revenue,
)
from persuade_ot.benchmarks import grid_baselines
from persuade_ot.cli import (
    _box, build_scenario, load_raw_config, parse_config, run_experiment, set_config_path,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
    one_cell = best_lloyd_revenue(1, market, grid, seed=3, tries=1)
    assert abs(one_cell - no_info_revenue(market, grid)) < 1e-12


def test_lloyd_four_cells_unit_market():
    # quantization-only partition, no price information used in the updates
    val = best_lloyd_revenue(4, UNIT_11, make_grid(256), seed=0, tries=5)
    assert abs(val - 0.3056) < 0.01


def test_lloyd_deterministic_in_seed():
    grid = make_grid(64)
    a = best_lloyd_revenue(3, UNIT_11, grid, seed=7, tries=1)
    b = best_lloyd_revenue(3, UNIT_11, grid, seed=7, tries=1)
    assert a == b


def test_best_lloyd_takes_max():
    grid = make_grid(64)
    singles = [best_lloyd_revenue(4, UNIT_11, grid, seed=k, tries=1) for k in range(5)]
    assert best_lloyd_revenue(4, UNIT_11, grid, seed=0, tries=5) == max(singles)


def test_lloyd_revenue_equals_hard_objective_on_table_markets():
    # pricing the cell stats lloyd_solve returns is the hard objective of
    # its sites, bit for bit, on every column of the four table configs
    columns = 0
    for path in sorted(CONFIGS.glob("table*.yaml")):
        raw = set_config_path(load_raw_config(str(path)), "grid.resolution", 24)
        sweep = parse_config(raw)
        for value in sweep.sweep_values:
            cfg = parse_config(set_config_path(raw, sweep.sweep_parameter, value))
            grid, obj, _ = build_scenario(cfg)
            for seed in (0, 1):
                sites = lloyd_solve(4, grid, seed)[0]
                assert best_lloyd_revenue(4, cfg.market, grid, seed, tries=1) == hard_objective(
                    sites, grid, obj.payoff
                )
            columns += 1
    assert columns == 25


def test_grid_baselines_equal_one_scenario_pricing_on_table_markets():
    # every market of the four tables priced in one pass per config, on its
    # first column's grid, with three Lloyd tries and cell counts that differ
    # from market to market: each value equals its own one-scenario pricing
    markets = 0
    for path in sorted(CONFIGS.glob("table*.yaml")):
        raw = set_config_path(load_raw_config(str(path)), "grid.resolution", 24)
        sweep = parse_config(raw)
        cfgs = [parse_config(set_config_path(raw, sweep.sweep_parameter, value))
                for value in sweep.sweep_values]
        grid = build_scenario(cfgs[0])[0]
        cells = [2 + k % 5 for k in range(len(cfgs))]
        pooled = grid_baselines([cfg.market for cfg in cfgs], cells, grid, seed=1, tries=3)
        for cfg, n, (r_noinfo, r_lloyd) in zip(cfgs, cells, pooled):
            assert r_noinfo == revenue(grid.barycenter, cfg.market)
            assert r_noinfo == no_info_revenue(cfg.market, grid)
            tries = []
            for seed in (1, 2, 3):
                stats = lloyd_solve(n, grid, seed)[1]
                payoffs = monopolist_payoff(cfg.market).value(stats.barycenters)
                priced = float(stats.masses @ payoffs)
                assert priced == best_lloyd_revenue(n, cfg.market, grid, seed, tries=1)
                tries.append(priced)
            assert r_lloyd == max(tries) == best_lloyd_revenue(n, cfg.market, grid, 1, tries=3)
            markets += 1
    assert markets == 25


def test_committed_tables_reproduce_their_baselines():
    # the no-information, Lloyd and full-information columns of out/table*/table.csv,
    # recomputed from configs/ with each column's committed effective_n; the
    # columns on one box are priced in one grid_baselines call
    columns = 0
    for path in sorted(CONFIGS.glob("table*.yaml")):
        raw = load_raw_config(str(path))
        sweep = parse_config(raw)
        committed = (CONFIGS.parent / sweep.output_dir / "table.csv").read_text().splitlines()[1:]
        assert len(committed) == len(sweep.sweep_values)
        cfgs = [parse_config(set_config_path(raw, sweep.sweep_parameter, value))
                for value in sweep.sweep_values]
        for _, group in groupby(zip(cfgs, committed), key=lambda pair: _box(pair[0])):
            group = list(group)
            grid = build_scenario(group[0][0])[0]
            cells = [int(line.split(",")[6]) for _, line in group]
            pooled = grid_baselines([cfg.market for cfg, _ in group], cells, grid,
                                    seed=group[0][0].optimizer.seed, tries=group[0][0].lloyd_tries)
            for (cfg, line), (noinfo, lloyd) in zip(group, pooled):
                _, _, r_noinfo, r_lloyd, r_fullinfo, _, _, _ = line.split(",")
                assert f"{no_info_revenue(cfg.market, grid):.4f}" == r_noinfo, line
                assert f"{noinfo:.4f}" == r_noinfo, line
                assert f"{lloyd:.4f}" == r_lloyd, line
                assert f"{full_info_revenue(cfg.market, grid):.4f}" == r_fullinfo, line
                columns += 1
    assert columns == 25


def test_committed_table_reproduces_an_optimised_column(tmp_path):
    # table2's q_min=0.25 column end to end: 3 restarts x 1,200 Adam steps at 128^2,
    # pruned from 12 cells to 6, against its committed table.csv row and diagram
    committed = CONFIGS.parent / "out" / "table2"
    overrides = {"sweep.values": [0.25], "output_dir": str(tmp_path)}
    assert run_experiment(str(CONFIGS / "table2.yaml"), "table", overrides) == 0
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table == (committed / "table.csv").read_text().splitlines()[:2]
    name = "diagram_q_min=0.25.json"
    assert (tmp_path / name).read_bytes() == (committed / name).read_bytes()


def row(r_opt, r_fullinfo, name="p2", value=1.0):
    return BenchmarkRow(
        param_name=name,
        param_value=value,
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
