"""Seeded workload definitions: the configs each workload hands the CLI.

A workload is a list of operations, each one CLI command on one generated
YAML config. A round runs every operation once; the benchmark repeats
whole rounds. The seed only sets ``optimizer.seed`` (the optimizer's
first restart and the first Lloyd seed), so every seed runs the same
amount of work on the same markets and its value stays comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

UNIT = {"p1": 1.0, "p2": 1.0, "q_min": 0.0, "q_max": 2.0, "demand": "unit"}
ADDITIVE = {"p1": 1.0, "p2": 1.0, "q_min": 0.0, "q_max": 2.0, "delta": 0.0, "demand": "additive"}

# The 25 scenarios of the four revenue tables: parameter, market, values
TABLE_SWEEPS = [
    ("payoff.market.p2", UNIT, [1.0, 1.25, 1.5, 1.75, 2.0]),
    ("payoff.market.q_min", dict(UNIT, p2=1.25, q_min=0.25), [0.25, 0.5, 0.75, 1.0, 1.25]),
    ("payoff.market.delta", ADDITIVE,
     [-1.0, -0.875, -0.75, -0.625, -0.5, -0.375, -0.25, -0.125, 0.0]),
    ("payoff.market.delta", dict(ADDITIVE, delta=0.125), [0.125, 0.25, 0.375, 0.5, 0.625, 0.75]),
]

WRAPPED = {
    "grid": ["build_grid"],
    "power_diagram": ["sq_dists", "hard_assign", "hard_cell_stats", "lloyd_solve"],
    "entropic": ["soft_partition"],
    "payoffs": ["phi_eval", "phi_grad", "revenue"],
    "objective": ["value_and_grad", "soft_objective", "hard_objective"],
    "optimizer": ["optimize", "prune_cells"],
    "benchmarks": ["full_info_revenue", "best_lloyd_revenue", "no_info_revenue"],
    "cli": ["solve_scenario", "export_diagram"],
}
ALL_WRAPPED = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]
OPTIMIZER_PATH = {
    "entropic.soft_partition", "payoffs.phi_grad", "objective.value_and_grad",
    "objective.soft_objective", "optimizer.optimize", "optimizer.prune_cells",
    "cli.solve_scenario", "cli.export_diagram",
}
BASELINES = {
    "benchmarks.full_info_revenue", "benchmarks.best_lloyd_revenue",
    "benchmarks.no_info_revenue", "payoffs.revenue", "power_diagram.lloyd_solve",
}


@dataclass
class Workload:
    command: str  # CLI subcommand run by every operation
    configs: list  # (stem, raw config dict)
    expected: set  # wrapped functions it should reach


def _table_config(parameter, market, values, seed, resolution) -> dict:
    return {
        "grid": {"resolution": resolution},
        "payoff": {"kind": "monopolist", "market": dict(market)},
        "objective": {"epsilon": 5.0, "eta": 0.0},
        "optimizer": {
            "n_init": 12,
            "max_iters": 30,
            "learning_rate": 0.05,
            "restarts": 2,
            "seed": seed,
        },
        # one Lloyd try: a table's Lloyd runs at the optimiser's cell count,
        # which the seed changes, so each extra try makes work depend on the seed
        "benchmark": {"lloyd_tries": 1, "lloyd_n": 4},
        "sweep": {"parameter": parameter, "values": list(values)},
    }


def table_monopolist(seed: int) -> Workload:
    """Two short `table` sweeps at resolution 128: unit demand over p2 and
    additive demand over the bundle offset; 2 restarts of 30 Adam steps."""
    configs = [
        ("unit_p2", _table_config("payoff.market.p2", UNIT, [1.0, 1.5], seed, 128)),
        ("additive_delta",
         _table_config("payoff.market.delta", ADDITIVE, [-0.5, 0.25], seed, 128)),
    ]
    return Workload("table", configs, set(ALL_WRAPPED))


def anneal_trimodal(seed: int) -> Workload:
    """One `solve` of the tri-modal payoff on a 256 grid with the penalty on,
    annealing epsilon from 5 cells to half a cell (absolute units)."""
    h = 1.0 / 256
    raw = {
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": 256},
        "payoff": {"kind": "tri-modal"},
        "objective": {"epsilon": 5.0 * h, "epsilon_units": "absolute", "eta": 1.0e-5},
        "optimizer": {
            "n_init": 12,
            "max_iters": 80,
            "learning_rate": 0.05,
            "seed": seed,
            "epsilon_final": 0.5 * h,
        },
    }
    expected = set(ALL_WRAPPED) - BASELINES
    return Workload("solve", [("trimodal", raw)], expected)


def baselines_fine(seed: int) -> Workload:
    """`benchmark` over all 25 table scenarios at resolution 144: no
    optimizer, only the no-information, Lloyd and full-information values."""
    configs = [
        (f"table{k + 1}", _table_config(p, m, v, seed, 144))
        for k, (p, m, v) in enumerate(TABLE_SWEEPS)
    ]
    return Workload("benchmark", configs, set(ALL_WRAPPED) - OPTIMIZER_PATH)


WORKLOADS = {
    "table-monopolist": table_monopolist,
    "anneal-trimodal": anneal_trimodal,
    "baselines-fine": baselines_fine,
}
