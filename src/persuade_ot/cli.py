"""Config-driven experiment runner and diagram export."""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from .benchmarks import (
    BenchmarkRow,
    best_lloyd_revenue,
    full_info_revenue,
    improvement_table,
    no_info_revenue,
)
from .entropic import EntropicConfig
from .errors import ConfigError, NumericFailure
from .grid import Bounds, GridMeasure, build_grid
from .objective import ObjectiveConfig, hard_objective
from .optimizer import OptimizerConfig, OptResult, init_sites, optimize
from .payoffs import ConcaveBowl, MarketConfig, Monopolist, PayoffModel, TriModal
from .power_diagram import DiagramParams, hard_assign, hard_cell_stats

_REQUIRED = object()

SWEEPABLE = {
    "payoff.market.p1",
    "payoff.market.p2",
    "payoff.market.delta",
    "payoff.market.q_min",
    "payoff.market.q_max",
    "objective.epsilon",
    "objective.eta",
}

PAYOFF_KINDS = {"concave-bowl": ConcaveBowl, "tri-modal": TriModal, "monopolist": Monopolist}

# restarts whose hard values differ by less than this, relative to the best, are tied
RESTART_TIE_RTOL = 1e-12

# command-line flag -> (config key it overrides, argument type, help text)
OVERRIDES = {
    "--seed": ("optimizer.seed", int, "override optimizer.seed"),
    "--out-dir": ("output_dir", str, "override output_dir"),
    "--resolution": ("grid.resolution", int, "override grid.resolution"),
    "--epsilon": ("objective.epsilon", float,
                  "override objective.epsilon (in the config's epsilon_units)"),
    "--eta": ("objective.eta", float, "override objective.eta"),
}

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
    "#fabfd2", "#b6992d", "#499894", "#79706e",
]


def _number(val: Any, key: str) -> float:
    """A finite int or float config value as a float; bools and strings are rejected."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"expected a number, got {val!r}", key)
    # false for nan, +-inf and integers beyond the float range
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(f"expected a finite number, got {val!r}", key)
    return float(val)


class _Section:
    """Mapping reader that tracks its key path and rejects unknown keys."""

    def __init__(self, data: Any, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("must be a mapping", path or "<root>")
        self.data = dict(data)
        self.path = path

    def take(self, key: str, kind: str, default: Any = _REQUIRED) -> Any:
        full = f"{self.path}.{key}" if self.path else key
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError("missing required key", full)
            if kind != "mapping":
                return default
        val = self.data.pop(key, default)
        if kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"expected an integer, got {val!r}", full)
            return val
        if kind == "float":
            return _number(val, full)
        if kind == "str":
            if not isinstance(val, str):
                raise ConfigError(f"expected a string, got {val!r}", full)
            return val
        if kind == "list":
            if not isinstance(val, list):
                raise ConfigError(f"expected a list, got {val!r}", full)
            return val
        if kind == "mapping":
            return _Section(val, full)
        raise AssertionError(kind)

    def finish(self) -> None:
        if self.data:
            raise ConfigError(
                f"unknown key(s) {sorted(self.data)}", self.path or "<root>"
            )


@dataclass
class ExperimentConfig:
    resolution: int
    bounds: Optional[Bounds]
    payoff_kind: str
    market: Optional[MarketConfig]
    epsilon: float
    epsilon_units: str
    eta: float
    optimizer: OptimizerConfig
    restarts: int
    lloyd_tries: int
    lloyd_n: int
    sweep_parameter: Optional[str]
    sweep_values: list
    output_dir: str


def parse_config(raw: Any) -> ExperimentConfig:
    root = _Section(raw, "")

    grid_sec = root.take("grid", "mapping", {})
    bounds = None
    b = grid_sec.take("bounds", "list", None)
    if b is not None:
        try:
            (a1, b1), (a2, b2) = b
        except (TypeError, ValueError):
            raise ConfigError("expected [[a1, b1], [a2, b2]]", "grid.bounds") from None
        a1, b1, a2, b2 = (_number(v, "grid.bounds") for v in (a1, b1, a2, b2))
        bounds = ((a1, b1), (a2, b2))
    resolution = grid_sec.take("resolution", "int", 256)
    grid_sec.finish()

    payoff_sec = root.take("payoff", "mapping")
    kind = payoff_sec.take("kind", "str")
    if kind not in PAYOFF_KINDS:
        raise ConfigError(f"unknown payoff kind {kind!r}", "payoff.kind")
    market = None
    if PAYOFF_KINDS[kind] is Monopolist:
        m = payoff_sec.take("market", "mapping")
        fields = {
            "p1": m.take("p1", "float"),
            "p2": m.take("p2", "float"),
            "q_min": m.take("q_min", "float"),
            "q_max": m.take("q_max", "float"),
            "delta": m.take("delta", "float", 0.0),
            "demand": m.take("demand", "str", "unit"),
        }
        try:
            market = MarketConfig(**fields)
        except ValueError as exc:
            raise ConfigError(str(exc), "payoff.market") from None
        m.finish()
    payoff_sec.finish()

    obj_sec = root.take("objective", "mapping", {})
    epsilon = obj_sec.take("epsilon", "float", 5.0)
    epsilon_units = obj_sec.take("epsilon_units", "str", "grid")
    if epsilon_units not in ("grid", "absolute"):
        raise ConfigError(
            f"expected 'grid' or 'absolute', got {epsilon_units!r}",
            "objective.epsilon_units",
        )
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive", "objective.epsilon")
    eta = obj_sec.take("eta", "float", 0.0)
    if eta < 0:
        raise ConfigError("eta must be nonnegative", "objective.eta")
    obj_sec.finish()

    opt_sec = root.take("optimizer", "mapping", {})
    restarts = opt_sec.take("restarts", "int", 1)
    if restarts < 1:
        raise ConfigError("restarts must be at least 1", "optimizer.restarts")
    fields = {
        "n_init": opt_sec.take("n_init", "int", 12),
        "max_iters": opt_sec.take("max_iters", "int", 1000),
        "learning_rate": opt_sec.take("learning_rate", "float", 1e-2),
        "seed": opt_sec.take("seed", "int", 0),
        "epsilon_final": opt_sec.take("epsilon_final", "float", None),
    }
    if fields["seed"] < 0:
        raise ConfigError("seed must be nonnegative", "optimizer.seed")
    try:
        optimizer = OptimizerConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc), "optimizer") from None
    opt_sec.finish()

    bench_sec = root.take("benchmark", "mapping", {})
    lloyd_tries = bench_sec.take("lloyd_tries", "int", 5)
    if lloyd_tries < 1:
        raise ConfigError("lloyd_tries must be at least 1", "benchmark.lloyd_tries")
    lloyd_n = bench_sec.take("lloyd_n", "int", 4)
    if lloyd_n < 1:
        raise ConfigError("lloyd_n must be at least 1", "benchmark.lloyd_n")
    bench_sec.finish()

    sweep_parameter = None
    sweep_values: list = []
    if "sweep" in root.data:
        sweep_sec = root.take("sweep", "mapping")
        sweep_parameter = sweep_sec.take("parameter", "str")
        if sweep_parameter not in SWEEPABLE:
            raise ConfigError(
                f"not sweepable (choose one of {sorted(SWEEPABLE)})",
                "sweep.parameter",
            )
        sweep_values = sweep_sec.take("values", "list")
        if not sweep_values:
            raise ConfigError("needs at least one value", "sweep.values")
        for v in sweep_values:
            _number(v, "sweep.values")
        labels = [f"{v:g}" for v in sweep_values]
        if len(set(labels)) < len(labels):
            # each value names its table row and diagram files by this label
            raise ConfigError(f"values must have distinct labels, got {labels}", "sweep.values")
        sweep_sec.finish()

    output_dir = root.take("output_dir", "str", "out")
    root.finish()

    return ExperimentConfig(
        resolution=resolution,
        bounds=bounds,
        payoff_kind=kind,
        market=market,
        epsilon=epsilon,
        epsilon_units=epsilon_units,
        eta=eta,
        optimizer=optimizer,
        restarts=restarts,
        lloyd_tries=lloyd_tries,
        lloyd_n=lloyd_n,
        sweep_parameter=sweep_parameter,
        sweep_values=list(sweep_values),
        output_dir=output_dir,
    )


def load_raw_config(path: str) -> dict:
    """The config file's mapping; {} for an empty file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def set_config_path(raw: dict, dotted: str, value: Any) -> dict:
    """Return a copy of the raw config with the dotted key set to value.

    Missing or null sections on the path become mappings; any other value there is an error."""
    out = copy.deepcopy(raw)
    node = out
    parts = dotted.split(".")
    for i, part in enumerate(parts[:-1]):
        if node.get(part) is None:
            node[part] = {}
        elif not isinstance(node[part], dict):
            raise ConfigError("must be a mapping", ".".join(parts[: i + 1]))
        node = node[part]
    node[parts[-1]] = value
    return out


def build_scenario(
    cfg: ExperimentConfig,
) -> tuple[GridMeasure, PayoffModel, ObjectiveConfig, OptimizerConfig]:
    """Grid, payoff, objective and optimizer settings for one scenario.

    Converts objective.epsilon and optimizer.epsilon_final from
    epsilon_units to absolute units: with "grid" one unit is the grid
    spacing.
    """
    if cfg.bounds is not None:
        bounds = cfg.bounds
    elif cfg.market is not None:
        bounds = (
            (cfg.market.q_min, cfg.market.q_max),
            (cfg.market.q_min, cfg.market.q_max),
        )
    else:
        bounds = ((0.0, 1.0), (0.0, 1.0))
    try:
        grid = build_grid(bounds, cfg.resolution)
    except ValueError as exc:
        raise ConfigError(str(exc), "grid") from None
    payoff_cls = PAYOFF_KINDS[cfg.payoff_kind]
    payoff = payoff_cls() if cfg.market is None else payoff_cls(cfg.market)
    unit = grid.spacing[0] if cfg.epsilon_units == "grid" else 1.0
    obj = ObjectiveConfig(
        eta=cfg.eta, entropic=EntropicConfig(cfg.epsilon * unit), payoff=payoff
    )
    opt = cfg.optimizer
    if opt.epsilon_final is not None:
        opt = replace(opt, epsilon_final=opt.epsilon_final * unit)
    return grid, payoff, obj, opt


def solve_scenario(
    cfg: ExperimentConfig,
) -> tuple[OptResult, float, GridMeasure, ObjectiveConfig, OptimizerConfig]:
    """Best-of-restarts optimizer run; returns the winner by hard value.

    Hard values within RESTART_TIE_RTOL of the best, relative to it, are
    tied, and a tie goes to the fewest effective cells, then the lowest seed.
    The winner's seed is its ``seed_used``; the returned objective and
    optimizer settings are in absolute epsilon units.
    """
    grid, payoff, obj, opt = build_scenario(cfg)
    runs = []
    for k in range(cfg.restarts):
        seed = opt.seed + k
        result = optimize(init_sites(opt.n_init, grid, seed), grid, obj, replace(opt, seed=seed))
        runs.append((hard_objective(result.params, grid, payoff), result))
    top = max(hard for hard, _ in runs)
    best_hard, best = min(
        (run for run in runs if run[0] >= top - RESTART_TIE_RTOL * abs(top)),
        key=lambda run: (run[1].effective_n, run[1].seed_used),
    )
    return best, float(best_hard), grid, obj, opt


def _diagram_dict(params: DiagramParams, grid: GridMeasure) -> dict:
    assignment = hard_assign(params, grid)
    stats = hard_cell_stats(assignment, grid)
    m = grid.resolution
    barys = [
        [float(b[0]), float(b[1])] if ok else None
        for b, ok in zip(stats.barycenters, stats.support)
    ]
    return {
        "bounds": [list(grid.bounds[0]), list(grid.bounds[1])],
        "resolution": m,
        "sites": [[float(x), float(y)] for x, y in params.sites],
        "weights": [float(g) for g in params.weights],
        "masses": [float(v) for v in stats.masses],
        "barycenters": barys,
        "label_grid": assignment.labels.reshape(m, m).tolist(),
    }


def render_svg(diagram: dict) -> str:
    """Static snapshot: cells colored by index, sites as circles (when inside
    bounds), barycenters as triangles, weights listed in a side panel."""
    (a1, b1), (a2, b2) = diagram["bounds"]
    m = diagram["resolution"]
    plot = 520.0
    pad = 16.0
    panel = 230.0
    width = pad * 2 + plot + panel
    height = pad * 2 + plot

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = pad + (x - a1) / (b1 - a1) * plot
        py = pad + (b2 - y) / (b2 - a2) * plot
        return px, py

    cell_w = plot / m
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    # run-length merge within each grid row to keep the file small
    grid_rows = diagram["label_grid"]
    for iy, row in enumerate(grid_rows):
        y_px = pad + plot - (iy + 1) * cell_w
        ix = 0
        while ix < m:
            label = row[ix]
            run = ix
            while run < m and row[run] == label:
                run += 1
            color = PALETTE[label % len(PALETTE)]
            x_px = pad + ix * cell_w
            parts.append(
                f'<rect x="{x_px:.2f}" y="{y_px:.2f}" width="{(run - ix) * cell_w + 0.35:.2f}" '
                f'height="{cell_w + 0.35:.2f}" fill="{color}"/>'
            )
            ix = run
    parts.append(
        f'<rect x="{pad:.1f}" y="{pad:.1f}" width="{plot:.1f}" height="{plot:.1f}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for x, y in diagram["sites"]:
        if a1 <= x <= b1 and a2 <= y <= b2:
            px, py = to_px(x, y)
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4.5" fill="white" '
                'stroke="black" stroke-width="1.4"/>'
            )
    for bary in diagram["barycenters"]:
        if bary is None:
            continue
        px, py = to_px(bary[0], bary[1])
        parts.append(
            f'<polygon points="{px:.2f},{py - 5.5:.2f} {px - 5:.2f},{py + 4:.2f} '
            f'{px + 5:.2f},{py + 4:.2f}" fill="black"/>'
        )
    x0 = pad + plot + 18
    parts.append(
        f'<text x="{x0:.0f}" y="{pad + 14:.0f}" font-family="monospace" '
        'font-size="13" font-weight="bold">cells</text>'
    )
    for i, (g, mass) in enumerate(zip(diagram["weights"], diagram["masses"])):
        y = pad + 34 + i * 18
        if y > height - pad:
            break
        color = PALETTE[i % len(PALETTE)]
        parts.append(
            f'<rect x="{x0:.0f}" y="{y - 10:.0f}" width="11" height="11" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x0 + 17:.0f}" y="{y:.0f}" font-family="monospace" '
            f'font-size="12">{i}: g={g:+.4f} m={mass:.4f}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def export_diagram(
    params: DiagramParams, grid: GridMeasure, path, stem: str = "diagram"
) -> list[str]:
    """Write diagram.json and diagram.svg for a diagram into a directory.

    Returns the paths written.
    """
    diagram = _diagram_dict(params, grid)
    json_path = Path(path) / f"{stem}.json"
    svg_path = Path(path) / f"{stem}.svg"
    _write(json_path, json.dumps(diagram, sort_keys=True, separators=(",", ":")) + "\n")
    _write(svg_path, render_svg(diagram))
    return [str(json_path), str(svg_path)]


def _result_summary(result: OptResult, hard_value: float, cfg: ExperimentConfig,
                    obj: ObjectiveConfig, opt: OptimizerConfig) -> dict:
    market = None if cfg.market is None else asdict(cfg.market)
    summary = {
        "payoff": {"kind": cfg.payoff_kind, "market": market},
        "resolution": cfg.resolution,
        "epsilon": obj.entropic.epsilon,
        "epsilon_final": opt.epsilon_final,
        "eta": cfg.eta,
        "seed": result.seed_used,
        "restarts": cfg.restarts,
        "sites": [[float(x), float(y)] for x, y in result.params.sites],
        "weights": [float(g) for g in result.params.weights],
        "effective_n": result.effective_n,
        "soft_value": result.report.value,
        "payoff_term": result.report.payoff_term,
        "penalty_term": result.report.penalty_term,
        "hard_value": hard_value,
        "best_iteration": result.best_iteration,
        "iterations": len(result.trajectory),
    }
    if result.stopped_early is not None:
        summary["stopped_early"] = result.stopped_early
    return summary


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj: Any) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def cmd_solve(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    result, hard_value, grid, obj, opt = solve_scenario(cfg)
    summary = _result_summary(result, hard_value, cfg, obj, opt)
    _write_json(out_dir / "result.json", summary)
    export_diagram(result.params, grid, out_dir)
    print(
        f"solve: effective_n={result.effective_n} soft_value={result.report.value:.6f} "
        f"hard_value={hard_value:.6f} seed={result.seed_used}"
    )
    print(f"wrote {out_dir / 'result.json'}")
    return 0


def _market_rows(raw: dict, cfg: ExperimentConfig, mode: str) -> list:
    """(parameter name, value, config) per sweep value, or ("base", nan, cfg) with no sweep.

    Every row's config is parsed before any is returned, so a bad value fails before any work.
    """
    if cfg.market is None:
        raise ConfigError(f"{mode} mode is for monopolist scenarios", "payoff.kind")
    if cfg.sweep_parameter is None:
        return [("base", float("nan"), cfg)]
    name = cfg.sweep_parameter.rsplit(".", 1)[-1]
    rows = []
    for value in cfg.sweep_values:
        try:
            row_cfg = parse_config(set_config_path(raw, cfg.sweep_parameter, value))
        except ConfigError as exc:
            raise ConfigError(f"{name}={value:g} is invalid ({exc})", "sweep.values") from None
        rows.append((name, value, row_cfg))
    return rows


def _baselines(
    cfg: ExperimentConfig, grid: GridMeasure, n_cells: int, lloyd_solves: dict
) -> tuple[float, float, float]:
    """No-information, best-Lloyd and full-information revenue of one scenario."""
    market = cfg.market
    return (
        no_info_revenue(market, grid),
        best_lloyd_revenue(
            n_cells, market, grid,
            seed=cfg.optimizer.seed, tries=cfg.lloyd_tries, solves=lloyd_solves,
        ),
        full_info_revenue(market, grid),
    )


def cmd_table(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.sweep_parameter is None:
        raise ConfigError("table mode needs a sweep section", "sweep")
    if cfg.optimizer.n_init > cfg.resolution**2:
        # pruning can keep every cell, and Lloyd needs one grid point per cell
        raise ConfigError(f"exceeds the grid's {cfg.resolution**2} points", "optimizer.n_init")
    rows = []
    summaries = []
    lloyd_solves: dict = {}
    for name, value, row_cfg in _market_rows(raw, cfg, "table"):
        result, r_opt, grid, obj, opt = solve_scenario(row_cfg)
        r_noinfo, r_lloyd, r_fullinfo = _baselines(
            row_cfg, grid, result.effective_n, lloyd_solves
        )
        row = BenchmarkRow(
            param_name=name,
            param_value=float(value),
            r_opt=r_opt,
            r_noinfo=r_noinfo,
            r_lloyd=r_lloyd,
            r_fullinfo=r_fullinfo,
            effective_n=result.effective_n,
            seed=result.seed_used,
        )
        rows.append(row)
        export_diagram(result.params, grid, out_dir, stem=f"diagram_{row.param}")
        summary = _result_summary(result, r_opt, row_cfg, obj, opt)
        summary["param"] = row.param
        summaries.append(summary)
    print(improvement_table(rows))
    write_table_csv(rows, out_dir / "table.csv")
    _write_json(out_dir / "result.json", summaries)
    print(f"wrote {out_dir / 'table.csv'}")
    return 0


def cmd_benchmark(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.lloyd_n > cfg.resolution**2:
        raise ConfigError(f"exceeds the grid's {cfg.resolution**2} points", "benchmark.lloyd_n")
    lines = ["param,r_noinfo,r_lloyd,r_fullinfo"]
    lloyd_solves: dict = {}
    for name, value, row_cfg in _market_rows(raw, cfg, "benchmark"):
        grid = build_scenario(row_cfg)[0]
        r_noinfo, r_lloyd, r_fullinfo = _baselines(row_cfg, grid, row_cfg.lloyd_n, lloyd_solves)
        label = name if value != value else f"{name}={value:g}"
        lines.append(f"{label},{r_noinfo:.4f},{r_lloyd:.4f},{r_fullinfo:.4f}")
        print(
            f"{label}: no_info={r_noinfo:.4f} lloyd={r_lloyd:.4f} "
            f"full_info={r_fullinfo:.4f}"
        )
    _write(out_dir / "benchmark.csv", "\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'benchmark.csv'}")
    return 0


def cmd_export(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    result_path = out_dir / "result.json"
    if not result_path.exists():
        raise ConfigError(f"no result.json in {out_dir}; run solve first")
    try:
        data = json.loads(result_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{result_path} is not valid JSON: {exc}") from None
    if isinstance(data, list):
        raise ConfigError(
            "result.json holds a table run; export works on solve results"
        )
    try:
        params = DiagramParams(np.array(data["sites"]), np.array(data["weights"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{result_path} holds no valid diagram ({type(exc).__name__}: {exc})"
        ) from None
    grid = build_scenario(cfg)[0]
    paths = export_diagram(params, grid, out_dir)
    print("wrote " + " ".join(paths))
    return 0


def write_table_csv(rows: list[BenchmarkRow], path: Path) -> None:
    """Fixed-schema CSV; floats at 4 decimals, '.' decimal point."""
    lines = ["param,r_opt,r_noinfo,r_lloyd,r_fullinfo,pp,effective_n,seed"]
    for r in rows:
        pp = "n/a" if r.pp is None else f"{r.pp:.4f}"
        lines.append(
            f"{r.param},{r.r_opt:.4f},{r.r_noinfo:.4f},{r.r_lloyd:.4f},"
            f"{r.r_fullinfo:.4f},{pp},{r.effective_n},{r.seed}"
        )
    _write(path, "\n".join(lines) + "\n")


COMMANDS = {
    "solve": cmd_solve,
    "table": cmd_table,
    "benchmark": cmd_benchmark,
    "export": cmd_export,
}


def run_experiment(
    config_path: str, command: str, overrides: Optional[dict[str, Any]] = None
) -> int:
    """Run one CLI command against a config file; returns the exit status.

    ``overrides`` maps dotted config keys to the values that replace them.
    """
    out_path = Path("out")
    try:
        handler = COMMANDS.get(command)
        if handler is None:
            raise ConfigError(f"unknown command {command!r}")
        raw = load_raw_config(config_path)
        for key, value in (overrides or {}).items():
            raw = set_config_path(raw, key, value)
        cfg = parse_config(raw)
        out_path = Path(cfg.output_dir)
        return handler(raw, cfg, out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error under {out_path}: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        dump = {
            "error": str(exc),
            "iteration": exc.iteration,
            "last_value": exc.last_value,
        }
        if exc.last_params is not None:
            dump["sites"] = exc.last_params.sites.tolist()
            dump["weights"] = exc.last_params.weights.tolist()
        try:
            target = out_path / "failure.json"
            _write_json(target, dump)
            print(f"numeric failure: {exc} (state dumped to {target})", file=sys.stderr)
        except OSError:
            print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="persuade-ot",
        description="Optimal information policies via entropic power diagrams.",
    )
    parser.add_argument("command", choices=list(COMMANDS), help="what to run")
    parser.add_argument("--config", required=True, help="path to the YAML config")
    dests = {
        key: parser.add_argument(flag, type=kind, help=help_text).dest
        for flag, (key, kind, help_text) in OVERRIDES.items()
    }
    args = vars(parser.parse_args(argv))
    overrides = {key: args[dest] for key, dest in dests.items() if args[dest] is not None}
    return run_experiment(args["config"], args["command"], overrides)


if __name__ == "__main__":
    sys.exit(main())
