"""Config-driven experiment runner and diagram export."""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, NamedTuple, Optional

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
from .optimizer import OptimizerConfig, OptResult, init_sites, optimize_batch
from .payoffs import ConcaveBowl, MarketConfig, Monopolist, TriModal
from .power_diagram import DiagramParams, hard_assign, hard_cell_stats

_REQUIRED = object()

PAYOFF_KINDS = {"concave-bowl": ConcaveBowl, "tri-modal": TriModal, "monopolist": Monopolist}

SWEEPABLE = (
    "payoff.market.p1",
    "payoff.market.p2",
    "payoff.market.delta",
    "payoff.market.q_min",
    "payoff.market.q_max",
    "objective.epsilon",
    "objective.eta",
)


class _Key(NamedTuple):
    """How one config key is read: its type, its default and the values it may take."""

    kind: type  # int, float, str or list
    default: Any = _REQUIRED
    least: Optional[int] = None  # the smallest allowed value
    positive: bool = False  # the value must exceed 0
    choices: tuple = ()  # the allowed values


# every config key by its dotted path; a section's keys are read in this order
KEYS = {
    "grid.bounds": _Key(list, None),
    "grid.resolution": _Key(int, 256, least=1),
    "payoff.kind": _Key(str, choices=tuple(PAYOFF_KINDS)),
    "payoff.market.p1": _Key(float, positive=True),
    "payoff.market.p2": _Key(float, positive=True),
    "payoff.market.q_min": _Key(float),
    "payoff.market.q_max": _Key(float),
    "payoff.market.delta": _Key(float, 0.0),
    "payoff.market.demand": _Key(str, "unit", choices=("unit", "additive")),
    "objective.epsilon": _Key(float, 5.0, positive=True),
    "objective.epsilon_units": _Key(str, "grid", choices=("grid", "absolute")),
    "objective.eta": _Key(float, 0.0, least=0),
    "optimizer.n_init": _Key(int, 12, least=1),
    "optimizer.max_iters": _Key(int, 1000, least=1),
    "optimizer.learning_rate": _Key(float, 1e-2, positive=True),
    "optimizer.seed": _Key(int, 0, least=0),
    "optimizer.epsilon_final": _Key(float, None, positive=True),
    "optimizer.restarts": _Key(int, 1, least=1),
    "benchmark.lloyd_tries": _Key(int, 5, least=1),
    "benchmark.lloyd_n": _Key(int, 4, least=1),
    "sweep.parameter": _Key(str, choices=SWEEPABLE),
    "sweep.values": _Key(list),
    "output_dir": _Key(str, "out"),
}

# section path ("" for the root) -> the keys directly in it, in table order
_SECTIONS = {
    path: [key for key in KEYS if key.rpartition(".")[0] == path]
    for path in dict.fromkeys(key.rpartition(".")[0] for key in KEYS)
}

# how a type error names the expected kind; floats are checked by _number
_NOUNS = {int: "an integer", str: "a string", list: "a list"}

# restarts whose hard values differ by less than this, relative to the best, are tied
RESTART_TIE_RTOL = 1e-12

# command-line flag -> (config key it overrides, help text); the flag takes the key's kind
OVERRIDES = {
    "--seed": ("optimizer.seed", "override optimizer.seed"),
    "--out-dir": ("output_dir", "override output_dir"),
    "--resolution": ("grid.resolution", "override grid.resolution"),
    "--epsilon": ("objective.epsilon",
                  "override objective.epsilon (in the config's epsilon_units)"),
    "--eta": ("objective.eta", "override objective.eta"),
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


def key_rule(spec: _Key) -> Optional[str]:
    """The values a key may take, in the words of its error message and docs/config.md."""
    if spec.choices:
        return "one of " + " | ".join(spec.choices)
    if spec.positive:
        return "positive"
    if spec.least is not None:
        return f"at least {spec.least}"
    return None


def _value(section: dict, key: str) -> Any:
    """The section's value for a key, typed and checked, or the key's default."""
    spec = KEYS[key]
    name = key.rpartition(".")[2]
    if name not in section:
        if spec.default is _REQUIRED:
            raise ConfigError("missing required key", key)
        return spec.default
    val = section[name]
    if spec.kind is float:
        val = _number(val, key)
    elif isinstance(val, bool) or not isinstance(val, spec.kind):
        raise ConfigError(f"expected {_NOUNS[spec.kind]}, got {val!r}", key)
    if (
        (spec.choices and val not in spec.choices)
        or (spec.positive and not val > 0)
        or (spec.least is not None and val < spec.least)
    ):
        raise ConfigError(f"must be {key_rule(spec)}, got {section[name]!r}", key)
    return val


def _read(data: Any, path: str) -> dict:
    """The section at a dotted path ("" for the root), a null section read as an empty one.

    Each key of the section is read by _value, and each subsection comes back as the config
    gives it, and only when the config has it. Any other name is an error.
    """
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("must be a mapping", path or "<root>")
    out = {key.rpartition(".")[2]: _value(data, key) for key in _SECTIONS[path]}
    prefix = f"{path}." if path else ""
    unknown = [name for name in data if name not in out and prefix + name not in _SECTIONS]
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}", path or "<root>")
    return {**data, **out}


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
    """The experiment a raw config mapping describes; ConfigError names the first bad key."""
    root = _read(raw, "")
    grid = _read(root.get("grid"), "grid")
    bounds = None
    if grid["bounds"] is not None:
        try:
            (a1, b1), (a2, b2) = grid["bounds"]
        except (TypeError, ValueError):
            raise ConfigError("expected [[a1, b1], [a2, b2]]", "grid.bounds") from None
        a1, b1, a2, b2 = (_number(v, "grid.bounds") for v in (a1, b1, a2, b2))
        if not (a1 < b1 and a2 < b2):
            raise ConfigError(f"expected a1 < b1 and a2 < b2, got {grid['bounds']}", "grid.bounds")
        bounds = ((a1, b1), (a2, b2))

    if "payoff" not in root:
        raise ConfigError("missing required key", "payoff")
    payoff = _read(root["payoff"], "payoff")
    market = None
    if PAYOFF_KINDS[payoff["kind"]] is Monopolist:
        if "market" not in payoff:
            raise ConfigError("missing required key", "payoff.market")
        fields = _read(payoff["market"], "payoff.market")
        try:
            market = MarketConfig(**fields)
        except ValueError as exc:
            raise ConfigError(str(exc), "payoff.market") from None
    elif "market" in payoff:
        raise ConfigError("unknown key(s) ['market']", "payoff")

    objective = _read(root.get("objective"), "objective")
    optimizer = _read(root.get("optimizer"), "optimizer")
    restarts = optimizer.pop("restarts")
    benchmark = _read(root.get("benchmark"), "benchmark")

    sweep_parameter = None
    sweep_values: list = []
    if "sweep" in root:
        sweep = _read(root["sweep"], "sweep")
        sweep_parameter, sweep_values = sweep["parameter"], sweep["values"]
        if not sweep_values:
            raise ConfigError("needs at least one value", "sweep.values")
        for v in sweep_values:
            _number(v, "sweep.values")
        labels = [f"{v:g}" for v in sweep_values]
        if len(set(labels)) < len(labels):
            # each value names its table row and diagram files by this label
            raise ConfigError(f"values must have distinct labels, got {labels}", "sweep.values")

    return ExperimentConfig(
        resolution=grid["resolution"],
        bounds=bounds,
        payoff_kind=payoff["kind"],
        market=market,
        **objective,
        optimizer=OptimizerConfig(**optimizer),
        restarts=restarts,
        **benchmark,
        sweep_parameter=sweep_parameter,
        sweep_values=list(sweep_values),
        output_dir=root["output_dir"],
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


def build_scenario(cfg: ExperimentConfig) -> tuple[GridMeasure, ObjectiveConfig, OptimizerConfig]:
    """Grid, objective (with the payoff) and optimizer settings for one scenario.

    Converts objective.epsilon and optimizer.epsilon_final from
    epsilon_units to absolute units: with "grid" one unit is the grid
    spacing. A converted value that underflows or overflows is a
    ConfigError naming its key.
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
    try:
        entropic = EntropicConfig(cfg.epsilon * unit)
    except ValueError as exc:
        raise ConfigError(f"{exc} in absolute units", "objective.epsilon") from None
    obj = ObjectiveConfig(eta=cfg.eta, entropic=entropic, payoff=payoff)
    opt = cfg.optimizer
    if opt.epsilon_final is not None:
        try:
            opt = replace(opt, epsilon_final=opt.epsilon_final * unit)
        except ValueError as exc:
            raise ConfigError(f"{exc} in absolute units", "optimizer.epsilon_final") from None
    return grid, obj, opt


def solve_scenario(
    cfg: ExperimentConfig,
) -> tuple[OptResult, float, GridMeasure, ObjectiveConfig, OptimizerConfig]:
    """Best-of-restarts optimizer run; returns the winner by hard value.

    The restarts advance together in one optimize_batch call. Hard values
    within RESTART_TIE_RTOL of the best, relative to it, are tied, and a tie
    goes to the fewest effective cells, then the lowest seed.
    The winner's seed is its ``seed_used``; the returned objective and
    optimizer settings are in absolute epsilon units.
    """
    grid, obj, opt = build_scenario(cfg)
    opts = [replace(opt, seed=opt.seed + k) for k in range(cfg.restarts)]
    results = optimize_batch([init_sites(o.n_init, grid, o.seed) for o in opts], grid, obj, opts)
    runs = [(hard_objective(result.params, grid, obj.payoff), result) for result in results]
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
        key: parser.add_argument(flag, type=KEYS[key].kind, help=help_text).dest
        for flag, (key, help_text) in OVERRIDES.items()
    }
    args = vars(parser.parse_args(argv))
    overrides = {key: args[dest] for key, dest in dests.items() if args[dest] is not None}
    return run_experiment(args["config"], args["command"], overrides)


if __name__ == "__main__":
    sys.exit(main())
