"""Config-driven experiment runner and diagram export.

A table's sweep columns that share the grid and every objective and
optimizer setting but the market (a sweep over p1, p2 or delta) advance
in one optimize_batch (solve_columns); the restart tie rule, the
baselines and export stay per column.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Any, NamedTuple, Optional

import numpy as np
import yaml

from .benchmarks import BenchmarkRow, full_info_revenue, grid_baselines, improvement_table
from .entropic import EntropicConfig
from .errors import ConfigError, NumericFailure
from .grid import Bounds, GridMeasure, build_grid
from .objective import ObjectiveConfig
from .optimizer import OptimizerConfig, OptResult, init_sites, optimize_batch
from .payoffs import ConcaveBowl, MarketConfig, Monopolist, TriModal
from .power_diagram import DiagramParams, HardAssignment, hard_assign, hard_cell_stats

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

# libyaml's parser where PyYAML was built with it: ~10x faster, same documents
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

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
        raw = yaml.load(text, Loader=_YAML_LOADER)
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

    Only the mappings on the path are copied; the rest is shared with raw.
    Missing or null sections on the path become mappings; any other value there is an error."""
    out = node = dict(raw)
    parts = dotted.split(".")
    for i, part in enumerate(parts[:-1]):
        child = node.get(part)
        if child is not None and not isinstance(child, dict):
            raise ConfigError("must be a mapping", ".".join(parts[: i + 1]))
        node[part] = node = dict(child or {})
    node[parts[-1]] = value
    return out


def _box(cfg: ExperimentConfig) -> tuple:
    """The scenario's grid bounds and resolution."""
    if cfg.bounds is not None:
        bounds = cfg.bounds
    elif cfg.market is not None:
        bounds = (
            (cfg.market.q_min, cfg.market.q_max),
            (cfg.market.q_min, cfg.market.q_max),
        )
    else:
        bounds = ((0.0, 1.0), (0.0, 1.0))
    return bounds, cfg.resolution


def build_scenario(
    cfg: ExperimentConfig, grid: Optional[GridMeasure] = None
) -> tuple[GridMeasure, ObjectiveConfig, OptimizerConfig]:
    """Grid, objective (with the payoff) and optimizer settings for one scenario.

    ``grid`` is a grid built for the same box (_box), to reuse. Converts
    objective.epsilon and optimizer.epsilon_final from epsilon_units to
    absolute units: with "grid" one unit is the grid spacing. A converted
    value that underflows or overflows is a ConfigError naming its key.
    """
    if grid is None:
        try:
            grid = build_grid(*_box(cfg))
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


def build_scenarios(cfgs: list[ExperimentConfig]) -> list:
    """build_scenario of each config; consecutive configs on one box share one grid."""
    scenarios = []
    for _, group in groupby(cfgs, key=_box):
        grid = None
        for cfg in group:
            scenarios.append(build_scenario(cfg, grid))
            grid = scenarios[-1][0]
    return scenarios


Solved = tuple[OptResult, GridMeasure, ObjectiveConfig, OptimizerConfig]


def solve_scenario(cfg: ExperimentConfig) -> Solved:
    """Best-of-restarts optimizer run; returns the winner by hard value.

    The one-column case of solve_columns: (winner, grid, objective,
    optimizer settings).
    """
    return solve_columns([cfg])[0]


def solve_columns(cfgs: list[ExperimentConfig]) -> list[Solved]:
    """Best-of-restarts optimizer runs of scenarios, one result per config.

    Consecutive scenarios that share the grid, the restart count and every
    objective and optimizer setting but the payoff advance together: their
    restarts, column by column, make one optimize_batch call. Each restart
    equals its own run bit for bit, so a numeric failure is the one that a
    column-by-column loop raises: the first failing column's lowest seed's.
    Hard values within RESTART_TIE_RTOL of a column's best, relative to it, are tied,
    and a tie goes to the fewest effective cells, then the lowest seed.
    The winner's seed is its ``seed_used``; the returned objective and
    optimizer settings are in absolute epsilon units.
    """
    scenarios = build_scenarios(cfgs)

    def shared(j: int) -> tuple:
        grid, obj, opt = scenarios[j]
        return grid.bounds, grid.resolution, cfgs[j].restarts, replace(obj, payoff=None), opt

    solved = []
    for _, group in groupby(range(len(cfgs)), key=shared):
        cols = list(group)
        grid, _, opt = scenarios[cols[0]]
        opts = [replace(opt, seed=opt.seed + k) for k in range(cfgs[cols[0]].restarts)]
        inits = [init_sites(o.n_init, grid, o.seed) for o in opts]
        objs = [scenarios[j][1] for j in cols for _ in opts]
        results = optimize_batch(inits * len(cols), grid, objs, opts * len(cols))
        for k, j in enumerate(cols):
            runs = results[k * len(opts) : (k + 1) * len(opts)]
            top = max(run.hard_value for run in runs)
            best = min(
                (run for run in runs if run.hard_value >= top - RESTART_TIE_RTOL * abs(top)),
                key=lambda run: (run.effective_n, run.seed_used),
            )
            solved.append((best, *scenarios[j]))
    return solved


def _diagram_dict(params: DiagramParams, grid: GridMeasure, assignment: HardAssignment) -> dict:
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
        "label_grid": assignment.labels.reshape(m, m),
    }


def _label_rows_json(labels: np.ndarray) -> str:
    """json.dumps(labels.tolist(), separators=(",", ":")) for (M, M) labels,
    from per-label byte strings: each cell's, NUL-padded, with its separator."""
    names = [str(label).encode() for label in range(labels.max() + 1)]
    width = f"S{len(names[-1]) + 3}"
    cells = np.array([name + b"," for name in names], dtype=width)[labels]
    cells[:, -1] = np.array([name + b"],[" for name in names], dtype=width)[labels[:, -1]]
    return "[[" + cells.tobytes().translate(None, b"\0")[:-3].decode() + "]]"


def render_svg(diagram: dict) -> str:
    """Static snapshot: cells colored by index, sites as circles (when inside
    bounds), barycenters as triangles, weights listed in a side panel.

    ``label_grid`` is diagram.json's nested list or the (M, M) label array.
    """
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
    # run-length merge within each grid row to keep the file small: a run
    # starts at a row's first column and wherever the label changes
    labels = np.asarray(diagram["label_grid"])
    starts = np.ones(labels.shape, dtype=bool)
    np.not_equal(labels[:, 1:], labels[:, :-1], out=starts[:, 1:])
    rows, cols = np.nonzero(starts)
    ends = np.append(cols[1:], m)
    ends[np.append(rows[1:] != rows[:-1], True)] = m
    for iy, ix, run, label in zip(rows.tolist(), cols.tolist(), ends.tolist(),
                                  labels[rows, cols].tolist()):
        y_px = pad + plot - (iy + 1) * cell_w
        color = PALETTE[label % len(PALETTE)]
        x_px = pad + ix * cell_w
        parts.append(
            f'<rect x="{x_px:.2f}" y="{y_px:.2f}" width="{(run - ix) * cell_w + 0.35:.2f}" '
            f'height="{cell_w + 0.35:.2f}" fill="{color}"/>'
        )
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
    params: DiagramParams, grid: GridMeasure, path, stem: str = "diagram",
    assignment: Optional[HardAssignment] = None,
) -> list[str]:
    """Write diagram.json and diagram.svg for a diagram into a directory.

    ``assignment`` is the diagram's hard_assign labelling, if the caller
    has it. Returns the paths written.
    """
    if assignment is None:
        assignment = hard_assign(params, grid)
    diagram = _diagram_dict(params, grid, assignment)
    json_path = Path(path) / f"{stem}.json"
    svg_path = Path(path) / f"{stem}.svg"
    # the label grid is written apart: json.dumps takes most of the time on its nested list
    text = json.dumps({**diagram, "label_grid": None}, sort_keys=True, separators=(",", ":"))
    rows = '"label_grid":' + _label_rows_json(diagram["label_grid"])
    _write(json_path, text.replace('"label_grid":null', rows, 1) + "\n")
    _write(svg_path, render_svg(diagram))
    return [str(json_path), str(svg_path)]


def _result_summary(result: OptResult, cfg: ExperimentConfig, obj: ObjectiveConfig,
                    opt: OptimizerConfig) -> dict:
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
        "hard_value": result.hard_value,
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
    result, grid, obj, opt = solve_scenario(cfg)
    summary = _result_summary(result, cfg, obj, opt)
    _write_json(out_dir / "result.json", summary)
    export_diagram(result.params, grid, out_dir, assignment=result.assignment)
    print(
        f"solve: effective_n={result.effective_n} soft_value={result.report.value:.6f} "
        f"hard_value={result.hard_value:.6f} seed={result.seed_used}"
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
    cfgs: list[ExperimentConfig], grid: GridMeasure, cells: list[int]
) -> list[tuple[float, float, float]]:
    """No-information, best-Lloyd and full-information revenue of scenarios on
    one grid, with cells[j] Lloyd cells for cfgs[j]; a sweep shares the Lloyd
    seed and tries. The first two take one pass (grid_baselines), and
    full-information pricing, a pass over the whole grid, stays per scenario.
    A sweep meets each box in one run of consecutive rows, so no Lloyd
    solve outlives its grid's call."""
    markets = [cfg.market for cfg in cfgs]
    pooled = grid_baselines(markets, cells, grid, cfgs[0].optimizer.seed, cfgs[0].lloyd_tries)
    return [(*values, full_info_revenue(market, grid)) for values, market in zip(pooled, markets)]


def cmd_table(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.sweep_parameter is None:
        raise ConfigError("table mode needs a sweep section", "sweep")
    if cfg.optimizer.n_init > cfg.resolution**2:
        # pruning can keep every cell, and Lloyd needs one grid point per cell
        raise ConfigError(f"exceeds the grid's {cfg.resolution**2} points", "optimizer.n_init")
    rows = []
    summaries = []
    columns = _market_rows(raw, cfg, "table")
    solved = solve_columns([row_cfg for _, _, row_cfg in columns])
    baselines = []
    for _, group in groupby(range(len(columns)), key=lambda j: _box(columns[j][2])):
        cols = list(group)  # columns that share a grid
        cells = [solved[j][0].effective_n for j in cols]
        baselines += _baselines([columns[j][2] for j in cols], solved[cols[0]][1], cells)
    for (name, value, row_cfg), (result, grid, obj, opt), (r_noinfo, r_lloyd, r_fullinfo) \
            in zip(columns, solved, baselines):
        row = BenchmarkRow(
            param_name=name,
            param_value=float(value),
            r_opt=result.hard_value,
            r_noinfo=r_noinfo,
            r_lloyd=r_lloyd,
            r_fullinfo=r_fullinfo,
            effective_n=result.effective_n,
            seed=result.seed_used,
        )
        rows.append(row)
        export_diagram(result.params, grid, out_dir, f"diagram_{row.param}", result.assignment)
        summary = _result_summary(result, row_cfg, obj, opt)
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
    rows = _market_rows(raw, cfg, "benchmark")
    values = []
    for _, group in groupby(rows, key=lambda row: _box(row[2])):
        cfgs = [row_cfg for _, _, row_cfg in group]
        # the group's grid lives for this call only, so one is alive at a time
        grid = build_scenarios(cfgs)[0][0]
        values += _baselines(cfgs, grid, [c.lloyd_n for c in cfgs])
        del grid
    for (name, value, _), (r_noinfo, r_lloyd, r_fullinfo) in zip(rows, values):
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
