"""Config-driven experiment runner and diagram export."""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, replace
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
from .grid import Bounds, DensitySpec, GridMeasure, build_grid, discretize_density
from .objective import ObjectiveConfig, hard_objective
from .optimizer import OptimizerConfig, OptResult, init_sites, optimize
from .payoffs import (
    MarketConfig,
    PayoffModel,
    concave_bowl,
    monopolist_payoff,
    tri_modal,
)
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

PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295",
    "#fabfd2", "#b6992d", "#499894", "#79706e",
]


def _finite(value: int | float) -> bool:
    # false for nan, +-inf and integers beyond the float range
    return abs(value) <= sys.float_info.max


class _Section:
    """Mapping reader that tracks its key path and rejects unknown keys."""

    def __init__(self, data: Any, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("must be a mapping", path or "<root>")
        self.data = dict(data)
        self.path = path

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, kind: str, default: Any = _REQUIRED) -> Any:
        full = self._full(key)
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError("missing required key", full)
            return default
        val = self.data.pop(key)
        if kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"expected an integer, got {val!r}", full)
            return val
        if kind == "float":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"expected a number, got {val!r}", full)
            if not _finite(val):
                raise ConfigError(f"expected a finite number, got {val!r}", full)
            return float(val)
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

    grid_sec = root.take("grid", "mapping", None)
    bounds = None
    resolution = 256
    if grid_sec is not None:
        b = grid_sec.take("bounds", "list", None)
        if b is not None:
            try:
                (a1, b1), (a2, b2) = b
                bounds = ((float(a1), float(b1)), (float(a2), float(b2)))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(
                    "expected [[a1, b1], [a2, b2]]", "grid.bounds"
                ) from None
            if not all(_finite(v) for pair in bounds for v in pair):
                raise ConfigError(f"bounds must be finite, got {b!r}", "grid.bounds")
        resolution = grid_sec.take("resolution", "int", 256)
        grid_sec.finish()

    if "payoff" not in root.data:
        raise ConfigError("missing required key", "payoff")
    payoff_sec = root.take("payoff", "mapping")
    kind = payoff_sec.take("kind", "str")
    if kind not in ("concave-bowl", "tri-modal", "monopolist"):
        raise ConfigError(f"unknown payoff kind {kind!r}", "payoff.kind")
    market = None
    if kind == "monopolist":
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

    obj_sec = root.take("objective", "mapping", None) or _Section({}, "objective")
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

    opt_sec = root.take("optimizer", "mapping", None) or _Section({}, "optimizer")
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

    bench_sec = root.take("benchmark", "mapping", None) or _Section({}, "benchmark")
    lloyd_tries = bench_sec.take("lloyd_tries", "int", 5)
    lloyd_n = bench_sec.take("lloyd_n", "int", 4)
    bench_sec.finish()

    sweep_sec = root.take("sweep", "mapping", None)
    sweep_parameter = None
    sweep_values: list = []
    if sweep_sec is not None:
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
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not _finite(v):
                raise ConfigError(f"values must be finite numbers, got {v!r}", "sweep.values")
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


def load_raw_config(path: str) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from None


def set_config_path(raw: dict, dotted: str, value: Any) -> dict:
    """Return a copy of the raw config with the dotted key set to value."""
    out = copy.deepcopy(raw)
    node = out
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
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
        grid = discretize_density(
            DensitySpec("uniform"), build_grid(bounds, cfg.resolution)
        )
    except ValueError as exc:
        raise ConfigError(str(exc), "grid") from None
    if cfg.payoff_kind == "concave-bowl":
        payoff = concave_bowl()
    elif cfg.payoff_kind == "tri-modal":
        payoff = tri_modal()
    else:
        payoff = monopolist_payoff(cfg.market)
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

    The winner's seed is its ``seed_used``; the returned objective and
    optimizer settings are in absolute epsilon units.
    """
    grid, payoff, obj, opt = build_scenario(cfg)
    best: Optional[OptResult] = None
    best_hard = -np.inf
    for k in range(cfg.restarts):
        seed = opt.seed + k
        result = optimize(init_sites(opt.n_init, grid, seed), grid, obj, replace(opt, seed=seed))
        hard = hard_objective(result.params, grid, payoff)
        if best is None or hard > best_hard:
            best, best_hard = result, hard
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


def export_diagram(result, grid: GridMeasure, path, stem: str = "diagram") -> list[str]:
    """Write diagram.json and diagram.svg for a result into a directory.

    ``result`` may be an OptResult or bare DiagramParams. Returns the paths
    written.
    """
    params = result.params if hasattr(result, "params") else result
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        diagram = _diagram_dict(params, grid)
        json_path = out_dir / f"{stem}.json"
        svg_path = out_dir / f"{stem}.svg"
        json_path.write_text(
            json.dumps(diagram, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        svg_path.write_text(render_svg(diagram), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write diagram files under {out_dir}: {exc}") from exc
    return [str(json_path), str(svg_path)]


def _result_summary(result: OptResult, hard_value: float, cfg: ExperimentConfig,
                    obj: ObjectiveConfig, opt: OptimizerConfig) -> dict:
    market = None
    if cfg.market is not None:
        market = {
            "demand": cfg.market.demand,
            "p1": cfg.market.p1,
            "p2": cfg.market.p2,
            "delta": cfg.market.delta,
            "q_min": cfg.market.q_min,
            "q_max": cfg.market.q_max,
        }
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


def _write_json(path: Path, obj: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def _param_stem(name: str, value) -> str:
    return f"{name}={value:g}"


def cmd_solve(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    result, hard_value, grid, obj, opt = solve_scenario(cfg)
    summary = _result_summary(result, hard_value, cfg, obj, opt)
    _write_json(out_dir / "result.json", summary)
    export_diagram(result, grid, out_dir)
    print(
        f"solve: effective_n={result.effective_n} soft_value={result.report.value:.6f} "
        f"hard_value={hard_value:.6f} seed={result.seed_used}"
    )
    print(f"wrote {out_dir / 'result.json'}")
    return 0


def _sweep_rows(raw: dict, cfg: ExperimentConfig):
    name = cfg.sweep_parameter.rsplit(".", 1)[-1]
    for value in cfg.sweep_values:
        row_raw = set_config_path(raw, cfg.sweep_parameter, value)
        yield name, value, parse_config(row_raw)


def cmd_table(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.sweep_parameter is None:
        raise ConfigError("table mode needs a sweep section", "sweep")
    if cfg.payoff_kind != "monopolist":
        raise ConfigError(
            "table mode is for monopolist scenarios", "payoff.kind"
        )
    rows = []
    summaries = []
    lloyd_solves: dict = {}
    for name, value, row_cfg in _sweep_rows(raw, cfg):
        result, r_opt, grid, obj, opt = solve_scenario(row_cfg)
        market = row_cfg.market
        row = BenchmarkRow(
            param_name=name,
            param_value=float(value),
            market=market,
            r_opt=r_opt,
            r_noinfo=no_info_revenue(market, grid),
            r_lloyd=best_lloyd_revenue(
                max(result.effective_n, 1), market, grid,
                seed=row_cfg.optimizer.seed, tries=row_cfg.lloyd_tries, solves=lloyd_solves,
            ),
            r_fullinfo=full_info_revenue(market, grid),
            effective_n=result.effective_n,
            seed=result.seed_used,
        )
        rows.append(row)
        stem = f"diagram_{_param_stem(name, value)}"
        export_diagram(result, grid, out_dir, stem=stem)
        summary = _result_summary(result, r_opt, row_cfg, obj, opt)
        summary["param"] = row.param
        summaries.append(summary)
    table_text = improvement_table(rows)
    print(table_text)
    write_table_csv(rows, out_dir / "table.csv")
    _write_json(out_dir / "result.json", summaries)
    print(f"wrote {out_dir / 'table.csv'}")
    return 0


def cmd_benchmark(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.payoff_kind != "monopolist":
        raise ConfigError(
            "benchmark mode is for monopolist scenarios", "payoff.kind"
        )
    scenarios: list[tuple[str, float, ExperimentConfig]]
    if cfg.sweep_parameter is not None:
        scenarios = list(_sweep_rows(raw, cfg))
    else:
        scenarios = [("base", float("nan"), cfg)]
    lines = ["param,r_noinfo,r_lloyd,r_fullinfo"]
    lloyd_solves: dict = {}
    for name, value, row_cfg in scenarios:
        grid = build_scenario(row_cfg)[0]
        market = row_cfg.market
        r_noinfo = no_info_revenue(market, grid)
        r_lloyd = best_lloyd_revenue(
            row_cfg.lloyd_n, market, grid,
            seed=row_cfg.optimizer.seed, tries=row_cfg.lloyd_tries, solves=lloyd_solves,
        )
        r_fullinfo = full_info_revenue(market, grid)
        label = name if value != value else _param_stem(name, value)
        lines.append(f"{label},{r_noinfo:.4f},{r_lloyd:.4f},{r_fullinfo:.4f}")
        print(
            f"{label}: no_info={r_noinfo:.4f} lloyd={r_lloyd:.4f} "
            f"full_info={r_fullinfo:.4f}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "benchmark.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'benchmark.csv'}")
    return 0


def cmd_export(raw: dict, cfg: ExperimentConfig, out_dir: Path) -> int:
    result_path = out_dir / "result.json"
    if not result_path.exists():
        raise ConfigError(f"no result.json in {out_dir}; run solve first")
    data = json.loads(result_path.read_text(encoding="utf-8"))
    if isinstance(data, list):
        raise ConfigError(
            "result.json holds a table run; export works on solve results"
        )
    grid = build_scenario(cfg)[0]
    params = DiagramParams(np.array(data["sites"]), np.array(data["weights"]))
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_experiment(
    config_path: str,
    command: Optional[str] = None,
    seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    resolution: Optional[int] = None,
    epsilon: Optional[float] = None,
    eta: Optional[float] = None,
) -> int:
    """Run one CLI command against a config file; returns the exit status."""
    out_path = Path(out_dir) if out_dir else Path("out")
    try:
        raw = load_raw_config(config_path)
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        if seed is not None:
            raw = set_config_path(raw, "optimizer.seed", int(seed))
        if out_dir is not None:
            raw = set_config_path(raw, "output_dir", str(out_dir))
        if resolution is not None:
            raw = set_config_path(raw, "grid.resolution", int(resolution))
        if epsilon is not None:
            raw = set_config_path(raw, "objective.epsilon", float(epsilon))
        if eta is not None:
            raw = set_config_path(raw, "objective.eta", float(eta))
        cfg = parse_config(raw)
        if command is None:
            command = "table" if cfg.sweep_parameter is not None else "solve"
        out = out_path = Path(cfg.output_dir)
        handler = {
            "solve": cmd_solve,
            "table": cmd_table,
            "benchmark": cmd_benchmark,
            "export": cmd_export,
        }.get(command)
        if handler is None:
            raise ConfigError(f"unknown command {command!r}")
        return handler(raw, cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
    parser.add_argument(
        "command", choices=["solve", "table", "benchmark", "export"],
        help="what to run",
    )
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--seed", type=int, default=None, help="override optimizer.seed")
    parser.add_argument("--out-dir", default=None, help="override output_dir")
    parser.add_argument(
        "--resolution", type=int, default=None, help="override grid.resolution"
    )
    parser.add_argument(
        "--epsilon", type=float, default=None,
        help="override objective.epsilon (in the config's epsilon_units)",
    )
    parser.add_argument("--eta", type=float, default=None, help="override objective.eta")
    args = parser.parse_args(argv)
    return run_experiment(
        args.config,
        command=args.command,
        seed=args.seed,
        out_dir=args.out_dir,
        resolution=args.resolution,
        epsilon=args.epsilon,
        eta=args.eta,
    )


if __name__ == "__main__":
    sys.exit(main())
