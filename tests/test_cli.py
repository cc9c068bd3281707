import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import persuade_ot.cli as cli
from persuade_ot import (
    ConfigError,
    DiagramParams,
    EntropicConfig,
    NumericFailure,
    ObjectiveConfig,
    build_grid,
    hard_cell_stats,
    soft_objective,
)
from persuade_ot.cli import (
    PALETTE,
    main,
    parse_config,
    render_svg,
    run_experiment,
    set_config_path,
)
from reference import column_by_column_table


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def tiny_market_config(out_dir, sweep=None, restarts=1):
    data = {
        "grid": {"resolution": 32},
        "payoff": {
            "kind": "monopolist",
            "market": {"p1": 1.0, "p2": 1.0, "q_min": 0.0, "q_max": 2.0},
        },
        "objective": {"epsilon": 5.0, "eta": 0.0},
        "optimizer": {
            "n_init": 4,
            "max_iters": 40,
            "learning_rate": 0.02,
            "seed": 0,
            "restarts": restarts,
        },
        "benchmark": {"lloyd_tries": 2},
        "output_dir": str(out_dir),
    }
    if sweep:
        data["sweep"] = sweep
    return data


def test_parse_minimal_defaults():
    cfg = parse_config({"payoff": {"kind": "concave-bowl"}})
    assert cfg.resolution == 256
    assert cfg.bounds is None
    assert cfg.epsilon == 5.0 and cfg.epsilon_units == "grid"
    assert cfg.eta == 0.0
    assert cfg.optimizer.n_init == 12
    assert cfg.restarts == 1
    assert cfg.sweep_parameter is None
    assert cfg.output_dir == "out"


def test_parse_error_names_offending_key(tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        parse_config({})
    assert exc.value.key == "payoff"
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "monopolist"}})
    assert exc.value.key == "payoff.market"
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "concave-bowl"}, "objective": {"epsilon": -1}})
    assert exc.value.key == "objective.epsilon"
    with pytest.raises(ConfigError) as exc:
        parse_config(
            {"payoff": {"kind": "concave-bowl"}, "sweep": {"parameter": "grid.resolution", "values": [1]}}
        )
    assert exc.value.key == "sweep.parameter"
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "concave-bowl"}, "typo_key": 1})
    assert "typo_key" in str(exc.value)
    for section, key, value in [
        ("objective", "epsilon", float("nan")),
        ("objective", "eta", float("inf")),
        ("objective", "epsilon", 10**400),
        ("optimizer", "epsilon_final", float("nan")),
        ("optimizer", "learning_rate", float("inf")),
        ("optimizer", "max_iters", 0),
        ("optimizer", "max_iters", -5),
        ("optimizer", "n_init", "abc"),
        ("optimizer", "seed", -1),
        ("optimizer", "restarts", 0),
        ("optimizer", "learning_rate", 0),
        ("benchmark", "lloyd_tries", 0),
        ("benchmark", "lloyd_n", 0),
        ("grid", "resolution", 0),
        ("grid", "resolution", -3),
        ("objective", "epsilon_units", "cells"),
        ("payoff", "kind", "parabola"),
    ]:
        with pytest.raises(ConfigError) as exc:
            parse_config({"payoff": {"kind": "concave-bowl"}, section: {key: value}})
        # a bad type, a non-finite number or a value out of range names the key itself
        assert exc.value.key == f"{section}.{key}"
        assert key in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "monopolist", "market": {
            "p1": "abc", "p2": 1.0, "q_min": 0.0, "q_max": 2.0}}})
    assert exc.value.key == "payoff.market.p1"
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "concave-bowl"},
                      "sweep": {"parameter": "objective.eta", "values": [0.0, float("nan")]}})
    assert exc.value.key == "sweep.values"
    # --seed overrides optimizer.seed and is checked the same way
    path = write_config(tmp_path, {"payoff": {"kind": "concave-bowl"}, "grid": {"resolution": 8}})
    assert main(["solve", "--config", path, "--seed", "-1"]) == 2
    assert "optimizer.seed" in capsys.readouterr().err


def _flatten(node, prefix=""):
    """Dotted key -> value of every leaf of a nested mapping; a list is a leaf."""
    out = {}
    for name, value in node.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{name}."))
        else:
            out[f"{prefix}{name}"] = value
    return out


def test_docs_reference_config_matches_key_table():
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text(encoding="utf-8")
    block = yaml.safe_load(re.search(r"```yaml\n(.*?)```", text, re.S).group(1))
    parse_config(block)
    shown = _flatten(block)
    assert set(shown) == set(cli.KEYS)
    for key, spec in cli.KEYS.items():
        if spec.default is not None and spec.default is not cli._REQUIRED:
            assert shown[key] == spec.default, key
    # the bullet that describes a key states its bound or allowed values as errors do
    sections = dict(re.findall(r"^## (\w+)\n(.*?)(?=^## |\Z)", text, re.M | re.S))
    for key, spec in cli.KEYS.items():
        rule = cli.key_rule(spec)
        if rule is not None:
            name = key.rsplit(".", 1)[-1]
            bullets = re.findall(r"^ *- (.*?)(?=^ *- |^$|\Z)", sections[key.split(".")[0]], re.M | re.S)
            (entry,) = [b for b in bullets if f"`{name}`" in b.split(":")[0]]
            assert rule in " ".join(entry.replace("`", "").split()), key
    assert all(key in cli.KEYS for key, _ in cli.OVERRIDES.values())
    assert all(cli.KEYS[key].kind is float for key in cli.SWEEPABLE)


def test_parse_rejects_unknown_section_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "concave-bowl"}, "optimizer": {"lr": 0.1}})
    assert exc.value.key == "optimizer"
    assert "lr" in str(exc.value)
    # keys of settings the optimizer no longer has fail loudly, not silently
    removed = {
        "grad_mode": "monte-carlo", "batch_size": 4096, "adam_beta1": 0.9,
        "adam_beta2": 0.999, "adam_eps": 1e-8, "stop_grad_tol": 0.0,
        "init_strategy": "jittered-grid", "prune_mass_tol": 1e-4,
    }
    for key, value in removed.items():
        with pytest.raises(ConfigError) as exc:
            parse_config({"payoff": {"kind": "concave-bowl"}, "optimizer": {key: value}})
        assert exc.value.key == "optimizer"
        assert key in str(exc.value)


def test_parse_bad_bounds_and_kind():
    with pytest.raises(ConfigError) as exc:
        parse_config({"grid": {"bounds": [0, 1]}, "payoff": {"kind": "concave-bowl"}})
    assert exc.value.key == "grid.bounds"
    for edge in (float("inf"), float("nan"), 10**400, 0, -1):
        with pytest.raises(ConfigError) as exc:
            parse_config({"grid": {"bounds": [[0, edge], [0, 1]]},
                          "payoff": {"kind": "concave-bowl"}})
        assert exc.value.key == "grid.bounds"
    # strings and booleans are not numbers here, as everywhere else in the config
    for first in (["0", "1"], [False, True], [0, "1e0"]):
        with pytest.raises(ConfigError) as exc:
            parse_config({"grid": {"bounds": [first, [0, 1]]},
                          "payoff": {"kind": "concave-bowl"}})
        assert exc.value.key == "grid.bounds"
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "parabola"}})
    assert exc.value.key == "payoff.kind"


def test_bad_config_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, {"payoff": {"kind": "nope"}})
    assert run_experiment(path, command="solve") == 2
    assert "config error" in capsys.readouterr().err


def test_nonfinite_config_value_exits_two(tmp_path, capsys):
    path = tmp_path / "nan.yaml"
    market = "{p1: 1.0, p2: 1.0, q_min: -1.0e+308, q_max: 1.0e+308}"
    for body, key in [
        ("objective: {epsilon: .nan}", "objective.epsilon"),
        # finite as given, but 0 or inf once scaled by the grid spacing or as a width
        ("objective: {epsilon: 1.0e-323}", "objective.epsilon"),
        ("optimizer: {epsilon_final: 1.0e-323}", "optimizer.epsilon_final"),
        ("grid: {bounds: [[-1.0e+308, 1.0e+308], [0.0, 1.0]]}", "grid"),
    ]:
        path.write_text(f"payoff: {{kind: concave-bowl}}\n{body}\n", encoding="utf-8")
        assert run_experiment(str(path), command="solve") == 2
        assert f"config error: {key}:" in capsys.readouterr().err
    path.write_text(f"payoff: {{kind: monopolist, market: {market}}}\n", encoding="utf-8")
    assert run_experiment(str(path), command="solve") == 2
    assert "config error: grid:" in capsys.readouterr().err
    path.write_text("payoff: {kind: concave-bowl}\n", encoding="utf-8")
    assert main(["solve", "--config", str(path), "--epsilon", "1e-323"]) == 2
    assert "objective.epsilon" in capsys.readouterr().err


def test_unreadable_config_exits_two(tmp_path, capsys):
    assert run_experiment(str(tmp_path / "missing.yaml"), command="solve") == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_yaml_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("payoff: {kind: [unclosed\n", encoding="utf-8")
    assert run_experiment(str(path), command="solve") == 2
    assert "config error" in capsys.readouterr().err


def test_set_config_path_deep_and_pure():
    raw = {"payoff": {"kind": "monopolist", "market": {"p1": 1.0}}}
    out = set_config_path(raw, "payoff.market.p2", 1.25)
    assert out["payoff"]["market"]["p2"] == 1.25
    assert "p2" not in raw["payoff"]["market"]
    out2 = set_config_path({}, "grid.resolution", 64)
    assert out2 == {"grid": {"resolution": 64}}


def test_sweep_rows_share_the_raw_config_without_changing_it():
    # set_config_path copies only the mappings on the dotted path: parsing a
    # sweep leaves the raw config as it was, and each row's config is the one
    # parsed from a deep copy with the value set
    import copy

    sweep = {"parameter": "payoff.market.p2", "values": [0.75, 1.0, 1.5]}
    raw = tiny_market_config("out", sweep=sweep, restarts=2)
    raw["grid"]["bounds"] = [[0.0, 2.0], [0.0, 2.0]]
    before = copy.deepcopy(raw)
    rows = cli._market_rows(raw, parse_config(raw), "table")
    assert raw == before
    for (_, value, cfg), want in zip(rows, sweep["values"]):
        deep = copy.deepcopy(raw)
        deep["payoff"]["market"]["p2"] = want
        assert value == want and cfg == parse_config(deep)
    out = set_config_path(raw, "payoff.market.p2", 2.0)
    assert out["grid"] is raw["grid"] and out["payoff"] is not raw["payoff"]


@pytest.mark.parametrize("m, n", [(1, 1), (7, 12), (16, 3), (33, 25)])
def test_label_rows_json_equals_json_dumps(tmp_path, m, n):
    # labels of one and two digits, an odd M and a 1 x 1 grid
    labels = np.random.default_rng(m * 100 + n).integers(0, n, size=(m, m))
    labels[0, 0] = n - 1
    assert cli._label_rows_json(labels) == json.dumps(labels.tolist(), separators=(",", ":"))
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), m)
    params = DiagramParams(np.random.default_rng(n).uniform(size=(n, 2)), np.zeros(n))
    record = hard_cell_stats(labels.ravel(), n, grid)
    cli.export_diagram(params, grid, record, tmp_path)
    text = (tmp_path / "diagram.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    assert json.loads(text)["label_grid"] == labels.tolist()


def test_solve_writes_result_and_diagram(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_market_config(out))
    assert run_experiment(path, command="solve") == 0
    assert "solve:" in capsys.readouterr().out
    data = json.loads((out / "result.json").read_text())
    assert data["resolution"] == 32
    assert data["effective_n"] >= 1
    assert len(data["sites"]) == len(data["weights"])
    assert data["hard_value"] <= max(1.0, data["soft_value"]) + 1.0
    assert (out / "diagram.json").exists()
    assert (out / "diagram.svg").exists()


def test_diagram_json_schema(tmp_path):
    import jsonschema
    from importlib import resources

    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_market_config(out))
    assert run_experiment(path, command="solve") == 0
    d = json.loads((out / "diagram.json").read_text())
    schema = json.loads(
        resources.files("persuade_ot").joinpath("schemas/diagram.schema.json").read_text()
    )
    jsonschema.validate(d, schema)
    n = len(d["sites"])
    assert set(d) == {
        "bounds", "resolution", "sites", "weights", "masses", "barycenters", "label_grid",
    }
    assert d["bounds"] == [[0.0, 2.0], [0.0, 2.0]]
    assert d["resolution"] == 32
    assert all(len(s) == 2 for s in d["sites"])
    assert len(d["weights"]) == n and len(d["masses"]) == n and len(d["barycenters"]) == n
    assert abs(sum(d["masses"]) - 1.0) < 1e-9
    labels = np.array(d["label_grid"])
    assert labels.shape == (32, 32)
    assert labels.min() >= 0 and labels.max() < n
    for b, m in zip(d["barycenters"], d["masses"]):
        assert (b is None) == (m == 0.0)


def test_table_csv_schema_and_determinism(tmp_path):
    sweep = {"parameter": "payoff.market.p2", "values": [1.0, 1.25]}
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        path = write_config(tmp_path, tiny_market_config(out, sweep=sweep), name=f"{sub}.yaml")
        assert run_experiment(path, command="table") == 0
        outs.append(out)
    csv_a = (outs[0] / "table.csv").read_bytes()
    csv_b = (outs[1] / "table.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().strip().splitlines()
    assert lines[0] == "param,r_opt,r_noinfo,r_lloyd,r_fullinfo,pp,effective_n,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "p2=1"
    for cell in first[1:5]:
        assert len(cell.split(".")[1]) == 4
    dia_a = (outs[0] / "diagram_p2=1.json").read_bytes()
    dia_b = (outs[1] / "diagram_p2=1.json").read_bytes()
    assert dia_a == dia_b
    summaries = json.loads((outs[0] / "result.json").read_text())
    assert isinstance(summaries, list) and len(summaries) == 2
    assert summaries[0]["param"] == "p2=1"


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def counted_batches(monkeypatch) -> list:
    """Patch cli.optimize_batch to record each call's number of restarts."""
    sizes = []
    real = cli.optimize_batch

    def counted(inits, grid, obj, opts):
        sizes.append(len(inits))
        return real(inits, grid, obj, opts)

    monkeypatch.setattr(cli, "optimize_batch", counted)
    return sizes


@pytest.mark.parametrize("parameter, values, batches", [
    ("p2", [1.0, 1.25, 1.5], [6]),
    ("delta", [-0.5, 0.0, 0.25], [6]),
    # each q_min has its own grid: one batch per column
    ("q_min", [0.0, 0.25, 0.5], [2, 2, 2]),
])
def test_fused_table_equals_column_by_column(tmp_path, monkeypatch, parameter, values, batches):
    # three columns of two restarts; 8 sites at epsilon = 1 cell leave some
    # cells to prune, so the pruned labelling and the tie rule take part
    data = tiny_market_config(tmp_path / "fused", restarts=2)
    data["grid"]["resolution"] = 24
    data["objective"]["epsilon"] = 1.0
    data["optimizer"].update(n_init=8, max_iters=30, learning_rate=0.05)
    data["sweep"] = {"parameter": f"payoff.market.{parameter}", "values": values}
    if parameter == "delta":
        data["payoff"]["market"].update(delta=0.0, demand="additive")
    sizes = counted_batches(monkeypatch)
    assert run_experiment(write_config(tmp_path, data), "table") == 0
    assert sizes == batches
    data["output_dir"] = str(tmp_path / "loop")
    monkeypatch.setitem(cli.COMMANDS, "table", column_by_column_table)
    assert run_experiment(write_config(tmp_path, data), "table") == 0
    fused, loop = tree_bytes(tmp_path / "fused"), tree_bytes(tmp_path / "loop")
    assert len(fused) == 2 + 2 * len(values) and fused == loop
    summaries = json.loads(fused["result.json"])
    assert any(s["effective_n"] < 8 for s in summaries)


def test_failing_second_column_raises_its_own_failure(tmp_path, monkeypatch):
    # the p2 = 1.5 column's payoff fails at a barycentre above the line
    # q2 = 0.83 + 0.84 q1: seed 1 from iteration 0, seed 0 from iteration 14.
    # The fused table raises seed 0's failure, as the column-by-column loop
    # did, and writes the failure.json of solving that column alone
    import persuade_ot.payoffs as payoffs

    real = payoffs._revenue_and_grad

    def flaky(pts, markets):
        k = len(pts) // len(markets)
        for j, market in enumerate(markets):
            block = pts[j * k : (j + 1) * k]
            if market.p2 == 1.5 and (block[:, 1] - 0.84 * block[:, 0] > 0.83).any():
                raise NumericFailure("no revenue above the line")
        return real(pts, markets)

    monkeypatch.setattr(payoffs, "_revenue_and_grad", flaky)
    sweep = {"parameter": "payoff.market.p2", "values": [1.0, 1.5, 2.0]}
    data = tiny_market_config(tmp_path / "table", sweep=sweep, restarts=2)
    sizes = counted_batches(monkeypatch)
    assert run_experiment(write_config(tmp_path, data, "table.yaml"), "table") == 3
    assert sizes == [6]
    del data["sweep"]
    data["payoff"]["market"]["p2"] = 1.5
    data["output_dir"] = str(tmp_path / "solve")
    assert run_experiment(write_config(tmp_path, data, "solve.yaml"), "solve") == 3
    table = json.loads((tmp_path / "table" / "failure.json").read_text())
    assert table == json.loads((tmp_path / "solve" / "failure.json").read_text())
    assert table["iteration"] == 14 and table["error"] == "no revenue above the line"


def test_table_needs_sweep_and_monopolist(tmp_path, capsys):
    path = write_config(tmp_path, tiny_market_config(tmp_path / "x"))
    assert run_experiment(path, command="table") == 2
    err = capsys.readouterr().err
    assert "sweep" in err
    data = {"payoff": {"kind": "concave-bowl"}, "sweep": {"parameter": "objective.eta", "values": [0.0]}}
    path2 = write_config(tmp_path, data, name="c2.yaml")
    assert run_experiment(path2, command="table") == 2
    assert "monopolist" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["table", "benchmark"])
def test_bad_sweep_row_fails_before_any_work(tmp_path, capsys, command):
    # the first row is valid, the second has q_min above q_max: every row is
    # parsed before the first is solved, so nothing is printed or written
    out = tmp_path / "sweep"
    sweep = {"parameter": "payoff.market.q_min", "values": [0.5, 3.0]}
    path = write_config(tmp_path, tiny_market_config(out, sweep=sweep))
    assert run_experiment(path, command=command) == 2
    captured = capsys.readouterr()
    assert "sweep.values" in captured.err and "3" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_benchmark_rows(tmp_path, capsys):
    out = tmp_path / "bench"
    cfg = tiny_market_config(out, sweep={"parameter": "payoff.market.p2", "values": [1.0, 1.25]})
    path = write_config(tmp_path, cfg)
    assert run_experiment(path, command="benchmark") == 0
    lines = (out / "benchmark.csv").read_text().strip().splitlines()
    assert lines[0] == "param,r_noinfo,r_lloyd,r_fullinfo"
    assert len(lines) == 3
    assert lines[1].startswith("p2=1,")


def test_benchmark_without_sweep_single_row(tmp_path):
    out = tmp_path / "bench"
    path = write_config(tmp_path, tiny_market_config(out))
    assert run_experiment(path, command="benchmark") == 0
    lines = (out / "benchmark.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("base,")


def test_export_roundtrip(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_market_config(out))
    assert run_experiment(path, command="solve") == 0
    original = (out / "diagram.json").read_bytes()
    (out / "diagram.json").unlink()
    (out / "diagram.svg").unlink()
    assert run_experiment(path, command="export") == 0
    assert (out / "diagram.json").read_bytes() == original
    assert (out / "diagram.svg").exists()


def test_export_requires_solve_result(tmp_path, capsys):
    out = tmp_path / "empty"
    path = write_config(tmp_path, tiny_market_config(out))
    assert run_experiment(path, command="export") == 2
    assert "solve" in capsys.readouterr().err


def test_export_rejects_table_results(tmp_path, capsys):
    out = tmp_path / "t"
    sweep = {"parameter": "payoff.market.p2", "values": [1.0]}
    path = write_config(tmp_path, tiny_market_config(out, sweep=sweep))
    assert run_experiment(path, command="table") == 0
    assert run_experiment(path, command="export") == 2
    assert "table" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    '{"weights": [0.0, 0.0]}',
    "not json",
    '{"sites": [[0.5, 0.5], [0.5, 0.5]], "weights": [0.0, 0.0]}',
], ids=["missing-sites", "not-json", "coincident-sites"])
def test_export_malformed_result_exits_two(tmp_path, capsys, content):
    out = tmp_path / "run"
    out.mkdir()
    (out / "result.json").write_text(content, encoding="utf-8")
    path = write_config(tmp_path, tiny_market_config(out))
    assert run_experiment(path, command="export") == 2
    assert str(out / "result.json") in capsys.readouterr().err


def test_unwritable_out_dir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    path = write_config(tmp_path, tiny_market_config(tmp_path / "ignored"))
    assert main(["solve", "--config", path, "--out-dir", str(blocker / "sub")]) == 2
    assert str(blocker / "sub") in capsys.readouterr().err


def test_cli_overrides_reach_result(tmp_path):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_market_config(tmp_path / "ignored"))
    code = main([
        "solve", "--config", path, "--out-dir", str(out),
        "--resolution", "16", "--seed", "9", "--eta", "0.001", "--epsilon", "3.0",
    ])
    assert code == 0
    data = json.loads((out / "result.json").read_text())
    assert data["resolution"] == 16
    assert data["seed"] == 9
    assert data["eta"] == 0.001
    # grid units: epsilon 3 at spacing 2/16
    assert abs(data["epsilon"] - 3.0 * (2.0 / 16.0)) < 1e-12


@pytest.mark.parametrize("section, value, flag, arg", [
    ("objective", 5, "--epsilon", "2"),
    ("objective", 5, "--eta", "0.5"),
    ("optimizer", 3, "--seed", "1"),
    ("grid", [1, 2], "--resolution", "8"),
], ids=["objective-epsilon", "objective-eta", "optimizer-seed", "grid-resolution"])
def test_override_onto_non_mapping_section_exits_two(tmp_path, capsys, section, value, flag, arg):
    out = tmp_path / "out"
    data = {"payoff": {"kind": "concave-bowl"}, section: value, "output_dir": str(out)}
    assert main(["solve", "--config", write_config(tmp_path, data), flag, arg]) == 2
    assert f"{section}: must be a mapping" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_dumps_state(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    path = write_config(tmp_path, tiny_market_config(out))

    def explode(inits, grid, obj, opts):
        raise NumericFailure("boom", last_params=inits[0], last_value=-1.0, iteration=7)

    monkeypatch.setattr(cli, "optimize_batch", explode)
    assert run_experiment(path, command="solve") == 3
    assert "numeric failure" in capsys.readouterr().err
    dump = json.loads((out / "failure.json").read_text())
    assert dump["iteration"] == 7
    assert len(dump["sites"]) == 4


@pytest.mark.parametrize(
    "hards, cells, winner",
    [
        # the table1 p2=2 tie: values 3e-17 apart, the fewest cells win
        ([0.1715728591160221, 0.17157285911602213, 0.17], [7, 6, 5], 1),
        # equal cells: the lowest seed wins, though a later one is 3e-17 higher
        ([0.1715728591160221, 0.17157285911602213, 0.17], [6, 6, 5], 0),
        # 1e-9 higher is no tie: the most cells still win
        ([0.1715728601160221, 0.1715728591160221, 0.1715728591160221], [9, 4, 4], 0),
    ],
)
def test_restart_ties_go_to_fewest_cells_then_lowest_seed(tmp_path, monkeypatch, hards, cells, winner):
    cfg = parse_config(tiny_market_config(tmp_path / "run", restarts=3))

    def fake_optimize_batch(inits, grid, obj, opts):
        return [
            SimpleNamespace(hard_value=hards[opt.seed], effective_n=cells[opt.seed],
                            seed_used=opt.seed)
            for opt in opts
        ]

    monkeypatch.setattr(cli, "optimize_batch", fake_optimize_batch)
    result, *_ = cli.solve_scenario(cfg)
    assert result.seed_used == winner and result.hard_value == hards[winner]


def test_coincident_sites_stop_early(tmp_path):
    # the default Adam run on a coarse bowl drives two sites onto one point:
    # the run stops there and finalises the best iterate it has
    out = tmp_path / "run"
    raw = {"payoff": {"kind": "concave-bowl"}, "grid": {"resolution": 8}, "output_dir": str(out)}
    assert run_experiment(write_config(tmp_path, raw), command="solve") == 0
    assert not (out / "failure.json").exists()
    data = json.loads((out / "result.json").read_text())
    assert data["stopped_early"] == data["iterations"] > 0
    assert data["best_iteration"] < data["stopped_early"]
    assert np.isfinite(data["soft_value"]) and np.isfinite(data["hard_value"])
    DiagramParams(np.array(data["sites"]), np.array(data["weights"]))
    # a run that ends before that step carries no stopped_early key
    raw["optimizer"] = {"max_iters": data["stopped_early"] - 1}
    assert run_experiment(write_config(tmp_path, raw), command="solve") == 0
    assert "stopped_early" not in json.loads((out / "result.json").read_text())


def test_render_svg_skips_outside_sites():
    diagram = {
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "resolution": 2,
        "sites": [[-5.0, -5.0], [0.5, 0.5]],
        "weights": [0.0, 0.0],
        "masses": [0.0, 1.0],
        "barycenters": [None, [0.5, 0.5]],
        "label_grid": [[1, 1], [1, 1]],
    }
    svg = render_svg(diagram)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 1
    assert svg.count("<polygon") == 1


def test_render_svg_single_cell_single_color():
    diagram = {
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "resolution": 4,
        "sites": [[0.5, 0.5]],
        "weights": [0.0],
        "masses": [1.0],
        "barycenters": [[0.5, 0.5]],
        "label_grid": [[0] * 4 for _ in range(4)],
    }
    svg = render_svg(diagram)
    fills = {part.split('"')[0] for part in svg.split('fill="')[1:]}
    # background white, one cell color, black frame markers
    assert cli.PALETTE[0] in fills
    assert not any(c in fills for c in cli.PALETTE[1:])


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_render_svg_rects_are_each_rows_label_runs(as_array):
    # the rects equal a walk over each row's cells that merges equal labels
    m = 24
    labels = np.random.default_rng(5).integers(0, 20, size=(m, m))
    labels[:, 5:12] = 7
    labels[3] = 1
    labels[9, :-1] = 2
    diagram = {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": m, "sites": [], "weights": [],
               "masses": [], "barycenters": [],
               "label_grid": labels if as_array else labels.tolist()}
    rects = re.findall(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" '
                       r'height="[\d.]+" fill="(#\w+)"/>', render_svg(diagram))
    want = []
    cell_w = 520.0 / m
    for iy, row in enumerate(labels.tolist()):
        ix = 0
        while ix < m:
            run = ix
            while run < m and row[run] == row[ix]:
                run += 1
            want.append((f"{16.0 + ix * cell_w:.2f}", f"{16.0 + 520.0 - (iy + 1) * cell_w:.2f}",
                         f"{(run - ix) * cell_w + 0.35:.2f}", PALETTE[row[ix] % len(PALETTE)]))
            ix = run
    assert rects == want


def test_config_loader_parses_like_safe_loader(tmp_path, monkeypatch):
    # libyaml, where PyYAML has it, reads every committed config and every
    # perfbench workload config as the pure-Python SafeLoader does
    import importlib.util
    import sys

    assert cli._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    paths = sorted((root / "configs").glob("*.yaml"))
    for name, make in workloads.WORKLOADS.items():
        for stem, raw in make(9301).configs:
            paths.append(tmp_path / f"{name}-{stem}.yaml")
            paths[-1].write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    assert len(paths) > 6
    for path in paths:
        want = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        assert repr(cli.load_raw_config(str(path))) == repr(want)


def test_main_rejects_unknown_command(tmp_path):
    path = write_config(tmp_path, {"payoff": {"kind": "concave-bowl"}})
    with pytest.raises(SystemExit):
        main(["dance", "--config", path])


def test_epsilon_final_uses_epsilon_units(tmp_path):
    out = tmp_path / "run"
    data = tiny_market_config(out)
    data["optimizer"]["epsilon_final"] = 0.5
    path = write_config(tmp_path, data)
    assert run_experiment(path, command="solve") == 0
    result = json.loads((out / "result.json").read_text())
    # grid units: epsilon 5 -> 0.5 cells at spacing 2/32, annealing down
    h = 2.0 / 32.0
    assert result["epsilon"] == 5.0 * h
    assert result["epsilon_final"] == 0.5 * h
    grid, obj, _ = cli.build_scenario(parse_config(data))
    final = ObjectiveConfig(eta=0.0, entropic=EntropicConfig(0.5 * h), payoff=obj.payoff)
    params = DiagramParams(np.array(result["sites"]), np.array(result["weights"]))
    assert result["soft_value"] == soft_objective(params, grid, final).value


def _outputs_under_blas_threads(tmp_path, command, data):
    """The output files' bytes of one CLI run per OpenBLAS thread count (1, 2)."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = write_config(tmp_path, data)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "persuade_ot.cli", command, "--config", path,
             "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        blobs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.json")) + sorted(out.glob("*.csv"))})
    return blobs


def test_solve_bytes_identical_across_blas_threads(tmp_path):
    data = tiny_market_config(tmp_path / "unused")
    # at 256^2 with 12 sites the kernel's (M, M) @ (M, 3n) products are large
    # enough for OpenBLAS to split them over two threads; at 32^2 they stay on one
    data["grid"]["resolution"] = 256
    data["optimizer"].update(n_init=12, max_iters=10)
    blobs = _outputs_under_blas_threads(tmp_path, "solve", data)
    assert set(blobs[0]) == {"result.json", "diagram.json"}
    assert blobs[0] == blobs[1]


def test_table_bytes_identical_across_blas_threads(tmp_path):
    # two restarts advance as one batch: its stacked products must not depend
    # on the thread count either
    data = tiny_market_config(
        tmp_path / "unused", sweep={"parameter": "payoff.market.p2", "values": [1.0, 1.5]},
        restarts=2,
    )
    data["grid"]["resolution"] = 256
    data["optimizer"].update(n_init=12, max_iters=10)
    blobs = _outputs_under_blas_threads(tmp_path, "table", data)
    assert {"table.csv", "result.json", "diagram_p2=1.json", "diagram_p2=1.5.json"} <= set(blobs[0])
    assert blobs[0] == blobs[1]


def test_lloyd_solved_once_per_grid(tmp_path, monkeypatch):
    import persuade_ot.benchmarks as benchmarks

    calls = []
    real = benchmarks.lloyd_solve

    def counted(n, grid, seed):
        calls.append((n, seed))
        return real(n, grid, seed)

    out = tmp_path / "bench"
    sweep = {"parameter": "payoff.market.p2", "values": [1.0, 1.25, 1.5]}
    cfg = tiny_market_config(out, sweep=sweep)
    path = write_config(tmp_path, cfg)
    assert run_experiment(path, command="benchmark") == 0
    expected = (out / "benchmark.csv").read_bytes()
    monkeypatch.setattr(benchmarks, "lloyd_solve", counted)
    assert run_experiment(path, command="benchmark") == 0
    # three markets on one grid, two Lloyd tries: two solves, same table
    assert sorted(calls) == [(4, 0), (4, 1)]
    assert (out / "benchmark.csv").read_bytes() == expected


@pytest.mark.parametrize("command, parameter, values, boxes", [
    ("benchmark", "p2", [1.0, 1.25, 1.5], 1),
    ("benchmark", "q_min", [0.0, 0.25, 0.5], 3),
    ("table", "p2", [1.0, 1.25, 1.5], 1),
], ids=["benchmark-p2", "benchmark-q_min", "table-p2"])
def test_consecutive_scenarios_on_one_box_share_its_grid(
    tmp_path, monkeypatch, command, parameter, values, boxes
):
    import weakref

    built = []
    real = cli.build_grid

    def tracked(bounds, resolution):
        if command == "benchmark":
            # a benchmark drops each box's grid before it builds the next
            assert all(ref() is None for ref in built)
        grid = real(bounds, resolution)
        built.append(weakref.ref(grid))
        return grid

    data = tiny_market_config(tmp_path / "out")
    data["optimizer"]["max_iters"] = 5
    data["sweep"] = {"parameter": f"payoff.market.{parameter}", "values": values}
    path = write_config(tmp_path, data)
    assert run_experiment(path, command) == 0
    expected = tree_bytes(tmp_path / "out")
    monkeypatch.setattr(cli, "build_grid", tracked)
    assert run_experiment(path, command) == 0
    assert len(built) == boxes
    assert tree_bytes(tmp_path / "out") == expected


@pytest.mark.parametrize("key, value, command", [
    ("benchmark.lloyd_tries", 0, "solve"),
    ("benchmark.lloyd_n", 0, "solve"),
    ("benchmark.lloyd_n", 16 * 16 + 1, "benchmark"),
    # pruning can keep all n_init cells, and the Lloyd baseline needs a grid point per cell
    ("optimizer.n_init", 16 * 16 + 1, "table"),
    # a bad resolution names itself, not the n_init or lloyd_n it is compared with
    ("grid.resolution", 0, "solve"),
    ("grid.resolution", -3, "table"),
    ("grid.resolution", 0, "benchmark"),
], ids=["lloyd_tries-zero", "lloyd_n-zero", "lloyd_n-above-grid", "n_init-above-grid",
        "resolution-zero-solve", "resolution-negative-table", "resolution-zero-benchmark"])
def test_invalid_lloyd_settings_exit_two(tmp_path, capsys, key, value, command):
    data = tiny_market_config(tmp_path / "out", sweep={"parameter": "payoff.market.p2", "values": [1.0]})
    data["grid"]["resolution"] = 16
    section, name = key.split(".")
    data[section][name] = value
    assert run_experiment(write_config(tmp_path, data), command) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


def test_lloyd_n_above_grid_only_fails_benchmark(tmp_path):
    # a solve never reads lloyd_n, so the default of 4 is fine on a single grid point
    data = {"payoff": {"kind": "concave-bowl"}, "grid": {"resolution": 1},
            "optimizer": {"n_init": 1, "max_iters": 5}, "output_dir": str(tmp_path / "out")}
    assert run_experiment(write_config(tmp_path, data), "solve") == 0


def test_underflowing_epsilon_only_fails_the_commands_that_solve(tmp_path, capsys):
    # benchmark and export read no epsilon and build only their grid, so an
    # epsilon that is 0 in absolute units at resolution 16 leaves their files
    # as they are; solve and table still exit 2 naming the key
    data = tiny_market_config(tmp_path / "good", {"parameter": "payoff.market.p2",
                                                  "values": [1.0, 1.5]})
    data["grid"]["resolution"] = 16
    good = write_config(tmp_path, data, "good.yaml")
    data["objective"]["epsilon"] = 1.0e-323
    data["output_dir"] = str(tmp_path / "tiny")
    tiny = write_config(tmp_path, data, "tiny.yaml")
    assert run_experiment(good, "benchmark") == 0
    assert run_experiment(tiny, "benchmark") == 0
    assert tree_bytes(tmp_path / "tiny") == tree_bytes(tmp_path / "good")
    assert run_experiment(good, "solve") == 0
    expected = tree_bytes(tmp_path / "good")
    for name in ("diagram.json", "diagram.svg"):
        (tmp_path / "good" / name).unlink()
    assert main(["export", "--config", good, "--epsilon", "1e-323"]) == 0
    assert tree_bytes(tmp_path / "good") == expected
    capsys.readouterr()
    for command in ("solve", "table"):
        assert run_experiment(tiny, command) == 2
        assert "config error: objective.epsilon:" in capsys.readouterr().err


def test_table_takes_each_labellings_hard_cells_once(tmp_path, monkeypatch):
    # hard_cell_stats runs once per labelling: once per finalised restart,
    # twice where a pruned cell owned grid points and the diagram is labelled
    # afresh, once per dense labelling of a Lloyd solve, and never in
    # export_diagram, which is handed each winner's record
    import persuade_ot.benchmarks as benchmarks_mod
    import persuade_ot.optimizer as optimizer_mod
    import persuade_ot.power_diagram as power_diagram

    spans = []  # [name, args, result] of each finalisation, Lloyd solve and export
    # (index of the enclosing span, output) of each call
    records, labellings, masks = [], [], []
    current = [None]

    def within(name, real):
        def wrapper(*args, **kwargs):
            outer, current[0] = current[0], len(spans)
            span = [name, args, None]
            spans.append(span)
            try:
                span[2] = real(*args, **kwargs)
                return span[2]
            finally:
                current[0] = outer
        return wrapper

    def counted(log, real):
        def wrapper(*args):
            log.append((current[0], real(*args)))
            return log[-1][1]
        return wrapper

    monkeypatch.setattr(power_diagram, "hard_cell_stats",
                        counted(records, power_diagram.hard_cell_stats))
    monkeypatch.setattr(power_diagram, "_power_labels",
                        counted(labellings, power_diagram._power_labels))
    monkeypatch.setattr(optimizer_mod, "kept_cells", counted(masks, optimizer_mod.kept_cells))
    monkeypatch.setattr(optimizer_mod, "_finalise", within("finalise", optimizer_mod._finalise))
    monkeypatch.setattr(benchmarks_mod, "lloyd_solve", within("lloyd", benchmarks_mod.lloyd_solve))
    monkeypatch.setattr(cli, "export_diagram", within("export", cli.export_diagram))
    sweep = {"parameter": "payoff.market.p2", "values": [1.0, 1.5]}
    data = tiny_market_config(tmp_path / "out", sweep=sweep, restarts=2)
    data["grid"]["resolution"] = 16
    data["optimizer"].update(n_init=6, max_iters=5)
    assert run_experiment(write_config(tmp_path, data), "table") == 0
    monkeypatch.undo()
    names = [name for name, _, _ in spans]
    assert names.count("finalise") == 4 and names.count("export") == 2 and "lloyd" in names
    assert all(k is not None for k, _ in records)
    for k, (name, args, result) in enumerate(spans):
        mine = [record for j, record in records if j == k]
        if name == "finalise":
            (kept,) = [mask for j, mask in masks if j == k]
            relabelled = np.bincount(mine[0].labels, minlength=args[0].n)[~kept].any()
            assert len(mine) == 1 + relabelled
        elif name == "lloyd":
            assert len(mine) == sum(j == k for j, _ in labellings) > 0
        else:
            assert mine == []


def test_table_prunes_each_finalised_restarts_best_iterate_once(tmp_path, monkeypatch):
    # perfbench's span observer counts optimizer.cells_pruned as the first
    # argument's n less the return's n of each optimizer.prune_cells call:
    # finalisation makes one call per restart, on the best iterate, and the
    # return is the result's diagram
    import persuade_ot.optimizer as optimizer_mod

    finalised, pruned = [], []  # [best iterate, result]; (finalisation, args, return)
    real_finalise, real_prune = optimizer_mod._finalise, optimizer_mod.prune_cells

    def finalise(*args, **kwargs):
        finalised.append([args[0], None])
        finalised[-1][1] = real_finalise(*args, **kwargs)
        return finalised[-1][1]

    def prune(*args):
        pruned.append((len(finalised) - 1, args, real_prune(*args)))
        return pruned[-1][2]

    monkeypatch.setattr(optimizer_mod, "_finalise", finalise)
    monkeypatch.setattr(optimizer_mod, "prune_cells", prune)
    sweep = {"parameter": "payoff.market.p2", "values": [1.0, 1.5]}
    data = tiny_market_config(tmp_path / "out", sweep=sweep, restarts=2)
    data["grid"]["resolution"] = 16
    data["objective"]["epsilon"] = 1.0
    data["optimizer"]["n_init"] = 12
    assert run_experiment(write_config(tmp_path, data), "table") == 0
    monkeypatch.undo()
    assert len(finalised) == 4 and [k for k, _, _ in pruned] == [0, 1, 2, 3]
    for (best, result), (_, args, out) in zip(finalised, pruned):
        assert args[0] is best and out is result.params
    assert any(out.n < args[0].n for _, args, out in pruned)


@pytest.mark.parametrize("values", [[1.0, 1.0000001], [1.25, 1.25], [1, 1.0]])
def test_sweep_values_with_one_label_exit_two(tmp_path, capsys, values):
    with pytest.raises(ConfigError) as exc:
        parse_config({"payoff": {"kind": "concave-bowl"},
                      "sweep": {"parameter": "objective.eta", "values": values}})
    assert exc.value.key == "sweep.values"
    out = tmp_path / "out"
    data = tiny_market_config(out, sweep={"parameter": "payoff.market.p2", "values": values})
    assert run_experiment(write_config(tmp_path, data), "table") == 2
    assert "sweep.values" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_needs_monopolist(tmp_path, capsys):
    path = write_config(tmp_path, {"payoff": {"kind": "concave-bowl"}})
    assert run_experiment(path, "benchmark") == 2
    assert "monopolist" in capsys.readouterr().err


def test_config_root_must_be_mapping(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- payoff\n- grid\n", encoding="utf-8")
    assert run_experiment(str(path), "solve") == 2
    assert "config root must be a mapping" in capsys.readouterr().err


def test_run_experiment_rejects_unknown_command(tmp_path, capsys):
    path = write_config(tmp_path, {"payoff": {"kind": "concave-bowl"}})
    assert run_experiment(path, "dance") == 2
    assert "unknown command 'dance'" in capsys.readouterr().err


def test_benchmark_setup_probe_runs_on_every_config():
    # perfbench runs this probe before each measured run; it must keep working
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    configs = sorted(str(p) for p in (root / "configs").glob("*.yaml"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "setup_probe.py"), str(root / "src"), *configs],
        capture_output=True, text=True, timeout=120,
    )
    assert configs and proc.returncode == 0, proc.stderr
