#!/usr/bin/env python3
"""Benchmark of the persuade-ot solver through its command-line entry point.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's configs are generated from
the seed and handed to ``persuade_ot.cli.main`` in this process, one CLI
command per operation; whole rounds of operations repeat until the time
is up. With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` a traced run prints the per-layer metrics. Every run checks
the program's outputs against independent computations (checks.py), and
its last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Details and outputs land in perfbench/out/.
"""

import os

NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the cores this process may use, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import shapes  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ALL_WRAPPED, WORKLOADS  # noqa: E402


def load_program():
    """Import persuade_ot.cli from this checkout's src/, nowhere else."""
    if not (SRC / "persuade_ot" / "cli.py").is_file():
        sys.exit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import persuade_ot.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: persuade_ot was imported from {cli.__file__}, not {SRC}")
    return cli


def machine_info() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "cores": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(cli, workload, config_paths, round_dir: Path, tracer=None) -> dict:
    """Run every operation of the workload once; returns wall/cpu/failures."""
    failed = 0
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for stem, path in config_paths:
        if tracer is not None:
            tracer.begin_op()
        argv = [workload.command, "--config", str(path), "--out-dir", str(round_dir / stem)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except Exception:  # an operation that crashes counts as failed
            traceback.print_exc()
            status = -1
        if status != 0:
            print(f"operation {stem} exited with status {status}", file=sys.stderr)
            failed += 1
    return {"wall_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - cpu0,
            "failed": failed, "dir": round_dir}


def timed_rounds(cli, workload, config_paths, run_dir, seconds):
    """Whole rounds until another median-length round would overrun."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, workload, config_paths, run_dir / f"round{len(rounds)}"))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall_s"] for r in rounds) > seconds:
            return rounds


def setup_seconds(config_paths) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    probe += [str(p) for _, p in config_paths]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def digests(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _market(raw: dict, value=None) -> checks.Market:
    market = dict(raw["payoff"]["market"])
    if value is not None:
        market[raw["sweep"]["parameter"].rsplit(".", 1)[-1]] = float(value)
    return checks.Market(**market)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict]:
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def check_baselines(market, resolution, r_noinfo, r_fullinfo, rng) -> None:
    """No-information and full-information values against independent
    quadrature, and the published values where the market has one."""
    mid = 0.5 * (market.q_min + market.q_max)
    checks.check_close(f"no-info revenue of {market}", r_noinfo,
                       checks.revenue_at((mid, mid), market), 1e-4)
    checks.check_close(f"full-info revenue of {market}", r_fullinfo,
                       checks.full_info_estimate(market, resolution, rng, strata=32), 6e-4)
    checks.check_paper_values(market, r_noinfo, r_fullinfo, tol=2e-3)


def check_outputs(workload, round_dir: Path, rng) -> float:
    """Check one round's outputs; returns the workload's value_mean."""
    values = []
    for stem, raw in workload.configs:
        out = round_dir / stem
        resolution = raw["grid"]["resolution"]
        if workload.command == "table":
            table = _csv_rows(out / "table.csv")
            summaries = _read_json(out / "result.json")
            for value, row, summary in zip(raw["sweep"]["values"], table, summaries, strict=True):
                market = _market(raw, value)
                r = {k: float(row[k]) for k in ("r_opt", "r_noinfo", "r_lloyd", "r_fullinfo")}
                check_baselines(market, resolution, r["r_noinfo"], r["r_fullinfo"], rng)
                checks.check_ordering(row["param"], r["r_opt"], r["r_noinfo"],
                                      r["r_lloyd"], r["r_fullinfo"])
                diagram = _read_json(out / f"diagram_{row['param']}.json")
                recomputed = checks.hard_value_from_diagram(
                    diagram, lambda b, m=market: checks.revenue_at(b, m))
                checks.check_close(f"{row['param']} r_opt from diagram.json",
                                   summary["hard_value"], recomputed, 1e-6)
                checks.check_close(f"{row['param']} r_opt in table.csv", r["r_opt"],
                                   recomputed, 5.1e-5)
                values.append(summary["hard_value"])
        elif workload.command == "solve":
            summary = _read_json(out / "result.json")
            diagram = _read_json(out / "diagram.json")
            checks.check_three_modes(diagram, summary["effective_n"], summary["hard_value"])
            recomputed = checks.hard_value_from_diagram(
                diagram, lambda b: float(checks.tri_modal_value(b)[0]))
            checks.check_close("tri-modal hard value from diagram.json",
                               summary["hard_value"], recomputed, 1e-9)
            values.append(summary["hard_value"])
        else:
            rows = _csv_rows(out / "benchmark.csv")
            for value, row in zip(raw["sweep"]["values"], rows, strict=True):
                market = _market(raw, value)
                check_baselines(market, resolution, float(row["r_noinfo"]),
                                float(row["r_fullinfo"]), rng)
                r_lloyd = float(row["r_lloyd"])
                top_price = max(market.p1, market.p2, market.p1 + market.p2 + market.delta)
                if not 0.0 <= r_lloyd <= top_price:  # no buyer pays more than that
                    raise checks.CheckFailed(f"{row['param']}: Lloyd revenue {r_lloyd}")
                values.append(r_lloyd)
    return statistics.fmean(values)


def check_all(workload, rounds, rng) -> tuple[bool, float, list[str]]:
    """Check the first clean round in full; every later round must have
    written byte-identical files, and is deleted once compared."""
    problems = []
    value = float("nan")
    good = [r for r in rounds if r["failed"] == 0]
    if not good:
        return False, value, ["no round completed without a failed operation"]
    try:
        value = check_outputs(workload, good[0]["dir"], rng)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    reference = digests(good[0]["dir"])
    for r in good[1:]:
        if digests(r["dir"]) != reference:
            problems.append(f"{r['dir'].name} wrote different files than {good[0]['dir'].name}")
        shutil.rmtree(r["dir"])
    return not problems, value, problems


def per_layer(tracer: Tracer, traced: list, untraced: list, cpu, seed: int) -> tuple[dict, list]:
    """Per-round averages over the traced rounds, plus fixed-shape medians."""
    k = len(traced)
    metrics = {}
    for name in ALL_WRAPPED:
        metrics[f"{name}.calls"] = (tracer.calls[name] / k, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / k, "s")
    opt = tracer.optimizer
    iters = opt["iterations"]
    metrics["optimizer.iterations"] = (iters / k, "count")
    metrics["optimizer.ms_per_iter"] = (
        1e3 * tracer.total_s["optimizer.optimize"] / iters if iters else 0.0, "ms")
    metrics["optimizer.useful_iter_frac"] = (
        statistics.fmean(opt["useful"]) if opt["useful"] else 0.0, "1")
    metrics["optimizer.cells_pruned"] = (opt["pruned"] / k, "count")
    metrics["process.user_s"] = (cpu[0] / k, "s")
    metrics["process.sys_s"] = (cpu[1] / k, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced), "s")
    shape_ms, absent = shapes.shape_medians(seed)
    for name, ms in shape_ms.items():
        metrics[name] = (ms, "ms")
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_program()
    workload = WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    config_paths = []
    for stem, raw in workload.configs:
        path = run_dir / "configs" / f"{stem}.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
        config_paths.append((stem, path))
    info = machine_info()
    print(json.dumps({"machine": info}))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "configs": dict(workload.configs)}

    if args.trace == 0:
        setup = setup_seconds(config_paths)
        rounds = timed_rounds(cli, workload, config_paths, run_dir, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        report["setup_s"] = setup
    else:
        # alternate untraced and traced rounds, so that drift in the host's
        # speed reaches both sides of trace.overhead_s alike
        tracer = Tracer(ALL_WRAPPED, leaves={"payoffs.revenue"})
        rounds, traced, cpu = [], [], [0.0, 0.0]
        start = time.perf_counter()
        while True:
            rounds.append(run_round(cli, workload, config_paths,
                                    run_dir / f"round{2 * len(traced)}"))
            tracer.install()
            try:
                ru0 = resource.getrusage(resource.RUSAGE_SELF)
                traced.append(run_round(cli, workload, config_paths,
                                        run_dir / f"round{2 * len(traced) + 1}", tracer))
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
            finally:
                tracer.uninstall()
            cpu[0] += ru1.ru_utime - ru0.ru_utime
            cpu[1] += ru1.ru_stime - ru0.ru_stime
            pair = statistics.median(r["wall_s"] for r in rounds + traced) * 2
            if time.perf_counter() - start + pair > args.seconds:
                break
        metrics, absent = per_layer(tracer, traced, rounds, cpu, args.seed)
        unseen = sorted(n for n in workload.expected - set(tracer.absent) if not tracer.calls[n])
        for name in tracer.absent + absent:
            print(f"absent: {name} (reported as 0)", file=sys.stderr)
        for name in unseen:
            print(f"unseen: {name} was expected on {args.workload} but never called",
                  file=sys.stderr)
        tracer.write_spans(run_dir / "spans.jsonl")
        report.update(absent=tracer.absent + absent, unseen=unseen)
        rounds += traced

    rng = np.random.default_rng([args.seed, 7919])
    correct, value, problems = check_all(workload, rounds, rng)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace == 0:
        metrics["value_mean"] = (value if correct else 0.0, "1")
    attempted = len(rounds) * len(config_paths)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(problems=problems, rounds=[
        {k: (str(v) if k == "dir" else v) for k, v in r.items()} for r in rounds])
    report["result"] = result
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
