#!/usr/bin/env python3
"""Benchmark of the orthocount CLI on the experiment, trend and spectrum
workloads.

usage: python3 perfbench/run.py --workload {experiment,trend,spectrum}
           --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it benchmarks the sources under
the checkout's `src/`.  Rounds of the workload run, each in a fresh
worker process, for about S seconds of rounds: every round finishes, and
a round starts only if it should end less than half a round past S.
Before every round and after the last, SETUP_BATCH fresh interpreters
start and import `orthocount.cli`; their median time is `setup_s`.  The
first round's outputs are checked independently (see checks.py) and every
later round must reproduce them byte for byte.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (operations are CLI invocations) and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1, named and in units as BENCHMARK.json lists them.
Outputs, plans and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BATCH = 5
START_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 150
MB = 1 << 20


def child_env() -> dict[str, str]:
    """The environment of the workers and of the timed interpreter starts.
    BLAS is held to one thread: the program makes no BLAS call, but with two
    threads the numpy import runs partly on the second core, so its wall
    time depends on whether that core is free."""
    env = dict(os.environ)
    env.pop("ORTHOCOUNT_MAX_N", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in `section`, in its
    order; the metric names and units are defined there only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def named(values: dict[str, float], section: str) -> dict[str, tuple[float, str]]:
    units = metric_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {section} "
                           f"{sorted(units)}")
    return {name: (values[name], unit) for name, unit in units.items()}


def setup_time(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that starts and imports the CLI.
    The wait blocks and a timer kills a stuck child: a wait with a timeout
    polls with sleeps of up to 50 ms, which would round the time up to the
    next poll."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import orthocount.cli"], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(START_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"interpreter start exited {code}")
    return seconds


def run_round(ops, env, work_dir: Path, index: int, trace: bool, memory: bool) -> dict:
    round_dir = work_dir / f"round{index}"
    round_dir.mkdir()
    plan = {
        "root": str(ROOT),
        "invocations": [workloads.argv(op, work_dir, round_dir) for op in ops],
        "trace": trace,
        "memory": memory,
        "spans": str(round_dir / "spans.jsonl"),
    }
    plan_path, result_path = round_dir / "plan.json", round_dir / "result.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker of round {index} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    for op, op_result in zip(ops, result["ops"]):
        if op_result["code"] != 0:
            print(f"perfbench: {op['name']} exited {op_result['code']}:\n{op_result['stderr']}",
                  file=sys.stderr)
    return {**result, "dir": round_dir, "memory": memory}


def fingerprint(op: dict, op_result: dict, round_dir: Path) -> tuple:
    files = workloads.output_files(op, round_dir)
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None for p in files]
    return op_result["stdout"], digests


def verify(ops, rounds) -> list[str]:
    first = rounds[0]
    failures = workloads.check(ops, first["ops"], first["dir"])
    reference = [fingerprint(op, res, first["dir"]) for op, res in zip(ops, first["ops"])]
    for index, rnd in enumerate(rounds[1:], start=1):
        for op, res, ref in zip(ops, rnd["ops"], reference):
            if res["code"] == 0 and fingerprint(op, res, rnd["dir"]) != ref:
                failures.append(f"{op['name']}: round {index} output differs from round 0")
    return failures


def round_wall(rnd: dict) -> float:
    return sum(op["seconds"] for op in rnd["ops"])


def end_to_end(rounds, setup) -> dict[str, tuple[float, str]]:
    return named({
        "wall_s": statistics.median(round_wall(r) for r in rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in rounds),
    }, "end_to_end")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def round_layers(rnd: dict) -> dict[str, float]:
    """Per-layer figures of one traced timing round."""
    s = tracing.summarize(tracing.read_spans(rnd["dir"] / "spans.jsonl"))
    func, layer = s["func_self"], s["layer_self"]

    def work(names, key):
        return sum(s["work"].get(name, {}).get(key, 0) for name in names)

    builds = ("build_projective_graph", "build_affine_graph")
    build_s = sum(func.get(name, 0.0) for name in builds)
    count_s = func.get("count_ordered_tuples", 0.0)
    figures = {
        "cli.report_s": func.get("emit_reports", 0.0),
        "fields.construct_s": layer["fields"],
        "vectors.enumerate_s": layer["vectors"],
        "graphs.build_s": build_s,
        "graphs.pairs_per_s": _rate(work(builds, "pairs"), build_s),
        "graphs.export_s": func.get("export_graph", 0.0),
        "asymptotics.sample_s": func.get("sample_subset", 0.0),
        "counting.count_s": count_s,
        "counting.cliques_per_s": _rate(work(["count_ordered_tuples"], "cliques"), count_s),
        "spectral.verify_s": layer["spectral"],
        "spectral.macs_per_s": _rate(work(["verify_square_identity"], "macs"), layer["spectral"]),
        "trace.spans": s["spans"],
        "trace.overhead_s": s["spans"] * rnd["span_cost_s"],
        "trace.wall_s": round_wall(rnd),
    }
    figures.update({f"{name}.self_s": layer[name] for name in tracing.LAYERS})
    return figures


def per_layer(rounds) -> dict[str, tuple[float, str]]:
    """Medians over the traced timing rounds; memory peaks from the
    memory round; import time over every worker."""
    timed = [round_layers(r) for r in rounds if not r["memory"]]
    values = {name: statistics.median(fig[name] for fig in timed) for name in timed[0]}
    values["cli.startup_s"] = statistics.median(r["import_s"] for r in rounds)
    peaks: dict[str, int] = {}
    for rnd in rounds:
        if rnd["memory"]:
            for name, peak in tracing.summarize(
                    tracing.read_spans(rnd["dir"] / "spans.jsonl"))["peak"].items():
                peaks[name] = max(peaks.get(name, 0), peak)
    values["graphs.build_peak_mb"] = max(
        peaks.get("build_projective_graph", 0), peaks.get("build_affine_graph", 0)) / MB
    values["counting.peak_mb"] = peaks.get("count_ordered_tuples", 0) / MB
    values["spectral.peak_mb"] = peaks.get("verify_square_identity", 0) / MB
    return named(values, "per_layer")


def print_shares(metrics) -> None:
    wall = metrics["trace.wall_s"][0]
    print(f"{'layer':<12} {'self s':>9} {'share':>7}", file=sys.stderr)
    for name in tracing.LAYERS:
        own = metrics[f"{name}.self_s"][0]
        print(f"{name:<12} {own:>9.3f} {100 * own / wall:>6.1f}%", file=sys.stderr)
    overhead = metrics["trace.overhead_s"][0]
    print(f"tracing overhead {overhead:.3f} s ({100 * overhead / wall:.2f}% of {wall:.3f} s)",
          file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orthocount" / "cli.py").is_file():
        print(f"perfbench: error: no orthocount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    ops = workloads.operations(args.workload, args.seed)
    workloads.write_configs(ops, work_dir)
    env = child_env()
    trace = bool(args.trace)

    try:
        # Interpreter starts are spread over the run, in batches before
        # every round and after the last: the machine's speed drifts over
        # seconds, and one block of starts would sample a single drift.
        setup: list[float] = []
        rounds = []
        spent = 0.0
        if trace:
            start = time.perf_counter()
            rounds.append(run_round(ops, env, work_dir, 0, trace, memory=True))
            spent += time.perf_counter() - start
        while True:
            if not trace:
                setup += [setup_time(env) for _ in range(SETUP_BATCH)]
            start = time.perf_counter()
            rounds.append(run_round(ops, env, work_dir, len(rounds), trace, memory=False))
            took = time.perf_counter() - start
            spent += took
            # another round only if it should end less than half a round late
            if spent + took / 2 >= args.seconds:
                break
        if not trace:
            setup += [setup_time(env) for _ in range(SETUP_BATCH)]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    failures = verify(ops, rounds)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    metrics = per_layer(rounds) if trace else end_to_end(rounds, setup)
    if trace:
        print_shares(metrics)
    results = [op for rnd in rounds for op in rnd["ops"]]
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": sum(op["code"] != 0 for op in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
