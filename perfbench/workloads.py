"""The benchmark's workloads: their inputs, made from the seed, the CLI
invocations of one round, and the check of each invocation's output.

One operation is one invocation of `orthocount.cli.main`.  A round runs
every operation of the workload once; its outputs depend only on the seed,
so every round of a run must produce the same bytes.
"""

from __future__ import annotations

from math import isqrt
from pathlib import Path

import checks

# q=11, d=4, k=3 is the affine configuration (n = 14640) that the roadmap's
# quotient-counting item names.  Two densities and three trials keep the
# k=3 clique recursion above two thirds of the round, after the 3 s build.
EXPERIMENT = {"q": 11, "d": 4, "k": 3, "densities": ("0.125", "0.25"), "trials": 3}

# The k=2, d=3 error trend of scripts/run_trend_experiment.py, one
# experiment per q with m at 1x and 2x threshold_new = q^(5/2).  q=16 takes
# the extension-field path of the graph builder; the others are prime.
TREND_QS = (13, 16, 17, 19, 23)
TREND = {"d": 3, "k": 2, "trials": 5}

# Square identities of both families, two of them over extension fields,
# all with n <= 1500 so that the int64 product takes seconds, not minutes.
SPECTRUM = (("projective", 11, 4), ("affine", 11, 3), ("affine", 4, 5), ("projective", 9, 4))

NAMES = ("experiment", "trend", "spectrum")


def operations(workload: str, seed: int) -> list[dict]:
    """The workload's operations for this seed, in the order a round runs
    them.  The seed is the master seed of every experiment config.  The
    spectrum graphs and their order are fixed: the order sets the process's
    peak memory, so a seeded order would make peak_rss_mb vary by seed."""
    if workload == "experiment":
        return [{"kind": "experiment", "name": "experiment", "config": {**EXPERIMENT, "seed": seed}}]
    if workload == "trend":
        ops = []
        for q in TREND_QS:
            # floor(q^(5/2)) and floor(2 q^(5/2)), in exact integers
            sizes = (str(isqrt(q**5)), str(isqrt(4 * q**5)))
            config = {"q": q, **TREND, "densities": sizes, "seed": seed}
            ops.append({"kind": "experiment", "name": f"trend-q{q}", "config": config})
        return ops
    if workload == "spectrum":
        return [op for family, q, d in SPECTRUM for op in graph_operations(family, q, d)]
    raise ValueError(f"unknown workload {workload!r}")


def graph_operations(family: str, q: int, d: int) -> list[dict]:
    """`build --out` of one graph, then `verify-spectrum` of the same graph."""
    graph = {"family": family, "q": q, "d": d}
    name = f"{family}-q{q}-d{d}"
    return [{"kind": kind, "name": name, "graph": graph} for kind in ("build", "verify")]


def write_configs(ops: list[dict], directory: Path) -> None:
    for op in ops:
        if op["kind"] == "experiment":
            cfg = op["config"]
            text = "".join(
                f"{key} = {cfg[key]}\n" for key in ("q", "d", "k", "trials", "seed")
            ) + f"densities = {', '.join(cfg['densities'])}\n"
            (directory / f"{op['name']}.cfg").write_text(text)


def argv(op: dict, config_dir: Path, round_dir: Path) -> list[str]:
    if op["kind"] == "experiment":
        return [
            "experiment", "--config", str(config_dir / f"{op['name']}.cfg"),
            "--out-csv", str(round_dir / f"{op['name']}.csv"),
            "--out-json", str(round_dir / f"{op['name']}.json"),
        ]
    g = op["graph"]
    graph_flags = ["--family", g["family"], "--q", str(g["q"]), "--d", str(g["d"])]
    if op["kind"] == "build":
        return ["build", *graph_flags, "--out", str(round_dir / f"{op['name']}.adj")]
    return ["verify-spectrum", *graph_flags]


def output_files(op: dict, round_dir: Path) -> list[Path]:
    if op["kind"] == "experiment":
        return [round_dir / f"{op['name']}.csv", round_dir / f"{op['name']}.json"]
    if op["kind"] == "build":
        return [round_dir / f"{op['name']}.adj"]
    return []


def check(ops: list[dict], results: list[dict], round_dir: Path) -> list[str]:
    """Independent checks of one round's outputs.  `results` holds each
    operation's exit code and standard output.  A non-zero exit is itself a
    failure.  Its files are not checked, since the CLI writes none then, but
    a `verify-spectrum` report still is: the CLI prints it and exits 1 when
    the square identity fails."""
    failures = []
    exports = {}
    for op, result in zip(ops, results):
        name = op["name"]
        if result["code"] != 0:
            failures.append(f"{name}: exit: status {result['code']}")
            if op["kind"] != "verify":
                continue
        if op["kind"] == "experiment":
            csv_path, json_path = output_files(op, round_dir)
            found = checks.check_experiment(op["config"], csv_path.read_text(), json_path.read_text())
        elif op["kind"] == "build":
            exports[name] = output_files(op, round_dir)[0].read_text()
            continue
        elif name not in exports:
            found = ["export-rows: no export of this graph to check against"]
        else:
            g = op["graph"]
            found = checks.check_spectrum(g["family"], g["q"], g["d"], exports[name], result["stdout"])
        failures.extend(f"{name}: {failure}" for failure in found)
    return failures
