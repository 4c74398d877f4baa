#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Runs one round of small operations through the same worker as the
benchmark, requires the independent checks to pass on its outputs, then
corrupts one value at a time (an `observed` count changed by 1, one bit of
one exported row flipped, and so on) and requires the check meant to catch
each corruption to fail.  Exits 0 when every corruption is caught.

usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads

OPS = [
    {"kind": "experiment", "name": "k3",
     "config": {"q": 3, "d": 5, "k": 3, "densities": ("0.5",), "trials": 2, "seed": 7}},
    {"kind": "experiment", "name": "k2-gf4",
     "config": {"q": 4, "d": 3, "k": 2, "densities": ("20", "40"), "trials": 2, "seed": 7}},
    *workloads.graph_operations("projective", 9, 3),
    *workloads.graph_operations("affine", 4, 3),
]


def edit_csv(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    fields = lines[1 + row].split(",")
    col = header.index(column)
    fields[col] = change(fields[col])
    lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines))


def edit_json(path: Path, row: int, column: str, change) -> None:
    records = json.loads(path.read_text())
    records[row][column] = change(records[row][column])
    path.write_text(json.dumps(records, indent=2) + "\n")


def flip_bit(path: Path, row: int, bit: int) -> None:
    lines = path.read_text().split("\n")
    width = len(lines[1 + row])
    lines[1 + row] = format(int(lines[1 + row], 16) ^ (1 << bit), f"0{width}x")
    path.write_text("\n".join(lines))


def edit_report(results: list[dict], name: str, key: str, value, code: int = 0) -> None:
    index = next(i for i, op in enumerate(OPS) if op["name"] == name and op["kind"] == "verify")
    report = json.loads(results[index]["stdout"])
    report[key] = value
    results[index]["stdout"] = json.dumps(report, indent=2) + "\n"
    results[index]["code"] = code


def corruptions(round_dir: Path):
    """(description, expected failing checks, corrupting function)."""
    def csv_of(name):
        return round_dir / f"{name}.csv"

    def json_of(name):
        return round_dir / f"{name}.json"

    def adj_of(name):
        return round_dir / f"{name}.adj"

    plus_one = lambda text: str(int(text) + 1)  # noqa: E731
    nudge = lambda text: repr(float(text) * (1 + 1e-9))  # noqa: E731
    return [
        ("k=3 observed + 1 in the CSV", ["k3: observed"],
         lambda res: edit_csv(csv_of("k3"), 1, "observed", plus_one)),
        ("k=2 GF(4) observed - 1 in the CSV", ["k2-gf4: observed"],
         lambda res: edit_csv(csv_of("k2-gf4"), 2, "observed", lambda t: str(int(t) - 1))),
        ("k=2 observed + 1 in the JSON only", ["k2-gf4: json"],
         lambda res: edit_json(json_of("k2-gf4"), 0, "observed", lambda v: v + 1)),
        ("seed_used + 1", ["k3: seed_used"],
         lambda res: edit_csv(csv_of("k3"), 0, "seed_used", plus_one)),
        ("m + 1", ["k2-gf4: m"],
         lambda res: edit_csv(csv_of("k2-gf4"), 3, "m", plus_one)),
        ("predicted_main off by 1e-9", ["k3: predicted_main"],
         lambda res: edit_csv(csv_of("k3"), 0, "predicted_main", nudge)),
        ("predicted_alon off by 1e-9", ["k2-gf4: predicted_alon"],
         lambda res: edit_csv(csv_of("k2-gf4"), 1, "predicted_alon", nudge)),
        ("relative_error off by 1e-9", ["k3: relative_error"],
         lambda res: edit_csv(csv_of("k3"), 1, "relative_error", nudge)),
        ("threshold_new off by 1e-9", ["k2-gf4: threshold_new"],
         lambda res: edit_csv(csv_of("k2-gf4"), 0, "threshold_new", nudge)),
        ("threshold_old off by 1e-9", ["k3: threshold_old"],
         lambda res: edit_csv(csv_of("k3"), 0, "threshold_old", nudge)),
        ("validity_margin off by 1e-9", ["k3: validity_margin"],
         lambda res: edit_csv(csv_of("k3"), 0, "validity_margin", nudge)),
        ("one bit of one projective GF(9) row flipped",
         ["projective-q9-d3: export-rows", "projective-q9-d3: square-identity"],
         lambda res: flip_bit(adj_of("projective-q9-d3"), 5, 17)),
        ("one bit of one affine GF(4) row flipped",
         ["affine-q4-d3: export-rows", "affine-q4-d3: square-identity"],
         lambda res: flip_bit(adj_of("affine-q4-d3"), 40, 2)),
        ("mu_or_rho + 1 in the verify report", ["affine-q4-d3: closed-form"],
         lambda res: edit_report(res, "affine-q4-d3", "mu_or_rho", 4)),
        # verify-spectrum prints its report and exits 1 when the identity fails
        ("pass false and exit 1 in the verify report",
         ["projective-q9-d3: exit", "projective-q9-d3: pass"],
         lambda res: edit_report(res, "projective-q9-d3", "pass", False, code=1)),
        ("exit 1 of a build", ["affine-q4-d3: exit", "affine-q4-d3: export-rows"],
         lambda res: res[OPS.index(workloads.graph_operations("affine", 4, 3)[0])].update(code=1)),
        ("exit 2 of an experiment", ["k3: exit"],
         lambda res: res[0].update(code=2)),
        ("another modulus in the verify report", ["projective-q9-d3: field"],
         lambda res: edit_report(res, "projective-q9-d3", "field", "GF(3^2; modulus=2,1,1)")),
    ]


def main() -> int:
    work_dir = run.HERE / "out" / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workloads.write_configs(OPS, work_dir)
    rnd = run.run_round(OPS, run.child_env(), work_dir, 0, trace=False, memory=False)
    round_dir = rnd["dir"]
    if any(res["code"] != 0 for res in rnd["ops"]):
        print("selftest: an operation failed", file=sys.stderr)
        return 1
    pristine = workloads.check(OPS, rnd["ops"], round_dir)
    if pristine:
        print(f"selftest: correct outputs fail the checks: {pristine}", file=sys.stderr)
        return 1
    print("correct outputs pass every check")

    saved = {p: p.read_bytes() for p in round_dir.iterdir()}
    missed = 0
    for description, expected, corrupt in corruptions(round_dir):
        results = json.loads(json.dumps(rnd["ops"]))
        corrupt(results)
        found = workloads.check(OPS, results, round_dir)
        for path, data in saved.items():
            path.write_bytes(data)
        uncaught = [e for e in expected if not any(f.startswith(e + ":") for f in found)]
        status = "MISSED" if uncaught else "caught"
        missed += bool(uncaught)
        print(f"{status}: {description}: {'; '.join(found) or 'no failure'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
