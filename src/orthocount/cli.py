"""Command-line entry point: build graphs, verify identities, count
tuples, print predictions, run experiments.

Exit codes: 0 success (and verification passed), 1 runtime failure or a
failed verification, 2 usage errors.  Diagnostics go to stderr; data goes
to stdout or to files, never mixed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import warnings
from typing import Sequence

from . import asymptotics, counting, graphs, spectral
from .asymptotics import CSV_COLUMNS, CountReport, ExperimentConfig
from .errors import OrthocountError
from .fields import field_from_order
from .vectors import parse_vector


def _max_vertices(default: int = graphs.DEFAULT_MAX_VERTICES) -> int:
    """The vertex bound ORTHOCOUNT_MAX_N sets, else the given default."""
    raw = os.environ.get("ORTHOCOUNT_MAX_N")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise OrthocountError(f"ORTHOCOUNT_MAX_N must be an integer, got {raw!r}") from None


def _build_graph(family: str, q: int, d: int) -> graphs.OrthoGraph:
    builder = (
        graphs.build_projective_graph if family == graphs.PROJECTIVE else graphs.build_affine_graph
    )
    return builder(q, d, max_vertices=_max_vertices())


def emit_reports(rows: Sequence[CountReport], csv_path: str, json_path: str | None = None) -> None:
    """Write experiment rows as CSV (exact column contract, LF endings,
    '.' decimals) and optionally as a JSON array with the same fields."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([getattr(row, col) for col in CSV_COLUMNS])
    if json_path is not None:
        with open(json_path, "w") as fh:
            json.dump([dataclasses.asdict(row) for row in rows], fh, indent=2)
            fh.write("\n")


def _cmd_build(args) -> int:
    graph = _build_graph(args.family, args.q, args.d)
    if args.out is None:
        graphs.export_graph(graph, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            graphs.export_graph(graph, fh)
    return 0


def _cmd_verify_spectrum(args) -> int:
    graph = _build_graph(args.family, args.q, args.d)
    report = spectral.verify_square_identity(
        graph, max_vertices=_max_vertices(spectral.DEFAULT_MAX_CHECK_VERTICES)
    )
    profile = spectral.predicted_spectrum(args.q, args.d, args.family)
    payload = {
        "pass": report.passed,
        "family": report.family,
        "q": report.q,
        "d": report.d,
        "field": graph.field.spec_string(),
        "n": report.n,
        "degree": report.degree,
        "mu_or_rho": report.codegree,
        "second_squared": profile.second_squared,
        "violations": [list(v) for v in report.violations],
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report.passed else 1


def _read_subset(graph: graphs.OrthoGraph, path: str) -> counting.VertexSubset:
    with open(path) as fh:
        vecs = [parse_vector(line) for line in fh if line.strip()]
    return counting.VertexSubset.from_vectors(graph, vecs)


def _cmd_count(args) -> int:
    graph = _build_graph(args.family, args.q, args.d)
    if args.subset is None:
        subset = counting.VertexSubset.full(graph)
    else:
        subset = _read_subset(graph, args.subset)
    value = counting.count_ordered_tuples(subset, args.k)
    json.dump({"m": subset.size, "k": args.k, "lambda_k": value}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_predict(args) -> int:
    q, d, k, m = args.q, args.d, args.k, args.m
    field_from_order(q)  # rejects an order that is no prime power
    # the thresholds come first: for a huge d or k they overflow before
    # q**d or m**k is taken
    t_new = asymptotics.threshold_new(q, d, k)
    t_old = asymptotics.threshold_old(q, d, k)
    payload = {
        "lambda_k_formula": asymptotics.predict_tuple_count(m, q, k),
        "alon_formula": asymptotics.predict_copy_count(m, q**d - 1, q ** (d - 1) - 1, k),
        "threshold_new": t_new,
        "threshold_old": t_old,
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_experiment(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ExperimentConfig.from_file(args.config)
    for warning in caught:
        print(f"orthocount: warning: {warning.message}", file=sys.stderr)
    rows = asymptotics.run_experiment(config, max_vertices=_max_vertices())
    emit_reports(rows, args.out_csv, args.out_json)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthocount",
        description="Orthogonality graphs over finite fields: exact spectra, "
        "tuple counts, and asymptotic experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_graph_flags(p, family_required=True):
        p.add_argument(
            "--family",
            choices=(graphs.PROJECTIVE, graphs.AFFINE),
            required=family_required,
            default=None if family_required else graphs.AFFINE,
        )
        p.add_argument("--q", type=int, required=True, help="field order (prime power)")
        p.add_argument("--d", type=int, required=True, help="ambient dimension")

    p_build = sub.add_parser("build", help="construct a graph and export adjacency")
    add_graph_flags(p_build)
    p_build.add_argument("--out", help="output path (default: stdout)")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify-spectrum", help="exact square-identity check")
    add_graph_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify_spectrum)

    p_count = sub.add_parser("count", help="count ordered orthogonal k-tuples")
    add_graph_flags(p_count, family_required=False)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--subset", help="file of newline-separated vectors like 1,0,2")
    p_count.set_defaults(func=_cmd_count)

    p_predict = sub.add_parser("predict", help="print the closed-form predictions")
    p_predict.add_argument("--q", type=int, required=True)
    p_predict.add_argument("--d", type=int, required=True)
    p_predict.add_argument("--k", type=int, required=True)
    p_predict.add_argument("--m", type=int, required=True)
    p_predict.set_defaults(func=_cmd_predict)

    p_exp = sub.add_parser("experiment", help="run a seeded counting experiment")
    p_exp.add_argument("--config", required=True, help="key = value config file")
    p_exp.add_argument("--out-csv", required=True)
    p_exp.add_argument("--out-json")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OrthocountError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"orthocount: error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        print("orthocount: error: a prediction exceeds the floating-point range", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
