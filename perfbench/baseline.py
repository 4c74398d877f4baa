#!/usr/bin/env python3
"""Re-measures the two roadmap baseline rows that the experiment workload
covers: `build_affine_graph(11, 4)` (n = 14640) and the k=3
`count_ordered_tuples` in a seeded subset of m = n/2 vertices.

usage: python3 perfbench/baseline.py

Times REPEATS builds and REPEATS counts, the count's subset drawn with
SEED, and prints the time of each repeat and their median, with the core
count and the Python and numpy versions.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from orthocount import asymptotics, counting, graphs  # noqa: E402

REPEATS = 3
SEED = 1


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def main() -> int:
    print(f"cores {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")

    builds = []
    for _ in range(REPEATS):
        seconds, graph = timed(lambda: graphs.build_affine_graph(11, 4))
        builds.append(seconds)
    subset = asymptotics.sample_subset(graph, graph.n // 2, SEED)
    counts = []
    for _ in range(REPEATS):
        seconds, value = timed(lambda: counting.count_ordered_tuples(subset, 3))
        counts.append(seconds)
    for label, times in ((f"build_affine_graph(11, 4), n={graph.n}", builds),
                         (f"count_ordered_tuples k=3, m={subset.size}, lambda_3={value}", counts)):
        print(f"{label}: median {statistics.median(times):.3f} s "
              f"({', '.join(f'{t:.3f}' for t in times)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
