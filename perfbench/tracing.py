"""Spans around the calls into orthocount's modules, recorded from outside
the program.

`Recorder.install` replaces every public module-level function of every
loaded orthocount module, in every orthocount namespace that refers to it,
with a wrapper that records one span: the layer (the module's short name),
the function, the enclosing span, start and end on `time.perf_counter`, and
the work counts the per-layer rates need.  Spans stay in memory until
`write` is called at the end of the round.

With `memory=True`, the calls named in MEMORY_SPANS also run under
tracemalloc and record the peak of the allocations made during the call.
tracemalloc slows allocation-heavy Python several times over, so a memory
round is never used for timing.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

MEMORY_SPANS = frozenset({
    "build_projective_graph", "build_affine_graph", "count_ordered_tuples",
    "verify_square_identity",
})
LAYERS = ("cli", "fields", "vectors", "graphs", "asymptotics", "counting", "spectral")


def _work(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    if name in ("build_projective_graph", "build_affine_graph"):
        return {"pairs": result.n**2}
    if name == "verify_square_identity":
        return {"macs": result.n**3}
    if name == "count_ordered_tuples":
        k = args[1] if len(args) > 1 else kwargs["k"]
        return {"cliques": result // math.factorial(k)}
    return None


class Recorder:
    def __init__(self, memory: bool = False):
        self.memory = memory
        # [layer, name, parent index, start, end, peak bytes, work]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            owns_tracemalloc = measure and not tracemalloc.is_tracing()
            if owns_tracemalloc:
                tracemalloc.start()
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if owns_tracemalloc:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span[6] = _work(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "orthocount" or key.startswith("orthocount.")
        ]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(layer, name, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for layer, name, parent, start, end, peak, work in self.spans:
                record = {"layer": layer, "name": name, "parent": parent,
                          "start": start, "end": end, "peak_bytes": peak, "work": work}
                fh.write(json.dumps(record) + "\n")


def span_cost(calls: int = 50_000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    traced = Recorder().wrap("calibration", "noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - bare, 0.0) / calls


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def summarize(spans: list[dict]) -> dict:
    """Self time (span minus its child spans) summed per layer and per
    function, work counts summed per function, and the largest memory peak
    per function."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    func_self: dict[str, float] = {}
    work: dict[str, dict[str, int]] = {}
    peak: dict[str, int] = {}
    for span, inner in zip(spans, child):
        own = span["end"] - span["start"] - inner
        layer_self[span["layer"]] = layer_self.get(span["layer"], 0.0) + own
        func_self[span["name"]] = func_self.get(span["name"], 0.0) + own
        for key, value in (span["work"] or {}).items():
            totals = work.setdefault(span["name"], {})
            totals[key] = totals.get(key, 0) + value
        if span["peak_bytes"] is not None:
            peak[span["name"]] = max(peak.get(span["name"], 0), span["peak_bytes"])
    return {"layer_self": layer_self, "func_self": func_self, "work": work, "peak": peak,
            "spans": len(spans)}
