"""One round of a workload: every CLI invocation of the round, run in this
process through `orthocount.cli.main`.

usage: python3 perfbench/worker.py PLAN.json RESULT.json

PLAN holds the checkout root, the argv of each invocation and the tracing
flags.  RESULT receives the time to import `orthocount.cli`, each
invocation's exit code, standard output, standard error and wall time,
and this process's peak resident memory.  With tracing on, the spans go to
the file the plan names.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["root"]) / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    from orthocount import cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 1

    recorder = None
    if plan["trace"]:
        import tracing

        recorder = tracing.Recorder(memory=plan["memory"])
        recorder.install()

    ops = []
    for argv in plan["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            err.write(traceback.format_exc())
            code = -1
        seconds = time.perf_counter() - start
        ops.append({"code": code, "seconds": seconds, "stdout": out.getvalue(),
                    "stderr": err.getvalue()})

    result = {
        "import_s": import_s,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        recorder.write(Path(plan["spans"]))
        result["span_cost_s"] = tracing.span_cost()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
