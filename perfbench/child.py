"""One benchmark run in a fresh interpreter.

    python3 perfbench/child.py SPAWN_NS RESULT [WORKLOAD SEED TMP TRACE]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started this
process; set-up time runs from then until ``import ap4kit.cli`` is done.  With
only two arguments the process measures set-up and exits.  Otherwise it runs
the workload's commands one after another through ``ap4kit.cli.main`` (with
the tracer installed when TRACE is 1) and writes a JSON result to RESULT.
"""

import sys
import time


def main() -> None:
    spawn_ns = int(sys.argv[1])
    import ap4kit.cli

    setup_ns = time.monotonic_ns() - spawn_ns

    import contextlib
    import io
    import json
    import resource
    import traceback

    result_path = sys.argv[2]
    result = {"setup_ns": setup_ns}
    if len(sys.argv) > 3:
        import workloads

        workload, seed, tmp, trace = sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6] == "1"
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        runs = []
        for i, spec in enumerate(workloads.commands(workload, seed, tmp)):
            if tracer:
                tracer.run = i
            out, err = io.StringIO(), io.StringIO()
            error = None
            start = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = ap4kit.cli.main(spec["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed run, recorded with its traceback
                rc = None
                error = traceback.format_exc()
            wall = time.perf_counter_ns() - start
            runs.append({"rc": rc, "wall_ns": wall, "stdout": out.getvalue(),
                         "stderr": err.getvalue(), "error": error})
        result["commands"] = runs
        result["wall_ns"] = sum(r["wall_ns"] for r in runs)
        if tracer:
            tracer.dump(result_path + ".spans")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
