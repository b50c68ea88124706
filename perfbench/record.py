"""Record the expected outputs that run.py checks every run against.

    python3 perfbench/record.py

Run from the repository root at the commit whose outputs are the reference.
For each workload and each input seed it runs the commands
once, untraced, and writes ``perfbench/golden/<workload>.json``.  A command
that crashes or fails a check aborts the recording: the workloads are chosen
so that every command passes.
"""

from __future__ import annotations

import json
import os
import tempfile

import run
import workloads


def record(workload: str) -> dict:
    seeds = range(workloads.INPUT_SEEDS) if workloads.SEEDED[workload] else [0]
    golden = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            specs = workloads.commands(workload, seed, tmp)
            res, err = run.spawn(os.path.join(tmp, "result.json"),
                                 [workload, str(seed), tmp, "0"], 600)
            if res is None:
                raise SystemExit(f"{workload} seed {seed}: {err}")
            for spec, cmd in zip(specs, res["commands"]):
                if cmd["rc"] != 0:
                    raise SystemExit(f"{workload} seed {seed}: {spec['argv']} exited {cmd['rc']}\n"
                                     f"{cmd['stdout']}{cmd['stderr']}{cmd['error'] or ''}")
            golden[workloads.case_key(workload, seed)] = workloads.collect(
                specs, res["commands"], tmp)
        print(f"{workload} seed {seed}: recorded", flush=True)
    return golden


def main() -> None:
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        golden = record(workload)
        with open(os.path.join(workloads.GOLDEN_DIR, f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
