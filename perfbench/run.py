"""ap4kit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run of a workload is a fresh child
interpreter that imports ``ap4kit.cli`` from ``src/`` and executes the
workload's commands through ``ap4kit.cli.main`` one at a time (one client,
closed loop), with BLAS/OpenMP threads pinned to 1.  Runs repeat until the
next one would end after S seconds; every run's outputs are checked against
the recorded ones in ``golden/``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median command wall time, median set-up time (spawn to ``import ap4kit.cli``
done, from extra set-up-only children as well), median peak RSS, and the
share of runs whose outputs were correct.  With ``--trace 1`` runs alternate
between untraced and traced (``tracer.py``), and the last line reports the
per-layer metrics of the traced runs (medians) plus the tracing overhead.
The full record, with machine details and per-run data, is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import tracer as tr
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench_out"
SETUP_REPS = 9
MIN_RUNS = 2
TIME_LIMIT_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}

# Inclusive time of these functions (outermost call when nested), as "<name>.s".
TIMED = (
    "apcount.ap4_sum_z",
    "spectra.dft",
    "spectra.quadratic_phase_signal",
    "spectra.modulated_interval_uniformity_check",
    "constructions.sample_indicator",
    "constructions.quadratic_level_set",
    "constructions.freiman_check",
    "constructions.grid_ap4_sum",
    "core.signal_stats",
    "core.save_signal",
    "core.load_signal",
    "search.min_ap4_pm1",
    "search.min_ap4_ternary",
    "search.search_grid_designs",
    "report.save_report",
)
BUILDERS = ("build_interval_signal", "build_modulated_signal", "build_probability_signal")
APK_PATHS = ("exact", "float", "k3")
STAGES = (
    "grid_design_valid", "grid_line_census", "freiman_embedding", "lift_ap4_sum",
    "interval_signal_ap4", "interval_signal_mean", "quadratic_phase_flatness",
    "modulated_interval_uniformity", "modulated_signal_spectrum", "pattern_classification",
    "modulated_vs_interval_mean", "probability_signal", "product_expansion_16_terms",
    "sampling_concentration",
    "scaling_measurements.n10007", "scaling_measurements.n20011", "scaling_measurements.n40009",
    "scaling_ratio.n10007-n20011", "scaling_ratio.n20011-n40009",
    "level_set_density", "level_set_uniformity", "threeap_vs_cube", "fourap_excess",
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for path in APK_PATHS:
        units[f"apcount.apk_mean_zn.{path}.calls"] = "count"
        units[f"apcount.apk_mean_zn.{path}.s"] = "s"
    units.update({
        "apcount.pairs": "count",
        "apcount.pairs_per_s": "1/s",
        "apcount.bytes_read_computed": "bytes",
        "apcount.const_input_pairs_frac": "fraction",
        "spectra.dft.calls": "count",
        "constructions.build_signal.s": "s",
        "constructions.sample_indicator.calls": "count",
        "constructions.sample_indicator.draws": "count",
        "search.min_ap4_pm1.nodes_per_s": "1/s",
        "search.min_ap4_ternary.nodes_per_s": "1/s",
        "search.nodes": "count",
    })
    units.update({f"{name}.s": "s" for name in TIMED})
    units.update({f"{layer}.self_s": "s" for layer in tr.LAYERS if layer != "cli"})
    units["cli.main.self_s"] = "s"
    units.update({f"report.stage.{stage}.s": "s" for stage in STAGES})
    units.update({"trace.overhead_frac": "fraction", "trace.wall_s": "s",
                  "trace.unaccounted_frac": "fraction"})
    return units


PER_LAYER = _per_layer_units()


def _stage_name(check: str) -> str:
    return check.replace("->", "-n").replace("@", ".n")


def layer_metrics(spans: list[tuple], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced run, from its spans."""
    by_id = {s[0]: s for s in spans}
    selfs = tr.self_times(spans)

    def outermost(names) -> list[tuple]:
        names = set(names)
        picked = []
        for s in spans:
            if s[2] not in names:
                continue
            parent = s[1]
            while parent is not None and by_id[parent][2] not in names:
                parent = by_id[parent][1]
            if parent is None:
                picked.append(s)
        return picked

    def seconds(group) -> float:
        return sum(s[4] - s[3] for s in group) / 1e9

    m = {name: 0.0 for name in PER_LAYER}
    for name in TIMED:
        m[f"{name}.s"] = seconds(outermost([name]))
    m["constructions.build_signal.s"] = seconds(
        outermost([f"constructions.{b}" for b in BUILDERS]))
    apk = [s for s in spans if s[2] == "apcount.apk_mean_zn"]
    for path in APK_PATHS:
        group = [s for s in apk if s[6]["path"] == path]
        m[f"apcount.apk_mean_zn.{path}.calls"] = len(group)
        m[f"apcount.apk_mean_zn.{path}.s"] = seconds(group)
    pairs = sum(s[6]["pairs"] for s in apk)
    m["apcount.pairs"] = pairs
    m["apcount.bytes_read_computed"] = sum(s[6]["k"] * 8 * s[6]["pairs"] for s in apk)
    if pairs:
        m["apcount.pairs_per_s"] = pairs / seconds(apk)
        m["apcount.const_input_pairs_frac"] = (
            sum(s[6]["pairs"] for s in apk if s[6]["const_input"]) / pairs)
    m["spectra.dft.calls"] = sum(1 for s in spans if s[2] == "spectra.dft")
    draws = [s for s in spans if s[2] == "constructions.sample_indicator"]
    m["constructions.sample_indicator.calls"] = len(draws)
    m["constructions.sample_indicator.draws"] = sum(s[6]["draws"] for s in draws)
    for space in ("pm1", "ternary"):
        group = [s for s in spans if s[2] == f"search.min_ap4_{space}" and s[6]]
        nodes = sum(s[6]["nodes"] for s in group)
        m["search.nodes"] += nodes
        if group:
            m[f"search.min_ap4_{space}.nodes_per_s"] = nodes / seconds(group)
    for sid, ns in selfs.items():
        name = by_id[sid][2]
        key = "cli.main.self_s" if name == "cli.main" else f"{name.split('.')[0]}.self_s"
        if key in m:
            m[key] += ns / 1e9
    m["trace.wall_s"] = wall_s
    m["trace.unaccounted_frac"] = (wall_s - sum(selfs.values()) / 1e9) / wall_s
    return m


def _stage_seconds(specs: list[dict]) -> dict[str, float]:
    out = {}
    for spec in specs:
        if "report" in spec:
            with open(spec["report"], "r", encoding="utf-8") as fh:
                for check in json.load(fh)["checks"]:
                    key = f"report.stage.{_stage_name(check['name'])}.s"
                    if key in PER_LAYER:
                        out[key] = check["runtime_ms"] / 1000.0
    return out


def spawn(result_path: str, args: list[str], timeout: float) -> tuple[dict | None, str | None]:
    """Start one child, wait for it, and return its result record or an error."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, CHILD, str(spawn_ns), result_path, *args],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "child timed out"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}"
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh), None


class Bench:
    """One benchmark invocation: its work directory, time budget and runs."""

    def __init__(self, workload: str, seed: int, expected: list[dict], work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.work = work
        self.started = time.monotonic()
        self.count = 0

    def _timeout(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.started)

    def setup_only(self) -> float:
        self.count += 1
        res, err = spawn(os.path.join(self.work, f"setup{self.count}.json"), [], self._timeout())
        if res is None:
            raise RuntimeError(err)
        return res["setup_ns"] / 1e9

    def run(self, traced: bool) -> dict:
        """One workload run in a fresh child; its timings, outputs check and spans."""
        self.count += 1
        tmp = os.path.join(self.work, f"run{self.count}")
        os.makedirs(tmp)
        specs = workloads.commands(self.workload, self.seed, tmp)
        result_path = os.path.join(self.work, f"run{self.count}.json")
        res, err = spawn(result_path,
                          [self.workload, str(self.seed), tmp, "1" if traced else "0"],
                          self._timeout())
        if res is None:
            return {"traced": traced, "ok": False, "problems": [err]}
        problems = [f"command {i}: {c['error']}" for i, c in enumerate(res["commands"]) if c["error"]]
        problems += workloads.mismatches(
            workloads.collect(specs, res["commands"], tmp), self.expected)
        run = {
            "traced": traced,
            "ok": not problems,
            "problems": problems,
            "wall_s": res["wall_ns"] / 1e9,
            "setup_s": res["setup_ns"] / 1e9,
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
            "commands": [{"argv": s["argv"], "rc": c["rc"], "wall_s": c["wall_ns"] / 1e9}
                         for s, c in zip(specs, res["commands"])],
        }
        if traced:
            spans = tr.load(result_path + ".spans")
            run["layers"] = layer_metrics(spans, run["wall_s"])
            if run["ok"]:
                run["layers"].update(_stage_seconds(specs))
            os.replace(result_path + ".spans",
                       os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.json"))
        return run


def measure(
    workload: str, seed: int, seconds: float, trace: bool, expected: list[dict]
) -> tuple[list[dict], list[float]]:
    """Set-up probes, then closed-loop runs until the next would pass the deadline."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        bench = Bench(workload, seed, expected, work)
        bench.setup_only()  # warm the file cache and byte-code cache; not reported
        setups = [bench.setup_only() for _ in range(SETUP_REPS)]
        runs, durations = [], []
        deadline = time.monotonic() + seconds
        while True:
            t0 = time.monotonic()
            runs.append(bench.run(traced=trace and len(runs) % 2 == 1))
            durations.append(time.monotonic() - t0)
            if "wall_s" not in runs[-1]:
                break  # the child itself failed; more runs would repeat it
            next_end = time.monotonic() + max(durations)
            if next_end > bench.started + TIME_LIMIT_S:
                break  # another run would not finish within the time limit
            if len(runs) >= MIN_RUNS and next_end > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return runs, setups


def summarize(runs: list[dict], setups: list[float], trace: bool) -> dict:
    timed = [r for r in runs if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    failed = sum(1 for r in runs if not r["ok"])
    metrics: dict[str, dict] = {}
    if not trace and plain:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in timed]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": (len(runs) - failed) / len(runs),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    traced = [r for r in timed if r["traced"]]
    if trace and traced and plain:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER}
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def _lscpu() -> dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    return {k.strip(): v.strip() for k, _, v in (line.partition(":") for line in out.splitlines())}


def _git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_record(workload: str, seed: int) -> dict:
    cpu = _lscpu()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "input_seed": workloads.input_seed(seed),
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "thread_env": THREAD_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ap4kit", "cli.py")):
        print("error: run from the repository root; src/ap4kit is missing", file=sys.stderr)
        return 2
    golden = workloads.load_golden(args.workload)
    expected = golden[workloads.case_key(args.workload, args.seed)]
    runs, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    result = summarize(runs, setups, bool(args.trace))
    record = {"machine": machine_record(args.workload, args.seed), **result,
              "setups_s": setups, "runs": runs}
    for r in runs:
        for problem in r["problems"]:
            print(f"output check failed: {problem}", file=sys.stderr)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("machine: " + json.dumps(record["machine"]))
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
