"""The four benchmark workloads, their recorded outputs and the output check.

A workload is a fixed list of ``ap4kit`` command lines run one after another
in one fresh interpreter (one client, closed loop).  ``INPUT_SEEDS`` input
seeds exist per seeded workload: the benchmark seed picks one of them
(``seed % INPUT_SEEDS``), and ``golden/<workload>.json`` holds the outputs the
recorded commit gave for each, written by ``record.py``.

Outputs are compared structurally: integers, strings, booleans and nulls
must be equal, floats may differ by ``REL_TOL`` relative or ``ABS_TOL``
absolute (the float kernels are allowed to move by a few ulps), and report
``runtime_ms`` fields are dropped before the comparison.
"""

from __future__ import annotations

import json
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

INPUT_SEEDS = 16
REL_TOL = 1e-9
ABS_TOL = 1e-12
TMP = "<tmp>"

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "verify": "full pipeline at n=10007; every layer runs; 19 kernel calls, 16 of them with a constant input",
    "scaling": "self-products of F and G at n=10007,20011,40009; no constant input, working set crosses L2",
    "sets": "quadratic level set k=3/k=4, sampled set A written, read back and counted with exact k=3",
    "search": "pure-Python Gray-code and backtracking sweeps; no numpy kernel, so kernel work should not move it",
}
WORKLOADS = tuple(WHY)
# Workloads whose commands take the input seed; the others run the same inputs every time.
SEEDED = {"verify": True, "scaling": False, "sets": True, "search": False}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def commands(workload: str, seed: int, tmp: str) -> list[dict]:
    """Command specs for one run: argv plus the outputs the check reads.

    ``report`` and ``json`` name files the command writes; ``stdout`` asks
    for the captured standard output.  Every command's exit code is checked.
    """
    s = str(input_seed(seed))

    def out(name: str) -> str:
        return os.path.join(tmp, name)

    if workload == "verify":
        return [
            {"argv": ["verify", "--n", "10007", "--seed", s, "--trials", "20",
                      "--out", out("verify.json")], "report": out("verify.json")},
        ]
    if workload == "scaling":
        return [
            {"argv": ["scaling", "--n-list", "10007,20011,40009", "--out", out("scaling.json")],
             "report": out("scaling.json")},
        ]
    if workload == "sets":
        return [
            {"argv": ["demo-quad", "--n", "20011", "--c", "0.05", "--out", out("quad.json")],
             "report": out("quad.json")},
            {"argv": ["build", "--construction", "A", "--n", "20011", "--seed", s,
                      "--out", out("A.json")]},
            {"argv": ["count", "--file", out("A.json"), "--k", "3"], "stdout": True},
        ]
    if workload == "search":
        return [
            {"argv": ["search", "pm1", "--n", "20", "--out", out("pm1.json")], "json": out("pm1.json")},
            {"argv": ["search", "ternary", "--n", "12", "--out", out("ternary.json")],
             "json": out("ternary.json")},
            {"argv": ["search", "grid", "--out", out("grid.json")], "json": out("grid.json")},
        ]
    raise ValueError(f"unknown workload {workload!r}")



def case_key(workload: str, seed: int) -> str:
    return str(input_seed(seed)) if SEEDED[workload] else "all"


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _strip_runtime(report):
    if isinstance(report, dict) and isinstance(report.get("checks"), list):
        report = dict(report)
        report["checks"] = [
            {k: v for k, v in c.items() if k != "runtime_ms"} if isinstance(c, dict) else c
            for c in report["checks"]
        ]
    return report


def collect(specs: list[dict], results: list[dict], tmp: str) -> list[dict]:
    """The checked outputs of one run, with temporary paths made relative."""
    outputs = []
    for spec, res in zip(specs, results):
        item = {"rc": res["rc"]}
        try:
            if "report" in spec:
                item["report"] = _strip_runtime(_read_json(spec["report"]))
            if "json" in spec:
                item["json"] = _read_json(spec["json"])
        except (OSError, ValueError) as exc:
            item["missing"] = f"{type(exc).__name__}: {exc}"
        if spec.get("stdout"):
            item["stdout"] = res["stdout"].replace(tmp, TMP)
        outputs.append(item)
    return outputs


def load_golden(workload: str) -> dict:
    return _read_json(os.path.join(GOLDEN_DIR, f"{workload}.json"))


_NUM = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^[-+]?(nan|inf)$")


def _token(tok: str):
    if _NUM.match(tok):
        return int(tok) if tok.lstrip("+-").isdigit() else float(tok)
    return tok


def same(a, b) -> bool:
    """Structural equality with a float tolerance; text is compared token by token."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, str):
        ta, tb = [_token(t) for t in a.split()], [_token(t) for t in b.split()]
        return len(ta) == len(tb) and all(
            x == y if isinstance(x, str) else same(x, y) for x, y in zip(ta, tb))
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def mismatches(outputs: list[dict], expected: list[dict]) -> list[str]:
    """Human-readable differences between a run's outputs and the recorded ones."""
    if len(outputs) != len(expected):
        return [f"{len(outputs)} commands ran, {len(expected)} expected"]
    bad = []
    for i, (got, want) in enumerate(zip(outputs, expected)):
        for key in sorted(set(got) | set(want)):
            if not same(got.get(key), want.get(key)):
                bad.append(f"command {i}: {key} differs")
    return bad
