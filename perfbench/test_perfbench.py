"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        (from the repository root)

They spawn real child runs, so they take a few seconds each.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads

ROOT = os.path.dirname(run.HERE)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _child(workload: str, seed: int, traced: bool, tmp: str):
    os.makedirs(tmp)
    specs = workloads.commands(workload, seed, tmp)
    result_path = os.path.join(tmp, "result.json")
    res, err = run.spawn(result_path, [workload, str(seed), tmp, "1" if traced else "0"], 120)
    assert res is not None, err
    spans = tr.load(result_path + ".spans") if traced else None
    return workloads.collect(specs, res["commands"], tmp), res, spans


@pytest.fixture(scope="module")
def sets_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("sets")
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        plain = _child("sets", 5, False, str(base / "plain"))
        traced = _child("sets", 5, True, str(base / "traced"))
    finally:
        os.chdir(cwd)
    return plain, traced


def test_traced_outputs_identical_to_untraced(sets_runs):
    (plain_out, _, _), (traced_out, _, _) = sets_runs
    assert traced_out == plain_out
    expected = workloads.load_golden("sets")[workloads.case_key("sets", 5)]
    assert workloads.mismatches(plain_out, expected) == []


def test_spans_nest_and_self_times_sum_to_traced_wall(sets_runs):
    _, (_, res, spans) = sets_runs
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[1] is None]
    assert [s[2] for s in roots] == ["cli.main"] * 3
    for sid, parent, _, start, end, run_id, _ in spans:
        assert start <= end
        if parent is not None:
            p = by_id[parent]
            assert p[3] <= start and end <= p[4] and p[5] == run_id
    self_ns = tr.self_times(spans)
    assert all(v >= 0 for v in self_ns.values())
    assert sum(self_ns.values()) == sum(s[4] - s[3] for s in roots)
    assert abs(sum(self_ns.values()) - res["wall_ns"]) <= 0.01 * res["wall_ns"]
    names = {s[2] for s in spans}
    assert {"apcount.apk_mean_zn", "spectra.dft", "core.save_signal", "core.load_signal",
            "constructions.sample_indicator", "report.run_demo_quadratic"} <= names


def test_layer_metrics_from_spans(sets_runs):
    _, (_, res, spans) = sets_runs
    m = run.layer_metrics(spans, res["wall_ns"] / 1e9)
    assert set(m) == set(run.PER_LAYER)
    # demo-quad: one k=3 and one k=4 call; count: one k=3 call, all at n = 20011
    assert m["apcount.apk_mean_zn.k3.calls"] == 2
    assert m["apcount.apk_mean_zn.exact.calls"] == 1
    assert m["apcount.pairs"] == 3 * 20011**2
    assert m["apcount.bytes_read_computed"] == (3 + 4 + 3) * 8 * 20011**2
    assert m["constructions.sample_indicator.draws"] == 20011
    layer_self = sum(m[f"{layer}.self_s"] for layer in tr.LAYERS if layer != "cli")
    assert layer_self + m["cli.main.self_s"] == pytest.approx(
        m["trace.wall_s"] * (1 - m["trace.unaccounted_frac"]))


def test_wrong_expected_output_makes_runs_fail():
    expected = copy.deepcopy(workloads.load_golden("search")["all"])
    expected[0]["json"]["min"] += 1
    runs, setups = run.measure("search", 0, 0.0, False, expected)
    summary = run.summarize(runs, setups, False)
    assert summary["failed"] == summary["attempted"] >= run.MIN_RUNS
    assert summary["metrics"]["ok_frac"]["value"] == 0.0
    assert not summary["correct"]
    assert all("command 0: json differs" in r["problems"] for r in runs)


def test_same_tolerates_float_noise_only():
    assert workloads.same({"a": [1.0, "k=3 mean: 0.125"]}, {"a": [1.0 + 1e-12, "k=3 mean: 0.125"]})
    assert not workloads.same(1, 1.0)
    assert not workloads.same(True, 1)
    assert not workloads.same({"a": 0.5}, {"a": 0.5001})
    assert not workloads.same("exact numerator: 5 / 9", "exact numerator: 6 / 9")
    assert workloads.same(float("nan"), float("nan"))


def test_goldens_cover_every_input_seed():
    for workload in workloads.WORKLOADS:
        golden = workloads.load_golden(workload)
        keys = {workloads.case_key(workload, s) for s in range(workloads.INPUT_SEEDS)}
        assert set(golden) == keys
        for outputs in golden.values():
            assert all(o["rc"] == 0 for o in outputs)


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(workloads.WHY.items())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
