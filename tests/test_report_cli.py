"""Pipeline reports, serialization, and the command-line interface."""

import contextlib
import functools
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ap4kit as k
from ap4kit import cli, report
from ap4kit.cli import main
from ap4kit.errors import IoFailureError, NotPrimeError

EXPECTED_VERIFY_CHECKS = [
    "grid_design_valid",
    "grid_line_census",
    "freiman_embedding",
    "lift_ap4_sum",
    "interval_signal_ap4",
    "interval_signal_mean",
    "quadratic_phase_flatness",
    "modulated_interval_uniformity",
    "modulated_signal_spectrum",
    "pattern_classification",
    "modulated_vs_interval_mean",
    "probability_signal",
    "product_expansion_16_terms",
    "sampling_concentration",
]


@pytest.fixture(scope="module")
def verify_6007():
    return k.run_verify(6007, seed=1, trials=3)


def _strip_runtime(obj):
    if isinstance(obj, dict):
        return {key: _strip_runtime(v) for key, v in obj.items() if key != "runtime_ms"}
    if isinstance(obj, list):
        return [_strip_runtime(v) for v in obj]
    return obj


class TestRunVerify:
    def test_all_checks_pass(self, verify_6007):
        assert [c.name for c in verify_6007.checks] == EXPECTED_VERIFY_CHECKS
        assert verify_6007.passed()
        assert not any(c.skipped for c in verify_6007.checks)

    def test_block_length_recorded(self, verify_6007):
        check = verify_6007.check("interval_signal_ap4")
        assert check.measured["t"] == 5
        assert check.measured["numerator"] == -72 * check.measured["p"]

    def test_spot_check_trials_recorded(self, verify_6007):
        assert verify_6007.check("quadratic_phase_flatness").measured["trials"] == 10
        assert verify_6007.check("modulated_interval_uniformity").measured["trials"] == 20

    def test_vacuous_flags(self, verify_6007):
        assert verify_6007.check("modulated_signal_spectrum").vacuous_at_this_n
        assert verify_6007.check("modulated_vs_interval_mean").vacuous_at_this_n
        assert not verify_6007.check("sampling_concentration").vacuous_at_this_n

    def test_deterministic_reports(self, verify_6007):
        again = k.run_verify(6007, seed=1, trials=3)
        a = _strip_runtime(verify_6007.to_dict())
        b = _strip_runtime(again.to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_sampling_only(self, verify_6007):
        other = k.run_verify(6007, seed=2, trials=3)
        assert other.passed()
        same = [
            c.name
            for c, d in zip(verify_6007.checks, other.checks)
            if json.dumps(_strip_runtime(c.to_dict()), sort_keys=True)
            == json.dumps(_strip_runtime(d.to_dict()), sort_keys=True)
        ]
        assert "lift_ap4_sum" in same
        assert "interval_signal_ap4" in same
        assert "sampling_concentration" not in same

    def test_composite_n_rejected(self):
        with pytest.raises(NotPrimeError):
            k.run_verify(9, seed=0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            k.run_verify(5003, seed=0)


class TestProductExpansion:
    def test_each_distinct_term_once(self, monkeypatch):
        # the sizes 0, 1 and 2, the two gap patterns of size 3, and P itself:
        # 6 calls, where one call per term, the lead term and P made 17.
        # Each stage of verify is one _measure call, in _VERIFY_STAGES order,
        # when one process runs them all.
        _cpus(monkeypatch, 1)
        stages, calls = [], []
        measure, mean = report._measure, report.apk_mean_zn

        def measure_spy(fn, *args):
            stages.append(report._VERIFY_STAGES[len(stages)][0])
            return measure(fn, *args)

        def mean_spy(signals):
            calls.append(stages[-1])
            return mean(signals)

        monkeypatch.setattr(report, "_measure", measure_spy)
        monkeypatch.setattr(report, "apk_mean_zn", mean_spy)
        assert k.run_verify(6007, seed=1, trials=1).passed()
        assert stages == EXPECTED_VERIFY_CHECKS
        assert calls.count("product_expansion_16_terms") == 6

    def test_matches_one_call_per_term(self, verify_6007):
        # the stage's earlier loop, one apk_mean_zn call per term, gives the
        # same floats bit for bit
        m = k.make_modulus(6007)
        g, ones = k.build_modulated_signal(m), k.constant_signal(m, 1)
        total = 0.0
        for size in range(4):
            for positions in itertools.combinations(range(4), size):
                sigs = [g if i in positions else ones for i in range(4)]
                total += 4.0 ** (4 - size) * k.apk_mean_zn(sigs).value
        total += k.apk_mean_zn([g] * 4).value
        total *= 2.0**-12
        lead_term = 2.0**-12 * 4.0**4 * k.apk_mean_zn([ones] * 4).value
        measured = verify_6007.check("product_expansion_16_terms").measured
        assert measured["expansion"] == total
        assert measured["lead_term_exact"] is (lead_term == 0.0625) is True
        direct = k.apk_mean_zn([k.build_probability_signal(m)] * 4).value
        assert measured["direct"] == direct
        assert measured["value"] == abs(total - direct)


SAMPLING_TRIALS = (1, 2, 3, 20)


@pytest.fixture(scope="module")
def sampling_runs():
    """run_verify(6007, seed 1) per trial count, with its np.fft.fft calls counted.

    It runs in one process, so the sampling stage's transforms are counted too.
    """
    runs = {}
    fft = np.fft.fft
    for trials in SAMPLING_TRIALS:
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return fft(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, 1)
            mp.setattr(np.fft, "fft", spy)
            report = k.run_verify(6007, seed=1, trials=trials)
        runs[trials] = (report.check("sampling_concentration").measured, len(calls))
    return runs


def _per_draw_sampling(n, seed, trials):
    """The sampling stage one draw per transform: densities and max |dft(A) - dft(P)|."""
    p_sig = k.build_probability_signal(k.make_modulus(n))
    sp_p = k.dft(p_sig)
    sub = k.RngStream(seed).child(2)
    densities, deviations = [], []
    for i in range(trials):
        sample = k.sample_indicator(p_sig, sub.child(i))
        densities.append(k.signal_stats(sample).mean)
        deviations.append(float(np.abs(k.dft(sample).coeffs - sp_p.coeffs).max()))
    return densities, deviations


class TestSamplingPairs:
    @pytest.mark.parametrize("trials", SAMPLING_TRIALS)
    def test_matches_per_draw_transforms(self, sampling_runs, trials):
        measured, _ = sampling_runs[trials]
        densities, deviations = _per_draw_sampling(6007, 1, trials)
        assert measured["densities"] == densities
        assert len(measured["max_deviations"]) == trials
        np.testing.assert_allclose(measured["max_deviations"], deviations, rtol=1e-12, atol=0)

    def test_densities_recorded_before_pairing(self, sampling_runs):
        # the one-transform-per-draw stage gave these at n = 6007, seed 1
        want = [0.505410354586316, 0.4967537872482104, 0.49908440153154654]
        assert sampling_runs[3][0]["densities"] == want
        assert sampling_runs[1][0]["densities"] == want[:1]

    @pytest.mark.parametrize("trials, ffts", [(1, 3), (2, 3), (3, 4), (20, 12)])
    def test_one_fft_per_pair_of_draws(self, sampling_runs, trials, ffts):
        # G and P, then one transform per two draws; the flatness phases take none
        assert sampling_runs[trials][1] == ffts == 2 + (trials + 1) // 2


class TestReportSerialization:
    def test_round_trip(self, verify_6007, tmp_path):
        path = tmp_path / "report.json"
        k.save_report(verify_6007, path)
        loaded = k.load_report(path)
        assert loaded.to_dict() == verify_6007.to_dict()
        assert loaded.passed()

    def test_unknown_field_rejected(self, verify_6007, tmp_path):
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        obj["surprise"] = 1
        path.write_text(json.dumps(obj))
        with pytest.raises(IoFailureError):
            k.load_report(path)

    def test_unknown_check_field_rejected(self, verify_6007, tmp_path):
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        obj["checks"][0]["surprise"] = 1
        path.write_text(json.dumps(obj))
        with pytest.raises(IoFailureError):
            k.load_report(path)

    def test_wrong_schema_version_rejected(self, verify_6007, tmp_path):
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        obj["schema_version"] = "2"
        path.write_text(json.dumps(obj))
        with pytest.raises(IoFailureError):
            k.load_report(path)

    @pytest.mark.parametrize(
        "malform",
        [
            lambda obj: obj.update(checks=5),
            lambda obj: obj.update(checks=None),
            lambda obj: obj.update(checks=["x"]),
            lambda obj: obj["checks"][0].pop("claim_ref"),
        ],
        ids=["checks-int", "checks-null", "check-not-dict", "check-missing"],
    )
    def test_malformed_checks_rejected(self, verify_6007, tmp_path, malform):
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        malform(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(IoFailureError):
            k.load_report(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("schema_version", 1),
            ("kind", None),
            ("modulus", "6007"),
            ("modulus", 6007.0),
            ("modulus", True),
            ("seed", 1.5),
            ("seed", False),
        ],
    )
    def test_wrongly_typed_report_field_rejected(self, verify_6007, tmp_path, field, value):
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        obj[field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(IoFailureError):
            k.load_report(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("passed", "no"),
            ("passed", 0),
            ("skipped", None),
            ("skipped", "false"),
            ("vacuous_at_this_n", 1),
            ("runtime_ms", True),
            ("runtime_ms", "1.5"),
            ("runtime_ms", None),
            ("bound", "1e-9"),
            ("bound", False),
            ("name", 5),
            ("claim_ref", None),
        ],
    )
    def test_wrongly_typed_check_field_rejected(self, verify_6007, tmp_path, field, value):
        # "passed": "no" loaded before, and passed() took the string as true
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        obj["checks"][-1][field] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(IoFailureError):
            k.load_report(path)

    def test_admitted_field_types_load(self, verify_6007, tmp_path):
        # integer runtimes and bounds are JSON numbers; passed and bound may be null
        path = tmp_path / "report.json"
        obj = verify_6007.to_dict()
        obj["checks"][0].update(runtime_ms=3, bound=1, passed=None, measured=[1, "x"])
        path.write_text(json.dumps(obj))
        check = k.load_report(path).checks[0]
        assert (check.runtime_ms, check.bound, check.passed) == (3, 1, None)

    def test_absent_check_is_key_error(self, verify_6007):
        with pytest.raises(KeyError):
            verify_6007.check("absent")

    def test_export_bad_path(self, verify_6007):
        with pytest.raises(IoFailureError):
            k.save_report(verify_6007, "/nonexistent-dir/report.json")


class TestRunScaling:
    def test_singleton(self):
        report = k.run_scaling([6007])
        assert report.kind == "scaling"
        assert report.passed()
        assert len(report.checks) == 1

    def test_pair(self):
        report = k.run_scaling([6007, 10007])
        assert report.passed()
        ratio_check = report.check("scaling_ratio@6007->10007")
        assert 0.1 <= ratio_check.measured["uniformity_ratio"] <= 10.0
        assert 0.1 <= ratio_check.measured["difference_ratio"] <= 10.0

    def test_composite_entry_rejected(self):
        with pytest.raises(NotPrimeError):
            k.run_scaling([6007, 10006])

    def test_failed_measurement_skips_the_ratios(self, monkeypatch):
        build = k.constructions.build_modulated_signal

        def crash_at_20011(m):
            if m.n == 20011:
                raise RuntimeError("no modulated signal")
            return build(m)

        monkeypatch.setattr(k.constructions, "build_modulated_signal", crash_at_20011)
        report = k.run_scaling([10007, 20011, 40009])
        assert [c.name for c in report.checks] == [
            "scaling_measurements@10007",
            "scaling_measurements@20011",
            "scaling_measurements@40009",
            "scaling_ratio@10007->20011",
            "scaling_ratio@20011->40009",
        ]
        first, failed, *rest = report.checks
        assert first.passed and not first.skipped
        assert failed.passed is False and not failed.skipped
        assert failed.measured == {"error": "RuntimeError: no modulated signal"}
        assert all(c.skipped and c.passed is None for c in rest)
        assert not report.passed()


_SERIES = [10007, 20011, 40009]


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _allocate_too_much(m):
    """A real numpy allocation failure: 4 EiB, refused at once, nothing allocated."""
    np.empty(1 << 62, dtype=np.uint8)


_TOO_MUCH = "error: out of memory: Unable to allocate 4.00 EiB for an array with shape"


def _crash_at(monkeypatch, exc_at):
    """Make build_modulated_signal raise exc_at[n] at each modulus n it names."""
    build = k.constructions.build_modulated_signal

    def crashing(m):
        if m.n in exc_at:
            raise exc_at[m.n]
        return build(m)

    monkeypatch.setattr(k.constructions, "build_modulated_signal", crashing)


def _exit_in_worker_before_writing(monkeypatch):
    """Make every worker leave through os._exit(3) before it writes its outcomes."""
    parent, dump = os.getpid(), pickle.dump

    def exit_before_writing(obj, file):
        if os.getpid() != parent:
            os._exit(3)
        dump(obj, file)

    monkeypatch.setattr(pickle, "dump", exit_before_writing)


class _Forking:
    """Every test leaves no child process and no open file behind, and
    ``forks`` counts the calls of os.fork."""

    @pytest.fixture(autouse=True)
    def _no_leftovers(self):
        fds = len(os.listdir("/proc/self/fd"))
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        fork = os.fork

        def counting_fork():
            calls.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls


class TestScalingWorkers(_Forking):
    """run_scaling split across forked workers against the same run in one process.

    With two CPUs the parent measures 40009 and one worker 10007 and 20011.
    """

    @staticmethod
    def _sequential(monkeypatch):
        with monkeypatch.context() as mp:
            _cpus(mp, 1)
            return _strip_runtime(k.run_scaling(_SERIES).to_dict())

    @pytest.mark.parametrize("cpus, workers", [(2, 1), (3, 2), (8, 2)])
    def test_same_report_as_one_process(self, monkeypatch, forks, cpus, workers):
        sequential = self._sequential(monkeypatch)
        assert forks == []
        _cpus(monkeypatch, cpus)
        assert _strip_runtime(k.run_scaling(_SERIES).to_dict()) == sequential
        assert len(forks) == workers

    @pytest.mark.parametrize(
        "sizes, cpus, here",
        [
            ([10007, 20011, 40009], 2, [False, False, True]),
            ([10007, 20011, 40009], 3, [False, False, True]),
            ([5, 4, 3, 3], 2, [True, False, False, True]),  # 5 | 4, 3 | 5 + 3
            ([3, 3, 3], 2, [True, False, True]),  # ties go to the first share
        ],
    )
    def test_shares_balanced_largest_first(self, monkeypatch, forks, sizes, cpus, here):
        _cpus(monkeypatch, cpus)
        parent = os.getpid()

        def results(size):
            yield size, os.getpid() == parent

        parts = [(1, functools.partial(results, size)) for size in sizes]
        outcomes = report._outcomes_across_processes(parts, sizes)
        assert [o.result for o in outcomes] == list(zip(sizes, here))
        assert len(forks) == cpus - 1

    def test_one_modulus_forks_nothing(self, monkeypatch, forks):
        _cpus(monkeypatch, 2)
        assert k.run_scaling([10007]).passed()
        assert forks == []

    @pytest.mark.parametrize("failing", _SERIES)
    def test_failure_recorded_as_in_one_process(self, monkeypatch, forks, failing):
        _crash_at(monkeypatch, {failing: RuntimeError("no modulated signal")})
        sequential = self._sequential(monkeypatch)
        _cpus(monkeypatch, 2)
        got = k.run_scaling(_SERIES)
        assert len(forks) == 1
        assert _strip_runtime(got.to_dict()) == sequential
        failed = got.check(f"scaling_measurements@{failing}")
        assert failed.measured == {"error": "RuntimeError: no modulated signal"}
        later = got.checks[_SERIES.index(failing) + 1 :]
        assert later and all(c.skipped and c.passed is None for c in later)

    def test_worker_memory_error_exits_2(self, monkeypatch, capsys, forks):
        _cpus(monkeypatch, 2)
        _crash_at(monkeypatch, {20011: MemoryError("Unable to allocate 16.0 GiB")})
        assert main(["scaling", "--n-list", "10007,20011,40009"]) == 2
        assert len(forks) == 1
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert captured.err == "error: out of memory: Unable to allocate 16.0 GiB\n"

    def test_worker_numpy_allocation_failure_exits_2(self, monkeypatch, capsys, forks):
        # 20011 is measured in the worker
        _cpus(monkeypatch, 2)
        build = k.constructions.build_modulated_signal
        monkeypatch.setattr(
            k.constructions,
            "build_modulated_signal",
            lambda m: _allocate_too_much(m) if m.n == 20011 else build(m),
        )
        assert main(["scaling", "--n-list", "10007,20011,40009"]) == 2
        assert len(forks) == 1
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert captured.err.startswith(_TOO_MUCH)

    def test_memory_error_after_a_failure_is_skipped(self, monkeypatch, capsys, forks):
        # in order, 10007 fails first, so 40009 is never measured: exit 1, as in one process
        _cpus(monkeypatch, 2)
        _crash_at(
            monkeypatch, {10007: RuntimeError("no modulated signal"), 40009: MemoryError("x")}
        )
        assert main(["scaling", "--n-list", "10007,20011,40009"]) == 1
        assert len(forks) == 1
        assert "[FAIL] scaling_measurements@10007" in capsys.readouterr().out

    def test_worker_without_a_result_is_recomputed(self, monkeypatch, forks):
        sequential = self._sequential(monkeypatch)
        _exit_in_worker_before_writing(monkeypatch)
        _cpus(monkeypatch, 2)
        assert _strip_runtime(k.run_scaling(_SERIES).to_dict()) == sequential
        assert len(forks) == 1

    def test_failed_fork_is_computed_here(self, monkeypatch):
        sequential = self._sequential(monkeypatch)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        _cpus(monkeypatch, 2)
        assert _strip_runtime(k.run_scaling(_SERIES).to_dict()) == sequential

    def test_failed_pipe_is_computed_here(self, monkeypatch, capsys, forks):
        # out of file descriptors: the share is measured here, as after a failed fork,
        # and the command still exits 0
        sequential = self._sequential(monkeypatch)

        def no_pipe():
            raise OSError(24, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        _cpus(monkeypatch, 2)
        assert _strip_runtime(k.run_scaling(_SERIES).to_dict()) == sequential
        assert main(["scaling", "--n-list", "10007,20011,40009"]) == 0
        assert "[PASS] scaling_ratio@20011->40009" in capsys.readouterr().out
        assert forks == []

    def test_interrupted_parent_kills_its_workers(self, monkeypatch, forks):
        class Interrupt(BaseException):
            pass

        parent = os.getpid()

        def stall_worker_interrupt_parent(m):
            if os.getpid() != parent:
                time.sleep(60)
            raise Interrupt

        monkeypatch.setattr(
            k.constructions, "build_modulated_signal", stall_worker_interrupt_parent
        )
        _cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            k.run_scaling(_SERIES)
        assert time.monotonic() - start < 30
        assert len(forks) == 1


class TestVerifyWorkers(_Forking):
    """run_verify with its sampling stage in a forked worker against the same
    run in one process.

    With two CPUs the parent runs the chain, the rows before the last, and
    one worker the sampling stage.
    """

    _ARGV = ["verify", "--n", "6007", "--seed", "1", "--trials", "3"]

    @staticmethod
    def _sequential(monkeypatch, seed=1, trials=3):
        with monkeypatch.context() as mp:
            _cpus(mp, 1)
            return _strip_runtime(k.run_verify(6007, seed, trials).to_dict())

    @pytest.fixture
    def failing_freiman_check(self, monkeypatch):
        def crash():
            raise RuntimeError("no embedding")

        monkeypatch.setattr(k.constructions, "freiman_check", crash)

    @pytest.mark.parametrize("trials", [1, 3, 20])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_report_as_one_process(self, monkeypatch, forks, seed, trials):
        sequential = self._sequential(monkeypatch, seed, trials)
        assert forks == []
        _cpus(monkeypatch, 2)
        assert _strip_runtime(k.run_verify(6007, seed, trials).to_dict()) == sequential
        assert len(forks) == 1

    def test_failed_chain_stage_recorded_as_in_one_process(
        self, monkeypatch, forks, failing_freiman_check
    ):
        sequential = self._sequential(monkeypatch)
        _cpus(monkeypatch, 2)
        got = k.run_verify(6007, 1, 3)
        assert len(forks) == 1
        assert _strip_runtime(got.to_dict()) == sequential
        failed = got.check("freiman_embedding")
        assert failed.measured == {"error": "RuntimeError: no embedding"}
        assert all(c.skipped for c in got.checks[3:])

    def test_failed_worker_stage_recorded_as_in_one_process(self, monkeypatch, forks):
        def crash(probs, rng):
            raise RuntimeError("no draw")

        monkeypatch.setattr(k.constructions, "sample_indicator", crash)
        sequential = self._sequential(monkeypatch)
        _cpus(monkeypatch, 2)
        got = k.run_verify(6007, 1, 3)
        assert len(forks) == 1
        assert _strip_runtime(got.to_dict()) == sequential
        assert got.checks[-1].measured == {"error": "RuntimeError: no draw"}
        assert all(c.passed for c in got.checks[:-1])

    def test_worker_numpy_allocation_failure_exits_2(self, monkeypatch, capsys, forks):
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(
            k.constructions, "sample_indicator", lambda probs, rng: _allocate_too_much(probs)
        )
        assert main(self._ARGV) == 2
        assert len(forks) == 1
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert captured.err.startswith(_TOO_MUCH)

    def test_worker_memory_error_after_a_failed_chain_stage_is_skipped(
        self, monkeypatch, capsys, forks, failing_freiman_check, tmp_path
    ):
        # in order, the chain fails first, so the sampling stage is never read: exit 1
        monkeypatch.setattr(
            k.constructions, "sample_indicator", lambda probs, rng: _allocate_too_much(probs)
        )
        sequential = self._sequential(monkeypatch)
        _cpus(monkeypatch, 2)
        out = tmp_path / "verify.json"
        assert main(self._ARGV + ["--out", str(out)]) == 1
        assert len(forks) == 1
        assert "[FAIL] freiman_embedding" in capsys.readouterr().out
        assert _strip_runtime(k.load_report(out).to_dict()) == sequential

    def test_worker_without_a_result_is_recomputed(self, monkeypatch, forks):
        sequential = self._sequential(monkeypatch)
        _exit_in_worker_before_writing(monkeypatch)
        _cpus(monkeypatch, 2)
        assert _strip_runtime(k.run_verify(6007, 1, 3).to_dict()) == sequential
        assert len(forks) == 1

    def test_interrupted_parent_kills_its_worker(self, monkeypatch, forks):
        class Interrupt(BaseException):
            pass

        def stall(probs, rng):
            time.sleep(60)

        def interrupt():
            raise Interrupt

        monkeypatch.setattr(k.constructions, "sample_indicator", stall)
        monkeypatch.setattr(k.constructions, "freiman_check", interrupt)
        _cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(Interrupt):
            k.run_verify(6007, 1, 3)
        assert time.monotonic() - start < 30
        assert len(forks) == 1

    def test_parts_concatenate_in_part_order_and_end_at_a_failure(self, monkeypatch, forks):
        # the worker takes the third part and then the second; each part stops
        # at its first failure
        parent = os.getpid()

        def results(tag, fail_at):
            for i in range(3):
                if i == fail_at:
                    raise RuntimeError(f"{tag}{i}")
                yield tag, i, os.getpid() == parent

        parts = [
            (3, functools.partial(results, "a", 1)),
            (2, functools.partial(results, "b", None)),
            (3, functools.partial(results, "c", 2)),
        ]
        _cpus(monkeypatch, 2)
        outcomes = report._outcomes_across_processes(parts, [5, 2, 3])
        assert len(forks) == 1
        assert [o.result for o in outcomes] == [
            ("a", 0, True), None, ("b", 0, False), ("b", 1, False), ("c", 0, False),
            ("c", 1, False), None,
        ]
        assert [o.error for o in outcomes if o.error] == [
            ("RuntimeError", "a1"), ("RuntimeError", "c2")
        ]


class TestRunDemo:
    def test_small_density_excess(self):
        report = k.run_demo_quadratic(10007, 0.05)
        assert report.passed()
        assert report.check("fourap_excess").measured["value"] >= 1.1
        assert report.check("threeap_vs_cube").measured["value"] <= 0.2

    def test_middle_density_band(self):
        # 0.1 < c < 0.2 asks only that the 4-AP mean stays above 0.9 density^4
        check = k.run_demo_quadratic(10007, 0.15).check("fourap_excess")
        assert check.passed == (check.measured["value"] >= 0.9)
        assert check.passed

    def test_near_half_density_is_random_like(self):
        report = k.run_demo_quadratic(10007, 0.24)
        assert report.passed()
        density = report.check("level_set_density").measured["density"]
        assert density == pytest.approx(0.48, abs=0.01)
        assert abs(report.check("fourap_excess").measured["value"] - 1.0) <= 0.1
        assert report.check("threeap_vs_cube").measured["value"] <= 0.1


class TestStageCrash:
    """A stage raising a non-package exception fails that stage; the report survives."""

    @pytest.fixture
    def crashing_level_set(self, monkeypatch):
        def crash(m, c):
            raise RuntimeError("level set unavailable")

        monkeypatch.setattr(k.constructions, "quadratic_level_set", crash)

    def _assert_failed_first_stage(self, report):
        first, *rest = report.checks
        assert first.name == "level_set_density"
        assert first.passed is False and not first.skipped
        assert first.measured == {"error": "RuntimeError: level set unavailable"}
        names = ["level_set_uniformity", "threeap_vs_cube", "fourap_excess"]
        assert [c.name for c in rest] == names
        assert all(c.skipped and c.passed is None for c in rest)
        assert not report.passed()

    def test_report_records_error(self, crashing_level_set):
        self._assert_failed_first_stage(k.run_demo_quadratic(101, 0.05))

    def test_cli_writes_report_and_exits_1(self, crashing_level_set, tmp_path, capsys):
        out = tmp_path / "quad.json"
        assert main(["demo-quad", "--n", "101", "--c", "0.05", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "result: FAIL" in captured.out
        assert "Traceback" not in captured.err
        self._assert_failed_first_stage(k.load_report(out))

    def test_bad_c_is_input_error(self, capsys):
        assert main(["demo-quad", "--n", "101", "--c", "0.3"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerifyStageCrash:
    """A verify stage raising mid-pipeline: the stages before it are recorded
    as in a passing run, it fails, and the two after it are skipped."""

    @pytest.fixture
    def crashing_probability(self, monkeypatch):
        build = k.constructions.build_probability_signal

        def crash_at_6007(m):
            if m.n == 6007:
                raise RuntimeError("no probability signal")
            return build(m)

        monkeypatch.setattr(k.constructions, "build_probability_signal", crash_at_6007)

    def _assert_failed_at_probability(self, report, verify_6007):
        assert [c.name for c in report.checks] == EXPECTED_VERIFY_CHECKS
        before, failed, rest = report.checks[:11], report.checks[11], report.checks[12:]
        assert _strip_runtime([c.to_dict() for c in before]) == _strip_runtime(
            [c.to_dict() for c in verify_6007.checks[:11]]
        )
        assert failed.name == "probability_signal"
        assert failed.passed is False and not failed.skipped
        assert failed.measured == {"error": "RuntimeError: no probability signal"}
        assert [c.name for c in rest] == ["product_expansion_16_terms", "sampling_concentration"]
        assert all(c.skipped and c.passed is None for c in rest)
        assert not report.passed()

    def test_report_records_error(self, crashing_probability, verify_6007):
        report = k.run_verify(6007, seed=1, trials=3)
        self._assert_failed_at_probability(report, verify_6007)

    def test_cli_writes_report_and_exits_1(
        self, crashing_probability, verify_6007, tmp_path, capsys
    ):
        out = tmp_path / "verify.json"
        argv = ["verify", "--n", "6007", "--seed", "1", "--trials", "3", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "result: FAIL" in captured.out
        assert "Traceback" not in captured.err
        self._assert_failed_at_probability(k.load_report(out), verify_6007)


class TestStageTables:
    """Each pipeline generator yields one result per row of its stage table,
    so no yield is left unrecorded and no row is left without a result."""

    def test_verify_yields_one_result_per_row(self):
        # the chain, then the sampling stage
        m = k.make_modulus(6007)
        results = [*report._verify_results(m, 0), *report._sampling_results(m, 0, 1)]
        assert len(results) == len(report._VERIFY_STAGES)
        assert all(len(result) == 4 for result in results)

    def test_demo_yields_one_result_per_row(self):
        results = list(report._demo_results(k.make_modulus(101), 0.05))
        assert len(results) == len(report._DEMO_STAGES)
        assert all(len(result) == 4 for result in results)

    def test_ratios_yield_one_result_per_consecutive_pair(self):
        rows = [
            {"normalized_uniformity": u, "normalized_difference": d}
            for u, d in ((1.0, 2.0), (2.0, 2.0), (4.0, 1.0))
        ]
        results = list(report._ratio_results(rows))
        assert [r[0] for r in results] == [
            {"uniformity_ratio": 2.0, "difference_ratio": 1.0},
            {"uniformity_ratio": 2.0, "difference_ratio": 0.5},
        ]
        assert all(r[2] for r in results)

    def test_passing_reports_follow_their_tables(self, verify_6007):
        demo = k.run_demo_quadratic(10007, 0.05)
        scaling = k.run_scaling([10007, 20011])
        scaling_stages = [
            ("scaling_measurements@10007", "normalized-series-recorded"),
            ("scaling_measurements@20011", "normalized-series-recorded"),
            ("scaling_ratio@10007->20011", "consecutive-normalized-ratios-in-[0.1,10]"),
        ]
        for got, table in (
            (verify_6007, report._VERIFY_STAGES),
            (demo, report._DEMO_STAGES),
            (scaling, scaling_stages),
        ):
            assert got.passed()
            assert [(c.name, c.claim_ref) for c in got.checks] == list(table)
        assert [name for name, _ in report._VERIFY_STAGES] == EXPECTED_VERIFY_CHECKS


def _passing(runtime_ms=1.0, vacuous=False):
    return report._Outcome(({"value": 1}, 2.0, True, vacuous), None, runtime_ms)


def _failing(kind="RuntimeError", message="boom"):
    return report._Outcome(None, (kind, message), 3.0)


_ROWS = [(f"stage_{i}", f"claim_{i}") for i in range(4)]


class TestRecords:
    """_records against hand-made outcomes."""

    def test_failure_reads_no_further_outcome(self):
        def outcomes():
            yield _passing()
            yield _failing()
            raise AssertionError("an outcome was read after the failed stage")

        checks = report._records(_ROWS, outcomes())
        assert [c.name for c in checks] == [name for name, _ in _ROWS]
        assert checks[1] == report.CheckRecord(
            "stage_1", "claim_1", {"error": "RuntimeError: boom"}, None, False, 3.0
        )
        assert all(c.skipped and c.passed is None and c.runtime_ms == 0.0 for c in checks[2:])

    def test_memory_error_raises_its_message(self):
        outcomes = iter([_passing(), _failing("MemoryError", "Unable to allocate 4.00 EiB")])
        with pytest.raises(MemoryError, match=r"^Unable to allocate 4\.00 EiB$"):
            report._records(_ROWS, outcomes)

    def test_memory_error_after_a_failure_is_skipped(self):
        outcomes = iter([_failing(), _failing("MemoryError", "x")])
        checks = report._records(_ROWS, outcomes)
        assert checks[0].measured == {"error": "RuntimeError: boom"}
        assert all(c.skipped for c in checks[1:])

    def test_passing_outcome_keeps_runtime_and_vacuous_flag(self):
        def outcomes():
            yield _passing(2.5, True)
            yield _passing(0.25, False)
            raise AssertionError("an outcome was read past the last row")

        checks = report._records(_ROWS[:2], outcomes())
        assert [(c.runtime_ms, c.vacuous_at_this_n) for c in checks] == [(2.5, True), (0.25, False)]
        assert checks[0] == report.CheckRecord(
            "stage_0", "claim_0", {"value": 1}, 2.0, True, 2.5, vacuous_at_this_n=True
        )


class TestCli:
    def test_import_freezes_long_lived_objects(self):
        # a fresh interpreter: the objects made by importing numpy and the package
        # are frozen, so the young generations start (nearly) empty
        src = os.path.dirname(os.path.dirname(k.__file__))
        code = ("import gc, ap4kit.cli; "
                "print(gc.get_freeze_count(), len(gc.get_objects(0)) + len(gc.get_objects(1)))")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout
        frozen, young = map(int, out.split())
        assert frozen > 10000 and young < 100

    def test_verify_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--n", "6007", "--seed", "1", "--trials", "2", "--out", str(out)])
        assert rc == 0
        assert "result: PASS" in capsys.readouterr().out
        assert k.load_report(out).passed()

    def test_verify_composite_exits_2(self, capsys):
        assert main(["verify", "--n", "9", "--seed", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_no_trials_exits_2(self, trials, capsys):
        # a concentration check over no draws is an input error, not a pass
        assert main(["verify", "--n", "10007", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1" in captured.err
        assert "result:" not in captured.out

    def test_demo_quad(self, capsys):
        assert main(["demo-quad", "--n", "10007", "--c", "0.05"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "F.csv"
        assert main(["spectrum", "--construction", "F", "--n", "6007", "--csv", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,re,im,abs"
        assert len(lines) == 6008

    def test_count_roundtrip(self, tmp_path, capsys):
        m = k.make_modulus(6007)
        k.save_signal(k.build_interval_signal(m), tmp_path / "F.json")
        assert main(["count", "--file", str(tmp_path / "F.json"), "--k", "4"]) == 0
        out = capsys.readouterr().out
        t = 5
        p = k.interval_progression_count(t)
        assert f"exact numerator: {-72 * p}" in out

    def test_search_pm1_json(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert main(["search", "pm1", "--n", "6", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["space"] == "pm1"
        assert payload["exhaustive"] is True
        assert payload["min"] == k.min_ap4_pm1(6).best_value
        assert all(
            k.ap4_sum_z(k.IntSignalZ(1, tuple(w))) == payload["min"]
            for w in payload["witnesses"]
        )

    def test_parser_built_once_per_process(self, capsys):
        # a usage error and a later command in one process share one parser
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["count", "--k", "4"])
        assert exc.value.code == 2
        assert "--file" in capsys.readouterr().err
        assert main(["search", "ternary", "--n", "4"]) == 0
        assert capsys.readouterr().out == "minimum 0 over 81 assignments, 1 witnesses\n"
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_search_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["search", "grid", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["space"] == "grid"
        assert len(payload["witnesses"]) == 8

    @pytest.mark.parametrize("cap, found, exhaustive", [(3, 3, False), (8, 8, False), (9, 8, True)])
    def test_search_grid_capped_exhaustive(self, tmp_path, capsys, cap, found, exhaustive):
        # a cap above the 8 designs lets the search run to the end; at or
        # below it the search stops at the cap and may have missed some
        out = tmp_path / "grid.json"
        assert main(["search", "grid", "--max-results", str(cap), "--out", str(out)]) == 0
        assert f"{found} valid designs" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert len(payload["witnesses"]) == found
        assert payload["exhaustive"] is exhaustive

    def test_search_out_unwritable_exits_2(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.json"
        assert main(["search", "pm1", "--n", "6", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_count_rejects_nan_signal(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 5, "values": [0.5, NaN, 0.5, 0.5, 0.5]}')
        assert main(["count", "--file", str(path), "--k", "4"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["3", "4", "5"])
    def test_count_rejects_overflowing_floats(self, tmp_path, capsys, count):
        # the sums would pass the largest float: an input error, not a crash or an inf mean;
        # 1e77 on three points of Z_101 overflows from k = 4 on, 1e300 at every k
        cases = [(7, [1e300, 2e300] + [0.5] * 5)]
        if count != "3":
            cases.append((101, [1e77] * 3 + [0] * 98))
        for n, values in cases:
            path = tmp_path / "big.json"
            path.write_text(json.dumps({"n": n, "values": values}))
            assert main(["count", "--file", str(path), "--k", count]) == 2
            assert "2^1023" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["3", "4", "5"])
    def test_count_rejects_int64_min(self, tmp_path, capsys, count):
        # np.abs(-2^63) is -2^63 again, so an abs-based [-64, 64] guard lets it through
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 11, "values": [-(2**63), 1] + [0] * 9}))
        assert main(["count", "--file", str(path), "--k", count]) == 2
        assert "[-64, 64]" in capsys.readouterr().err

    def test_search_pm1_requires_n(self, capsys):
        assert main(["search", "pm1"]) == 2
        assert capsys.readouterr().err == "error: search pm1/ternary requires --n\n"

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--n-list", "6007,10007"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("n_list", ["", ",", " , "])
    def test_scaling_empty_n_list_exits_2(self, n_list, capsys):
        assert main(["scaling", "--n-list", n_list]) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "result:" not in captured.out

    @pytest.mark.parametrize("n_list", ["101", "10007,101"])
    def test_scaling_modulus_below_gate_exits_2(self, n_list, capsys):
        # rejected before any stage runs, like verify --n 101
        assert main(["scaling", "--n-list", n_list]) == 2
        captured = capsys.readouterr()
        assert "no integer block length" in captured.err
        assert "result:" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [  # (arguments, the one stderr line)
            (["search", "grid", "--max-results", "-3"], "error: max_results must be >= 0, got -3"),
            (["search", "pm1", "--n", "5", "--max-results", "2"],
             "error: --max-results applies to search grid only"),
            (["search", "ternary", "--n", "5", "--max-results", "-1"],
             "error: --max-results applies to search grid only"),
        ],
    )
    def test_search_bad_max_results_exits_2(self, argv, capsys):
        argv, err = argv
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == err + "\n"
        assert "designs" not in captured.out

    def test_search_grid_n_exits_2(self, capsys):
        assert main(["search", "grid", "--n", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --n applies to search pm1/ternary only\n"
        assert "designs" not in captured.out

    def test_build_interval_signal(self, tmp_path):
        out = tmp_path / "F.json"
        assert main(["build", "--construction", "F", "--n", "6007", "--out", str(out)]) == 0
        loaded = k.load_signal(out)
        assert loaded.exact
        assert (loaded.values == k.build_interval_signal(k.make_modulus(6007)).values).all()

    def test_build_sampled_set_deterministic(self, tmp_path):
        a_path = tmp_path / "A1.json"
        b_path = tmp_path / "A2.json"
        base = ["build", "--construction", "A", "--n", "6007", "--seed", "9"]
        assert main(base + ["--out", str(a_path)]) == 0
        assert main(base + ["--out", str(b_path)]) == 0
        assert a_path.read_text() == b_path.read_text()
        values = k.load_signal(a_path).values
        assert set(np.unique(values)) <= {0, 1}

    def test_build_level_set(self, tmp_path):
        out = tmp_path / "Q.json"
        rc = main(
            ["build", "--construction", "quad_levelset", "--n", "6007", "--c", "0.05", "--out", str(out)]
        )
        assert rc == 0
        density = k.signal_stats(k.load_signal(out)).mean
        assert density == pytest.approx(0.1, abs=0.03)

    @pytest.mark.parametrize(
        "construction, option",
        [("F", ["--seed", "7"]), ("quad_levelset", ["--seed", "7"]), ("G", ["--c", "0.1"]),
         ("A", ["--c", "0.1"])],
    )
    def test_build_inapplicable_option_exits_2(self, construction, option, tmp_path, capsys):
        out = tmp_path / "S.json"
        argv = ["build", "--construction", construction, "--n", "6007", "--out", str(out)]
        assert main(argv + option) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {option[0]} applies to build --construction")
        assert not out.exists()

    def test_build_defaults_match_the_explicit_options(self, tmp_path):
        for construction, option in (("A", ["--seed", "42"]), ("quad_levelset", ["--c", "0.05"])):
            paths = tmp_path / f"{construction}-default.json", tmp_path / f"{construction}.json"
            base = ["build", "--construction", construction, "--n", "6007", "--out"]
            assert main(base + [str(paths[0])]) == 0
            assert main(base + [str(paths[1])] + option) == 0
            assert paths[0].read_text() == paths[1].read_text()

    def test_failing_report_exits_1(self, verify_6007, tmp_path):
        from ap4kit.cli import _finish_report

        broken = k.VerificationReport(
            "1",
            "verify",
            6007,
            1,
            [k.CheckRecord("synthetic", "always-fails", {"value": 1.0}, 0.5, False, 0.0)],
        )
        assert _finish_report(broken, None) == 1

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--construction", "Q", "--n", "11", "--csv", "x"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--construction", "F", "--n", "2147483647", "--out", "{dir}/F.json"],
            ["spectrum", "--construction", "F", "--n", "2147483647", "--csv", "{dir}/F.csv"],
            ["count", "--file", "{dir}/F.json", "--k", "4"],
        ],
    )
    def test_out_of_memory_exits_2(self, monkeypatch, tmp_path, capsys, argv):
        # n = 2^31 - 1 is a supported modulus whose int64 array alone takes
        # 16 GiB; the allocation is simulated, not made
        def exhausted(*args):
            raise MemoryError("Unable to allocate 16.0 GiB")

        k.save_signal(k.build_interval_signal(k.make_modulus(6007)), tmp_path / "F.json")
        monkeypatch.setitem(k.cli._BUILDERS, "F", exhausted)
        monkeypatch.setattr(k.cli, "apk_mean_zn", exhausted)
        assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 16.0 GiB\n"

    @pytest.mark.parametrize(
        "builder, argv",
        [
            ("build_interval_signal", ["verify", "--n", "6007"]),
            ("build_interval_signal", ["scaling", "--n-list", "6007"]),
            ("quadratic_level_set", ["demo-quad", "--n", "101", "--c", "0.05"]),
        ],
    )
    def test_stage_out_of_memory_exits_2(self, monkeypatch, capsys, builder, argv):
        # the one exception that is not a failed check; the allocation is simulated
        def exhausted(*args):
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setattr(k.constructions, builder, exhausted)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert captured.err == "error: out of memory: Unable to allocate 16.0 GiB\n"

    def test_stage_numpy_allocation_failure_exits_2(self, monkeypatch, capsys):
        # numpy's own MemoryError subclass, raised by a real allocation in a stage
        monkeypatch.setattr(k.constructions, "build_modulated_signal", _allocate_too_much)
        assert main(["verify", "--n", "6007"]) == 2
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert captured.err.startswith(_TOO_MUCH)


# --- the exit-code contract over generated command lines ----------------------

_N = st.one_of(
    st.sampled_from(["5", "7", "11", "13", "101"]),
    st.integers(-3, 40).map(str),
    st.sampled_from(["abc", "", "7.0", "1e3", "2147483648", str(10**30)]),
)
_C = st.one_of(
    st.floats(0.001, 0.249).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0.05", "0.2", "x"]),
)
_OUT = st.sampled_from(["{dir}/out", "{dir}/missing/out", "{dir}"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_SIGNAL_TEXT = st.sampled_from([5, 7, 11]).flatmap(
    lambda n: st.lists(
        st.one_of(st.integers(-70, 70), st.floats(-1e3, 1e3)), min_size=n - 1, max_size=n + 1
    ).map(lambda values: json.dumps({"n": n, "values": values}))
)
_FILE = st.one_of(
    st.binary(max_size=48),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.text(max_size=48).map(str.encode),
    _SIGNAL_TEXT.map(str.encode),
    st.sampled_from([b"[" * 100000, b'{"n": 5, "values": [' + b"1" * 5000 + b"]}"]),
)
_FLAGS = st.lists(
    st.sampled_from(
        ["--bogus", "--n", "--threads", "-h", "0", "--max-results=-1", "--trials=0"]
    ),
    max_size=2,
)


def _opt(name, values):
    """The option with a generated value, or (less often) left out."""
    given_value = values.map(lambda v: [name, v])
    return st.one_of(given_value, given_value, st.just([]))


_ARGV = st.one_of(
    st.tuples(
        st.just(["count", "--file", "{dir}/signal.json"]),
        _opt("--k", st.sampled_from(["2", "3", "4", "5", "x"])),
    ),
    st.tuples(
        st.sampled_from(["F", "G", "P", "A", "quad_levelset", "Q"]).map(
            lambda c: ["build", "--construction", c]
        ),
        _opt("--n", _N),
        _opt("--seed", st.integers(-2, 3).map(str)),
        _opt("--c", _C),
        _opt("--out", _OUT),
    ),
    st.tuples(st.just(["demo-quad"]), _opt("--n", _N), _opt("--c", _C), _opt("--out", _OUT)),
    st.tuples(
        st.sampled_from(["grid", "pm1", "ternary", "other"]).map(lambda s: ["search", s]),
        _opt("--n", st.one_of(st.integers(-2, 9).map(str), st.just("x"))),
        _opt("--max-results", st.sampled_from(["1", "2", "-1"])),
        _opt("--out", _OUT),
    ),
    st.tuples(
        st.just(["scaling"]),
        _opt("--n-list", st.sampled_from(["", ",", "x", "9", "101", "101,9"])),
    ),
    st.tuples(
        st.sampled_from(["F", "G", "P", "Z"]).map(lambda c: ["spectrum", "--construction", c]),
        _opt("--n", _N),
        _opt("--csv", _OUT),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(argv=_ARGV, flags=_FLAGS, content=_FILE)
    @example(argv=["count", "--file", "{dir}/signal.json"], flags=[], content=b"[" * 100000)
    def test_exit_code_in_contract(self, argv, flags, content):
        # exit 0 passed, 1 only from a report with a failed check, 2 usage or input error
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "signal.json"), "wb") as fh:
                fh.write(content)
            args = [a.replace("{dir}", tmp) for a in argv] + flags
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(args)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2), (args, code, err.getvalue())
        if code == 1:
            assert "result: FAIL" in out.getvalue(), args
