"""End-to-end verification pipeline and serialized reports.

``log n`` means the natural logarithm in every bound here.  Some stated
ceilings cannot fail at desk-scale moduli (for example 512 n^-1/2 ln n is far
above the trivial coefficient cap of a [-4, 4]-valued signal); those checks
still run, but carry ``vacuous_at_this_n: true`` and their measured values
feed the scaling report, which is where the n^-1/2 ln n behaviour is actually
exercised.

A check record pairs a measured quantity with the bound it must stay under.
When ``bound`` is non-null, ``measured`` is a number or a dict whose "value"
entry is the number compared against the bound; ``passed`` requires that
comparison (plus any recorded exact identities in the same check).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import constructions as cons
from .apcount import ap4_sum_z, apk_mean_zn
from .core import (
    IntervalZn,
    RngStream,
    constant_signal,
    make_modulus,
    read_json,
    signal_stats,
    write_text,
)
from .errors import IoFailureError
from .spectra import (
    dft,
    max_coefficient,
    max_coefficients_of_parts,
    modulated_interval_uniformity_check,
    quadratic_phase_signal,
    uniformity,
)

SCHEMA_VERSION = "1"

# Random draws of the two spot checks in ``run_verify``: quadratic phases
# checked for a flat spectrum, and modulated intervals checked against the
# 2 n^-1/2 ln n coefficient bound.
FLATNESS_TRIALS = 10
MODULATED_TRIALS = 20

@dataclass
class CheckRecord:
    name: str
    claim_ref: str
    measured: object
    bound: float | None
    passed: bool | None
    runtime_ms: float
    vacuous_at_this_n: bool = False
    skipped: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    schema_version: str
    kind: str
    modulus: int
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.skipped)

    def check(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return asdict(self)


def report_to_json(report: VerificationReport) -> str:
    """Deterministic serialization: two runs differ only in runtime_ms values."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def save_report(report: VerificationReport, path) -> None:
    write_text(path, report_to_json(report))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The JSON values each annotation of the dataclasses above admits on load.
_ADMITS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "bool": lambda v: isinstance(v, bool),
    "bool | None": lambda v: v is None or isinstance(v, bool),
    "object": lambda v: True,
    "list[CheckRecord]": lambda v: isinstance(v, list),
}


def _typed(obj, cls) -> bool:
    """Whether obj is a dict with exactly the fields of ``cls``, each admitted by its annotation."""
    return (
        isinstance(obj, dict)
        and obj.keys() == {f.name for f in fields(cls)}
        and all(_ADMITS[f.type](obj[f.name]) for f in fields(cls))
    )


def load_report(path) -> VerificationReport:
    """Load a report with exactly the fields of the dataclasses above, each of its
    JSON type; anything else raises IoFailureError."""
    obj = read_json(path)
    if not _typed(obj, VerificationReport):
        raise IoFailureError("report must contain exactly the schema-1 fields, of their types")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise IoFailureError(f"unsupported schema version {obj['schema_version']!r}")
    if not all(_typed(c, CheckRecord) for c in obj["checks"]):
        raise IoFailureError("check record has unexpected fields or field types")
    return VerificationReport(**{**obj, "checks": [CheckRecord(**c) for c in obj["checks"]]})


class _Outcome(NamedTuple):
    """What one stage gave: its (measured, bound, passed, vacuous) result or,
    when it raised, the exception's type name and message, and its wall time.

    Outcomes hold only plain data, so a worker process can pickle them.
    """

    result: tuple | None
    error: tuple[str, str] | None
    runtime_ms: float


def _measure(fn, *args) -> _Outcome:
    """Call fn(*args) as a stage; an exception becomes the outcome's error.

    Every MemoryError, numpy's subclass included, is named "MemoryError", the
    name ``_Runner.record`` re-raises.
    """
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except MemoryError as exc:
        error = ("MemoryError", str(exc))
    except Exception as exc:  # a failed stage is recorded; the report is kept
        error = (type(exc).__name__, str(exc))
    else:
        return _Outcome(result, None, 1000.0 * (time.perf_counter() - t0))
    return _Outcome(None, error, 1000.0 * (time.perf_counter() - t0))


class _Runner:
    """Records pipeline stages in order; a stage that raised fails and skips the rest.

    MemoryError is the one exception that propagates: a host without the memory
    for a stage is an input error for the caller, not a failed check.
    """

    def __init__(self) -> None:
        self.checks: list[CheckRecord] = []
        self.aborted = False

    def run(self, name: str, claim_ref: str, fn) -> None:
        """Run fn as the next stage, unless an earlier stage failed."""
        self.record(name, claim_ref, None if self.aborted else _measure(fn))

    def record(self, name: str, claim_ref: str, outcome: _Outcome | None) -> None:
        """Record the next stage from its outcome, computed here or elsewhere.

        After a failed stage the outcome is not read, and the stage is skipped.
        """
        if self.aborted:
            self.checks.append(CheckRecord(name, claim_ref, None, None, None, 0.0, skipped=True))
            return
        if outcome.error is not None:
            kind, message = outcome.error
            if kind == "MemoryError":
                raise MemoryError(message)
            measured = {"error": f"{kind}: {message}"}
            self.checks.append(
                CheckRecord(name, claim_ref, measured, None, False, outcome.runtime_ms)
            )
            self.aborted = True
            return
        measured, bound, passed, vacuous = outcome.result
        self.checks.append(
            CheckRecord(
                name, claim_ref, measured, bound, passed, outcome.runtime_ms,
                vacuous_at_this_n=vacuous,
            )
        )


def _outcomes_across_processes(fn, items: list, sizes: list[int]) -> list[_Outcome]:
    """The outcome of fn(item) for every item of a non-empty list, in item
    order, computed in up to one process per CPU this process may run on.

    The items are split into shares, largest size first, each to the share
    with the least total size so far (the first such share on a tie).  This
    process computes the first share and forks one worker per other share;
    a worker pickles its share's outcomes to a pipe and leaves through
    ``os._exit``, so it runs none of this process's clean-up.  A worker that exits without a
    complete result has its share recomputed here, and so has a share whose
    pipe or fork failed.  Off Linux, or with one CPU or one item, nothing is forked
    and every outcome is computed here in the same way.  Before this returns
    or raises, every worker has been killed, if it was still running, and
    reaped, and every pipe is closed.

    fork copies only the calling thread.  The one other thread of an
    ap4kit process is OpenBLAS's pool, which OpenBLAS stops before a fork
    and restarts when it is next needed.
    """
    count = min(len(items), len(os.sched_getaffinity(0))) if sys.platform == "linux" else 1
    shares: list[list[int]] = [[] for _ in range(count)]
    totals = [0] * count
    for i in sorted(range(len(items)), key=lambda i: -sizes[i]):
        j = totals.index(min(totals))
        shares[j].append(i)
        totals[j] += sizes[i]
    here = shares[0]
    workers = []  # (pid, read end of its pipe, its share), until it is reaped
    outcomes: list[_Outcome | None] = [None] * len(items)
    try:
        for share in shares[1:]:
            ends = ()
            try:
                ends = os.pipe()
                pid = os.fork()
            except OSError:  # no pipe (EMFILE) or no fork (EAGAIN): the share is measured here
                for end in ends:
                    os.close(end)
                here.extend(share)
                continue
            read_end, write_end = ends
            if pid == 0:  # the worker
                status = 1
                try:
                    with open(write_end, "wb") as pipe:
                        pickle.dump([_measure(fn, items[i]) for i in share], pipe)
                    status = 0
                finally:
                    os._exit(status)
            workers.append((pid, open(read_end, "rb"), share))
            os.close(write_end)
        for i in here:
            outcomes[i] = _measure(fn, items[i])
        while workers:
            pid, reader, share = workers[0]
            data = reader.read()
            reader.close()
            _, status = os.waitpid(pid, 0)
            workers.pop(0)
            if status == 0:
                for i, outcome in zip(share, pickle.loads(data)):
                    outcomes[i] = outcome
            else:
                for i in share:
                    outcomes[i] = _measure(fn, items[i])
    finally:
        if workers:  # this process raised while they ran
            import signal  # here, so that importing report loads nothing new

            for pid, reader, _ in workers:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return outcomes


def _log_scale(n: int) -> float:
    return math.log(n) / math.sqrt(n)


def run_verify(n: int, seed: int, trials: int = 20) -> VerificationReport:
    """Execute the full verification pipeline at modulus n.

    Stages run in construction order: design validation, line census, the
    difference-map check, the lifted -72 sum, the exact interval-signal
    numerator, phase flatness over ``FLATNESS_TRIALS`` random quadratic
    phases, modulated-interval coefficients over ``MODULATED_TRIALS`` random
    intervals and phases, the modulated signal's spectrum, pattern
    classification, the mean-difference bound, the probability signal, the
    16-term bracket expansion, and ``trials`` independent rounding draws
    checked against the n^-1/2 ln n concentration threshold.  Deterministic
    given (n, seed, trials).  ``trials`` below 1 is a ValueError: a
    concentration check over no draws measures nothing.

    Every progression sum goes through ``apk_mean_zn``, which picks the
    route.  Neither spot check takes a transform; both complete the square.
    With s = (r - b)(2a)^-1, coefficient r of w^(a x^2 + b x) is
    n^-1 w^(-a s^2) G(a), where G(a) is the Gauss sum of w^(a y^2), so every
    coefficient has modulus |G(a)| / n and the flatness check reads one
    O(n) sum per phase.  The modulated-interval maxima are the largest chirp
    sums over a cyclic window (see ``modulated_interval_uniformity_check``).
    A draw's deviation is the largest coefficient of A - P, a real signal,
    so the draws are made two at a time and each pair shares one complex
    FFT; an odd last draw takes one of its own.  With the spectra of G and
    P, that is 2 + ceil(trials / 2) prime-length FFTs per run.  A stage
    that raises is recorded as a failed check with its error, and the later
    stages are skipped; a MemoryError propagates.
    """
    m = make_modulus(n)
    if n < 6000:
        raise ValueError("the verification pipeline requires n >= 6000")
    if trials < 1:
        # checked before the stages, so that --trials 0 is an input error and not a pass
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = RngStream(seed)
    runner = _Runner()
    state: dict = {}

    def design_valid():
        design = cons.reference_design()
        state["design"] = design
        check = cons.validate_design(design)
        return {"violations": len(check.violations)}, None, check.ok, False

    runner.run("grid_design_valid", "off-diagonal-lines-meet-design-once", design_valid)

    def line_census():
        lines = cons.enumerate_lines()
        counts = {
            kind: sum(1 for l in lines if l.kind == kind)
            for kind in (cons.AXIS, cons.PLANE_DIAGONAL, cons.MAIN_DIAGONAL)
        }
        measured = {"total": len(lines), **counts}
        ok = (
            len(lines) == 76
            and counts[cons.AXIS] == 48
            and counts[cons.PLANE_DIAGONAL] == 24
            and counts[cons.MAIN_DIAGONAL] == 4
        )
        return measured, None, ok, False

    runner.run("grid_line_census", "line-census-48-24-4", line_census)

    def freiman():
        check = cons.freiman_check()
        return {"ok": check.ok}, None, check.ok, False

    runner.run("freiman_embedding", "difference-map-bijective-on-vector-differences", freiman)

    def lift_sum():
        signs = cons.sign_grid(state["design"])
        lift_total = ap4_sum_z(cons.lift_signal(signs))
        grid_total = cons.grid_ap4_sum(signs)
        measured = {"lift_sum": lift_total, "grid_sum": grid_total}
        return measured, None, lift_total == -72 and grid_total == -72, False

    runner.run("lift_ap4_sum", "ap4-sum-of-lift-equals--72", lift_sum)

    def interval_exact():
        f = cons.build_interval_signal(m)
        t = cons.interval_block_length(m)
        p = cons.interval_progression_count(t)
        mean = apk_mean_zn([f, f, f, f])
        state["EF"] = mean.value
        measured = {"t": t, "p": p, "numerator": mean.exact_numerator}
        return measured, None, mean.exact_numerator == -72 * p, False

    runner.run("interval_signal_ap4", "ap4-numerator-equals--72p", interval_exact)

    def interval_mean():
        return {"value": state["EF"]}, -1e-5, state["EF"] <= -1e-5, False

    runner.run("interval_signal_mean", "ap4-mean-at-most--1e-5", interval_mean)

    def flatness():
        # Every coefficient of w^(a x^2 + b x) has modulus |G(a)| / n, with
        # G(a) the Gauss sum of w^(a y^2).  b only changes their phases, so
        # its word is drawn, to keep the stream's positions, and not read.
        sub = rng.child(0)
        target = 1.0 / math.sqrt(n)
        worst = 0.0
        for _ in range(FLATNESS_TRIALS):
            wa, _wb = sub.words(2).tolist()
            gauss = complex(quadratic_phase_signal(m, 1 + wa % (n - 1)).values.sum())
            worst = max(worst, abs(abs(gauss) / n - target))
        return {"value": worst, "trials": FLATNESS_TRIALS}, 1e-9, worst <= 1e-9, False

    runner.run("quadratic_phase_flatness", "phase-spectrum-flat-at-n^-1/2", flatness)

    def modulated_intervals():
        sub = rng.child(1)
        bound = 2.0 * _log_scale(n)
        worst = 0.0
        for _ in range(MODULATED_TRIALS):
            ws, wl, wa, wb, wc = sub.words(5).tolist()
            interval = IntervalZn(ws % n, 1 + wl % (n - 1))
            a, b, c = 1 + wa % (n - 1), wb % n, wc % n
            worst = max(worst, modulated_interval_uniformity_check(m, interval, (a, b, c)))
        return {"value": worst, "trials": MODULATED_TRIALS}, bound, worst <= bound, False

    runner.run(
        "modulated_interval_uniformity",
        "interval-times-phase-coefficients-below-2n^-1/2-ln-n",
        modulated_intervals,
    )

    def g_spectrum():
        g = cons.build_modulated_signal(m)
        state["G"] = g
        sp = dft(g)
        state["spG"] = sp
        bound = 512.0 * _log_scale(n)
        top = max_coefficient(sp)
        measured = {
            "value": top,
            "uniformity": uniformity(sp),
            "mean": signal_stats(g).mean,
        }
        # |G| <= 4 already caps every coefficient at 4, so the bound is
        # informative only once 512 n^-1/2 ln n < 4.
        return measured, bound, top <= bound, bound >= 4.0

    runner.run(
        "modulated_signal_spectrum", "modulated-coefficients-below-512n^-1/2-ln-n", g_spectrum
    )

    def patterns():
        cls = cons.classify_patterns()
        null_sigs = sorted((pc.p, pc.q, pc.r, pc.s) for pc in cls.null)
        ok = (
            null_sigs == [(-1, 3, -3, 1), (1, -3, 3, -1)]
            and all(pc.v == 0 for pc in cls.null)
            and len(cls.all_patterns) == 256
        )
        measured = {"null_count": len(cls.null), "null_v": [pc.v for pc in cls.null]}
        return measured, None, ok, False

    runner.run("pattern_classification", "exactly-two-null-patterns-both-v-zero", patterns)

    def mean_difference():
        eg = apk_mean_zn([state["G"]] * 4).value
        state["EG"] = eg
        diff = abs(eg - 2.0 * state["EF"])
        bound = 2.0**18 * _log_scale(n)
        measured = {"value": diff, "modulated_mean": eg, "interval_mean": state["EF"]}
        # The trivial cap is |EG| + 2|EF| <= 4^4 + 2.
        return measured, bound, diff <= bound, bound >= 258.0

    runner.run(
        "modulated_vs_interval_mean", "ap4-mean-difference-below-2^18n^-1/2-ln-n", mean_difference
    )

    def probability():
        p_sig = cons.build_probability_signal(m)
        state["P"] = p_sig
        sp_p = dft(p_sig)
        bound64 = 64.0 * _log_scale(n)
        stats = signal_stats(p_sig)
        spectrum_err = float(
            np.abs(sp_p.coeffs[1:] - state["spG"].coeffs[1:] / 8.0).max()
        )
        mean_offset = abs(stats.mean - 0.5)
        unif = uniformity(sp_p)
        measured = {
            "min": stats.minimum,
            "max": stats.maximum,
            "max_spectrum_error": spectrum_err,
            "mean_offset": mean_offset,
            "uniformity": unif,
            "bound_64": bound64,
        }
        ok = (
            stats.minimum >= 0.0
            and stats.maximum <= 1.0
            and spectrum_err <= 1e-12
            and mean_offset <= bound64
            and unif <= bound64
        )
        return measured, None, ok, bound64 >= 0.5

    runner.run(
        "probability_signal", "range-[0,1]-spectrum-g/8-mean-near-1/2", probability
    )

    def expansion():
        ones = constant_signal(m, 1)
        g = state["G"]
        # Each distinct term is computed once.  The closed forms for one or
        # two G's do not read their positions, and the j = 3 convolution
        # reads only the gaps between three, through a commuting product, so
        # gaps and reversed gaps give the same floats.
        means = {}
        total = 0.0
        for size in range(4):
            for positions in itertools.combinations(range(4), size):
                gaps = tuple(b - a for a, b in zip(positions, positions[1:]))
                key = min(gaps, gaps[::-1]) if size == 3 else size
                if key not in means:
                    sigs = [g if i in positions else ones for i in range(4)]
                    means[key] = apk_mean_zn(sigs).value
                total += 4.0 ** (4 - size) * means[key]
        total += state["EG"]
        total *= 2.0**-12
        lead_term = 2.0**-12 * 4.0**4 * means[0]
        direct = apk_mean_zn([state["P"]] * 4).value
        diff = abs(total - direct)
        measured = {
            "value": diff,
            "direct": direct,
            "expansion": total,
            "lead_term_exact": lead_term == 0.0625,
            "modulated_term": 2.0**-12 * state["EG"],
        }
        return measured, 1e-10, diff <= 1e-10 and lead_term == 0.0625, False

    runner.run(
        "product_expansion_16_terms", "bracket-expansion-matches-direct-mean", expansion
    )

    def sampling():
        threshold = _log_scale(n)
        allowed = trials // 20
        sub = rng.child(2)
        densities = []
        deviations = []
        p_sig = state["P"]
        mean_p = signal_stats(p_sig).mean
        # A draw's deviation is max_coefficient(A - P), and A - P is real, so
        # draws i and i + 1 share one complex FFT as the real and imaginary
        # parts of z; an odd last draw has a zero imaginary part.
        for i in range(0, trials, 2):
            z = np.zeros(n, dtype=np.complex128)
            pair = range(i, min(i + 2, trials))
            for j, part in zip(pair, (z.real, z.imag)):
                sample = cons.sample_indicator(p_sig, sub.child(j))
                densities.append(signal_stats(sample).mean)
                np.subtract(sample.values, p_sig.values, out=part)
            deviations.extend(max_coefficients_of_parts(z)[: len(pair)])
        exceed = sum(1 for d in deviations if d > threshold)
        density_ok = all(abs(d - mean_p) <= 4.0 / math.sqrt(n) for d in densities)
        value = sorted(deviations)[-(allowed + 1)]
        measured = {
            "value": value,
            "densities": densities,
            "max_deviations": deviations,
            "exceed_count": exceed,
            "allowed_exceed": allowed,
            "density_ok": density_ok,
        }
        return measured, threshold, value <= threshold and density_ok, False

    runner.run(
        "sampling_concentration", "sampled-spectrum-within-n^-1/2-ln-n", sampling
    )

    return VerificationReport(SCHEMA_VERSION, "verify", n, seed, runner.checks)


def _scaling_row(m):
    """One modulus's measurements, as a ``run_scaling`` stage result."""
    n = m.n
    f = cons.build_interval_signal(m)
    g = cons.build_modulated_signal(m)
    ef = apk_mean_zn([f, f, f, f]).value
    eg = apk_mean_zn([g, g, g, g]).value
    unif = uniformity(dft(g))
    diff = abs(eg - 2.0 * ef)
    mean_abs = abs(signal_stats(g).mean)
    scale = _log_scale(n)
    row = {
        "n": n,
        "uniformity": unif,
        "difference": diff,
        "mean_abs": mean_abs,
        "normalized_uniformity": unif / scale,
        "normalized_difference": diff / scale,
        "normalized_mean_abs": mean_abs / scale,
    }
    return row, None, True, False


def run_scaling(n_list: list[int]) -> VerificationReport:
    """Measure the n^-1/2 ln n series across several moduli.

    For each n the modulated signal's uniformity and the mean difference
    |EG - 2 EF| are recorded raw and divided by n^-1/2 ln n; consecutive
    normalized values must stay within a factor 10 of each other; a failed
    measurement skips every later stage, ratios included.  |mean G| is
    recorded for reference (its normalized value can fluctuate through zero,
    so no band is asserted on it).  An empty n_list is a ValueError: a series
    that measures nothing must not pass.  Every modulus must pass the
    interval-signal gate before any stage runs, so a modulus too small for it
    is an input error, not a failed measurement.

    The moduli are measured independently, so on Linux with more than one
    CPU they are split across forked worker processes
    (``_outcomes_across_processes``); elsewhere they are measured here, one
    after another.  Either way every modulus is measured, and the outcomes
    are recorded in the order of n_list, so a failed or out-of-memory
    measurement is reported as if the moduli had run in that order: the
    report is the same apart from runtime_ms, which each process measures
    for its own moduli.
    """
    if not n_list:
        raise ValueError("the scaling series needs at least one modulus")
    moduli = [make_modulus(n) for n in n_list]
    for m in moduli:
        cons.interval_block_length(m)
    outcomes = _outcomes_across_processes(_scaling_row, moduli, [m.n for m in moduli])
    runner = _Runner()
    for m, outcome in zip(moduli, outcomes):
        runner.record(f"scaling_measurements@{m.n}", "normalized-series-recorded", outcome)

    # A ratio stage runs only when every measurement passed, so checks[i] holds moduli[i]'s row.
    for i, (ma, mb) in enumerate(zip(moduli, moduli[1:])):
        def ratios(i=i):
            a, b = (c.measured for c in runner.checks[i : i + 2])
            ur = b["normalized_uniformity"] / a["normalized_uniformity"]
            dr = b["normalized_difference"] / a["normalized_difference"]
            ok = 0.1 <= ur <= 10.0 and 0.1 <= dr <= 10.0
            measured = {"uniformity_ratio": ur, "difference_ratio": dr}
            return measured, None, ok, False

        runner.run(
            f"scaling_ratio@{ma.n}->{mb.n}",
            "consecutive-normalized-ratios-in-[0.1,10]",
            ratios,
        )

    return VerificationReport(SCHEMA_VERSION, "scaling", n_list[0], 0, runner.checks)


def run_demo_quadratic(n: int, c: float) -> VerificationReport:
    """Build the quadratic level set and compare its progression counts
    against the random-set benchmarks density^3 and density^4.

    At small density the 4-AP count runs well above density^4 (the excess is
    what makes plain spectral flatness insufficient for 4-term counts); near
    density 1/2 all counts sit close to the random values.
    """
    m = make_modulus(n)
    if not 0.0 < c < 0.25:
        # checked before the stages so that a bad c is an input error, not a failed check
        raise ValueError("c must lie in (0, 1/4)")
    runner = _Runner()
    state: dict = {}

    def density_check():
        a = cons.quadratic_level_set(m, c)
        state["A"] = a
        density = signal_stats(a).mean
        state["density"] = density
        dev = abs(density - 2.0 * c)
        bound = 2.0 / math.sqrt(n)
        return {"value": dev, "density": density, "target": 2.0 * c}, bound, dev <= bound, False

    runner.run("level_set_density", "density-close-to-2c", density_check)

    def uniformity_check():
        unif = uniformity(dft(state["A"]))
        bound = state["density"] / 2.0
        return {"value": unif, "density": state["density"]}, bound, unif <= bound, False

    runner.run("level_set_uniformity", "uniformity-below-half-density", uniformity_check)

    def threeap_check():
        a = state["A"]
        threeap = apk_mean_zn([a, a, a]).value
        alpha3 = state["density"] ** 3
        rel = abs(threeap - alpha3) / alpha3
        measured = {"value": rel, "threeap_mean": threeap, "density_cubed": alpha3}
        return measured, 0.2, rel <= 0.2, False

    runner.run("threeap_vs_cube", "threeap-mean-within-20pct-of-density^3", threeap_check)

    def fourap_check():
        a = state["A"]
        fourap = apk_mean_zn([a, a, a, a]).value
        alpha4 = state["density"] ** 4
        ratio = fourap / alpha4
        if c <= 0.1:
            ok = ratio >= 1.1
        elif c >= 0.2:
            ok = abs(ratio - 1.0) <= 0.1
        else:
            ok = ratio >= 0.9
        measured = {"value": ratio, "fourap_mean": fourap, "density_fourth": alpha4}
        return measured, None, ok, False

    runner.run("fourap_excess", "fourap-mean-exceeds-density^4-at-small-density", fourap_check)

    return VerificationReport(SCHEMA_VERSION, "demo-quad", n, 0, runner.checks)
