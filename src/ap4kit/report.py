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

import functools
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
    name ``_records`` re-raises.
    """
    t0 = time.perf_counter()
    try:
        return _Outcome(fn(*args), None, 1000.0 * (time.perf_counter() - t0))
    except Exception as exc:  # a failed stage is recorded; the report is kept
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        return _Outcome(None, (kind, str(exc)), 1000.0 * (time.perf_counter() - t0))


def _stage_outcomes(results):
    """The outcome of each next result of the pipeline generator results, lazily."""
    return map(_measure, itertools.repeat(functools.partial(next, results)))


def _records(stages, outcomes) -> list[CheckRecord]:
    """One check per (name, claim_ref) row of stages, each from the next of outcomes.

    A pipeline is a generator that yields one (measured, bound, passed,
    vacuous) result per stage, so a stage is the code before its yield, and
    ``_stage_outcomes`` measures each as it is read; worker processes hand
    over outcomes already measured.  After a stage that raised, no further
    outcome is read, so no generator is resumed, and every later row is
    skipped.  MemoryError is the one exception that propagates: a host
    without the memory for a stage is an input error for the caller, not a
    failed check.
    """
    rows = iter(stages)
    checks = []
    for (name, claim_ref), outcome in zip(rows, outcomes):
        if outcome.error is not None:
            kind, message = outcome.error
            if kind == "MemoryError":
                raise MemoryError(message)
            measured = {"error": f"{kind}: {message}"}
            checks.append(CheckRecord(name, claim_ref, measured, None, False, outcome.runtime_ms))
            break
        measured, bound, passed, vacuous = outcome.result
        checks.append(
            CheckRecord(name, claim_ref, measured, bound, passed, outcome.runtime_ms, vacuous)
        )
    checks.extend(CheckRecord(name, ref, None, None, None, 0.0, skipped=True) for name, ref in rows)
    return checks


def _outcomes_across_processes(fn, items: list, sizes: list[int]) -> list[_Outcome]:
    """The ``_measure`` outcome of fn(item), as ``_records`` reads it, for
    every item of a non-empty list, in item order, computed in up to one
    process per CPU this process may run on.

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


# The stages of ``verify`` as (name, claim_ref), in the order ``_verify_results`` runs them.
_VERIFY_STAGES = (
    ("grid_design_valid", "off-diagonal-lines-meet-design-once"),
    ("grid_line_census", "line-census-48-24-4"),
    ("freiman_embedding", "difference-map-bijective-on-vector-differences"),
    ("lift_ap4_sum", "ap4-sum-of-lift-equals--72"),
    ("interval_signal_ap4", "ap4-numerator-equals--72p"),
    ("interval_signal_mean", "ap4-mean-at-most--1e-5"),
    ("quadratic_phase_flatness", "phase-spectrum-flat-at-n^-1/2"),
    ("modulated_interval_uniformity", "interval-times-phase-coefficients-below-2n^-1/2-ln-n"),
    ("modulated_signal_spectrum", "modulated-coefficients-below-512n^-1/2-ln-n"),
    ("pattern_classification", "exactly-two-null-patterns-both-v-zero"),
    ("modulated_vs_interval_mean", "ap4-mean-difference-below-2^18n^-1/2-ln-n"),
    ("probability_signal", "range-[0,1]-spectrum-g/8-mean-near-1/2"),
    ("product_expansion_16_terms", "bracket-expansion-matches-direct-mean"),
    ("sampling_concentration", "sampled-spectrum-within-n^-1/2-ln-n"),
)


def run_verify(n: int, seed: int, trials: int = 20) -> VerificationReport:
    """Execute the full verification pipeline at modulus n.

    The stages are the rows of ``_VERIFY_STAGES``, in construction order;
    the phase-flatness and modulated-interval spot checks draw
    ``FLATNESS_TRIALS`` and ``MODULATED_TRIALS`` cases, and the sampling
    stage ``trials`` independent rounding draws, checked against the
    n^-1/2 ln n concentration threshold.  Deterministic given
    (n, seed, trials).  ``trials`` below 1 is a ValueError: a concentration
    check over no draws measures nothing.

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
    checks = _records(_VERIFY_STAGES, _stage_outcomes(_verify_results(m, seed, trials)))
    return VerificationReport(SCHEMA_VERSION, "verify", n, seed, checks)


def _verify_results(m, seed: int, trials: int):
    """Yield the result of each row of ``_VERIFY_STAGES`` in turn; each stage
    is the code before its yield."""
    n = m.n
    rng = RngStream(seed)

    design = cons.reference_design()
    check = cons.validate_design(design)
    yield {"violations": len(check.violations)}, None, check.ok, False

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
    yield measured, None, ok, False

    check = cons.freiman_check()
    yield {"ok": check.ok}, None, check.ok, False

    signs = cons.sign_grid(design)
    lift_total = ap4_sum_z(cons.lift_signal(signs))
    grid_total = cons.grid_ap4_sum(signs)
    measured = {"lift_sum": lift_total, "grid_sum": grid_total}
    yield measured, None, lift_total == -72 and grid_total == -72, False

    f = cons.build_interval_signal(m)
    t = cons.interval_block_length(m)
    p = cons.interval_progression_count(t)
    mean = apk_mean_zn([f, f, f, f])
    del f
    ef = mean.value
    measured = {"t": t, "p": p, "numerator": mean.exact_numerator}
    yield measured, None, mean.exact_numerator == -72 * p, False

    yield {"value": ef}, -1e-5, ef <= -1e-5, False

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
    yield {"value": worst, "trials": FLATNESS_TRIALS}, 1e-9, worst <= 1e-9, False

    sub = rng.child(1)
    bound = 2.0 * _log_scale(n)
    worst = 0.0
    for _ in range(MODULATED_TRIALS):
        ws, wl, wa, wb, wc = sub.words(5).tolist()
        interval = IntervalZn(ws % n, 1 + wl % (n - 1))
        a, b, c = 1 + wa % (n - 1), wb % n, wc % n
        worst = max(worst, modulated_interval_uniformity_check(m, interval, (a, b, c)))
    yield {"value": worst, "trials": MODULATED_TRIALS}, bound, worst <= bound, False

    g = cons.build_modulated_signal(m)
    sp_g = dft(g)
    bound = 512.0 * _log_scale(n)
    top = max_coefficient(sp_g)
    measured = {
        "value": top,
        "uniformity": uniformity(sp_g),
        "mean": signal_stats(g).mean,
    }
    # |G| <= 4 already caps every coefficient at 4, so the bound is
    # informative only once 512 n^-1/2 ln n < 4.
    yield measured, bound, top <= bound, bound >= 4.0

    cls = cons.classify_patterns()
    null_sigs = sorted((pc.p, pc.q, pc.r, pc.s) for pc in cls.null)
    ok = (
        null_sigs == [(-1, 3, -3, 1), (1, -3, 3, -1)]
        and all(pc.v == 0 for pc in cls.null)
        and len(cls.all_patterns) == 256
    )
    measured = {"null_count": len(cls.null), "null_v": [pc.v for pc in cls.null]}
    yield measured, None, ok, False

    eg = apk_mean_zn([g] * 4).value
    diff = abs(eg - 2.0 * ef)
    bound = 2.0**18 * _log_scale(n)
    measured = {"value": diff, "modulated_mean": eg, "interval_mean": ef}
    # The trivial cap is |EG| + 2|EF| <= 4^4 + 2.
    yield measured, bound, diff <= bound, bound >= 258.0

    p_sig = cons.build_probability_signal(m)
    sp_p = dft(p_sig)
    bound64 = 64.0 * _log_scale(n)
    stats = signal_stats(p_sig)
    spectrum_err = float(np.abs(sp_p.coeffs[1:] - sp_g.coeffs[1:] / 8.0).max())
    mean_offset = abs(stats.mean - 0.5)
    unif = uniformity(sp_p)
    del sp_g, sp_p
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
    yield measured, None, ok, bound64 >= 0.5

    ones = constant_signal(m, 1)
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
    total += eg
    total *= 2.0**-12
    lead_term = 2.0**-12 * 4.0**4 * means[0]
    direct = apk_mean_zn([p_sig] * 4).value
    diff = abs(total - direct)
    measured = {
        "value": diff,
        "direct": direct,
        "expansion": total,
        "lead_term_exact": lead_term == 0.0625,
        "modulated_term": 2.0**-12 * eg,
    }
    yield measured, 1e-10, diff <= 1e-10 and lead_term == 0.0625, False

    threshold = _log_scale(n)
    allowed = trials // 20
    sub = rng.child(2)
    densities = []
    deviations = []
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
    density_ok = all(abs(d - stats.mean) <= 4.0 / math.sqrt(n) for d in densities)
    value = sorted(deviations)[-(allowed + 1)]
    measured = {
        "value": value,
        "densities": densities,
        "max_deviations": deviations,
        "exceed_count": exceed,
        "allowed_exceed": allowed,
        "density_ok": density_ok,
    }
    yield measured, threshold, value <= threshold and density_ok, False


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
    after another.  Either way every modulus is measured, and ``_records``
    reads one stage list, the measurements in the order of n_list and then
    the ratios, so a failed or out-of-memory measurement is reported as if
    the moduli had run in that order: the report is the same apart from
    runtime_ms, which each process measures for its own moduli.
    """
    if not n_list:
        raise ValueError("the scaling series needs at least one modulus")
    moduli = [make_modulus(n) for n in n_list]
    for m in moduli:
        cons.interval_block_length(m)
    outcomes = _outcomes_across_processes(_scaling_row, moduli, [m.n for m in moduli])
    stages = [(f"scaling_measurements@{m.n}", "normalized-series-recorded") for m in moduli]
    stages += [
        (f"scaling_ratio@{ma.n}->{mb.n}", "consecutive-normalized-ratios-in-[0.1,10]")
        for ma, mb in itertools.pairwise(moduli)
    ]
    # The ratios are first resumed only once every measurement passed, so
    # the rows they read are all measured.
    ratios = _ratio_results(o.result[0] for o in outcomes)
    checks = _records(stages, itertools.chain(outcomes, _stage_outcomes(ratios)))
    return VerificationReport(SCHEMA_VERSION, "scaling", n_list[0], 0, checks)


def _ratio_results(rows):
    """Yield the ratio check of each consecutive pair of ``_scaling_row`` rows."""
    for a, b in itertools.pairwise(rows):
        ur = b["normalized_uniformity"] / a["normalized_uniformity"]
        dr = b["normalized_difference"] / a["normalized_difference"]
        ok = 0.1 <= ur <= 10.0 and 0.1 <= dr <= 10.0
        measured = {"uniformity_ratio": ur, "difference_ratio": dr}
        yield measured, None, ok, False


# The stages of ``demo-quad`` as (name, claim_ref), in the order ``_demo_results`` runs them.
_DEMO_STAGES = (
    ("level_set_density", "density-close-to-2c"),
    ("level_set_uniformity", "uniformity-below-half-density"),
    ("threeap_vs_cube", "threeap-mean-within-20pct-of-density^3"),
    ("fourap_excess", "fourap-mean-exceeds-density^4-at-small-density"),
)


def run_demo_quadratic(n: int, c: float) -> VerificationReport:
    """Build the quadratic level set and compare its progression counts
    against the random-set benchmarks density^3 and density^4.

    At small density the 4-AP count runs well above density^4 (the excess is
    what makes plain spectral flatness insufficient for 4-term counts); near
    density 1/2 all counts sit close to the random values.  The stages are
    the rows of ``_DEMO_STAGES``.
    """
    m = make_modulus(n)
    if not 0.0 < c < 0.25:
        # checked before the stages so that a bad c is an input error, not a failed check
        raise ValueError("c must lie in (0, 1/4)")
    checks = _records(_DEMO_STAGES, _stage_outcomes(_demo_results(m, c)))
    return VerificationReport(SCHEMA_VERSION, "demo-quad", n, 0, checks)


def _demo_results(m, c: float):
    """Yield the result of each row of ``_DEMO_STAGES`` in turn; each stage
    is the code before its yield."""
    n = m.n
    a = cons.quadratic_level_set(m, c)
    density = signal_stats(a).mean
    dev = abs(density - 2.0 * c)
    bound = 2.0 / math.sqrt(n)
    yield {"value": dev, "density": density, "target": 2.0 * c}, bound, dev <= bound, False

    unif = uniformity(dft(a))
    bound = density / 2.0
    yield {"value": unif, "density": density}, bound, unif <= bound, False

    threeap = apk_mean_zn([a, a, a]).value
    alpha3 = density**3
    rel = abs(threeap - alpha3) / alpha3
    measured = {"value": rel, "threeap_mean": threeap, "density_cubed": alpha3}
    yield measured, 0.2, rel <= 0.2, False

    fourap = apk_mean_zn([a, a, a, a]).value
    alpha4 = density**4
    ratio = fourap / alpha4
    if c <= 0.1:
        ok = ratio >= 1.1
    elif c >= 0.2:
        ok = abs(ratio - 1.0) <= 0.1
    else:
        ok = ratio >= 0.9
    measured = {"value": ratio, "fourap_mean": fourap, "density_fourth": alpha4}
    yield measured, None, ok, False
