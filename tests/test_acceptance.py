"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the criterion at its stated tolerance.
"""

import itertools
import math
import time

import numpy as np
import pytest

import ap4kit as k


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def m10007():
    return k.make_modulus(10007)


@pytest.fixture(scope="module")
def f10007(m10007):
    return k.build_interval_signal(m10007)


@pytest.fixture(scope="module")
def g10007(m10007):
    return k.build_modulated_signal(m10007)


@pytest.fixture(scope="module")
def p10007(m10007):
    return k.build_probability_signal(m10007)


@pytest.fixture(scope="module")
def ef10007(f10007):
    return k.apk_mean_zn([f10007] * 4)


@pytest.fixture(scope="module")
def eg10007(g10007):
    return k.apk_mean_zn([g10007] * 4).value


def test_criterion_01_lift_sum_is_minus_72():
    start = time.perf_counter()
    total = k.ap4_sum_z(k.lift_signal(k.sign_grid(k.reference_design())))
    elapsed = time.perf_counter() - start
    _criterion(1, total == -72 and elapsed < 1.0, f"lifted 4-AP sum {total} in {elapsed:.3f}s")


def test_criterion_02_line_census_and_validation():
    start = time.perf_counter()
    lines = k.enumerate_lines()
    counts = {
        kind: sum(1 for l in lines if l.kind == kind)
        for kind in (k.AXIS, k.PLANE_DIAGONAL, k.MAIN_DIAGONAL)
    }
    valid = k.validate_design(k.reference_design()).ok
    elapsed = time.perf_counter() - start
    ok = (
        len(lines) == 76
        and counts[k.AXIS] == 48
        and counts[k.PLANE_DIAGONAL] == 24
        and counts[k.MAIN_DIAGONAL] == 4
        and valid
        and elapsed < 1.0
    )
    _criterion(2, ok, f"census {len(lines)} = {counts}, design valid = {valid}, {elapsed:.3f}s")


def test_criterion_03_freiman_and_ap_transfer():
    start = time.perf_counter()
    freiman_ok = k.freiman_check().ok

    points = [p for p in itertools.product(range(1, 5), repeat=3)]
    images = {p: k.embed_triple(*p) for p in points}
    image_set = set(images.values())
    by_image = {v: p for p, v in images.items()}
    grid_aps = 0
    transfer_ok = True
    for x in points:
        for d in itertools.product((-1, 0, 1), repeat=3):
            quad = [tuple(x[i] + j * d[i] for i in range(3)) for j in range(4)]
            if all(all(1 <= c <= 4 for c in q) for q in quad):
                grid_aps += 1
                vals = [images[q] for q in quad]
                if not vals[1] - vals[0] == vals[2] - vals[1] == vals[3] - vals[2]:
                    transfer_ok = False
    image_aps = 0
    for v in image_set:
        for step in range(-73, 74):
            quad = [v + j * step for j in range(4)]
            if all(q in image_set for q in quad):
                image_aps += 1
                pts = [by_image[q] for q in quad]
                diffs = {
                    tuple(b - a for a, b in zip(p, q)) for p, q in zip(pts, pts[1:])
                }
                if len(diffs) != 1:
                    transfer_ok = False
    elapsed = time.perf_counter() - start
    ok = freiman_ok and transfer_ok and image_aps == grid_aps and elapsed < 10.0
    _criterion(
        3,
        ok,
        f"difference map ok={freiman_ok}, {grid_aps} grid APs <-> {image_aps} image APs, {elapsed:.3f}s",
    )


def test_criterion_04_exact_interval_numerator(ef10007):
    start = time.perf_counter()
    t = k.interval_block_length(k.make_modulus(10007))
    # independent closed-form oracle for p at t = 8
    residue_counts = [0, 0, 0]
    for x in range(1, t + 1):
        residue_counts[x % 3] += 1
    p_oracle = sum(c * c for c in residue_counts)
    elapsed = time.perf_counter() - start
    ok = (
        t == 8
        and p_oracle == 22
        and ef10007.exact_numerator == -72 * p_oracle == -1584
        and ef10007.value <= -1e-5
        and elapsed < 30.0
    )
    _criterion(
        4,
        ok,
        f"t={t}, numerator={ef10007.exact_numerator} = -72*{p_oracle}, mean={ef10007.value:.5g}",
    )


def test_criterion_05_phase_flatness_and_modulated_intervals(m10007):
    rng = k.RngStream(2024)
    worst_flat = 0.0
    for n in (5, 101, 10007):
        m = k.make_modulus(n)
        target = n**-0.5
        for _ in range(10):
            a = 1 + rng.next_word() % (n - 1)
            b = rng.next_word() % n
            mags = np.abs(k.dft(k.quadratic_phase_signal(m, a, b)).coeffs)
            worst_flat = max(worst_flat, float(np.abs(mags - target).max()))

    n = 10007
    bound = 2.0 * math.log(n) / math.sqrt(n)
    worst_mod = 0.0
    for _ in range(100):
        start_res = rng.next_word() % n
        length = 1 + rng.next_word() % (n - 1)
        a = 1 + rng.next_word() % (n - 1)
        b = rng.next_word() % n
        measured = k.modulated_interval_uniformity_check(
            m10007, k.IntervalZn(start_res, length), (a, b, 0)
        )
        worst_mod = max(worst_mod, measured)
    ok = worst_flat <= 1e-9 and worst_mod <= bound
    _criterion(
        5,
        ok,
        f"flatness deviation {worst_flat:.2e} <= 1e-9; modulated max {worst_mod:.4f} <= {bound:.4f}",
    )


def test_criterion_06_pattern_structure_and_difference_bound(ef10007, eg10007):
    cls = k.classify_patterns()
    null_sigs = sorted((pc.p, pc.q, pc.r, pc.s) for pc in cls.null)
    structure_ok = null_sigs == [(-1, 3, -3, 1), (1, -3, 3, -1)] and all(
        pc.v == 0 for pc in cls.null
    )

    # 256-term regrouping against the direct mean at n = 1201
    m1201 = k.make_modulus(1201)
    f_small = k.build_interval_signal(m1201)
    g_small = k.build_modulated_signal(m1201)
    direct = k.apk_mean_zn([g_small] * 4).value
    regrouped = sum(
        k.modulated_ap4_mean(f_small, (pc.u, pc.v, pc.w)) for pc in cls.all_patterns
    )
    expansion_err = abs(regrouped.real - direct) + abs(regrouped.imag)

    diff_ok = True
    vacuous_notes = []
    for n in (6007, 10007):
        m = k.make_modulus(n)
        if n == 10007:
            ef, eg = ef10007.value, eg10007
        else:
            f = k.build_interval_signal(m)
            g = k.build_modulated_signal(m)
            ef = k.apk_mean_zn([f] * 4).value
            eg = k.apk_mean_zn([g] * 4).value
        bound = 2.0**18 * math.log(n) / math.sqrt(n)
        diff = abs(eg - 2.0 * ef)
        diff_ok = diff_ok and diff <= bound
        vacuous_notes.append(f"n={n}: diff={diff:.3g} <= {bound:.3g} (vacuous={bound >= 258})")

    ok = structure_ok and expansion_err <= 1e-6 and diff_ok
    _criterion(
        6,
        ok,
        f"null patterns {null_sigs}, expansion error {expansion_err:.2e} <= 1e-6; "
        + "; ".join(vacuous_notes),
    )


def test_criterion_07_probability_signal_structure(m10007, g10007, p10007, eg10007):
    stats = k.signal_stats(p10007)
    range_ok = stats.minimum >= 0.0 and stats.maximum <= 1.0

    sp_g = k.dft(g10007)
    sp_p = k.dft(p10007)
    spectrum_err = float(np.abs(sp_p.coeffs[1:] - sp_g.coeffs[1:] / 8.0).max())

    ones = k.constant_signal(m10007, 1)
    expansion = 0.0
    for size in range(4):
        for positions in itertools.combinations(range(4), size):
            sigs = [g10007 if i in positions else ones for i in range(4)]
            expansion += 4.0 ** (4 - size) * k.apk_mean_zn(sigs).value
    expansion += eg10007
    expansion *= 2.0**-12
    direct = k.apk_mean_zn([p10007] * 4).value
    expansion_err = abs(expansion - direct)

    lead_term = 2.0**-12 * 4.0**4 * k.apk_mean_zn([ones] * 4).value
    modulated_term = 2.0**-12 * k.apk_mean_zn([g10007] * 4).value

    ok = (
        range_ok
        and spectrum_err <= 1e-12
        and expansion_err <= 1e-10
        and lead_term == 1.0 / 16.0
        and modulated_term == 2.0**-12 * eg10007
    )
    _criterion(
        7,
        ok,
        f"range [{stats.minimum:.2g},{stats.maximum:.6g}], spectrum err {spectrum_err:.2e} <= 1e-12, "
        f"expansion err {expansion_err:.2e} <= 1e-10, lead term exactly 1/16",
    )


def test_criterion_08_scaling_band():
    start = time.perf_counter()
    report = k.run_scaling([10007, 20011, 40009])
    elapsed = time.perf_counter() - start
    ratios = []
    band_ok = True
    for name in ("scaling_ratio@10007->20011", "scaling_ratio@20011->40009"):
        check = report.check(name)
        ur = check.measured["uniformity_ratio"]
        dr = check.measured["difference_ratio"]
        ratios.append((ur, dr))
        band_ok = band_ok and 0.1 <= ur <= 10.0 and 0.1 <= dr <= 10.0
    ok = band_ok and report.passed() and elapsed < 600.0
    _criterion(8, ok, f"normalized consecutive ratios {ratios}, {elapsed:.1f}s < 600s")


def test_criterion_09_sampling_concentration(m10007, p10007):
    n = 10007
    threshold = math.log(n) / math.sqrt(n)
    sp_p = k.dft(p10007)
    seeds = k.RngStream(42)
    densities = []
    deviations = []
    for i in range(20):
        sample = k.sample_indicator(p10007, seeds.child(i))
        densities.append(k.signal_stats(sample).mean)
        deviations.append(float(np.abs(k.dft(sample).coeffs - sp_p.coeffs).max()))
    density_ok = all(0.48 <= d <= 0.52 for d in densities)
    within = sum(1 for d in deviations if d <= threshold)
    ok = density_ok and within >= 19
    _criterion(
        9,
        ok,
        f"densities in [{min(densities):.4f},{max(densities):.4f}] within [0.48,0.52]; "
        f"{within}/20 trials under threshold {threshold:.4f}",
    )


def test_criterion_10_pm1_minimum_at_18():
    start = time.perf_counter()
    result = k.min_ap4_pm1(18)
    elapsed = time.perf_counter() - start
    witness_ok = any(
        k.ap4_sum_z(k.IntSignalZ(1, w)) == -36 for w in result.witnesses
    )
    ok = result.exhaustive and result.best_value <= -36 and witness_ok and elapsed < 60.0
    _criterion(
        10,
        ok,
        f"minimum {result.best_value} (exhaustive over 2^18), witness at -36: {witness_ok}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_11_search_soundness():
    designs = k.search_grid_designs()
    ref = k.reference_design()
    contains_ref = any(d.points == ref.points for d in designs)
    all_valid = all(k.validate_design(d).ok for d in designs)
    # hand enumeration oracle at n = 4: 4 degenerate pairs + 2 f1f2f3f4 >= 2
    pm1_4 = k.min_ap4_pm1(4).best_value
    ok = contains_ref and all_valid and pm1_4 == 2
    _criterion(
        11,
        ok,
        f"{len(designs)} designs, reference included: {contains_ref}, all valid: {all_valid}, "
        f"pm1(4) = {pm1_4}",
    )


def test_criterion_12_linear_form_positivity():
    n = 101
    m = k.make_modulus(n)
    xs = np.arange(n)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    W = (X - 3 * Y + 3 * Z) % n
    rng = k.RngStream(4242)
    worst_gap = 0.0
    positivity_ok = True
    for trial in range(50):
        density = 0.1 + 0.8 * (trial / 50.0)
        cut = int(density * 2**64)
        vals = np.fromiter(
            (1 if rng.next_word() < cut else 0 for _ in range(n)), dtype=np.int64, count=n
        )
        b = k.ZnSignal(m, vals)
        val = k.linear_form_mean_fourier(b)
        brute = float((vals[X] * vals[Y] * vals[Z] * vals[W]).sum()) / n**3
        worst_gap = max(worst_gap, abs(val - brute))
        beta = float(vals.sum()) / n
        positivity_ok = positivity_ok and val >= beta**4 - 1e-9
    ok = worst_gap <= 1e-9 and positivity_ok
    _criterion(
        12,
        ok,
        f"max |fourier - brute| {worst_gap:.2e} <= 1e-9 over 50 indicators; >= density^4 held",
    )


def test_criterion_13_level_set_demo(m10007):
    a = k.quadratic_level_set(m10007, 0.05)
    density = k.signal_stats(a).mean
    unif = k.uniformity(k.dft(a))
    threeap = k.apk_mean_zn([a] * 3).value
    fourap = k.apk_mean_zn([a] * 4).value
    rel3 = abs(threeap - density**3) / density**3
    ratio4 = fourap / density**4
    ok = unif < density / 2.0 and rel3 <= 0.2 and ratio4 >= 1.1
    _criterion(
        13,
        ok,
        f"density {density:.4f}, uniformity {unif:.4f} < {density / 2:.4f}, "
        f"3-AP rel err {rel3:.3f} <= 0.2, 4-AP excess ratio {ratio4:.2f} >= 1.1",
    )
