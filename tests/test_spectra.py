"""Transform correctness, uniformity, and the interval/phase coefficient facts."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap4kit as k
from ap4kit.errors import DegenerateQuadraticError
from ap4kit.report import FLATNESS_TRIALS


def _naive_coeffs(values, n):
    """Independent reference transform, pure Python."""
    out = []
    for r in range(n):
        acc = 0j
        for x in range(n):
            acc += values[x] * cmath.exp(-2j * cmath.pi * ((r * x) % n) / n)
        out.append(acc / n)
    return out


def _direct_coeffs(values, n):
    """The defining O(n^2) transform in numpy, one frequency per row of exponents.

    Exponents r*x are reduced mod n in integer arithmetic before the root of
    unity is evaluated; r*x < 2**62 for n < 2**31, so int64 is exact.
    """
    xs = np.arange(n, dtype=np.int64)
    table = np.exp(-2j * np.pi * xs / n)
    vals = values.astype(np.complex128)
    out = np.empty(n, dtype=np.complex128)
    for r in range(n):
        out[r] = table[(r * xs) % n].dot(vals)
    return out / n


def _interval_coeff_bound(m, r):
    """The geometric-series bound 2 / (n |1 - w^r|) on |I^(r)| for any interval I."""
    n = m.n
    rr = r % n
    if rr == 0:
        raise ValueError("the bound is defined for nonzero frequencies")
    s = min(rr, n - rr)
    return 1.0 / (n * math.sin(math.pi * s / n))


def _interval_coeff_bound_sum(m):
    """1 + sum over r != 0 of min(1, bound(r)); at most 1 + 2 ln n."""
    n = m.n
    s = np.minimum(np.arange(1, n, dtype=np.int64), n - np.arange(1, n, dtype=np.int64))
    bounds = 1.0 / (n * np.sin(np.pi * s / n))
    return 1.0 + float(np.minimum(1.0, bounds).sum())


def _random_signal(m, seed, scale=4.0):
    rng = k.RngStream(seed)
    words = rng.words(m.n)
    vals = (words.astype(np.float64) / 2.0**64 - 0.5) * 2.0 * scale
    return k.ZnSignal(m, vals)


def _indicator(m, interval):
    """The exact 0/1 indicator of an interval of Z_n."""
    vals = np.zeros(m.n, dtype=np.int64)
    vals[interval.residues(m)] = 1
    return k.ZnSignal(m, vals)


class TestDftBasics:
    def test_unit_mass(self):
        m = k.make_modulus(11)
        vals = np.zeros(11, dtype=np.int64)
        vals[0] = 1
        sp = k.dft(k.ZnSignal(m, vals))
        assert np.abs(sp.coeffs - 1 / 11).max() < 1e-12

    def test_coefficient_count_checked(self):
        m = k.make_modulus(11)
        with pytest.raises(ValueError):
            k.Spectrum(m, np.zeros(10, dtype=np.complex128))

    def test_constant(self):
        m = k.make_modulus(11)
        sp = k.dft(k.constant_signal(m, 1))
        assert abs(sp.coeffs[0] - 1) < 1e-12
        assert np.abs(sp.coeffs[1:]).max() < 1e-12

    def test_quadratic_phase_z5_flat(self):
        # direct 5x5 evaluation: every coefficient of w^(x^2) has modulus 5^-1/2
        m = k.make_modulus(5)
        s = k.quadratic_phase_signal(m, 1)
        ref = _naive_coeffs(s.values.tolist(), 5)
        sp = k.dft(s)
        for r in range(5):
            assert abs(abs(ref[r]) - 5**-0.5) < 1e-12
            assert abs(sp.coeffs[r] - ref[r]) < 1e-12

    @pytest.mark.parametrize("n", [5, 101, 10007])
    def test_quadratic_phase_matches_uncached_formula(self, n):
        # the table is cached per modulus; a phase must equal the one built from a new table
        m = k.make_modulus(n)
        xs = np.arange(n, dtype=np.int64)
        for a, b, c in ((1, 0, 0), (3, n - 1, 7), (n - 2, 5, n + 3), (-4, -9, -1)):
            e = ((a % n) * (xs * xs % n) % n + (b % n) * xs % n + c % n) % n
            want = np.exp(2j * np.pi * np.arange(n) / n)[e]
            s = k.quadratic_phase_signal(m, a, b, c)
            assert np.array_equal(s.values, want)
            assert not s.values.flags.writeable

    @pytest.mark.parametrize("n", [5, 101, 10007])
    def test_pure_chirp_matches_three_term_formula(self, n):
        # b and c that are 0 mod n are skipped; the bytes must not change
        m = k.make_modulus(n)
        xs = np.arange(n, dtype=np.int64)
        table = np.exp(2j * np.pi * np.arange(n) / n)
        for a, b, c in ((1, 0, 0), (n - 1, n, -n), (-3, 2 * n, 0), (7 * n + 2, 0, 3 * n)):
            e = (((a % n) * (xs * xs % n) % n + (b % n) * xs) % n + c % n) % n
            assert k.quadratic_phase_signal(m, a, b, c).values.tobytes() == table[e].tobytes()
            assert k.quadratic_phase_signal(m, a).values.tobytes() == table[e].tobytes()

    def test_quadratic_phase_table_is_read_only(self):
        from ap4kit.spectra import _roots_of_unity

        k.quadratic_phase_signal(k.make_modulus(101), 1)
        table = _roots_of_unity(101)
        assert table is _roots_of_unity(101)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0

    def test_matches_reference_small(self):
        for n, seed in ((11, 1), (101, 2)):
            m = k.make_modulus(n)
            s = _random_signal(m, seed)
            ref = _naive_coeffs(s.values.tolist(), n)
            sp = k.dft(s)
            assert max(abs(sp.coeffs[r] - ref[r]) for r in range(n)) < 1e-9

    def test_fast_path_matches_direct(self):
        # small and large prime lengths
        for n, seed in ((101, 2), (1009, 3), (2003, 4)):
            m = k.make_modulus(n)
            s = _random_signal(m, seed)
            fast = k.dft(s).coeffs
            direct = _direct_coeffs(s.values, n)
            assert float(np.abs(fast - direct).max()) < 1e-9

    def test_inversion(self):
        m = k.make_modulus(101)
        for seed in range(50):
            s = _random_signal(m, seed + 10)
            rec = np.fft.ifft(k.dft(s).coeffs) * m.n
            assert float(np.abs(rec - s.values).max()) < 1e-9


class TestSpectrumProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=101, max_size=101))
    def test_parseval(self, vals):
        m = k.make_modulus(101)
        s = k.ZnSignal(m, np.array(vals))
        sp = k.dft(s)
        lhs = float((np.abs(sp.coeffs) ** 2).sum())
        rhs = math.fsum(v * v for v in vals) / 101
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=101, max_size=101))
    def test_conjugate_symmetry(self, vals):
        m = k.make_modulus(101)
        sp = k.dft(k.ZnSignal(m, np.array(vals)))
        flipped = np.concatenate(([sp.coeffs[0]], sp.coeffs[:0:-1]))
        assert float(np.abs(sp.coeffs - flipped.conj()).max()) < 1e-12

    def test_shift_invariance(self):
        m = k.make_modulus(101)
        s = _random_signal(m, 77)
        shifted = k.ZnSignal(m, np.roll(s.values, 13))
        a = np.abs(k.dft(s).coeffs)
        b = np.abs(k.dft(shifted).coeffs)
        assert float(np.abs(a - b).max()) < 1e-12
        assert k.uniformity(k.dft(s)) == pytest.approx(k.uniformity(k.dft(shifted)), abs=1e-12)


class TestUniformity:
    def test_constant_is_zero(self):
        m = k.make_modulus(11)
        assert k.uniformity(k.dft(k.constant_signal(m, 3))) <= 1e-12

    def test_quadratic_phase_10007(self):
        m = k.make_modulus(10007)
        u = k.uniformity(k.dft(k.quadratic_phase_signal(m, 1)))
        assert abs(u - 10007**-0.5) < 1e-9

    def test_interval_half_length(self):
        # closed-form geometric-sum oracle: |I^(r)| = |sin(pi L r / n)| / (n sin(pi r / n))
        n = 10007
        length = 5003
        m = k.make_modulus(n)
        s = _indicator(m, k.IntervalZn(0, length))
        u = k.uniformity(k.dft(s))
        rs = np.arange(1, n)
        oracle = np.abs(np.sin(np.pi * length * rs / n)) / (n * np.sin(np.pi * rs / n))
        assert 0.0 < u < 0.5
        assert abs(u - float(oracle.max())) < 1e-9


class TestIntervalCoeffBound:
    def test_value_at_r1(self):
        m = k.make_modulus(10007)
        val = _interval_coeff_bound(m, 1)
        omega = cmath.exp(2j * cmath.pi / 10007)
        assert val == pytest.approx(2.0 / (10007 * abs(1 - omega)), rel=1e-12)
        assert val == pytest.approx(0.3183, abs=5e-4)

    def test_zero_frequency_rejected(self):
        m = k.make_modulus(11)
        with pytest.raises(ValueError):
            _interval_coeff_bound(m, 0)
        with pytest.raises(ValueError):
            _interval_coeff_bound(m, 22)

    def test_exhaustive_n5(self):
        m = k.make_modulus(5)
        bounds = [_interval_coeff_bound(m, r) for r in range(1, 5)]
        for start in range(5):
            for length in range(1, 5):
                s = _indicator(m, k.IntervalZn(start, length))
                mags = np.abs(k.dft(s).coeffs)
                for r in range(1, 5):
                    assert mags[r] <= bounds[r - 1] + 1e-12

    def test_random_intervals_10007(self):
        n = 10007
        m = k.make_modulus(n)
        rs = np.arange(1, n)
        folded = np.minimum(rs, n - rs)
        bounds = 1.0 / (n * np.sin(np.pi * folded / n))
        rng = k.RngStream(11)
        for _ in range(100):
            start = rng.next_word() % n
            length = 1 + rng.next_word() % (n - 1)
            s = _indicator(m, k.IntervalZn(start, length))
            mags = np.abs(k.dft(s).coeffs[1:])
            assert (mags <= bounds + 1e-12).all()

    def test_capped_sum_below_2_log_n(self):
        for n in (5, 101, 1009, 10007):
            m = k.make_modulus(n)
            assert _interval_coeff_bound_sum(m) <= 1.0 + 2.0 * math.log(n)

    def test_sine_gap_inequality(self):
        # |1 - w^r| >= 4 |r| / n on the folded range, used by the l1 estimate
        for n in (5, 101, 1009):
            for r in range(1, n):
                folded = min(r, n - r)
                gap = abs(1 - cmath.exp(2j * cmath.pi * r / n))
                assert gap >= 4.0 * folded / n - 1e-12


class TestGaussFlatness:
    def test_exhaustive_small_primes(self):
        for n in (5, 7, 11):
            m = k.make_modulus(n)
            for a in range(1, n):
                for b in range(n):
                    mags = np.abs(k.dft(k.quadratic_phase_signal(m, a, b)).coeffs)
                    assert float(np.abs(mags - n**-0.5).max()) < 1e-9

    def test_sampled_larger_primes(self):
        rng = k.RngStream(13)
        for n in (101, 10007):
            m = k.make_modulus(n)
            for _ in range(10):
                a = 1 + rng.next_word() % (n - 1)
                b = rng.next_word() % n
                mags = np.abs(k.dft(k.quadratic_phase_signal(m, a, b)).coeffs)
                assert float(np.abs(mags - n**-0.5).max()) < 1e-9


    def test_verify_phases_flat_at_gauss_sum(self):
        # the flatness stage of run_verify(10007, 7, 20) reads |G(a)| / n, G(a)
        # the sum of w^(a y^2), for every coefficient of w^(a x^2 + b x); the
        # transforms here agree with it within 3.0e-15 relative, their own rounding
        n = 10007
        m = k.make_modulus(n)
        sub = k.RngStream(7).child(0)
        for _ in range(FLATNESS_TRIALS):
            wa, wb = sub.words(2).tolist()
            a, b = 1 + wa % (n - 1), wb % n
            gauss = abs(complex(k.quadratic_phase_signal(m, a).values.sum())) / n
            mags = np.abs(k.dft(k.quadratic_phase_signal(m, a, b)).coeffs)
            np.testing.assert_allclose(mags, gauss, rtol=1e-14, atol=0)
            assert abs(gauss - n**-0.5) < 1e-16


def _fft_modulated_max(m, intervals, quad):
    """max over r of |coefficient r| of I(x) w^(a x^2 + b x + c), by FFT, per interval.

    The transform route the window sums replaced: the indicator of each
    interval times the phase, one FFT per row.
    """
    a, b, c = quad
    phase = k.quadratic_phase_signal(m, a, b, c).values
    rows = np.zeros((len(intervals), m.n), dtype=np.float64)
    for row, interval in zip(rows, intervals):
        row[interval.residues(m)] = 1.0
    return np.abs(np.fft.fft(rows * phase, axis=1) / m.n).max(axis=1)


def _window_max(m, intervals, quad):
    return np.array(
        [k.modulated_interval_uniformity_check(m, iv, quad) for iv in intervals]
    )


class TestModulatedInterval:
    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_exhaustive_small_primes(self, n):
        # every a != 0, b, c, start and length
        m = k.make_modulus(n)
        intervals = [k.IntervalZn(s, l) for s in range(n) for l in range(1, n + 1)]
        for a in range(1, n):
            for b in range(n):
                for c in range(n):
                    quad = (a, b, c)
                    np.testing.assert_allclose(
                        _window_max(m, intervals, quad),
                        _fft_modulated_max(m, intervals, quad),
                        rtol=1e-12,
                        atol=0,
                    )

    @pytest.mark.parametrize("n", [1009, 10007, 40009])
    def test_sampled_against_fft(self, n):
        m = k.make_modulus(n)
        rng = k.RngStream(n)
        for _ in range(6):
            quad = (
                1 + rng.next_word() % (n - 1),
                rng.next_word() % n,
                rng.next_word() % n,
            )
            start = rng.next_word() % n
            intervals = [
                k.IntervalZn(start, 1 + rng.next_word() % n),
                k.IntervalZn(start, 1),
                k.IntervalZn(start, n - 1),
                k.IntervalZn(start, n),
                k.IntervalZn(n - 1, 2),  # wraps across 0
                k.IntervalZn(n - 3, n // 2),
                k.IntervalZn(0, 1 + rng.next_word() % n),
            ]
            np.testing.assert_allclose(
                _window_max(m, intervals, quad),
                _fft_modulated_max(m, intervals, quad),
                rtol=1e-12,
                atol=0,
            )

    def test_unfit_interval_rejected(self):
        m = k.make_modulus(101)
        for interval in (k.IntervalZn(0, 102), k.IntervalZn(101, 1), k.IntervalZn(500, 3)):
            with pytest.raises(ValueError):
                k.modulated_interval_uniformity_check(m, interval, (1, 0, 0))

    def test_full_interval_reduces_to_phase(self):
        n = 10007
        m = k.make_modulus(n)
        measured = k.modulated_interval_uniformity_check(m, k.IntervalZn(0, n), (1, 0, 0))
        assert abs(measured - n**-0.5) < 1e-9
        assert measured <= 2 * math.log(n) / math.sqrt(n)

    def test_prefix_interval(self):
        n = 10007
        m = k.make_modulus(n)
        measured = k.modulated_interval_uniformity_check(m, k.IntervalZn(0, 1001), (1, 0, 0))
        assert isinstance(measured, float)
        bound = 2 * math.log(n) / math.sqrt(n)
        assert bound == pytest.approx(0.1842, abs=5e-4)
        assert measured <= bound

    def test_degenerate_rejected(self):
        m = k.make_modulus(10007)
        with pytest.raises(DegenerateQuadraticError):
            k.modulated_interval_uniformity_check(m, k.IntervalZn(0, 1001), (0, 1, 0))
        with pytest.raises(DegenerateQuadraticError):
            k.modulated_interval_uniformity_check(m, k.IntervalZn(0, 5), (10007, 1, 0))


class TestMaxCoefficientsOfParts:
    @pytest.mark.parametrize("n", [5, 7, 101, 1009, 6007])
    def test_matches_two_transforms(self, n):
        m = k.make_modulus(n)
        x = _random_signal(m, 2 * n)
        y = _random_signal(m, 2 * n + 1, scale=0.5)
        got = k.max_coefficients_of_parts(x.values + 1j * y.values)
        want = (k.max_coefficient(k.dft(x)), k.max_coefficient(k.dft(y)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_zero_imaginary_part(self):
        m = k.make_modulus(1009)
        x = _random_signal(m, 3)
        top, rest = k.max_coefficients_of_parts(x.values.astype(np.complex128))
        assert top == pytest.approx(k.max_coefficient(k.dft(x)), rel=1e-12)
        assert rest <= 1e-12 * top  # rounding only: Z_-r is conj Z_r up to a few ulps

    def test_frequency_zero_and_top_frequency(self):
        # the maxima sit at r = 0 for Re z and at r = (n - 1) / 2 for Im z
        n = 11
        xs = np.arange(n)
        x = np.full(n, 3.0)
        y = np.cos(2 * np.pi * 5 * xs / n)
        top, rest = k.max_coefficients_of_parts(x + 1j * y)
        assert top == pytest.approx(3.0, rel=1e-12)
        assert rest == pytest.approx(0.5, rel=1e-12)


class TestCsvExport:
    def test_row_count_and_precision(self, tmp_path):
        m = k.make_modulus(101)
        sp = k.dft(_random_signal(m, 5))
        path = tmp_path / "spec.csv"
        k.save_spectrum_csv(sp, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,re,im,abs"
        assert len(lines) == 102
        r, re, im, mag = lines[3].split(",")
        assert int(r) == 2
        assert float(re) == sp.coeffs[2].real
        assert float(im) == sp.coeffs[2].imag
        assert float(mag) == abs(sp.coeffs[2])
