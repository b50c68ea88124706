"""Transform correctness, uniformity, and the interval/phase coefficient facts."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap4kit as k
from ap4kit.errors import DegenerateQuadraticError


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
        rhs = k.signal_stats(s).l2_mean
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
        s = k.signal_from_weighted_intervals(m, [(k.IntervalZn(0, length), 1)])
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
                s = k.signal_from_weighted_intervals(m, [(k.IntervalZn(start, length), 1)])
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
            s = k.signal_from_weighted_intervals(m, [(k.IntervalZn(start, length), 1)])
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


class TestModulatedInterval:
    def test_full_interval_reduces_to_phase(self):
        n = 10007
        m = k.make_modulus(n)
        measured, bound = k.modulated_interval_uniformity_check(
            m, k.IntervalZn(0, n), (1, 0, 0)
        )
        assert abs(measured - n**-0.5) < 1e-9
        assert measured <= bound

    def test_prefix_interval(self):
        n = 10007
        m = k.make_modulus(n)
        measured, bound = k.modulated_interval_uniformity_check(
            m, k.IntervalZn(0, 1001), (1, 0, 0)
        )
        assert bound == pytest.approx(2 * math.log(n) / math.sqrt(n), rel=1e-12)
        assert bound == pytest.approx(0.1842, abs=5e-4)
        assert measured <= bound

    def test_degenerate_rejected(self):
        m = k.make_modulus(10007)
        with pytest.raises(DegenerateQuadraticError):
            k.modulated_interval_uniformity_check(m, k.IntervalZn(0, 1001), (0, 1, 0))
        with pytest.raises(DegenerateQuadraticError):
            k.modulated_interval_uniformity_check(m, k.IntervalZn(0, 5), (10007, 1, 0))


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
