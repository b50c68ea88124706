"""Exact and floating progression-counting kernels against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

import ap4kit as k
from ap4kit.apcount import _per_d_partials
from ap4kit.errors import ModulusMismatchError, NotIndicatorError


def _brute_ap4_sum(f: k.IntSignalZ) -> int:
    """Quadruple-product sum by direct iteration, independent of the kernel."""
    support = f.support()
    if not support:
        return 0
    lo, hi = min(support), max(support)
    span = hi - lo
    total = 0
    for x in range(lo - 1, hi + 2):
        for d in range(-span, span + 1):
            total += (
                f.value_at(x)
                * f.value_at(x + d)
                * f.value_at(x + 2 * d)
                * f.value_at(x + 3 * d)
            )
    return total


def _brute_partials(arrays):
    """partials[d] = sum_x prod_i arrays[i][(x + i d) mod n], a plain double sum over (x, d)."""
    n = len(arrays[0])
    partials = []
    for d in range(n):
        total = 0
        for x in range(n):
            prod = 1
            for i, a in enumerate(arrays):
                prod *= a[(x + i * d) % n]
            total += prod
        partials.append(total)
    return partials


def _random_int_signal(n, seed, lo=-2, hi=2):
    rng = k.RngStream(seed)
    vals = [int(rng.next_word() % (hi - lo + 1)) + lo for _ in range(n)]
    return vals


class TestAp4SumZ:
    def test_zero_signal(self):
        assert k.ap4_sum_z(k.IntSignalZ(0, ())) == 0

    def test_single_point(self):
        assert k.ap4_sum_z(k.IntSignalZ(7, (1,))) == 1

    def test_constant_block_of_four(self):
        # 4 degenerate pairs plus (1, d=1) and (4, d=-1)
        assert k.ap4_sum_z(k.IntSignalZ(1, (1, 1, 1, 1))) == 6

    def test_matches_brute_force(self):
        rng = k.RngStream(21)
        for case in range(30):
            length = 1 + case % 12
            vals = tuple(int(rng.next_word() % 5) - 2 for _ in range(length))
            f = k.IntSignalZ(1, vals)
            assert k.ap4_sum_z(f) == _brute_ap4_sum(f)

    def test_translation_invariance(self):
        vals = (1, -1, 0, 2, -2, 1)
        assert k.ap4_sum_z(k.IntSignalZ(1, vals)) == k.ap4_sum_z(k.IntSignalZ(500, vals))

    def test_mirror_decomposition(self):
        # total = d=0 diagonal + twice the d>0 half (each line is counted
        # twice, once from each end)
        f = k.IntSignalZ(1, (1, 1, -1, 1, 1, -1, 1, -1, 1, 1))
        support = f.support()
        lo, hi = min(support), max(support)
        diag = sum(f.value_at(x) ** 4 for x in range(lo, hi + 1))
        positive = 0
        for d in range(1, hi - lo + 1):
            for x in range(lo, hi + 1):
                positive += (
                    f.value_at(x)
                    * f.value_at(x + d)
                    * f.value_at(x + 2 * d)
                    * f.value_at(x + 3 * d)
                )
        assert k.ap4_sum_z(f) == diag + 2 * positive


class TestApkMeanZn:
    def test_all_ones(self):
        m = k.make_modulus(11)
        ones = k.constant_signal(m, 1)
        for count in (3, 4, 5):
            mean = k.apk_mean_zn([ones] * count)
            assert mean.value == 1.0
            assert mean.exact_numerator == 11 * 11
            assert mean.pair_count == 121

    def test_k_validated(self):
        m = k.make_modulus(11)
        ones = k.constant_signal(m, 1)
        for count in (2, 6):
            with pytest.raises(ValueError):
                k.apk_mean_zn([ones] * count)

    def test_modulus_mismatch(self):
        a = k.constant_signal(k.make_modulus(11), 1)
        b = k.constant_signal(k.make_modulus(13), 1)
        with pytest.raises(ModulusMismatchError):
            k.apk_mean_zn([a, a, b])

    def test_point_mass_counts_degenerate_pair(self):
        # only (x=0, d=0) contributes, so d=0 is part of the mean
        m = k.make_modulus(11)
        vals = np.zeros(11, dtype=np.int64)
        vals[0] = 1
        mean = k.apk_mean_zn([k.ZnSignal(m, vals)] * 4)
        assert mean.exact_numerator == 1

    def test_matches_brute_force(self):
        cases = [(11, 20), (31, 20), (101, 10)]
        seed = 0
        for n, reps in cases:
            m = k.make_modulus(n)
            for _ in range(reps):
                seed += 1
                sigs = []
                arrays = []
                for j in range(4):
                    vals = _random_int_signal(n, 1000 + seed * 10 + j)
                    arrays.append(vals)
                    sigs.append(k.ZnSignal(m, np.array(vals, dtype=np.int64)))
                mean = k.apk_mean_zn(sigs)
                assert mean.exact_numerator == sum(_brute_partials(arrays))
                assert mean.value == mean.exact_numerator / mean.pair_count

    def test_k3_matches_brute_force(self):
        n = 31
        m = k.make_modulus(n)
        arrays = [_random_int_signal(n, 5000 + j) for j in range(3)]
        sigs = [k.ZnSignal(m, np.array(a, dtype=np.int64)) for a in arrays]
        assert k.apk_mean_zn(sigs).exact_numerator == sum(_brute_partials(arrays))

    def test_float_path_agrees_with_exact(self):
        n = 101
        m = k.make_modulus(n)
        vals = _random_int_signal(n, 99)
        exact = k.apk_mean_zn([k.ZnSignal(m, np.array(vals, dtype=np.int64))] * 4)
        floats = k.apk_mean_zn([k.ZnSignal(m, np.array(vals, dtype=np.float64))] * 4)
        assert floats.exact_numerator is None
        assert floats.value == pytest.approx(exact.value, abs=1e-12)

    def test_numerator_reduced_without_int64_wrap(self, monkeypatch):
        # two per-d partials of 2^62 sum to 2^63, one past the int64 range;
        # the signal is non-constant so that the kernel path is taken
        monkeypatch.setattr(
            "ap4kit.apcount._per_d_partials",
            lambda arrays: np.array([2**62, 2**62], dtype=np.int64),
        )
        m = k.make_modulus(11)
        mean = k.apk_mean_zn([k.ZnSignal(m, np.arange(11) % 3 - 1)] * 4)
        assert mean.exact_numerator == 2**63

    def test_dilation_invariance(self):
        n = 101
        m = k.make_modulus(n)
        vals = np.array(_random_int_signal(n, 123), dtype=np.int64)
        base = k.apk_mean_zn([k.ZnSignal(m, vals)] * 4).exact_numerator
        xs = np.arange(n)
        for u in (2, 5, 100):
            dilated = k.ZnSignal(m, vals[(u * xs) % n])
            assert k.apk_mean_zn([dilated] * 4).exact_numerator == base


def _pattern_cases(n, count, seed):
    """Every choice of constant positions and constant, on exact and float signals."""
    m = k.make_modulus(n)
    rng = np.random.default_rng(seed)
    for size in range(count + 1):
        for held in itertools.combinations(range(count), size):
            for c in (0, 1, -3, 0.5):
                for dtype in (np.int64, np.float64):
                    yield [
                        k.constant_signal(m, c)
                        if i in held
                        else k.ZnSignal(m, rng.integers(-3, 4, n).astype(dtype))
                        for i in range(count)
                    ]


def _kernel_cases(n, count, dtype, seed):
    """The sparsest input at each position, one all-zero input, and all inputs dense."""
    rng = np.random.default_rng(seed)

    def values(nonzeros):
        vals = np.zeros(n, dtype=dtype)
        at = rng.choice(n, nonzeros, replace=False)
        vals[at] = rng.integers(1, 4, nonzeros) * rng.choice((-1, 1), nonzeros)
        if dtype != np.int64:
            vals[at] *= rng.uniform(0.5, 1.0, nonzeros)
        if dtype == np.complex128:
            vals[at] *= np.exp(2j * np.pi * rng.random(nonzeros))
        return vals

    sparse, denser = max(1, n // 10), n // 2 + 1
    for pivot in range(count):
        yield [values(sparse if i == pivot else denser) for i in range(count)]
    yield [values(0 if i == seed % count else denser) for i in range(count)]
    yield [values(n) for _ in range(count)]


class TestKernel:
    """The per-d kernel against a plain double sum over (x, d)."""

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    @pytest.mark.parametrize("count", [3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    def test_matches_brute_force(self, n, count, dtype):
        for arrays in _kernel_cases(n, count, dtype, seed=100 * n + count):
            got = _per_d_partials(arrays)
            assert got.dtype == dtype
            want = _brute_partials([a.tolist() for a in arrays])
            if dtype == np.int64:
                assert got.tolist() == want
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestClosedForms:
    """Constant inputs factored out; the per-d kernel is the oracle."""

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    @pytest.mark.parametrize("count", [3, 4, 5])
    def test_matches_kernel(self, n, count):
        for sigs in _pattern_cases(n, count, seed=100 * n + count):
            mean = k.apk_mean_zn(sigs)
            assert mean.pair_count == n * n
            if mean.exact_numerator is not None:
                assert all(s.exact for s in sigs)
                oracle = sum(_per_d_partials([s.values for s in sigs]).tolist())
                assert mean.exact_numerator == oracle
                assert mean.value == oracle / (n * n)
            else:
                arrays = [s.values.astype(np.float64) for s in sigs]
                oracle = math.fsum(_per_d_partials(arrays).tolist()) / (n * n)
                assert abs(mean.value - oracle) <= 1e-12

    def test_kernel_not_called_for_closed_forms(self, monkeypatch):
        def kernel(arrays):
            raise AssertionError("kernel called")

        monkeypatch.setattr("ap4kit.apcount._per_d_partials", kernel)
        for count in (3, 4, 5):
            for sigs in _pattern_cases(11, count, seed=count):
                free = sum(1 for s in sigs if not (s.values == s.values[0]).all())
                exact = all(s.exact for s in sigs)
                if free <= (2 if exact else 3):
                    k.apk_mean_zn(sigs)


class TestProfile:
    def test_constant(self):
        m = k.make_modulus(11)
        prof = k.ap4_mean_profile(k.constant_signal(m, 1))
        assert np.abs(prof - 1.0).max() < 1e-15

    def test_profile_average_is_mean(self):
        n = 101
        m = k.make_modulus(n)
        s = k.ZnSignal(m, np.array(_random_int_signal(n, 321), dtype=np.float64))
        prof = k.ap4_mean_profile(s)
        mean = k.apk_mean_zn([s] * 4)
        assert abs(math.fsum(prof.tolist()) / n - mean.value) < 1e-12


class TestLinearFormMean:
    def test_full_set(self):
        m = k.make_modulus(11)
        assert k.linear_form_mean_fourier(k.constant_signal(m, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_single_point(self):
        m = k.make_modulus(11)
        vals = np.zeros(11, dtype=np.int64)
        vals[0] = 1
        assert k.linear_form_mean_fourier(k.ZnSignal(m, vals)) == pytest.approx(
            11.0**-3, abs=1e-15
        )

    def test_not_indicator_rejected(self):
        m = k.make_modulus(11)
        with pytest.raises(NotIndicatorError):
            k.linear_form_mean_fourier(k.constant_signal(m, -1))
        with pytest.raises(NotIndicatorError):
            k.linear_form_mean_fourier(k.constant_signal(m, 0.5))

    def test_matches_brute_force_and_positivity(self):
        n = 101
        m = k.make_modulus(n)
        xs = np.arange(n)
        X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        W = (X - 3 * Y + 3 * Z) % n
        for seed in range(10):
            rng = k.RngStream(777 + seed)
            vals = np.fromiter(
                (1 if rng.next_word() < int(0.3 * 2**64) else 0 for _ in range(n)),
                dtype=np.int64,
                count=n,
            )
            b = k.ZnSignal(m, vals)
            val = k.linear_form_mean_fourier(b)
            brute = float((vals[X] * vals[Y] * vals[Z] * vals[W]).sum()) / n**3
            beta = vals.sum() / n
            assert val == pytest.approx(brute, abs=1e-9)
            assert val >= beta**4 - 1e-9
