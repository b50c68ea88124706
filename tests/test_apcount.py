"""Exact and floating progression-counting kernels against brute-force oracles."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest

import ap4kit as k
from ap4kit import apcount
from ap4kit.apcount import (
    _blocks,
    _cyclic_convolution,
    _fft_rounding_bound,
    _mirrored,
    _packed_slice_sum,
    _per_d_partials,
    _slice_sum,
    _smooth_length,
    _sparsest_pair,
    _support_pair_sum,
    _three_input_sum,
)
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


def _slice_args(arrays):
    """(arrays, p, width) as ``_kernel_route`` binds them for a slice kernel: the
    sparsest input as the pivot (the first on a tie), and half the steps on a mirror list."""
    n = len(arrays[0])
    p = int(np.argmin([np.count_nonzero(a) for a in arrays]))
    return arrays, p, (n + 1) // 2 if _mirrored(arrays) else n


def _pair_args(arrays):
    """(arrays, q) as ``_kernel_route`` binds them for the support-pair sum."""
    return arrays, _sparsest_pair([np.count_nonzero(a) for a in arrays])


def _kronecker_three_input_sum(free):
    """The j = 3 sum with the big-integer convolution, gathered in Python integers."""
    (a, f), (b, g), (c, h) = free
    n = f.shape[0]
    z = np.arange(n)
    conv = _cyclic_convolution(f[z * pow(c - b, -1, n) % n], h[z * pow(b - a, -1, n) % n])
    return sum(map(operator.mul, g.tolist(), conv[z * (c - a) % n].tolist()))


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
        # every support length up to 40, past the searches' cap of 24, since
        # ap4_sum_z picks its Z_p embedding from the length
        rng = k.RngStream(21)
        for length in range(1, 41):
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

    def test_complex_signal_rejected(self):
        m = k.make_modulus(11)
        phase = k.quadratic_phase_signal(m, 1, 0)
        ones = k.constant_signal(m, 1)
        for count in (3, 4, 5):
            with pytest.raises(ValueError):
                k.apk_mean_zn([ones] * (count - 1) + [phase])
        with pytest.raises(ValueError):
            k.modulated_ap4_mean(phase, (1, 2, 3))

    @pytest.mark.parametrize("count", [3, 4, 5])
    def test_values_outside_64_rejected(self, count):
        # -2^63 included: np.abs wraps it to -2^63, which an abs-based guard passes
        m = k.make_modulus(11)
        for wide in (65, -65, -(2**63)):
            vals = np.zeros(11, dtype=np.int64)
            vals[:2] = wide, 1
            with pytest.raises(ValueError):
                k.apk_mean_zn([k.ZnSignal(m, vals)] * count)

    @pytest.mark.parametrize("count", [3, 4, 5])
    def test_overflowing_floats_rejected(self, count):
        # a sum that could pass 2^1023 is an input error before any kernel runs, and so
        # are NaN and inf; 1e77 on three points of Z_101 overflows from k = 4 on
        m = k.make_modulus(7)
        for top in (1e300, np.nan, np.inf, -np.inf):
            vals = np.full(7, 0.5)
            vals[:2] = top, 2.0
            with pytest.raises(ValueError):
                k.apk_mean_zn([k.ZnSignal(m, vals)] * count)
        vals = np.zeros(101)
        vals[:3] = 1e77
        signal = k.ZnSignal(k.make_modulus(101), vals)
        if count == 3:
            assert math.isfinite(k.apk_mean_zn([signal] * count).value)
        else:
            with pytest.raises(ValueError):
                k.apk_mean_zn([signal] * count)

    @pytest.mark.parametrize("count", [3, 4, 5])
    def test_floats_below_the_bound_accepted(self, count):
        # just below n^2 (2 max|v|)^k = 2^1023, on a dense input split at its mode
        # (a deviation of 2 max|v|) and on a sparse one; no kernel overflows
        n = 101
        top = 0.99 * 2.0 ** ((1023 - 2 * math.log2(n)) / count - 1)
        dense = np.full(n, -top)
        dense[:3] = top
        sparse = np.zeros(n)
        sparse[[0, 1, 2, 3, 50]] = top
        for vals in (dense, sparse):
            mean = k.apk_mean_zn([k.ZnSignal(k.make_modulus(n), vals)] * count)
            assert math.isfinite(mean.value)

    def test_modulated_mean_rejects_overflowing_floats(self):
        m = k.make_modulus(101)
        for top in (1e77, np.nan, np.inf):
            vals = np.zeros(101)
            vals[:3] = top
            with pytest.raises(ValueError):
                k.modulated_ap4_mean(k.ZnSignal(m, vals), (1, 2, 3))

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
        # 2^63 + 1 is not a float either, so a float reduction fails too; the
        # signal is non-constant and dense so that the per-d kernel is taken
        m = k.make_modulus(11)
        signals = [k.ZnSignal(m, np.arange(11) % 3 - 1)] * 4
        monkeypatch.setattr("ap4kit.apcount._support_pair_sum", _forbidden)
        for partials, want in (([2**62, 2**62], 2**63), ([2**62, 2**62, 1], 2**63 + 1)):
            monkeypatch.setattr(
                "ap4kit.apcount._per_d_partials",
                lambda arrays, p, width, partials=partials: np.array(partials, dtype=np.int64),
            )
            numerator = k.apk_mean_zn(signals).exact_numerator
            assert type(numerator) is int
            assert numerator == want

    def test_dilation_invariance(self):
        n = 101
        m = k.make_modulus(n)
        vals = np.array(_random_int_signal(n, 123), dtype=np.int64)
        base = k.apk_mean_zn([k.ZnSignal(m, vals)] * 4).exact_numerator
        xs = np.arange(n)
        for u in (2, 5, 100):
            dilated = k.ZnSignal(m, vals[(u * xs) % n])
            assert k.apk_mean_zn([dilated] * 4).exact_numerator == base


_VALUES = (
    lambda rng, n: rng.integers(-3, 4, n),
    lambda rng, n: rng.choice((-64, 64), n),  # the widest convolution slots
    lambda rng, n: rng.integers(-64, 0, n),  # every input shifted
)


def _pattern_cases(n, count, seed):
    """Every choice of constant positions and constant (0 is an all-zero input),
    on exact and float signals; the non-constant inputs of a case draw their
    values from one of ``_VALUES``, in turn."""
    m = k.make_modulus(n)
    rng = np.random.default_rng(seed)
    cases = itertools.product(range(count + 1), (0, 1, -3, 0.5), (np.int64, np.float64))
    for size, c, dtype in cases:
        for held in itertools.combinations(range(count), size):
            values = _VALUES[seed % len(_VALUES)]
            seed += 1
            yield [
                k.constant_signal(m, c)
                if i in held
                else k.ZnSignal(m, values(rng, n).astype(dtype))
                for i in range(count)
            ]


def _kernel_values(rng, n, nonzeros, dtype):
    vals = np.zeros(n, dtype=dtype)
    at = rng.choice(n, nonzeros, replace=False)
    vals[at] = rng.integers(1, 4, nonzeros) * rng.choice((-1, 1), nonzeros)
    if dtype != np.int64:
        vals[at] *= rng.uniform(0.5, 1.0, nonzeros)
    if dtype == np.complex128:
        vals[at] *= np.exp(2j * np.pi * rng.random(nonzeros))
    return vals


def _kernel_cases(n, count, dtype, seed):
    """The sparsest input at each position, one all-zero input, and all inputs dense."""
    rng = np.random.default_rng(seed)
    sparse, denser = max(1, n // 10), n // 2 + 1
    for pivot in range(count):
        yield [_kernel_values(rng, n, sparse if i == pivot else denser, dtype) for i in range(count)]
    yield [_kernel_values(rng, n, 0 if i == seed % count else denser, dtype) for i in range(count)]
    yield [_kernel_values(rng, n, n, dtype) for _ in range(count)]


def _mirror_cases(n, dtype, seed):
    """(arrays, mirrored): [a, b, a], [a, b, b, a] and [a, b, c, b, a] with the
    sparsest input at the ends or at the centre, as shared objects and as equal
    copies, plus near-mirror copies whose last array (for k >= 4 also: whose
    second to last array) differs in one entry.  The sparsest input fills more
    than half of Z_n, so every step has progressions inside the supports."""
    rng = np.random.default_rng(seed)
    sparse, denser = n // 2 + 1, n
    for count, centre in itertools.product((3, 4, 5), (False, True)):
        size = (count + 1) // 2
        half = [
            _kernel_values(rng, n, sparse if i == (size - 1 if centre else 0) else denser, dtype)
            for i in range(size)
        ]
        arrays = half + half[::-1][count % 2 :]
        yield arrays, True
        yield [a.copy() for a in arrays], True
        for last in range(1, count // 2 + 1):  # the last array, then the inner pair's
            near = [a.copy() for a in arrays]
            near[-last][seed % n] += 1
            yield near, False


def _forbidden(*args):
    raise AssertionError("kernel called")


class TestKernel:
    """The per-d kernel, its sum over d and the support-pair sum against a plain double sum
    over (x, d).  Any pivot, pair and admitted width gives the same sum, so each is checked."""

    @staticmethod
    def _check(arrays, dtype):
        # every pivot p at width n, and at (n + 1) / 2 too on a mirror list; every pair q
        n, count = len(arrays[0]), len(arrays)
        want = _brute_partials([a.tolist() for a in arrays])
        widths = (n, (n + 1) // 2) if _mirrored(arrays) else (n,)
        for p, width in itertools.product(range(count), widths):
            got = _per_d_partials(arrays, p, width)
            assert got.dtype == dtype
            total = _slice_sum(arrays, p, width)
            if dtype == np.int64:
                assert got.tolist() == want
                assert type(total) is int and total == sum(want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
                assert total == pytest.approx(sum(want), rel=1e-12, abs=1e-9)
        for q in range(count - 1) if count >= 4 else ():
            total = _support_pair_sum(arrays, q)
            if dtype == np.int64:
                assert type(total) is int and total == sum(want)
            else:
                assert total == pytest.approx(sum(want), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    @pytest.mark.parametrize("count", [3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    def test_matches_brute_force(self, n, count, dtype):
        for arrays in _kernel_cases(n, count, dtype, seed=100 * n + count):
            self._check(arrays, dtype)

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    def test_mirror_lists_match_brute_force(self, n, dtype):
        # a mirror list computes half the steps and copies partials[n - d] = partials[d];
        # the near-mirror list must take every step
        for arrays, mirrored in _mirror_cases(n, dtype, seed=n):
            assert _mirrored(arrays) is mirrored
            self._check(arrays, dtype)


# The repeated value of a "dominant" pivot (P is 1/2 on about 95% of Z_n) and
# of a "negative" one, per dtype.
_MODES = {
    "dominant": {np.int64: 1, np.float64: 0.5, np.complex128: 0.5 - 0.25j},
    "negative": {np.int64: -3, np.float64: -0.75, np.complex128: -0.75 + 0.5j},
}


def _pivot_values(rng, n, kind, dtype):
    """The sparsest input, nonzero on about half of Z_n: "dominant" takes its mode on
    90% of its support, "negative" a negative mode on 60%, "distinct" has no value
    twice, and "empty" is all zero."""
    vals = np.zeros(n, dtype=dtype)
    if kind == "empty":
        return vals
    at = rng.choice(n, n // 2, replace=False)
    # distinct magnitudes 1..64 with random signs; the floats also scaled, so mostly non-integer
    vals[at] = rng.permutation(np.arange(1, 65))[: at.size] * rng.choice((-1, 1), at.size)
    if dtype != np.int64:
        vals[at] *= rng.uniform(0.5, 1.0, at.size)
    if dtype == np.complex128:
        vals[at] *= np.exp(2j * np.pi * rng.random(at.size))
    if kind in _MODES:
        share = 0.9 if kind == "dominant" else 0.6
        vals[at[: int(share * at.size)]] = _MODES[kind][dtype]
    return vals


def _pivot_cases(n, dtype, kind, seed):
    """(arrays, mirrored) for k = 3, 4, 5 with the pivot input of ``kind``: at the
    first or the last position of a list that is not a mirror list, and at the ends
    or the centre of a mirror list."""
    rng = np.random.default_rng(seed)
    for count in (3, 4, 5):
        for position in (0, count - 1):
            arrays = [_kernel_values(rng, n, n, dtype) for _ in range(count)]
            arrays[position] = _pivot_values(rng, n, kind, dtype)
            yield arrays, False
        size = (count + 1) // 2
        for centre in (False, True):
            half = [_kernel_values(rng, n, n, dtype) for _ in range(size)]
            half[size - 1 if centre else 0] = _pivot_values(rng, n, kind, dtype)
            yield half + half[::-1][count % 2 :], True


class TestKernelPivotModes:
    """The kernels on a pivot whose values repeat or do not: a dominant value, a
    negative majority value, no value twice, or no support at all, at the ends of a
    plain list and at the ends or the centre of a mirror list."""

    @pytest.mark.parametrize("n", [11, 101])
    @pytest.mark.parametrize("kind", ["dominant", "negative", "distinct", "empty"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    def test_matches_brute_force(self, n, kind, dtype):
        for arrays, mirrored in _pivot_cases(n, dtype, kind, seed=n + len(kind)):
            assert _mirrored(arrays) is mirrored
            pivot = arrays[int(np.argmin([np.count_nonzero(a) for a in arrays]))]
            values, counts = np.unique(pivot[pivot != 0], return_counts=True)
            if kind in _MODES:
                assert values[np.argmax(counts)] == _MODES[kind][dtype]
            else:
                assert counts.max(initial=1) == 1
            TestKernel._check(arrays, dtype)


class TestThreeInputFloat:
    """The float j = 3 convolution: one real FFT at a 5-smooth length >= 2n, folded mod n."""

    def test_smooth_length(self):
        def smooth(m):
            for q in (2, 3, 5):
                while m % q == 0:
                    m //= q
            return m == 1

        for m in range(1, 3000):
            got = _smooth_length(m)
            assert got >= m and smooth(got)
            assert not any(smooth(v) for v in range(m, got))
        assert [_smooth_length(2 * n) for n in (5, 7, 11, 101, 1009, 10007)] == [
            10, 15, 24, 216, 2025, 20250
        ]

    @pytest.mark.parametrize("n", [5, 7, 11, 101, 1009])
    def test_matches_exact(self, n):
        # integer values as floats, so the big-integer convolution is the oracle;
        # every position triple a < b < c < 5
        rng = np.random.default_rng(n)
        for positions in itertools.combinations(range(5), 3):
            ints = [rng.integers(-64, 65, n) for _ in positions]
            want = _kronecker_three_input_sum(list(zip(positions, ints)))
            got = _three_input_sum([(p, v.astype(np.float64)) for p, v in zip(positions, ints)])
            assert type(got) is float
            assert abs(got - want) <= 1e-12 * n * n * 64**3

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(10 * n)
        for positions in itertools.combinations(range(5), 3):
            arrays = [rng.uniform(-4, 4, n) for _ in range(5)]
            for i in set(range(5)) - set(positions):
                arrays[i] = np.ones(n)
            want = math.fsum(_brute_partials([a.tolist() for a in arrays]))
            got = _three_input_sum([(p, arrays[p]) for p in positions])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def _spy(monkeypatch, name):
    """Count the calls of apcount's function ``name``, which still runs."""
    calls = []
    original = getattr(apcount, name)

    def spy(*args):
        calls.append(args[0].shape[0])
        return original(*args)

    monkeypatch.setattr(f"ap4kit.apcount.{name}", spy)
    return calls


class TestThreeInputExact:
    """The exact j = 3 convolution: the real FFT rounded under Percival's bound, else the
    big-integer multiply."""

    @pytest.mark.parametrize("n", [5, 7, 11, 101, 1009, 10007])
    def test_matches_kronecker(self, monkeypatch, n):
        kronecker = _spy(monkeypatch, "_cyclic_convolution")
        rng = np.random.default_rng(n)
        extremes = [np.full(n, v, dtype=np.int64) for v in (64, -64)]
        for positions in itertools.combinations(range(5), 3):
            cases = [[rng.integers(-64, 65, n) for _ in positions]]
            cases += [list(ints) for ints in itertools.product(extremes, repeat=3)]
            for ints in cases:
                free = list(zip(positions, ints))
                want = _kronecker_three_input_sum(free)
                del kronecker[:]
                got = _three_input_sum(free)
                assert type(got) is int and got == want
                assert kronecker == []

    def test_indicators_match_kronecker(self, monkeypatch):
        n = 20011
        kronecker = _spy(monkeypatch, "_cyclic_convolution")
        rng = np.random.default_rng(3)
        for positions in itertools.combinations(range(5), 3):
            free = [(p, rng.integers(0, 2, n)) for p in positions]
            want = _kronecker_three_input_sum(free)
            del kronecker[:]
            assert _three_input_sum(free) == want
            assert kronecker == []

    def test_sets_workload_takes_fft(self, monkeypatch):
        # the quadratic level set's 3-AP mean and the sampled set A's exact count
        n = 20011
        m = k.make_modulus(n)
        a = k.sample_indicator(k.build_probability_signal(m), k.RngStream(42))
        kronecker = _spy(monkeypatch, "_cyclic_convolution")
        fft = _spy(monkeypatch, "_fft_convolution")
        report = k.run_demo_quadratic(n, 0.05)
        assert report.passed()
        assert k.apk_mean_zn([a] * 3).exact_numerator > 0
        assert fft == [n, n] and kronecker == []

    @staticmethod
    def _numerator_and_routes(monkeypatch, n):
        rng = np.random.default_rng(n)
        signal = k.ZnSignal(k.make_modulus(n), rng.integers(-64, 65, n))
        kronecker = _spy(monkeypatch, "_cyclic_convolution")
        return k.apk_mean_zn([signal] * 3).exact_numerator, kronecker

    @pytest.mark.parametrize("n", [7, 1009])
    def test_bound_over_threshold_falls_back(self, monkeypatch, n):
        want, kronecker = self._numerator_and_routes(monkeypatch, n)
        assert kronecker == []
        monkeypatch.setattr("ap4kit.apcount._fft_rounding_bound", lambda norm_product, length: 0.5)
        got, kronecker = self._numerator_and_routes(monkeypatch, n)
        assert got == want and kronecker == [n]

    @pytest.mark.parametrize("n", [7, 1009])
    def test_rounding_slack_falls_back(self, monkeypatch, n):
        want, kronecker = self._numerator_and_routes(monkeypatch, n)
        irfft = np.fft.irfft

        def shifted(*args, **kwargs):
            lin = irfft(*args, **kwargs)
            lin[1] += 0.3  # still rounds to the exact entry, but 0.3 > 1/4 away from it
            return lin

        monkeypatch.setattr(np.fft, "irfft", shifted)
        got, kronecker = self._numerator_and_routes(monkeypatch, n)
        assert got == want and kronecker == [n]

    def test_bound_pinned(self):
        # m = ceil(log2(1024)) = 10: 3 * 4 * ((1 + eps)^60 (1 + eps sqrt 5)^31 - 1)
        assert math.isclose(_fft_rounding_bound(1.0, 1024), 1.7228632827381107e-13, rel_tol=1e-12)
        first_order = 12 * (60 + 31 * math.sqrt(5)) * 2.0**-53
        assert math.isclose(_fft_rounding_bound(1.0, 1024), first_order, rel_tol=1e-12)
        assert _fft_rounding_bound(1.0, 1000) == _fft_rounding_bound(1.0, 1024)

    def test_bound_monotone(self):
        norms = [1.0, 7.5, 1e3, 1e6, 1e9, 4096.0 * 2**31]
        lengths = [10, 15, 24, 216, 1024, 2025, 20250, 40500, 2**20, 2**32, 2**33]
        grid = [[_fft_rounding_bound(v, length) for length in lengths] for v in norms]
        for row in grid:
            assert row == sorted(row)
        for column in zip(*grid):
            assert list(column) == sorted(column) and len(set(column)) == len(column)

    def test_bound_admits_the_stated_range(self):
        # the range in _fft_rounding_bound's docstring: all-+/-64 inputs have
        # ||f'|| ||h'|| = 4096 n, admitted up to n = 10^8 and left to the big-integer
        # multiply at 2^31 - 1; 0/1 inputs have at most n, admitted up to 2^31 - 1
        for n in (10**6, 10**8, 2**31 - 1):
            length = _smooth_length(2 * n)
            assert (_fft_rounding_bound(4096.0 * n, length) < 0.25) is (n < 2**31 - 1)
            assert _fft_rounding_bound(float(n), length) < 0.25


class TestSupportPairSum:
    """The support-pair sum against a plain double sum over (x, d)."""

    @pytest.mark.parametrize("n", [5, 7, 31])
    @pytest.mark.parametrize("count", [4, 5])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    def test_matches_brute_force(self, n, count, dtype):
        rng = np.random.default_rng(10 * n + count)

        def values(nonzeros, wide):
            vals = np.zeros(n, dtype=dtype)
            at = rng.choice(n, nonzeros, replace=False)
            magnitudes = np.full(nonzeros, 64) if wide else rng.integers(1, 4, nonzeros)
            vals[at] = magnitudes * rng.choice((-1, 1), nonzeros)
            if dtype != np.int64:
                vals[at] *= rng.uniform(0.5, 1.0, nonzeros)
            if dtype == np.complex128:
                vals[at] *= np.exp(2j * np.pi * rng.random(nonzeros))
            return vals

        sparse, denser = max(2, n // 4), n // 2 + 2
        for p, wide in itertools.product(range(count - 1), (False, True)):
            # the pair (p, p + 1) is the sparsest; with wide, every value is +/-64
            arrays = [values(sparse if i in (p, p + 1) else denser, wide) for i in range(count)]
            assert _sparsest_pair([np.count_nonzero(a) for a in arrays]) == p
            want = sum(_brute_partials([a.tolist() for a in arrays]))
            got = _support_pair_sum(*_pair_args(arrays))
            if dtype == np.int64:
                assert type(got) is int
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
        # an all-zero input is a pivot of the pair it belongs to
        arrays = [values(0 if i == count - 1 else denser, False) for i in range(count)]
        assert _sparsest_pair([np.count_nonzero(a) for a in arrays]) == count - 2
        assert _support_pair_sum(*_pair_args(arrays)) == 0


def _runs(rng, n, count):
    """A support of ``count`` disjoint runs of 6 to 9 residues at random gaps,
    the first one wrapping across 0 (residues n - 3 .. n - 1, then 0 ..)."""
    mask = np.zeros(n, dtype=bool)
    start = n - 3
    for _ in range(count):
        length = int(rng.integers(6, 10))
        mask[np.arange(start, start + length) % n] = True
        start += length + int(rng.integers(2, n // (2 * count)))
    return mask


def _values_on(rng, mask, dtype, wide):
    """Values on a support: +/-64 with ``wide``, else +/-(1..3), scaled on floats
    and complex values, which also get random unit phases."""
    size = int(mask.sum())
    vals = np.zeros(mask.size, dtype=dtype)
    magnitudes = np.full(size, 64) if wide else rng.integers(1, 4, size)
    vals[mask] = magnitudes * rng.choice((-1, 1), size)
    if dtype != np.int64:
        vals[mask] *= rng.uniform(0.5, 1.0, size)
    if dtype == np.complex128:
        vals[mask] *= np.exp(2j * np.pi * rng.random(size))
    return vals


class TestBlocks:
    """The support-pair sum on supports made of runs, which it splits into blocks."""

    @pytest.mark.parametrize("n", [101, 211])
    @pytest.mark.parametrize("count", [4, 5])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    @pytest.mark.parametrize("wide", [False, True])
    def test_runs_match_brute_force(self, n, count, dtype, wide):
        rng = np.random.default_rng(n + 10 * count + wide)
        shared = _runs(rng, n, 4)
        # one support for every input, as F and G have, then one support per input
        for masks in ([shared] * count, [_runs(rng, n, 4) for _ in range(count)]):
            arrays = [_values_on(rng, mask, dtype, wide) for mask in masks]
            p = _sparsest_pair([np.count_nonzero(a) for a in arrays])
            for support in (np.flatnonzero(arrays[p]), np.flatnonzero(arrays[p + 1])):
                # four runs, the wrapping one cut in two at 0
                assert len(_blocks(support)) - 1 == 5
            want = sum(_brute_partials([a.tolist() for a in arrays]))
            got = _support_pair_sum(*_pair_args(arrays))
            if dtype == np.int64:
                assert type(got) is int
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    def test_every_pair_skipped(self, dtype):
        # with y, z in [0, 4), input 2 is read at 2z - y in [-3, 6], where it is zero
        n = 101
        arrays = [np.zeros(n, dtype=dtype) for _ in range(4)]
        for r, (start, value) in enumerate(((0, 3), (0, -2), (50, 5), (20, 1))):
            arrays[r][start : start + 4] = value
        assert sum(_brute_partials([a.tolist() for a in arrays])) == 0
        got = _support_pair_sum(*_pair_args(arrays))
        assert got == 0
        assert type(got) is {np.int64: int, np.float64: float, np.complex128: complex}[dtype]

    def test_scattered_support_is_one_block(self):
        # a level set has runs of about one residue: one block, every pair kept
        s = k.quadratic_level_set(k.make_modulus(10007), 0.05)
        support = np.flatnonzero(s.values)
        assert _blocks(support).tolist() == [0, support.size]

    def test_interval_signal_blocks_are_its_intervals(self):
        support = np.flatnonzero(k.build_interval_signal(k.make_modulus(10007)).values)
        assert _blocks(support).tolist() == list(range(0, support.size + 1, 8))

    @pytest.mark.parametrize("count", [4, 5])
    def test_constructions_match_slice_kernel(self, count):
        m = k.make_modulus(10007)
        f = k.build_interval_signal(m).values
        oracle = sum(_per_d_partials(*_slice_args([f] * count)).tolist())
        assert _support_pair_sum(*_pair_args([f] * count)) == oracle
        g = k.build_modulated_signal(m).values
        oracle = math.fsum(_per_d_partials(*_slice_args([g] * count)).tolist())
        assert _support_pair_sum(*_pair_args([g] * count)) == pytest.approx(oracle, rel=1e-12)


def _indicator(rng, n, density):
    return (rng.random(n) < density).astype(np.int64)


def _packed_cases(n, count, seed):
    """(arrays, mirrored) of 0/1 inputs: the sparsest input at each position of a
    list that is not a mirror list, at each position of the first half of a mirror
    list, and a list with a constant-1 input."""
    rng = np.random.default_rng(seed)
    for pivot in range(count):
        arrays = [_indicator(rng, n, 0.3 if i == pivot else 0.7) for i in range(count)]
        yield arrays, False
    size = (count + 1) // 2
    for pivot in range(size):
        half = [_indicator(rng, n, 0.3 if i == pivot else 0.7) for i in range(size)]
        yield half + half[::-1][count % 2 :], True
    arrays = [_indicator(rng, n, 0.5) for _ in range(count)]
    arrays[1] = np.ones(n, dtype=np.int64)
    yield arrays, False


class TestPackedSliceSum:
    """The packed slice kernel on 0/1 inputs against the slice kernel and a plain double sum."""

    @pytest.mark.parametrize("n", [5, 7, 11, 127])
    @pytest.mark.parametrize("count", [4, 5])
    def test_matches_slice_kernel_and_brute_force(self, n, count):
        # width < 64 at n <= 11; at n = 127 a mirror list's width is exactly one word
        for arrays, mirrored in _packed_cases(n, count, seed=n + count):
            assert _mirrored(arrays) is mirrored
            got = _packed_slice_sum(*_slice_args(arrays))
            assert type(got) is int
            assert got == sum(_per_d_partials(*_slice_args(arrays)).tolist())
            assert got == sum(_brute_partials([a.tolist() for a in arrays]))

    @pytest.mark.parametrize("n", [1009, 20011])
    @pytest.mark.parametrize("count", [4, 5])
    def test_large_moduli_match_slice_kernel(self, n, count):
        # at 20011 the pivot's rows span several chunks, mirror list or not
        rng = np.random.default_rng(n + count)
        a = _indicator(rng, n, 0.5)
        cases = [[a] * count, [_indicator(rng, n, 0.1 + 0.1 * i) for i in range(count)]]
        for arrays in cases:
            if n == 20011:
                width = (n + 1) // 2 if _mirrored(arrays) else n
                pivot = min(np.count_nonzero(v) for v in arrays)
                assert pivot > apcount._PAIR_CHUNK // -(-width // 64)
            oracle = sum(_per_d_partials(*_slice_args(arrays)).tolist())
            assert _packed_slice_sum(*_slice_args(arrays)) == oracle

    def test_empty_pivot(self):
        n = 11
        arrays = [np.ones(n, dtype=np.int64)] * 3 + [np.zeros(n, dtype=np.int64)]
        assert _packed_slice_sum(*_slice_args(arrays)) == 0

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    @pytest.mark.parametrize("count", [4, 5])
    def test_every_pivot_matches_slice_kernel(self, n, count):
        # every pivot p at width n, and at (n + 1) / 2 too on a mirror list
        for arrays, mirrored in _packed_cases(n, count, seed=10 * n + count):
            want = sum(_brute_partials([a.tolist() for a in arrays]))
            widths = (n, (n + 1) // 2) if mirrored else (n,)
            for p, width in itertools.product(range(count), widths):
                got = _packed_slice_sum(arrays, p, width)
                assert type(got) is int
                assert got == sum(_per_d_partials(arrays, p, width).tolist()) == want


class TestRouting:
    """Which j >= 4 route a progression sum takes, with the other one patched to raise."""

    @pytest.mark.parametrize("build", [k.build_interval_signal, k.build_modulated_signal])
    def test_sparse_signals_take_support_pairs(self, monkeypatch, build):
        s = build(k.make_modulus(10007))
        floats = [s.values.astype(np.float64)] * 4
        oracle = math.fsum(_per_d_partials(*_slice_args(floats)).tolist())
        monkeypatch.setattr("ap4kit.apcount._per_d_partials", _forbidden)
        mean = k.apk_mean_zn([s] * 4)
        assert mean.value * 10007**2 == pytest.approx(oracle, rel=1e-12)

    def test_dense_signal_takes_slice_kernel(self, monkeypatch):
        s = k.build_probability_signal(k.make_modulus(10007))
        monkeypatch.setattr("ap4kit.apcount._support_pair_sum", _forbidden)
        k.apk_mean_zn([s] * 4)

    def test_sparse_level_set_takes_support_pairs(self, monkeypatch):
        # density about 0.01: 5 (k - 2) s^2 = 0.1 s n is below the packed slice
        # kernel's 9 (k - 1) s ceil(n / 128) = 0.21 s n
        s = k.quadratic_level_set(k.make_modulus(10007), 0.005)
        oracle = sum(_per_d_partials(*_slice_args([s.values] * 4)).tolist())
        monkeypatch.setattr("ap4kit.apcount._per_d_partials", _forbidden)
        monkeypatch.setattr("ap4kit.apcount._packed_slice_sum", _forbidden)
        assert k.apk_mean_zn([s] * 4).exact_numerator == oracle

    def test_mirror_list_charges_slice_kernel_half(self, monkeypatch):
        # density about 0.2: 5 (k - 2) s^2 = 2.0 s n is below the full (k - 1) s n = 3 s n,
        # but not below the mirror list's half of it; the level set is negated, so it is
        # not a 0/1 input and the packed kernel does not apply
        m = k.make_modulus(10007)
        s = k.ZnSignal(m, -k.quadratic_level_set(m, 0.1).values)
        oracle = _support_pair_sum(*_pair_args([s.values] * 4))
        monkeypatch.setattr("ap4kit.apcount._support_pair_sum", _forbidden)
        assert k.apk_mean_zn([s] * 4).exact_numerator == oracle

    @pytest.mark.parametrize("count", [4, 5])
    def test_indicator_sets_take_packed_route(self, monkeypatch, count):
        # one call on the unsplit inputs, A's support above n / 2 or not
        m = k.make_modulus(10007)
        p = k.build_probability_signal(m)
        sets = [k.quadratic_level_set(m, 0.05), k.quadratic_level_set(m, 0.2)]
        sets += [k.sample_indicator(p, k.RngStream(seed)) for seed in (0, 1)]
        for s in sets:
            oracle = sum(_per_d_partials(*_slice_args([s.values] * count)).tolist())
            with monkeypatch.context() as patch:
                recorder = _Recorder(patch)
                assert k.apk_mean_zn([s] * count).exact_numerator == oracle
            assert [name for name, _ in recorder.calls] == ["_packed_slice_sum"]
            assert all(a is s.values for a in recorder.calls[0][1])
            assert recorder.bound == [(0, (m.n + 1) // 2)]  # equal supports, a mirror list

    def test_other_signals_never_take_packed_route(self, monkeypatch):
        # F (exact), G (float), P (split at 1/2) and signed +/-1 inputs
        m = k.make_modulus(10007)
        signals = [k.build_interval_signal(m), k.build_modulated_signal(m),
                   k.build_probability_signal(m)]
        signs = np.random.default_rng(3).choice((-1, 1), 1009)
        signals.append(k.ZnSignal(k.make_modulus(1009), signs))
        monkeypatch.setattr("ap4kit.apcount._packed_slice_sum", _forbidden)
        for s in signals:
            for count in (4, 5):
                k.apk_mean_zn([s] * count)

    def test_modulated_means_take_support_pairs(self, monkeypatch):
        # the phase-weighted copies keep F's sparse support, so they take the pair route
        f = k.build_interval_signal(k.make_modulus(10007))
        patterns = [(0, 0, 4), (0, 0, 12), (1, 2, 3)]
        def slice_route(arrays, sizes):
            return 0, functools.partial(apcount._slice_sum, *_slice_args(arrays))

        with monkeypatch.context() as slice_only:
            slice_only.setattr("ap4kit.apcount._kernel_route", slice_route)
            oracles = [k.modulated_ap4_mean(f, uvw) for uvw in patterns]
        monkeypatch.setattr("ap4kit.apcount._per_d_partials", _forbidden)
        for uvw, oracle in zip(patterns, oracles):
            got = k.modulated_ap4_mean(f, uvw)
            assert type(got) is complex
            assert abs(got - oracle) <= 1e-12 * abs(oracle)

    def test_dense_modulated_mean_takes_slice_kernel(self, monkeypatch):
        n = 1009
        vals = np.random.default_rng(n).uniform(0.5, 1.0, n)
        s = k.ZnSignal(k.make_modulus(n), vals)
        monkeypatch.setattr("ap4kit.apcount._support_pair_sum", _forbidden)
        got = k.modulated_ap4_mean(s, (1, 2, 3))
        assert type(got) is complex


def _majority(rng, n, mode, off, dtype):
    """mode everywhere but on ``off`` random points, which get +64 (exact) or a random float."""
    vals = np.full(n, mode, dtype=dtype)
    at = rng.choice(n, off, replace=False)
    vals[at] = 64 if dtype == np.int64 else rng.uniform(0.0, 1.0, off)
    return vals


def _no_mode(rng, n, dtype):
    """Dense values with no dominant one: 1..4 (exact) or uniform in [0.1, 1) (float)."""
    if dtype == np.int64:
        return rng.integers(1, 5, n).astype(np.int64)
    return rng.uniform(0.1, 1.0, n)


def _split_cases(n, count, dtype, seed):
    """Lists whose mode split pays: [a] * count, distinct majority inputs (no
    mirror list), and one majority input at each middle position among inputs
    with no dominant value.  Exact majorities are -64 with +64 points, so the
    deviation is 128 there; float ones are 1/2 with random points, like P."""
    rng = np.random.default_rng(seed)
    mode = -64 if dtype == np.int64 else 0.5
    off = max(1, n // 20)
    yield [_majority(rng, n, mode, off, dtype)] * count
    yield [_majority(rng, n, mode, off + i % 2, dtype) for i in range(count)]
    for middle in range(1, count - 1):
        arrays = [_no_mode(rng, n, dtype) for _ in range(count)]
        arrays[middle] = _majority(rng, n, mode, off, dtype)
        yield arrays


class _Recorder:
    """Records the arrays handed to each kernel route and the pivot, pair or width bound with
    them (and runs it, unless stubbed)."""

    def __init__(self, monkeypatch, stub=False):
        self.calls = []  # (name, arrays or free inputs)
        self.bound = []  # the arguments after them: (p, width), (q,) or ()
        for name in ("_slice_sum", "_packed_slice_sum", "_support_pair_sum", "_three_input_sum"):
            original = getattr(apcount, name)

            def record(arrays, *bound, name=name, original=original):
                self.calls.append((name, arrays))
                self.bound.append(bound)
                return 0 if stub else original(arrays, *bound)

            monkeypatch.setattr(f"ap4kit.apcount.{name}", record)
        self.searched = []
        original_mode = apcount._mode

        def mode(values):
            self.searched.append(values)
            return original_mode(values)

        monkeypatch.setattr("ap4kit.apcount._mode", mode)

    def kernels(self):
        return [(name, arrays) for name, arrays in self.calls if name != "_three_input_sum"]

    def deviations(self, signals):
        """The arrays the j >= 4 kernels read that are neither an input nor constant."""
        return [a for _, arrays in self.kernels() for a in arrays
                if not any(a is s.values for s in signals) and not (a == a[0]).all()]


class TestModeSplit:
    """An input split at its mode: a term with that input constant, plus the deviation's sum."""

    @pytest.mark.parametrize("n", [7, 11, 101])
    @pytest.mark.parametrize("count", [4, 5])
    def test_exact_matches_unsplit_kernel_and_brute_force(self, monkeypatch, n, count):
        for arrays in _split_cases(n, count, np.int64, seed=n + count):
            m = k.make_modulus(n)
            unsplit = sum(_per_d_partials(*_slice_args(arrays)).tolist())
            assert unsplit == sum(_brute_partials([a.tolist() for a in arrays]))
            signals = [k.ZnSignal(m, a) for a in arrays]
            with monkeypatch.context() as patch:
                recorder = _Recorder(patch)
                assert k.apk_mean_zn(signals).exact_numerator == unsplit
            # split: a kernel read a deviation, an array none of the inputs is, and the
            # majority input's is 128 where it is nonzero (a k = 5 first term may split
            # an input with no dominant value too, at a deviation in [-3, 3])
            deviations = recorder.deviations(signals)
            assert any(set(np.abs(d).tolist()) == {0, 128} for d in deviations)

    @pytest.mark.parametrize("n", [5, 7, 11, 101])
    @pytest.mark.parametrize("count", [4, 5])
    def test_float_matches_unsplit_kernel_and_brute_force(self, monkeypatch, n, count):
        for arrays in _split_cases(n, count, np.float64, seed=n + count):
            m = k.make_modulus(n)
            unsplit = math.fsum(_per_d_partials(*_slice_args(arrays)).tolist())
            brute = math.fsum(_brute_partials([a.tolist() for a in arrays]))
            signals = [k.ZnSignal(m, a) for a in arrays]
            with monkeypatch.context() as patch:
                recorder = _Recorder(patch)
                got = k.apk_mean_zn(signals).value * n * n
            assert got == pytest.approx(unsplit, rel=1e-12)
            assert got == pytest.approx(brute, rel=1e-12)
            assert recorder.deviations(signals)

    def test_deviation_takes_pair_route(self, monkeypatch):
        # [D, S, S, D] with D = -64 but on 2 points, S nonzero on 10: the unsplit list
        # costs 5 * 2 * 10 * 10 = 1000 on the pair route, the split 3 * 2 * 101 = 606,
        # and its deviation list [D + 64, S, S, D] costs 5 * 2 * 2 * 10 = 200 < 606 in pairs
        n = 101
        rng = np.random.default_rng(5)
        dense = _majority(rng, n, -64, 2, np.int64)
        sparse = np.zeros(n, dtype=np.int64)
        sparse[rng.choice(n, 10, replace=False)] = rng.integers(1, 65, 10) * rng.choice((-1, 1), 10)
        arrays = [dense, sparse, sparse, dense]
        oracle = sum(_brute_partials([a.tolist() for a in arrays]))
        recorder = _Recorder(monkeypatch)
        m = k.make_modulus(n)
        assert k.apk_mean_zn([k.ZnSignal(m, a) for a in arrays]).exact_numerator == oracle
        assert [name for name, _ in recorder.calls] == ["_three_input_sum", "_support_pair_sum"]
        deviation = recorder.kernels()[0][1][0]
        assert np.array_equal(deviation, dense + 64)
        assert recorder.bound == [(), (0,)]  # sizes 2, 10, 10, 101: the pair (0, 1)

    @pytest.mark.parametrize("count", [4, 5])
    def test_probability_signal_splits_once_per_level(self, monkeypatch, count):
        # [P] * 4: one j = 3 convolution and one slice sum over P - 1/2; [P] * 5 splits
        # its first term again.  P is searched once either way.
        p = k.build_probability_signal(k.make_modulus(1201))
        recorder = _Recorder(monkeypatch, stub=True)
        k.apk_mean_zn([p] * count)
        assert len(recorder.searched) == 1
        assert [name for name, _ in recorder.calls] == (
            ["_three_input_sum"] + ["_slice_sum"] * (count - 3)
        )
        for level, (_, arrays) in enumerate(recorder.kernels()[::-1]):
            assert all((a == 0.5).all() for a in arrays[:level])
            assert np.array_equal(arrays[level], p.values - 0.5)
            assert all(a is p.values for a in arrays[level + 1 :])

    def test_other_signals_keep_their_route(self, monkeypatch):
        # F, G and the c = 0.05 level set (support <= n / 2) are never searched;
        # the sampled set A has no dominant value, so it is searched at most
        # (when its support passes n / 2) but not split; the 0/1 inputs take the
        # packed slice kernel
        m = k.make_modulus(10007)
        p = k.build_probability_signal(m)
        sparse = [k.build_interval_signal(m), k.build_modulated_signal(m)]
        indicators = [k.quadratic_level_set(m, 0.05)]
        samples = [k.sample_indicator(p, k.RngStream(seed)) for seed in range(4)]
        assert {2 * np.count_nonzero(a.values) > m.n for a in samples} == {False, True}
        cases = [(s, "_support_pair_sum") for s in sparse]
        cases += [(s, "_packed_slice_sum") for s in indicators + samples]
        for s, route in cases:
            for count in (4, 5):
                with monkeypatch.context() as patch:
                    recorder = _Recorder(patch, stub=True)
                    k.apk_mean_zn([s] * count)
                assert len(recorder.calls) == 1
                name, arrays = recorder.calls[0]
                assert name == route
                assert all(a is s.values for a in arrays)
                searched = 1 if 2 * np.count_nonzero(s.values) > m.n else 0
                assert len(recorder.searched) == searched

    @pytest.mark.parametrize("count", [4, 5])
    def test_nearly_full_indicator_is_split(self, monkeypatch, count):
        # 1 on all but 3 of 101 points, in a list that is not a mirror list: the split
        # costs (k - 1) 3 n = 303 (k - 1), below the packed kernel's 9 (k - 1) 98
        # ceil(101 / 64) = 1764 (k - 1); the deviation, -1 on the 3 points, takes an
        # int64 kernel
        n = 101
        a = np.ones(n, dtype=np.int64)
        a[[5, 40, 77]] = 0
        b = np.roll(a, 1)
        arrays = [a] * (count - 1) + [b]
        oracle = sum(_brute_partials([v.tolist() for v in arrays]))
        m = k.make_modulus(n)
        signals = [k.ZnSignal(m, v) for v in arrays]
        recorder = _Recorder(monkeypatch)
        assert k.apk_mean_zn(signals).exact_numerator == oracle
        assert any(set(d.tolist()) == {-1, 0} for d in recorder.deviations(signals))

    def test_no_search_at_or_below_half_support(self, monkeypatch):
        # a dense majority input beside inputs of support exactly (n + 1) / 2 and n // 2
        n = 101
        rng = np.random.default_rng(9)
        half = np.zeros(n, dtype=np.int64)
        half[rng.choice(n, n // 2, replace=False)] = 1
        more = np.zeros(n, dtype=np.int64)
        more[rng.choice(n, n // 2 + 1, replace=False)] = 1
        dense = _majority(rng, n, -64, 3, np.int64)
        half, dense, more = (k.ZnSignal(k.make_modulus(n), a) for a in (half, dense, more))
        recorder = _Recorder(monkeypatch, stub=True)
        k.apk_mean_zn([half, dense, more, dense])
        assert [v.size for v in recorder.searched] == [n, n // 2 + 1]

    @pytest.mark.parametrize("count", [4, 5])
    def test_extreme_exact_values(self, count):
        # the int64 bounds' extremes at n = 7: a deviation of 128 against inputs at
        # +/-64 makes every per-d sum n * 128 * 64^(count - 1) (2^62 at count = 5
        # and n = 2^31) and every support-pair term its n-th part times 128 * 64^(count - 1)
        n = 7
        top = n * 128 * 64 ** (count - 1)
        deviation = np.full(n, 128, dtype=np.int64)
        plus, minus = np.full(n, 64, dtype=np.int64), np.full(n, -64, dtype=np.int64)
        for rest, sign in (([plus] * (count - 1), 1), ([minus] + [plus] * (count - 2), -1)):
            for at in range(count):
                arrays = rest[:at] + [deviation] + rest[at:]
                assert _per_d_partials(*_slice_args(arrays)).tolist() == [sign * top] * n
                assert _support_pair_sum(*_pair_args(arrays)) == sign * n * top
        # the exact route on -64 with one +64 point, split there
        vals = np.full(n, -64, dtype=np.int64)
        vals[3] = 64
        want = sum(_brute_partials([vals.tolist()] * count))
        signal = k.ZnSignal(k.make_modulus(n), vals)
        assert k.apk_mean_zn([signal] * count).exact_numerator == want


class TestRouteFacts:
    """One j >= 4 decision works out the mirror test and the sparsest pair once each, in
    ``_kernel_route``; no kernel works out any of them again."""

    @staticmethod
    def _spy(monkeypatch):
        """(facts, kernels): each fact call with whether a kernel was running, and the kernels run."""
        facts, kernels, running = [], [], []
        for name in ("_per_d_partials", "_slice_sum", "_packed_slice_sum", "_support_pair_sum"):

            def kernel(*args, name=name, original=getattr(apcount, name)):
                if not running:
                    kernels.append(name)
                running.append(name)
                try:
                    return original(*args)
                finally:
                    running.pop()

            monkeypatch.setattr(f"ap4kit.apcount.{name}", kernel)
        for name in ("_mirrored", "_sparsest_pair", "_is_indicator"):

            def fact(*args, name=name, original=getattr(apcount, name)):
                facts.append((name, bool(running)))
                return original(*args)

            monkeypatch.setattr(f"ap4kit.apcount.{name}", fact)
        return facts, kernels

    def test_each_decision_once(self, monkeypatch):
        m = k.make_modulus(10007)
        a = k.sample_indicator(k.build_probability_signal(m), k.RngStream(42))
        f, p = k.build_interval_signal(m), k.build_probability_signal(m)
        cases = [  # (call, the kernels it runs, one per decision)
            (lambda: k.apk_mean_zn([a] * 4), ["_packed_slice_sum"]),
            (lambda: k.apk_mean_zn([f] * 4), ["_support_pair_sum"]),
            (lambda: k.apk_mean_zn([p] * 4), ["_slice_sum"]),  # the split's second term
            (lambda: k.modulated_ap4_mean(f, (1, 2, 3)), ["_support_pair_sum"]),
        ]
        for call, want in cases:
            with monkeypatch.context() as patch:
                facts, kernels = self._spy(patch)
                call()
            decisions = 2 if want == ["_slice_sum"] else 1  # [P] * 4 decides before its split
            assert kernels == want
            assert not any(inside for _, inside in facts)
            for name in ("_mirrored", "_sparsest_pair"):
                assert [n for n, _ in facts].count(name) == decisions


class TestClosedForms:
    """Constant inputs factored out; the per-d kernel is the oracle."""

    @pytest.mark.parametrize("n", [5, 7, 11, 101, 1009])
    @pytest.mark.parametrize("count", [3, 4, 5])
    def test_matches_kernel(self, n, count):
        for sigs in _pattern_cases(n, count, seed=100 * n + count):
            mean = k.apk_mean_zn(sigs)
            assert mean.pair_count == n * n
            if mean.exact_numerator is not None:
                assert all(s.exact for s in sigs)
                assert type(mean.exact_numerator) is int
                oracle = sum(_per_d_partials(*_slice_args([s.values for s in sigs])).tolist())
                assert mean.exact_numerator == oracle
                assert mean.value == oracle / (n * n)
            else:
                arrays = [s.values.astype(np.float64) for s in sigs]
                oracle = math.fsum(_per_d_partials(*_slice_args(arrays)).tolist()) / (n * n)
                # relative past 1: a mean of +/-64 inputs reaches 5.6e8, where an ulp is 1.2e-7
                assert abs(mean.value - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_kernel_not_called_for_closed_forms(self, monkeypatch):
        monkeypatch.setattr("ap4kit.apcount._per_d_partials", _forbidden)
        monkeypatch.setattr("ap4kit.apcount._support_pair_sum", _forbidden)
        for count in (3, 4, 5):
            for sigs in _pattern_cases(11, count, seed=count):
                free = sum(1 for s in sigs if not (s.values == s.values[0]).all())
                if free <= 3:
                    k.apk_mean_zn(sigs)


class TestCyclicConvolution:
    """The big-integer convolution against a direct O(n^2) cyclic convolution."""

    @pytest.mark.parametrize(
        "n, f_range, h_range",
        [
            (7, (0, 52), (0, 1)),  # largest coefficient 52 * 5 = 260 > 2^8
            (11, (-64, 64), (-64, -7)),  # shifted: 128 * 57 * 9 = 65664 > 2^16
            (1031, (-64, 64), (-64, 64)),  # shifted: 128^2 * 1029 > 2^24
            (5, (0, 0), (-3, 3)),  # an all-zero input
        ],
    )
    @pytest.mark.parametrize("spread", [False, True])
    def test_matches_direct(self, n, f_range, h_range, spread):
        rng = np.random.default_rng(n)

        def values(lo, hi):
            # without spread every entry but the first is the maximum, so after
            # the shift the largest linear coefficient is max(F) max(H) (n - 2)
            v = rng.integers(lo, hi + 1, n) if spread else np.full(n, hi)
            v[:2] = lo, hi
            return v.astype(np.int64)

        f, h = values(*f_range), values(*h_range)
        z = np.arange(n)
        want = [int(np.dot(f, h[(t - z) % n])) for t in range(n)]
        assert _cyclic_convolution(f, h).tolist() == want
        assert _cyclic_convolution(h, f).tolist() == want


def _ap4_mean_profile(s):
    """Per-d means: entry d is E_x s(x)s(x+d)s(x+2d)s(x+3d); their average is the 4-AP mean."""
    return _per_d_partials(*_slice_args([s.values.astype(np.float64)] * 4)) / s.n


class TestProfile:
    def test_constant(self):
        m = k.make_modulus(11)
        prof = _ap4_mean_profile(k.constant_signal(m, 1))
        assert np.abs(prof - 1.0).max() < 1e-15

    def test_profile_average_is_mean(self):
        n = 101
        m = k.make_modulus(n)
        s = k.ZnSignal(m, np.array(_random_int_signal(n, 321), dtype=np.float64))
        prof = _ap4_mean_profile(s)
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
