"""Moduli, signals, intervals, and the random stream."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap4kit as k
from ap4kit.errors import (
    IoFailureError,
    NotPrimeError,
    OverlappingIntervalsError,
    TooLargeError,
    TooSmallError,
)


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


class TestMakeModulus:
    def test_examples(self):
        assert k.make_modulus(10007).n == 10007
        assert k.make_modulus(5).n == 5
        with pytest.raises(NotPrimeError):
            k.make_modulus(10)
        with pytest.raises(TooSmallError):
            k.make_modulus(4)
        with pytest.raises(TooSmallError):
            k.make_modulus(3)
        with pytest.raises(TooLargeError):
            k.make_modulus(2**31)

    def test_direct_construction_validated(self):
        assert k.Modulus(11) == k.make_modulus(11)
        with pytest.raises(NotPrimeError):
            k.Modulus(12)
        with pytest.raises(TooSmallError):
            k.Modulus(4)

    def test_is_prime_below_two(self):
        for n in (0, 1, -7):
            assert not k.is_prime(n), n

    def test_matches_sieve_up_to_1e5(self):
        flags = _sieve(100_000)
        for n in range(5, 100_001):
            assert k.is_prime(n) == bool(flags[n]), n


class TestIntervals:
    def test_residues_wrap(self):
        m = k.make_modulus(11)
        iv = k.IntervalZn(9, 3)
        assert iv.residues(m).tolist() == [9, 10, 0]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            k.IntervalZn(-1, 3)
        with pytest.raises(ValueError):
            k.IntervalZn(0, 0)

    def test_interval_longer_than_modulus(self):
        m = k.make_modulus(11)
        assert k.IntervalZn(0, 11).residues(m).tolist() == list(range(11))
        with pytest.raises(ValueError):
            k.IntervalZn(0, 12).residues(m)

    def test_build_from_intervals(self):
        m = k.make_modulus(11)
        s = k.signal_from_weighted_intervals(m, [(k.IntervalZn(2, 3), 1)])
        assert s.values.tolist() == [0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        assert s.exact

    def test_wrapping_interval(self):
        m = k.make_modulus(11)
        s = k.signal_from_weighted_intervals(m, [(k.IntervalZn(9, 3), 1)])
        assert s.values.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]

    def test_overlap_rejected(self):
        m = k.make_modulus(11)
        with pytest.raises(OverlappingIntervalsError):
            k.signal_from_weighted_intervals(
                m, [(k.IntervalZn(2, 2), 1), (k.IntervalZn(3, 2), -1)]
            )

    def test_bad_weight_rejected(self):
        m = k.make_modulus(11)
        with pytest.raises(ValueError):
            k.signal_from_weighted_intervals(m, [(k.IntervalZn(0, 2), 2)])

    def test_linear_in_parts(self):
        # building from a disjoint union equals the pointwise sum of the builds
        m = k.make_modulus(101)
        rng = k.RngStream(3)
        for _ in range(20):
            starts = sorted({int(rng.next_word() % 101) for _ in range(6)})
            parts = []
            for a, b in zip(starts, starts[1:]):
                if b - a > 1:
                    parts.append(
                        (k.IntervalZn(a, b - a - 1), 1 if rng.next_word() % 2 else -1)
                    )
            half = len(parts) // 2
            full = k.signal_from_weighted_intervals(m, parts)
            left = k.signal_from_weighted_intervals(m, parts[:half])
            right = k.signal_from_weighted_intervals(m, parts[half:])
            assert (full.values == left.values + right.values).all()


class TestSignalStats:
    def test_constant(self):
        m = k.make_modulus(11)
        s = k.constant_signal(m, 1)
        assert k.signal_stats(s) == (1.0, 1.0, 1.0, 1.0)

    def test_zero(self):
        m = k.make_modulus(11)
        s = k.constant_signal(m, 0)
        assert k.signal_stats(s) == (0.0, 0.0, 0.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=11, max_size=11))
    def test_mean_is_zeroth_coefficient(self, vals):
        m = k.make_modulus(11)
        s = k.ZnSignal(m, np.array(vals))
        sp = k.dft(s)
        assert abs(k.signal_stats(s).mean - sp.coeffs[0].real) < 1e-12
        assert abs(sp.coeffs[0].imag) < 1e-12

    def test_complex_rejected(self):
        m = k.make_modulus(11)
        s = k.quadratic_phase_signal(m, 1)
        with pytest.raises(ValueError):
            k.signal_stats(s)

    @pytest.mark.parametrize(
        "build", [k.build_interval_signal, k.build_modulated_signal, k.build_probability_signal]
    )
    def test_float_sum_of_squares_is_the_elementwise_fsum(self, build):
        # the squares numpy forms are the IEEE products Python forms, so the sum is bit-identical
        s = build(k.make_modulus(10007))
        vals = s.values.astype(np.float64)
        got = k.signal_stats(k.ZnSignal(s.modulus, vals))
        assert got.l2_mean == math.fsum(v * v for v in vals.tolist()) / 10007
        assert got.mean == math.fsum(vals.tolist()) / 10007

    @pytest.mark.parametrize(
        "vals",
        [
            [2**40, 0, 0, 0, 0],
            [2**62, 2**62, 0, 0, 0],
            [-(2**63), 0, 0, 0, 0],
            [-(2**63), 2**63 - 1, 0, 0, 0],
        ],
    )
    def test_large_values_do_not_wrap(self, vals):
        # the int64 sum or sum of squares of these wraps
        s = k.ZnSignal(k.make_modulus(5), np.array(vals, dtype=np.int64))
        want = (sum(vals) / 5, sum(v * v for v in vals) / 5, float(min(vals)), float(max(vals)))
        assert k.signal_stats(s) == want


class TestIntSignalZ:
    def test_canonical_trim(self):
        f = k.IntSignalZ(5, (0, 0, 1, -1, 0))
        assert f.offset == 7
        assert f.values == (1, -1)
        assert f.support() == (7, 8)

    def test_zero_signal(self):
        f = k.IntSignalZ(5, (0, 0, 0))
        assert f.values == ()
        assert f.value_at(5) == 0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            k.IntSignalZ(0, (5,))

    def test_value_at(self):
        f = k.IntSignalZ(3, (2, 0, -1))
        assert f.value_at(3) == 2
        assert f.value_at(4) == 0
        assert f.value_at(5) == -1
        assert f.value_at(99) == 0


class TestRngStream:
    # Reference words of the splitmix64 sequence for seed 0 and seed 1234567.
    SEED0_WORDS = (
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    )

    def test_frozen_vectors(self):
        r = k.RngStream(0)
        assert tuple(r.next_word() for _ in range(4)) == self.SEED0_WORDS
        assert k.RngStream(1234567).next_word() == 6457827717110365317

    def test_vectorized_matches_scalar(self):
        a = k.RngStream(987654321)
        b = k.RngStream(987654321)
        block = a.words(1000)
        assert [int(w) for w in block] == [b.next_word() for _ in range(1000)]
        # interleaving scalar and block draws continues the same sequence
        assert a.next_word() == b.next_word()

    def test_same_seed_same_sequence(self):
        xs = [k.RngStream(7).next_word() for _ in range(3)]
        ys = [k.RngStream(7).next_word() for _ in range(3)]
        assert xs == ys

    def test_negative_child_rejected(self):
        with pytest.raises(ValueError):
            k.RngStream(1).child(-1)

    def test_children_differ(self):
        r = k.RngStream(1)
        seeds = {r.child(i).seed for i in range(100)}
        assert len(seeds) == 100
        assert r.child(0).seed == k.RngStream(1).child(0).seed


class TestSignalFiles:
    def test_round_trip_exact(self, tmp_path):
        m = k.make_modulus(11)
        s = k.signal_from_weighted_intervals(m, [(k.IntervalZn(2, 3), -1)])
        path = tmp_path / "sig.json"
        k.save_signal(s, path)
        loaded = k.load_signal(path)
        assert loaded.exact
        assert (loaded.values == s.values).all()

    def test_round_trip_float(self, tmp_path):
        m = k.make_modulus(11)
        s = k.ZnSignal(m, np.linspace(-1, 1, 11))
        path = tmp_path / "sig.json"
        k.save_signal(s, path)
        loaded = k.load_signal(path)
        assert not loaded.exact
        assert np.array_equal(loaded.values, s.values)

    def test_complex_signal_not_saved(self, tmp_path):
        m = k.make_modulus(11)
        path = tmp_path / "sig.json"
        with pytest.raises(ValueError):
            k.save_signal(k.constant_signal(m, 1j), path)
        assert not path.exists()

    def test_reject_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 11, "values": [0] * 10}))
        with pytest.raises(IoFailureError):
            k.load_signal(path)

    def test_reject_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 11, "values": [0] * 11, "extra": 1}))
        with pytest.raises(IoFailureError):
            k.load_signal(path)

    MALFORMED = {
        "bool-value": b'{"n": 5, "values": [0, 1, true, 0, 1]}',
        "all-bool": b'{"n": 5, "values": [false, false, false, false, false]}',
        "bool-n": b'{"n": true, "values": [0]}',
        "nan": b'{"n": 5, "values": [0.5, NaN, 0.5, 0.5, 0.5]}',
        "infinity": b'{"n": 5, "values": [0, Infinity, 0, 0, 0]}',
        "minus-infinity": b'{"n": 5, "values": [0, -Infinity, 0, 0, 0]}',
        "float-overflow": b'{"n": 5, "values": [0, 1e400, 0, 0, 0]}',
        "int-beyond-int64": b'{"n": 5, "values": [0, 9223372036854775808, 0, 0, 0]}',
        "huge-int-among-floats": b'{"n": 5, "values": [0.5, 1' + b"0" * 400 + b', 0, 0, 0]}',
        "string": b'{"n": 5, "values": [0, "1", 0, 0, 0]}',
        "null": b'{"n": 5, "values": [0, null, 0, 0, 0]}',
        "nested-list": b'{"n": 5, "values": [0, [1], 0, 0, 0]}',
        "truncated": b'{"n": 5, "values": [0, 1, 0, 0, 0',
        "invalid-utf8": b'{"n": 5, "values": [0, 0, 0, 0, 0]}\xff',
        "nested-too-deep": b"[" * 100000,
        "int-too-many-digits": b'{"n": 5, "values": [0, 1' + b"0" * 5000 + b', 0, 0, 0]}',
    }

    @pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
    def test_reject_malformed_values(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(IoFailureError):
            k.load_signal(path)

    def test_int64_extremes_accepted(self, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"n": 5, "values": [-(2**63), 2**63 - 1, 0, 0, 0]}))
        assert k.load_signal(path).values.tolist() == [-(2**63), 2**63 - 1, 0, 0, 0]

    def test_save_bytes_unchanged(self, tmp_path):
        m = k.make_modulus(5)
        path = tmp_path / "sig.json"
        k.save_signal(k.ZnSignal(m, np.array([0, -1, 1, 0, 2])), path)
        assert path.read_text() == '{"n": 5, "values": [0, -1, 1, 0, 2]}\n'
        k.save_signal(k.ZnSignal(m, np.array([0.0, 0.5, 0.1, -1.0, 1e300])), path)
        assert path.read_text() == '{"n": 5, "values": [0.0, 0.5, 0.1, -1.0, 1e+300]}\n'

    def test_reject_composite_modulus(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 9, "values": [0] * 9}))
        with pytest.raises(NotPrimeError):
            k.load_signal(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            k.load_signal(tmp_path / "absent.json")


def test_signal_immutable():
    m = k.make_modulus(11)
    s = k.constant_signal(m, 1)
    with pytest.raises(ValueError):
        s.values[0] = 2


@pytest.mark.parametrize(
    "source",
    [
        np.arange(11, dtype=np.int64),
        np.arange(11, dtype=np.int32),
        np.arange(11) % 2 == 0,
        np.linspace(-1.0, 1.0, 11),
        np.exp(1j * np.arange(11.0)),
    ],
    ids=["int64", "int32", "bool", "float64", "complex128"],
)
def test_signal_keeps_no_alias_of_its_source(source):
    # the one copy is the dtype conversion, which also runs when the dtype already fits
    s = k.ZnSignal(k.make_modulus(11), source)
    before = s.values.copy()
    source[:] = source[::-1]
    assert not np.shares_memory(s.values, source)
    assert np.array_equal(s.values, before)


def test_signal_length_checked():
    m = k.make_modulus(11)
    with pytest.raises(ValueError):
        k.ZnSignal(m, np.zeros(10))
