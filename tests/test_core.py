"""Moduli, signals, intervals, and the random stream."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap4kit as k
from ap4kit.core import reduce_sum
from ap4kit.errors import IoFailureError, NotPrimeError, TooLargeError, TooSmallError


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
        # F is the +/-1 combination of its block indicators, read through residues()
        m = k.make_modulus(6007)
        t = k.interval_block_length(m)
        lift = k.lift_signal(k.sign_grid(k.reference_design()))
        want = np.zeros(m.n, dtype=np.int64)
        for block in lift.support():
            want[k.interval_block(block, t).residues(m)] += lift.value_at(block)
        assert (k.build_interval_signal(m).values == want).all()

    def test_wrapping_interval(self):
        # a full-length interval from a nonzero start runs through n - 1 and on from 0
        m = k.make_modulus(11)
        assert k.IntervalZn(5, 11).residues(m).tolist() == [5, 6, 7, 8, 9, 10, 0, 1, 2, 3, 4]


class TestSignalStats:
    def test_constant(self):
        m = k.make_modulus(11)
        s = k.constant_signal(m, 1)
        assert k.signal_stats(s) == (1.0, 1.0, 1.0)

    def test_zero(self):
        m = k.make_modulus(11)
        s = k.constant_signal(m, 0)
        assert k.signal_stats(s) == (0.0, 0.0, 0.0)

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
    def test_float_mean_is_the_elementwise_fsum(self, build):
        s = build(k.make_modulus(10007))
        vals = s.values.astype(np.float64)
        got = k.signal_stats(k.ZnSignal(s.modulus, vals))
        assert got.mean == math.fsum(vals.tolist()) / 10007

    @pytest.mark.parametrize(
        "vals",
        [
            [2**40, 0, 0, 0, 0],
            [2**62, 2**62, 0, 0, 0],
            [-(2**63), 0, 0, 0, 0],
            [-(2**63), 2**63 - 1, 0, 0, 0],
            [2**61, 2**61, 2**61, 2**61, 2**61],
            [2**60, 2**60, 2**60, 2**60, 2**60],
        ],
    )
    def test_large_values_do_not_wrap(self, vals):
        # all but the first and last have n * max |v| >= 2**63 and are summed in Python
        # integers; the int64 sums of the second and the fifth would wrap
        s = k.ZnSignal(k.make_modulus(5), np.array(vals, dtype=np.int64))
        want = (sum(vals) / 5, float(min(vals)), float(max(vals)))
        assert k.signal_stats(s) == want


    def test_exact_sum_that_would_wrap_in_int64(self):
        # 11 * 2**60 > 2**63: the int64 sum would wrap, so the mean takes Python integers
        s = k.ZnSignal(k.make_modulus(11), np.full(11, 2**60, dtype=np.int64))
        assert k.signal_stats(s) == (2.0**60, 2.0**60, 2.0**60)


class _ListSpy(np.ndarray):
    """An array that counts its tolist calls, which only the Python-integer sum makes."""

    lists = 0

    def tolist(self):
        _ListSpy.lists += 1
        return super().tolist()


class TestReduceSum:
    def test_empty_int64_is_zero(self):
        total = reduce_sum(np.zeros(0, dtype=np.int64))
        assert total == 0 and type(total) is int

    @pytest.mark.parametrize(
        ("vals", "in_python"),
        [
            ([2**62 - 1, 2**62 - 1], False),  # size * max|v| = 2**63 - 2
            ([2**62, 2**62], True),  # 2**63: the int64 sum would wrap
            ([-(2**62), -(2**62)], True),
            ([(2**63 - 1) // 3] * 3, False),  # 2**63 - 2
            ([(2**63 - 1) // 3 + 1, -1, 0], True),  # 2**63 + 1
        ],
    )
    def test_int64_shortcut_edge(self, vals, in_python):
        spy = np.array(vals, dtype=np.int64).view(_ListSpy)
        _ListSpy.lists = 0
        assert reduce_sum(spy) == sum(vals)
        assert _ListSpy.lists == in_python

    def test_most_negative_entry(self):
        vals = np.array([-(2**63), 5, 7], dtype=np.int64)
        assert reduce_sum(vals) == -(2**63) + 12
        assert reduce_sum(vals[:1]) == -(2**63)

    def test_float_and_complex_go_through_fsum(self):
        vals = np.array([1e16, 1.0, -1e16, 1.0])
        assert reduce_sum(vals) == 2.0  # the left-to-right float sum is 1.0
        got = reduce_sum(vals + 1j * vals[::-1])
        assert got == complex(2.0, 2.0) and type(got) is complex
        assert reduce_sum(np.zeros(0)) == 0.0


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

    def test_negative_word_count_rejected(self):
        # a negative count must not rewind the stream into words already drawn
        r = k.RngStream(0)
        first = r.next_word()
        with pytest.raises(ValueError):
            r.words(-1)
        assert r.next_word() == self.SEED0_WORDS[1] != first
        assert r.words(0).shape == (0,)
        assert r.next_word() == self.SEED0_WORDS[2]

    @pytest.mark.parametrize(
        ("seed", "index", "want"),
        [
            (1, 0, 13830413928045401970),
            (42, 3, 885919558081284366),
            (2**64 - 1, 5, 1030865485958021921),
            (7, 2**64 - 1, 13225839796362995591),
            (7, 2**64, 9672475392221035855),
            (7, 5, 6356872459430266104),
            (7, 3 * 2**64 + 5, 6356872459430266104),  # index + 1 wraps mod 2**64
        ],
    )
    def test_frozen_child_seeds(self, seed, index, want):
        assert k.RngStream(seed).child(index).seed == want

    def test_children_differ(self):
        r = k.RngStream(1)
        seeds = {r.child(i).seed for i in range(100)}
        assert len(seeds) == 100
        assert r.child(0).seed == k.RngStream(1).child(0).seed


class TestSignalFiles:
    def test_round_trip_exact(self, tmp_path):
        m = k.make_modulus(11)
        s = k.ZnSignal(m, np.array([0, 0, -1, -1, -1, 0, 0, 0, 0, 0, 0]))
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
