"""Search engines against brute-force enumeration."""

import itertools
import math

import numpy as np
import pytest

import ap4kit as k
from ap4kit.errors import TooLargeError
from ap4kit.search import (
    SearchResult,
    _block_minimum,
    _walsh_hadamard,
    _yates,
)


def _brute(n, alphabet):
    """The whole SearchResult by direct evaluation of every assignment."""
    sums = {
        vals: k.ap4_sum_z(k.IntSignalZ(1, vals)) for vals in itertools.product(alphabet, repeat=n)
    }
    best = min(sums.values())
    witnesses = tuple(sorted(vals for vals, s in sums.items() if s == best))
    return SearchResult(best, witnesses, len(alphabet) ** n, True)


class TestTransforms:
    def test_walsh_hadamard_matches_definition(self):
        c = np.random.default_rng(0).integers(-5, 6, 16).astype(np.int32)
        expected = [
            sum(int(c[m]) * (-1) ** bin(x & m).count("1") for m in range(16)) for x in range(16)
        ]
        assert _walsh_hadamard(c).tolist() == expected

    def test_yates_matches_definition(self):
        # index sum_i (v_i + 1) 3^i, coefficient c[m] on the monomial of m's set bits
        c = np.random.default_rng(1).integers(-5, 6, 8).astype(np.int32)
        expected = [0] * 27
        for v in itertools.product((-1, 0, 1), repeat=3):
            index = sum((vi + 1) * 3**i for i, vi in enumerate(v))
            expected[index] = sum(
                int(c[m]) * math.prod(v[i] for i in range(3) if m >> i & 1) for m in range(8)
            )
        assert _yates(c).tolist() == expected


class TestPm1:
    def test_n1(self):
        result = k.min_ap4_pm1(1)
        assert result.best_value == 1
        assert result.exhaustive
        assert result.nodes_explored == 2
        assert set(result.witnesses) == {(1,), (-1,)}

    def test_n4(self):
        # hand enumeration: 4 degenerate pairs plus twice f1 f2 f3 f4, minimized at -1
        result = k.min_ap4_pm1(4)
        assert result.best_value == 2
        for w in result.witnesses:
            assert w[0] * w[1] * w[2] * w[3] == -1

    def test_matches_brute_force(self):
        # the whole result: minimum, sorted witnesses, node count
        for n in range(1, 13):
            assert k.min_ap4_pm1(n) == _brute(n, (-1, 1)), n

    @pytest.mark.parametrize("low", [1, 2, 3])
    def test_block_split_matches_brute_force(self, low):
        # n > low puts the high coordinates in the outer block loop
        for n in (4, 6, 8):
            assert _block_minimum(n, low, (1, -1), _walsh_hadamard) == _brute(n, (-1, 1))

    def test_regression_n20(self):
        # frozen from the Gray-code sweep this transform replaced
        result = k.min_ap4_pm1(20)
        assert result.best_value == -42
        assert len(result.witnesses) == 48
        assert result.nodes_explored == 2**20
        assert result.exhaustive
        first = (-1, -1, -1, -1, 1, -1, -1, -1, -1, 1, -1, -1, 1, -1, 1, 1, 1, -1, -1, -1)
        assert result.witnesses[0] == first
        assert result.witnesses[-1] == tuple(-v for v in first)

    def test_witnesses_reproduce_best(self):
        result = k.min_ap4_pm1(9)
        for w in result.witnesses:
            assert k.ap4_sum_z(k.IntSignalZ(1, w)) == result.best_value

    def test_witness_set_closed_under_symmetries(self):
        result = k.min_ap4_pm1(10)
        witnesses = set(result.witnesses)
        for w in witnesses:
            assert tuple(-v for v in w) in witnesses
            assert tuple(reversed(w)) in witnesses

    def test_witnesses_sorted(self):
        result = k.min_ap4_pm1(8)
        assert list(result.witnesses) == sorted(result.witnesses)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            k.min_ap4_pm1(25)
        with pytest.raises(ValueError):
            k.min_ap4_pm1(0)


class TestTernary:
    def test_n1(self):
        result = k.min_ap4_ternary(1)
        assert result.best_value == 0
        assert result.witnesses == ((0,),)
        assert result.nodes_explored == 3

    def test_n4(self):
        # any zero kills the only nondegenerate line, so the all-zero
        # assignment's value 0 is the minimum (all-nonzero gives >= 2)
        result = k.min_ap4_ternary(4)
        assert result.best_value == 0
        assert (0, 0, 0, 0) in result.witnesses
        assert result.best_value <= k.min_ap4_pm1(4).best_value

    def test_matches_brute_force(self):
        # the whole result: minimum, sorted witnesses, node count
        for n in range(1, 8):
            assert k.min_ap4_ternary(n) == _brute(n, (-1, 0, 1)), n

    @pytest.mark.parametrize("low", [1, 2, 3])
    def test_block_split_matches_brute_force(self, low):
        for n in (4, 6):
            assert _block_minimum(n, low, (-1, 0, 1), _yates) == _brute(n, (-1, 0, 1))

    def test_monotone_in_n(self):
        # a witness on {1..n} extends by one zero to {1..n+1}
        values = [k.min_ap4_ternary(n).best_value for n in range(3, 9)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_witnesses_reproduce_best(self):
        result = k.min_ap4_ternary(6)
        for w in result.witnesses:
            assert k.ap4_sum_z(k.IntSignalZ(1, w)) == result.best_value

    def test_regression_n12(self):
        # frozen from the Gray-code sweep this transform replaced
        result = k.min_ap4_ternary(12)
        assert result.best_value == -12
        assert len(result.witnesses) == 16
        assert result.nodes_explored == 3**12
        assert result.exhaustive
        assert result.witnesses[0] == (-1, -1, -1, 1, -1, 1, 1, 1, -1, 1, -1, -1)
        assert result.witnesses[-1] == (1, 1, 1, -1, 1, -1, -1, -1, 1, -1, 1, 1)

    def test_regression_n10(self):
        # frozen from the first exhaustive run of the 3^10 sweep
        result = k.min_ap4_ternary(10)
        assert result.best_value == -6
        assert len(result.witnesses) == 32
        assert result.nodes_explored == 3**10

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            k.min_ap4_ternary(17)


class TestGridDesignSearch:
    def test_exhaustive_census(self):
        designs = k.search_grid_designs()
        # frozen from the first exhaustive run over the 576 candidates
        assert len(designs) == 8
        ref = k.reference_design()
        assert any(d.points == ref.points for d in designs)
        for d in designs:
            assert k.validate_design(d).ok
            assert k.grid_ap4_sum(k.sign_grid(d)) == -72

    def test_negative_max_results_rejected(self):
        with pytest.raises(ValueError):
            k.search_grid_designs(max_results=-1)

    def test_max_results_truncates(self):
        some = k.search_grid_designs(max_results=3)
        assert len(some) == 3
        for d in some:
            assert k.validate_design(d).ok

    def test_deterministic_order(self):
        a = k.search_grid_designs()
        b = k.search_grid_designs()
        assert [sorted(d.points) for d in a] == [sorted(d.points) for d in b]
