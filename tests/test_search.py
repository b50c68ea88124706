"""Search engines against brute-force enumeration."""

import functools
import itertools
import math
import sys

import numpy as np
import pytest

import ap4kit as k
from ap4kit import search
from ap4kit.errors import TooLargeError
from ap4kit.search import (
    SearchResult,
    _block_minimum,
    _walsh_hadamard,
    _yates,
)


@functools.cache
def _brute(n, alphabet):
    """The whole SearchResult by direct evaluation of every assignment."""
    sums = {
        vals: k.ap4_sum_z(k.IntSignalZ(1, vals)) for vals in itertools.product(alphabet, repeat=n)
    }
    best = min(sums.values())
    witnesses = tuple(sorted(vals for vals, s in sums.items() if s == best))
    return SearchResult(best, witnesses, len(alphabet) ** n, True)


def _orbit_leaders(width, alphabet):
    """The least element of each orbit of alphabet^width under negation and reversal."""
    return {
        min(w, w[::-1], tuple(-v for v in w), tuple(-v for v in w[::-1]))
        for w in itertools.product(alphabet, repeat=width)
    }


def _counting(transform):
    """transform, and a list of the block size of each call."""
    calls = []

    def spy(c):
        calls.append(c.size)
        return transform(c)

    return spy, calls


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

    @pytest.mark.parametrize("low", range(1, 13))
    def test_block_split_matches_brute_force(self, low):
        # n > low puts outer positions around the middle run, with n - low of
        # either parity; n <= low leaves none
        for n in range(1, 13):
            assert _block_minimum(n, low, (1, -1), _walsh_hadamard) == _brute(n, (-1, 1)), n

    def test_regression_n20(self, monkeypatch):
        # frozen from the Gray-code sweep this transform replaced
        spy, calls = _counting(_walsh_hadamard)
        monkeypatch.setattr(search, "_walsh_hadamard", spy)
        result = k.min_ap4_pm1(20)
        # 20 orbits of the 2^6 outer assignments, each one 2^14-value block
        # (one 2^13-value block per outer assignment would be 128)
        assert calls == [2**14] * 20
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

    @pytest.mark.parametrize("low", range(1, 8))
    def test_block_split_matches_brute_force(self, low):
        for n in range(1, 8):
            assert _block_minimum(n, low, (-1, 0, 1), _yates) == _brute(n, (-1, 0, 1)), n

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
        with pytest.raises(ValueError):
            k.min_ap4_ternary(0)


PM1 = ((1, -1), _walsh_hadamard)
TERNARY = ((-1, 0, 1), _yates)


class TestOrbitSweep:
    """One block per orbit of the outer assignments under {id, neg, rev, neg rev}."""

    @pytest.mark.parametrize(
        "n, low, space, orbits",
        [
            (12, 4, PM1, 72),      # 2^8 outer assignments
            (12, 5, PM1, 20),      # n - low odd: low grows to 6, 2^6 outer assignments
            (7, 1, TERNARY, 196),  # 3^6 outer assignments
            (7, 2, TERNARY, 25),   # low grows to 3, 3^4 outer assignments
            (5, 5, TERNARY, 1),    # no outer positions: one block
        ],
    )
    def test_one_transform_per_orbit(self, n, low, space, orbits):
        alphabet, transform = space
        spy, calls = _counting(transform)
        assert _block_minimum(n, low, alphabet, spy) == _brute(n, tuple(sorted(alphabet)))
        width = n - low - (n - low) % 2  # the outer positions, after low grows
        assert len(calls) == len(_orbit_leaders(width, alphabet)) == orbits

    def test_blocks_fixed_by_symmetries(self):
        # ternary n = 7, low = 1: six outer positions, whose orbit leaders
        # include outer assignments fixed by each symmetry
        leaders = _orbit_leaders(6, (-1, 0, 1))
        palindromes = [w for w in leaders if w == w[::-1] and any(w)]
        self_negating = [w for w in leaders if w == tuple(-v for v in w)]
        antipalindromes = [w for w in leaders if w == tuple(-v for v in w[::-1]) and any(w)]
        assert palindromes and antipalindromes and self_negating == [(0,) * 6]
        result = _block_minimum(7, 1, (-1, 0, 1), _yates)
        assert result == _brute(7, (-1, 0, 1))
        # a witness set closed under both symmetries, with no duplicates
        witnesses = set(result.witnesses)
        assert len(witnesses) == len(result.witnesses)
        assert witnesses == {tuple(-v for v in w) for w in witnesses}
        assert witnesses == {w[::-1] for w in witnesses}


def _latin_square_designs(max_results):
    """The 576-candidate walk that search_grid_designs replaced: layers of
    pairwise-disjoint permutation patterns (4x4 Latin squares) in lexicographic
    order, each complete candidate filtered through validate_design."""
    perms = list(itertools.permutations(range(1, 5)))
    found = []

    def extend(chosen):
        if len(chosen) == 4:
            design = k.GridDesign(
                frozenset(
                    (a, sigma[a - 1], c + 1) for c, sigma in enumerate(chosen) for a in range(1, 5)
                )
            )
            if k.validate_design(design).ok:
                found.append(design)
                if max_results and len(found) >= max_results:
                    return True
            return False
        for sigma in perms:
            if all(sigma[a] != prev[a] for prev in chosen for a in range(4)):
                chosen.append(sigma)
                if extend(chosen):
                    return True
                chosen.pop()
        return False

    extend([])
    found.sort(key=lambda d: tuple(sorted(d.points)))
    return tuple(found)


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

    def test_validates_only_accepted_leaves(self, monkeypatch):
        # an exact cover accepts only the 8 designs, so validate_design runs
        # 8 times, not once per Latin square, and never says no
        verdicts = []

        def counting(design):
            check = k.validate_design(design)
            verdicts.append(check.ok)
            return check

        monkeypatch.setattr(search, "validate_design", counting)
        assert len(k.search_grid_designs()) == 8
        assert verdicts == [True] * 8

    def test_search_tree_is_pruned(self):
        # 41 calls of the backtracking step over 12 options per layer, an
        # option skipped when it hits a line already hit.  Without that skip
        # the walk takes 22621 steps, and without the per-layer filter 133,
        # with the same 8 designs either way.
        steps = 0

        def profile(frame, event, arg):
            nonlocal steps
            code = frame.f_code
            if event == "call" and code.co_name == "extend" and code.co_filename == search.__file__:
                steps += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            designs = k.search_grid_designs()
        finally:
            sys.setprofile(previous)
        assert len(designs) == 8
        assert steps == 41

    def test_negative_max_results_rejected(self):
        with pytest.raises(ValueError):
            k.search_grid_designs(max_results=-1)

    def test_max_results_truncates(self):
        some = k.search_grid_designs(max_results=3)
        assert len(some) == 3
        for d in some:
            assert k.validate_design(d).ok

    @pytest.mark.parametrize("max_results", range(10))
    def test_matches_latin_square_oracle(self, max_results):
        # the same designs in the same order, so a cap keeps the same subset
        assert k.search_grid_designs(max_results) == _latin_square_designs(max_results)

    def test_first_design_frozen(self):
        # frozen from the 576-candidate walk: the first valid leaf in
        # lexicographic order of the layers' permutations
        (first,) = k.search_grid_designs(max_results=1)
        assert sorted(first.points) == [
            (1, 1, 1), (1, 2, 3), (1, 3, 4), (1, 4, 2),
            (2, 1, 4), (2, 2, 2), (2, 3, 1), (2, 4, 3),
            (3, 1, 2), (3, 2, 4), (3, 3, 3), (3, 4, 1),
            (4, 1, 3), (4, 2, 1), (4, 3, 2), (4, 4, 4),
        ]

    def test_deterministic_order(self):
        a = k.search_grid_designs()
        b = k.search_grid_designs()
        assert [sorted(d.points) for d in a] == [sorted(d.points) for d in b]
