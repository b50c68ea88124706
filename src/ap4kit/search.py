"""Rediscovery engines: grid-design enumeration and exact minimization of the
4-AP sum over sign assignments on {1..n}.

That sum is #nonzero(v) + 2 * (sum of the progression products), a sparse
multilinear polynomial whose values on the whole cube are one fast transform
of its coefficients: Walsh-Hadamard for +/-1, Yates' 2 -> 3 expansion for
{-1,0,1}.  The transforms run over the low coordinates in blocks of 2^13 or
3^8 int32 values (about 30 KB), one per assignment of the high coordinates.
Correctness is anchored to the exact ``ap4_sum_z`` evaluator in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constructions import GridDesign, validate_design
from .errors import TooLargeError

PM1_LIMIT = 24
TERNARY_LIMIT = 16

_PM1_LOW_BITS = 13         # one +/-1 block: 2^13 values
_TERNARY_LOW_DIGITS = 8    # one ternary block: 3^8 values


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive sweep; best_value is the true minimum when exhaustive."""

    best_value: int
    witnesses: tuple[tuple[int, ...], ...]
    nodes_explored: int
    exhaustive: bool


def _walsh_hadamard(c: np.ndarray) -> np.ndarray:
    """sum_m c[m] (-1)^|x & m| for every x: the values of the polynomial with
    coefficient c[m] on the monomial of m's set bits, where v_i = -1 on x's.

    Constant geometry: each stage combines the lowest index bit and rotates it
    to the top, so the output comes back in natural order.
    """
    for _ in range(c.size.bit_length() - 1):
        even, odd = c[0::2], c[1::2]
        c = np.concatenate((even + odd, even - odd))
    return c


def _yates(c: np.ndarray) -> np.ndarray:
    """The same polynomial at every {-1,0,1} point, indexed by sum_i (v_i + 1) 3^i:
    per coordinate, (c0, c1) -> (c0 - c1, c0, c0 + c1) in the same geometry."""
    for _ in range(c.size.bit_length() - 1):
        c0, c1 = c[0::2], c[1::2]
        c = np.concatenate((c0 - c1, c0, c0 + c1))
    return c


def _block_minimum(n: int, low: int, alphabet: tuple[int, ...], transform) -> SearchResult:
    """Exact minimum of the 4-AP sum over alphabet^n, one block per assignment
    of the n - low high coordinates.

    In a block each progression's product over its high coordinates is folded
    into the coefficient of its low monomial, ``transform`` evaluates the line
    sum at every low assignment (index sum_i digit_i base^i), and the
    degenerate pairs add #nonzero.  |total| <= n + 2 * #progressions <= 192 at
    the caps, far inside int32.
    """
    low = min(low, n)
    base = len(alphabet)
    parts = sorted(  # (low monomial, high positions) of each progression, step > 0
        (sum(1 << i for i in quad if i < low), [i - low for i in quad if i >= low])
        for d in range(1, (n - 1) // 3 + 1)
        for quad in (range(x, x + 4 * d, d) for x in range(n - 3 * d))
    )
    masks, starts = np.unique(np.array([m for m, _ in parts], dtype=np.intp), return_index=True)
    # high positions padded with index n - low, where each block appends a 1
    high_index = np.array(
        [h + [n - low] * (4 - len(h)) for _, h in parts], dtype=np.intp
    ).reshape(-1, 4)
    nonzero = np.zeros(1, dtype=np.int32)
    for _ in range(low):
        nonzero = np.concatenate([nonzero + (v != 0) for v in alphabet])
    coeffs = np.zeros(1 << low, dtype=np.int32)
    best = None
    witnesses: list[tuple[int, ...]] = []
    for high in itertools.product(alphabet, repeat=n - low):
        if parts:  # n < 4 has no progressions
            prods = np.array(high + (1,), dtype=np.int32)[high_index].prod(axis=1)
            coeffs[masks] = np.add.reduceat(prods, starts)
        total = 2 * transform(coeffs) + nonzero + sum(v != 0 for v in high)
        block_best = int(total.min())
        if best is None or block_best < best:
            best, witnesses = block_best, []
        if block_best == best:
            for x in np.flatnonzero(total == best).tolist():
                witnesses.append(tuple(alphabet[x // base**i % base] for i in range(low)) + high)
    witnesses.sort()
    return SearchResult(best, tuple(witnesses), base**n, True)


def min_ap4_pm1(n: int) -> SearchResult:
    """Exact minimum of the 4-AP sum over all +/-1 assignments on {1..n}.

    With v_i = -1 on the set bits of x, the line sum is the Walsh-Hadamard
    transform at x of the progression-mask counts, and total = n + 2 * line
    sum.  It runs over the low 13 coordinates, one 2^13-value block per
    assignment of the rest: O(n 2^n) integer additions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > PM1_LIMIT:
        raise TooLargeError(f"exhaustive +/-1 sweep is capped at n = {PM1_LIMIT}")
    return _block_minimum(n, _PM1_LOW_BITS, (1, -1), _walsh_hadamard)


def min_ap4_ternary(n: int) -> SearchResult:
    """Exact minimum of the 4-AP sum over all {-1,0,1} assignments on {1..n}.

    Yates' expansion evaluates the progression products over the low 8
    coordinates, one 3^8-value block per assignment of the rest, and the
    degenerate pairs add #nonzero(v): O(n 3^n) integer additions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > TERNARY_LIMIT:
        raise TooLargeError(f"exhaustive ternary sweep is capped at n = {TERNARY_LIMIT}")
    return _block_minimum(n, _TERNARY_LOW_DIGITS, (-1, 0, 1), _yates)


def search_grid_designs(max_results: int = 0) -> tuple[GridDesign, ...]:
    """Backtracking enumeration of valid grid designs.

    Candidates are quadruples of pairwise-disjoint 4x4 permutation patterns,
    one per horizontal plane (equivalently, 4x4 Latin squares); each candidate
    is then filtered through validate_design.  ``max_results = 0`` means
    exhaustive; the built-in design is among the results.  Designs come back
    sorted by their point lists, so the order is deterministic.  A negative
    ``max_results`` is a ValueError.
    """
    if max_results < 0:
        raise ValueError(f"max_results must be >= 0, got {max_results}")
    perms = list(itertools.permutations(range(1, 5)))
    found: list[GridDesign] = []

    def extend(chosen: list[tuple[int, ...]]) -> bool:
        if len(chosen) == 4:
            design = GridDesign(
                frozenset(
                    (a, sigma[a - 1], c + 1)
                    for c, sigma in enumerate(chosen)
                    for a in range(1, 5)
                )
            )
            if validate_design(design).ok:
                found.append(design)
                if max_results and len(found) >= max_results:
                    return True
            return False
        for sigma in perms:
            if all(
                sigma[a] != prev[a] for prev in chosen for a in range(4)
            ):
                chosen.append(sigma)
                if extend(chosen):
                    return True
                chosen.pop()
        return False

    extend([])
    found.sort(key=lambda d: tuple(sorted(d.points)))
    return tuple(found)
