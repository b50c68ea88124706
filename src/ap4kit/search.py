"""Rediscovery engines: grid-design enumeration and exact minimization of the
4-AP sum over sign assignments on {1..n}.

That sum is #nonzero(v) + 2 * (sum of the progression products), a sparse
multilinear polynomial whose values on the whole cube are one fast transform
of its coefficients: Walsh-Hadamard for +/-1, Yates' 2 -> 3 expansion for
{-1,0,1}.  The transforms run over a middle run of coordinates in blocks of
2^13-2^14 or 3^8-3^9 int32 values, one per orbit of the outer assignments
under negation and reversal, which leave the sum unchanged.
Correctness is anchored to the exact ``ap4_sum_z`` evaluator in tests.
The grid designs are exact covers of the 72 off-diagonal lines by one
permutation pattern per layer, found with bitmasks; validate_design confirms each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constructions import MAIN_DIAGONAL, GridDesign, Triple, enumerate_lines, validate_design
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


def _image(w: tuple[int, ...], flip: bool, sign: int) -> tuple[int, ...]:
    """w reversed when ``flip``, times ``sign``: one element of {id, neg, rev, neg rev}."""
    return tuple(sign * v for v in (w[::-1] if flip else w))


def _block_minimum(n: int, low: int, alphabet: tuple[int, ...], transform) -> SearchResult:
    """Exact minimum of the 4-AP sum over alphabet^n, one block per orbit of
    the outer assignments under {id, neg, rev, neg rev}.

    A block fixes the n - low outer positions, half on either side of a
    middle run of ``low`` (grown by one when n - low is odd).  Each
    progression's product over its outer positions is folded into the
    coefficient of its middle monomial, ``transform`` gives the line sum at
    every middle assignment (index sum_i digit_i base^i), and the degenerate
    pairs add #nonzero: |total| <= 192 at the caps, inside int32.  Each
    symmetry g maps the block of outer to the block of g(outer), witnesses to
    g(witnesses), so only the least outer of each orbit is evaluated; a block
    that g fixes holds a witness set closed under g.
    """
    low = min(low, n)
    low += (n - low) % 2
    half, base = (n - low) // 2, len(alphabet)
    middle = range(half, half + low)
    parts = sorted(  # (middle monomial, outer indices) of each progression, step > 0
        (sum(1 << (i - half) for i in quad if i in middle),
         [i if i < half else i - low for i in quad if i not in middle])
        for d in range(1, (n - 1) // 3 + 1)
        for quad in (range(x, x + 4 * d, d) for x in range(n - 3 * d))
    )
    masks, starts = np.unique(np.array([m for m, _ in parts], dtype=np.intp), return_index=True)
    # outer indices padded with index n - low, where each block appends a 1
    outer_index = np.array([h + [n - low] * (4 - len(h)) for _, h in parts], dtype=np.intp)
    nonzero = np.zeros(1, dtype=np.int32)
    for _ in range(low):
        nonzero = np.concatenate([nonzero + (v != 0) for v in alphabet])
    coeffs = np.zeros(1 << low, dtype=np.int32)
    best = None
    witnesses: list[tuple[int, ...]] = []
    for outer in itertools.product(alphabet, repeat=n - low):
        images = {_image(outer, *g): g for g in ((False, 1), (True, 1), (False, -1), (True, -1))}
        if min(images) != outer:
            continue
        if parts:  # n < 4 has no progressions
            prods = np.array(outer + (1,), dtype=np.int32)[outer_index].prod(axis=1)
            coeffs[masks] = np.add.reduceat(prods, starts)
        total = 2 * transform(coeffs) + nonzero + sum(v != 0 for v in outer)
        block_best = int(total.min())
        if best is None or block_best < best:
            best, witnesses = block_best, []
        if block_best == best:
            for x in np.flatnonzero(total == best).tolist():
                mid = tuple(alphabet[x // base**i % base] for i in range(low))
                w = outer[:half] + mid + outer[half:]
                witnesses += (_image(w, *g) for g in images.values())
    witnesses.sort()
    return SearchResult(best, tuple(witnesses), base**n, True)


def min_ap4_pm1(n: int) -> SearchResult:
    """Exact minimum of the 4-AP sum over all +/-1 assignments on {1..n}.

    With v_i = -1 on the set bits of x, the line sum is the Walsh-Hadamard
    transform at x of the progression-mask counts, and total = n + 2 * line
    sum.  It runs over 13 or 14 middle coordinates, one block per orbit of
    the rest: about a quarter of O(n 2^n) integer additions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > PM1_LIMIT:
        raise TooLargeError(f"exhaustive +/-1 sweep is capped at n = {PM1_LIMIT}")
    return _block_minimum(n, _PM1_LOW_BITS, (1, -1), _walsh_hadamard)


def min_ap4_ternary(n: int) -> SearchResult:
    """Exact minimum of the 4-AP sum over all {-1,0,1} assignments on {1..n}.

    Yates' expansion evaluates the progression products over 8 or 9 middle
    coordinates, one block per orbit of the rest, and the degenerate pairs
    add #nonzero(v): about a quarter of O(n 3^n) integer additions.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > TERNARY_LIMIT:
        raise TooLargeError(f"exhaustive ternary sweep is capped at n = {TERNARY_LIMIT}")
    return _block_minimum(n, _TERNARY_LOW_DIGITS, (-1, 0, 1), _yates)


def search_grid_designs(max_results: int = 0) -> tuple[GridDesign, ...]:
    """Exact-cover enumeration of the designs: the 16-point sets that meet each
    of the 72 lines other than the main diagonals exactly once.

    Each line is one bit.  Layer c offers the points {(a, sigma(a), c)} of each
    permutation sigma that hits no line twice, in lexicographic order of sigma;
    the backtracking skips options that hit a line already hit, accepts a leaf
    only when all 72 are hit, and validate_design confirms each accepted leaf.
    ``max_results = 0`` means exhaustive; the built-in design is among the
    results.  Designs come back sorted by their point lists, so the order is
    deterministic.  A negative ``max_results`` is a ValueError.
    """
    if max_results < 0:
        raise ValueError(f"max_results must be >= 0, got {max_results}")
    lines = [line for line in enumerate_lines() if line.kind != MAIN_DIAGONAL]
    line_bits: dict[Triple, int] = {}
    for i, line in enumerate(lines):
        for p in line.points:
            line_bits[p] = line_bits.get(p, 0) | 1 << i
    full = (1 << len(lines)) - 1
    layers: list[list[tuple[list[Triple], int]]] = []
    for c in range(1, 5):
        layers.append([])
        for sigma in itertools.permutations(range(1, 5)):
            points, mask = [(a, b, c) for a, b in enumerate(sigma, 1)], 0
            for p in points:
                if mask & line_bits[p]:
                    break
                mask |= line_bits[p]
            else:
                layers[-1].append((points, mask))
    found: list[GridDesign] = []

    def extend(chosen: tuple, used: int) -> bool:
        if len(chosen) < 4:
            return any(
                extend(chosen + (points,), used | mask)
                for points, mask in layers[len(chosen)]
                if not used & mask
            )
        if used != full:
            return False
        design = GridDesign(frozenset(itertools.chain(*chosen)))
        if validate_design(design).ok:
            found.append(design)
        return 0 < max_results <= len(found)

    extend((), 0)
    found.sort(key=lambda d: tuple(sorted(d.points)))
    return tuple(found)
