"""Counting of weighted arithmetic-progression patterns.

Means over Z_n run over all n^2 pairs (x, d) with d = 0 included; sums over Z
run over every integer pair, d of any sign.

This module is the one place that decides how a progression sum is
evaluated.  ``apk_mean_zn`` first factors out every constant input (all
values equal to the first), then takes one route tree for exact and float
inputs alike.  With j non-constant inputs left and n prime, the patterns of
complexity 1 have closed forms: j <= 2 gives the product of the constants
and of the inputs' sums, because (x + a d, x + b d) runs over Z_n^2 once
when a != b; j = 3 is one cyclic convolution of two dilated inputs,
gathered against the third (``_three_input_sum``), by one real FFT at a
5-smooth length >= 2n.  On exact inputs the FFT's result is rounded to
integers only when an error bound (``_fft_rounding_bound``, which states
its source, its margin and the range of n it admits) and the rounding slack
itself are both below 1/4.  Otherwise the sum is not certified and takes
the route of j >= 4 below, whose kernels are exact at every n < 2^31.

With j >= 4, or an uncertified j = 3, an input that is mostly one nonzero
value is first split at it, when that pays.  For any value m, sum prod a_i
= sum prod (a_r -> m) + sum prod (a_r -> a_r - m): the first term has one
more constant input and re-enters the route tree (with k = 4, the j = 3
convolution), and the second replaces a_r by its deviation from m, nonzero
only off m, and takes a kernel below without being split again, so the
j = 3 convolution only sees inputs in [-64, 64], as its bound assumes.  The
input split is the one with the fewest points o_r off its mode m_r (its most
frequent nonzero value), and only when (k - 1) o_r n is below the cost that
``_kernel_route`` charges the unsplit list; the packed kernel is cheap, so a
0/1 input is split only when it is 1 on more than about 7/8 of Z_n.  Only
inputs with support above n / 2 are searched for a mode, which sorts them;
any other has o_r >= n / 2 >= s_r, so the split cannot pay, and the sparse
signals and level sets never sort.  The probability signal P = (G + 4) / 8
is 1/2 on about 95% of Z_n, so E[P^4] becomes one j = 3 convolution plus a
slice sum over the 5% of rows off 1/2.

There are three kernels, each for any k.  The per-d slice kernel
``_per_d_partials`` sums over the support of one input, the pivot, and on a
mirror list (inputs that read the same reversed, such as [s] * k) computes
only half the steps d.  The packed slice kernel ``_packed_slice_sum`` is the same on int64
inputs with values in {0, 1} (the sampled sets and level sets of the paper),
with the product an AND and the sum over d a popcount of 64 steps per word.
The support-pair sum ``_support_pair_sum`` enumerates the supports of an
adjacent pair of inputs, reads every other input by one gather, and skips
the pairs of blocks (runs of consecutive residues, ``_blocks``) in which
some input is read only where it is zero, such as most run pairs of the
interval and modulated signals.  ``_kernel_route`` alone picks the kernel,
its pivot, its pair and its step width, from k, the support sizes, n and
whether every input is 0/1, and binds them to it; its docstring states the
costs and the rule.  ``ap4_sum_z`` embeds its finitely supported signal in
Z_p and takes the same routes, and ``modulated_ap4_mean`` hands its complex
phase-weighted copies to the same choice of kernel (the j <= 3 routes and
the mode split take real inputs only).

Every sum ends in one reduction, ``core.reduce_sum``: exact on int64
values, so exact numerators stay exact, and compensated summation (of the
real and imaginary parts apart) otherwise.  Every d-partial and every
support-pair row is built in fixed order (support points in increasing
order), which makes results bit-stable run to run.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import IntSignalZ, ZnSignal, is_prime, make_modulus, reduce_sum
from .errors import ModulusMismatchError
from .spectra import quadratic_phase_signal


@dataclass(frozen=True)
class ApMean:
    """A progression mean: value = exact_numerator / pair_count when exact."""

    value: float
    exact_numerator: int | None
    pair_count: int


def ap4_sum_z(f: IntSignalZ) -> int:
    """Exact integer sum over all (x, d) in Z^2 of f(x)f(x+d)f(x+2d)f(x+3d).

    The sum is a 4-AP numerator over Z_p: the L trimmed values are
    zero-padded to the least prime p >= max(5, 2L - 1) (5 is the least
    modulus).  Only progressions with all four terms in [0, L) contribute on
    either side.  Over Z_p such a progression has three consecutive
    differences in (-L, L) that agree mod p; any two of them are at most
    2L - 2 < p apart, so they agree in Z and the terms form a Z-progression.
    Conversely a Z-progression in [0, L) reduces to one (x, d) in Z_p^2, and
    distinct steps in (-L, L) stay distinct mod p.  So the progressions
    correspond one to one and the two sums are equal.
    """
    length = len(f.values)
    if length == 0:
        return 0
    p = next(q for q in itertools.count(max(5, 2 * length - 1)) if is_prime(q))
    s = ZnSignal(make_modulus(p), np.pad(f.values, (0, p - length)))
    return apk_mean_zn([s] * 4).exact_numerator


def _mirrored(arrays: list[np.ndarray]) -> bool:
    """Whether arrays[i] equals arrays[k - 1 - i] for every i, by value (equal copies count)."""
    k = len(arrays)
    return all(np.array_equal(arrays[i], arrays[k - 1 - i]) for i in range(k // 2))


def _mode(values: np.ndarray) -> tuple[int | float | complex, int]:
    """The most frequent entry of a nonempty array (the first in sorted order on a tie) and its count."""
    distinct, counts = np.unique(values, return_counts=True)
    top = int(np.argmax(counts))
    return distinct[top].item(), int(counts[top])


def _dilated(arrays: list[np.ndarray], p: int):
    """Yield (c_j, s_j^-1 mod n) for each j != p in order: c_j(z) = a_j(s_j z), s_j = j - p mod n.

    Input j is read from pivot row y at y + s_j d = s_j (y / s_j + d): for
    the steps d = 0, 1, ... that is c_j from offset y s_j^-1 mod n on.
    """
    n = arrays[0].shape[0]
    z = np.arange(n, dtype=np.int64)  # s_j, z < n < 2^31: no int64 wrap
    for j, a in enumerate(arrays):
        if j != p:
            yield a[(j - p) % n * z % n], pow(j - p, -1, n)


def _per_d_partials(arrays: list[np.ndarray], p: int, width: int) -> np.ndarray:
    """partials[d] = sum_x prod_i arrays[i][(x + i*d) mod n]; int, real or complex arrays.

    n must be prime and at least k.  The sum runs over the support of the
    pivot p, any input (``_kernel_route`` passes the sparsest): with y =
    x + p d it is sum over y in supp(a_p) of a_p(y) prod_{j != p} a_j(y + s_j d),
    s_j = j - p mod n.  In the dilated copy c_j (``_dilated``) the factor is
    c_j(y / s_j + d), so for all d at once it is one contiguous slice, and
    the cost is |supp(a_p)| * n products instead of n^2.

    Each row y is scaled by a_p(y) and added, in increasing y.  Integer
    partials stay exact for k <= 5 and n < 2^31 with every input in
    [-64, 64] but one in [-128, 128] (a mode split's deviation): each entry
    of a scaled row is at most 128 * 64^(k-1), and each partial, a sum of at
    most n scaled rows, at most n * 128 * 64^(k-1) <= n * 2^31 < 2^62.

    Reading a progression backwards, x' = x + (k - 1) d with step -d, gives
    partials[-d] = the partials of the reversed list at d.  A mirror list
    (``_mirrored``) is its own reverse, so partials[n - d] = partials[d]: at
    width (n + 1) / 2 it computes only d = 0 .. (n - 1) / 2 and copies the
    rest, at half the cost.  Any other list needs width n.
    """
    n = arrays[0].shape[0]
    dtype = np.result_type(*arrays)
    pivot = arrays[p]
    copies = [(np.concatenate((c, c)), u) for c, u in _dilated(arrays, p)]  # doubled c_j
    out = np.zeros(n, dtype=dtype)
    # buf is rewritten for every y; starting it on a 64-byte boundary keeps the
    # vector stores from splitting cache lines, which costs up to 1.5x otherwise.
    # numpy data is itemsize-aligned, so the skip is a whole number of items.
    spare = np.empty(width + 8, dtype=dtype)
    buf = spare[-spare.ctypes.data % 64 // dtype.itemsize :][:width]
    (first, u0), (second, u1), *rest = copies
    for y in np.flatnonzero(pivot).tolist():
        # buf = a_p(y) prod_{j != p} c_j(y / s_j + d) for the steps d < width
        t0, t1 = y * u0 % n, y * u1 % n  # c_j's slice for this y starts at y / s_j
        np.multiply(first[t0 : t0 + width], second[t1 : t1 + width], out=buf)
        for c, u in rest:
            t = y * u % n
            np.multiply(buf, c[t : t + width], out=buf)
        np.multiply(buf, pivot[y], out=buf)
        out[:width] += buf
    out[width:] = out[1 : n - width + 1][::-1]  # partials[n - d] = partials[d]; empty at full width
    return out


# Rows of a support-pair chunk hold about this many gathered elements, so that
# the index and gather temporaries (256 KiB each) stay in L2.
_PAIR_CHUNK = 1 << 15

# A support is split into its runs of consecutive residues when they average at
# least this many points; shorter runs would cost more Python steps than the
# skipped pairs save, so such a support (a level set, a random set) is one block.
_RUN_POINTS = 4


def _sparsest_pair(sizes: list[int]) -> int:
    """The position q whose pair (q, q + 1) has the least support product, the first on a tie."""
    return min(range(len(sizes) - 1), key=lambda i: sizes[i] * sizes[i + 1])


def _blocks(support: np.ndarray) -> np.ndarray:
    """Bounds b of the blocks of a sorted, nonempty support: block i is support[b[i] : b[i + 1]].

    The blocks are the maximal runs of consecutive residues when those average
    at least ``_RUN_POINTS`` points, else the whole support is one block.
    """
    cuts = np.flatnonzero(np.diff(support) != 1) + 1
    if support.size < _RUN_POINTS * (cuts.size + 1):
        cuts = cuts[:0]
    return np.concatenate(([0], cuts, [support.size]))


def _support_pair_sum(arrays: list[np.ndarray], q: int) -> int | float | complex:
    """Sum over all (x, d) of prod_r arrays[r][(x + r*d) mod n], for int, real or complex arrays.

    The sum runs over the supports of the adjacent pair (q, q + 1), any pair
    (``_kernel_route`` passes the sparsest): (x, d) -> (y, z) = (x + q d,
    x + (q + 1) d) is a bijection of Z_n^2, so y in supp(a_q) and z in
    supp(a_{q+1}) fix d = z - y, and input r is read at x + r d = (1 - e) y
    + e z with e = r - q.  That index lies within |e| + |1 - e| periods, so
    each other input is one gather from a copy tiled that many times, read
    at a fixed multiple-of-n offset.

    Both supports are split into blocks (``_blocks``).  For y in a block I
    and z in a block J, the read index of input r sweeps one window of
    consecutive integers, and a prefix count of supp(a_r) over one period,
    extended periodically, counts a_r's support in it.  A pair (I, J) whose
    window holds no support of some input reads a zero there at every (y, z),
    so it is skipped; the test is vectorised over the block pairs, about
    ``_PAIR_CHUNK`` of them at a time.  The kept pairs are gathered: for
    each block I, the rows y in I against the points of its kept blocks J,
    in increasing order.  The cost is (k - 2) gathered elements per kept
    (y, z), at most (k - 2) |supp(a_q)| |supp(a_{q+1})|.  Skipped pairs add
    only exact zeros, so integer inputs stay exact for k <= 5 and n < 2^31
    with every input in [-64, 64] but one in [-128, 128] (a mode split's
    deviation): an entry of prod @ v is at most n * 128 * 64^(k-2) <= 2^56
    and its product with u at most n * 128 * 64^(k-1) < 2^62, and the terms
    are reduced once by ``reduce_sum``.
    """
    n = arrays[0].shape[0]
    terms = [np.zeros(0, dtype=np.result_type(*arrays))]  # no kept pair: 0 of the result type
    ys, zs = np.flatnonzero(arrays[q]), np.flatnonzero(arrays[q + 1])
    if not (ys.size and zs.size):
        return reduce_sum(terms[0])
    u, v = arrays[q][ys], arrays[q + 1][zs]
    y_bounds, z_bounds = _blocks(ys), _blocks(zs)
    y_first, y_last = ys[y_bounds[:-1]], ys[y_bounds[1:] - 1]
    z_first, z_last = zs[z_bounds[:-1]], zs[z_bounds[1:] - 1]
    z_sizes = np.diff(z_bounds)
    gathers = []  # (tiled a_r, row offsets (1 - e) y + shift, column offsets e z)
    windows = []  # (e, prefix count of supp(a_r) over one period, prefix[n] = |supp(a_r)|)
    for r, a in enumerate(arrays):
        e = r - q
        if e not in (0, 1):
            shift = n * max(e - 1, -e)  # the least multiple of n that keeps every index >= 0
            gathers.append((np.tile(a, abs(e) + abs(1 - e)), (1 - e) * ys + shift, e * zs))
            prefix = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(a != 0, out=prefix[1:])
            windows.append((e, prefix))
    block_rows = max(1, _PAIR_CHUNK // z_first.size)
    for top in range(0, y_first.size, block_rows):
        first, last = y_first[top : top + block_rows, None], y_last[top : top + block_rows, None]
        keep = np.ones((first.shape[0], z_first.size), dtype=bool)
        for e, prefix in windows:
            # (1 - e) and e have opposite signs, so the window's ends are
            # reached at the two anti-diagonal corners of the block pair
            a, b = (1 - e) * first + e * z_last, (1 - e) * last + e * z_first
            ends = np.stack((np.minimum(a, b), np.maximum(a, b) + 1))
            laps, at = np.divmod(ends, n)
            below = laps * prefix[n] + prefix[at]  # support points below each end, counted from 0
            keep &= below[1] > below[0]
        for i, kept in enumerate(keep, start=top):
            cols = np.flatnonzero(np.repeat(kept, z_sizes))
            if not cols.size:
                continue
            kept_v = v[cols]
            picks = [(tiled, row, col[cols]) for tiled, row, col in gathers]
            rows = max(1, _PAIR_CHUNK // cols.size)
            for start in range(y_bounds[i], y_bounds[i + 1], rows):
                stop = min(start + rows, y_bounds[i + 1])
                (tiled, row, col), *rest = picks
                prod = tiled.take(row[start:stop, None] + col)
                for tiled, row, col in rest:
                    prod *= tiled.take(row[start:stop, None] + col)
                terms.append(u[start:stop] * (prod @ kept_v))
    return reduce_sum(np.concatenate(terms))


def _smooth_length(m: int) -> int:
    """The least integer >= m >= 1 with no prime factor above 5, a fast FFT length."""
    for length in itertools.count(m):
        rest = length
        for q in (2, 3, 5):
            while rest % q == 0:
                rest //= q
        if rest == 1:
            return length


def _fft_rounding_bound(norm_product: float, length: int) -> float:
    """A bound on every entry's error in the j = 3 FFT convolution, ||f||_2 ||h||_2 = norm_product.

    Percival (Rapid multiplication modulo the sum and difference of highly
    composite numbers, Math. Comp. 72, 2003, Theorem 5.1) proves that a
    radix-2 FFT convolution of length 2^m in binary64 (eps = 2^-53, roots of
    unity within beta of their values) errs at each entry by at most
    E = ||f|| ||h|| ((1 + eps)^(3m) (1 + eps sqrt 5)^(3m + 1) (1 + beta)^(3m) - 1).
    Here m = ceil(log2(length)) and beta = eps, so the first and last
    factors make (1 + eps)^(6m).  numpy's pocketfft is a mixed-radix real
    transform (radices 2, 3 and 5 here, with other twiddles), which that
    theorem does not cover.  For it E is taken 4 times over: an empirical
    margin, not a proof.  Its errors measured at most 0.07 E, fold included,
    on all-64, alternating +/-64, random [-64, 64] and random 0/1 inputs at
    n = 5 to 1000003, so exact j = 3 sums rest on that margin.  The fold adds
    two linear entries, each within 4E of an integer, and rounds their sum,
    which is at most ||f|| ||h|| + 8E, by at most eps (||f|| ||h|| + 8E) < 4E;
    so the bound is 3 * 4E.

    The bound is below 1/4 for inputs with values in [-64, 64] up to
    n = 10^8, and for 0/1 inputs (||f|| ||h|| <= n) up to n = 2^31 - 1; for
    all-64 inputs at n = 2^31 - 1 it is above 1/4, so there the sum is not
    certified and takes a kernel, exact but of cost about n^2 on dense inputs.
    """
    m = math.ceil(math.log2(length))
    eps = 2.0**-53
    growth = math.expm1(6 * m * math.log1p(eps) + (3 * m + 1) * math.log1p(eps * math.sqrt(5)))
    return 3 * 4 * norm_product * growth


def _three_input_sum(free: list[tuple[int, np.ndarray]]) -> int | float | None:
    """Sum over all (x, d) of f(x + a d) g(x + b d) h(x + c d), free = [(a, f), (b, g), (c, h)].

    n must be prime and a < b < c < 5 <= n.  (c - b)(x + a d) + (b - a)(x + c d)
    = (c - a)(x + b d), and (x, d) -> (x + a d, x + c d) is a bijection of
    Z_n^2, so with f'(v) = f(v / (c - b)) and h'(v) = h(v / (b - a)) the sum
    is sum_y g(y) (f' * h')((c - a) y), where * is the cyclic convolution.

    Both kinds of input take one flow: dilate, convolve, gather g times the
    convolution at (c - a) y, and reduce by ``reduce_sum``.  The convolution
    is one real FFT at the length L = ``_smooth_length(2 n)``, since numpy's
    Bluestein path at the prime length n is about 5x slower at n = 10007:
    zero-padded to L, the inputs' linear convolution lin folds to lin[:n] +
    lin[n:2n], and the product and the fold are taken in place.  Integer
    inputs round it to the nearest integers, which is exact when (a)
    ``_fft_rounding_bound`` of ||f'|| ||h'|| and L is below 1/4, checked
    before the transform, and (b) every entry lies within 1/4 of its
    rounding, a check of the result itself.  If either fails (the range the
    bound admits is stated with it), the sum is not certified: None.
    """
    (a, f), (b, g), (c, h) = free
    n = f.shape[0]
    z = np.arange(n, dtype=np.int64)  # z times a residue < n < 2^31: no int64 wrap
    f_dil = f[z * pow(c - b, -1, n) % n]
    h_dil = h[z * pow(b - a, -1, n) % n]
    length = _smooth_length(2 * n)
    exact = f.dtype == np.int64
    if exact:
        # |values| <= 64 and n < 2^31, so each squared norm is below 2^43: exact in int64
        norm_product = math.sqrt(float(f_dil @ f_dil) * float(h_dil @ h_dil))
        if _fft_rounding_bound(norm_product, length) >= 0.25:
            return None
    spectrum = np.fft.rfft(f_dil, length)
    spectrum *= np.fft.rfft(h_dil, length)
    lin = np.fft.irfft(spectrum, length)
    lin[:n] += lin[n : 2 * n]
    conv = lin[:n]
    if exact:
        rounded = np.rint(conv)
        conv -= rounded
        if np.abs(conv, out=conv).max() > 0.25:
            return None
        conv = rounded.astype(np.int64)
    # exact: |g| <= 64 and |conv| <= ||f'|| ||h'|| < 2^43 (Cauchy-Schwarz), so
    # every int64 product is below 2^49
    return reduce_sum(g * conv[z * (c - a) % n])


def _slice_sum(arrays: list[np.ndarray], p: int, width: int) -> int | float | complex:
    """The slice kernel's partials at pivot p and step width ``width`` summed over d.

    An exact per-d sum is at most n * 128 * 64^4 < 2^62 for n < 2^31 (one
    input may be a split's deviation, in [-128, 128]), so int64 holds it; the
    sum over d can pass 2^63, and ``reduce_sum`` then sums it in Python integers.
    """
    return reduce_sum(_per_d_partials(arrays, p, width))


def _is_indicator(a: np.ndarray) -> bool:
    """Whether a is int64 with every value in {0, 1} (as uint64 a negative value is above 1)."""
    return a.dtype == np.int64 and not (a.view(np.uint64) > 1).any()


def _packed_slice_sum(arrays: list[np.ndarray], p: int, width: int) -> int:
    """The slice kernel's sum over d for int64 inputs with values in {0, 1}, 64 steps d per word.

    The structure is ``_per_d_partials``': the pivot p, the steps d < width
    (width < n only on a mirror list), and input j != p read from its
    dilated copy c_j (``_dilated``), repeated periodically, at offset
    t = y s_j^-1 mod n for a pivot row y.  On 0/1 values the product over
    the inputs is an AND and the sum over d a popcount.  Each copy becomes a
    (64, words) uint64 table whose row b holds the copy packed from bit b,
    bit i of word w being c_j(b + 64 w + i), so the slice from bit t is the
    window of ceil(width / 64) words from word t >> 6 of row t & 63.  The
    pivot rows are gathered about ``_PAIR_CHUNK`` words at a time: one window
    per input, ANDed in place, the last word masked to the width, and
    popcounted.  On a mirror list the total is 2 T - Z, T the popcount over
    d < width and Z its d = 0 term (bit 0 of each row), the number of x
    where every input is 1.  The sum is counted in Python integers, so it is
    exact at every n.
    """
    n = arrays[0].shape[0]
    window = -(-width // 64)
    words = (n - 1) // 64 + window  # the window from any offset t < n ends inside them
    shifts = np.arange(1, 64, dtype=np.uint64)[:, None]
    support = np.flatnonzero(arrays[p])
    tables = []  # (every window of c_j's table, s_j^-1 mod n) for each j != p
    for c, u in _dilated(arrays, p):
        bits = np.resize(c.astype(np.uint8), 64 * (words + 1))  # every word read, plus one
        packed = np.packbits(bits, bitorder="little").view("<u8")
        table = np.empty((64, words), dtype=np.uint64)
        table[0] = packed[:words]
        table[1:] = (packed[:words] >> shifts) | (packed[1:] << (64 - shifts))
        tables.append((sliding_window_view(table, window, axis=1), u))
    mask = np.uint64((1 << (width - 64 * (window - 1))) - 1)  # the last word's steps d < width
    (first, u0), *rest = tables
    total = zero = 0
    rows = max(1, _PAIR_CHUNK // window)
    for start in range(0, support.size, rows):
        ys = support[start : start + rows]
        t = ys * u0 % n
        acc = first[t & 63, t >> 6]
        for windows, u in rest:
            t = ys * u % n
            acc &= windows[t & 63, t >> 6]
        acc[:, -1] &= mask
        total += int(np.bitwise_count(acc).sum())
        zero += int(np.count_nonzero(acc[:, 0] & np.uint64(1)))
    return 2 * total - zero if width < n else total


def _kernel_route(arrays: list[np.ndarray], sizes: list[int]):
    """(cost, route) for a list with support sizes s_r = sizes[r]: route() is its sum.

    The one place that works out what a kernel rests on: the pivot p,
    the first position of min(s); the adjacent pair (q, q + 1) with the least
    s_q s_{q+1} (``_sparsest_pair``); the step width, (n + 1) / 2 on a mirror
    list (``_mirrored``), else n; and whether every input is int64 with
    values in {0, 1} (``_is_indicator``).  route is the cheaper kernel, bound
    to the p or q and the width that its cost was charged for.  In contiguous
    products, the slice kernel costs (k - 1) s_p n, half that on a mirror
    list; on 0/1 inputs the packed slice kernel replaces it, at nine per
    gathered word, 9 (k - 1) s_p ceil(width / 64); and the support-pair sum,
    at five per gather, costs at most 5 (k - 2) s_q s_{q+1} and is taken
    when that is below the slice kernel's, packed or not: on the interval and
    modulated signals (support about 5% of Z_n) and on 0/1 sets of density
    below about 0.02, while dense signals and denser sets take a slice
    kernel.  The rule charges every pair, skipped or not, so it depends on
    k, the sizes, n and whether the inputs are 0/1 alone.
    """
    k, n = len(arrays), arrays[0].shape[0]
    p = sizes.index(min(sizes))
    q = _sparsest_pair(sizes)
    mirrored = _mirrored(arrays)
    width = (n + 1) // 2 if mirrored else n
    pair_cost = 5 * (k - 2) * sizes[q] * sizes[q + 1]
    if all(_is_indicator(a) for a in arrays):
        cost, kernel = 9 * (k - 1) * sizes[p] * -(-width // 64), _packed_slice_sum
    else:
        cost, kernel = (k - 1) * sizes[p] * n / (2 if mirrored else 1), _slice_sum
    if pair_cost < cost:
        return pair_cost, functools.partial(_support_pair_sum, arrays, q)
    return cost, functools.partial(kernel, arrays, p, width)


def _pattern_sum(arrays: list[np.ndarray], modes: dict) -> int | float:
    """Sum over all (x, d) of prod_i arrays[i][(x + i*d) mod n] by the route tree of ``apk_mean_zn``.

    A mode split's deviation a_r - m lies in [-128, 128] on exact inputs, so
    its term goes straight to a kernel: it is never split again nor handed to
    the j = 3 convolution, whose squared norms (exact in int64) and error
    bound assume values in [-64, 64].  A j = 3 sum that ``_three_input_sum``
    cannot certify takes the j >= 4 route instead: the mode split, then a
    kernel, each exact at every n < 2^31.
    ``modes`` maps the ``id`` of each input searched for its mode to
    (mode, count).  Every searched array is one of the top-level caller's
    inputs, alive for the whole call, so each distinct input is searched once.
    """
    n, k = arrays[0].shape[0], len(arrays)
    constants = []
    free = []  # (position, values) of the non-constant inputs
    for i, a in enumerate(arrays):
        if (a == a[0]).all():
            constants.append(a[0].item())
        else:
            free.append((i, a))
    scale = math.prod(constants)
    if len(free) <= 2:
        return scale * n ** (2 - len(free)) * math.prod(reduce_sum(a) for _, a in free)
    if len(free) == 3:
        total = _three_input_sum(free)
        if total is not None:
            return scale * total
    sizes = [np.count_nonzero(a) for a in arrays]
    cost, route = _kernel_route(arrays, sizes)
    candidates = []  # (points off the mode, r, mode) for each input with support above n / 2
    for r, a in free:
        if 2 * sizes[r] > n:
            if id(a) not in modes:
                modes[id(a)] = _mode(a[a != 0])
            mode, count = modes[id(a)]
            candidates.append((n - count, r, mode))
    if candidates:
        off, r, mode = min(candidates)
        if (k - 1) * off * n < cost:
            first, second = list(arrays), list(arrays)
            first[r] = np.full(n, mode, dtype=arrays[r].dtype)
            second[r] = arrays[r] - mode
            sizes[r] = off
            return _pattern_sum(first, modes) + _kernel_route(second, sizes)[1]()
    return route()


def _require_float_range(arrays: list[np.ndarray]) -> None:
    """Raise ValueError unless n^2 (2 max|v|)^k < 2^1023 for these k float inputs.

    A mode split's deviation a_r - m_r is at most 2 max|v|, so every product
    of k inputs, every sum of them over the n^2 pairs (x, d) and the sum of
    a split's at most five terms stay below 2^1023, and no kernel overflows.
    NaN and inf fail the test.
    """
    n, k = arrays[0].shape[0], len(arrays)
    top = max(float(np.maximum(a.max(), -a.min())) for a in arrays)  # max|v|, NaN kept
    if not top < 2.0 ** ((1023 - 2 * math.log2(n)) / k - 1):  # the bound in logarithms
        raise ValueError(f"float inputs need n^2 (2 max|v|)^k < 2^1023, got max|v| = {top:g}")


def apk_mean_zn(signals: list[ZnSignal]) -> ApMean:
    """Mean over all n^2 pairs (x, d) of prod_i signals[i](x + i*d), k = len(signals).

    Exact integer path when every signal is integer-valued.  Constant inputs
    are factored out first; with j non-constant inputs left:

    - j <= 2 is answered in closed form;
    - j = 3 by one cyclic convolution through the real FFT; on exact
      inputs it is rounded to integers when ``_fft_rounding_bound`` and the
      rounding slack are both below 1/4, and otherwise takes the route of
      j >= 4;
    - j >= 4 first splits the input r with the fewest points o_r off its
      nonzero mode m_r, searched only on inputs with support above n / 2,
      when (k - 1) o_r n is below the cost that ``_kernel_route`` charges
      the unsplit list: the term with a_r set to m_r re-enters this list,
      and the term with a_r - m_r takes its own route below, unsplit;
    - else j >= 4 takes the kernel that ``_kernel_route`` picks, by the rule
      its docstring states: the support-pair sum or a slice kernel.

    Every choice depends on the values' sizes, modes and n alone, and is the
    same for exact and float inputs, but for the packed slice kernel, 64
    steps per word, which takes exact 0/1 inputs only, and for the j = 3
    convolution's certificate, which exact inputs alone need; otherwise only
    the reduction (Python integers or compensated summation) differs.  The
    certificate depends on the exact inputs' values and n alone: their norms
    and the FFT's result.  Float
    inputs are checked by ``_require_float_range``, so no sum can overflow.
    """
    k = len(signals)
    if k not in (3, 4, 5):
        raise ValueError(f"k must be 3, 4 or 5, got {k}")
    m = signals[0].modulus
    if any(s.modulus != m for s in signals):
        raise ModulusMismatchError("all signals must share one modulus")
    if any(s.is_complex for s in signals):
        raise ValueError("progression means are defined for real signals")
    n = m.n
    exact = all(s.exact for s in signals)
    # min and max, not abs: np.abs(-2^63) wraps to -2^63 and would pass
    if exact and any(int(s.values.min()) < -64 or int(s.values.max()) > 64 for s in signals):
        raise ValueError("exact kernel requires integer values in [-64, 64]")
    arrays = [s.values if exact else s.values.astype(np.float64, copy=False) for s in signals]
    if not exact:
        _require_float_range(arrays)
    result = _pattern_sum(arrays, {})
    return ApMean(result / (n * n), result if exact else None, n * n)


def modulated_ap4_mean(s: ZnSignal, uvw: tuple[int, int, int]) -> complex:
    """E over (x, d) of s(x)s(x+d)s(x+2d)s(x+3d) w^(u x^2 + v x d + w d^2).

    The phase splits over the first three positions as w^(p x^2 + q (x+d)^2 +
    r (x+2d)^2) with q = v - w, r = (w - v/2)/2 and p = u - q - r mod n (2 is
    invertible since n is odd), so the mean is a plain 4-AP mean of
    phase-weighted copies of s.  The copies keep the support of s, and they
    take the kernel that ``_kernel_route`` picks: the support-pair sum
    on the sparse interval signal F, the slice kernel on a dense signal.
    """
    if s.is_complex:
        raise ValueError("expected a real signal")
    u, v, w = uvw
    m = s.modulus
    n = m.n
    half = pow(2, -1, n)
    q = (v - w) % n
    r = (w - v * half) * half % n
    p = (u - q - r) % n
    vals = s.values.astype(np.float64)
    _require_float_range([vals] * 4)
    arrays = [vals * quadratic_phase_signal(m, c).values for c in (p, q, r)] + [vals]
    _, route = _kernel_route(arrays, [np.count_nonzero(a) for a in arrays])
    return route() / (n * n)

