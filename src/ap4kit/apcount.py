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
gathered against the third (``_three_input_sum``: a big-integer multiply on
exact inputs, an FFT on float inputs).  Any j >= 4 takes one of two
routes, chosen from k, the support sizes s_r and n alone.  The per-d slice
kernel ``_per_d_partials`` sums over the support of its sparsest input at a
cost of (k - 1) min(s) n contiguous products; it also serves the per-d
profiles and the phase-modulated means, and no other module calls it.  The
support-pair sum ``_support_pair_sum`` enumerates the supports of the
adjacent pair (p, p + 1) with the least product s_p s_{p+1} and reads every
other input by one gather, at a cost of (k - 2) s_p s_{p+1} gathered
elements.  One gather costs about five contiguous products, so the pair
route is taken when 5 (k - 2) s_p s_{p+1} < (k - 1) min(s) n: on the
interval and modulated signals (support about 5% of Z_n, so about 0.0025 n^2
pairs) and on sparse level sets, while dense signals stay on the slice
kernel.  ``ap4_sum_z`` embeds its finitely supported signal in Z_p and
takes the same routes.

Every reduction runs in fixed order: Python integers when every input is
integer-valued, so exact numerators stay exact, and compensated summation
otherwise.  Every d-partial and every support-pair row is built in fixed
order (support points in increasing order), which makes results bit-stable
run to run.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import IntSignalZ, ZnSignal, is_prime, make_modulus
from .errors import ModulusMismatchError, NotIndicatorError
from .spectra import dft, quadratic_phase_signal


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


def _per_d_partials(arrays: list[np.ndarray]) -> np.ndarray:
    """partials[d] = sum_x prod_i arrays[i][(x + i*d) mod n]; int, real or complex arrays.

    n must be prime and at least k.  The sum runs over the support of the
    pivot p, the input with the fewest nonzeros: with y = x + p d it is
    sum over y in supp(a_p) of a_p(y) prod_{j != p} a_j(y + s_j d), s_j = j - p
    mod n.  In the dilated copy c_j(z) = a_j(s_j z) the factor is
    c_j(y / s_j + d), so for all d at once it is one contiguous slice, and
    the cost is |supp(a_p)| * n products instead of n^2.
    """
    n = arrays[0].shape[0]
    dtype = np.result_type(*arrays)
    p = int(np.argmin([np.count_nonzero(a) for a in arrays]))
    pivot = arrays[p]
    copies = []  # (doubled c_j, s_j^-1 mod n) for each j != p
    for j, a in enumerate(arrays):
        if j != p:
            s = (j - p) % n
            c = a[s * np.arange(n, dtype=np.int64) % n]  # s, z < n < 2^31: no int64 wrap
            copies.append((np.concatenate((c, c)), pow(s, -1, n)))
    out = np.zeros(n, dtype=dtype)
    # buf is rewritten for every y; starting it on a 64-byte boundary keeps the
    # vector stores from splitting cache lines, which costs up to 1.5x otherwise.
    # numpy data is itemsize-aligned, so the skip is a whole number of items.
    spare = np.empty(n + 8, dtype=dtype)
    buf = spare[-spare.ctypes.data % 64 // dtype.itemsize :][:n]
    (first, u0), (second, u1), *rest = copies
    for y in np.flatnonzero(pivot).tolist():
        t0, t1 = y * u0 % n, y * u1 % n  # c_j's slice for this y starts at y / s_j
        np.multiply(first[t0 : t0 + n], second[t1 : t1 + n], out=buf)
        for c, u in rest:
            t = y * u % n
            buf *= c[t : t + n]
        buf *= pivot[y]
        out += buf
    return out


# Rows of a support-pair chunk hold about this many gathered elements, so that
# the index and gather temporaries (256 KiB each) stay in L2.
_PAIR_CHUNK = 1 << 15


def _sparsest_pair(sizes: list[int]) -> int:
    """The position p whose adjacent pair (p, p + 1) has the least support product."""
    return min(range(len(sizes) - 1), key=lambda i: sizes[i] * sizes[i + 1])


def _support_pair_sum(arrays: list[np.ndarray]) -> int | float:
    """Sum over all (x, d) of prod_r arrays[r][(x + r*d) mod n], for int or real arrays.

    k must be at least 4.  The sum runs over the supports of the adjacent
    pair (p, p + 1) with the least product of support sizes: (x, d) -> (y, z)
    = (x + p d, x + (p + 1) d) is a bijection of Z_n^2, so y in supp(a_p) and
    z in supp(a_{p+1}) fix d = z - y, and input r is read at x + r d =
    (1 - e) y + e z with e = r - p.  That index lies within |e| + |1 - e|
    periods, so each other input is one gather from a copy tiled that many
    times, read at a fixed multiple-of-n offset.  The cost is
    (k - 2) |supp(a_p)| |supp(a_{p+1})| gathered elements.  Integer inputs
    stay exact: an entry of prod @ v is at most |supp| * 64^(k-1) < 2^55 and
    its product with u at most 2^61 for n < 2^31, and the terms are summed
    in Python integers; real inputs are summed with fsum.
    """
    n = arrays[0].shape[0]
    supports = [np.flatnonzero(a) for a in arrays]
    p = _sparsest_pair([s.size for s in supports])
    ys, zs = supports[p], supports[p + 1]
    u, v = arrays[p][ys], arrays[p + 1][zs]
    gathers = []  # (tiled a_r, row offsets (1 - e) y + shift, column offsets e z)
    for r, a in enumerate(arrays):
        e = r - p
        if e not in (0, 1):
            shift = n * max(e - 1, -e)  # the least multiple of n that keeps every index >= 0
            gathers.append((np.tile(a, abs(e) + abs(1 - e)), (1 - e) * ys + shift, e * zs))
    rows = max(1, _PAIR_CHUNK // max(1, zs.size))
    terms = []
    for start in range(0, ys.size, rows):
        (tiled, row, col), *rest = gathers
        prod = tiled.take(row[start : start + rows, None] + col)
        for tiled, row, col in rest:
            prod *= tiled.take(row[start : start + rows, None] + col)
        terms.extend((u[start : start + rows] * (prod @ v)).tolist())
    return sum(terms) if np.result_type(*arrays) == np.int64 else math.fsum(terms)


def _cyclic_convolution(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(f * h)(t) = sum_p f(p) h((t - p) mod n), exactly, for integer arrays in [-64, 64].

    Kronecker substitution: each input becomes one big integer, entry i in the
    i-th fixed-width little-endian byte slot, and one Python multiply gives
    the linear convolution, folded mod n afterwards.  An input with negative
    values is first shifted by its minimum m to F = f - m >= 0; then
    f * h = F * H + m_h sum(F) + m_f sum(H) + n m_f m_h.  A linear
    coefficient of F * H is at most max(F) max(H) n <= 2^14 * 2^31, so it
    fits its slot and, folded, int64.
    """
    n = f.shape[0]
    shift_f, shift_h = min(int(f.min()), 0), min(int(h.min()), 0)
    big_f, big_h = f - shift_f, h - shift_h
    width = max(1, ((int(big_f.max()) * int(big_h.max()) * n).bit_length() + 7) // 8)

    def pack(v: np.ndarray) -> int:
        slots = np.zeros((n, width), dtype=np.uint8)
        slots[:, 0] = v  # 0 <= v <= 128
        return int.from_bytes(slots.tobytes(), byteorder="little")

    product = pack(big_f) * pack(big_h)
    words = np.zeros((2 * n, 8), dtype=np.uint8)
    words[:, :width] = np.frombuffer(
        product.to_bytes(2 * n * width, byteorder="little"), dtype=np.uint8
    ).reshape(2 * n, width)
    linear = words.view("<i8").ravel()  # every slot is below 2^48
    correction = shift_h * int(big_f.sum()) + shift_f * int(big_h.sum()) + n * shift_f * shift_h
    return linear[:n] + linear[n:] + correction


def _three_input_sum(free: list[tuple[int, np.ndarray]]) -> int | float:
    """Sum over all (x, d) of f(x + a d) g(x + b d) h(x + c d), free = [(a, f), (b, g), (c, h)].

    n must be prime and a < b < c < 5 <= n.  (c - b)(x + a d) + (b - a)(x + c d)
    = (c - a)(x + b d), and (x, d) -> (x + a d, x + c d) is a bijection of
    Z_n^2, so with f'(v) = f(v / (c - b)) and h'(v) = h(v / (b - a)) the sum
    is sum_y g(y) (f' * h')((c - a) y), where * is the cyclic convolution.
    Integer inputs convolve by one big-integer multiply and gather in Python
    integers; float inputs convolve by FFT and gather with fsum.
    """
    (a, f), (b, g), (c, h) = free
    n = f.shape[0]
    z = np.arange(n, dtype=np.int64)  # z times a residue < n < 2^31: no int64 wrap
    f_dil = f[z * pow(c - b, -1, n) % n]
    h_dil = h[z * pow(b - a, -1, n) % n]
    at = z * (c - a) % n
    if f.dtype == np.int64:
        conv = _cyclic_convolution(f_dil, h_dil)
        return sum(map(operator.mul, g.tolist(), conv[at].tolist()))
    conv = np.fft.irfft(np.fft.rfft(f_dil) * np.fft.rfft(h_dil), n)
    return math.fsum((g * conv[at]).tolist())


def apk_mean_zn(signals: list[ZnSignal]) -> ApMean:
    """Mean over all n^2 pairs (x, d) of prod_i signals[i](x + i*d), k = len(signals).

    Exact integer path when every signal is integer-valued.  Constant inputs
    are factored out first; with j non-constant inputs left, j <= 2 is
    answered in closed form, j = 3 by one cyclic convolution (a big-integer
    multiply on exact inputs, an FFT on float inputs) and j >= 4 by the
    support-pair sum when 5 (k - 2) s_p s_{p+1} < (k - 1) min(s) n (s_r the
    support sizes, (p, p + 1) the adjacent pair with the least product),
    else by the per-d slice kernel.  The route is the same for exact and
    float inputs; only the reduction (Python integers or compensated
    summation) and the j = 3 convolution differ.
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
    total = sum if exact else math.fsum
    arrays = [s.values if exact else s.values.astype(np.float64, copy=False) for s in signals]
    constants = []
    free = []  # (position, values) of the non-constant inputs
    for i, a in enumerate(arrays):
        if (a == a[0]).all():
            constants.append(a[0].item())
        else:
            free.append((i, a))
    scale = math.prod(constants)
    if len(free) <= 2:
        result = scale * n ** (2 - len(free)) * math.prod(total(a.tolist()) for _, a in free)
    elif len(free) == 3:
        result = scale * _three_input_sum(free)
    else:
        # The slice kernel costs (k - 1) min(s) n contiguous products, the
        # support-pair sum (k - 2) s_p s_{p+1} gathers; one gather costs
        # about five contiguous products.
        sizes = [np.count_nonzero(a) for a in arrays]
        p = _sparsest_pair(sizes)
        if 5 * (k - 2) * sizes[p] * sizes[p + 1] < (k - 1) * min(sizes) * n:
            result = _support_pair_sum(arrays)
        else:
            # An exact per-d sum is at most n * 64^5 < 2^61 for n < 2^31, so
            # int64 holds it; the sum over d can pass 2^63, so it is reduced in
            # Python integers.
            result = total(_per_d_partials(arrays).tolist())
    return ApMean(result / (n * n), result if exact else None, n * n)


def ap4_mean_profile(s: ZnSignal) -> np.ndarray:
    """Per-d means: entry d is E_x s(x)s(x+d)s(x+2d)s(x+3d); their average is the 4-AP mean."""
    if s.is_complex:
        raise ValueError("profile is defined for real signals")
    arrays = [s.values.astype(np.float64)] * 4
    return _per_d_partials(arrays) / s.n


def modulated_ap4_mean(s: ZnSignal, uvw: tuple[int, int, int]) -> complex:
    """E over (x, d) of s(x)s(x+d)s(x+2d)s(x+3d) w^(u x^2 + v x d + w d^2).

    The phase splits over the first three positions as w^(p x^2 + q (x+d)^2 +
    r (x+2d)^2) with q = v - w, r = (w - v/2)/2 and p = u - q - r mod n (2 is
    invertible since n is odd), so the mean is a plain 4-AP mean of
    phase-weighted copies of s, taken by the shared per-d kernel.  The
    weighted copies keep the support of s, so the kernel's cost is
    |supp(s)| * n products.
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
    factors = [vals * quadratic_phase_signal(m, c).values for c in (p, q, r)]
    partials = _per_d_partials(factors + [vals]).tolist()
    total = complex(math.fsum(z.real for z in partials), math.fsum(z.imag for z in partials))
    return total / (n * n)


def linear_form_mean_fourier(b: ZnSignal) -> float:
    """E over solutions of x - 3y + 3z - w = 0 of B(x)B(y)B(z)B(w).

    Computed as sum_r |B^(r)|^2 |B^(3r)|^2, which also shows the value is at
    least density(B)^4: the nonzero frequencies contribute non-negatively.
    """
    if not b.exact or not np.isin(b.values, (0, 1)).all():
        raise NotIndicatorError("expected a 0/1-valued signal")
    n = b.n
    coeffs = dft(b).coeffs
    mags2 = (coeffs * coeffs.conj()).real
    idx3 = (3 * np.arange(n, dtype=np.int64)) % n
    return math.fsum((mags2 * mags2[idx3]).tolist())
