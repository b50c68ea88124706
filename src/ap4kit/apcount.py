"""Counting of weighted arithmetic-progression patterns.

Means over Z_n run over all n^2 pairs (x, d) with d = 0 included; sums over Z
run over every integer pair, d of any sign.

``apk_mean_zn`` first factors out every constant input (all values equal to
the first).  With j non-constant inputs left and n prime, the patterns of
complexity 1 have closed forms: j <= 2 gives the product of the constants
and of the inputs' means, because (x + a d, x + b d) runs over Z_n^2 once
when a != b; j = 3 is one cyclic convolution of two dilated inputs,
gathered against the third (``_three_input_sum``), for exact and float
inputs alike.  Exact inputs get their numerator from Python integers (the
j = 3 convolution from one big-integer multiply), so exact results stay
exact and equal the kernel's; float inputs with j = 3 convolve by FFT.
Everything else (any j >= 4, the per-d profiles and the phase-modulated
means of ``constructions``) goes through the one per-d kernel
``_per_d_partials``.  It sums over the support of its sparsest input only,
at a cost of O(|supp| * n) element products: about 0.05 n^2 on the interval
and modulated signals, n^2 on a dense signal.  Every d-partial is built in
fixed order (support points in increasing order), and the d-partials are
combined in fixed order (in Python integers when every input signal is
integer-valued, compensated summation otherwise), which makes results
bit-stable run to run.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import IntSignalZ, ZnSignal
from .errors import ModulusMismatchError, NotIndicatorError
from .spectra import dft


@dataclass(frozen=True)
class ApMean:
    """A progression mean: value = exact_numerator / pair_count when exact."""

    value: float
    exact_numerator: int | None
    pair_count: int


def ap4_sum_z(f: IntSignalZ) -> int:
    """Exact integer sum over all (x, d) in Z^2 of f(x)f(x+d)f(x+2d)f(x+3d).

    Only d with |3d| at most the support diameter can contribute.
    """
    vals = np.asarray(f.values, dtype=np.int64)
    length = len(vals)
    if length == 0:
        return 0
    total = 0
    dmax = (length - 1) // 3
    for d in range(-dmax, dmax + 1):
        x0 = max(0, -3 * d)
        x1 = min(length - 1, length - 1 - 3 * d)
        if x0 > x1:
            continue
        prod = vals[x0 : x1 + 1].copy()
        for j in (1, 2, 3):
            prod *= vals[x0 + j * d : x1 + j * d + 1]
        total += int(prod.sum(dtype=np.int64))
    return total


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


def _three_input_sum(free: list[tuple[int, np.ndarray]], exact: bool) -> int | float:
    """Sum over all (x, d) of f(x + a d) g(x + b d) h(x + c d), free = [(a, f), (b, g), (c, h)].

    n must be prime and a < b < c < 5 <= n.  (c - b)(x + a d) + (b - a)(x + c d)
    = (c - a)(x + b d), and (x, d) -> (x + a d, x + c d) is a bijection of
    Z_n^2, so with f'(v) = f(v / (c - b)) and h'(v) = h(v / (b - a)) the sum
    is sum_y g(y) (f' * h')((c - a) y), where * is the cyclic convolution.
    Exact inputs convolve by one big-integer multiply and gather in Python
    integers; float inputs convolve by FFT and gather with fsum.
    """
    (a, f), (b, g), (c, h) = free
    n = f.shape[0]
    z = np.arange(n, dtype=np.int64)  # z times a residue < n < 2^31: no int64 wrap
    f_dil = f[z * pow(c - b, -1, n) % n]
    h_dil = h[z * pow(b - a, -1, n) % n]
    at = z * (c - a) % n
    if exact:
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
    per-d kernel.
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
    if exact and any(int(np.abs(s.values).max(initial=0)) > 64 for s in signals):
        raise ValueError("exact kernel requires integer values in [-64, 64]")
    constants = []
    free = []  # (position, values) of the non-constant inputs
    for i, s in enumerate(signals):
        if (s.values == s.values[0]).all():
            constants.append(s.values[0])
        else:
            free.append((i, s.values))
    if exact:
        scale = math.prod(int(c) for c in constants)
        if len(free) <= 2:
            # |sum| <= 64 n < 2^37, so the int64 sums are exact.
            numerator = scale * n ** (2 - len(free)) * math.prod(int(v.sum()) for _, v in free)
        elif len(free) == 3:
            numerator = scale * _three_input_sum(free, exact=True)
        else:
            # Each per-d sum is at most n * 64^5 < 2^61 for n < 2^31, so int64
            # holds it; the sum over d can pass 2^63, so it is reduced in
            # Python integers.
            numerator = sum(_per_d_partials([s.values for s in signals]).tolist())
        return ApMean(numerator / (n * n), numerator, n * n)
    scale = math.prod(float(c) for c in constants)
    if len(free) <= 2:
        value = scale * math.prod(math.fsum(v.tolist()) / n for _, v in free)
    elif len(free) == 3:
        value = scale * _three_input_sum(free, exact=False) / (n * n)
    else:
        partials = _per_d_partials([s.values.astype(np.float64) for s in signals])
        value = math.fsum(partials.tolist()) / (n * n)
    return ApMean(value, None, n * n)


def ap4_mean_profile(s: ZnSignal) -> np.ndarray:
    """Per-d means: entry d is E_x s(x)s(x+d)s(x+2d)s(x+3d); their average is the 4-AP mean."""
    if s.is_complex:
        raise ValueError("profile is defined for real signals")
    arrays = [s.values.astype(np.float64)] * 4
    return _per_d_partials(arrays) / s.n


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
