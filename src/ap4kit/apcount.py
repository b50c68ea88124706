"""Counting of weighted arithmetic-progression patterns.

Means over Z_n run over all n^2 pairs (x, d) with d = 0 included; sums over Z
run over every integer pair, d of any sign.

``apk_mean_zn`` first factors out every constant input (all values equal to
the first).  With j non-constant inputs left and n prime, the patterns of
complexity 1 have closed forms: j <= 2 gives the product of the constants
and of the inputs' means, because (x + a d, x + b d) runs over Z_n^2 once
when a != b; j = 3 with float inputs is a sum over the n frequencies of
products of three Fourier coefficients.  Exact inputs with j <= 2 get their
numerator from Python-integer sums, so exact results stay exact and equal
the kernel's.  Everything else (exact inputs with j = 3, any j >= 4, the
per-d profiles and the phase-modulated means of ``constructions``) goes
through the one O(n^2) kernel ``_per_d_partials``: the per-d inner sum is
vectorized and the d-partials are combined in fixed order (in Python
integers when every input signal is integer-valued, compensated summation
otherwise), which makes results bit-stable run to run.
"""

from __future__ import annotations

import math
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
    """partials[d] = sum_x prod_i arrays[i][(x + i*d) mod n]; int, real or complex arrays."""
    n = arrays[0].shape[0]
    dtype = np.result_type(*arrays)
    doubled = [np.concatenate((a, a)) for a in arrays[1:]]
    out = np.empty(n, dtype=dtype)
    # buf is rewritten for every d; starting it on a 64-byte boundary keeps the
    # vector stores from splitting cache lines, which costs up to 1.5x otherwise.
    # numpy data is itemsize-aligned, so the skip is a whole number of items.
    spare = np.empty(n + 8, dtype=dtype)
    buf = spare[-spare.ctypes.data % 64 // dtype.itemsize :][:n]
    for d in range(n):
        np.multiply(arrays[0], doubled[0][d : d + n], out=buf)
        for i in range(2, len(arrays)):
            start = (i * d) % n
            buf *= doubled[i - 1][start : start + n]
        out[d] = buf.sum()
    return out


def _fourier_3_mean(free: list[tuple[int, np.ndarray]], n: int) -> float:
    """E over (x, d) of f(x + a d) g(x + b d) h(x + c d), free = [(a, f), (b, g), (c, h)].

    n must be prime.  With coefficients fft / n, only frequency triples (r, s, t)
    with r + s + t = 0 and a r + b s + c t = 0 survive: s = -(c - a)(b - a)^-1 t
    and r = -s - t, so the mean is the sum over t of fh[r] gh[s] hh[t].
    """
    (a, f), (b, g), (c, h) = free
    fh, gh, hh = (np.fft.fft(v.astype(np.float64)) / n for v in (f, g, h))
    t = np.arange(n, dtype=np.int64)
    s = (-(c - a) * pow(b - a, -1, n)) % n * t % n  # both factors < n < 2^31: no int64 wrap
    r = (-s - t) % n
    return math.fsum((fh[r] * gh[s] * hh).real.tolist())


def apk_mean_zn(signals: list[ZnSignal]) -> ApMean:
    """Mean over all n^2 pairs (x, d) of prod_i signals[i](x + i*d), k = len(signals).

    Exact integer path when every signal is integer-valued.  Constant inputs
    are factored out first; with j non-constant inputs left, j <= 2 (and
    j = 3 on float inputs) is answered in closed form, the rest by the
    O(n^2) kernel.
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
    if exact and len(free) <= 2:
        # |sum| <= 64 n < 2^37, so the int64 sums are exact.
        numerator = n ** (2 - len(free)) * math.prod(int(c) for c in constants)
        numerator *= math.prod(int(v.sum()) for _, v in free)
        return ApMean(numerator / (n * n), numerator, n * n)
    if exact:
        # Each per-d sum is at most n * 64^5 < 2^61 for n < 2^31, so int64 holds
        # it; the sum over d can pass 2^63, so it is reduced in Python integers.
        partials = _per_d_partials([s.values for s in signals])
        numerator = sum(partials.tolist())
        return ApMean(numerator / (n * n), numerator, n * n)
    scale = math.prod(float(c) for c in constants)
    if len(free) <= 2:
        value = scale * math.prod(math.fsum(v.tolist()) / n for _, v in free)
    elif len(free) == 3:
        value = scale * _fourier_3_mean(free, n)
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
