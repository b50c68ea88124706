"""Mean-normalized Fourier analysis on Z_n.

The transform used everywhere is f^(r) = n^-1 * sum_x f(x) w^(-rx) with
w = exp(2*pi*i/n), so f^(0) is the mean (the density, for an indicator).
``dft`` is numpy's O(n log n) FFT at every length (prime lengths included).
``quadratic_phase_signal`` reads its roots of unity w^x from one read-only
table per modulus, cached for the last two moduli, so the 30 chirps
w^(a y^2) of a ``verify`` run (10 Gauss sums for the flatness check and 20
window sums) build it once; the exponent is reduced exactly in int64, so a
phase is the same whether the table is cached or new.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import IntervalZn, Modulus, ZnSignal, write_text
from .errors import DegenerateQuadraticError


@dataclass(frozen=True)
class Spectrum:
    """The n Fourier coefficients of a signal, indexed by frequency r in [0, n)."""

    modulus: Modulus
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128).copy()
        if arr.shape != (self.modulus.n,):
            raise ValueError("coefficient count must equal the modulus")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def dft(s: ZnSignal) -> Spectrum:
    """Mean-normalized transform of a signal.

    numpy's FFT handles prime lengths; it matches the defining O(n^2) sum
    within 1e-9 per coefficient.  A real input goes to it as it is; numpy casts it.
    """
    c = np.fft.fft(s.values)
    c /= s.n
    return Spectrum(s.modulus, c)


def uniformity(sp: Spectrum) -> float:
    """max over r != 0 of |coeffs[r]|; small values mean a spectrally flat signal."""
    return float(np.abs(sp.coeffs[1:]).max())


def max_coefficient(sp: Spectrum) -> float:
    """max over all r, including r = 0, of |coeffs[r]|."""
    return float(np.abs(sp.coeffs).max())


def max_coefficients_of_parts(z: np.ndarray) -> tuple[float, float]:
    """max_coefficient of Re z and of Im z, two real signals of odd length n, from one FFT.

    With Z the unnormalized transform of z, coefficient r of Re z is
    (Z_r + conj Z_-r) / 2n and that of Im z is (Z_r - conj Z_-r) / 2in.
    These formulas give coefficient -r as the exact conjugate of coefficient
    r, as for any real signal, so the frequencies 0 <= r <= (n-1)/2 hold
    both maxima.
    """
    n = len(z)
    spec = np.fft.fft(z)
    half = spec[: (n + 1) // 2]
    mirror = np.concatenate((spec[:1], spec[: (n - 1) // 2 : -1]))  # Z_-r, same r
    np.conjugate(mirror, out=mirror)
    total = half + mirror
    np.subtract(half, mirror, out=mirror)
    return float(np.abs(total).max()) / (2 * n), float(np.abs(mirror).max()) / (2 * n)


def quadratic_phase_signal(m: Modulus, a: int, b: int = 0, c: int = 0) -> ZnSignal:
    """The complex signal w^(a x^2 + b x + c) on Z_n.

    The exponent is reduced mod n stepwise in int64 so no floating-point
    argument error enters the root of unity.  A b or c that is 0 mod n adds
    nothing to the reduced exponent, so its term is skipped.
    """
    n = m.n
    xs = np.arange(n, dtype=np.int64)
    e = _mod_in_place(xs * xs, n)
    e *= a % n
    _mod_in_place(e, n)
    if b % n:
        e += (b % n) * xs
        _mod_in_place(e, n)
    if c % n:
        e += c % n
        _mod_in_place(e, n)
    return ZnSignal(m, _roots_of_unity(n)[e])


def _mod_in_place(e: np.ndarray, n: int) -> np.ndarray:
    """e mod n in place, for e >= 0.

    numpy divides an int64 array by a scalar several times faster than it
    takes % of it.
    """
    e -= e // n * n
    return e


@lru_cache(maxsize=2)
def _roots_of_unity(n: int) -> np.ndarray:
    """The read-only table w^x = exp(2 pi i x / n), x in [0, n), kept for the last two moduli."""
    table = np.exp(2j * np.pi * np.arange(n) / n)
    table.setflags(write=False)
    return table


def modulated_interval_uniformity_check(
    m: Modulus, interval: IntervalZn, quad: tuple[int, int, int]
) -> float:
    """Largest coefficient (all r, r = 0 included) of I(x) w^(a x^2 + b x + c).

    The value never exceeds 2 n^-1/2 ln n, because the phase spectrum is flat
    at n^-1/2 and the interval spectrum has l1 norm at most 2 ln n;
    ``run_verify`` checks it against that bound.

    No transform is taken.  n is prime, so 2a is invertible; with
    s = (r - b)(2a)^-1 the exponent a x^2 + (b - r) x + c equals
    a (x - s)^2 + c - a s^2, so coefficient r is
    n^-1 w^(c - a s^2) sum_{x in I} psi(x - s) with psi(y) = w^(a y^2).
    The factor w^(c - a s^2) only rotates the coefficient: c never changes
    its modulus.  As r runs over Z_n so does s, so the largest modulus is
    n^-1 times the largest sum of psi over a cyclic window of I's length;
    the start of I and b only decide which coefficient holds which window.
    One cumulative sum of psi, of length n + 1, gives all n window sums.
    """
    a = quad[0]
    n = m.n
    if a % n == 0:
        raise DegenerateQuadraticError("leading coefficient vanishes mod n")
    interval.require_fit(m)
    length = interval.length
    prefix = np.zeros(n + 1, dtype=np.complex128)
    np.cumsum(quadratic_phase_signal(m, a).values, out=prefix[1:])
    # The window from t holds psi(t) .. psi(t + length - 1); from t = n - length + 1
    # on it wraps: psi(t) .. psi(n - 1), then psi(0) .. psi(t + length - n - 1).
    split = n - length + 1
    windows = np.empty(n, dtype=np.complex128)
    np.subtract(prefix[length:], prefix[:split], out=windows[:split])
    np.subtract(prefix[n], prefix[split:n], out=windows[split:])
    windows[split:] += prefix[1:length]
    return float(np.abs(windows).max()) / n


def save_spectrum_csv(sp: Spectrum, path) -> None:
    """Spectrum CSV: header r,re,im,abs, one row per frequency, 17 significant digits."""
    rows = (f"{r},{c.real:.17g},{c.imag:.17g},{abs(c):.17g}\n" for r, c in enumerate(sp.coeffs))
    write_text(path, "r,re,im,abs\n" + "".join(rows))
