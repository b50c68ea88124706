"""Mean-normalized Fourier analysis on Z_n.

The transform used everywhere is f^(r) = n^-1 * sum_x f(x) w^(-rx) with
w = exp(2*pi*i/n), so f^(0) is the mean (the density, for an indicator).
``dft`` is numpy's O(n log n) FFT at every length (prime lengths included);
``dft_direct`` evaluates the defining sum and serves as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IntervalZn, Modulus, ZnSignal, write_text
from .errors import DegenerateQuadraticError, ZeroFrequencyError


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


def _direct_coeffs(values: np.ndarray, n: int) -> np.ndarray:
    # Exponents r*x are reduced mod n in integer arithmetic before the root
    # of unity is evaluated; r*x < 2**62 for n < 2**31, so int64 is exact.
    xs = np.arange(n, dtype=np.int64)
    table = np.exp(-2j * np.pi * xs / n)
    vals = values.astype(np.complex128)
    out = np.empty(n, dtype=np.complex128)
    for r in range(n):
        out[r] = table[(r * xs) % n].dot(vals)
    return out / n


def dft_direct(s: ZnSignal) -> Spectrum:
    """Defining O(n^2) evaluation of the transform; the test oracle."""
    return Spectrum(s.modulus, _direct_coeffs(s.values, s.n))


def dft(s: ZnSignal) -> Spectrum:
    """Mean-normalized transform of a signal.

    numpy's FFT handles prime lengths; it matches ``dft_direct`` within 1e-9
    per coefficient.
    """
    return Spectrum(s.modulus, np.fft.fft(s.values.astype(np.complex128)) / s.n)


def uniformity(sp: Spectrum) -> float:
    """max over r != 0 of |coeffs[r]|; small values mean a spectrally flat signal."""
    return float(np.abs(sp.coeffs[1:]).max())


def max_coefficient(sp: Spectrum) -> float:
    """max over all r, including r = 0, of |coeffs[r]|."""
    return float(np.abs(sp.coeffs).max())


def quadratic_phase_signal(m: Modulus, a: int, b: int = 0, c: int = 0) -> ZnSignal:
    """The complex signal w^(a x^2 + b x + c) on Z_n.

    The exponent is reduced mod n stepwise in int64 so no floating-point
    argument error enters the root of unity.
    """
    n = m.n
    xs = np.arange(n, dtype=np.int64)
    x2 = (xs * xs) % n
    e = (a % n) * x2 % n
    e = (e + (b % n) * xs) % n
    e = (e + c % n) % n
    table = np.exp(2j * np.pi * np.arange(n) / n)
    return ZnSignal(m, table[e])


def interval_coeff_bound(m: Modulus, r: int) -> float:
    """The geometric-series bound 2 / (n |1 - w^r|) on |I^(r)| for any interval I."""
    n = m.n
    rr = r % n
    if rr == 0:
        raise ZeroFrequencyError("the bound is defined for nonzero frequencies")
    s = min(rr, n - rr)
    return 1.0 / (n * math.sin(math.pi * s / n))


def interval_coeff_bound_sum(m: Modulus) -> float:
    """1 + sum over r != 0 of min(1, bound(r)); at most 1 + 2 ln n."""
    n = m.n
    s = np.minimum(np.arange(1, n, dtype=np.int64), n - np.arange(1, n, dtype=np.int64))
    bounds = 1.0 / (n * np.sin(np.pi * s / n))
    return 1.0 + float(np.minimum(1.0, bounds).sum())


def modulated_interval_uniformity_check(
    m: Modulus, interval: IntervalZn, quad: tuple[int, int, int]
) -> tuple[float, float]:
    """Largest coefficient (all r, r = 0 included) of I(x) w^(a x^2 + b x + c).

    Returns (measured, 2 n^-1/2 ln n); the measured value never exceeds the
    bound, because the phase spectrum is flat at n^-1/2 and the interval
    spectrum has l1 norm at most 2 ln n.
    """
    a, b, c = quad
    if a % m.n == 0:
        raise DegenerateQuadraticError("leading coefficient vanishes mod n")
    phase = quadratic_phase_signal(m, a, b, c)
    indicator = np.zeros(m.n, dtype=np.float64)
    indicator[interval.residues(m)] = 1.0
    sp = dft(ZnSignal(m, indicator * phase.values))
    bound = 2.0 * math.log(m.n) / math.sqrt(m.n)
    return max_coefficient(sp), bound


def save_spectrum_csv(sp: Spectrum, path) -> None:
    """Spectrum CSV: header r,re,im,abs, one row per frequency, 17 significant digits."""
    rows = (f"{r},{c.real:.17g},{c.imag:.17g},{abs(c):.17g}\n" for r, c in enumerate(sp.coeffs))
    write_text(path, "r,re,im,abs\n" + "".join(rows))
