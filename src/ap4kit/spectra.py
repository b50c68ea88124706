"""Mean-normalized Fourier analysis on Z_n.

The transform used everywhere is f^(r) = n^-1 * sum_x f(x) w^(-rx) with
w = exp(2*pi*i/n), so f^(0) is the mean (the density, for an indicator).
``dft`` is numpy's O(n log n) FFT at every length (prime lengths included).
``quadratic_phase_signal`` reads its roots of unity w^x from one read-only
table per modulus, cached for the last two moduli, so the 30 phases of a
``verify`` run build it once; the exponent is reduced exactly in int64, so a
phase is the same whether the table is cached or new.
"""

from __future__ import annotations

import math
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
    within 1e-9 per coefficient.
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
    return ZnSignal(m, _roots_of_unity(n)[e])


@lru_cache(maxsize=2)
def _roots_of_unity(n: int) -> np.ndarray:
    """The read-only table w^x = exp(2 pi i x / n), x in [0, n), kept for the last two moduli."""
    table = np.exp(2j * np.pi * np.arange(n) / n)
    table.setflags(write=False)
    return table


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
