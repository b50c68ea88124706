"""Oracles shared by more than one test module."""

import math

import numpy as np
import pytest

import ap4kit as k


def _linear_form_mean_fourier(b: k.ZnSignal) -> float:
    """E over solutions of x - 3y + 3z - w = 0 of B(x)B(y)B(z)B(w), for a 0/1 signal B.

    Computed as sum_r |B^(r)|^2 |B^(3r)|^2, which also shows the value is at
    least density(B)^4: the nonzero frequencies contribute non-negatively.
    """
    n = b.n
    coeffs = k.dft(b).coeffs
    mags2 = (coeffs * coeffs.conj()).real
    return math.fsum((mags2 * mags2[3 * np.arange(n) % n]).tolist())


@pytest.fixture(scope="session")
def linear_form_mean():
    return _linear_form_mean_fourier
