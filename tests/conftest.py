"""Oracles shared by more than one test module."""

import itertools
import math

import numpy as np
import pytest

import ap4kit as k
from ap4kit.constructions import FreimanCheck


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


def _freiman_check_loop(embedding, points):
    """freiman_check as a Python loop over the ordered pairs, in row-major order.

    Records the first image of every vector difference and the first vector
    of every image difference, and returns at the first pair that disagrees
    with either, paired with the first pair of the vector it conflicts with.
    """
    pts = list(points)
    images = [embedding(p) for p in pts]
    by_vector: dict[tuple, int] = {}
    by_image: dict[int, tuple] = {}
    first_pair: dict[tuple, tuple] = {}
    for (x, phi_x), (y, phi_y) in itertools.product(zip(pts, images), repeat=2):
        vec = tuple(a - b for a, b in zip(x, y))
        img = phi_x - phi_y
        if vec in by_vector:
            if by_vector[vec] != img:
                return FreimanCheck(False, (first_pair[vec], (x, y)))
        else:
            by_vector[vec] = img
            first_pair[vec] = (x, y)
        if img in by_image:
            if by_image[img] != vec:
                return FreimanCheck(False, (first_pair[by_image[img]], (x, y)))
        else:
            by_image[img] = vec
    return FreimanCheck(True, None)


@pytest.fixture(scope="session")
def freiman_check_loop():
    return _freiman_check_loop
