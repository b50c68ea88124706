"""The construction chain from a signed grid design to a sampled subset of Z_n.

A 16-point design in the {1,2,3,4}^3 grid meets every 4-point line except the
four space diagonals exactly once, so the grid function that is -1 on the
design and +1 elsewhere has a negative sum over 4-term progressions (-72).
An additive embedding (a Freiman homomorphism) transfers that function to the
integers, interval blocks spread it over Z_n without creating new
progressions, quadratic-phase modulation flattens its spectrum while roughly
doubling the progression sum, and an affine rescale plus independent Bernoulli
rounding turns it into an actual subset of Z_n of density about 1/2 whose
4-term progression count falls below the random benchmark 1/16.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .core import IntervalZn, IntSignalZ, Modulus, RngStream, ZnSignal
from .errors import (
    InvalidDesignError,
    ModulusTooSmallError,
    OutOfDomainError,
    ProbabilityOutOfRangeError,
)

Triple = tuple[int, int, int]

GRID_SIDE = 4

# The 16 built-in design triples, as digit strings "abc" -> (a, b, c).
_DESIGN_DIGITS = (
    "113", "121", "132", "144",
    "212", "224", "233", "241",
    "314", "322", "331", "343",
    "411", "423", "434", "442",
)

AXIS = "axis-parallel"
PLANE_DIAGONAL = "plane-diagonal"
MAIN_DIAGONAL = "main-diagonal"


@dataclass(frozen=True)
class GridDesign:
    """A set of grid points proposed as a design; validate_design checks the property."""

    points: frozenset[Triple]

    def __post_init__(self) -> None:
        for p in self.points:
            _check_point(p)

    def __contains__(self, point: Triple) -> bool:
        return point in self.points


@dataclass(frozen=True)
class GridLine:
    """Four collinear grid points; kind says how many coordinates vary."""

    points: tuple[Triple, Triple, Triple, Triple]
    kind: str


class DesignCheck(NamedTuple):
    ok: bool
    violations: tuple[GridLine, ...]


class FreimanCheck(NamedTuple):
    ok: bool
    collision: tuple | None


def _check_point(p: Triple) -> None:
    if len(p) != 3 or any(not 1 <= c <= GRID_SIDE for c in p):
        raise OutOfDomainError(f"{p} is not a point of the 4x4x4 grid")


def reference_design() -> GridDesign:
    """The built-in 16-point design (one point per off-diagonal 4-point line)."""
    return GridDesign(frozenset(tuple(int(ch) for ch in s) for s in _DESIGN_DIGITS))


# Canonical line directions: 3 axis-parallel, 6 plane-diagonal, 4 main-diagonal.
_DIRECTIONS = (
    ((1, 0, 0), AXIS), ((0, 1, 0), AXIS), ((0, 0, 1), AXIS),
    ((1, 1, 0), PLANE_DIAGONAL), ((1, -1, 0), PLANE_DIAGONAL),
    ((1, 0, 1), PLANE_DIAGONAL), ((1, 0, -1), PLANE_DIAGONAL),
    ((0, 1, 1), PLANE_DIAGONAL), ((0, 1, -1), PLANE_DIAGONAL),
    ((1, 1, 1), MAIN_DIAGONAL), ((1, 1, -1), MAIN_DIAGONAL),
    ((1, -1, 1), MAIN_DIAGONAL), ((1, -1, -1), MAIN_DIAGONAL),
)


@lru_cache(maxsize=1)
def enumerate_lines() -> tuple[GridLine, ...]:
    """All 76 four-point lines of the grid: 48 axis-parallel, 24 plane-diagonal, 4 main."""
    lines = []
    for (dx, dy, dz), kind in _DIRECTIONS:
        starts = []
        for d in (dx, dy, dz):
            if d == 1:
                starts.append((1,))
            elif d == -1:
                starts.append((GRID_SIDE,))
            else:
                starts.append(tuple(range(1, GRID_SIDE + 1)))
        for sx, sy, sz in itertools.product(*starts):
            pts = tuple(
                sorted((sx + i * dx, sy + i * dy, sz + i * dz) for i in range(GRID_SIDE))
            )
            lines.append(GridLine(pts, kind))
    return tuple(lines)


def validate_design(design: GridDesign) -> DesignCheck:
    """True iff every line other than the four main diagonals meets the design exactly once."""
    violations = []
    for line in enumerate_lines():
        if line.kind == MAIN_DIAGONAL:
            continue
        hits = sum(1 for p in line.points if p in design.points)
        if hits != 1:
            violations.append(line)
    return DesignCheck(not violations, tuple(violations))


def sign_grid(design: GridDesign) -> dict[Triple, int]:
    """The grid function: -1 on design points, +1 on the other 48 grid points."""
    check = validate_design(design)
    if not check.ok:
        raise InvalidDesignError(f"{len(check.violations)} lines fail the one-point condition")
    rng = range(1, GRID_SIDE + 1)
    return {
        p: -1 if p in design.points else 1
        for p in itertools.product(rng, rng, rng)
    }


def grid_ap4_sum(signs: Mapping[Triple, int]) -> int:
    """Sum over x in signs and d in {-3..3}^3 of g(x)g(x+d)g(x+2d)g(x+3d), g = 0 off the keys.

    The steps cover every progression of the 4x4x4 grid.  g is laid out in a
    dense int8 box, the keys' bounding box widened by 9 on every side so that
    every term x + i d falls inside it, and the 343 * 4 terms of every key are
    read by one gather at int32 flat indices.  Values must lie in [-4, 4], as
    in the lifted signal; a product of four is then at most 256.
    """
    if not signs:
        return 0
    points = np.array(list(signs), dtype=np.int64)
    values = np.array(list(signs.values()), dtype=np.int64)
    if values.min() < -4 or values.max() > 4:
        raise ValueError("grid values must lie in [-4, 4]")
    low = points.min(axis=0) - 9
    shape = points.max(axis=0) + 10 - low
    box = np.zeros(shape, dtype=np.int8)
    box[tuple((points - low).T)] = values
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    at = ((points - low) @ strides).astype(np.int32)
    steps = np.indices((7, 7, 7)).reshape(3, -1).T - 3  # the 343 steps d, one per row
    offsets = ((steps @ strides)[:, None] * np.arange(4)).astype(np.int32)  # i d, flat
    terms = box.ravel()[at[:, None, None] + offsets]  # (keys, steps, terms)
    return int(terms.prod(axis=2, dtype=np.int64).sum())


def embed_triple(a: int, b: int, c: int) -> int:
    """The base-8 style embedding a + 8b + 64c, mapping the grid into [73, 292]."""
    _check_point((a, b, c))
    return a + 8 * b + 64 * c


def freiman_check(
    embedding: Callable[[tuple], int] | None = None,
    points: Iterable[tuple] | None = None,
) -> FreimanCheck:
    """Check that phi(x) - phi(y) = phi(z) - phi(w) iff x - y = z - w on the domain.

    Checks all ordered pairs (x, y) of domain points at once (64^2 for the
    grid): the difference of images must depend only on the vector
    difference, and distinct vector differences must give distinct image
    differences.  The embedding is evaluated once per point.  Images that
    are not int64 integers, or lie 2^63 or more apart, are a ValueError.
    The points must be integer tuples of one length; each vector x - y
    becomes one int64 key in mixed radix (2 * span + 1 per coordinate), and
    a domain too wide for that is a ValueError too.

    On failure the collision field holds (earlier pair, failing pair), with
    pairs taken in row-major order.  The failing pair is the first whose
    vector came earlier with another image, or whose image came earlier with
    another vector; the earlier pair is the first pair with its vector in
    the first case and with its image in the second.
    """
    pts = list(points) if points is not None else [
        p for p in itertools.product(*(range(1, GRID_SIDE + 1),) * 3)
    ]
    if not pts:
        return FreimanCheck(True, None)
    phi = np.array([embed_triple(*p) if embedding is None else embedding(p) for p in pts])
    # every image difference must fit in int64
    if phi.dtype.kind != "i" or int(phi.max()) - int(phi.min()) >= 2**63:
        raise ValueError("embedding images must be int64 integers less than 2^63 apart")
    phi = phi.astype(np.int64)
    coords = np.array(pts)
    if coords.ndim != 2 or coords.dtype.kind != "i":
        raise ValueError("domain points must be integer tuples of one length")
    low = coords.min(axis=0).tolist()
    radices = [2 * (hi - lo) + 1 for hi, lo in zip(coords.max(axis=0).tolist(), low)]
    if math.prod(radices) >= 2**63:
        raise ValueError("the domain's difference vectors do not fit one int64 key")
    key = np.ravel_multi_index(tuple((coords.astype(np.int64) - low).T), radices)

    def first_with_same(values):
        """For each pair, the index of the first pair with the same value."""
        _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
        return first[inverse]

    vec_first = first_with_same(np.subtract.outer(key, key).ravel())
    img = np.subtract.outer(phi, phi).ravel()
    img_first = first_with_same(img)
    vec_bad = img[vec_first] != img
    bad = np.flatnonzero(vec_bad | (vec_first[img_first] != vec_first))
    if bad.size == 0:
        return FreimanCheck(True, None)
    i = int(bad[0])
    earlier = int(vec_first[i] if vec_bad[i] else img_first[i])
    count = len(pts)
    return FreimanCheck(
        False,
        ((pts[earlier // count], pts[earlier % count]), (pts[i // count], pts[i % count])),
    )


def lift_signal(signs: Mapping[Triple, int]) -> IntSignalZ:
    """Transfer the grid function to Z along the embedding; zero off the image."""
    values = [0] * (292 - 73 + 1)
    for p, v in signs.items():
        values[embed_triple(*p) - 73] = v
    return IntSignalZ(73, tuple(values))


# --- interval spreading over Z_n ----------------------------------------------


def interval_block_length(m: Modulus) -> int:
    """The block length t = floor(n/1200), rejected when 1500 t < n."""
    t = m.n // 1200
    if t < 1 or 1500 * t < m.n:
        raise ModulusTooSmallError(
            f"no integer block length in [n/1500, n/1200] for n = {m.n}"
        )
    return t


def interval_block(k: int, t: int) -> IntervalZn:
    """Block k (1-based): the residues {(2k-1)t + 1, ..., 2kt}."""
    return IntervalZn((2 * k - 1) * t + 1, t)


def build_interval_signal(m: Modulus) -> ZnSignal:
    """Spread the lifted sequence over 300 length-t blocks with gaps of t.

    Block k (``interval_block(k, t)``) carries the constant value f(k) and
    every other residue is 0; an arithmetic progression can only pass
    through blocks whose indices themselves form a progression.  The block
    length t = ``interval_block_length(m)`` = n // 1200 gives
    878 t - 2 < 1200 t <= n, which pins the exact 4-AP numerator at
    -72 * p(t), with p(t) the number of progressions inside {1..t}.
    """
    t = interval_block_length(m)
    f = lift_signal(sign_grid(reference_design()))
    values = np.zeros(m.n, dtype=np.int64)
    # 1200 t <= n: block 300 ends at residue 600 t <= n / 2, so no block wraps or meets another
    for k in f.support():
        start = interval_block(k, t).start
        values[start : start + t] = f.value_at(k)
    return ZnSignal(m, values)


def interval_progression_count(t: int) -> int:
    """p(t): 4-APs (any integer step, degenerate included) inside {1..t}.

    Equals sum over residues j mod 3 of m_j^2, where m_j counts elements of
    {1..t} congruent to j: a progression is determined by its endpoints, which
    must agree mod 3.
    """
    counts = [0, 0, 0]
    for x in range(1, t + 1):
        counts[x % 3] += 1
    return sum(c * c for c in counts)


def build_modulated_signal(m: Modulus) -> ZnSignal:
    """The interval signal times the real phase combination.

    G(x) = F(x) (2 cos(2 pi x^2 / n) + 2 cos(2 pi 3 x^2 / n)), the real form of
    the four quadratic phases with exponents +-x^2, +-3x^2.  Values lie in
    [-4, 4] and every Fourier coefficient is below 512 n^-1/2 ln n.  The
    phases are evaluated on F's support only; every other entry is +0.0.
    """
    f = build_interval_signal(m)
    n = m.n
    xs = np.flatnonzero(f.values)
    x2 = (xs * xs) % n
    phases = 2.0 * np.cos(2.0 * np.pi * x2 / n) + 2.0 * np.cos(
        2.0 * np.pi * ((3 * x2) % n) / n
    )
    values = np.zeros(n)
    values[xs] = f.values[xs] * phases
    return ZnSignal(m, values)


def build_probability_signal(m: Modulus) -> ZnSignal:
    """P = (G + 4)/8: values in [0, 1], coefficients G^(r)/8 for r != 0."""
    g = build_modulated_signal(m)
    return ZnSignal(m, (g.values + 4.0) / 8.0)


def sample_indicator(p_signal: ZnSignal, rng: RngStream) -> ZnSignal:
    """Independent Bernoulli draws: x enters the set with probability P(x).

    One 64-bit word per coordinate, consumed in order x = 0..n-1 and compared
    against the probability scaled to 2**64, so the result is a deterministic
    function of the stream seed.
    """
    if p_signal.is_complex:
        raise ProbabilityOutOfRangeError("probabilities must be real")
    vals = p_signal.values
    # written so that NaN, which fails every comparison, is rejected too
    if not (float(vals.min()) >= 0.0 and float(vals.max()) <= 1.0):
        raise ProbabilityOutOfRangeError("probabilities must lie in [0, 1]")
    # p = 1 would scale to 2**64, which uint64 cannot hold; it always draws.
    certain = vals == 1.0
    thresholds = np.where(certain, 0.0, vals * 2.0**64).astype(np.uint64)
    drawn = (rng.words(p_signal.n) < thresholds) | certain
    return ZnSignal(p_signal.modulus, drawn.astype(np.int64))


def quadratic_level_set(m: Modulus, c: float) -> ZnSignal:
    """Indicator of {x : x^2 mod n within cn of 0 (cyclically)}; density about 2c."""
    if not 0.0 < c < 0.25:
        raise ValueError("c must lie in (0, 1/4)")
    n = m.n
    xs = np.arange(n, dtype=np.int64)
    r2 = (xs * xs) % n
    cutoff = c * n
    inside = (r2 <= cutoff) | (r2 >= n - cutoff)
    return ZnSignal(m, inside.astype(np.int64))


# --- quadratic pattern classification -----------------------------------------


@dataclass(frozen=True)
class PatternCoeffs:
    """One term of the 256-fold phase expansion of the modulated 4-AP product.

    The phase exponent p x^2 + q (x+d)^2 + r (x+2d)^2 + s (x+3d)^2 collapses to
    u x^2 + v x d + w d^2 with u = p+q+r+s, v = 2(q+2r+3s), w = q+4r+9s.
    """

    p: int
    q: int
    r: int
    s: int
    u: int
    v: int
    w: int

    @classmethod
    def from_signs(cls, p: int, q: int, r: int, s: int) -> "PatternCoeffs":
        return cls(p, q, r, s, p + q + r + s, 2 * (q + 2 * r + 3 * s), q + 4 * r + 9 * s)


class PatternClassification(NamedTuple):
    all_patterns: tuple[PatternCoeffs, ...]
    nonzero_u: tuple[PatternCoeffs, ...]
    zero_u_nonzero_w: tuple[PatternCoeffs, ...]
    null: tuple[PatternCoeffs, ...]


def classify_patterns() -> PatternClassification:
    """Split the 256 sign patterns (entries in {-3,-1,1,3}) by their collapsed form.

    Exactly two patterns have u = w = 0, namely (1,-3,3,-1) and (-1,3,-3,1);
    both also have v = 0, by the identity x^2 - 3(x+d)^2 + 3(x+2d)^2 = (x+3d)^2,
    so their phase factor is identically 1.
    """
    signs = (-3, -1, 1, 3)
    every = tuple(
        PatternCoeffs.from_signs(p, q, r, s)
        for p, q, r, s in itertools.product(signs, signs, signs, signs)
    )
    nonzero_u = tuple(pc for pc in every if pc.u != 0)
    zero_u_nonzero_w = tuple(pc for pc in every if pc.u == 0 and pc.w != 0)
    null = tuple(pc for pc in every if pc.u == 0 and pc.w == 0)
    return PatternClassification(every, nonzero_u, zero_u_nonzero_w, null)
