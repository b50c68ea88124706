"""Prime moduli, signals on Z and on Z_n, one exact sum, and a reproducible random stream."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IoFailureError, NotPrimeError, TooLargeError, TooSmallError

# Counting kernels and exponent reductions stay exact in int64 below this bound.
MAX_MODULUS = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; this base set is exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """A prime modulus 5 <= n < 2**31 (so 2, 3 and every position difference are invertible).

    Construction validates n, so no Modulus holds a composite: the progression
    closed forms in ``apcount`` depend on it.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 5:
            raise TooSmallError(f"modulus must be at least 5, got {self.n}")
        if self.n >= MAX_MODULUS:
            raise TooLargeError(f"moduli must be below 2**31, got {self.n}")
        if not is_prime(self.n):
            raise NotPrimeError(f"{self.n} is not prime")


def make_modulus(n: int) -> Modulus:
    """Validate n and return a Modulus, or raise TooSmall / TooLarge / NotPrime."""
    return Modulus(n)


@dataclass(frozen=True)
class IntervalZn:
    """The residues {start, start+1, ..., start+length-1} reduced mod n."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("interval start must be a non-negative residue")
        if self.length < 1:
            raise ValueError("interval length must be positive")

    def require_fit(self, m: Modulus) -> None:
        """Raise ValueError unless the start is a residue mod n and the length is at most n."""
        if self.length > m.n or self.start >= m.n:
            raise ValueError("interval does not fit modulus")

    def residues(self, m: Modulus) -> np.ndarray:
        self.require_fit(m)
        return (self.start + np.arange(self.length, dtype=np.int64)) % m.n


class ZnSignal:
    """A dense function on Z_n; index x in [0, n) is the residue x.

    Integer-valued signals are stored as int64 with ``exact=True`` so that the
    counting kernels can run in exact integer arithmetic.  Real and complex
    signals use float64/complex128.  Instances are immutable and safe to share
    across threads.
    """

    __slots__ = ("modulus", "values", "exact")

    def __init__(self, modulus: Modulus, values) -> None:
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.shape[0] != modulus.n:
            raise ValueError(f"expected {modulus.n} values, got shape {arr.shape}")
        if np.issubdtype(arr.dtype, np.integer) or arr.dtype == bool:
            arr = arr.astype(np.int64)
            exact = True
        elif np.issubdtype(arr.dtype, np.complexfloating):
            arr = arr.astype(np.complex128)
            exact = False
        else:
            arr = arr.astype(np.float64)
            exact = False
        arr.setflags(write=False)  # astype returned a new array, so the caller holds no alias
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ZnSignal is immutable")

    def __len__(self) -> int:
        return self.modulus.n

    @property
    def n(self) -> int:
        return self.modulus.n

    @property
    def is_complex(self) -> bool:
        return np.issubdtype(self.values.dtype, np.complexfloating)


def constant_signal(m: Modulus, value) -> ZnSignal:
    if isinstance(value, (int, np.integer)):
        return ZnSignal(m, np.full(m.n, int(value), dtype=np.int64))
    return ZnSignal(m, np.full(m.n, value))


class SignalStats(NamedTuple):
    mean: float
    minimum: float
    maximum: float


def reduce_sum(values: np.ndarray) -> int | float | complex:
    """The sum of int64, float64 or complex128 values: exact on int64, else by fsum.

    An int64 array is summed in int64 when size * max|v| < 2^63, so no partial
    sum can wrap, and in Python integers otherwise; an empty one sums to 0.
    fsum rounds the exact sum once, so a float or complex sum does not depend
    on the order of the values, and only the nonzero ones are passed to it;
    complex values are summed as their real and imaginary parts apart.  fsum
    of only zeros, or of none, is +0.0, so dropping the zeros keeps the sign
    of every result.
    """
    if values.dtype == np.int64:
        if not values.size:
            return 0
        # Python ints, since abs(-2^63) wraps in int64
        lo, hi = int(values.min()), int(values.max())
        if values.size * max(-lo, hi) < 2**63:
            return int(values.sum())
        return sum(values.tolist())
    if values.dtype == np.complex128:
        return complex(_fsum_nonzero(values.real), _fsum_nonzero(values.imag))
    return _fsum_nonzero(values)


def _fsum_nonzero(values: np.ndarray) -> float:
    return math.fsum(values[values != 0].tolist())


def signal_stats(s: ZnSignal) -> SignalStats:
    """Mean (``reduce_sum`` over n), min and max of a real signal; the mean equals dft(s)[0]."""
    if s.is_complex:
        raise ValueError("signal_stats is defined for real signals only")
    return SignalStats(reduce_sum(s.values) / s.n, float(s.values.min()), float(s.values.max()))


@dataclass(frozen=True)
class IntSignalZ:
    """A finitely supported integer-valued function on Z.

    Stored canonically: ``values[i]`` is the value at ``offset + i``, leading and
    trailing zeros trimmed, every value in [-4, 4].  The all-zero function is
    ``IntSignalZ(0, ())``.
    """

    offset: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.values)
        if any(abs(v) > 4 for v in vals):
            raise ValueError("values must lie in [-4, 4]")
        lo = 0
        hi = len(vals)
        while lo < hi and vals[lo] == 0:
            lo += 1
        while hi > lo and vals[hi - 1] == 0:
            hi -= 1
        object.__setattr__(self, "values", vals[lo:hi])
        object.__setattr__(self, "offset", self.offset + lo if lo < hi else 0)

    def value_at(self, x: int) -> int:
        i = x - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(
            self.offset + i for i, v in enumerate(self.values) if v != 0
        )


# --- reproducible random stream ---------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(seed: int, first: int, count: int) -> np.ndarray:
    """The uint64 words mix(seed + c * 0x9E3779B97F4A7C15) for c = first, ..., first + count - 1.

    ``mix`` is the splitmix64 finalizer.  uint64 arithmetic wraps mod 2**64;
    ``first`` is reduced mod 2**64 before it becomes uint64.
    """
    counters = np.arange(count, dtype=np.uint64) + np.uint64(first & _MASK64)
    z = np.uint64(seed) + counters * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """Counter-mode splitmix64 stream.

    Word k (k = 0, 1, ...) is ``mix(seed + (k+1) * 0x9E3779B97F4A7C15 mod 2**64)``
    where ``mix`` is the splitmix64 finalizer (xor-shift 30, multiply
    0xBF58476D1CE4E5B9, xor-shift 27, multiply 0x94D049BB133111EB, xor-shift 31).
    The same seed yields the identical word sequence on every platform; frozen
    test vectors guard this.  A stream is single-consumer: parallel use must go
    through ``child`` streams, whose seeds are derived as
    ``mix(mix(seed) + (index+1) * 0x9E3779B97F4A7C15 mod 2**64)``.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._position = 0

    def next_word(self) -> int:
        """The next 64-bit word, as a Python int."""
        return int(self.words(1)[0])

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array (same sequence as next_word).

        A negative count is a ValueError and leaves the stream where it was.
        """
        if count < 0:
            raise ValueError("word count must be non-negative")
        block = _splitmix64(self.seed, self._position + 1, count)
        self._position += count
        return block

    def child(self, index: int) -> "RngStream":
        """Derive an independent stream for parallel or per-trial use."""
        if index < 0:
            raise ValueError("child index must be non-negative")
        mixed = int(_splitmix64(self.seed, 0, 1)[0])  # mix(seed)
        return RngStream(int(_splitmix64(mixed, index + 1, 1)[0]))


# --- file io ------------------------------------------------------------------


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; any OS error becomes IoFailureError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailureError(str(exc)) from exc


def read_json(path):
    """Parse the JSON file at ``path``; OS, encoding, syntax and depth errors become IoFailureError.

    ValueError covers UnicodeDecodeError, JSONDecodeError and integers past
    Python's digit limit; RecursionError is nesting past the parser's depth.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise IoFailureError(str(exc)) from exc


def save_signal(s: ZnSignal, path) -> None:
    """Write the JSON signal format {"n": n, "values": [...]} (real signals only)."""
    if s.is_complex:
        raise ValueError("the signal file format holds real signals only")
    write_text(path, json.dumps({"n": s.n, "values": s.values.tolist()}) + "\n")


def load_signal(path) -> ZnSignal:
    """Load the JSON signal format; any malformed content raises IoFailureError."""
    obj = read_json(path)
    if not isinstance(obj, dict) or set(obj.keys()) != {"n", "values"}:
        raise IoFailureError("signal file must contain exactly the fields 'n' and 'values'")
    if type(obj["n"]) is not int or not isinstance(obj["values"], list):
        raise IoFailureError("'n' must be an integer and 'values' a list")
    m = make_modulus(obj["n"])
    values = obj["values"]
    if len(values) != m.n:
        raise IoFailureError(f"expected {m.n} values, got {len(values)}")
    kinds = {type(v) for v in values}
    if not kinds <= {int, float}:
        raise IoFailureError("values must be JSON numbers")
    try:
        arr = np.array(values, dtype=np.int64 if kinds == {int} else np.float64)
    except OverflowError as exc:
        raise IoFailureError(f"value out of range: {exc}") from exc
    if not np.isfinite(arr).all():
        raise IoFailureError("values must be finite")
    return ZnSignal(m, arr)
