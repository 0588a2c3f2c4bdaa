"""Core value types for finite binary words and their factor statistics.

Everything here is an immutable value: words, Parikh vectors, and prefix
profiles can be shared freely between threads. Densities are exact rationals;
no floating point is used anywhere in comparisons.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Union

from .errors import InvalidInputError, RangeError

if TYPE_CHECKING:
    import numpy as np

# Exact arbitrary-precision rationals back every density and slope comparison.
Rational = Fraction

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")

BitsLike = Union["FiniteWord", str, bytes, bytearray, memoryview, Iterable[int]]


class FiniteWord:
    """An immutable finite binary word.

    Accepts a bitstring (``"0110"``) or any iterable of 0/1 integers. Words
    behave like sequences (length, 0-based indexing, slicing, iteration,
    concatenation with ``+``, repetition with ``*``) and are hashable.
    ``str()`` renders the plain bitstring.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: BitsLike = b""):
        if isinstance(bits, FiniteWord):
            raw = bits._bits
        elif isinstance(bits, str):
            try:
                encoded = bits.encode("ascii")
            except UnicodeEncodeError:
                raise InvalidInputError(f"not a binary word: {bits!r}") from None
            if encoded.translate(None, b"01"):
                raise InvalidInputError(f"not a binary word: {bits!r}")
            raw = encoded.translate(_FROM_ASCII)
        else:
            raw = bytes(bits)
            if raw.translate(None, b"\x00\x01"):
                raise InvalidInputError("symbol values must be 0 or 1")
        self._bits = raw

    @classmethod
    def zeros(cls, n: int) -> "FiniteWord":
        return cls(b"\x00" * n)

    @classmethod
    def ones(cls, n: int) -> "FiniteWord":
        return cls(b"\x01" * n)

    @property
    def weight(self) -> int:
        """Number of 1s in the word."""
        return self._bits.count(1)

    def prefix_sums(self) -> np.ndarray:
        """A new int64 array of ``n + 1`` counts: ``P[i]`` 1s among the first ``i`` symbols."""
        import numpy as np
        return np.add.accumulate(np.frombuffer(b"\0" + self._bits, dtype=np.uint8), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._bits)

    def __bool__(self) -> bool:
        return bool(self._bits)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return FiniteWord(self._bits[item])
        return self._bits[item]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __bytes__(self) -> bytes:
        return self._bits

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteWord):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((FiniteWord, self._bits))

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if not isinstance(other, FiniteWord):
            return NotImplemented
        return FiniteWord(self._bits + other._bits)

    def __mul__(self, times: int) -> "FiniteWord":
        if not isinstance(times, int):
            return NotImplemented
        return FiniteWord(self._bits * times)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self._bits.translate(_TO_ASCII).decode("ascii")

    def __repr__(self) -> str:
        return f"FiniteWord({str(self)!r})"


class ParikhVector(NamedTuple):
    """Symbol counts of a word, as (number of 0s, number of 1s)."""

    zeros: int
    ones: int


class LexOrder(enum.Enum):
    """Outcome of a lexicographic comparison with 0 < 1.

    ``PREFIX`` means the first word is a strict prefix of the second (and thus
    precedes it); when the second word is a strict prefix of the first, the
    result is ``GREATER``.
    """

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    PREFIX = "prefix"


def parikh(u: FiniteWord) -> ParikhVector:
    """Exact counts of 0s and 1s in ``u``."""
    ones = u.weight
    return ParikhVector(len(u) - ones, ones)


def complement(u: FiniteWord) -> FiniteWord:
    """Bitwise complement; an involution."""
    return FiniteWord(u._bits.translate(_FLIP))


def reverse(u: FiniteWord) -> FiniteWord:
    """Order reversal; an involution."""
    return FiniteWord(u._bits[::-1])


def prefix_weight(w: FiniteWord, i: int) -> int:
    """Number of 1s among the first ``i`` symbols of ``w`` (``i = 0`` gives 0)."""
    if not 0 <= i <= len(w):
        raise RangeError(f"prefix length {i} out of range 0..{len(w)}")
    return w._bits.count(1, 0, i)


def prefix_density(w: FiniteWord, i: int) -> Fraction:
    """Exact density of the length-``i`` prefix, as a fraction in lowest terms."""
    if not 1 <= i <= len(w):
        raise RangeError(f"prefix length {i} out of range 1..{len(w)}")
    return Fraction(prefix_weight(w, i), i)


def lex_compare(u: FiniteWord, v: FiniteWord) -> LexOrder:
    """Lexicographic comparison of two words with 0 < 1.

    A strict prefix precedes any of its extensions; that case is reported
    separately as ``LexOrder.PREFIX`` when ``u`` is the prefix.
    """
    if u._bits == v._bits:
        return LexOrder.EQUAL
    if v._bits.startswith(u._bits):
        return LexOrder.PREFIX
    if u._bits.startswith(v._bits):
        return LexOrder.GREATER
    return LexOrder.LESS if u._bits < v._bits else LexOrder.GREATER


class _FrozenSlots:
    """An immutable value whose ``__slots__`` are its fields: equality, hash,
    repr and pickling follow the fields, which ``__init__`` sets in order."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class PrefixProfile(_FrozenSlots):
    """Maximum and minimum 1s over factors of each length of some word.

    ``max_ones[k]`` / ``min_ones[k]`` hold the extreme number of 1s over all
    factors of length ``k + 1``; the 1-based accessors below match the
    convention used throughout the documentation. The corresponding 0s
    statistics are derived, never stored.
    """

    __slots__ = ("length", "max_ones", "min_ones")

    def __init__(self, length: int, max_ones: tuple[int, ...], min_ones: tuple[int, ...]):
        if length < 1:
            raise InvalidInputError("profile requires a non-empty word")
        if len(max_ones) != length or len(min_ones) != length:
            raise InvalidInputError("profile arrays must cover lengths 1..n")
        prev_max, prev_min = 0, 0
        for i, (hi, lo) in enumerate(zip(max_ones, min_ones), start=1):
            if not 0 <= lo <= hi <= i:
                raise InvalidInputError(f"profile values out of bounds at length {i}")
            if hi - prev_max not in (0, 1) or lo - prev_min not in (0, 1):
                raise InvalidInputError(f"profile steps must be 0 or 1 at length {i}")
            prev_max, prev_min = hi, lo
        super().__init__(length, max_ones, min_ones)

    def _check(self, i: int) -> None:
        if not 1 <= i <= self.length:
            raise RangeError(f"factor length {i} out of range 1..{self.length}")

    def max_ones_at(self, i: int) -> int:
        self._check(i)
        return self.max_ones[i - 1]

    def min_ones_at(self, i: int) -> int:
        self._check(i)
        return self.min_ones[i - 1]

    def max_zeros_at(self, i: int) -> int:
        return i - self.min_ones_at(i)

    def min_zeros_at(self, i: int) -> int:
        return i - self.max_ones_at(i)


_BLOCK_CELLS = 1 << 18  # most cells of one window block: 512 KB of uint16 sums


def _window_blocks(
    w: FiniteWord, lengths: range, minima: bool = True
) -> Iterator[tuple[range, np.ndarray, np.ndarray | None]]:
    """Yield ``(rows, highs, lows)`` over blocks of consecutive ``lengths``, the
    one quadratic scan behind every factor statistic: ``highs[r, j]`` is the
    weight ``P[i + j] - P[j]`` of the factor of length ``i = rows[r]`` at ``j``.
    Rows are as wide as the first; past the word ``highs`` counts 0s, leaving a
    suffix of the last real window, which neither raises a row maximum nor
    exceeds a bound first. ``lows`` (None unless ``minima``) puts the last
    ``len(rows) - 1`` starts first, counting 1s past the word, which cannot
    lower a row minimum. Heights double from 1 within ``_BLOCK_CELLS``. Sums
    padded with 1s may wrap the narrowest unsigned type holding ``n``, but each
    difference is a count in ``0..n``. Keep no block past the next step."""
    import numpy as np
    n, dtype, pad = len(w), np.min_scalar_type(len(w)), min(len(lengths), isqrt(_BLOCK_CELLS))
    padded = b"\0" + w._bits + b"\0" * pad + (w._bits + b"\1" * pad if minima else b"")  # pad >= height - 1
    sums = np.add.accumulate(np.frombuffer(padded, np.uint8), dtype=dtype)
    sums0, sums1 = sums[: n + 1 + pad], sums[n + pad :]  # sums of w 0^pad, and of w 1^pad offset by P[n]
    buf = np.empty(max(n, min(_BLOCK_CELLS, 2 * n * len(lengths))), dtype)
    a, size = lengths.start, 1
    while a < lengths.stop:
        width = n - a + 1
        b = max(1, min(size, lengths.stop - a, _BLOCK_CELLS // (width + size - 1)))
        if b == 1:
            highs = lows = np.subtract(sums0[a : a + width], sums0[:width], out=buf[:width])[None]
        else:  # np.ndarray(shape, dtype, x, 0, x.strides * 2) has row r at x[r:], checked to lie in x
            last, block = width - b + 1, buf[: b * (width + b - 1)].reshape(b, width + b - 1)
            highs, lows = block[:, b - 1 :], block[:, :width]
            np.subtract(np.ndarray((b, width), dtype, sums0[a:], 0, sums.strides * 2), sums0[:width], out=highs)
            if minima:
                tail = np.ndarray((b, b - 1), dtype, sums1[a + last :], 0, sums.strides * 2)
                np.subtract(tail, sums1[last:width], out=block[:, : b - 1])
        yield range(a, a + b), highs, lows if minima else None
        a, size = a + b, 2 * b


def compute_profile(w: FiniteWord, longest: int | None = None) -> PrefixProfile:
    """Factor statistics of ``w`` for factor lengths ``1..longest``.

    ``longest`` defaults to ``len(w)``. A smaller bound still takes every
    factor of ``w`` into account, so a long window of an infinite word gives
    better estimates of its statistics than the short prefix alone. The cost
    is ``O(longest * len(w))``.
    """
    n = len(w)
    if n == 0:
        raise InvalidInputError("cannot profile the empty word")
    if longest is None:
        longest = n
    elif not 1 <= longest <= n:
        raise RangeError(f"factor length {longest} out of range 1..{n}")
    maxs, mins = [], []
    for _, highs, lows in _window_blocks(w, range(1, longest + 1)):
        maxs += highs.max(1).tolist()
        mins += lows.min(1).tolist()
    return PrefixProfile(length=longest, max_ones=tuple(maxs), min_ones=tuple(mins))
