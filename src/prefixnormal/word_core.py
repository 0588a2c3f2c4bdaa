"""Core value types for finite binary words and their factor statistics.

Everything here is an immutable value: words, Parikh vectors, and prefix
profiles can be shared freely between threads. Densities are exact rationals;
no floating point is used anywhere in comparisons.
"""

from __future__ import annotations

import enum
import operator
import struct
import sys
from fractions import Fraction
from itertools import chain, compress
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InvalidInputError, RangeError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

# Exact arbitrary-precision rationals back every density and slope comparison.
Rational = Fraction

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")

BitsLike = Union["FiniteWord", str, bytes, bytearray, memoryview, Iterable[int]]

#: Hard cap on materialized prefix length; a desk-scale guardrail.
MATERIALIZE_CAP = 1 << 26


def _check_cap(n: int) -> None:
    """Refuse to materialize ``n`` symbols past the cap, read at each call."""
    if n > MATERIALIZE_CAP:
        raise ResourceLimitError(f"refusing to materialize more than {MATERIALIZE_CAP} symbols")


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
            try:
                iter(bits)  # bytes() would read an int, a bool or a numpy scalar as a length
            except TypeError:
                raise InvalidInputError(f"not a binary word: {bits!r}") from None
            try:
                raw = bytes(bits)
            except (TypeError, ValueError):  # a symbol that is not an int in 0..255
                raw = None
            if raw is None or raw.translate(None, b"\x00\x01"):
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


def _word_with_prefix_weights(weights: Sequence[int]) -> FiniteWord:
    """The word whose length-``i`` prefix has ``weights[i - 1]`` ones."""
    return FiniteWord(bytes(map(operator.sub, weights, chain((0,), weights))))


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
    """An immutable ``__slots__`` value: equality, hash, repr and pickling
    follow its ``_fields``, which ``__init__`` sets in order. Other slots may
    hold values derived from the fields."""

    __slots__ = _fields = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
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

    __slots__ = _fields = ("length", "max_ones", "min_ones")

    def __init__(self, length: int, max_ones: tuple[int, ...], min_ones: tuple[int, ...]):
        if length < 1:
            raise InvalidInputError("profile requires a non-empty word")
        if len(max_ones) != length or len(min_ones) != length:
            raise InvalidInputError("profile arrays must cover lengths 1..n")
        unit_steps = {0, 1}.issuperset  # steps of 0 or 1 from 0 keep each count in 0..i
        if not (unit_steps(map(operator.sub, max_ones, (0, *max_ones)))
                and unit_steps(map(operator.sub, min_ones, (0, *min_ones)))
                and all(map(operator.le, min_ones, max_ones))):
            prev_max, prev_min = 0, 0  # find the first bad length
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


_BLOCK_CELLS = 1 << 18  # most cells of one span block: 512 KB of uint16 spans


def _span_extremes(w: FiniteWord, lengths: range, minima: bool) -> Iterator[tuple[range, list, list | None]]:
    """The numpy backend of :func:`_extremes`, from the positions of one
    letter ``x``, the rarer one (1 on a tie).

    Let ``p[0] < ... < p[k-1]`` be the positions of ``x``, with sentinels
    ``p[-1] = -1`` and ``p[k] = n``, and let row ``s`` hold the spans
    ``p[j+s] - p[j]``. The least real span of row ``s`` is below ``i``
    exactly when a factor of length ``i`` holds ``s + 1`` x's: that many x's
    in a row span at least as much, and the shortest factor holding them
    extends to every longer length in the word. The widest span of row
    ``s``, sentinels included, is at most ``i`` exactly when every factor of
    length ``i`` holds ``s`` x's: a factor with fewer lies strictly between
    the two ends of a span of row ``s``, and the factor strictly inside the
    widest one holds ``s - 1``. Both extremes strictly increase with ``s``,
    so the max-x at ``i`` counts the rows whose least span is below ``i``,
    the min-x counts the rows past 0 whose widest span is at most ``i``, and
    rows ``0..s`` settle the max-x up to the least span of row ``s`` plus 1
    and the min-x up to its widest span. Row 0 holds spans of 0, and row
    ``k`` only its sentinel spans. For ``x = 0`` the max-1s at ``i`` is ``i`` minus the
    min-0s, and the min-1s ``i`` minus the max-0s. So a profile or a check
    scans ``min(W, Z)^2 / 2`` spans for ``W`` 1s and ``Z`` 0s, and takes only
    the extremes it needs. Lengths come at most ``isqrt(_BLOCK_CELLS)`` at a
    time once they are settled, so a check stops within a block of its first
    violation.

    A block of ``b`` rows holds first the spans at the starts of its last
    row, then those ending at the last ``b - 1`` x's, which start there in
    the reversed word, so each row reads only real spans, and all of them.
    Heights double from 1 within ``_BLOCK_CELLS`` and up to half the rows
    left, which keeps those starts in the word. Spans lie in ``0..n``, in
    the narrowest unsigned type holding ``n``."""
    if not lengths:
        return
    import numpy as np
    n, x = len(w), int(2 * w.weight <= len(w))
    by_least, by_widest = x or minima, minima or not x  # the least spans give the max-x, the widest the min-x
    dtype = np.min_scalar_type(n)
    p = np.flatnonzero(np.frombuffer(w._bits, np.uint8) == x).astype(dtype)
    k, ends = len(p), n - 1 - p[::-1]  # the positions of x in the word and in the reversed word
    least = np.zeros(k, dtype)
    widest = np.concatenate((np.zeros(1, dtype), np.maximum(p, ends) + 1))  # first the sentinel spans of each row
    buf = np.empty(max(k, min(_BLOCK_CELLS, k * k)), dtype)
    f, size, a = 1, 1, lengths.start  # rows below f are known
    while a < lengths.stop:
        f += f == k  # row k holds only its sentinel spans, known from the start
        settled = n
        if f <= k:
            settled = min(int(least[f - 1]) + 1 if by_least else n, int(widest[f - 1]) if by_widest else n)
        if settled < a:
            width = k - f  # the starts of row f, the first of the block
            b = max(1, min(size, (width + 2) // 2, lengths.stop - f, _BLOCK_CELLS // width))
            last, block = width - b + 1, buf[: b * width].reshape(b, width)
            # np.ndarray(shape, dtype, x, 0, x.strides * 2) has row r at x[r:], checked to lie in x
            np.subtract(np.ndarray((b, last), dtype, p[f:], 0, p.strides * 2), p[:last], out=block[:, :last])
            tail = np.ndarray((b, b - 1), dtype, ends[f:], 0, ends.strides * 2)
            np.subtract(tail, ends[: b - 1], out=block[:, last:])
            if by_least:
                least[f : f + b] = block.min(1)
            if by_widest:
                np.maximum(block.max(1), widest[f : f + b], out=widest[f : f + b])
            f, size = f + b, 2 * b
            continue
        b = min(lengths.stop, a + isqrt(_BLOCK_CELLS), settled + 1)
        i = np.arange(a, b, dtype=dtype)
        most, fewest = least[:f].searchsorted(i, "left"), widest[1:f].searchsorted(i, "right")  # max-x, min-x
        if not x:
            most, fewest = i - fewest, i - most
        yield range(a, b), most.tolist(), fewest.tolist() if minima else None
        a = b


#: Most lane reads (:func:`_backend`) of a scan in lanes, not numpy's: 8-34 ms at 2^22, numpy's import 65-115 ms.
_LANE_READS = 1 << 22


def _lane_extremes(w: FiniteWord, lengths: range, minima: bool) -> Iterator[tuple[range, list, list | None]]:
    """The numpy-free backend of :func:`_extremes`: the rows of
    :func:`_span_extremes`, sentinel spans included, under its proof, in lanes
    of one Python int. Lane ``j`` of ``Q`` holds ``p[j-1] + 1`` in ``b`` bits,
    ``n < 2^(b-1)``; row ``s`` plus row 1 shifted down ``s`` lanes is row
    ``s + 1``: real spans in lanes ``1..k-s``, then earlier rows' top sentinels.
    Adding ``2^(b-1) - t`` to every lane sets, with no carry, the top bit of
    those holding ``t`` or more. A row counts in the max-x from the first ``i``
    with a real span below ``t = i``, in the min-x from the first with all
    below ``t = i + 1``, which earlier sentinels pass: least and widest spans
    strictly increase. So ``first`` seeks each past the last, returned with its
    row biased for it: a leap one short of the mean gap, three steps of one, then
    Bentley and Yao's unbounded search (IPL 5, 1976). Blocks double up to ``isqrt(_BLOCK_CELLS)`` lengths."""
    n, x, stop = len(w), int(2 * w.weight <= len(w)), lengths.stop
    b, k = next(b for b in (16, 32, 64) if n < 1 << b - 1), w.weight if x else n - w.weight
    positions = compress(range(1, n + 1), w._bits if x else w._bits.translate(_FLIP))  # p[j] + 1 for each x
    packed = int.from_bytes(struct.pack(f"<{k + 2}{'HIQ'[b // 32]}", 0, *positions, n + 1), "little")
    unit = int.from_bytes((1).to_bytes(b // 8, "little") * (k + 2), "little")  # 1 in every lane
    high, lower = unit << (b - 1), (packed >> b) - packed + (n + 1 << b * (k + 1))  # top bits; row 1
    gallop = [(1 << e, unit << e) for e in range(stop.bit_length() + 1)]  # 2^e lengths, and 2^e in every lane

    def first(r: int, mask: int, holds: Callable[[int], bool], i: int, g: int) -> tuple[int, int]:
        if g > 4 and i + g - 1 < stop and not holds((probe := r - unit * (g - 1)) & mask):
            i, r = i + g - 1, probe  # it fails one short of the mean gap g so far
        for _ in (1, 2, 3):
            r, i = r - unit, i + 1
            if i == stop or holds(r & mask):
                return i, r
        for e, (step, delta) in enumerate(gallop):  # doubling: i + 2^e reaches stop before e runs out
            if i + step >= stop or holds((probe := r - delta) & mask):
                break
            i, r = i + step, probe
        for step, delta in reversed(gallop[:e]):  # bisection: it holds at i + 2 step, or that is past stop
            if i + step < stop and not holds((probe := r - delta) & mask):
                i, r = i + step, probe
        return i + 1, r - unit

    most, fewest, upper, top = 0, 0, lower >> b, high >> 2 * b << b if x or minima else 0  # top of the real spans
    most_at, least = first(high, top, top.__ne__, 0, 0)  # row `most`, biased; adding lower steps it a row
    fewest_at, widest = first(lower + high - unit, high, (0).__eq__, 0, 0) if minima or not x else (stop, 0)
    a, size, maxs, mins, i = lengths.start, 1, [], [], 1  # lengths from a are not yielded yet
    while a < stop:
        if most_at == i:
            most, top, least, lower = most + 1, top & top >> b, least + lower, lower >> b
            most_at, least = first(least, top, top.__ne__, i, i // most)
        if fewest_at == i:
            fewest, widest, upper = fewest + 1, widest + upper, upper >> b
            fewest_at, widest = first(widest, high, (0).__eq__, i, i // fewest)
        j, h = min(most_at, fewest_at, a + size), i if i > a else a  # lengths i..j-1 hold most and fewest
        maxs += [most] * (j - h) if x else range(h - fewest, j - fewest)
        mins += [fewest] * (j - h) if x else range(h - most, j - most)
        if j == a + size or j == stop:
            yield range(a, j), maxs, mins if minima else None
            a, size, maxs, mins = j, min(2 * size, isqrt(_BLOCK_CELLS)), [], []
        i = j


def _backend(w: FiniteWord, lengths: range) -> Callable[..., Iterator[tuple[range, list, list | None]]]:
    """The backend of :func:`_extremes` for ``lengths`` of ``w``: lanes while
    numpy is not loaded (a None in ``sys.modules`` only blocks its import) and
    probes times lanes fit in ``_LANE_READS``; else numpy's blocks. By the last
    length ``r = min(k, last)`` rows of ``k`` lanes count, as row ``s`` spans at least
    ``s``; ``g`` apart they take ``2 log g`` probes, ``r (2 log(last / r) + 1)`` at most."""
    k, last = min(w.weight, len(w) - w.weight), lengths.stop - 1
    probes = (rows := max(min(k, last), 1)) * (2 * (last // rows).bit_length() - 1)
    if sys.modules.get("numpy") is None and probes * k <= _LANE_READS:
        return _lane_extremes
    return _span_extremes


def _extremes(w: FiniteWord, lengths: range, minima: bool = True) -> Iterator[tuple[range, list, list | None]]:
    """Yield ``(rows, maxs, mins)`` over blocks of consecutive ``lengths`` from
    the rarer letter's span rows, in lanes or numpy's blocks as :func:`_backend`
    picks: the one scan behind every factor statistic. ``maxs[r]`` and ``mins[r]``
    (None unless ``minima``) are the most and fewest 1s over the factors of
    length ``rows[r]``. A block comes as soon as the backend settles it, so a
    check can stop early, and holds at most ``isqrt(_BLOCK_CELLS)`` lengths."""
    return _backend(w, lengths)(w, lengths, minima)


def compute_profile(w: FiniteWord, longest: int | None = None) -> PrefixProfile:
    """Factor statistics of ``w`` for factor lengths ``1..longest``.

    ``longest`` defaults to ``len(w)``. A smaller bound still takes every
    factor of ``w`` into account, so a long window of an infinite word gives
    better estimates of its statistics than the short prefix alone. Both
    backends read up to ``min(W, Z)`` span rows for ``W`` 1s and ``Z`` 0s, fewer
    for a smaller ``longest``: numpy's blocks all their spans, about
    ``min(W, Z)^2 / 2``, the lanes about ``2 log(n / min(W, Z))`` probes a row.
    """
    n = len(w)
    if n == 0:
        raise InvalidInputError("cannot profile the empty word")
    if longest is None:
        longest = n
    elif not 1 <= longest <= n:
        raise RangeError(f"factor length {longest} out of range 1..{n}")
    maxs, mins = [], []
    for _, most, least in _extremes(w, range(1, longest + 1)):
        maxs += most
        mins += least
    return PrefixProfile(length=longest, max_ones=tuple(maxs), min_ones=tuple(mins))
