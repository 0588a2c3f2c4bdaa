"""Lazy producers of infinite binary words.

Covers mechanical words with exact rational or quadratic-irrational slopes,
morphic fixpoints (Fibonacci, Thue-Morse), the paperfolding and binary
Champernowne words, the two prefix-normality-preserving extension operators,
and the staged aperiodic construction hitting a prescribed minimum density.

Slope arithmetic never touches floating point: the floor of
``(a + b*sqrt(d))/c`` is exact through ``math.isqrt``, and it decides every
order too, since a quadratic irrational minus a rational is irrational and so
is positive exactly when its floor is >= 0.

Every producer is an iterator of blocks of symbols (bytes or lazy runs) that
``_block_stream`` wraps as a :class:`WordStream`: a rational slope tiles one
period, a quadratic slope concatenates standard words, a morphic tape expands
at most ``PERIOD_CHUNK`` tape symbols per block, paperfolding is built by
reflection in doubling blocks, Champernowne is computed ``PERIOD_CHUNK // 16``
integers at a time, and flipext is a generator of run lengths ``k``, each
found from the seed's 1s and the most recent 1s, whose runs ``0^k 1`` are
appended whole. Lazy flipext is the seed, one run of 0s and the tail of the
upper mechanical word, and a density staircase stage is ``w^k 0^run`` (proof
sketches at ``paperfolding_stream``, ``_flipext_runs``,
``lazy_alpha_flipext_stream`` and ``_density_stages``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import (
    InvalidInputError,
    RangeError,
    ResourceLimitError,
    UnsupportedParameterError,
)
from .word_core import _FLIP, BitsLike, FiniteWord, _FrozenSlots

#: Hard cap on materialized prefix length; a desk-scale guardrail.
MATERIALIZE_CAP = 1 << 26

#: Largest radicand ``d`` accepted in ``(a + b*sqrt(d))/c``. Reducing ``d``
#: to its square-free part trial-divides up to ``sqrt(d)``: about 0.03 s per
#: value at this limit on one Xeon core, and hours for a 21-digit radicand.
MAX_RADICAND = 10**10

#: Block size of the producers: symbols of a rational period or morphic tape
#: symbols expanded per block. A long period is built only as far as it is read.
PERIOD_CHUNK = 4096


def _strip_square_factors(b: int, d: int) -> tuple[int, int]:
    """Rewrite ``b*sqrt(d)`` with a square-free radicand."""
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            b *= f
        f += 1
    return b, d


@functools.total_ordering
class QuadraticIrrational:
    """Exact value ``(a + b*sqrt(d))/c`` with ``b != 0`` and square-free ``d >= 2``.

    Supports the rational-affine arithmetic the generators need (addition and
    multiplication by fractions, reciprocal, negation) plus exact floor, ceil,
    and total-order comparisons against rationals and same-radicand values.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise InvalidInputError("denominator must be non-zero")
        if b == 0:
            raise InvalidInputError("b = 0 denotes a rational; use Fraction instead")
        if d < 2:
            raise InvalidInputError("radicand must be at least 2")
        if d > MAX_RADICAND:
            raise ResourceLimitError(f"radicand {d} exceeds the limit {MAX_RADICAND}")
        b, d = _strip_square_factors(b, d)
        if d == 1:
            raise InvalidInputError("radicand is a perfect square; value is rational")
        self._normalize(a, b, c, d)

    def _normalize(self, a: int, b: int, c: int, d: int) -> None:
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        self.a = a // g
        self.b = b // g
        self.c = c // g
        self.d = d

    # -- arithmetic -----------------------------------------------------------

    def _with(self, a: int, b: int, c: int) -> "QuadraticIrrational":
        """``(a + b*sqrt(d))/c`` over this value's radicand, which is already
        square-free; callers guarantee ``b != 0`` and ``c != 0``."""
        value = object.__new__(QuadraticIrrational)
        value._normalize(a, b, c, self.d)
        return value

    def __neg__(self) -> "QuadraticIrrational":
        return self._with(-self.a, -self.b, self.c)

    def __add__(self, other: Union[int, Fraction]) -> "QuadraticIrrational":
        other = Fraction(other)
        p, q = other.numerator, other.denominator
        return self._with(self.a * q + p * self.c, self.b * q, self.c * q)

    __radd__ = __add__

    def __sub__(self, other: Union[int, Fraction]) -> "QuadraticIrrational":
        return self + (-Fraction(other))

    def __rsub__(self, other: Union[int, Fraction]) -> "QuadraticIrrational":
        return (-self) + Fraction(other)

    def __mul__(self, other: Union[int, Fraction]):
        other = Fraction(other)
        if other == 0:
            return Fraction(0)
        p, q = other.numerator, other.denominator
        return self._with(self.a * p, self.b * p, self.c * q)

    __rmul__ = __mul__

    def reciprocal(self) -> "QuadraticIrrational":
        norm = self.a * self.a - self.b * self.b * self.d  # non-zero: d is not a square
        return self._with(self.c * self.a, -self.c * self.b, norm)

    def __floor__(self) -> int:
        root = math.isqrt(self.b * self.b * self.d)
        # b*sqrt(d) is irrational, so the floor of the negative branch shifts by one
        return (self.a + (root if self.b > 0 else -root - 1)) // self.c

    def __ceil__(self) -> int:
        return -math.floor(-self)

    # -- comparisons ----------------------------------------------------------

    def _cmp(self, other: Union[int, Fraction, "QuadraticIrrational"]) -> int:
        """Sign of ``self - other``: an irrational difference is > 0 iff its floor is >= 0."""
        if isinstance(other, QuadraticIrrational):
            if other.d != self.d:
                raise UnsupportedParameterError("cannot compare different radicands")
            a = self.a * other.c - other.a * self.c
            b = self.b * other.c - other.b * self.c
            if b == 0:
                return (a > 0) - (a < 0)
            diff = self._with(a, b, self.c * other.c)
        else:
            diff = self - other
        return 1 if math.floor(diff) >= 0 else -1

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticIrrational):
            return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        return NotImplemented  # the identity fallback keeps a QI unequal to every rational

    def __hash__(self) -> int:
        return hash((QuadraticIrrational, self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"

    def __repr__(self) -> str:
        return f"QuadraticIrrational({self.a}, {self.b}, {self.c}, {self.d})"


_RATIONAL_SLOPE_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+))?\s*$")
_QUADRATIC_SLOPE_RE = re.compile(
    r"^\s*\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)\s*/\s*(\d+)\s*$"
)


class SlopeSpec(NamedTuple):
    """An exact slope: either a rational ``p/q`` or ``(a + b*sqrt(d))/c``."""

    value: Union[Fraction, QuadraticIrrational]

    @classmethod
    def rational(cls, p: int, q: int = 1) -> "SlopeSpec":
        if q <= 0:
            raise InvalidInputError("denominator must be positive")
        return cls(Fraction(p, q))

    @classmethod
    def quadratic(cls, a: int, b: int, c: int, d: int) -> "SlopeSpec":
        return cls(QuadraticIrrational(a, b, c, d))

    @classmethod
    def parse(cls, text: str) -> "SlopeSpec":
        """Parse ``"p/q"`` or ``"(a+b*sqrt(d))/c"`` with decimal integers."""
        m = _RATIONAL_SLOPE_RE.match(text)
        if m:
            return cls.rational(int(m.group(1)), int(m.group(2) or 1))
        m = _QUADRATIC_SLOPE_RE.match(text)
        if m:
            a, sign, b, d, c = m.groups()
            return cls.quadratic(int(a), int(b) if sign == "+" else -int(b), int(c), int(d))
        raise InvalidInputError(f"cannot parse slope: {text!r}")

    @property
    def is_rational(self) -> bool:
        return isinstance(self.value, Fraction)

    def compare(self, other: Union[int, Fraction]) -> int:
        """Sign of ``slope - other`` decided exactly."""
        return (self.value > other) - (self.value < other)

    def __str__(self) -> str:
        if self.is_rational:
            return f"{self.value.numerator}/{self.value.denominator}"
        return str(self.value)


#: Slope whose characteristic word is the Fibonacci word: (3 - sqrt(5))/2.
FIBONACCI_SLOPE = SlopeSpec.quadratic(3, -1, 2, 5)
#: The slope sqrt(2) - 1, the canonical quadratic example used in the tests.
SQRT2_SLOPE = SlopeSpec.quadratic(-1, 1, 1, 2)


class WordStream:
    """A lazy infinite binary word materialized on demand.

    ``prefix(n)`` returns the first ``n`` symbols; repeated calls are
    consistent because emitted symbols are buffered. Instances are stateful
    and single-owner: safe to hand off between threads, not to share.
    """

    def __init__(self, symbols: Iterable[int]):
        self._it = iter(symbols)
        self._buf = bytearray()

    @property
    def produced(self) -> int:
        """Number of symbols materialized so far."""
        return len(self._buf)

    def prefix(self, n: int) -> FiniteWord:
        if n < 0:
            raise RangeError("prefix length must be non-negative")
        if n > MATERIALIZE_CAP:
            raise ResourceLimitError(f"refusing to materialize more than {MATERIALIZE_CAP} symbols")
        missing = n - len(self._buf)
        if missing > 0:
            self._buf.extend(itertools.islice(self._it, missing))
            if len(self._buf) < n:
                raise InvalidInputError("underlying symbol source ended prematurely")
        return FiniteWord(self._buf[:n])


def _block_stream(blocks: Iterable[Iterable[int]]) -> WordStream:
    """A stream of the concatenated ``blocks``, each an iterable of symbols."""
    return WordStream(itertools.chain.from_iterable(blocks))


# -- mechanical words ----------------------------------------------------------


def _validate_mechanical_params(slope: SlopeSpec, intercept: Fraction) -> None:
    if slope.compare(0) < 0 or slope.compare(1) > 0:
        raise RangeError("slope must lie in [0, 1]")
    if not 0 <= intercept < 1:
        raise RangeError("intercept must lie in [0, 1)")
    if not slope.is_rational and intercept != 0:
        raise UnsupportedParameterError("irrational slopes support intercept 0 only")


def _rational_period(slope: Fraction, intercept: Fraction, upper: bool) -> Iterator[bytes]:
    """One period of the mechanical word of a rational slope, in chunks.

    Over the common denominator ``den`` of ``slope = p/q`` and the intercept,
    symbol ``i`` is ``f(i + 1) - f(i)`` with ``f(i) = (step*i + offset) // den``;
    the ceiling adds ``den - 1`` to ``offset``. Since ``f(i + q) = f(i) + p``,
    the first ``q`` symbols repeat forever.
    """
    q = slope.denominator
    den = math.lcm(q, intercept.denominator)
    step = slope.numerator * (den // q)
    offset = intercept.numerator * (den // intercept.denominator) + (den - 1 if upper else 0)
    for start in range(0, q, PERIOD_CHUNK):
        stop = min(start + PERIOD_CHUNK, q)
        floors = [(step * i + offset) // den for i in range(start, stop + 1)]
        yield bytes(b - a for a, b in zip(floors, floors[1:]))


def _partial_quotients(alpha: QuadraticIrrational) -> Iterator[int]:
    """The partial quotients ``d_1, d_2, ...`` of ``alpha = [0; d_1, d_2, ...]`` in (0, 1)."""
    while True:
        alpha = alpha.reciprocal()
        d = math.floor(alpha)
        yield d
        alpha = alpha - d


def _characteristic_blocks(alpha: QuadraticIrrational) -> Iterator[bytes]:
    """The characteristic word of ``alpha`` in (0, 1), block by block.

    The standard words ``s_{-1} = 1``, ``s_0 = 0``, ``s_1 = s_0^(d_1 - 1) s_{-1}``
    and ``s_{k+1} = s_k^(d_{k+1}) s_{k-1}`` are prefixes of one another and of
    the characteristic word (Lothaire, *Algebraic Combinatorics on Words*,
    ch. 2). Each step yields the new suffix ``s_k^(d - 1) s_{k-1}`` one copy
    of ``s_k`` at a time, so a huge partial quotient costs only what is read.
    """
    word, prev, cur = b"", b"\x01", b"\x00"  # emitted so far, s_{k-1}, s_k
    for d in _partial_quotients(alpha):
        yield from itertools.repeat(cur, d - 1)
        yield prev
        prev, cur = cur, b"".join((word, cur * (d - 1), prev))
        word = cur


def _mechanical_blocks(slope: SlopeSpec, intercept: Fraction, upper: bool) -> Iterator[bytes]:
    """A rational slope tiles one period; an irrational one (intercept 0) is
    ``0`` (lower) or ``1`` (upper) followed by the characteristic word."""
    if slope.is_rational:
        return itertools.cycle(_rational_period(slope.value, intercept, upper))
    first = b"\x01" if upper else b"\x00"
    return itertools.chain((first,), _characteristic_blocks(slope.value))


def mechanical_stream(
    slope: SlopeSpec, intercept: Fraction = Fraction(0), upper: bool = False
) -> WordStream:
    """Stream form of :func:`mechanical_lower` / :func:`mechanical_upper`."""
    intercept = Fraction(intercept)
    _validate_mechanical_params(slope, intercept)
    return _block_stream(_mechanical_blocks(slope, intercept, upper))


def mechanical_lower(slope: SlopeSpec, intercept: Fraction, n: int) -> FiniteWord:
    """First ``n`` symbols of the lower mechanical word ``floor(slope*i + intercept)`` differences."""
    return mechanical_stream(slope, intercept, upper=False).prefix(n)


def mechanical_upper(slope: SlopeSpec, intercept: Fraction, n: int) -> FiniteWord:
    """First ``n`` symbols of the upper mechanical word ``ceil(slope*i + intercept)`` differences."""
    return mechanical_stream(slope, intercept, upper=True).prefix(n)


def characteristic_stream(slope: SlopeSpec) -> WordStream:
    """Characteristic word of an irrational slope in (0, 1).

    Equals the upper mechanical word with intercept 0 shifted left by one
    symbol (dropping the leading 1).
    """
    if slope.is_rational:
        raise UnsupportedParameterError("characteristic word requires an irrational slope")
    if slope.compare(0) <= 0 or slope.compare(1) >= 0:
        raise RangeError("slope must lie strictly inside (0, 1)")
    return _block_stream(_characteristic_blocks(slope.value))


def characteristic_word(slope: SlopeSpec, n: int) -> FiniteWord:
    """First ``n`` symbols of the characteristic word of ``slope``."""
    return characteristic_stream(slope).prefix(n)


# -- morphic fixpoints and classic sequences ------------------------------------


class MorphismSpec(_FrozenSlots):
    """A binary morphism with a designated seed symbol.

    The image of the seed must start with the seed and have length at least 2,
    so that iterating the morphism from the seed converges to a fixpoint.
    """

    __slots__ = ("image0", "image1", "seed")

    def __init__(self, image0: BitsLike, image1: BitsLike, seed: int = 0):
        super().__init__(FiniteWord(image0), FiniteWord(image1), seed)
        if seed not in (0, 1):
            raise InvalidInputError("seed must be 0 or 1")
        seed_image = self.image_of(seed)
        if len(seed_image) < 2 or seed_image[0] != seed:
            raise InvalidInputError("morphism is not prolongable from its seed")

    def image_of(self, symbol: int) -> FiniteWord:
        return self.image0 if symbol == 0 else self.image1


FIBONACCI_MORPHISM = MorphismSpec(FiniteWord("01"), FiniteWord("0"), seed=0)
THUE_MORSE_MORPHISM = MorphismSpec(FiniteWord("01"), FiniteWord("10"), seed=0)


def _morphic_blocks(m: MorphismSpec) -> Iterator[bytes]:
    """The fixpoint of ``m``, block by block.

    ``tape`` is always the image of its first ``done`` symbols, so it starts
    as the seed's image and is a prefix of the fixpoint. Each block is the
    image of the next unexpanded tape symbols, at most ``PERIOD_CHUNK`` of
    them; a bytearray keeps appending linear when images are short. A finite
    fixpoint of a prolongable binary morphism is the seed's image itself.
    If the seed's image is ``s a^k`` with ``a`` fixed by ``m``, the fixpoint
    is ``s a^omega``; any other infinite fixpoint grows exponentially, so its
    blocks soon hold ``PERIOD_CHUNK`` symbols.
    """
    images = (bytes(m.image_of(0)), bytes(m.image_of(1)))
    tape = bytearray(images[m.seed])
    yield bytes(tape)
    image = images[tape[1]]
    if tape[1:] == image * (len(tape) - 1):  # s a^k, and a is its own image
        yield from itertools.repeat(image * PERIOD_CHUNK)
    done = 1
    while True:
        chunk = tape[done : done + PERIOD_CHUNK]
        if not chunk:
            raise InvalidInputError("morphism fixpoint is finite")
        block = b"".join([images[symbol] for symbol in chunk])
        tape += block
        done += len(chunk)
        yield block


def morphic_stream(m: MorphismSpec) -> WordStream:
    """The fixpoint of ``m`` obtained by iterated expansion from the seed."""
    return _block_stream(_morphic_blocks(m))


def morphic_fixpoint(m: MorphismSpec, n: int) -> FiniteWord:
    """First ``n`` symbols of the morphic fixpoint of ``m``."""
    return morphic_stream(m).prefix(n)


def fibonacci_stream() -> WordStream:
    return morphic_stream(FIBONACCI_MORPHISM)


def thue_morse_stream() -> WordStream:
    return morphic_stream(THUE_MORSE_MORPHISM)


def _paperfolding_blocks() -> Iterator[bytes]:
    """``w_1``, then the new half ``0 complement(reverse(w_k))`` of each ``w_{k+1}``."""
    word = b"\x00"
    yield word
    while True:
        half = b"\x00" + word[::-1].translate(_FLIP)
        yield half
        word += half


def paperfolding_stream() -> WordStream:
    """The ordinary paperfolding word, whose symbol ``i - 1`` is 1 exactly when
    the odd part of ``i`` is 3 mod 4, built by reflection: ``w_1 = 0`` and
    ``w_{k+1} = w_k 0 complement(reverse(w_k))``. Position ``2^k`` has odd
    part 1. For ``0 < j = 2^v o < 2^k`` with ``o`` odd, the odd parts
    ``2^(k-v) + o`` and ``2^(k-v) - o`` of ``2^k + j`` and ``2^k - j`` sum to
    a multiple of 4, so they are 1 and 3 mod 4 in swapped order."""
    return _block_stream(_paperfolding_blocks())


def paperfolding(n: int) -> FiniteWord:
    """First ``n`` symbols of the ordinary paperfolding word."""
    if n < 1:
        raise RangeError("length must be at least 1")
    return paperfolding_stream().prefix(n)


def _champernowne_blocks() -> Iterator[bytes]:
    # Within MATERIALIZE_CAP symbols no integer has more than 22 bits, so a
    # block stays near PERIOD_CHUNK symbols; PERIOD_CHUNK integers would make
    # the first block ~45k symbols long.
    step = PERIOD_CHUNK // 16
    for start in itertools.count(0, step):
        yield bytes(FiniteWord("".join(format(k, "b") for k in range(start, start + step))))


def champernowne_stream() -> WordStream:
    """Binary expansions of 0, 1, 2, ... concatenated in order."""
    return _block_stream(_champernowne_blocks())


def champernowne(n: int) -> FiniteWord:
    """First ``n`` symbols of the binary Champernowne word."""
    if n < 1:
        raise RangeError("length must be at least 1")
    return champernowne_stream().prefix(n)


# -- prefix-normal extension operators -------------------------------------------


def _require_prefix_normal_seed(w: FiniteWord) -> None:
    from .analysis import find_violation_1
    if w.weight == 0:
        raise InvalidInputError("seed must contain at least one 1")
    violation = find_violation_1(w)
    if violation is not None:
        raise InvalidInputError(f"seed is not prefix normal ({violation.render()})")


def _flipext_runs(seed: FiniteWord) -> Iterator[int]:
    """Run lengths ``k`` of iterated flipext: each appends the minimal ``0^k 1``.

    Let ``h(0) < h(1) < ...`` be the 0-based positions of the 1s. A word is
    prefix normal exactly when ``h(x) + h(y) <= h(x + y)`` below its weight:
    the window from the ``y``-th to the ``(x+y)``-th 1 holds ``x + 1`` ones.
    So a step on length ``n`` and weight ``W`` puts its 1 at
    ``h(W) = max(n, max over 1 <= x < W of h(x) + h(W - x))``. The max needs
    only ``x <= w0``, the seed's weight, by induction on ``W``: for a pair
    ``x, y > w0``, if the 1 at ``h(y)`` followed a 1 then
    ``h(x) + h(y) <= h(x + 1) + h(y - 1)`` and the pair moves down; otherwise
    ``h(y) = h(x') + h(y - x')`` with ``x' <= w0``, and superadditivity gives
    ``h(x) + h(y) <= h(x') + h(W - x')``. The state is ``h(1..w0)`` and the
    last ``w0`` positions, so a step costs O(w0) and every run is shorter
    than ``h(w0) < 2 |seed|``.
    """
    ones = [i for i, bit in enumerate(bytes(seed)) if bit]
    head, recent = ones[1:], collections.deque(ones, maxlen=len(ones))  # h(1..w0), h(W-w0..W-1)
    n = len(seed)
    while True:
        one = max(n, max(map(operator.add, head, reversed(recent)), default=0))
        yield one - n
        n = one + 1
        if len(head) < len(recent):  # the first step appends h(w0)
            head.append(one)
        recent.append(one)


def flipext(w: FiniteWord) -> FiniteWord:
    """Extend a prefix-normal word by ``0^k 1`` with the minimal normality-preserving ``k``."""
    _require_prefix_normal_seed(w)
    return w + FiniteWord.zeros(next(_flipext_runs(w))) + FiniteWord.ones(1)


def flipext_stream(w: FiniteWord) -> WordStream:
    """The limit of iterating :func:`flipext`; every prefix is prefix normal."""
    _require_prefix_normal_seed(w)
    return _block_stream(itertools.chain((bytes(w),), (bytes(k) + b"\x01" for k in _flipext_runs(w))))


def _lazy_end(w: FiniteWord, slope: SlopeSpec) -> int:
    """After validating the seed, ``floor(W / slope)`` for the weight ``W`` of
    ``w``: the longest ``w 0^j`` whose density still meets the slope."""
    if slope.compare(0) <= 0 or slope.compare(1) > 0:
        raise RangeError("slope must lie in (0, 1]")
    _require_prefix_normal_seed(w)
    from .analysis import min_density
    if slope.compare(min_density(w).delta) > 0:
        raise InvalidInputError("seed minimum density is below the slope")
    inverse = 1 / slope.value if slope.is_rational else slope.value.reciprocal()
    return math.floor(inverse * w.weight)


def lazy_alpha_flipext(w: FiniteWord, slope: SlopeSpec) -> FiniteWord:
    """Extend by ``0^k 1`` with the maximal ``k`` keeping the minimum density at or above ``slope``."""
    return w + FiniteWord.zeros(_lazy_end(w, slope) - len(w)) + FiniteWord.ones(1)


def lazy_alpha_flipext_stream(w: FiniteWord, slope: SlopeSpec) -> WordStream:
    """The limit of iterating :func:`lazy_alpha_flipext`.

    After a weight-``m`` prefix a step puts the next 1 at the 1-based position
    ``floor(m / slope) + 1``, whatever the prefix is. The upper mechanical word
    ``U`` of intercept 0 has ``ceil(slope*L)`` 1s in its first ``L`` symbols,
    so its ``(m+1)``-th 1 sits there too. The stream is therefore
    ``w 0^(E - |w|) U[E:]`` with ``E = floor(weight(w) / slope)``; from 1 it is ``U``.
    """
    end = _lazy_end(w, slope)
    upper = itertools.chain.from_iterable(_mechanical_blocks(slope, Fraction(0), True))
    return _block_stream((bytes(w), itertools.repeat(0, end - len(w)), itertools.islice(upper, end, None)))


# -- staged aperiodic construction with prescribed minimum density ---------------


class DensityStage(NamedTuple):
    """One stage of the staged construction: the word so far and its parameters."""

    index: int
    word: FiniteWord
    target: Fraction
    k: int | None
    zeros_run: int


TargetLike = Union[SlopeSpec, Fraction, QuadraticIrrational]


def geometric_density_sequence(alpha: Fraction, a1: Fraction | None = None) -> Iterator[Fraction]:
    """Default density sequence ``alpha + (a1 - alpha) / 2**(i-1)`` for a rational target.

    ``a1`` defaults to the midpoint of ``alpha`` and 1.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise RangeError("target must lie strictly inside (0, 1)")
    if a1 is None:
        a1 = (alpha + 1) / 2
    a1 = Fraction(a1)
    if not alpha < a1 < 1:
        raise InvalidInputError("first density must lie strictly between the target and 1")
    gap = a1 - alpha
    while True:
        yield alpha + gap
        gap /= 2


def _density_stages(target: TargetLike, densities: Iterable[Fraction]) -> Iterator[DensityStage]:
    if not isinstance(target, SlopeSpec):
        target = SlopeSpec(target if isinstance(target, QuadraticIrrational) else Fraction(target))
    previous, index = Fraction(1), 0  # a_1 < 1 is checked first, so 1 bounds it from above
    for index, a in enumerate(map(Fraction, densities), 1):
        if not 0 < a < 1:
            raise InvalidInputError(f"density a_{index} must lie in (0, 1)")
        if a >= previous:
            raise InvalidInputError(f"density sequence must be strictly decreasing at a_{index}")
        if target.compare(a) >= 0:
            raise InvalidInputError(f"density a_{index} must stay above the target")
        previous = a
        if index == 1:
            k, head = None, math.ceil(10 * a)
            run = 10 - head
            word = FiniteWord.ones(head) + FiniteWord.zeros(run)
        else:
            # run(k) = floor(k * scaled / numerator), positive by the density bounds;
            # k is the least k >= 2 whose run exceeds the previous one
            scaled = word.weight * a.denominator - len(word) * a.numerator
            k = max(2, -(-(run + 1) * a.numerator // scaled))
            run = scaled * k // a.numerator
            # flipext^omega(w) = w^omega when w^omega is prefix normal: a run k'
            # shorter than w^omega's next run would end a suffix u'0^k'1 beating
            # the prefix u'0^(k'+1). (1^h 0^r)^omega is prefix normal, and 0^run
            # after every k|w| symbols keeps a periodic word prefix normal: the
            # window at a period start holds the fewest inserted 0s.
            if k * len(word) + run > MATERIALIZE_CAP:
                raise ResourceLimitError(f"refusing to materialize more than {MATERIALIZE_CAP} symbols")
            word = word * k + FiniteWord.zeros(run)
        yield DensityStage(index=index, word=word, target=a, k=k, zeros_run=run)
    raise InvalidInputError(f"density sequence ended before stage {index + 1}")


def density_stages(target: TargetLike, densities: Iterable[Fraction], count: int) -> list[DensityStage]:
    """Materialize the first ``count`` stages of the construction."""
    if count < 1:
        raise RangeError("stage count must be at least 1")
    return list(itertools.islice(_density_stages(target, densities), count))


def _staged_density_blocks(target: TargetLike, densities: Iterable[Fraction]) -> Iterator[bytes]:
    emitted = 0
    for stage in _density_stages(target, densities):
        yield bytes(stage.word)[emitted:]
        emitted = len(stage.word)


def aperiodic_density_stream(target: TargetLike, densities: Iterable[Fraction]) -> WordStream:
    """Aperiodic prefix-normal word whose minimum density converges to ``target``.

    ``densities`` must be strictly decreasing rationals in (0, 1), each above
    the target; violations are reported lazily as stages materialize. Every
    emitted prefix is prefix normal, and the appended runs of 0s have strictly
    increasing lengths, which witnesses aperiodicity.
    """
    return _block_stream(_staged_density_blocks(target, densities))
