"""Prefix-normality checks, prefix normal forms, abelian complexity, and
minimum-density machinery for finite words and stream prefixes.

A word is 1-prefix normal when no factor has more 1s than the prefix of the
same length; the 0-flavour is the complemented dual. The prefix normal forms
of a word are the unique prefix normal words sharing its max-1s (resp.
max-0s) function, and their prefix weights bound the weight of every factor,
which makes abelian complexity a simple width computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

import numpy as np

from .errors import InvalidInputError, NoBoundError, RangeError
from .word_core import (
    FiniteWord,
    ParikhVector,
    PrefixProfile,
    _window_weights,
    complement,
)


class PrefixSource(Protocol):
    """Anything that can materialize its first ``n`` symbols."""

    def prefix(self, n: int) -> FiniteWord: ...


@dataclass(frozen=True)
class PNViolation:
    """Witness that a word is not prefix normal.

    The factor of ``factor_length`` symbols starting at 1-based position
    ``factor_start`` carries ``factor_ones`` 1s, strictly more than the
    ``prefix_ones`` found in the prefix of the same length. Violations are
    reported smallest length first, then smallest start.
    """

    factor_start: int
    factor_length: int
    factor_ones: int
    prefix_ones: int

    def render(self) -> str:
        return (
            f"len={self.factor_length} start={self.factor_start} "
            f"ones={self.factor_ones} prefix_ones={self.prefix_ones}"
        )


def find_violation_1(w: FiniteWord) -> PNViolation | None:
    """First factor with more 1s than the same-length prefix, or None.

    ``None`` means ``w`` is 1-prefix normal; the empty word is vacuously
    normal. The scan goes length by length, so the first violation has
    minimal length and, within it, minimal starting position.
    """
    for i, weights in _window_weights(w, len(w)):
        limit = weights[0]
        if weights.max() > limit:
            j = int(np.argmax(weights > limit))
            return PNViolation(
                factor_start=j + 1,
                factor_length=i,
                factor_ones=int(weights[j]),
                prefix_ones=int(limit),
            )
    return None


def find_violation_0(w: FiniteWord) -> PNViolation | None:
    """Dual of :func:`find_violation_1`; the reported counts refer to 0s."""
    return find_violation_1(complement(w))


def is_prefix_normal_1(w: FiniteWord) -> bool:
    return find_violation_1(w) is None


def is_prefix_normal_0(w: FiniteWord) -> bool:
    return find_violation_0(w) is None


def check_stream_prefix_normal(source: PrefixSource, length: int) -> PNViolation | None:
    """Verdict for the length-``length`` prefix of a stream.

    Normality of a prefix implies normality of all shorter prefixes, so a
    single check at the target length suffices.
    """
    if length < 1:
        raise RangeError("length must be at least 1")
    return find_violation_1(source.prefix(length))


# -- prefix normal forms and abelian complexity ----------------------------------


def _word_with_prefix_weights(weights: tuple[int, ...]) -> FiniteWord:
    """The word whose length-``i`` prefix has ``weights[i - 1]`` ones."""
    return FiniteWord(np.diff(weights, prepend=0).astype(np.uint8).tobytes())


def pnf1(profile: PrefixProfile) -> FiniteWord:
    """The 1-prefix normal word whose prefix weights equal the max-1s function."""
    return _word_with_prefix_weights(profile.max_ones)


def pnf0(profile: PrefixProfile) -> FiniteWord:
    """The 0-prefix normal word whose prefix weights equal the min-1s function.

    Equivalently: the complemented first differences of the max-0s function.
    """
    return _word_with_prefix_weights(profile.min_ones)


def abelian_complexity(profile: PrefixProfile, n: int) -> int:
    """Number of distinct Parikh vectors among factors of length ``n``."""
    return profile.max_ones_at(n) - profile.min_ones_at(n) + 1


def parikh_set(profile: PrefixProfile, n: int) -> set[ParikhVector]:
    """All Parikh vectors of length-``n`` factors.

    The achievable weights of length-``n`` factors form a full integer
    interval: sliding a window one step changes its weight by at most one, so
    every count between the minimum and the maximum occurs.
    """
    lo, hi = profile.min_ones_at(n), profile.max_ones_at(n)
    return {ParikhVector(n - y, y) for y in range(lo, hi + 1)}


def format_parikh_set(vectors: set[ParikhVector]) -> str:
    """Render a Parikh-vector set as ``(zeros,ones)`` pairs, ascending by ones."""
    ordered = sorted(vectors, key=lambda v: v.ones)
    return " ".join(f"({v.zeros},{v.ones})" for v in ordered)


#: Profile-derived statistics of a finite prefix are trusted up to this
#: fraction of its length, so analysis windows are this many times longer
#: than the printed output.
WINDOW_FACTOR = 4


def reliable_pnf_window(window_length: int) -> int:
    """Heuristic bound up to which profile-derived statistics of a finite
    prefix are trusted to match the underlying infinite word."""
    return window_length // WINDOW_FACTOR


# -- minimum density --------------------------------------------------------------


@dataclass(frozen=True)
class MinDensityReport:
    """Minimum prefix density of a word, with the least index attaining it.

    ``delta`` equals ``Fraction(kappa, iota)``; ``iota`` is the least prefix
    length whose density is minimal and ``kappa`` is that prefix's weight.
    """

    delta: Fraction
    iota: int
    kappa: int


def min_density(w: FiniteWord) -> MinDensityReport:
    """Exact minimum over the prefix densities of ``w``."""
    n = len(w)
    if n == 0:
        raise InvalidInputError("minimum density of the empty word is undefined")
    sums = w.prefix_sums()
    best_num, best_den = int(sums[1]), 1
    for i in range(2, n + 1):
        weight = int(sums[i])
        if weight * best_den < best_num * i:
            best_num, best_den = weight, i
    return MinDensityReport(delta=Fraction(best_num, best_den), iota=best_den, kappa=best_num)


class UltimatelyPeriodicWord:
    """An infinite word ``preperiod + period + period + ...``.

    Construction canonicalizes to the minimal representation: the period is
    reduced to its primitive root and trailing preperiod symbols that merely
    rotate the period are absorbed, so the period is never a suffix of the
    preperiod.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: FiniteWord, period: FiniteWord):
        preperiod, period = FiniteWord(preperiod), FiniteWord(period)
        if len(period) == 0:
            raise InvalidInputError("period must be non-empty")
        period = _primitive_root(period)
        pre, per = bytes(preperiod), bytes(period)
        while pre and pre[-1] == per[-1]:
            per = per[-1:] + per[:-1]
            pre = pre[:-1]
        self.preperiod = FiniteWord(pre)
        self.period = FiniteWord(per)

    def prefix(self, n: int) -> FiniteWord:
        if n < 0:
            raise RangeError("prefix length must be non-negative")
        reps = max(0, -(-(n - len(self.preperiod)) // len(self.period)))
        return (self.preperiod + self.period * reps)[:n]

    def period_density(self) -> Fraction:
        return Fraction(self.period.weight, len(self.period))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UltimatelyPeriodicWord):
            return (self.preperiod, self.period) == (other.preperiod, other.period)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((UltimatelyPeriodicWord, self.preperiod, self.period))

    def __repr__(self) -> str:
        return f"UltimatelyPeriodicWord({str(self.preperiod)!r}, {str(self.period)!r})"


def _primitive_root(x: FiniteWord) -> FiniteWord:
    # the least rotation that reproduces a word is the length of its primitive root
    raw = bytes(x)
    return x[: (raw + raw).find(raw, 1)]


def min_density_up(w: UltimatelyPeriodicWord) -> Fraction:
    """Exact minimum density of an ultimately periodic word.

    Along each residue class modulo the period length the prefix densities
    are monotone toward the period's density, so the infimum is the smaller
    of the period density and the best density within the first
    ``len(preperiod) + len(period)`` prefixes. The result is always rational.
    """
    head = len(w.preperiod) + len(w.period)
    return min(min_density(w.prefix(head)).delta, w.period_density())


# -- balance and prepending ------------------------------------------------------


def is_c_balanced(w: FiniteWord, c: int) -> bool:
    """True when any two equal-length factors differ by at most ``c`` 1s."""
    if c < 1:
        raise RangeError("balance constant must be positive")
    return all(weights.max() - weights.min() <= c for _, weights in _window_weights(w, len(w)))


def prepend_ones_bound(profile: PrefixProfile, c: int) -> int:
    """A certified count of 1s to prepend to make a ``c``-balanced word prefix normal.

    With ``r`` the longest observed run of 1s, the word has no run of length
    ``r + 1`` and prepending ``(r + 1) * c`` ones is sufficient. The bound is
    generally not tight; compare with :func:`empirical_min_prepend`.
    """
    if c < 1:
        raise RangeError("balance constant must be positive")
    if any(hi - lo > c for hi, lo in zip(profile.max_ones, profile.min_ones)):
        raise InvalidInputError(f"profile is not {c}-balanced")
    run = 0
    for i, hi in enumerate(profile.max_ones, start=1):
        if hi == i:
            run = i
    if run == profile.length:
        raise NoBoundError("every observed length is a run of 1s; no run bound certifiable")
    return (run + 1) * c


def empirical_min_prepend(source: PrefixSource, length: int, kmax: int) -> int | None:
    """Least ``k <= kmax`` with ``1^k + prefix`` prefix normal, or None."""
    if kmax < 0:
        raise RangeError("kmax must be non-negative")
    prefix = source.prefix(length)
    for k in range(kmax + 1):
        if find_violation_1(FiniteWord.ones(k) + prefix) is None:
            return k
    return None


# -- lexicographic order ----------------------------------------------------------


def is_prenecklace_prefix(w: FiniteWord) -> bool:
    """True when every suffix of ``w`` is lexicographically at most ``w``
    over their common length (finite view of the shift condition)."""
    text = str(w)
    n = len(text)
    return all(text[i:] <= text[: n - i] for i in range(1, n))


def _greatest_factor(w: FiniteWord, n: int) -> FiniteWord:
    """A window starting inside a run of 1s loses to the window at the run's
    start, and a window with fewer leading 1s loses outright, so only the run
    starts with the most leading 1s, ``min(run length, n)``, are compared. If
    no window starts with a 1, the last window is the greatest. Both public
    extremes call this, so neither one runs inside the other."""
    if not 1 <= n <= len(w):
        raise RangeError(f"factor length {n} out of range 1..{len(w)}")
    raw, last = bytes(w), len(w) - n
    edges = np.diff(np.frombuffer(raw, dtype=np.int8), prepend=0, append=0)  # signed: run ends are -1
    starts = np.flatnonzero(edges == 1)
    keep = starts <= last
    starts, lead = starts[keep], np.minimum(np.flatnonzero(edges == -1) - starts, n)[keep]
    if not starts.size:
        return w[last:]
    j = max(starts[lead == lead.max()].tolist(), key=lambda j: raw[j : j + n])
    return w[j : j + n]


def max_word(w: FiniteWord, n: int) -> FiniteWord:
    """Lexicographically greatest length-``n`` factor of ``w``."""
    return _greatest_factor(w, n)


def min_word(w: FiniteWord, n: int) -> FiniteWord:
    """Lexicographically smallest length-``n`` factor of ``w``, by complement duality."""
    return complement(_greatest_factor(complement(w), n))
