"""Prefix-normality checks, prefix normal forms, abelian complexity, and
minimum-density machinery for finite words and stream prefixes.

A word is 1-prefix normal when no factor has more 1s than the prefix of the
same length; the 0-flavour is the complemented dual. The prefix normal forms
of a word are the unique prefix normal words sharing its max-1s (resp.
max-0s) function, and their prefix weights bound the weight of every factor,
which makes abelian complexity a simple width computation.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple, Protocol, Sequence

from .errors import InvalidInputError, NoBoundError, RangeError, ResourceLimitError
from .word_core import (
    MATERIALIZE_CAP,
    FiniteWord,
    ParikhVector,
    PrefixProfile,
    _FrozenSlots,
    _extremes,
    complement,
)


class PrefixSource(Protocol):
    """Anything that can materialize its first ``n`` symbols."""

    def prefix(self, n: int) -> FiniteWord: ...


class PNViolation(NamedTuple):
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
    """First factor with more 1s than the same-length prefix, shortest then
    leftmost, or None for a 1-prefix normal ``w``.

    If ``w`` starts with ``1^m 0``, the prefix of each length up to ``m`` is
    all 1s, and the one of length ``m + 1`` is beaten only by ``1^(m + 1)``,
    so one bytes search settles every length up to ``m + 1`` without a scan,
    and ``1^m 0^k`` is prefix normal. The lengths left are read from
    :func:`_extremes` up to the first whose max-1s exceeds the prefix weight
    ``P(i)``, which is carried from block to block. Window weights step by
    0 or 1 from ``P(i)`` at the prefix, so the witness is the first window of
    ``P(i) + 1`` 1s, found by one running count over the bytes.
    """
    raw, n = bytes(w), len(w)
    m = n - len(raw.lstrip(b"\1"))
    at = raw.find(b"\1" * (m + 1))
    if at >= 0:
        return PNViolation(at + 1, m + 1, m + 1, m)
    if b"\0\1" not in raw:  # 1^m 0^k, and 0^k for m = 0 since 1 was not found
        return None
    weight = m  # P(i - 1) for the first length i of the next block: the prefix 1^m 0
    for rows, most, _ in _extremes(w, range(m + 2, n + 1), minima=False):
        prefix = list(itertools.accumulate(raw[rows.start - 1 : rows.stop - 1], initial=weight))  # P(i - 1), i in rows
        if sum(most) > sum(prefix) - weight:  # each max-1s is at least its P(i), so one of them exceeds it
            r = list(map(operator.gt, most, prefix[1:])).index(True)
            i, weight = rows[r], prefix[r + 1]
            windows = itertools.accumulate(map(operator.sub, raw[i:], raw), initial=weight)
            j = operator.indexOf(map(weight.__lt__, windows), True)  # the first window over P(i)
            return PNViolation(j + 1, i, weight + 1, weight)
        weight = prefix[-1]
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


def _word_with_prefix_weights(weights: Sequence[int]) -> FiniteWord:
    """The word whose length-``i`` prefix has ``weights[i - 1]`` ones."""
    return FiniteWord(bytes(map(operator.sub, weights, itertools.chain((0,), weights))))


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


class MinDensityReport(NamedTuple):
    """Minimum prefix density of a word, with the least index attaining it.

    ``delta`` equals ``Fraction(kappa, iota)``; ``iota`` is the least prefix
    length whose density is minimal and ``kappa`` is that prefix's weight.
    """

    delta: Fraction
    iota: int
    kappa: int


def min_density(w: FiniteWord) -> MinDensityReport:
    """Exact minimum over the prefix densities of ``w``."""
    if not w:
        raise InvalidInputError("minimum density of the empty word is undefined")
    best_num, best_den = 1, 1  # the prefix 1 of a word that starts with 1; a first 0 replaces it
    for i, weight in enumerate(itertools.accumulate(bytes(w)), 1):
        if weight * best_den < best_num * i:
            best_num, best_den = weight, i
    return MinDensityReport(delta=Fraction(best_num, best_den), iota=best_den, kappa=best_num)


class UltimatelyPeriodicWord(_FrozenSlots):
    """An infinite word ``preperiod + period + period + ...``, an immutable value.

    Construction canonicalizes to the minimal representation: the period is
    reduced to its primitive root and trailing preperiod symbols that merely
    rotate the period are absorbed, so the period is never a suffix of the
    preperiod.
    """

    __slots__ = _fields = ("preperiod", "period")

    def __init__(self, preperiod: FiniteWord, period: FiniteWord):
        preperiod, period = FiniteWord(preperiod), FiniteWord(period)
        if len(period) == 0:
            raise InvalidInputError("period must be non-empty")
        pre, per = bytes(preperiod), bytes(_primitive_root(period))
        # absorb the preperiod's tail that continues the period, rotating once
        cut = len(pre)
        while cut and pre[cut - 1] == per[(cut - len(pre) - 1) % len(per)]:
            cut -= 1
        r = (len(pre) - cut) % len(per)
        super().__init__(FiniteWord(pre[:cut]), FiniteWord(per[len(per) - r :] + per[: len(per) - r]))

    def prefix(self, n: int) -> FiniteWord:
        if n < 0:
            raise RangeError("prefix length must be non-negative")
        if n > MATERIALIZE_CAP:
            raise ResourceLimitError(f"refusing to materialize more than {MATERIALIZE_CAP} symbols")
        reps = max(0, -(-(n - len(self.preperiod)) // len(self.period)))
        return (self.preperiod + self.period * reps)[:n]

    def period_density(self) -> Fraction:
        return Fraction(self.period.weight, len(self.period))

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
    return all(max(map(operator.sub, most, least)) <= c for _, most, least in _extremes(w, range(1, len(w) + 1)))


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
    over their common length. One pass keeps the period ``p`` of the prefix
    read so far (Cattell et al., J. Algorithms 2000, order reversed)."""
    raw, p = bytes(w), 1
    for i in range(1, len(raw)):
        if raw[i] > raw[i - p]:
            return False
        if raw[i] < raw[i - p]:
            p = i + 1
    return True


def _greatest_factor(w: FiniteWord, n: int) -> FiniteWord:
    """A window starting inside a run of 1s loses to the window at the run's
    start, and a window with fewer leading 1s loses outright, so only the run
    starts with the most leading 1s, ``m = min(run length, n)``, are compared.
    ``m`` grows run by run: each search for ``1^(m + 1)`` resumes after the
    last run found, so the word is read about once and no needle is longer
    than ``m + 1``. If no window starts with a 1, the last window is the
    greatest. Both public extremes call this, so neither one runs inside the
    other."""
    if not 1 <= n <= len(w):
        raise RangeError(f"factor length {n} out of range 1..{len(w)}")
    raw, last = bytes(w), len(w) - n
    m = at = 0  # runs that start before `at`, and at or before last, have at most m 1s
    while m < n and (at := raw.find(b"\1" * (m + 1), at, last + m + 1)) >= 0:  # the next run with more
        end = raw.find(b"\0", at)
        m, at = min(n, (end if end >= 0 else len(raw)) - at), end
    if m == 0:
        return w[last:]
    if m == n:
        return FiniteWord.ones(n)
    # no run starting at or before last has more than m 1s, so each 1^m up to last + m is such a run
    pieces = raw[: last + m].split(b"\1" * m)
    starts = itertools.accumulate(map(m.__add__, map(len, pieces[1:-1])), initial=len(pieces[0]))
    return FiniteWord(max(raw[j : j + n] for j in starts))


def max_word(w: FiniteWord, n: int) -> FiniteWord:
    """Lexicographically greatest length-``n`` factor of ``w``."""
    return _greatest_factor(w, n)


def min_word(w: FiniteWord, n: int) -> FiniteWord:
    """Lexicographically smallest length-``n`` factor of ``w``, by complement duality."""
    return complement(_greatest_factor(complement(w), n))
