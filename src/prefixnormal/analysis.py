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
from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence

from .errors import InvalidInputError, NoBoundError, RangeError
from .word_core import (
    FiniteWord,
    ParikhVector,
    PrefixProfile,
    _window_blocks,
    complement,
)

if TYPE_CHECKING:
    import numpy as np


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


# Words with rho 1-runs and rho**2 <= _RUN_PAIR_FACTOR * n take run pairs.
_RUN_PAIR_FACTOR = 16


def find_violation_1(w: FiniteWord) -> PNViolation | None:
    """First factor with more 1s than the same-length prefix, shortest then
    leftmost, or None for a 1-prefix normal ``w``. Words with few 1-runs scan
    only the length their run pairs give; others scan blocks of lengths up to it.

    A core runs from a 1-run start to a 1-run end; it has length ``L``, ``W``
    ones and ``Z = L - W`` zeros. A best window's span from first to last 1,
    stretched to the ends of their runs, is a core, so the max-1s function is
    ``max(max_{L<=i} W, i + max_{L>i} (W - L))`` over cores: a core fits in
    the window, or holds it and all but ``Z`` of its zeros. With ``Z(i)`` the
    0s of the length-``i`` prefix, a core beats it at ``i < L`` iff
    ``Z(i) > Z``, and at ``i >= L`` only if ``W > P(L)``, i.e. ``Z(L) > Z``.
    So the first violation comes from the heavy core (``Z(L) > Z``) with
    fewest zeros, at the shortest prefix holding one zero more.
    """
    starts, ends = _one_runs(w)
    lengths = range(1, len(w) + 1)
    if starts.size**2 <= _RUN_PAIR_FACTOR * len(w):
        lengths = _lengths_from_cores(w, starts, ends)
    for rows, highs, _ in _window_blocks(w, lengths, minima=False):
        over = (highs.max(1) > highs[:, 0]).tolist()  # a list: `in` beats ndarray.any() on a few rows
        if True in over:
            r = over.index(True)
            j = int((highs[r] > highs[r, 0]).argmax())
            return PNViolation(j + 1, rows[r], int(highs[r, j]), int(highs[r, 0]))
    return None


def _one_runs(w: FiniteWord) -> tuple[np.ndarray, np.ndarray]:
    """0-based starts and exclusive ends of the runs of 1s in ``w``."""
    import numpy as np
    edges = np.flatnonzero(np.diff(np.frombuffer(b"\x00" + bytes(w) + b"\x00", dtype=np.int8)))
    return edges[::2], edges[1::2]  # between the 0s put around w, run starts and ends alternate


def _lengths_from_cores(w: FiniteWord, starts: np.ndarray, ends: np.ndarray) -> range:
    """The first violating length from the cores of :func:`find_violation_1`,
    or no length. A core over ``d + 1`` runs holds at least ``d`` zeros, so
    cores are taken by ``d`` until ``d`` reaches the fewest zeros found."""
    zeros = complement(w).prefix_sums()  # zeros[i] = Z(i)
    fewest, rho = len(w), starts.size  # len(w) stands for "no heavy core"
    for d in range(rho):
        if d >= fewest:
            break
        core_zeros = zeros[starts[d:]] - zeros[starts[: rho - d]]  # zeros[end] = zeros[start] in a 1-run
        fewest = int(core_zeros.min(initial=fewest, where=zeros[ends[d:] - starts[: rho - d]] > core_zeros))
    first = int(zeros.searchsorted(fewest + 1))
    return range(first, first + 1) if fewest < len(w) else range(0)


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
        pre, per = bytes(preperiod), bytes(_primitive_root(period))
        # absorb the preperiod's tail that continues the period, rotating once
        cut = len(pre)
        while cut and pre[cut - 1] == per[(cut - len(pre) - 1) % len(per)]:
            cut -= 1
        r = (len(pre) - cut) % len(per)
        self.preperiod = FiniteWord(pre[:cut])
        self.period = FiniteWord(per[len(per) - r :] + per[: len(per) - r])

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
    return all(int((hi.max(1) - lo.min(1)).max()) <= c for _, hi, lo in _window_blocks(w, range(1, len(w) + 1)))


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
    starts with the most leading 1s, ``min(run length, n)``, are compared. If
    no window starts with a 1, the last window is the greatest. Both public
    extremes call this, so neither one runs inside the other."""
    if not 1 <= n <= len(w):
        raise RangeError(f"factor length {n} out of range 1..{len(w)}")
    raw, last = bytes(w), len(w) - n
    starts, ends = _one_runs(w)
    keep = starts <= last
    starts, lead = starts[keep], (ends - starts).clip(max=n)[keep]
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
