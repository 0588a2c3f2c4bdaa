"""Brute-force reference implementations used as independent oracles.

The factor statistics enumerate factors by slicing, or take them from the
library's former window kernel: int64 prefix sums and one new array per factor
length. Nothing shares code with the library's span, lane or closed-form
paths. The word producers are the
library's former one-symbol-at-a-time generators: an exact floor per mechanical
symbol, one slope reciprocal per lazy extension, a flipext step that
rebuilds its prefix sums from scratch, a morphic tape expanded one symbol at a
time, and the paperfolding and Champernowne rules applied per index.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def factor_one_counts(text: str) -> dict[int, set[int]]:
    """For each factor length, the set of 1-counts over all factors."""
    n = len(text)
    counts: dict[int, set[int]] = {}
    for i in range(1, n + 1):
        counts[i] = {text[j : j + i].count("1") for j in range(n - i + 1)}
    return counts


def brute_profile(text: str) -> tuple[list[int], list[int]]:
    """Max and min 1s per factor length via exhaustive enumeration."""
    counts = factor_one_counts(text)
    maxs = [max(counts[i]) for i in range(1, len(text) + 1)]
    mins = [min(counts[i]) for i in range(1, len(text) + 1)]
    return maxs, mins


def brute_is_prefix_normal(text: str) -> bool:
    for i in range(1, len(text) + 1):
        prefix_ones = text[:i].count("1")
        for j in range(len(text) - i + 1):
            if text[j : j + i].count("1") > prefix_ones:
                return False
    return True


def brute_first_violation(text: str) -> tuple[int, int, int, int] | None:
    """First factor with more 1s than the same-length prefix, as
    ``(start, length, factor_ones, prefix_ones)`` with a 1-based start:
    minimal length first, then minimal start; None for prefix normal words."""
    for i in range(1, len(text) + 1):
        prefix_ones = text[:i].count("1")
        for j in range(len(text) - i + 1):
            ones = text[j : j + i].count("1")
            if ones > prefix_ones:
                return j + 1, i, ones, prefix_ones
    return None


def profile_error(max_ones, min_ones) -> str | None:
    """What the per-length check of a prefix profile reports, or None when it
    accepts: at the first length ``i`` where ``0 <= min <= max <= i`` fails,
    or where either count steps by other than 0 or 1, bounds checked first."""
    prev_max, prev_min = 0, 0
    for i, (hi, lo) in enumerate(zip(max_ones, min_ones), start=1):
        if not 0 <= lo <= hi <= i:
            return f"profile values out of bounds at length {i}"
        if hi - prev_max not in (0, 1) or lo - prev_min not in (0, 1):
            return f"profile steps must be 0 or 1 at length {i}"
        prev_max, prev_min = hi, lo
    return None


def int64_window_weights(text: str, longest: int):
    """Yield ``(i, weights)`` for factor lengths ``1..longest``: ``weights[j]``
    is the 1-count of the length-``i`` factor at 0-based ``j``, as the
    difference of int64 prefix sums, in a new array for each length."""
    n = len(text)
    sums = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1"), out=sums[1:])
    for i in range(1, longest + 1):
        yield i, sums[i:] - sums[: n - i + 1]


def int64_profile(text: str, longest: int) -> tuple[list[int], list[int]]:
    """Max and min 1s per factor length ``1..longest`` from the int64 kernel."""
    extremes = [(int(weights.max()), int(weights.min())) for _, weights in int64_window_weights(text, longest)]
    return [hi for hi, _ in extremes], [lo for _, lo in extremes]


def int64_first_violation(text: str) -> tuple[int, int, int, int] | None:
    """:func:`brute_first_violation` from the int64 kernel, length by length."""
    for i, weights in int64_window_weights(text, len(text)):
        limit = int(weights[0])
        if weights.max() > limit:
            j = int(np.argmax(weights > limit))
            return j + 1, i, int(weights[j]), limit
    return None


def brute_extreme_factors(text: str, n: int) -> tuple[str, str]:
    """Lexicographically greatest and least length-``n`` factors, by slicing."""
    windows = [text[j : j + n] for j in range(len(text) - n + 1)]
    return max(windows), min(windows)


def brute_abelian_complexity(text: str, n: int) -> int:
    return len({text[j : j + n].count("1") for j in range(len(text) - n + 1)})


def brute_min_density(text: str) -> tuple[Fraction, int, int]:
    """Minimum prefix density with its least attaining index and weight."""
    best: Fraction | None = None
    iota = kappa = 0
    for i in range(1, len(text) + 1):
        weight = text[:i].count("1")
        density = Fraction(weight, i)
        if best is None or density < best:
            best, iota, kappa = density, i, weight
    assert best is not None
    return best, iota, kappa


def brute_min_density_ultimately_periodic(preperiod: str, period: str) -> Fraction:
    """Exact infimum of prefix densities of ``preperiod + period * inf``.

    Prefix lengths in one residue class modulo ``len(period)`` have densities
    ``(A + k*B) / (C + k*D)`` which are monotone in ``k``; each class is
    therefore settled by comparing its first value with the limit ``B/D``.
    Pre-period prefixes are checked directly.
    """
    per_ones = period.count("1")
    per_len = len(period)
    values = []
    for i in range(1, len(preperiod) + 1):
        values.append(Fraction(preperiod[:i].count("1"), i))
    for offset in range(per_len):
        base = preperiod + period[: offset + 1]
        a, c = base.count("1"), len(base)
        values.append(Fraction(a, c))
        if a * per_len > per_ones * c:
            # strictly decreasing toward the period density (limit not attained)
            values.append(Fraction(per_ones, per_len))
    return min(values)


def mechanical_symbols(slope, intercept: Fraction, n: int, upper: bool) -> bytes:
    """First ``n`` symbols of a mechanical word, one exact floor (or ceiling)
    of ``slope * i + intercept`` per symbol; ``slope`` is a ``SlopeSpec``."""
    rounding = math.ceil if upper else math.floor

    def at(i: int) -> int:
        return rounding(Fraction(intercept) if i == 0 else slope.value * i + intercept)

    return bytes(at(i + 1) - at(i) for i in range(n))


def lazy_flipext_symbols(seed: str, slope, n: int) -> bytes:
    """First ``n`` symbols of the lazy flipext^omega of ``seed``: after a
    weight-``m`` prefix of length ``L`` comes ``0^(floor(m / slope) - L) 1``,
    with ``floor(m / slope)`` taken afresh for every run."""
    value = slope.value
    out = bytearray(int(ch) for ch in seed)
    weight = out.count(1)
    while len(out) < n:
        if slope.is_rational:
            run_end = weight * value.denominator // value.numerator
        else:
            run_end = math.floor(value.reciprocal() * weight)
        out.extend(bytes(run_end - len(out)))
        out.append(1)
        weight += 1
    return bytes(out[:n])


def rebuild_min_zero_run(bits: bytes) -> int:
    """Least ``k`` such that ``bits + 0^k 1`` stays prefix normal, from prefix
    sums and one-positions rebuilt for this call: a length-``l`` suffix of
    weight ``S(l)`` needs ``k >= pos(1 + S(l)) - l - 1`` for every ``l < n``."""
    n = len(bits)
    if n == 1:
        return 0
    symbols = np.frombuffer(bits, dtype=np.uint8)
    sums = np.cumsum(symbols)  # sums[i] = weight of the first i + 1 symbols
    suffix_weight = sums[-1] - sums[n - 2 :: -1]  # index l-1 <-> suffix length l
    zero_based = np.flatnonzero(symbols)  # pos(t + 1) - 1 at index t
    return max(0, int((zero_based[suffix_weight] - np.arange(1, n)).max()))


def flipext_symbols(seed: str, n: int) -> bytes:
    """First ``n`` symbols of flipext^omega of ``seed``, one rebuild per step."""
    out = bytearray(int(ch) for ch in seed)
    while len(out) < n:
        out.extend(bytes(rebuild_min_zero_run(bytes(out))))
        out.append(1)
    return bytes(out[:n])


def morphic_symbols(image0: str, image1: str, seed: int, n: int) -> bytes:
    """First ``n`` symbols of a morphic fixpoint, expanding one tape symbol
    whenever the emitted symbols catch up with the tape."""
    images = (bytes(int(ch) for ch in image0), bytes(int(ch) for ch in image1))
    tape = bytearray(images[seed])
    expand = 1  # tape[0]'s image is the initial tape content
    while len(tape) < n:
        if expand >= len(tape):
            raise ValueError("morphism fixpoint is finite")
        tape.extend(images[tape[expand]])
        expand += 1
    return bytes(tape[:n])


def paperfolding_symbols(n: int) -> bytes:
    """First ``n`` paperfolding symbols: symbol ``i - 1`` is 0 exactly when
    the odd part of ``i``, found by shifting out trailing zero bits, is 1 mod 4."""
    out = bytearray()
    for i in range(1, n + 1):
        odd = i >> ((i & -i).bit_length() - 1)
        out.append(0 if odd % 4 == 1 else 1)
    return bytes(out)


def champernowne_symbols(n: int) -> bytes:
    """First ``n`` symbols of the binary expansions of 0, 1, 2, ... in order,
    one character at a time."""
    out = bytearray()
    k = 0
    while len(out) < n:
        out.extend(1 if ch == "1" else 0 for ch in format(k, "b"))
        k += 1
    return bytes(out[:n])


def slicing_is_prenecklace_prefix(text: str) -> bool:
    """Every suffix of ``text`` is at most the prefix of the same length,
    one slice comparison per suffix."""
    n = len(text)
    return all(text[i:] <= text[: n - i] for i in range(1, n))


def rotate_preperiod_into_period(pre: str, per: str) -> tuple[str, str]:
    """Canonical preperiod and period of ``pre + per * inf`` for a primitive
    ``per``: while the preperiod ends with the period's last symbol, move that
    symbol to the front of the period, one rotation per symbol."""
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return pre, per


def least_eventual_period_form(pre: str, per: str) -> tuple[str, str]:
    """Canonical preperiod and period of ``x = pre + per * inf`` read off the
    word itself: the least ``p`` with ``x[i] == x[i + p]`` on a whole period of
    the tail, and the least ``c`` from which that holds for every ``i``. Then
    ``x = x[:c] + x[c : c + p] * inf``."""
    x, tail = pre + per * 3, range(len(pre), len(pre) + len(per))
    p = next(p for p in range(1, len(per) + 1) if all(x[i] == x[i + p] for i in tail))
    c = max((i + 1 for i in range(len(pre)) if x[i] != x[i + p]), default=0)
    return x[:c], x[c : c + p]


def divisor_primitive_root(text: str) -> str:
    """Primitive root of a non-empty word: the shortest prefix whose
    repetitions spell the word, found by scanning the divisors of its length."""
    n = len(text)
    for d in range(1, n + 1):
        if n % d == 0 and text[:d] * (n // d) == text:
            return text[:d]
    raise ValueError("the empty word has no primitive root")


def longer_zero_run(length: int, weight: int, density: Fraction, run: int) -> tuple[int, int]:
    """Stage step of the staircase construction by linear search: the least
    ``k >= 2`` for which ``k`` copies of a ``length``-symbol, ``weight``-one
    word take a zero run ``floor(k * (weight - density * length) / density)``
    longer than ``run``, with that zero run."""
    k = 2
    while math.floor(k * (weight - density * length) / density) <= run:
        k += 1
    return k, math.floor(k * (weight - density * length) / density)
