"""Reference implementations behind the benchmark's correctness gate.

Nothing here imports ``prefixnormal``. Every expected output of a benchmark
invocation is derived from these functions, which are written apart from the
library, so a change to the library cannot also change what it is checked
against. Words are plain ``str`` bitstrings.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache

import numpy as np


def prefix_sums(text: str) -> np.ndarray:
    sums = np.zeros(len(text) + 1, dtype=np.int32)
    if text:
        np.cumsum(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - 48, out=sums[1:])
    return sums


@lru_cache(maxsize=16)
def profile(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Maximum and minimum number of 1s over the factors of each length 1..n."""
    n = len(text)
    sums = prefix_sums(text)
    hi = np.empty(n, dtype=np.int32)
    lo = np.empty(n, dtype=np.int32)
    buf = np.empty(n, dtype=np.int32)
    for i in range(1, n + 1):
        window = np.subtract(sums[i:], sums[: n - i + 1], out=buf[: n - i + 1])
        hi[i - 1] = window.max()
        lo[i - 1] = window.min()
    hi.setflags(write=False)
    lo.setflags(write=False)
    return hi, lo


def complement(text: str) -> str:
    return text.translate(str.maketrans("01", "10"))


def violation(text: str) -> str | None:
    """The shortest, then leftmost, factor with more 1s than the same-length
    prefix, rendered as ``pnw check`` prints it; None for a prefix normal word."""
    if not text:
        return None
    sums = prefix_sums(text)
    hi, _ = profile(text)
    over = np.flatnonzero(hi > sums[1:])
    if len(over) == 0:
        return None
    length = int(over[0]) + 1
    window = sums[length:] - sums[: len(text) - length + 1]
    start = int(np.argmax(window > sums[length]))
    return (
        f"len={length} start={start + 1} ones={int(window[start])} "
        f"prefix_ones={int(sums[length])}"
    )


def check_output(text: str) -> tuple[int, str]:
    """Exit code and stdout of ``pnw check`` on ``text``."""
    found = violation(text)
    return (0, "NORMAL\n") if found is None else (1, found + "\n")


def diff_word(weights: np.ndarray) -> str:
    steps = np.diff(np.concatenate(([0], weights)))
    return (steps.astype(np.uint8) + 48).tobytes().decode("ascii")


def normal_forms(window_text: str, length: int) -> tuple[str, str]:
    """Both prefix normal forms of the first ``length`` positions, profiled
    over ``window_text``."""
    hi, lo = profile(window_text)
    return diff_word(hi[:length]), diff_word(lo[:length])


def abelian_lines(text: str) -> str:
    hi, lo = profile(text)
    counts = (hi - lo + 1).tolist()
    return "".join(f"{n}\t{c}\n" for n, c in enumerate(counts, start=1))


def plot_rows(text: str, pnf1: str, pnf0: str) -> str:
    def heights(word: str) -> list[int]:
        return (2 * prefix_sums(word) - np.arange(len(word) + 1)).tolist()

    rows = zip(heights(text), heights(pnf1), heights(pnf0))
    return "".join(f"{n}\t{a}\t{b}\t{c}\n" for n, (a, b, c) in enumerate(rows))


def min_density(text: str) -> tuple[Fraction, int, int]:
    """Least prefix density, the least prefix length attaining it, and its weight."""
    sums = prefix_sums(text).tolist()
    best = (Fraction(sums[1], 1), 1)
    for i in range(2, len(text) + 1):
        density = Fraction(sums[i], i)
        if density < best[0]:
            best = (density, i)
    return best[0], best[1], sums[best[1]]


def min_density_periodic(preperiod: str, period: str) -> Fraction:
    """Infimum of the prefix densities of ``preperiod + period + period + ...``.

    In every residue class modulo the period the densities move monotonically
    toward the period density, so the first prefix of each class and the limit
    decide the infimum.
    """
    head = preperiod + period
    sums = prefix_sums(head).tolist()
    firsts = min(Fraction(sums[i], i) for i in range(1, len(head) + 1))
    return min(firsts, Fraction(period.count("1"), len(period)))


def index_bytes(text: str) -> bytes:
    """The PNJI layout: magic, version u32, length u64, then min-1s and max-1s as u64."""
    hi, lo = profile(text)
    header = struct.pack("<4sIQ", b"PNJI", 1, len(text))
    return header + lo.astype("<u8").tobytes() + hi.astype("<u8").tobytes()


def query_answers(text: str, zeros: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Boolean answer per (zeros, ones) pair: does some factor have that Parikh vector?"""
    hi, lo = profile(text)
    length = zeros + ones
    valid = (zeros >= 0) & (ones >= 0) & (length >= 1) & (length <= len(text))
    at = np.where(valid, length - 1, 0)
    return valid & (lo[at] <= ones) & (ones <= hi[at])


# -- generators -------------------------------------------------------------------


def fibonacci(n: int) -> str:
    """Fibonacci word, as the limit of the standard words s_{k+1} = s_k s_{k-1}."""
    prev, cur = "0", "01"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def thue_morse(n: int) -> str:
    return "".join("01"[bin(i).count("1") & 1] for i in range(n))


def paperfolding(n: int) -> str:
    """Regular paperfolding word by folding: P' = P 0 reverse(complement(P))."""
    word = ""
    while len(word) < n:
        word = word + "0" + complement(word)[::-1]
    return word[:n]


def champernowne(n: int) -> str:
    parts, size, k = [], 0, 0
    while size < n:
        parts.append(format(k, "b"))
        size += len(parts[-1])
        k += 1
    return "".join(parts)[:n]


def mechanical_rational(p: int, q: int, u: int, v: int, n: int, upper: bool) -> str:
    """Mechanical word of slope p/q and intercept u/v: differences of
    floor (lower) or ceil (upper) of (p*k/q + u/v) for k = 0..n."""
    k = np.arange(n + 1, dtype=np.int64)
    num, den = p * v * k + u * q, q * v
    edge = -((-num) // den) if upper else num // den
    return (np.diff(edge).astype(np.uint8) + 48).tobytes().decode("ascii")


def mechanical_quadratic(a: int, b: int, c: int, d: int, n: int, upper: bool) -> str:
    """Mechanical word of slope (a + b*sqrt(d))/c with c > 0, b > 0, d not a
    square, intercept 0. For k >= 1, k*slope is irrational, so
    floor(k*slope) = floor((a*k + isqrt(b^2 k^2 d)) / c) and the ceiling is
    one more."""
    edges = [0]
    for k in range(1, n + 1):
        low = (a * k + math.isqrt(b * b * k * k * d)) // c
        edges.append(low + 1 if upper else low)
    return "".join("01"[edges[k + 1] - edges[k]] for k in range(n))


def flipext(seed: str, n: int) -> str:
    """Iterate w -> w 0^k 1 with the least k keeping w prefix normal.

    A new factor ends at the appended 1; one whose other end lies l symbols
    back carries S(l) + 1 ones, where S(l) is the weight of the length-l
    suffix of w. It fits exactly when its length l + k + 1 reaches the
    position of the (S(l) + 1)-th 1 of the word.
    """
    bits = bytearray(seed.encode("ascii"))
    m = len(bits)
    sums = prefix_sums(seed).astype(np.int64)
    positions = np.flatnonzero(np.frombuffer(bytes(bits), dtype=np.uint8) == 49) + 1
    ones = len(positions)
    while m < n:
        if m == 1:
            k = 0
        else:
            suffix = sums[m] - sums[m - 1 : 0 : -1]  # suffix weights for l = 1..m-1
            k = max(0, int((positions[suffix] - np.arange(2, m + 1)).max()))
        grown = m + k + 1
        if grown + 1 > len(sums):
            sums = np.concatenate((sums, np.zeros(grown + len(sums), dtype=np.int64)))
        if ones + 1 > len(positions):
            positions = np.concatenate((positions, np.zeros(ones + 1, dtype=np.int64)))
        sums[m + 1 : grown] = sums[m]
        sums[grown] = sums[m] + 1
        positions[ones] = grown
        ones += 1
        bits.extend(b"0" * k + b"1")
        m = grown
    return bits[:n].decode("ascii")


def density_staircase(alpha: Fraction, n: int) -> str:
    """Staged aperiodic prefix normal word with minimum density tending to alpha.

    Densities a_i = alpha + (a_1 - alpha) / 2^(i-1) with a_1 = (alpha + 1)/2.
    Stage 1 is 1^h 0^(10-h) with h = ceil(10 a_1). Stage i takes the least
    k >= 2 whose zero run floor(k (weight - a_i length) / a_i) exceeds the
    previous run, grows the word by flipext to k times its length, and
    appends that many 0s.
    """
    a1 = (alpha + 1) / 2
    gap = a1 - alpha
    head = math.ceil(10 * a1)
    run = 10 - head
    word = "1" * head + "0" * run
    while len(word) < n:
        gap /= 2
        a = alpha + gap
        length, weight = len(word), word.count("1")
        scaled = weight * a.denominator - length * a.numerator
        k = 2
        while scaled * k // a.numerator <= run:
            k += 1
        run = scaled * k // a.numerator
        word = flipext(word, k * length)[: k * length] + "0" * run
    return word[:n]


# -- lexicographic order ----------------------------------------------------------


def suffix_order(text: str) -> np.ndarray:
    """Start positions sorted by ascending suffix, by prefix doubling.

    A suffix that runs out compares below any continuation, as Python string
    comparison has it.
    """
    n = len(text)
    rank = np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - 47
    step = 1
    while True:
        after = np.zeros(n, dtype=np.int64)
        if step < n:
            after[: n - step] = rank[step:]
        order = np.lexsort((after, rank))
        fresh = np.ones(n, dtype=np.int64)
        fresh[1:] = (rank[order][1:] != rank[order][:-1]) | (after[order][1:] != after[order][:-1])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(fresh)
        if rank.max() == n:
            return order
        step *= 2


def extreme_factors(text: str, lengths: list[int]) -> list[tuple[str, str]]:
    """(greatest, least) factor of each length: the length-n prefix of the
    greatest (least) suffix that still has n symbols."""
    order = suffix_order(text)
    out = []
    for n in lengths:
        fits = order[order <= len(text) - n]
        hi, lo = int(fits[-1]), int(fits[0])
        out.append((text[hi : hi + n], text[lo : lo + n]))
    return out


def is_prenecklace(text: str) -> bool:
    """Every suffix is at most the prefix of its length, which holds exactly
    when the whole word is its own greatest suffix."""
    return len(text) < 2 or int(suffix_order(text)[-1]) == 0
