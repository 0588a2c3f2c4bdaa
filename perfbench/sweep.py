"""Scaling sweep: the kernels, every generator and ``max_word`` at several sizes.

Usage: ``python perfbench/sweep.py OUT.json`` with ``src`` on ``PYTHONPATH``.
Each row is timed directly (no tracer) at three sizes; the fitted exponent
is the least-squares slope of log(seconds) against log(n), so a later change
in scaling shows, not only a constant factor. Sizes stop at 16k where the
code is quadratic in time or memory at seed (flipext rebuilds, the suffix
sort's slices); elsewhere they span 4k-64k.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import prefixnormal as pn

WIDE = (4000, 16000, 64000)
NARROW = (4000, 8000, 16000)


def best_time(fn) -> float:
    """Best of three below 0.2 s, else one run."""
    times = []
    while len(times) < 3:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
        if times[0] >= 0.2:
            break
    return min(times)


def exponent(sizes, seconds) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def streams() -> dict:
    third = Fraction(1, 3)
    return {
        "fibonacci": (WIDE, pn.fibonacci_stream),
        "thue-morse": (WIDE, pn.thue_morse_stream),
        "paperfolding": (WIDE, pn.paperfolding_stream),
        "champernowne": (WIDE, pn.champernowne_stream),
        "mechanical-rational": (WIDE, lambda: pn.mechanical_stream(pn.SlopeSpec.rational(37, 101))),
        "mechanical-quadratic": (WIDE, lambda: pn.mechanical_stream(pn.SQRT2_SLOPE, upper=True)),
        "flipext-omega": (NARROW, lambda: pn.flipext_stream(pn.FiniteWord("11010010"))),
        "lazy-flipext-omega": (WIDE, lambda: pn.lazy_alpha_flipext_stream(pn.FiniteWord("1"), pn.SQRT2_SLOPE)),
        "density-staircase": (NARROW, lambda: pn.aperiodic_density_stream(third, pn.geometric_density_sequence(third))),
    }


def sweep() -> dict:
    rows = {}
    fib = str(pn.fibonacci_stream().prefix(max(WIDE)))
    rows["word_core.compute_profile"] = (WIDE, [best_time(lambda: pn.compute_profile(pn.FiniteWord(fib[:n]))) for n in WIDE])
    rows["analysis.find_violation"] = (
        WIDE, [best_time(lambda: pn.find_violation_1(pn.FiniteWord("1" + fib[: n - 1]))) for n in WIDE],
    )
    for tag, (sizes, make) in streams().items():
        rows[f"generators.{tag}"] = (sizes, [best_time(lambda: make().prefix(n)) for n in sizes])
    rng = random.Random(0)
    lex = []
    for n in NARROW:
        # The suffix order is cached per word, so each timing gets a fresh word.
        words = iter([pn.FiniteWord(bytes(rng.getrandbits(1) for _ in range(n))) for _ in range(3)])
        lex.append(best_time(lambda: pn.max_word(next(words), n // 2)))
    rows["analysis.lex"] = (NARROW, lex)
    return {name: {"sizes": list(sizes), "seconds": secs, "exponent": exponent(sizes, secs)} for name, (sizes, secs) in rows.items()}


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(sweep()))
