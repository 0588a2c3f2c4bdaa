"""The lexicographic extremes, the index read path, the normality checks
that a word's first run settles, and scans short enough for lanes need no
numpy.

With ``sys.modules["numpy"]`` set to None any ``import numpy`` raises
ImportError, so a call that returns the same value as with numpy never
imported it. The expected values come from each backend of the window scan
in turn, and agree.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prefixnormal
from prefixnormal import (
    SQRT2_SLOPE,
    FiniteWord,
    SlopeSpec,
    build_index,
    champernowne,
    complement,
    compute_profile,
    deserialize,
    find_violation_0,
    find_violation_1,
    flipext_stream,
    is_c_balanced,
    is_prenecklace_prefix,
    lazy_alpha_flipext_stream,
    max_word,
    min_word,
    paperfolding,
    pnf0,
    pnf1,
    serialize,
    word_core,
)

from conftest import BACKENDS, use_backend

rng = random.Random(1719)
WORDS = {
    "random": FiniteWord(rng.getrandbits(1) for _ in range(600)),
    "sparse": FiniteWord(rng.randrange(16) == 0 for _ in range(600)),
    "alternating": FiniteWord("01" * 300),
    "ones": FiniteWord.ones(50),
    "prenecklace": FiniteWord("11100") + FiniteWord("110") * 15,
}
LENGTHS = (1, 2, 7, 40, 49, 50)
INDEX = build_index(WORDS["random"])
BLOB = serialize(INDEX)
PAIRS = [(zeros, ones) for zeros in range(-1, 40, 3) for ones in range(-1, 40, 2)] + [(300, 301), (0, 0)]
#: Words that a search for 1^(m + 1) after their first run 1^m settles: a 0
#: first, one letter only, a violation at length m + 1 (also at the very end),
#: or no 1 after the first run.
FIRST_RUN_WORDS = [FiniteWord(text) for text in (
    "", "0110", "0" * 40, "1" * 40, "10" + "0110" * 100, "1110100" + "1111" + "0" * 80, "1101" * 30 + "111",
    "11110", "111" + "0" * 60,
)]
#: flipext and lazy flipext seeds of one run.
ONE_RUN_SEEDS = [FiniteWord("1"), FiniteWord("11"), FiniteWord("1110"), FiniteWord("1100")]

#: A prefix normal word of 2,000 symbols, and the words that the abelian and
#: plotdata commands profile.
NORMAL = pnf1(compute_profile(paperfolding(2000)))
PAPERFOLDING, CHAMPERNOWNE = paperfolding(1900), champernowne(1600)

CALLS = {
    "max_word": lambda: [max_word(w, n) for w in WORDS.values() for n in LENGTHS],
    "min_word": lambda: [min_word(w, n) for w in WORDS.values() for n in LENGTHS],
    "is_prenecklace_prefix": lambda: [is_prenecklace_prefix(w) for w in WORDS.values()],
    "serialize": lambda: serialize(INDEX),
    "deserialize": lambda: deserialize(BLOB),
    "JumbledIndex.query": lambda: [INDEX.query(zeros, ones) for zeros, ones in PAIRS],
    "find_violation_1": lambda: [find_violation_1(w) for w in FIRST_RUN_WORDS],
    "find_violation_0": lambda: [find_violation_0(complement(w)) for w in FIRST_RUN_WORDS],
    "flipext_stream": lambda: [flipext_stream(seed).prefix(300) for seed in ONE_RUN_SEEDS],
    "lazy_alpha_flipext_stream": lambda: [
        lazy_alpha_flipext_stream(seed, slope).prefix(300)
        for seed in ONE_RUN_SEEDS for slope in (SlopeSpec.rational(1, 3), SQRT2_SLOPE)
    ],
    # scans within the lane budget, as the short commands `check --file`,
    # `check --zero`, `abelian --range`, `plotdata --pnf`, `index build --word`
    # and `generate flipext-omega --seed 11010011` run them
    "check --file": lambda: [find_violation_1(NORMAL), find_violation_1(WORDS["random"])],
    "check --zero": lambda: find_violation_0(complement(NORMAL[:1500])),
    "abelian --range": lambda: compute_profile(PAPERFOLDING, 100),
    "plotdata --pnf": lambda: [pnf1(compute_profile(CHAMPERNOWNE, 400)), pnf0(compute_profile(CHAMPERNOWNE, 400))],
    "index build --word": lambda: serialize(build_index(WORDS["random"] * 3)),
    "flipext seed check": lambda: flipext_stream(FiniteWord("11010011")).prefix(1000),
    "is_c_balanced": lambda: [is_c_balanced(w, c) for w in WORDS.values() for c in (1, 2, 30)],
}


class TestNumpyFreeLibrary:
    @pytest.mark.parametrize("name", CALLS)
    def test_same_result_without_numpy(self, name, monkeypatch):
        expected = []
        for backend in BACKENDS:
            with monkeypatch.context() as patch:
                use_backend(patch, backend)
                expected.append(CALLS[name]())
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert [CALLS[name]()] * len(BACKENDS) == expected

    def test_a_scan_cannot_run_without_numpy(self, monkeypatch):
        # a None in sys.modules counts as numpy not loaded: a scan within the
        # lane budget runs in lanes, and one past it needs numpy. The profile of
        # (0110)^(k/2) reads k rows of k lanes, 3 probes each: one more 0 and 1 than fit
        monkeypatch.setitem(sys.modules, "numpy", None)
        k = math.isqrt(word_core._LANE_READS // 3)
        assert build_index(FiniteWord("0110")).query(1, 1)
        assert build_index(FiniteWord("0110" * k)[: 2 * k]).query(k, k)
        with pytest.raises(ImportError):
            build_index(FiniteWord("0110" * k)[: 2 * k + 2])

    def test_fresh_process_loads_no_numpy(self, tmp_path):
        index = tmp_path / "w.pnji"
        index.write_bytes(BLOB)
        w = FiniteWord("0110" * 40 + "1110")
        script = (
            "import pathlib, sys\n"
            "import prefixnormal as pn\n"
            f"w = pn.FiniteWord({str(w)!r})\n"
            "print(pn.max_word(w, 9), pn.min_word(w, 9), pn.is_prenecklace_prefix(w))\n"
            f"blob = pathlib.Path({str(index)!r}).read_bytes()\n"
            "ix = pn.deserialize(blob)\n"
            "print(pn.serialize(ix) == blob, ix.query(3, 4), ix.query(601, 0))\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(prefixnormal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            f"{max_word(w, 9)} {min_word(w, 9)} {is_prenecklace_prefix(w)}",
            f"True {INDEX.query(3, 4)} False",
            "False",
        ]
