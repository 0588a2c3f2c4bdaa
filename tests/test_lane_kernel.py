"""The lane backend of the window scan against the oracles and against numpy's
blocks, and the rule that picks among the backends.

A scan runs in lanes only while numpy is not loaded. Here numpy is blocked
with ``sys.modules["numpy"] = None``, which counts as not loaded, so a scan
that still returns proves that it ran in lanes; ``_LANE_CELLS`` of -1 sends
every scan to numpy's blocks, or to the cores for a word with few runs. The
oracles bind numpy at import, so they keep working while it is blocked, but
their array methods may import numpy submodules, so the expected values are
computed first.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import FiniteWord, build_index, compute_profile, word_core
from prefixnormal.analysis import find_violation_1, is_c_balanced

from oracles import brute_first_violation, brute_profile, int64_first_violation, int64_profile


def lanes_only(patch, cells=word_core._LANE_CELLS):
    """Block numpy, so that a scan within ``cells`` runs in lanes or fails."""
    patch.setitem(sys.modules, "numpy", None)
    patch.setattr(word_core, "_LANE_CELLS", cells)


def statistics(w: FiniteWord):
    """Everything the scan decides: the profile, the first violation, and
    the balance verdicts on both sides of the widest spread."""
    profile = compute_profile(w)
    spread = max(hi - lo for hi, lo in zip(profile.max_ones, profile.min_ones))
    violation = find_violation_1(w)
    balanced = [is_c_balanced(w, c) for c in range(max(spread - 1, 1), spread + 2)]
    return list(profile.max_ones), list(profile.min_ones), None if violation is None else tuple(violation), balanced


def expected_statistics(text: str, maxs, mins, violation):
    spread = max(hi - lo for hi, lo in zip(maxs, mins))
    return maxs, mins, violation, [c >= spread for c in range(max(spread - 1, 1), spread + 2)]


class TestLanesAgainstOracles:
    def test_every_word_up_to_14_symbols(self, monkeypatch):
        lanes_only(monkeypatch)
        for n in range(1, 15):
            for text in map("".join, itertools.product("01", repeat=n)):
                expected = expected_statistics(text, *brute_profile(text), brute_first_violation(text))
                assert statistics(FiniteWord(text)) == expected, text

    @pytest.mark.parametrize("k", range(1, 12))
    @pytest.mark.parametrize("kind", ["ones", "zeros", "zero-ones", "ones-zero-ones"])
    def test_lane_width_boundaries(self, k, kind, monkeypatch):
        # lanes are k + 1 bits wide up to n = 2^k - 1 and k + 2 bits from 2^k on;
        # a word of 1s fills a lane up to n, the most that its width admits, and
        # 1^h 0 1^(n - 1 - h) is prefix normal, so its check scans up to n - 1 ones
        texts = [{"ones": "1" * n, "zeros": "0" * n, "zero-ones": "0" + "1" * (n - 1),
                  "ones-zero-ones": "1" * (n // 2) + "0" + "1" * (n - 1 - n // 2)}[kind][:n]
                 for n in (2**k - 1, 2**k, 2**k + 1)]
        expected = [expected_statistics(text, *int64_profile(text, len(text)), int64_first_violation(text))
                    for text in texts]
        lanes_only(monkeypatch, cells=1 << 30)
        assert [statistics(FiniteWord(text)) for text in texts] == expected


@st.composite
def scan_words(draw) -> str:
    """Words of 1 to 300 symbols, from nearly all 0s to nearly all 1s, half
    of them after a prefix of 1s so that the scan starts past it."""
    n = draw(st.integers(1, 300))
    density = draw(st.sampled_from([0.02, 0.3, 0.5, 0.7, 0.98]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    head = "1" * draw(st.integers(0, 6))
    return (head + "".join("1" if rng.random() < density else "0" for _ in range(n)))[:n]


class TestBothBackends:
    @given(text=scan_words())
    @settings(max_examples=150, deadline=None)
    def test_lanes_and_blocks_match_the_int64_kernel(self, text):
        maxs, mins = int64_profile(text, len(text))
        expected = expected_statistics(text, maxs, mins, int64_first_violation(text))
        with pytest.MonkeyPatch.context() as patch:
            lanes_only(patch)
            assert statistics(FiniteWord(text)) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(word_core, "_LANE_CELLS", -1)
            assert statistics(FiniteWord(text)) == expected

    @given(text=scan_words(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_shorter_profile_reads_the_same_lengths(self, text, data):
        longest = data.draw(st.integers(1, len(text)), label="longest")
        maxs, mins = int64_profile(text, longest)
        with pytest.MonkeyPatch.context() as patch:
            lanes_only(patch)
            profile = compute_profile(FiniteWord(text), longest)
        assert (list(profile.max_ones), list(profile.min_ones)) == (maxs, mins)


class TestBackendRule:
    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    def test_lanes_take_every_length_up_to_the_last_times_n(self, n, monkeypatch):
        w = FiniteWord(("110" * n)[:n])
        profile = compute_profile(w)
        lanes_only(monkeypatch, cells=n * n)
        assert compute_profile(w) == profile and build_index(w).profile == profile
        monkeypatch.setattr(word_core, "_LANE_CELLS", n * n - 1)
        with pytest.raises(ImportError):
            compute_profile(w)

    def test_a_loaded_numpy_takes_every_scan(self, monkeypatch):
        # off the lanes: a word with few runs takes the cores, others the blocks
        taken = []
        for name in ("_core_extremes", "_window_blocks"):
            kernel = getattr(word_core, name)

            def counting(*args, name=name, kernel=kernel):
                taken.append((name, args[1]))
                return kernel(*args)

            monkeypatch.setattr(word_core, name, counting)
        assert "numpy" in sys.modules and sys.modules["numpy"] is not None
        compute_profile(FiniteWord("0110"))
        compute_profile(FiniteWord("10" * 50))
        assert taken == [("_core_extremes", range(1, 5)), ("_window_blocks", range(1, 101))]
