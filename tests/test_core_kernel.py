"""The cores backend of the window scan against the oracles, and the rule
that sends a word to it.

``_CORE_FACTOR`` of 10**12 sends every word that numpy's blocks would scan to
the cores, and ``_LANE_CELLS`` of -1 keeps every scan off the lanes. With
``_window_blocks`` made to raise, a scan that returns ran on the cores. The
cores compute in the narrowest signed type that holds the word's length, so
these tests also run with numpy's overflow warnings as errors.
"""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import FiniteWord, compute_profile, word_core
from prefixnormal.analysis import find_violation_1, is_c_balanced

from oracles import brute_first_violation, brute_profile, int64_first_violation, int64_profile
from test_analysis import planted_sparse_words
from test_lane_kernel import expected_statistics, statistics
from test_word_core import block_edge_words


def cores_only(patch):
    def unreachable(*args):
        raise AssertionError("numpy's blocks scanned a word sent to the cores")

    patch.setattr(word_core, "_LANE_CELLS", -1)
    patch.setattr(word_core, "_CORE_FACTOR", 10**12)
    patch.setattr(word_core, "_window_blocks", unreachable)


class TestCoresAgainstOracles:
    def test_every_word_up_to_14_symbols(self, monkeypatch):
        cores_only(monkeypatch)
        for n in range(1, 15):
            for text in map("".join, itertools.product("01", repeat=n)):
                expected = expected_statistics(text, *brute_profile(text), brute_first_violation(text))
                assert statistics(FiniteWord(text)) == expected, text

    @given(text=st.one_of(planted_sparse_words(), block_edge_words()), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_run_sparse_words_match_the_int64_kernel(self, text, data):
        longest = data.draw(st.integers(1, len(text)), label="longest")
        maxs, mins = int64_profile(text, len(text))
        spread = max(hi - lo for hi, lo in zip(maxs, mins))
        expected = int64_first_violation(text)
        w = FiniteWord(text)
        with pytest.MonkeyPatch.context() as patch:
            cores_only(patch)
            profile = compute_profile(w, longest)
            assert (list(profile.max_ones), list(profile.min_ones)) == (maxs[:longest], mins[:longest])
            violation = find_violation_1(w)
            assert (None if violation is None else tuple(violation)) == expected
            assert is_c_balanced(w, max(spread, 1))
            assert spread <= 1 or not is_c_balanced(w, spread - 1)


class TestCoreRule:
    @pytest.mark.parametrize("head", ["", "1"])
    @pytest.mark.parametrize("runs, backend", [(79, "cores"), (80, "blocks")])
    def test_cores_take_words_up_to_the_factor(self, head, runs, backend, monkeypatch):
        # n = 400 and 16 n = 6,400 = (79 + 1)^2: 79 1s after a 0 take the cores,
        # 80 take the blocks; a first run of 1s follows no 0 and does not count
        n = 400
        text = (head + "01" * runs).ljust(n, "0")
        taken = []
        for name in ("_core_extremes", "_window_blocks"):
            kernel = getattr(word_core, name)

            def counting(*args, name=name, kernel=kernel):
                taken.append(name)
                return kernel(*args)

            monkeypatch.setattr(word_core, name, counting)
        monkeypatch.setattr(word_core, "_LANE_CELLS", -1)
        profile = compute_profile(FiniteWord(text))
        assert (list(profile.max_ones), list(profile.min_ones)) == int64_profile(text, n)
        assert taken == ["_core_extremes" if backend == "cores" else "_window_blocks"]

    def test_a_sparse_word_runs_in_lanes_while_numpy_is_not_loaded(self, monkeypatch):
        w = FiniteWord(b"\1" + b"\0" * 63) * 32  # 2,048 symbols: 2,048 x 2,048 cells fit in the lanes
        profile = compute_profile(w)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert compute_profile(w) == profile and find_violation_1(w) is None and is_c_balanced(w, 1)
