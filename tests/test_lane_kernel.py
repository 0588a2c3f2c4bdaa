"""The lane backend at its switch from 16- to 32-bit lanes, the lanes and
numpy's span blocks called directly, and the lane budget of the rule that
sends a scan to the lanes. Both backends read the same span rows of the
rarer letter: the lanes hold a row in one Python int, numpy in row blocks.

A scan runs in lanes only while numpy is not loaded. With
``sys.modules["numpy"] = None`` numpy counts as not loaded and any import of
it raises, so a scan that still returns ran in lanes.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import FiniteWord, build_index, compute_profile, word_core
from prefixnormal.analysis import find_violation_1, is_c_balanced

from conftest import use_backend
from oracles import int64_first_violation, int64_profile
from test_backends import block_edge_words, conforms, headed_words, power_of_two_words, scan

#: Word lengths at the switch from 16- to 32-bit lanes: a lane of b bits holds spans up to 2^(b-1), and n < 2^(b-1).
LANE_SWITCH = (2**15 - 1, 2**15, 2**15 + 1)


@st.composite
def lane_width_words(draw) -> str:
    """Words at the switch from 16- to 32-bit lanes whose rarer letter has at
    most 40 positions, so that a scan stays cheap: one letter only, one of
    the other letter first, in the middle or last, 1 0^(n - 2) 1, whose row 1
    holds the span n - 1 and row 2 the sentinel spans n, or a few 1s or 0s
    at random."""
    n = draw(st.sampled_from(LANE_SWITCH))
    h = draw(st.integers(0, n - 1))
    rare, common = draw(st.sampled_from(["10", "01"]))
    symbols = [common] * n
    for at in draw(st.sets(st.integers(0, n - 1), max_size=40)):
        symbols[at] = rare
    return draw(st.sampled_from([
        common * n, rare + common * (n - 1), common * h + rare + common * (n - 1 - h), common * (n - 1) + rare,
        "1" + "0" * (n - 2) + "1", "".join(symbols),
    ]))


class TestLanesAgainstOracles:
    @pytest.mark.parametrize("k", range(1, 12))
    @pytest.mark.parametrize("kind", ["ones", "zeros", "zero-ones", "ones-zero-ones"])
    def test_lane_width_boundaries(self, k, kind, monkeypatch):
        # the words of power_of_two_words, every kind at every k: a word of one
        # letter packs no position, and the others one, whose sentinel spans
        # reach n; 1^h 0 1^(n - 1 - h) is prefix normal, so its check scans up to n - 1 ones
        use_backend(monkeypatch, "lanes")
        for n in (2**k - 1, 2**k, 2**k + 1):
            text = {"ones": "1" * n, "zeros": "0" * n, "zero-ones": "0" + "1" * (n - 1),
                    "ones-zero-ones": "1" * (n // 2) + "0" + "1" * (n - 1 - n // 2)}[kind][:n]
            conforms(text, *int64_profile(text, n), int64_first_violation(text))

    @pytest.mark.parametrize("n", LANE_SWITCH)
    def test_the_switch_from_16_to_32_bit_lanes(self, n, monkeypatch):
        # 1 0^(n - 2) 1 is prefix normal, and its rows hold spans up to n: at
        # n = 2^15 - 1 in 16-bit lanes, whose test of length n adds 2^15 - (n + 1) = 0
        use_backend(monkeypatch, "lanes")
        conforms("1" + "0" * (n - 2) + "1", [1] * (n - 1) + [2], [0] * (n - 2) + [1, 2], None)
        rng = random.Random(n)  # 40 1s at random, against the spans called directly
        w = FiniteWord(bytes(rng.random() < 40 / n for _ in range(n)))
        for minima in (True, False):
            assert scan(word_core._lane_extremes, w, range(1, n + 1), minima) == scan(
                word_core._span_extremes, w, range(1, n + 1), minima)


class TestBothBackends:
    """The lanes and numpy's span blocks, called directly, yield the int64 kernel's
    max-1s and min-1s in consecutive blocks over the lengths asked."""

    @given(text=st.one_of(block_edge_words(), headed_words(), power_of_two_words()))
    @settings(max_examples=150, deadline=None)
    def test_lanes_and_blocks_match_the_int64_kernel(self, text):
        w, lengths = FiniteWord(text), range(1, len(text) + 1)
        maxs, mins = int64_profile(text, len(text))
        for backend in (word_core._lane_extremes, word_core._span_extremes):
            assert scan(backend, w, lengths) == (maxs, mins)
            assert scan(backend, w, lengths, minima=False) == (maxs, None)

    @given(text=lane_width_words(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_the_spans_at_the_lane_switch(self, text, data):
        # the int64 kernel is quadratic in n, so these words, sparse in their rarer letter, meet the spans
        last = data.draw(st.integers(1, len(text)), label="last")
        lengths = range(data.draw(st.integers(1, last), label="first"), last + 1)
        for minima in (True, False):
            lanes = scan(word_core._lane_extremes, FiniteWord(text), lengths, minima)
            assert lanes == scan(word_core._span_extremes, FiniteWord(text), lengths, minima)

    @given(text=block_edge_words(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_shorter_profile_reads_the_same_lengths(self, text, data):
        # lengths from past 1, as find_violation_1 asks after its first-run search
        last = data.draw(st.integers(1, len(text)), label="last")
        first = data.draw(st.integers(1, last), label="first")
        maxs, mins = int64_profile(text, last)
        for backend in (word_core._lane_extremes, word_core._span_extremes):
            assert scan(backend, FiniteWord(text), range(first, last + 1)) == (maxs[first - 1 :], mins[first - 1 :])


class TestBackendRule:
    """The lane budget of ``_backend``, called directly: while numpy is not
    loaded, a scan whose last length times n is at most ``_LANE_CELLS`` takes
    the lanes, and a loaded numpy takes every scan off them."""

    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    def test_lanes_take_every_length_up_to_the_last_times_n(self, n, monkeypatch):
        # at n = 1 the last length within the budget is 2^22 cells exactly, and one more is one cell more
        w, last = FiniteWord(("110" * n)[:n]), word_core._LANE_CELLS // n
        profile = compute_profile(w)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert word_core._backend(w, range(1, last + 1)) is word_core._lane_extremes
        assert word_core._backend(w, range(last + 1, last + 2)) is not word_core._lane_extremes
        assert compute_profile(w) == profile and build_index(w).profile == profile

    def test_a_loaded_numpy_takes_every_scan(self, monkeypatch):
        # off the lanes every word takes the spans, whatever its runs; a
        # blocked numpy sends both to the lanes, also a scan of no lengths
        dense, sparse = FiniteWord("10" * 50), FiniteWord("0110")
        assert "numpy" in sys.modules and sys.modules["numpy"] is not None
        for lengths in (range(1, 101), range(0)):
            assert word_core._backend(sparse, lengths) is word_core._backend(dense, lengths) is word_core._span_extremes
        monkeypatch.setitem(sys.modules, "numpy", None)
        for lengths in (range(1, 101), range(0)):
            assert word_core._backend(sparse, lengths) is word_core._backend(dense, lengths) is word_core._lane_extremes

    def test_a_sparse_word_runs_in_lanes_while_numpy_is_not_loaded(self, monkeypatch):
        w = FiniteWord(b"\1" + b"\0" * 63) * 32  # 2,048 symbols: 2,048 x 2,048 cells fit in the lanes
        profile = compute_profile(w)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert compute_profile(w) == profile and find_violation_1(w) is None and is_c_balanced(w, 1)
