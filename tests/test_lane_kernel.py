"""The lane backend at its switch from 16- to 32-bit lanes, the lanes and
numpy's span blocks called directly, and the lane budget of the rule that
sends a scan to the lanes. Both backends read the same span rows of the
rarer letter: the lanes hold a row in one Python int and search the length
at which it counts, numpy computes the rows in blocks.

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


@st.composite
def periodic_words(draw) -> str:
    """``(1 0^(q-1))^r`` for ``q`` up to 4,096, whose rows count ``q`` lengths
    apart, so that the lanes' search leaps: at most 600 periods, some words
    at the switch from 16- to 32-bit lanes, from a random cut on at most as
    many periods of a second length, so that the mean gap the search leaps by
    is wrong, a few 1s planted at random, and at times the letters swapped,
    so that 0 is the rarer."""
    q = draw(st.integers(1, 4096))
    n = draw(st.sampled_from(LANE_SWITCH) if q >= 64 else st.integers(1, 600 * q))
    p = draw(st.integers(max(1, n // 600), 4096))
    symbols = bytearray((b"1" + b"0" * (q - 1)) * (n // q + 1))[:n]
    cut = draw(st.integers(0, n))
    symbols[cut:] = ((b"1" + b"0" * (p - 1)) * ((n - cut) // p + 1))[: n - cut]
    for at in draw(st.sets(st.integers(0, n - 1), max_size=5)):
        symbols[at] = ord("1")
    return symbols.decode().translate(str.maketrans("01", "10") if draw(st.booleans()) else {})


class TestGallopingRows:
    """The lanes seek the length at which each row counts by steps, a leap by
    the mean gap so far, and doubling and bisection; they yield the spans'
    extremes, and the int64 kernel's on short words, in consecutive blocks of
    at most ``isqrt(_BLOCK_CELLS)`` lengths, for any first and last length."""

    @given(text=periodic_words(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_lanes_match_the_spans_on_periodic_words(self, text, data):
        w, n = FiniteWord(text), len(text)
        last = data.draw(st.integers(1, n), label="last")
        for lengths in (range(1, n + 1), range(data.draw(st.integers(1, last), label="first"), last + 1)):
            for minima in (True, False):
                lanes = scan(word_core._lane_extremes, w, lengths, minima)
                assert lanes == scan(word_core._span_extremes, w, lengths, minima)
                if n <= 300:
                    maxs, mins = int64_profile(text, lengths.stop - 1)
                    assert lanes == (maxs[lengths.start - 1 :], mins[lengths.start - 1 :] if minima else None)

    @pytest.mark.parametrize("q", [1, 2, 5, 63, 64, 65, 1024, 4096])
    def test_every_start_and_stop(self, q):
        # every first and last length of a short periodic word with a planted 1, and of its complement
        text = (("1" + "0" * (q - 1)) * (200 // q + 2))[:200]
        text = text[:150] + "1" + text[151:]
        for word in (text, text.translate(str.maketrans("01", "10"))):
            maxs, mins = int64_profile(word, len(word))
            for first in range(1, len(word) + 1, 7):
                for last in range(first, len(word) + 1, 11):
                    for minima in (True, False):
                        assert scan(word_core._lane_extremes, FiniteWord(word), range(first, last + 1), minima) == (
                            maxs[first - 1 : last], mins[first - 1 : last] if minima else None)


#: Scans exactly at the lane budget, and the nearest past it: ``(ones, zeros, last)`` for the word
#: ``1^ones 0^zeros`` and the lengths ``1..last``. With ``k`` of the rarer letter, ``r = min(k, last)``
#: rows of ``k`` lanes take ``2 log(last / r) + 1`` probes each, ``bit_length`` for the log.
BUDGET_EDGES = {
    # k >= last: a row a length, one probe each, so one length more reads k lanes more
    "a-length-past": ((4096, 4096, 1024), (4096, 4096, 1025)),
    # 4 rows of 2^20 lanes, against 5 rows of 838,861 lanes: 2^22 + 1 lane reads
    "a-read-past": ((1 << 20, 1 << 20, 4), (838861, 838861, 5)),
    # k < last: k rows of k lanes, one probe each up to last = 2k - 1, three from 2k
    "a-probe-past": ((2048, 4096, 4095), (2048, 4096, 4096)),
}


class TestBackendRule:
    """The lane budget of ``_backend``, called directly: while numpy is not
    loaded, a scan whose probes times lanes are at most ``_LANE_READS`` takes
    the lanes, and a loaded numpy takes every scan off them."""

    @pytest.mark.parametrize("edge", BUDGET_EDGES)
    def test_lanes_take_scans_up_to_the_lane_reads(self, edge, monkeypatch):
        def reads(ones, zeros, last):
            k = min(ones, zeros)
            return min(k, last) * (2 * (last // min(k, last)).bit_length() - 1) * k

        at, past = BUDGET_EDGES[edge]
        assert reads(*at) == word_core._LANE_READS < reads(*past)
        (ones, zeros, last), (past_ones, past_zeros, past_last) = at, past
        at, past = FiniteWord(b"\1" * ones + b"\0" * zeros), FiniteWord(b"\1" * past_ones + b"\0" * past_zeros)
        assert word_core._backend(at, range(1, last + 1)) is word_core._span_extremes
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert word_core._backend(at, range(1, last + 1)) is word_core._lane_extremes
        assert word_core._backend(past, range(1, past_last + 1)) is word_core._span_extremes

    @pytest.mark.parametrize("n", [7, 64])
    def test_lanes_take_every_length_up_to_the_last_times_n(self, n, monkeypatch):
        # a short word takes the lanes for each of its n scans 1..last, and the
        # profile and the index they give are numpy's
        w = FiniteWord(("110" * n)[:n])
        profile = compute_profile(w)
        monkeypatch.setitem(sys.modules, "numpy", None)
        for last in range(1, n + 1):
            assert word_core._backend(w, range(1, last + 1)) is word_core._lane_extremes
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
        # 500 rows of 500 lanes, at most 13 probes each, fit the lanes: the profile, the check and the balance
        # test; so does the index of a short word
        w = FiniteWord(b"\1" + b"\0" * 63) * 500
        profile, small = compute_profile(w), FiniteWord("110" * 100)
        small_profile = compute_profile(small)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert compute_profile(w) == profile and find_violation_1(w) is None and is_c_balanced(w, 1)
        assert build_index(small).profile == small_profile
