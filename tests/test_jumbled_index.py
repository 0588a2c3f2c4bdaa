"""Unit tests for the jumbled pattern matching index and its wire format."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    FiniteWord,
    IndexFormatError,
    InvalidInputError,
    build_index,
    compute_profile,
    deserialize,
    serialize,
)
from prefixnormal.generators import FIBONACCI_MORPHISM, morphic_fixpoint
from prefixnormal.jumbled_index import _HEADER

from oracles import factor_one_counts, profile_error

nonempty_words = st.text(alphabet="01", min_size=1, max_size=48).map(FiniteWord)


class TestBuildAndQuery:
    def test_matches_profile(self):
        w = morphic_fixpoint(FIBONACCI_MORPHISM, 20)
        index = build_index(w)
        assert index.profile == compute_profile(w)
        assert index.word_length == 20

    def test_fibonacci_window_queries(self):
        index = build_index(morphic_fixpoint(FIBONACCI_MORPHISM, 20))
        assert index.query(3, 2)
        assert not index.query(2, 3)

    def test_all_ones(self):
        index = build_index(FiniteWord.ones(5))
        assert all(index.query(0, i) for i in range(1, 6))
        assert not index.query(1, 0)

    def test_small_word(self):
        index = build_index(FiniteWord("0101"))
        assert index.profile.min_ones == (0, 1, 1, 2)
        assert index.profile.max_ones == (1, 1, 2, 2)

    def test_out_of_range_is_false(self):
        index = build_index(FiniteWord("0101"))
        assert not index.query(0, 0)
        assert not index.query(4, 4)
        assert not index.query(-1, 2)
        # a negative count with a length in 1..4: the other count is out of its bounds
        for zeros, ones in ((-1, 5), (5, -1), (-2, 3), (3, -2), (-1, -1), (-3, 1)):
            assert not index.query(zeros, ones)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            build_index(FiniteWord(""))

    @given(nonempty_words)
    @settings(max_examples=150)
    def test_agrees_with_factor_enumeration(self, w):
        index = build_index(w)
        counts = factor_one_counts(str(w))
        for length in range(1, len(w) + 1):
            for ones in range(0, length + 1):
                assert index.query(length - ones, ones) == (ones in counts[length])

    @given(nonempty_words, st.data())
    def test_true_region_is_interval(self, w, data):
        index = build_index(w)
        n = data.draw(st.integers(min_value=1, max_value=len(w)))
        answers = [index.query(n - y, y) for y in range(n + 1)]
        assert True in answers
        first, last = answers.index(True), len(answers) - 1 - answers[::-1].index(True)
        assert all(answers[first : last + 1])


class TestSerialization:
    def test_roundtrip_random_words(self):
        rng = random.Random(5150)
        for _ in range(100):
            n = rng.randint(1, 80)
            w = FiniteWord("".join(rng.choice("01") for _ in range(n)))
            index = build_index(w)
            assert deserialize(serialize(index)) == index

    def test_deterministic_bytes(self):
        w = FiniteWord("110100110010")
        assert serialize(build_index(w)) == serialize(build_index(FiniteWord(str(w))))

    def test_header_layout(self):
        blob = serialize(build_index(FiniteWord("01")))
        assert blob[:4] == b"PNJI"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:16], "little") == 2
        assert len(blob) == 16 + 16 * 2

    def test_truncated_payload(self):
        blob = serialize(build_index(FiniteWord("0110")))
        with pytest.raises(IndexFormatError):
            deserialize(blob[:-1])
        with pytest.raises(IndexFormatError):
            deserialize(blob[:10])

    def test_bad_magic_and_version(self):
        blob = serialize(build_index(FiniteWord("0110")))
        with pytest.raises(IndexFormatError):
            deserialize(b"XXXX" + blob[4:])
        with pytest.raises(IndexFormatError):
            deserialize(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
        with pytest.raises(IndexFormatError):
            deserialize(_HEADER.pack(b"PNJI", 1, 0))  # an index of the empty word

    def test_invariant_message_names_the_first_bad_length(self):
        profile = build_index(FiniteWord("0110100")).profile
        maxs = (*profile.max_ones[:4], profile.max_ones[4] + 2, *profile.max_ones[5:])
        blob = _HEADER.pack(b"PNJI", 1, 7) + struct.pack("<7Q", *profile.min_ones) + struct.pack("<7Q", *maxs)
        with pytest.raises(IndexFormatError) as info:
            deserialize(blob)
        expected = profile_error(maxs, profile.min_ones)
        assert expected.endswith("length 5")
        assert str(info.value) == f"stored arrays violate profile invariants: {expected}"

    def test_invariant_violation_rejected(self):
        good = serialize(build_index(FiniteWord("0110")))
        # swap the two arrays so mins exceed maxs
        header, mins, maxs = good[:16], good[16:48], good[48:]
        with pytest.raises(IndexFormatError):
            deserialize(header + maxs + mins)
