"""Unit tests for words, Parikh vectors, rationals, and prefix profiles."""

import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    FiniteWord,
    InvalidInputError,
    LexOrder,
    MinDensityReport,
    MorphismSpec,
    ParikhVector,
    PrefixProfile,
    RangeError,
    SlopeSpec,
    build_index,
    complement,
    compute_profile,
    lex_compare,
    parikh,
    prefix_density,
    prefix_weight,
    reverse,
)
from prefixnormal import analysis, word_core
from prefixnormal.analysis import find_violation_1, is_c_balanced
from prefixnormal.generators import FIBONACCI_MORPHISM, morphic_fixpoint
from prefixnormal.word_core import _window_blocks

from oracles import brute_profile, int64_first_violation, int64_profile

words = st.text(alphabet="01", min_size=0, max_size=64).map(FiniteWord)
nonempty_words = st.text(alphabet="01", min_size=1, max_size=64).map(FiniteWord)


class TestFiniteWord:
    def test_construction_roundtrip(self):
        w = FiniteWord("0110")
        assert str(w) == "0110"
        assert len(w) == 4
        assert list(w) == [0, 1, 1, 0]
        assert FiniteWord([0, 1, 1, 0]) == w
        assert FiniteWord(w) == w

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInputError):
            FiniteWord("012")
        with pytest.raises(InvalidInputError):
            FiniteWord([0, 2])
        with pytest.raises(InvalidInputError):
            FiniteWord("1é")

    def test_sequence_protocol(self):
        w = FiniteWord("10110")
        assert w[0] == 1 and w[-1] == 0
        assert w[1:4] == FiniteWord("011")
        assert w + FiniteWord("01") == FiniteWord("1011001")
        assert FiniteWord("10") * 3 == FiniteWord("101010")
        assert hash(w) == hash(FiniteWord("10110"))

    def test_weight_and_classmethods(self):
        assert FiniteWord.ones(3).weight == 3
        assert FiniteWord.zeros(4).weight == 0
        assert FiniteWord("0101").weight == 2

    def test_a_word_holds_only_its_bytes(self):
        assert FiniteWord.__slots__ == ("_bits",)

    @given(words)
    def test_prefix_sums_are_a_new_int64_array_per_call(self, w):
        first, second = w.prefix_sums(), w.prefix_sums()
        assert first is not second and first.dtype == np.int64
        expected = [str(w)[:i].count("1") for i in range(len(w) + 1)]
        assert first.tolist() == expected
        first[:] = -1  # a caller may write to its array: no other call sees it
        assert w.prefix_sums().tolist() == expected

    def test_rational_is_exact_arbitrary_precision(self):
        from prefixnormal import Rational

        assert Rational is Fraction
        big = Rational(10**40 + 1, 10**40)
        assert big > 1 and (big - 1) == Rational(1, 10**40)


class TestParikh:
    def test_direct_count(self):
        assert parikh(FiniteWord("11010")) == ParikhVector(2, 3)

    def test_empty(self):
        assert parikh(FiniteWord("")) == ParikhVector(0, 0)

    def test_all_zeros(self):
        assert parikh(FiniteWord.zeros(5)) == ParikhVector(5, 0)


class TestComplementReverse:
    def test_examples(self):
        assert complement(FiniteWord("0010")) == FiniteWord("1101")
        assert reverse(FiniteWord("0010")) == FiniteWord("0100")
        assert complement(reverse(FiniteWord("001"))) == FiniteWord("011")

    @given(words)
    def test_involutions(self, w):
        assert complement(complement(w)) == w
        assert reverse(reverse(w)) == w


class TestPrefixWeightDensity:
    def test_known_word(self):
        assert prefix_weight(FiniteWord("11100110101"), 5) == 3

    def test_zero_prefix(self):
        assert prefix_weight(FiniteWord("10101"), 0) == 0

    def test_count_direct(self):
        assert prefix_weight(FiniteWord("110100110010"), 12) == 6

    @given(words)
    def test_every_length_matches_counting(self, w):
        text = str(w)
        assert [prefix_weight(w, i) for i in range(len(w) + 1)] == [text[:i].count("1") for i in range(len(w) + 1)]

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            prefix_weight(FiniteWord("10"), 3)
        with pytest.raises(RangeError):
            prefix_weight(FiniteWord("10"), -1)
        with pytest.raises(RangeError):
            prefix_density(FiniteWord("10"), 0)

    def test_density_examples(self):
        assert prefix_density(FiniteWord("1110000"), 7) == Fraction(3, 7)
        assert prefix_density(FiniteWord.ones(6), 6) == Fraction(1)
        assert prefix_density(FiniteWord("11100001"), 8) == Fraction(1, 2)

    @given(nonempty_words, st.data())
    def test_density_exact_fraction(self, w, data):
        i = data.draw(st.integers(min_value=1, max_value=len(w)))
        d = prefix_density(w, i)
        assert d.denominator > 0
        assert d == Fraction(str(w)[:i].count("1"), i)


class TestLexCompare:
    def test_first_difference(self):
        assert lex_compare(FiniteWord("110101"), FiniteWord("110110")) is LexOrder.LESS

    def test_equal(self):
        w = FiniteWord("0110")
        assert lex_compare(w, w) is LexOrder.EQUAL

    def test_prefix(self):
        assert lex_compare(FiniteWord("11"), FiniteWord("110")) is LexOrder.PREFIX
        assert lex_compare(FiniteWord("110"), FiniteWord("11")) is LexOrder.GREATER

    @given(words, words)
    def test_antisymmetry(self, u, v):
        forward = lex_compare(u, v)
        backward = lex_compare(v, u)
        if forward is LexOrder.EQUAL:
            assert backward is LexOrder.EQUAL
        elif forward in (LexOrder.LESS, LexOrder.PREFIX):
            assert backward is LexOrder.GREATER
        else:
            assert backward in (LexOrder.LESS, LexOrder.PREFIX)


class TestComputeProfile:
    def test_fibonacci_prefix_max_ones(self):
        w = morphic_fixpoint(FIBONACCI_MORPHISM, 20)
        profile = compute_profile(w)
        assert profile.max_ones == (1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 8, 8)

    def test_all_zeros(self):
        profile = compute_profile(FiniteWord.zeros(6))
        assert profile.max_ones == (0,) * 6
        assert profile.min_ones == (0,) * 6

    def test_factor_of_five_with_four_ones(self):
        profile = compute_profile(FiniteWord("11100110110"))
        assert profile.max_ones_at(5) == 4

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_profile(FiniteWord(""))

    def test_accessors_and_duals(self):
        profile = compute_profile(FiniteWord("0101"))
        assert profile.min_ones == (0, 1, 1, 2)
        assert profile.max_ones == (1, 1, 2, 2)
        assert profile.max_zeros_at(3) == 2
        assert profile.min_zeros_at(3) == 1
        with pytest.raises(RangeError):
            profile.max_ones_at(5)

    def test_longest_bound(self):
        # the rows of every bound are checked in test_exhaustive_small_words
        w = FiniteWord("010011")
        assert compute_profile(w, 6) == compute_profile(w)
        for longest in (0, -1, 7):
            with pytest.raises(RangeError, match=rf"factor length {longest} out of range 1\.\.6"):
                compute_profile(w, longest)
        with pytest.raises(InvalidInputError):
            compute_profile(FiniteWord(""), 0)

    def test_invariant_validation(self):
        with pytest.raises(InvalidInputError):
            PrefixProfile(length=2, max_ones=(0, 2), min_ones=(0, 0))
        with pytest.raises(InvalidInputError):
            PrefixProfile(length=2, max_ones=(1, 1), min_ones=(1, 2))

    @given(nonempty_words)
    @settings(max_examples=150)
    def test_matches_brute_force(self, w):
        profile = compute_profile(w)
        maxs, mins = brute_profile(str(w))
        assert list(profile.max_ones) == maxs
        assert list(profile.min_ones) == mins

    @given(nonempty_words)
    def test_monotone_unit_steps_and_sandwich(self, w):
        profile = compute_profile(w)
        sums = [0]
        for bit in w:
            sums.append(sums[-1] + bit)
        prev_hi = prev_lo = 0
        for i in range(1, len(w) + 1):
            hi, lo = profile.max_ones_at(i), profile.min_ones_at(i)
            assert hi - prev_hi in (0, 1)
            assert lo - prev_lo in (0, 1)
            assert lo <= sums[i] <= hi
            prev_hi, prev_lo = hi, lo

    def test_exhaustive_small_words(self):
        # all binary words of length 1..12 and every bound against the
        # factor-enumeration oracle; None is the default full scan
        for n in range(1, 13):
            for value in range(1 << n):
                text = format(value, f"0{n}b")
                w = FiniteWord(text)
                maxs, mins = brute_profile(text)
                for longest in (None, *range(1, n + 1)):
                    profile = compute_profile(w, longest)
                    k = n if longest is None else longest
                    assert profile.max_ones == tuple(maxs[:k]), (text, longest)
                    assert profile.min_ones == tuple(mins[:k]), (text, longest)

    def test_max_zeros_matches_brute_force_random(self):
        rng = random.Random(1723)
        for _ in range(200):
            n = rng.randint(1, 64)
            text = "".join(rng.choice("01") for _ in range(n))
            profile = compute_profile(FiniteWord(text))
            zero_maxs = [
                max(text[j : j + i].count("0") for j in range(n - i + 1))
                for i in range(1, n + 1)
            ]
            assert [profile.max_zeros_at(i) for i in range(1, n + 1)] == zero_maxs


class TestValueTypes:
    """Profiles, indexes and morphisms are immutable values: equal by fields,
    hashable, and shown and pickled by their fields. The plain records are
    named tuples."""

    VALUES = {
        "PrefixProfile": (
            lambda: PrefixProfile(length=2, max_ones=(1, 2), min_ones=(0, 1)),
            "PrefixProfile(length=2, max_ones=(1, 2), min_ones=(0, 1))",
        ),
        "JumbledIndex": (
            lambda: build_index(FiniteWord("0110")),
            "JumbledIndex(profile=PrefixProfile(length=4, max_ones=(1, 2, 2, 2), min_ones=(0, 1, 2, 2)))",
        ),
        "MorphismSpec": (
            lambda: MorphismSpec("01", "10"),
            "MorphismSpec(image0=FiniteWord('01'), image1=FiniteWord('10'), seed=0)",
        ),
    }

    @pytest.mark.parametrize("name", VALUES)
    def test_equality_hash_repr_pickle_and_no_assignment(self, name):
        make, text = self.VALUES[name]
        value = make()
        assert value == make() and hash(value) == hash(make()) and repr(value) == text
        assert value != tuple(value.__slots__) and pickle.loads(pickle.dumps(value)) == value
        field = value.__slots__[0]
        with pytest.raises(AttributeError, match=field):
            setattr(value, field, None)
        assert not hasattr(value, "__dict__")

    def test_records_are_named_tuples(self):
        violation = find_violation_1(FiniteWord("0110"))
        assert violation == (2, 1, 1, 0) and violation.factor_start == 2
        assert MinDensityReport(Fraction(1, 2), 2, 1) == (Fraction(1, 2), 2, 1)
        assert tuple(SlopeSpec.rational(1, 3)) == (Fraction(1, 3),)


# The kernel's sums are uint8 up to 255 symbols, uint16 up to 65,535 and
# uint32 beyond: these lengths sit on both sides of both boundaries.
DTYPE_BOUNDARIES = (255, 256, 257, 65535, 65536, 65537)


def boundary_word(kind: str, n: int) -> str:
    if kind == "random":
        rng = random.Random(n)
        return "".join(rng.choice("01") for _ in range(n))
    return ("1" if kind == "ones" else "0") * n


class TestNarrowKernel:
    @pytest.mark.parametrize("n", DTYPE_BOUNDARIES)
    def test_sums_take_the_narrowest_type(self, n):
        _, highs, lows = next(_window_blocks(FiniteWord.ones(n), range(1, 2)))
        assert highs.dtype == lows.dtype
        assert highs.dtype.itemsize == (1 if n < 256 else 2 if n < 65536 else 4)
        assert highs.dtype.kind == "u"

    @pytest.mark.parametrize("n", DTYPE_BOUNDARIES)
    @pytest.mark.parametrize("kind", ["ones", "zeros", "random"])
    def test_profile_matches_int64_kernel(self, kind, n):
        text = boundary_word(kind, n)
        profile = compute_profile(FiniteWord(text), 40)
        assert (list(profile.max_ones), list(profile.min_ones)) == int64_profile(text, 40)

    @pytest.mark.parametrize("n", DTYPE_BOUNDARIES)
    @pytest.mark.parametrize("kind", ["ones", "zeros", "random"])
    def test_violation_matches_int64_kernel(self, kind, n):
        text = boundary_word(kind, n)
        violation = find_violation_1(FiniteWord(text))
        if kind != "random" and n > 65000:
            # a constant word is prefix normal; the oracle's full int64 scan takes seconds here
            expected = None
        else:
            expected = int64_first_violation(text)
        assert (None if violation is None else tuple(violation)) == expected

    def test_balance_constant_beyond_the_kernel_type(self):
        w = FiniteWord(boundary_word("random", 200))
        assert is_c_balanced(w, 2**16)
        assert is_c_balanced(w, 10**30)

    def test_kernel_values_leave_as_python_ints(self):
        sparse = ("1" + "0" * 40) * 20 + "11"  # its violation is found by run pairs
        dense = "10" + boundary_word("random", 1998)  # its violation is found by the window scan
        for text in ("1" * 300, sparse, dense):
            w = FiniteWord(text)
            profile = compute_profile(w)
            assert all(type(value) is int for value in profile.max_ones + profile.min_ones)
        for text in (sparse, dense):
            violation = find_violation_1(FiniteWord(text))
            assert violation is not None and all(type(value) is int for value in tuple(violation))


@st.composite
def block_edge_words(draw) -> str:
    """Words of 1 to 300 symbols, from nearly all 0s to nearly all 1s."""
    n = draw(st.integers(1, 300))
    density = draw(st.sampled_from([0.02, 0.2, 0.5, 0.8, 0.98]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return "".join("1" if rng.random() < density else "0" for _ in range(n))


def witness(violation):
    return None if violation is None else tuple(violation)


# A cap of 1 cell gives only 1-row blocks; 7 and 64 give 1-row blocks on long
# widths and short padded blocks near the end of a scan; the default cap lets
# heights double from 1 up to the partial block that ends the scan.
BLOCK_CAPS = (1, 7, 64, word_core._BLOCK_CELLS)


class TestBlockKernel:
    @pytest.mark.parametrize("cells", BLOCK_CAPS)
    @pytest.mark.parametrize("lengths", [range(1, 301), range(1, 120), range(290, 301), range(0)])
    def test_blocks_cover_the_lengths_within_the_cap(self, cells, lengths, monkeypatch):
        monkeypatch.setattr(word_core, "_BLOCK_CELLS", cells)
        n = 300
        blocks = [(rows, highs.shape, lows.shape) for rows, highs, lows in _window_blocks(FiniteWord.ones(n), lengths)]
        assert [i for rows, _, _ in blocks for i in rows] == list(lengths)
        heights = [len(rows) for rows, _, _ in blocks]
        assert heights[:1] in ([], [1])
        assert all(b <= 2 * before for before, b in zip(heights, heights[1:]))
        for rows, high_shape, low_shape in blocks:
            width = n - rows[0] + 1
            assert high_shape == low_shape == (len(rows), width)
            assert len(rows) == 1 or len(rows) * (width + len(rows) - 1) <= cells
        if cells > 1 and lengths.stop > n:
            assert max(heights) > 1

    @pytest.mark.parametrize("cells", BLOCK_CAPS)
    @given(text=block_edge_words(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_consumers_match_the_int64_kernel(self, cells, text, data):
        w = FiniteWord(text)
        longest = data.draw(st.integers(1, len(text)), label="longest")
        maxs, mins = int64_profile(text, len(text))
        spread = max(hi - lo for hi, lo in zip(maxs, mins))
        expected = int64_first_violation(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(word_core, "_BLOCK_CELLS", cells)
            profile = compute_profile(w, longest)
            assert (list(profile.max_ones), list(profile.min_ones)) == (maxs[:longest], mins[:longest])
            for factor in (0, 10**12):  # the window scan, then run pairs for every word
                patch.setattr(analysis, "_RUN_PAIR_FACTOR", factor)
                assert witness(find_violation_1(w)) == expected
            assert is_c_balanced(w, max(spread, 1))
            assert spread <= 1 or not is_c_balanced(w, spread - 1)

    def test_memory_is_linear_in_the_word(self):
        # 2**18 symbols take uint32 sums, and a block holds one row of them at
        # this width; a buffer of height * n sums would break the bound
        n = 1 << 18
        w = FiniteWord(np.random.default_rng(13).integers(0, 2, n, dtype=np.uint8).tobytes())
        for scan in (lambda: find_violation_1(w), lambda: compute_profile(w, 64)):
            tracemalloc.start()
            try:
                scan()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 32 * n + 4 * word_core._BLOCK_CELLS
