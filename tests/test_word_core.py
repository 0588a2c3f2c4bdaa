"""Unit tests for words, Parikh vectors, rationals, and prefix profiles."""

import math
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
    QuadraticIrrational,
    RangeError,
    SlopeSpec,
    UltimatelyPeriodicWord,
    build_index,
    complement,
    compute_profile,
    lex_compare,
    parikh,
    prefix_density,
    prefix_weight,
    reverse,
)
from prefixnormal import word_core
from prefixnormal.analysis import find_violation_1, is_c_balanced
from prefixnormal.generators import FIBONACCI_MORPHISM, morphic_fixpoint
from prefixnormal.word_core import _backend, _span_extremes

from conftest import BACKENDS, use_backend
from oracles import brute_profile, int64_first_violation, int64_profile, profile_error
from test_backends import block_edge_words, conforms, scan

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
            FiniteWord("1é")
        # bytes() itself rejects values outside 0..255 with a plain ValueError
        for symbols in ([0, 2], [256], [-1], [1, 0, 300], [0.5], [None], ["1"]):
            with pytest.raises(InvalidInputError, match="^symbol values must be 0 or 1$"):
                FiniteWord(symbols)

    @pytest.mark.parametrize("bits", [0, 5, True, False, None, 0.5, np.int64(3)])
    def test_rejects_what_is_not_iterable(self, bits):
        # bytes() reads an int, a bool or a numpy scalar as a length of 0s
        with pytest.raises(InvalidInputError, match="^not a binary word: "):
            FiniteWord(bits)

    def test_default_is_the_empty_word(self):
        assert FiniteWord() == FiniteWord("") == FiniteWord([]) and len(FiniteWord()) == 0

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
        # each check alone, and both at one length, where the bounds are reported
        for maxs, mins, message in (
            ((0, 0, 1), (0, 1, 1), "out of bounds at length 2"),
            ((1, 1, 3), (0, 0, 0), "steps must be 0 or 1 at length 3"),
            ((1, 3, 3), (0, 0, 0), "out of bounds at length 2"),
            ((0, 2, 2), (0, 0, 0), "steps must be 0 or 1 at length 2"),
            ((-1, 0), (-1, 0), "out of bounds at length 1"),
        ):
            assert profile_error(maxs, mins).endswith(message)
            with pytest.raises(InvalidInputError, match=message):
                PrefixProfile(len(maxs), maxs, mins)

    @given(nonempty_words, st.lists(st.tuples(st.booleans(), st.integers(0, 63), st.integers(-2, 2)), max_size=3))
    @settings(max_examples=300)
    def test_validation_matches_per_length_oracle(self, w, edits):
        # a valid profile with up to three counts moved: the same verdict and the same first bad length
        profile = compute_profile(w)
        arrays = [list(profile.max_ones), list(profile.min_ones)]
        for in_max, at, delta in edits:
            arrays[not in_max][at % len(w)] += delta
        maxs, mins = map(tuple, arrays)
        expected = profile_error(maxs, mins)
        if expected is None:
            assert PrefixProfile(len(w), maxs, mins).min_ones == mins
        else:
            with pytest.raises(InvalidInputError) as info:
                PrefixProfile(len(w), maxs, mins)
            assert str(info.value) == expected

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
    """Profiles, indexes, morphisms, ultimately periodic words and quadratic
    irrationals are immutable values: equal by fields, hashable, and pickled
    by their fields; all but the last two are shown by their fields. The
    plain records are named tuples."""

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
        "UltimatelyPeriodicWord": (
            lambda: UltimatelyPeriodicWord(FiniteWord("1101"), FiniteWord("0101")),
            "UltimatelyPeriodicWord('1', '10')",
        ),
        "QuadraticIrrational": (
            lambda: QuadraticIrrational(-2, 2, -4, 8),
            "QuadraticIrrational(1, -2, 2, 2)",
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


# The kernel's positions and spans are uint8 up to 255 symbols, uint16 up to
# 65,535 and uint32 beyond: these lengths sit on both sides of both boundaries.
DTYPE_BOUNDARIES = (255, 256, 257, 65535, 65536, 65537)


def boundary_word(kind: str, n: int) -> str:
    if kind == "random":
        rng = random.Random(n)
        return "".join(rng.choice("01") for _ in range(n))
    return ("1" if kind == "ones" else "0") * n


class TestNarrowKernel:
    @pytest.mark.parametrize("n", DTYPE_BOUNDARIES)
    def test_sums_take_the_narrowest_type(self, n, monkeypatch):
        # the least spans, the first widest span and the block buffer take the type of the positions
        made = []
        for name in ("empty", "zeros"):
            make = getattr(np, name)
            record = lambda shape, dtype, make=make: made.append(np.dtype(dtype)) or make(shape, dtype)  # noqa: E731
            monkeypatch.setattr(np, name, record)
        next(_span_extremes(FiniteWord(boundary_word("random", n)), range(1, 2), True))
        assert made == [np.dtype(f"u{1 if n < 256 else 2 if n < 65536 else 4}")] * 3

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
        sparse = ("1" + "0" * 40) * 20 + "11"  # the spans of its 22 1s find its violation
        dense = "10" + boundary_word("random", 1998)  # the spans of its rarer letter find its violation
        for text in ("1" * 300, sparse, dense):
            w = FiniteWord(text)
            profile = compute_profile(w)
            assert all(type(value) is int for value in profile.max_ones + profile.min_ones)
        for text in (sparse, dense):
            violation = find_violation_1(FiniteWord(text))
            assert violation is not None and all(type(value) is int for value in tuple(violation))


# A cap of 1 cell gives only 1-row blocks; 7 and 64 give 1-row blocks on long
# widths and short blocks near the end of a scan; the default cap lets heights
# double from 1 up to half the rows left.
BLOCK_CAPS = (1, 7, 64, word_core._BLOCK_CELLS)


def filled_blocks(monkeypatch: pytest.MonkeyPatch) -> list:
    """The shapes of the span blocks that the span backend fills from now on:
    each block takes two subtractions, its start columns and its tail."""
    subtract, shapes = np.subtract, []
    monkeypatch.setattr(np, "subtract", lambda *args, out: shapes.append(out.shape) or subtract(*args, out=out))
    return shapes


def dense_late_violation(n: int, ones: float = 0.5) -> FiniteWord:
    """``1^999 00``, random symbols, a share ``ones`` of them 1s, and
    ``1^500 0 1^500``: it passes the first-run search, and its first violation
    has length 1,001."""
    noise = (np.random.default_rng(13).random(n) < ones).astype(np.uint8).tobytes()
    head, tail = "1" * 999 + "00", "1" * 500 + "0" + "1" * 500  # P(1001) = 999 < 1,000 1s in the tail
    return FiniteWord(head + str(FiniteWord(noise))[: n - len(head) - len(tail)] + tail)


class TestBlockKernel:
    @pytest.mark.parametrize("cells", BLOCK_CAPS)
    @pytest.mark.parametrize("lengths", [range(1, 301), range(1, 120), range(290, 301), range(0)])
    def test_blocks_cover_the_lengths_within_the_cap(self, cells, lengths, monkeypatch):
        # 1^100 0^200 scans the rows of its 100 1s, the rarer letter: row s holds
        # 100 - s spans, and each block fills its start columns, then its tail
        monkeypatch.setattr(word_core, "_BLOCK_CELLS", cells)
        shapes = filled_blocks(monkeypatch)
        text = "1" * 100 + "0" * 200
        maxs, mins = int64_profile(text, len(text))
        blocks = list(_span_extremes(FiniteWord(text), lengths, True))
        assert [i for rows, _, _ in blocks for i in rows] == list(lengths)
        assert all((hi, lo) == (maxs[i - 1], mins[i - 1]) for rows, most, fewest in blocks
                   for i, hi, lo in zip(rows, most, fewest))
        assert all(len(rows) <= math.isqrt(cells) for rows, _, _ in blocks)
        rows = list(zip(shapes[::2], shapes[1::2]))  # the start columns and the tail of each block of rows
        heights = [starts[0] for starts, tail in rows]
        assert all(starts[0] == tail[0] for starts, tail in rows)
        assert heights[:1] == ([1] if lengths else [])
        assert all(b <= 2 * before for before, b in zip(heights, heights[1:]))
        assert all(starts[0] == 1 or starts[0] * (starts[1] + tail[1]) <= cells for starts, tail in rows)
        if cells > 1 and lengths.stop > 100:
            assert max(heights) > 1

    @pytest.mark.parametrize("text", ["0" * 40, "1" * 40, "1", "0", "0" * 20 + "1" + "0" * 19, "1" * 7 + "0" * 33])
    def test_words_without_a_letter_and_lengths_from_past_the_first_run(self, text):
        # no 1s, no 0s, a single 1 and 1^m 0^k, from length 1 and from m + 2 as
        # find_violation_1 asks, up to n and below it as compute_profile(w, longest) asks
        w, n = FiniteWord(text), len(text)
        maxs, mins = int64_profile(text, n)
        m = n - len(text.lstrip("1"))
        for lengths in (range(1, n + 1), range(m + 2, n + 1), range(1, n // 2 + 1), range(m + 2, n // 2 + 1)):
            asked = slice(lengths.start - 1, lengths.stop - 1)
            assert scan(_span_extremes, w, lengths) == (maxs[asked], mins[asked]), lengths
            assert scan(_span_extremes, w, lengths, minima=False) == (maxs[asked], None), lengths

    def test_no_lengths_yield_nothing(self):
        # with numpy loaded the empty word takes the spans
        empty = FiniteWord("")
        assert _backend(empty, range(1, 1)) is _span_extremes
        assert list(_span_extremes(empty, range(1, 1), True)) == []
        assert list(_span_extremes(FiniteWord("01"), range(0), True)) == []
        assert is_c_balanced(empty, 1)

    def test_a_check_stops_within_a_block_of_its_violation(self, monkeypatch):
        # with 0s rarer the widest spans of rows 1 and 2 settle length 1,001, as
        # 1^999 lies between the first two 0s; with 1s rarer the least spans of
        # rows 1 to 1,000 do, as 1^999 starts the word. Heights double, so the
        # check scans at most twice those rows of its rarer letter's spans
        yielded, shapes = [], filled_blocks(monkeypatch)

        def recorded(w, lengths, minima):
            for block in _span_extremes(w, lengths, minima):
                yielded.append(block[0])
                yield block

        monkeypatch.setattr(word_core, "_backend", lambda w, lengths: recorded)
        for ones, rows in ((0.5, 2), (0.3, 1000)):
            w = dense_late_violation(1 << 18, ones)
            rarer = min(w.weight, len(w) - w.weight)
            assert (rarer == w.weight) == (ones < 0.5)
            yielded.clear(), shapes.clear()
            assert find_violation_1(w).factor_length == 1001
            assert len(yielded) == 1 and yielded[0].start == 1001
            assert sum(map(math.prod, shapes)) <= 2 * rows * rarer

    @pytest.mark.parametrize("cells", BLOCK_CAPS)
    @given(text=block_edge_words(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_consumers_match_the_int64_kernel(self, cells, text, data):
        longest = data.draw(st.integers(1, len(text)), label="longest")
        facts = (*int64_profile(text, len(text)), int64_first_violation(text))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(word_core, "_BLOCK_CELLS", cells)
            for backend in BACKENDS:  # the cap sets the span blocks' heights and the lengths per list
                use_backend(patch, backend)
                conforms(text, *facts, longest)

    def test_memory_is_linear_in_the_word(self):
        # 2**18 symbols take uint32 positions and spans, and a block holds one
        # row of them at this width; a buffer of height * n spans would break
        # the bound. The prefix normal sparse word scans the spans of its 1s; the dense
        # one passes the first-run search of 1^999 and reaches the span
        # backend, which finds its violation at length 1,001. No check may
        # hold a list of n prefix sums
        n = 1 << 18
        noise = FiniteWord(np.random.default_rng(13).integers(0, 2, n, dtype=np.uint8).tobytes())
        sparse = FiniteWord(b"\1" + b"\0" * 255) * (n // 256)
        dense = dense_late_violation(n)
        assert find_violation_1(sparse) is None and find_violation_1(dense).factor_length == 1001
        for w in (noise, sparse, dense):
            for scan in (lambda: find_violation_1(w), lambda: compute_profile(w, 64)):
                tracemalloc.start()
                try:
                    scan()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak <= 32 * n + 4 * word_core._BLOCK_CELLS

    def test_a_sparse_profile_scans_no_window(self, monkeypatch):
        # the profile scans the spans of its 1,024 1s, fewer than 1,024^2 cells against n^2 windows
        n = 1 << 18
        w = FiniteWord(b"\1" + b"\0" * 255) * (n // 256)
        assert _backend(w, range(1, n + 1)) is _span_extremes
        shapes = filled_blocks(monkeypatch)
        profile = compute_profile(w)
        assert sum(map(math.prod, shapes)) <= w.weight**2
        assert profile.max_ones == tuple(-(-i // 256) for i in range(1, n + 1))
        assert profile.min_ones == tuple(i // 256 for i in range(1, n + 1))


def late_violation(noise: str) -> str:
    """``1^9 00``, ``noise`` and ``0 1^5 0 1^5``: with no 1^10 in the noise
    its first violation is the tail's 10 1s against 9 in the prefix of 11."""
    return "1" * 9 + "00" + noise + "0" + "1" * 5 + "0" + "1" * 5


# Words for each case of the span backend, which reads the rarer letter (1 on a tie).
ONE_LETTER_WORDS = {
    "0s rarer": "1101110111101110",
    "W = Z": "1100101001",
    "W = Z, runs": "1" * 20 + "0" * 20,
    "W = Z, runs of 0s first": "0" * 20 + "1" * 20,
    "no 1s": "0" * 30,
    "no 0s": "1" * 30,
    "widest gap first": "0" * 40 + "1" + "0" * 3,
    "widest gap inside": "1" + "0" * 50 + "1",
    "widest gap last": "0" * 3 + "1" + "0" * 40,
    "widest 1-gap first": "1" * 40 + "0" + "1" * 3,
    "widest 1-gap inside": "0" + "1" * 50 + "0",
    "widest 1-gap last": "1" * 3 + "0" + "1" * 40,
    "late violation, 1s rarer": late_violation("10000" * 20),
    "late violation, 0s rarer": late_violation("11110" * 20),
}


class TestOneLetterSpans:
    """The span backend reads the positions of the rarer letter only, with
    sentinels before and after the word, and gives both extremes from them."""

    @pytest.mark.parametrize("name", ONE_LETTER_WORDS)
    def test_consumers_match_the_int64_kernel(self, name, monkeypatch):
        text = ONE_LETTER_WORDS[name]
        n, ones = len(text), text.count("1")
        assert "rarer" not in name or (ones < n - ones) == name.endswith("1s rarer")
        use_backend(monkeypatch, "spans")
        maxs, mins = int64_profile(text, n)
        violation = int64_first_violation(text)
        assert "late" not in name or violation[1] == 11 and violation[0] > 100  # (start, length, ...)
        for longest in (n, n // 2 or 1, 1):
            conforms(text, maxs, mins, violation, longest)
        for lengths in (range(1, n + 1), range(2, n // 2 + 1), range(n, n + 1)):
            asked = slice(lengths.start - 1, lengths.stop - 1)
            for minima in (True, False):
                expected = (maxs[asked], mins[asked] if minima else None)
                assert scan(_span_extremes, FiniteWord(text), lengths, minima) == expected, lengths

    @given(text=st.one_of(block_edge_words(), st.sampled_from(list(ONE_LETTER_WORDS.values()))))
    @settings(max_examples=150, deadline=None)
    def test_the_complement_mirrors_the_profile(self, text):
        # a word and its complement swap their rarer letters, so the two profiles
        # read the positions of different letters (of the 1s of each on a tie)
        w, n = FiniteWord(text), len(text)
        profile, dual = compute_profile(w), compute_profile(complement(w))
        assert dual.max_ones == tuple(i - low for i, low in enumerate(profile.min_ones, 1))
        assert dual.min_ones == tuple(i - high for i, high in enumerate(profile.max_ones, 1))
        assert _backend(w, range(1, n + 1)) is _span_extremes

    @pytest.mark.parametrize("letter", ["1", "0"])
    def test_a_profile_scans_the_rarer_letter(self, letter, monkeypatch):
        # 128 of one letter among 4,096 symbols: fewer than 128^2 spans, where
        # the other letter's 3,968 positions would take about 3,968^2 / 2
        text = (letter + ("0" if letter == "1" else "1") * 31) * 128
        shapes = filled_blocks(monkeypatch)
        profile = compute_profile(FiniteWord(text))
        assert (list(profile.max_ones), list(profile.min_ones)) == int64_profile(text, len(text))
        assert 0 < sum(map(math.prod, shapes)) <= 128**2
