"""Unit tests for normality checks, normal forms, densities, and lex order."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    FiniteWord,
    InvalidInputError,
    NoBoundError,
    ParikhVector,
    RangeError,
    UltimatelyPeriodicWord,
    abelian_complexity,
    check_stream_prefix_normal,
    complement,
    compute_profile,
    empirical_min_prepend,
    find_violation_1,
    is_c_balanced,
    is_prefix_normal_0,
    is_prefix_normal_1,
    is_prenecklace_prefix,
    max_word,
    min_density,
    min_density_up,
    min_word,
    parikh_set,
    pnf0,
    pnf1,
    prepend_ones_bound,
)
from prefixnormal import analysis
from prefixnormal.analysis import _primitive_root
from prefixnormal.generators import (
    FIBONACCI_MORPHISM,
    FIBONACCI_SLOPE,
    SQRT2_SLOPE,
    THUE_MORSE_MORPHISM,
    characteristic_word,
    fibonacci_stream,
    mechanical_lower,
    mechanical_stream,
    morphic_fixpoint,
    paperfolding,
    thue_morse_stream,
)

from oracles import (
    brute_abelian_complexity,
    brute_extreme_factors,
    brute_first_violation,
    brute_is_prefix_normal,
    brute_min_density,
    brute_min_density_ultimately_periodic,
    brute_profile,
    divisor_primitive_root,
    int64_first_violation,
    least_eventual_period_form,
    rotate_preperiod_into_period,
    slicing_is_prenecklace_prefix,
)

words = st.text(alphabet="01", min_size=0, max_size=48).map(FiniteWord)
nonempty_words = st.text(alphabet="01", min_size=1, max_size=48).map(FiniteWord)

LONG_WORD_KINDS = ["random", "prefix-normal", "thue-morse", "fibonacci", "alternating", "ones-then-zeros"]


def long_word(kind: str) -> str:
    """A word of 2000 to 4000 symbols of the given kind, seeded by the kind."""
    rng = random.Random(kind)
    length = rng.randrange(2000, 4001)
    random_text = "".join(rng.choice("01") for _ in range(length))
    make = {
        "random": lambda: random_text,
        "prefix-normal": lambda: str(pnf1(compute_profile(FiniteWord(random_text)))),
        "thue-morse": lambda: str(thue_morse_stream().prefix(length)),
        "fibonacci": lambda: str(fibonacci_stream().prefix(length)),
        "alternating": lambda: "01" * (length // 2),
        "ones-then-zeros": lambda: "1" * (length // 2) + "0" * (length // 2),
    }
    return make[kind]()


class TestPrefixNormalChecks:
    def test_normal_example(self):
        assert is_prefix_normal_1(FiniteWord("11100110101"))

    def test_violation_length_five(self):
        violation = find_violation_1(FiniteWord("11100110110"))
        assert violation is not None
        assert violation.factor_length == 5
        assert violation.factor_ones == 4

    def test_violation_cites_11011(self):
        w = FiniteWord("110100110110")
        violation = find_violation_1(w)
        assert violation is not None
        start, length = violation.factor_start, violation.factor_length
        assert str(w[start - 1 : start - 1 + length]) == "11011"
        assert violation.render() == "len=5 start=7 ones=4 prefix_ones=3"

    def test_more_known_words(self):
        assert is_prefix_normal_1(FiniteWord("110100110010"))
        assert not is_prefix_normal_1(FiniteWord("11001") * 4)
        assert is_prefix_normal_1(FiniteWord("11010") * 4)

    def test_empty_is_normal(self):
        assert find_violation_1(FiniteWord("")) is None

    def test_zero_flavour(self):
        assert is_prefix_normal_0(FiniteWord("0010"))
        assert not is_prefix_normal_0(FiniteWord("1100"))
        assert is_prefix_normal_0(FiniteWord.zeros(8))

    @given(words)
    def test_zero_check_is_complement_of_one_check(self, w):
        assert is_prefix_normal_0(w) == is_prefix_normal_1(complement(w))

    @given(words)
    @settings(max_examples=200)
    def test_matches_brute_force(self, w):
        assert is_prefix_normal_1(w) == brute_is_prefix_normal(str(w))

    def test_exhaustive_up_to_length_ten(self):
        for n in range(1, 11):
            for value in range(1 << n):
                text = format(value, f"0{n}b")
                assert is_prefix_normal_1(FiniteWord(text)) == brute_is_prefix_normal(text), text

    def test_exhaustive_witness_up_to_length_12(self):
        for n in range(1, 13):
            for value in range(1 << n):
                text = format(value, f"0{n}b")
                violation = find_violation_1(FiniteWord(text))
                witness = None if violation is None else (
                    violation.factor_start,
                    violation.factor_length,
                    violation.factor_ones,
                    violation.prefix_ones,
                )
                assert witness == brute_first_violation(text), text

    def test_exhaustive_oracle_equivalence_to_length_16(self):
        # one pass checks both the profile arrays and the normality verdict
        for n in range(11, 17):
            for value in range(1 << n):
                text = format(value, f"0{n}b")
                word = FiniteWord(text)
                profile = compute_profile(word)
                maxs, mins = brute_profile(text)
                assert list(profile.max_ones) == maxs, text
                assert list(profile.min_ones) == mins, text
                prefix_ones = 0
                expected_normal = True
                for i in range(1, n + 1):
                    prefix_ones += text[i - 1] == "1"
                    if prefix_ones != maxs[i - 1]:
                        expected_normal = False
                        break
                assert is_prefix_normal_1(word) == expected_normal, text

    @given(nonempty_words)
    def test_violation_witness_is_valid(self, w):
        violation = find_violation_1(w)
        if violation is None:
            return
        start, length = violation.factor_start, violation.factor_length
        factor = w[start - 1 : start - 1 + length]
        assert len(factor) == length
        assert factor.weight == violation.factor_ones
        assert w[:length].weight == violation.prefix_ones
        assert violation.factor_ones > violation.prefix_ones
        # minimality in length: all shorter factor lengths obey the prefix bound
        profile = compute_profile(w)
        for i in range(1, length):
            assert profile.max_ones_at(i) == w[:i].weight

    def test_stream_check(self):
        assert check_stream_prefix_normal(mechanical_stream(FIBONACCI_SLOPE, 0, upper=True), 4096) is None
        with pytest.raises(RangeError):
            check_stream_prefix_normal(fibonacci_stream(), 0)

    def test_one_plus_thue_morse_fails_fast(self):
        class Literal:
            def __init__(self, word):
                self.word = word

            def prefix(self, n):
                return self.word[:n]

        one_tm = FiniteWord("1") + morphic_fixpoint(THUE_MORSE_MORPHISM, 63)
        violation = check_stream_prefix_normal(Literal(one_tm), 4)
        assert violation is not None and violation.factor_length == 2


def witness(violation):
    return None if violation is None else tuple(violation)


@st.composite
def planted_sparse_words(draw) -> str:
    """``1 0^(q-1)`` repeated, prefix normal and run-sparse, with one 0 in
    its second half turned into a 1; unless that symbol was a 1 already, the
    1 before it and the planted one make a violation of length at most q."""
    q = draw(st.integers(14, 80))
    n = draw(st.integers(2 * q, 3000))
    symbols = bytearray((b"1" + b"0" * (q - 1)) * (n // q + 1))[:n]
    symbols[draw(st.integers(n // 2, n - 1))] = ord("1")
    return symbols.decode()


class TestRunPairs:
    """``find_violation_1`` finds the violating length of a word with few runs
    of 1s from its run pairs; ``_RUN_PAIR_FACTOR`` 0 sends every word with a 1
    to the window scan, and a huge factor sends every word to the run pairs."""

    @pytest.mark.parametrize("factor", [0, 10**12])
    def test_exhaustive_witness_up_to_length_12(self, factor, monkeypatch):
        monkeypatch.setattr(analysis, "_RUN_PAIR_FACTOR", factor)
        for n in range(1, 13):
            for value in range(1 << n):
                text = format(value, f"0{n}b")
                assert witness(find_violation_1(FiniteWord(text))) == brute_first_violation(text), text

    def test_short_run_words_on_the_run_pairs(self, monkeypatch):
        # short runs give many cores with few zeros; in 1100001010100011 a heavy
        # core over two runs and three zeros comes before the one over three
        # runs and two zeros, which gives the witness (length 5, start 7)
        monkeypatch.setattr(analysis, "_RUN_PAIR_FACTOR", 10**12)
        rng = random.Random(1613)
        texts = ["1100001010100011"]
        for _ in range(6000):
            runs = [("1" * rng.randint(1, 3), "0" * rng.randint(1, 4)) for _ in range(rng.randint(3, 10))]
            texts.append("".join(ones + zeros for ones, zeros in runs)[: rng.randint(8, 40)])
        for text in texts:
            assert witness(find_violation_1(FiniteWord(text))) == int64_first_violation(text), text

    @given(planted_sparse_words())
    @settings(max_examples=150, deadline=None)
    def test_planted_late_violation_matches_window_scan(self, text):
        w = FiniteWord(text)
        assert len(analysis._one_runs(w)[0]) ** 2 <= analysis._RUN_PAIR_FACTOR * len(w)
        found = find_violation_1(w)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_RUN_PAIR_FACTOR", 0)
            assert witness(found) == witness(find_violation_1(w))

    def test_dense_check_never_reaches_the_core_scan(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("core scan on a dense word")

        monkeypatch.setattr(analysis, "_lengths_from_cores", unreachable)
        rng = random.Random(2000)
        for _ in range(20):
            text = "10" + "".join(rng.choice("01") for _ in range(1998))  # like pnw check --word in the benchmark
            assert witness(find_violation_1(FiniteWord(text))) == int64_first_violation(text)


class TestPrefixNormalForms:
    def test_fibonacci_window_rows(self):
        profile = compute_profile(morphic_fixpoint(FIBONACCI_MORPHISM, 2048), 20)
        assert str(pnf1(profile)) == "10100101001001010010"
        assert str(pnf0(profile)) == "00100101001001010010"

    def test_thue_morse_pattern(self):
        profile = compute_profile(morphic_fixpoint(THUE_MORSE_MORPHISM, 256), 21)
        assert str(pnf1(profile)) == "1" + "10" * 10
        assert str(pnf0(profile)) == "0" + "01" * 10

    def test_word_is_its_own_pnf_when_normal(self):
        w = FiniteWord("1111")
        profile = compute_profile(w)
        assert pnf1(profile) == w
        assert pnf0(profile) == w

    @given(nonempty_words)
    def test_outputs_are_prefix_normal_both_ways(self, w):
        profile = compute_profile(w)
        assert is_prefix_normal_1(pnf1(profile))
        assert is_prefix_normal_0(pnf0(profile))

    @given(nonempty_words)
    def test_idempotence(self, w):
        profile = compute_profile(w)
        once = pnf1(profile)
        assert pnf1(compute_profile(once)) == once
        zero_once = pnf0(profile)
        assert pnf0(compute_profile(zero_once)) == zero_once

    def test_idempotence_long_random_words(self):
        rng = random.Random(640)
        for _ in range(100):
            length = rng.randint(64, 512)
            w = FiniteWord("".join(rng.choice("01") for _ in range(length)))
            profile = compute_profile(w)
            once = pnf1(profile)
            assert pnf1(compute_profile(once)) == once
            zero_once = pnf0(profile)
            assert pnf0(compute_profile(zero_once)) == zero_once

    @given(nonempty_words)
    def test_sandwich(self, w):
        profile = compute_profile(w)
        hi = pnf1(profile).prefix_sums()
        lo = pnf0(profile).prefix_sums()
        mid = w.prefix_sums()
        for i in range(1, len(w) + 1):
            assert lo[i] <= mid[i] <= hi[i]


class TestAbelianComplexity:
    def test_thue_morse_values(self):
        profile = compute_profile(morphic_fixpoint(THUE_MORSE_MORPHISM, 1024))
        assert abelian_complexity(profile, 7) == 2
        assert abelian_complexity(profile, 8) == 3

    def test_constant_word(self):
        profile = compute_profile(FiniteWord.zeros(16))
        assert all(abelian_complexity(profile, n) == 1 for n in range(1, 17))

    def test_range_validation(self):
        profile = compute_profile(FiniteWord("0101"))
        with pytest.raises(RangeError):
            abelian_complexity(profile, 5)

    @given(nonempty_words, st.data())
    @settings(max_examples=200)
    def test_matches_brute_force(self, w, data):
        n = data.draw(st.integers(min_value=1, max_value=len(w)))
        profile = compute_profile(w)
        assert abelian_complexity(profile, n) == brute_abelian_complexity(str(w), n)

    def test_matches_brute_force_long_random_words(self):
        rng = random.Random(2887)
        for _ in range(200):
            length = rng.randint(64, 512)
            text = "".join(rng.choice("01") for _ in range(length))
            profile = compute_profile(FiniteWord(text))
            for n in range(1, 65):
                assert abelian_complexity(profile, n) == brute_abelian_complexity(text, n)


class TestSymmetricWordDuality:
    """Words whose factor set is closed under complement (or complemented
    reversal) have equal max-1s and max-0s functions, complementary normal
    forms, and max-1s determined by the abelian complexity."""

    # paperfolding factors recur more slowly than thue-morse ones, so its
    # analysis window must be wider for the first 2048 lengths to be exact
    @pytest.mark.parametrize("make", [
        lambda: morphic_fixpoint(THUE_MORSE_MORPHISM, 8192),
        lambda: paperfolding(16384),
    ])
    def test_duality_on_reliable_window(self, make):
        window = 2048
        short = compute_profile(make(), window)
        for n in range(1, window + 1):
            assert short.max_ones_at(n) == short.max_zeros_at(n)
            psi = abelian_complexity(short, n)
            assert short.max_ones_at(n) == (psi + n - 1) // 2
            assert (psi + n - 1) % 2 == 0
        assert pnf0(short) == complement(pnf1(short))


class TestSturmianNormalForms:
    def test_normal_forms_are_shifted_characteristic_words(self):
        for slope in (FIBONACCI_SLOPE, SQRT2_SLOPE):
            word = mechanical_lower(slope, 0, 2048)
            profile = compute_profile(word)
            tail = str(characteristic_word(slope, 511))
            assert str(pnf1(profile))[:512] == "1" + tail
            assert str(pnf0(profile))[:512] == "0" + tail


class TestParikhSet:
    def test_fibonacci_length_five(self):
        profile = compute_profile(morphic_fixpoint(FIBONACCI_MORPHISM, 64))
        assert parikh_set(profile, 5) == {ParikhVector(3, 2), ParikhVector(4, 1)}

    def test_single_letter(self):
        profile = compute_profile(FiniteWord("0101"))
        assert parikh_set(profile, 1) == {ParikhVector(1, 0), ParikhVector(0, 1)}

    def test_all_ones(self):
        profile = compute_profile(FiniteWord.ones(3))
        assert parikh_set(profile, 3) == {ParikhVector(0, 3)}

    def test_rendering_ascends_by_ones(self):
        from prefixnormal import format_parikh_set

        profile = compute_profile(morphic_fixpoint(FIBONACCI_MORPHISM, 64))
        assert format_parikh_set(parikh_set(profile, 5)) == "(4,1) (3,2)"

    @given(nonempty_words, st.data())
    def test_matches_factor_enumeration(self, w, data):
        n = data.draw(st.integers(min_value=1, max_value=len(w)))
        text = str(w)
        expected = set()
        for j in range(len(text) - n + 1):
            ones = text[j : j + n].count("1")
            expected.add(ParikhVector(n - ones, ones))
        assert parikh_set(compute_profile(w), n) == expected


class TestMinDensity:
    def test_example_three_sevenths(self):
        report = min_density(FiniteWord("1110000"))
        assert (report.delta, report.iota, report.kappa) == (Fraction(3, 7), 7, 3)

    def test_minimum_is_global_not_final(self):
        # the density of the full word 111000010 is 4/9, but the prefix of
        # length 7 is thinner: the true minimum is 3/7 attained at 7
        report = min_density(FiniteWord("111000010"))
        assert (report.delta, report.iota) == (Fraction(3, 7), 7)

    def test_all_ones(self):
        report = min_density(FiniteWord.ones(5))
        assert (report.delta, report.iota, report.kappa) == (Fraction(1), 1, 1)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            min_density(FiniteWord(""))

    def test_iota_is_least_attaining_index(self):
        report = min_density(FiniteWord("101010"))
        assert (report.delta, report.iota) == (Fraction(1, 2), 2)

    def test_matches_fraction_scan_on_every_short_word(self):
        for n in range(1, 13):
            for text in map("".join, itertools.product("01", repeat=n)):
                report = min_density(FiniteWord(text))
                assert (report.delta, report.iota, report.kappa) == brute_min_density(text), text

    @given(nonempty_words)
    @settings(max_examples=200)
    def test_matches_brute_force(self, w):
        report = min_density(w)
        delta, iota, kappa = brute_min_density(str(w))
        assert (report.delta, report.iota, report.kappa) == (delta, iota, kappa)


class TestUltimatelyPeriodic:
    def test_canonicalization(self):
        up = UltimatelyPeriodicWord(FiniteWord("110"), FiniteWord("10"))
        assert (str(up.preperiod), str(up.period)) == ("1", "10")
        up2 = UltimatelyPeriodicWord(FiniteWord(""), FiniteWord("110110"))
        assert str(up2.period) == "110"
        assert up2 == UltimatelyPeriodicWord(FiniteWord(""), FiniteWord("110"))
        same = UltimatelyPeriodicWord(FiniteWord("11"), FiniteWord("01"))
        assert same == up and hash(same) == hash(up)

    def test_prefix(self):
        up = UltimatelyPeriodicWord(FiniteWord("1"), FiniteWord("10"))
        assert str(up.prefix(7)) == "1101010"
        assert up.prefix(0) == FiniteWord("")
        with pytest.raises(RangeError):
            up.prefix(-1)

    def test_primitive_root_matches_divisor_scan(self):
        for n in range(1, 13):
            for text in map("".join, itertools.product("01", repeat=n)):
                assert str(_primitive_root(FiniteWord(text))) == divisor_primitive_root(text), text

    def test_absorption_matches_rotation_loop(self):
        periods = [
            text
            for n in range(1, 5)
            for text in map("".join, itertools.product("01", repeat=n))
            if divisor_primitive_root(text) == text
        ]
        for n in range(9):
            for pre in map("".join, itertools.product("01", repeat=n)):
                for per in periods:
                    up = UltimatelyPeriodicWord(FiniteWord(pre), FiniteWord(per))
                    assert (str(up.preperiod), str(up.period)) == rotate_preperiod_into_period(pre, per)

    def test_matches_least_eventual_period_on_every_short_pair(self):
        for n in range(7):
            for pre in map("".join, itertools.product("01", repeat=n)):
                for m in range(1, 5):
                    for per in map("".join, itertools.product("01", repeat=m)):
                        up = UltimatelyPeriodicWord(FiniteWord(pre), FiniteWord(per))
                        assert (str(up.preperiod), str(up.period)) == least_eventual_period_form(pre, per)

    def test_absorption_of_a_long_preperiod(self):
        rng = random.Random(20)
        per = "".join(rng.choice("01") for _ in range(700)) + "1"
        for pre in ("0" + per * 3, per[5:] + per * 2, "1" + per[-9:]):
            up = UltimatelyPeriodicWord(FiniteWord(pre), FiniteWord(per))
            assert (str(up.preperiod), str(up.period)) == rotate_preperiod_into_period(pre, per)

    def test_empty_period_rejected(self):
        with pytest.raises(InvalidInputError):
            UltimatelyPeriodicWord(FiniteWord("1"), FiniteWord(""))

    def test_min_density_examples(self):
        assert min_density_up(UltimatelyPeriodicWord(FiniteWord("1"), FiniteWord("10"))) == Fraction(1, 2)
        assert min_density_up(UltimatelyPeriodicWord(FiniteWord("0"), FiniteWord("1"))) == 0
        assert min_density_up(UltimatelyPeriodicWord(FiniteWord(""), FiniteWord("110"))) == Fraction(2, 3)

    def test_matches_class_infimum_oracle_random(self):
        rng = random.Random(431)
        for _ in range(300):
            pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            per = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
            up = UltimatelyPeriodicWord(FiniteWord(pre), FiniteWord(per))
            assert min_density_up(up) == brute_min_density_ultimately_periodic(pre, per), (pre, per)

    def test_closed_form_lower_bounds_sampled_densities(self):
        rng = random.Random(77)
        for _ in range(50):
            pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
            per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
            up = UltimatelyPeriodicWord(FiniteWord(pre), FiniteWord(per))
            delta = min_density_up(up)
            horizon = 50 * (len(pre) + len(per) + 1)
            long_prefix = up.prefix(horizon)
            sampled = min_density(long_prefix).delta
            assert delta <= sampled


class TestBalanceAndPrepending:
    def test_thue_morse_two_balanced(self):
        tm = morphic_fixpoint(THUE_MORSE_MORPHISM, 1024)
        assert is_c_balanced(tm, 2)
        assert not is_c_balanced(tm, 1)

    def test_fibonacci_balanced(self):
        assert is_c_balanced(morphic_fixpoint(FIBONACCI_MORPHISM, 1024), 1)

    def test_unbalanced_example(self):
        assert not is_c_balanced(FiniteWord("1100"), 1)

    def test_empty_word_and_constant_validation(self):
        assert is_c_balanced(FiniteWord(""), 1)
        with pytest.raises(RangeError):
            is_c_balanced(FiniteWord("01"), 0)

    def test_exhaustive_against_profile_spread_up_to_length_12(self):
        for n in range(1, 13):
            for value in range(1 << n):
                text = format(value, f"0{n}b")
                maxs, mins = brute_profile(text)
                spread = max(hi - lo for hi, lo in zip(maxs, mins))
                word = FiniteWord(text)
                for c in (1, 2, 3):
                    assert is_c_balanced(word, c) == (spread <= c), (text, c)

    def test_prepend_bound_thue_morse(self):
        profile = compute_profile(morphic_fixpoint(THUE_MORSE_MORPHISM, 1024))
        assert prepend_ones_bound(profile, 2) == 6

    def test_prepend_bound_fibonacci(self):
        profile = compute_profile(morphic_fixpoint(FIBONACCI_MORPHISM, 1024))
        assert prepend_ones_bound(profile, 1) == 2

    def test_prepend_bound_is_sufficient(self):
        tm = morphic_fixpoint(THUE_MORSE_MORPHISM, 2000)
        bound = prepend_ones_bound(compute_profile(tm), 2)
        assert is_prefix_normal_1(FiniteWord.ones(bound) + tm)

    def test_no_bound_for_all_ones(self):
        with pytest.raises(NoBoundError):
            prepend_ones_bound(compute_profile(FiniteWord.ones(8)), 1)
        with pytest.raises(RangeError):
            prepend_ones_bound(compute_profile(FiniteWord("0110")), 0)

    def test_unbalanced_profile_rejected(self):
        with pytest.raises(InvalidInputError):
            prepend_ones_bound(compute_profile(FiniteWord("1100")), 1)

    def test_sturmian_prepend_count_from_slope(self):
        # a slope-a Sturmian word turns prefix normal after ceil(1/(1-a)) ones
        import math

        for slope in (FIBONACCI_SLOPE, SQRT2_SLOPE):
            count = math.ceil((1 - slope.value).reciprocal())
            word = mechanical_stream(slope, 0, upper=False).prefix(4096)
            assert is_prefix_normal_1(FiniteWord.ones(count) + word)

    def test_empirical_min_prepend(self):
        assert empirical_min_prepend(thue_morse_stream(), 2048, 8) == 2
        assert empirical_min_prepend(fibonacci_stream(), 2048, 4) == 1
        with pytest.raises(RangeError):
            empirical_min_prepend(fibonacci_stream(), 16, -1)

    def test_empirical_none_when_kmax_too_small(self):
        assert empirical_min_prepend(thue_morse_stream(), 2048, 1) is None


class TestLexOrderOperations:
    def test_prenecklace_examples(self):
        assert is_prenecklace_prefix(FiniteWord("11100") + FiniteWord("110") * 15)
        assert not is_prenecklace_prefix(FiniteWord("01") * 5)
        assert is_prenecklace_prefix(FiniteWord.ones(9))

    def test_prenecklace_matches_slicing_exhaustive(self):
        for n in range(15):
            for text in map("".join, itertools.product("01", repeat=n)):
                assert is_prenecklace_prefix(FiniteWord(text)) == slicing_is_prenecklace_prefix(text), text

    @pytest.mark.parametrize("kind", LONG_WORD_KINDS)
    def test_prenecklace_matches_slicing_long(self, kind):
        text = long_word(kind)
        assert is_prenecklace_prefix(FiniteWord(text)) == slicing_is_prenecklace_prefix(text)

    @given(words)
    def test_prefix_normal_implies_prenecklace(self, w):
        if is_prefix_normal_1(w):
            assert is_prenecklace_prefix(w)

    def test_max_min_word_periodic(self):
        w = FiniteWord("10") * 5
        assert str(max_word(w, 4)) == "1010"
        assert str(min_word(w, 4)) == "0101"

    def test_single_letter_extremes(self):
        w = FiniteWord("0011")
        assert str(max_word(w, 1)) == "1"
        assert str(min_word(w, 1)) == "0"

    def test_range_validation(self):
        with pytest.raises(RangeError):
            max_word(FiniteWord("01"), 3)

    @given(nonempty_words, st.data())
    @settings(max_examples=150)
    def test_extremes_match_enumeration(self, w, data):
        n = data.draw(st.integers(min_value=1, max_value=len(w)))
        text = str(w)
        windows = [text[j : j + n] for j in range(len(text) - n + 1)]
        assert str(max_word(w, n)) == max(windows)
        assert str(min_word(w, n)) == min(windows)

    def test_extremes_exhaustive_short_words(self):
        for length in range(1, 11):
            for bits in itertools.product("01", repeat=length):
                text = "".join(bits)
                w = FiniteWord(text)
                for n in range(1, length + 1):
                    assert (str(max_word(w, n)), str(min_word(w, n))) == brute_extreme_factors(text, n)

    @pytest.mark.parametrize("kind", LONG_WORD_KINDS)
    def test_extremes_match_enumeration_long(self, kind):
        text = long_word(kind)
        w, size = FiniteWord(text), len(text)
        run = max(len(r) for r in text.split("0"))
        for n in sorted({1, 7, max(run - 1, 1), run, run + 1, size // 2, size}):
            assert (str(max_word(w, n)), str(min_word(w, n))) == brute_extreme_factors(text, n), n

    def test_extremes_use_linear_memory(self):
        rng = random.Random(16)
        w = FiniteWord("".join(rng.choice("01") for _ in range(16000)))
        tracemalloc.start()
        try:
            for n in (1, 100, 4000, 8000, 16000):
                max_word(w, n)
                min_word(w, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_characteristic_extremes(self):
        cw = characteristic_word(FIBONACCI_SLOPE, 2048)
        text = str(cw)
        for n in (1, 7, 100, 512):
            assert str(max_word(cw, n)) == ("1" + text)[:n]
            assert str(min_word(cw, n)) == ("0" + text)[:n]

    @given(nonempty_words, st.data())
    def test_pnf_bounds_extreme_factors(self, w, data):
        n = data.draw(st.integers(min_value=1, max_value=len(w)))
        profile = compute_profile(w)
        assert str(pnf1(profile))[:n] >= str(max_word(w, n))
        assert str(pnf0(profile))[:n] <= str(min_word(w, n))
