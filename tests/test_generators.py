"""Unit tests for slopes, streams, classic words, and the extension operators."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixnormal import (
    FIBONACCI_MORPHISM,
    FIBONACCI_SLOPE,
    SQRT2_SLOPE,
    THUE_MORSE_MORPHISM,
    FiniteWord,
    InvalidInputError,
    MorphismSpec,
    QuadraticIrrational,
    RangeError,
    ResourceLimitError,
    SlopeSpec,
    UnsupportedParameterError,
    WordStream,
    aperiodic_density_stream,
    champernowne,
    champernowne_stream,
    characteristic_stream,
    characteristic_word,
    complement,
    density_stages,
    fibonacci_stream,
    flipext,
    flipext_stream,
    geometric_density_sequence,
    lazy_alpha_flipext,
    lazy_alpha_flipext_stream,
    mechanical_lower,
    mechanical_stream,
    mechanical_upper,
    min_density,
    morphic_fixpoint,
    morphic_stream,
    paperfolding,
    paperfolding_stream,
    prefix_density,
    thue_morse_stream,
)
from prefixnormal import generators
from prefixnormal.analysis import find_violation_1, is_prefix_normal_1
from prefixnormal.generators import MAX_RADICAND, PERIOD_CHUNK

import oracles

GOLDEN_CONJUGATE = SlopeSpec.quadratic(-1, 1, 2, 5)  # (sqrt(5) - 1) / 2
#: The (sqrt(d) - 1)/c slopes of the generate-exact benchmark workload.
BENCHMARK_SLOPES = [
    SlopeSpec.quadratic(-1, 1, c, d)
    for d, c in ((2, 1), (5, 3), (7, 4), (10, 5), (11, 6), (13, 6), (14, 7), (15, 7))
]
#: Every prefix normal word of length at most 10 that contains a 1.
PREFIX_NORMAL_SEEDS = [
    text
    for n in range(1, 11)
    for text in map("".join, itertools.product("01", repeat=n))
    if text[0] == "1" and is_prefix_normal_1(FiniteWord(text))
]


class TestQuadraticIrrational:
    def test_rejects_rational_radicands(self):
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(1, 0, 2, 5)
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(1, 1, 2, 9)
        with pytest.raises(InvalidInputError):
            QuadraticIrrational(1, 1, 0, 5)

    def test_square_factor_extraction(self):
        assert QuadraticIrrational(0, 1, 1, 8) == QuadraticIrrational(0, 2, 1, 2)

    def test_normalization(self):
        assert QuadraticIrrational(2, -2, -4, 5) == QuadraticIrrational(-1, 1, 2, 5)

    def test_floor_beatty_values(self):
        # floor(n * (sqrt(5)-1)/2) for n = 1..10, frozen from high-precision evaluation
        alpha = QuadraticIrrational(-1, 1, 2, 5)
        got = [math.floor(alpha * n) for n in range(1, 11)]
        assert got == [0, 1, 1, 2, 3, 3, 4, 4, 5, 6]

    def test_floor_ceil_negative(self):
        alpha = QuadraticIrrational(-1, 1, 1, 2)  # sqrt(2) - 1
        assert math.floor(-alpha) == -1
        assert math.ceil(alpha * 2) == 1

    def test_reciprocal(self):
        alpha = QuadraticIrrational(-1, 1, 1, 2)
        assert alpha.reciprocal() == QuadraticIrrational(1, 1, 1, 2)  # 1/(sqrt2-1) = sqrt2+1

    def test_exact_comparisons(self):
        alpha = QuadraticIrrational(-1, 1, 1, 2)  # 0.41421356...
        assert Fraction(2, 5) < alpha < Fraction(3, 7)
        assert alpha > 0 and alpha < 1
        # convergents of sqrt(2)-1 sandwich it tightly
        assert Fraction(408, 985) < alpha < Fraction(169, 408)

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50).filter(bool),
        st.integers(1, 30),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(-1000, 1000),
        st.integers(1, 200),
    )
    @settings(max_examples=300)
    def test_comparison_agrees_with_high_precision(self, a, b, c, d, p, q):
        value = QuadraticIrrational(a, b, c, d)
        exact = value._cmp(Fraction(p, q))
        approx = (a + b * math.sqrt(d)) / c - p / q
        if abs(approx) > 1e-9:
            assert exact == (1 if approx > 0 else -1)

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50).filter(bool),
        st.integers(1, 30),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    @settings(max_examples=300)
    def test_floor_is_exact(self, a, b, c, d):
        value = QuadraticIrrational(a, b, c, d)
        m = math.floor(value)
        assert value > Fraction(m) and value < Fraction(m + 1)
        assert math.ceil(value) == m + 1

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50).filter(bool),
        st.integers(1, 30),
        st.sampled_from([2, 3, 8, 12, 18, 50]),
        st.integers(-100, 100),
        st.integers(1, 30),
    )
    @settings(max_examples=200)
    def test_derived_values_match_the_constructor(self, a, b, c, d, p, q):
        value = QuadraticIrrational(a, b, c, d)
        a, b, c, d = value.a, value.b, value.c, value.d
        assert value + Fraction(p, q) == QuadraticIrrational(a * q + p * c, b * q, c * q, d)
        assert value.reciprocal() == QuadraticIrrational(c * a, -c * b, a * a - b * b * d, d)
        if p:
            assert value * Fraction(p, q) == QuadraticIrrational(a * p, b * p, c * q, d)

    def test_floor_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        rng = random.Random(314159)
        for _ in range(500):
            a = rng.randint(-10**6, 10**6)
            b = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            c = rng.randint(1, 10**4)
            d = rng.choice([2, 3, 5, 6, 7, 10, 13])
            value = QuadraticIrrational(a, b, c, d)
            oracle = mpmath.floor((a + b * mpmath.sqrt(d)) / c)
            assert math.floor(value) == int(oracle), (a, b, c, d)


class TestSlopeSpec:
    def test_parse_rational(self):
        assert SlopeSpec.parse("2/5").value == Fraction(2, 5)
        assert SlopeSpec.parse("1").value == Fraction(1)

    def test_parse_quadratic(self):
        assert SlopeSpec.parse("(-1+1*sqrt(5))/2") == GOLDEN_CONJUGATE
        assert SlopeSpec.parse("(3-1*sqrt(5))/2") == FIBONACCI_SLOPE

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            SlopeSpec.parse("sqrt(2)")

    def test_str_roundtrip(self):
        for spec in (SlopeSpec.rational(2, 5), FIBONACCI_SLOPE, SQRT2_SLOPE):
            assert SlopeSpec.parse(str(spec)) == spec


class TestWordStream:
    def test_prefix_consistency(self):
        stream = fibonacci_stream()
        long = stream.prefix(64)
        assert stream.prefix(10) == long[:10]
        assert stream.produced == 64

    def test_negative_and_cap(self):
        stream = thue_morse_stream()
        with pytest.raises(RangeError):
            stream.prefix(-1)
        with pytest.raises(ResourceLimitError):
            stream.prefix((1 << 26) + 1)

    def test_all_builtin_streams_consistent(self):
        factories = [
            fibonacci_stream,
            thue_morse_stream,
            paperfolding_stream,
            champernowne_stream,
            lambda: mechanical_stream(SQRT2_SLOPE, 0, upper=True),
            lambda: mechanical_stream(SlopeSpec.rational(2, 5), Fraction(1, 3)),
            lambda: flipext_stream(FiniteWord("10")),
            lambda: lazy_alpha_flipext_stream(FiniteWord("1"), SlopeSpec.rational(2, 5)),
            lambda: aperiodic_density_stream(
                Fraction(2, 5), geometric_density_sequence(Fraction(2, 5))
            ),
        ]
        for factory in factories:
            fresh = factory()
            full = factory().prefix(10_000)
            for n in (1, 17, 256, 9999):
                assert full[:n] == fresh.prefix(n)

    def test_finite_source_rejected(self):
        stream = WordStream(iter([1, 0, 1]))
        assert stream.prefix(3) == FiniteWord("101")
        with pytest.raises(InvalidInputError):
            stream.prefix(4)


class TestMechanicalWords:
    def test_slope_zero_and_one(self):
        assert mechanical_lower(SlopeSpec.rational(0), Fraction(1, 3), 5) == FiniteWord.zeros(5)
        assert mechanical_lower(SlopeSpec.rational(1), 0, 5) == FiniteWord.ones(5)
        assert mechanical_upper(SlopeSpec.rational(1), 0, 3) == FiniteWord.ones(3)

    def test_one_half_upper(self):
        assert str(mechanical_upper(SlopeSpec.rational(1, 2), 0, 6)) == "101010"

    def test_fibonacci_identities(self):
        fib = morphic_fixpoint(FIBONACCI_MORPHISM, 9)
        assert str(mechanical_upper(FIBONACCI_SLOPE, 0, 10)) == "1" + str(fib)
        assert str(mechanical_lower(FIBONACCI_SLOPE, 0, 5)) == "00100"

    def test_upper_equals_one_plus_fixpoint_long(self):
        n = 10_000
        upper = mechanical_upper(FIBONACCI_SLOPE, 0, n)
        assert upper == FiniteWord("1") + morphic_fixpoint(FIBONACCI_MORPHISM, n - 1)

    def test_rational_intercept(self):
        # floor(i/2 + 1/2) differences: 1 at odd i
        assert str(mechanical_lower(SlopeSpec.rational(1, 2), Fraction(1, 2), 6)) == "101010"

    def test_validation(self):
        with pytest.raises(RangeError):
            mechanical_lower(SlopeSpec.rational(3, 2), 0, 4)
        with pytest.raises(RangeError):
            mechanical_lower(SlopeSpec.rational(1, 2), Fraction(7, 5), 4)
        with pytest.raises(UnsupportedParameterError):
            mechanical_lower(SQRT2_SLOPE, Fraction(1, 2), 4)

    def test_characteristic_word(self):
        assert str(characteristic_word(FIBONACCI_SLOPE, 20)) == "01001010010010100101"
        assert str(characteristic_word(FIBONACCI_SLOPE, 1)) == "0"
        # frozen from exact floor evaluation of (sqrt(2)-1)*(n+1) differences
        assert str(characteristic_word(SQRT2_SLOPE, 8)) == "01010010"

    def test_characteristic_requires_irrational_in_range(self):
        with pytest.raises(UnsupportedParameterError):
            characteristic_word(SlopeSpec.rational(1, 2), 5)
        with pytest.raises(RangeError):
            characteristic_word(SlopeSpec.quadratic(1, 1, 2, 5), 5)

    def test_characteristic_vs_shifted_upper(self):
        for slope in (SQRT2_SLOPE, GOLDEN_CONJUGATE):
            upper = mechanical_upper(slope, 0, 257)
            assert characteristic_word(slope, 256) == upper[1:]


@pytest.fixture(scope="module")
def odd_part_rule():
    """The paperfolding rule applied per index, up to 2**20 + 1 symbols."""
    return oracles.paperfolding_symbols(2**20 + 1)


class TestClassicWords:
    def test_thue_morse_golden_prefix(self):
        assert str(morphic_fixpoint(THUE_MORSE_MORPHISM, 32)) == (
            "01101001100101101001011001101001"
        )

    def test_fibonacci_golden_prefix(self):
        assert str(morphic_fixpoint(FIBONACCI_MORPHISM, 20)) == "01001010010010100101"

    def test_constant_morphism(self):
        doubler = MorphismSpec(FiniteWord("00"), FiniteWord("1"), seed=0)
        assert morphic_fixpoint(doubler, 4) == FiniteWord.zeros(4)

    def test_non_prolongable_rejected(self):
        with pytest.raises(InvalidInputError):
            MorphismSpec(FiniteWord("10"), FiniteWord("1"), seed=0)
        with pytest.raises(InvalidInputError):
            MorphismSpec(FiniteWord("0"), FiniteWord("1"), seed=0)

    def test_paperfolding_golden_prefix(self):
        assert str(paperfolding(31)) == "0010011000110110001001110011011"
        assert paperfolding(1) == FiniteWord("0")
        assert paperfolding(3)[2] == 1

    def test_paperfolding_by_reflection_every_short_length(self, odd_part_rule):
        for n in range(1, 5001):
            assert bytes(paperfolding(n)) == odd_part_rule[:n], n

    @pytest.mark.parametrize("k", range(21))
    def test_paperfolding_by_reflection_around_powers_of_two(self, k, odd_part_rule):
        # the reflection's blocks end at 2**k - 1 symbols
        for n in {2**k - 1, 2**k, 2**k + 1} - {0}:
            assert bytes(paperfolding(n)) == odd_part_rule[:n], n

    def test_champernowne_golden_prefix(self):
        assert str(champernowne(34)) == "0110111001011101111000100110101011"
        assert str(champernowne(1)) == "0"
        assert str(champernowne(3)) == "011"

    def test_length_validation(self):
        with pytest.raises(RangeError):
            paperfolding(0)
        with pytest.raises(RangeError):
            champernowne(0)

    def test_thue_morse_factors_closed_under_complement(self):
        text = str(morphic_fixpoint(THUE_MORSE_MORPHISM, 2048))
        for length in range(1, 33):
            factors = {text[j : j + length] for j in range(len(text) - length + 1)}
            for factor in factors:
                assert str(complement(FiniteWord(factor))) in factors


class TestFlipext:
    def test_examples(self):
        assert str(flipext(FiniteWord("1"))) == "11"
        assert str(flipext(FiniteWord("10"))) == "101"
        # minimal k for 1101 is 0: every factor of 11011 obeys the prefix bound
        assert str(flipext(FiniteWord("1101"))) == "11011"

    def test_minimality_against_brute_force(self):
        rng = random.Random(99)
        seeds = []
        while len(seeds) < 25:
            n = rng.randint(1, 12)
            text = "1" + "".join(rng.choice("01") for _ in range(n - 1))
            w = FiniteWord(text)
            if is_prefix_normal_1(w):
                seeds.append(w)
        for w in seeds:
            extended = flipext(w)
            run = len(extended) - len(w) - 1
            for smaller in range(run):
                candidate = w + FiniteWord.zeros(smaller) + FiniteWord.ones(1)
                assert not is_prefix_normal_1(candidate), (str(w), smaller)
            assert is_prefix_normal_1(extended)

    def test_rejects_bad_seeds(self):
        with pytest.raises(InvalidInputError):
            flipext(FiniteWord("00"))
        with pytest.raises(InvalidInputError):
            flipext(FiniteWord("011"))

    def test_stream_prefixes_are_prefix_normal(self):
        stream = flipext_stream(FiniteWord("110100"))
        prefix = stream.prefix(600)
        assert find_violation_1(prefix) is None

    def test_stream_repeats_all_ones(self):
        assert flipext_stream(FiniteWord("1")).prefix(6) == FiniteWord.ones(6)

    def test_density_invariance(self):
        w = FiniteWord("10")
        stream = flipext_stream(w)
        report = min_density(w)
        for k in range(1, 6):
            prefix = stream.prefix(k * report.iota)
            assert prefix_density(prefix, k * report.iota) == report.delta


class TestLazyFlipext:
    def test_worked_example(self):
        first = lazy_alpha_flipext(FiniteWord("111"), SQRT2_SLOPE)
        assert str(first) == "11100001"
        assert str(lazy_alpha_flipext(first, SQRT2_SLOPE)) == "1110000101"

    def test_runs_are_inverse_floors(self):
        # after a weight-m prefix of length L the run is floor(m / slope) - L;
        # test_worked_example pins 3*(sqrt2+1) = 7.24... from 111
        assert str(lazy_alpha_flipext(FiniteWord("11"), SlopeSpec.rational(1, 3))) == "1100001"  # 2*3 = 6
        assert str(lazy_alpha_flipext(FiniteWord("1"), SQRT2_SLOPE)) == "101"  # sqrt2+1 = 2.41...

    def test_slope_one(self):
        assert str(lazy_alpha_flipext(FiniteWord("1"), SlopeSpec.rational(1))) == "11"
        assert lazy_alpha_flipext_stream(FiniteWord("1"), SlopeSpec.rational(1)).prefix(
            7
        ) == FiniteWord.ones(7)

    def test_one_half_stream(self):
        # the first extension already appends one 0 (density of 10 is exactly 1/2),
        # in line with the upper mechanical word of slope 1/2
        stream = lazy_alpha_flipext_stream(FiniteWord("1"), SlopeSpec.rational(1, 2))
        assert str(stream.prefix(7)) == "1010101"
        assert stream.prefix(6) == mechanical_upper(SlopeSpec.rational(1, 2), 0, 6)

    def test_matches_upper_mechanical(self):
        slopes = [
            SlopeSpec.rational(1, 3),
            SlopeSpec.rational(2, 5),
            SQRT2_SLOPE,
            FIBONACCI_SLOPE,
            GOLDEN_CONJUGATE,
        ]
        for slope in slopes:
            stream = lazy_alpha_flipext_stream(FiniteWord("1"), slope)
            assert stream.prefix(3000) == mechanical_upper(slope, 0, 3000)

    def test_validation(self):
        with pytest.raises(RangeError):
            lazy_alpha_flipext(FiniteWord("1"), SlopeSpec.rational(0))
        with pytest.raises(InvalidInputError):
            lazy_alpha_flipext(FiniteWord("10"), SlopeSpec.rational(2, 3))  # density 1/2 < 2/3
        with pytest.raises(InvalidInputError):
            lazy_alpha_flipext(FiniteWord("011"), SlopeSpec.rational(1, 3))

    def test_results_stay_prefix_normal(self):
        word = FiniteWord("1")
        slope = SlopeSpec.rational(3, 7)
        for _ in range(12):
            word = lazy_alpha_flipext(word, slope)
            assert is_prefix_normal_1(word)
            assert min_density(word).delta >= Fraction(3, 7)

    def test_matches_oracle_from_every_short_seed(self):
        slopes = [SlopeSpec.rational(1, 3), SlopeSpec.rational(2, 5), SQRT2_SLOPE, GOLDEN_CONJUGATE]
        checked = 0
        for seed in (s for s in PREFIX_NORMAL_SEEDS if len(s) <= 8):
            delta = min_density(FiniteWord(seed)).delta
            for slope in (s for s in slopes if s.compare(delta) <= 0):
                got = lazy_alpha_flipext_stream(FiniteWord(seed), slope).prefix(400)
                assert bytes(got) == oracles.lazy_flipext_symbols(seed, slope, 400), (seed, str(slope))
                step = bytes(lazy_alpha_flipext(FiniteWord(seed), slope))  # up to the next 1
                assert bytes(got).startswith(step) and step.index(1, len(seed)) == len(step) - 1
                checked += 1
        assert checked > 100

    def test_zero_run_is_maximal(self):
        # appended run k satisfies: density still meets the slope at w + 0^k,
        # and would drop below it at w + 0^(k+1)
        cases = [
            (FiniteWord("1"), SQRT2_SLOPE),
            (FiniteWord("11010"), SlopeSpec.rational(2, 5)),
            (FiniteWord("111"), SQRT2_SLOPE),
            (FiniteWord("110100"), SlopeSpec.rational(1, 2)),
            (FiniteWord("1"), FIBONACCI_SLOPE),
        ]
        for word, slope in cases:
            extended = lazy_alpha_flipext(word, slope)
            run = len(extended) - len(word) - 1
            kept = min_density(word + FiniteWord.zeros(run)).delta
            assert slope.compare(kept) <= 0
            dropped = min_density(word + FiniteWord.zeros(run + 1)).delta
            assert slope.compare(dropped) > 0


class TestStagedDensityConstruction:
    def test_first_stage_one_half(self):
        stages = density_stages(Fraction(1, 3), [Fraction(1, 2), Fraction(2, 5)], 1)
        assert str(stages[0].word) == "1111100000"

    def test_stage_properties(self):
        target = Fraction(2, 5)
        stages = density_stages(target, geometric_density_sequence(target), 6)
        previous_run = 0
        for stage in stages:
            report = min_density(stage.word)
            assert report.delta >= stage.target
            assert report.iota == len(stage.word)
            assert is_prefix_normal_1(stage.word)
            assert stage.zeros_run > previous_run
            previous_run = stage.zeros_run
        assert all(s.k is not None and s.k >= 2 for s in stages[1:])

    def test_stream_matches_stages(self):
        target = Fraction(2, 5)
        stages = density_stages(target, geometric_density_sequence(target), 5)
        stream = aperiodic_density_stream(target, geometric_density_sequence(target))
        assert stream.prefix(len(stages[-1].word)) == stages[-1].word

    def test_irrational_target(self):
        # upper convergents of sqrt(2) - 1, strictly decreasing toward it
        seq = [Fraction(1, 2), Fraction(5, 12), Fraction(29, 70), Fraction(169, 408)]
        for target in (SQRT2_SLOPE, SQRT2_SLOPE.value):
            stages = density_stages(target, seq, 4)
            for stage, a in zip(stages, seq):
                assert min_density(stage.word).delta >= a
            with pytest.raises(InvalidInputError):
                density_stages(target, [Fraction(2, 5)], 1)  # below sqrt(2) - 1

    def test_sequence_validation(self):
        with pytest.raises(InvalidInputError):
            density_stages(Fraction(1, 3), [Fraction(1, 2), Fraction(1, 2)], 2)
        with pytest.raises(InvalidInputError):
            density_stages(Fraction(1, 3), [Fraction(1, 4)], 1)
        with pytest.raises(InvalidInputError):
            density_stages(Fraction(1, 3), [Fraction(3, 2)], 1)
        with pytest.raises(InvalidInputError):
            density_stages(Fraction(1, 3), [Fraction(1, 2)], 2)

    @pytest.mark.parametrize(
        "target, limit, a1",
        [
            (Fraction(1, 3), Fraction(1, 3), None),
            (Fraction(1, 3), Fraction(1, 3), Fraction(2, 5)),  # k from 8 down to 3
            (Fraction(2, 5), Fraction(2, 5), None),
            (SQRT2_SLOPE, Fraction(29, 70), None),
        ],
        ids=["1/3", "1/3-from-2/5", "2/5", "sqrt2-1"],
    )
    def test_k_is_least_with_longer_zero_run(self, target, limit, a1):
        # the densities fall toward ``limit``, which is at or above the target
        stages = density_stages(target, geometric_density_sequence(limit, a1), 6)
        for before, stage in zip(stages, stages[1:]):
            word = before.word
            expected = oracles.longer_zero_run(len(word), word.weight, stage.target, before.zeros_run)
            assert (stage.k, stage.zeros_run) == expected

    @pytest.mark.parametrize(
        "target, limit",
        [(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 5), Fraction(2, 5)), (SQRT2_SLOPE, Fraction(29, 70))],
        ids=["1/3", "2/5", "sqrt2-1"],
    )
    def test_stage_is_a_word_power_then_zeros(self, target, limit):
        stages = density_stages(target, geometric_density_sequence(limit), 5)
        for before, stage in zip(stages, stages[1:]):
            power = before.word * stage.k
            assert stage.word == power + FiniteWord.zeros(stage.zeros_run)
            assert oracles.flipext_symbols(str(before.word), len(power)) == bytes(power)

    def test_stages_and_lazy_streams_skip_the_flipext_engine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("flipext engine used")

        monkeypatch.setattr(generators, "_flipext_runs", refuse)
        monkeypatch.setattr(generators, "_run_blocks", refuse)
        stages = density_stages(Fraction(1, 3), geometric_density_sequence(Fraction(1, 3)), 6)
        assert len(stages[-1].word) == 651
        for seed, slope in [("1", SQRT2_SLOPE), ("11010", SlopeSpec.rational(2, 5))]:
            got = lazy_alpha_flipext_stream(FiniteWord(seed), slope).prefix(1000)
            assert bytes(got) == oracles.lazy_flipext_symbols(seed, slope, 1000)

    def test_sqrt2_convergents_reach_stage_five(self):
        # the upper convergents of sqrt(2) - 1, whose stage 5 has about 1.8M symbols
        densities = [Fraction(1, 2), Fraction(5, 12), Fraction(29, 70), Fraction(169, 408), Fraction(985, 2378)]
        start = time.perf_counter()
        stages = density_stages(SQRT2_SLOPE, densities, 5)
        assert time.perf_counter() - start < 2.0
        last = stages[-1]
        assert (len(last.word), last.k, last.zeros_run) == (1_787_773, 44, 9)

    def test_oversized_stage_fails_fast(self):
        densities = [Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**15)]  # k near 3e14
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError):
                density_stages(Fraction(1, 3), densities, 2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("given", [0, 1, 3])
    def test_short_sequence_names_the_missing_stage(self, given):
        densities = list(itertools.islice(geometric_density_sequence(Fraction(1, 3)), given))
        with pytest.raises(InvalidInputError, match=f"ended before stage {given + 1}$"):
            density_stages(Fraction(1, 3), densities, given + 1)

    def test_geometric_sequence_defaults(self):
        seq = geometric_density_sequence(Fraction(2, 5))
        assert next(seq) == Fraction(7, 10)
        assert next(seq) == Fraction(11, 20)
        with pytest.raises(RangeError):
            next(geometric_density_sequence(Fraction(3, 2)))
        with pytest.raises(InvalidInputError):
            next(geometric_density_sequence(Fraction(1, 2), Fraction(1, 3)))


@st.composite
def rational_mechanical_cases(draw):
    q = draw(st.integers(1, 500))
    v = draw(st.integers(1, 500))
    slope = SlopeSpec.rational(draw(st.integers(0, q)), q)
    intercept = Fraction(draw(st.integers(0, v - 1)), v)
    return slope, intercept, draw(st.integers(0, 3 * q))


@st.composite
def lazy_flipext_cases(draw):
    seed = draw(st.sampled_from(PREFIX_NORMAL_SEEDS))
    # any slope in (0, delta] is admissible; scale delta down, times an
    # irrational factor below 1 for the quadratic cases
    scaled = min_density(FiniteWord(seed)).delta * Fraction(draw(st.integers(1, 20)), 20)
    base = draw(st.sampled_from([None, SQRT2_SLOPE, FIBONACCI_SLOPE, GOLDEN_CONJUGATE]))
    slope = SlopeSpec(scaled if base is None else base.value * scaled)
    return seed, slope, draw(st.integers(len(seed), 1500))


class TestBlockProducersAgainstOracles:
    """The block producers against the former one-symbol-at-a-time code."""

    @given(rational_mechanical_cases(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rational_period_tiling(self, case, upper):
        slope, intercept, n = case
        got = mechanical_stream(slope, intercept, upper).prefix(n)
        assert bytes(got) == oracles.mechanical_symbols(slope, intercept, n, upper)

    @pytest.mark.parametrize("upper", [False, True])
    def test_period_longer_than_a_chunk(self, upper):
        q = 2 * PERIOD_CHUNK + 11
        slope, intercept, n = SlopeSpec.rational(PERIOD_CHUNK - 1, q), Fraction(5, 7), 2 * q + 3
        got = mechanical_stream(slope, intercept, upper).prefix(n)
        assert bytes(got) == oracles.mechanical_symbols(slope, intercept, n, upper)

    @pytest.mark.parametrize(
        "slope", [FIBONACCI_SLOPE, SQRT2_SLOPE, GOLDEN_CONJUGATE, *BENCHMARK_SLOPES], ids=str
    )
    def test_quadratic_standard_words(self, slope):
        n = 2000
        upper = oracles.mechanical_symbols(slope, 0, n + 1, upper=True)
        assert bytes(mechanical_upper(slope, 0, n)) == upper[:n]
        assert bytes(mechanical_lower(slope, 0, n)) == oracles.mechanical_symbols(slope, 0, n, False)
        assert bytes(characteristic_word(slope, n)) == upper[1:]

    @given(
        st.integers(-60, 60),
        st.integers(-20, 20).filter(bool),
        st.integers(1, 60),
        st.sampled_from([2, 3, 5, 6, 7, 10, 13, 17]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_quadratic_slopes(self, a, b, c, d, upper):
        value = QuadraticIrrational(a, b, c, d)
        slope = SlopeSpec(value - math.floor(value))  # irrational, so strictly inside (0, 1)
        got = mechanical_stream(slope, 0, upper).prefix(400)
        assert bytes(got) == oracles.mechanical_symbols(slope, 0, 400, upper)

    @given(lazy_flipext_cases())
    @settings(max_examples=150, deadline=None)
    def test_lazy_flipext(self, case):
        seed, slope, n = case
        got = lazy_alpha_flipext_stream(FiniteWord(seed), slope).prefix(n)
        assert bytes(got) == oracles.lazy_flipext_symbols(seed, slope, n)

    def test_flipext_engine_from_every_short_seed(self):
        for seed in PREFIX_NORMAL_SEEDS:
            got = flipext_stream(FiniteWord(seed)).prefix(2000)
            assert bytes(got) == oracles.flipext_symbols(seed, 2000), seed

    @pytest.mark.parametrize(
        "n", [1, PERIOD_CHUNK - 1, PERIOD_CHUNK, PERIOD_CHUNK + 1, 3 * PERIOD_CHUNK + 7, 10**5]
    )
    def test_classic_word_blocks(self, n):
        assert bytes(fibonacci_stream().prefix(n)) == oracles.morphic_symbols("01", "0", 0, n)
        assert bytes(thue_morse_stream().prefix(n)) == oracles.morphic_symbols("01", "10", 0, n)
        assert bytes(paperfolding_stream().prefix(n)) == oracles.paperfolding_symbols(n)
        assert bytes(champernowne_stream().prefix(n)) == oracles.champernowne_symbols(n)

    @pytest.mark.parametrize(
        "image0, image1, seed", [("001", "10", 0), ("0", "110", 1), ("01", "1", 0)]
    )
    def test_other_morphisms(self, image0, image1, seed):
        m = MorphismSpec(FiniteWord(image0), FiniteWord(image1), seed=seed)
        assert bytes(morphic_fixpoint(m, 10**5)) == oracles.morphic_symbols(image0, image1, seed, 10**5)

    def test_slow_morphism_fills_whole_blocks(self):
        # 0 -> 01, 1 -> 1 has one unexpanded tape symbol at a time, yet each
        # block keeps expanding until it holds PERIOD_CHUNK symbols
        n = 10**5
        blocks = generators._morphic_blocks(MorphismSpec(FiniteWord("01"), FiniteWord("1")))
        word = bytearray()
        count = 0
        while len(word) < n:
            word += next(blocks)
            count += 1
        assert count <= -(-n // PERIOD_CHUNK) + 2
        assert bytes(word[:n]) == oracles.morphic_symbols("01", "1", 0, n)

    def test_finite_fixpoint_raises(self):
        stream = morphic_stream(MorphismSpec(FiniteWord("01"), FiniteWord(""), seed=0))
        assert str(stream.prefix(2)) == "01"
        with pytest.raises(InvalidInputError, match="finite"):
            stream.prefix(3)


#: First partial quotient about 2.4e12: its standard words can never be built.
TINY_SLOPE = "(-1+1*sqrt(2))/1000000000000"


class TestBoundedWork:
    """Huge periods and partial quotients cost only the symbols that are read."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mechanical_stream(SlopeSpec.rational(1, 10**12)),
            lambda: mechanical_stream(SlopeSpec.parse(TINY_SLOPE)),
            lambda: mechanical_stream(SlopeSpec.parse(TINY_SLOPE), upper=True),
            lambda: characteristic_stream(SlopeSpec.parse(TINY_SLOPE)),
            lambda: lazy_alpha_flipext_stream(FiniteWord("1"), SlopeSpec.parse(TINY_SLOPE)),
        ],
        ids=["rational-1e12", "quadratic-lower", "quadratic-upper", "characteristic", "lazy-flipext"],
    )
    def test_short_prefix_is_cheap(self, make):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            word = make().prefix(10)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == 10 and word.weight <= 1
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_radicand_reduced_once(self, monkeypatch):
        calls = []
        strip = generators._strip_square_factors

        def counted(b, d):
            calls.append(d)
            return strip(b, d)

        monkeypatch.setattr(generators, "_strip_square_factors", counted)
        slope = SlopeSpec.parse("(-1+1*sqrt(9999999967))/100000")  # a prime radicand
        assert len(calls) == 1
        for stream in (
            mechanical_stream(slope),
            characteristic_stream(slope),
            lazy_alpha_flipext_stream(FiniteWord("1"), slope),
        ):
            stream.prefix(100_000)
        assert len(calls) == 1

    def test_radicand_limit(self):
        assert SlopeSpec.quadratic(-1, 1, 10**5, MAX_RADICAND - 1).compare(0) > 0
        with pytest.raises(ResourceLimitError):
            SlopeSpec.parse("(-1+1*sqrt(100000000000000000003))/10000000000")
        with pytest.raises(ResourceLimitError):
            QuadraticIrrational(0, 1, 1, MAX_RADICAND + 1)
