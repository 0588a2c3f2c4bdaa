"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per criterion;
add ``-s`` to see the explicit PASS messages and timings.
"""

import random
import time
from fractions import Fraction

from prefixnormal import (
    FiniteWord,
    SlopeSpec,
    UltimatelyPeriodicWord,
    abelian_complexity,
    build_index,
    check_stream_prefix_normal,
    compute_profile,
    density_stages,
    empirical_min_prepend,
    find_violation_1,
    flipext,
    geometric_density_sequence,
    is_prefix_normal_1,
    is_prenecklace_prefix,
    lazy_alpha_flipext_stream,
    max_word,
    mechanical_stream,
    mechanical_upper,
    min_density,
    min_density_up,
    min_word,
    pnf0,
    pnf1,
    reliable_pnf_window,
)
from prefixnormal.generators import (
    FIBONACCI_MORPHISM,
    FIBONACCI_SLOPE,
    SQRT2_SLOPE,
    aperiodic_density_stream,
    champernowne_stream,
    characteristic_word,
    fibonacci_stream,
    flipext_stream,
    morphic_fixpoint,
    paperfolding_stream,
    thue_morse_stream,
)

from oracles import (
    brute_min_density_ultimately_periodic,
    factor_one_counts,
)

GOLDEN_CONJUGATE = SlopeSpec.quadratic(-1, 1, 2, 5)

RATIONAL_SLOPES = [SlopeSpec.rational(1, 3), SlopeSpec.rational(2, 5)]
IRRATIONAL_SLOPES = [SQRT2_SLOPE, FIBONACCI_SLOPE, GOLDEN_CONJUGATE]
ALL_SLOPES = RATIONAL_SLOPES + IRRATIONAL_SLOPES

FIB_MAX_ZEROS_20 = (1, 2, 2, 3, 4, 4, 5, 5, 6, 7, 7, 8, 9, 9, 10, 10, 11, 12, 12, 13)
FIB_MAX_ONES_20 = (1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 8, 8)
FIB_PNF0_20 = "00100101001001010010"
FIB_PNF1_20 = "10100101001001010010"

PAPERFOLDING_PSI_20 = [2, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 4, 5, 4, 3, 4, 5, 6, 5]


def test_criterion_01_fibonacci_window_rows():
    start = time.perf_counter()
    window = morphic_fixpoint(FIBONACCI_MORPHISM, 2048)
    profile = compute_profile(window, 20)
    max_zeros = tuple(profile.max_zeros_at(i) for i in range(1, 21))
    assert max_zeros == FIB_MAX_ZEROS_20
    assert profile.max_ones == FIB_MAX_ONES_20
    assert str(pnf0(profile)) == FIB_PNF0_20
    assert str(pnf1(profile)) == FIB_PNF1_20
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS 01 fibonacci profile and normal forms, length 20 ({elapsed:.3f}s)")


def test_criterion_02_paperfolding_abelian_complexity():
    start = time.perf_counter()
    profile = compute_profile(paperfolding_stream().prefix(2048))
    values = [abelian_complexity(profile, n) for n in range(1, 21)]
    assert values == PAPERFOLDING_PSI_20
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS 02 paperfolding abelian complexity 1..20 ({elapsed:.3f}s)")


def test_criterion_03_thue_morse_complexity_and_normal_forms():
    profile = compute_profile(thue_morse_stream().prefix(8192))
    for n in range(1, 513):
        assert abelian_complexity(profile, n) == (2 if n % 2 else 3), n
    window = reliable_pnf_window(8192)
    assert str(pnf1(profile))[:window] == ("1" + "10" * window)[:window]
    assert str(pnf0(profile))[:window] == ("0" + "01" * window)[:window]
    print(f"PASS 03 thue-morse complexity to 512 and normal forms to {window}")


def test_criterion_04_prepend_minimality():
    start = time.perf_counter()
    assert empirical_min_prepend(thue_morse_stream(), 10_000, 8) == 2
    assert empirical_min_prepend(fibonacci_stream(), 10_000, 4) == 1
    assert empirical_min_prepend(champernowne_stream(), 10_000, 12) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS 04 prepend minimality: thue-morse 2, fibonacci 1, champernowne none ({elapsed:.3f}s)")


def test_criterion_05_lazy_extension_equals_upper_mechanical():
    seed = FiniteWord("1")
    for slope in ALL_SLOPES:
        lazy = lazy_alpha_flipext_stream(seed, slope).prefix(10_000)
        assert lazy == mechanical_upper(slope, 0, 10_000), str(slope)
    print(f"PASS 05 lazy extension stream equals upper mechanical word ({len(ALL_SLOPES)} slopes)")


def test_criterion_06_mechanical_normality_verdicts():
    for slope in ALL_SLOPES:
        stream = mechanical_stream(slope, 0, upper=True)
        assert check_stream_prefix_normal(stream, 10_000) is None, str(slope)
    for slope in IRRATIONAL_SLOPES:
        stream = mechanical_stream(slope, 0, upper=False)
        assert check_stream_prefix_normal(stream, 10_000) is not None, str(slope)
    print("PASS 06 upper mechanical words normal, lower words fail")


def _assert_word_agrees_with_oracle(text: str) -> None:
    word = FiniteWord(text)
    counts = factor_one_counts(text)
    n = len(text)
    prefix_ones = 0
    expected_normal = True
    expected_max, expected_min = [], []
    for i in range(1, n + 1):
        prefix_ones += text[i - 1] == "1"
        expected_max.append(max(counts[i]))
        expected_min.append(min(counts[i]))
        if prefix_ones != expected_max[-1]:
            expected_normal = False
    profile = compute_profile(word)
    assert list(profile.max_ones) == expected_max, text
    assert list(profile.min_ones) == expected_min, text
    assert is_prefix_normal_1(word) == expected_normal, text
    for i in range(1, n + 1):
        assert abelian_complexity(profile, i) == len(counts[i]), (text, i)
    index = build_index(word)
    for i in range(1, n + 1):
        achievable = counts[i]
        assert achievable == set(
            range(profile.min_ones_at(i), profile.max_ones_at(i) + 1)
        ), (text, i)
        for ones in (0, min(achievable), max(achievable), i):
            assert index.query(i - ones, ones) == (ones in achievable), (text, i, ones)


def test_criterion_07_oracle_suites():
    start = time.perf_counter()
    total = 0
    for n in range(1, 15):
        for value in range(1 << n):
            _assert_word_agrees_with_oracle(format(value, f"0{n}b"))
            total += 1
    assert total == 32_766
    rng = random.Random(20260809)
    for _ in range(1000):
        length = rng.randint(1, 256)
        _assert_word_agrees_with_oracle(
            "".join(rng.choice("01") for _ in range(length))
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS 07 oracle agreement on 32766 exhaustive + 1000 random words ({elapsed:.1f}s)")


def _random_prefix_normal_seeds(count: int, rng: random.Random) -> list[FiniteWord]:
    seeds = []
    while len(seeds) < count:
        length = rng.randint(1, 16)
        text = "1" + "".join(rng.choice("01") for _ in range(length - 1))
        word = FiniteWord(text)
        if is_prefix_normal_1(word):
            seeds.append(word)
    return seeds


def test_criterion_08_minimum_density_properties():
    rng = random.Random(8128)
    for seed in _random_prefix_normal_seeds(20, rng):
        reference = min_density(seed)
        word = seed
        for _ in range(10):
            word = flipext(word)
            report = min_density(word)
            assert report == reference, (str(seed), str(word))
    for _ in range(500):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
        up = UltimatelyPeriodicWord(FiniteWord(pre), FiniteWord(per))
        assert min_density_up(up) == brute_min_density_ultimately_periodic(pre, per), (pre, per)
    print("PASS 08 extension preserves density report; periodic infimum matches oracle")


def test_criterion_09_staged_density_construction():
    target = Fraction(2, 5)
    stages = density_stages(target, geometric_density_sequence(target), 6)
    previous_run = 0
    for stage in stages:
        report = min_density(stage.word)
        assert report.delta >= stage.target, stage.index
        assert report.iota == len(stage.word), stage.index
        assert stage.zeros_run > previous_run, stage.index
        previous_run = stage.zeros_run
        assert find_violation_1(stage.word) is None, stage.index
    print(f"PASS 09 staged construction stages 1..6, final length {len(stages[-1].word)}")


def _builtin_prefixes(length: int) -> dict[str, FiniteWord]:
    sources = {
        "fibonacci": fibonacci_stream(),
        "thue-morse": thue_morse_stream(),
        "paperfolding": paperfolding_stream(),
        "champernowne": champernowne_stream(),
        "flipext-omega(110100)": flipext_stream(FiniteWord("110100")),
        "density-staircase(2/5)": aperiodic_density_stream(
            Fraction(2, 5), geometric_density_sequence(Fraction(2, 5))
        ),
    }
    for slope in ALL_SLOPES:
        sources[f"mech-upper({slope})"] = mechanical_stream(slope, 0, upper=True)
        sources[f"mech-lower({slope})"] = mechanical_stream(slope, 0, upper=False)
    sources["lazy(2/5)"] = lazy_alpha_flipext_stream(FiniteWord("1"), SlopeSpec.rational(2, 5))
    return {name: stream.prefix(length) for name, stream in sources.items()}


def test_criterion_10_lexicographic_suite():
    prefixes = _builtin_prefixes(2048)
    normal_count = 0
    for name, word in prefixes.items():
        if is_prefix_normal_1(word):
            normal_count += 1
            assert is_prenecklace_prefix(word), name
    assert normal_count >= 6  # implication exercised, not vacuous

    spinner = FiniteWord("11100") + FiniteWord("110") * 300
    assert is_prenecklace_prefix(spinner)
    assert not is_prefix_normal_1(spinner)

    for name, word in prefixes.items():
        profile = compute_profile(word)
        one_form, zero_form = str(pnf1(profile)), str(pnf0(profile))
        for n in range(1, 513):
            assert one_form[:n] >= str(max_word(word, n)), (name, n)
            assert zero_form[:n] <= str(min_word(word, n)), (name, n)

    for slope in (FIBONACCI_SLOPE, SQRT2_SLOPE):
        cw = characteristic_word(slope, 2048)
        text = str(cw)
        for n in range(1, 513):
            assert str(max_word(cw, n)) == ("1" + text)[:n], (str(slope), n)
            assert str(min_word(cw, n)) == ("0" + text)[:n], (str(slope), n)
    print("PASS 10 lexicographic suite: prenecklaces, normal-form bounds, extreme factors")
