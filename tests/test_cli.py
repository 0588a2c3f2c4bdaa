"""End-to-end tests for the command-line interface."""

import contextlib
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefixnormal
from prefixnormal import FiniteWord, analysis, cli, complement, compute_profile, generators, word_core
from prefixnormal.analysis import WINDOW_FACTOR
from prefixnormal.cli import build_parser, main

from oracles import brute_profile, int64_profile, lazy_flipext_pnf0, paperfolding_symbols


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def patch_stream(monkeypatch, name, factory):
    """Build the builtin ``name`` with ``factory``, keeping its reason and forms."""
    monkeypatch.setitem(cli._BUILTINS, name, cli._BUILTINS[name]._replace(stream=factory))


def count_builds(monkeypatch, name):
    """The list to which each build of the builtin ``name`` appends its --seed."""
    builds, build = [], cli._BUILTINS[name].stream

    def counting(args):
        builds.append(args.seed)
        return build(args)

    patch_stream(monkeypatch, name, counting)
    return builds


@pytest.fixture
def scanned(monkeypatch):
    """The factor lengths that every scan asks its backend for."""
    lengths, rule = [], word_core._backend

    def recording(w, asked):
        lengths.extend(asked)
        return rule(w, asked)

    monkeypatch.setattr(word_core, "_backend", recording)
    return lengths


class TestGenerate:
    def test_fibonacci(self, capsys):
        code, out, _ = run_cli(["generate", "fibonacci", "-n", "34"], capsys=capsys)
        assert code == 0
        assert out.strip() == "0100101001001010010100100101001001"

    def test_thue_morse(self, capsys):
        code, out, _ = run_cli(["generate", "thue-morse", "-n", "32"], capsys=capsys)
        assert out.strip() == "01101001100101101001011001101001"

    def test_mechanical_first_symbol(self, capsys):
        code, out, _ = run_cli(
            ["generate", "mechanical", "--upper", "--slope", "(-1+1*sqrt(5))/2", "-n", "1"],
            capsys=capsys,
        )
        assert code == 0 and out.strip() == "1"

    def test_unknown_builtin_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "nosuch", "-n", "5"])
        assert exc.value.code == 2

    def test_missing_length_usage_error(self, capsys):
        code, _, err = run_cli(["generate", "fibonacci"], capsys=capsys)
        assert code == 2 and "length" in err

    @pytest.mark.parametrize(
        "name, option", [("mechanical", "--slope"), ("flipext-omega", "--seed"), ("density-staircase", "--alpha")]
    )
    def test_missing_parameter_usage_error(self, name, option, capsys):
        assert run_cli(["generate", name, "-n", "5"], capsys=capsys) == (2, "", f"error: {name} requires {option}\n")

    def test_malformed_slope_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["generate", "mechanical", "--slope", "sqrt(2)", "-n", "4"], capsys=capsys
        )
        assert code == 2

    def test_two_sources_rejected(self, capsys):
        code, _, _ = run_cli(["generate", "fibonacci", "--word", "01", "-n", "4"], capsys=capsys)
        assert code == 2

    def test_literal_word_echo(self, capsys):
        code, out, _ = run_cli(["generate", "--word", "0110", "-n", "3"], capsys=capsys)
        assert code == 0 and out.strip() == "011"

    @pytest.mark.parametrize("source", ["--word", "--file", "builtin"])
    def test_negative_length_usage_error(self, source, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0101\n")
        argv = {"--word": ["--word", "0101"], "--file": ["--file", str(path)], "builtin": ["fibonacci"]}
        code, out, err = run_cli(["generate", *argv[source], "-n", "-1"], capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: prefix length must be non-negative\n"

    def test_file_source(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("10101\n")
        code, out, _ = run_cli(["generate", "--file", str(path)], capsys=capsys)
        assert code == 0 and out.strip() == "10101"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(
            ["generate", "fibonacci", "-n", "8", "-o", str(target)], capsys=capsys
        )
        assert code == 0 and out == ""
        assert target.read_text() == "01001010\n"

    def test_density_staircase(self, capsys):
        code, out, _ = run_cli(
            ["generate", "density-staircase", "--alpha", "2/5", "-n", "10"], capsys=capsys
        )
        assert code == 0 and out.strip() == "1111111000"

    def test_flipext_omega(self, capsys):
        code, out, _ = run_cli(
            ["generate", "flipext-omega", "--seed", "1", "-n", "6"], capsys=capsys
        )
        assert code == 0 and out.strip() == "111111"

    def test_huge_radicand_is_resource_limit(self, capsys):
        slope = "(-1+1*sqrt(100000000000000000003))/10000000000"
        code, out, err = run_cli(
            ["generate", "mechanical", "--slope", slope, "-n", "5"], capsys=capsys
        )
        assert code == 2 and out == "" and "radicand" in err


class TestCheck:
    def test_normal(self, capsys):
        code, out, _ = run_cli(["check", "--word", "11100110101"], capsys=capsys)
        assert code == 0 and out.strip() == "NORMAL"

    def test_violation(self, capsys):
        code, out, _ = run_cli(["check", "--word", "11100110110"], capsys=capsys)
        assert code == 1
        assert out.strip() == "len=5 start=6 ones=4 prefix_ones=3"

    @pytest.mark.parametrize("command", ["check", "pnf"])
    def test_negative_prepend_fails_before_the_source_is_built(self, command, monkeypatch, capsys):
        def unbuilt(args):
            raise AssertionError("a negative --prepend-ones must be rejected first")

        patch_stream(monkeypatch, "fibonacci", unbuilt)
        argv = [command, "fibonacci", "-n", "20000000", "--prepend-ones", "-1"]
        assert run_cli(argv, capsys=capsys) == (2, "", "error: --prepend-ones must be non-negative\n")

    @pytest.mark.parametrize("source", [["--word", "1"], ["fibonacci", "-n", "5"]])
    @pytest.mark.parametrize("count", [generators.MATERIALIZE_CAP + 1, 10**10, "whole-word-past"])
    def test_prepend_past_the_cap_fails_before_the_source_is_built(self, source, count, monkeypatch, capsys):
        # neither the source nor 1^count is built: a failed allocation would exit 1, the code for a violation
        if count == "whole-word-past":  # the 1s fit, but with the 1 or 5 symbols after them the word is one too long
            count = generators.MATERIALIZE_CAP + 1 - (1 if source[0] == "--word" else 5)

        def unbuilt(*args):
            raise AssertionError("--prepend-ones past the cap must be rejected first")

        monkeypatch.setattr(cli, "_word", unbuilt)
        patch_stream(monkeypatch, "fibonacci", unbuilt)
        error = f"error: refusing to materialize more than {generators.MATERIALIZE_CAP} symbols\n"
        assert run_cli(["check", *source, "--prepend-ones", str(count)], capsys=capsys) == (2, "", error)

    @pytest.mark.parametrize(
        "prepend, n", [(0, 40), (1, 36)], ids=["lazy-flipext-omega", "lazy-flipext-omega-prepended"]
    )
    def test_a_word_whose_window_passes_the_cap_is_scanned(self, prepend, n, monkeypatch, scanned, capsys):
        # the K + n = 40 or 37 symbols fit a cap of 40, the |seed| + K + n = 44 or 41 of the forms window do not;
        # of the two scans, the seed's of 1101 and the word's, only the word's reads factors of its own length
        argv = ["check", "lazy-flipext-omega", "--slope", "1/2", "--seed", "1101", "-n", str(n)]
        monkeypatch.setattr(word_core, "MATERIALIZE_CAP", 40)
        assert run_cli([*argv, "--prepend-ones", str(prepend)], capsys=capsys) == (0, "NORMAL\n", "")
        assert prepend + n in scanned

    def test_prepended_fibonacci(self, capsys):
        code, out, _ = run_cli(
            ["check", "fibonacci", "--prepend-ones", "1", "-n", "10000"], capsys=capsys
        )
        assert code == 0 and out.strip() == "NORMAL"

    def test_sparse_word_is_checked_in_lanes_unless_numpy_is_loaded(self, monkeypatch, capsys):
        # 1 0^63 repeated: 500 1s in 32,000 symbols, checked on the span rows of its 500 1s:
        # in numpy's blocks once numpy is loaded, else in lanes, 500 rows of 500 lanes
        word, lengths = ("1" + "0" * 63) * 500, range(1, 32001)
        source = ["lazy-flipext-omega", "--slope", "1/64", "-n", "32000"]
        assert run_cli(["generate", *source], capsys=capsys)[1] == word + "\n"
        assert run_cli(["check", *source], capsys=capsys) == (0, "NORMAL\n", "")
        assert word_core._backend(FiniteWord(word), lengths) is word_core._span_extremes
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert word_core._backend(FiniteWord(word), lengths) is word_core._lane_extremes
        assert run_cli(["check", *source], capsys=capsys) == (0, "NORMAL\n", "")

    def test_planted_violation_scans_no_window(self, capsys):
        word = ("1" + "0" * 63) * 500
        word = word[:20000] + "1" + word[20001:]  # 1 0^31 1 at position 19,969
        code, out, _ = run_cli(["check", "--word", word], capsys=capsys)
        assert (code, out) == (1, "len=33 start=19969 ones=2 prefix_ones=1\n")
        assert word_core._backend(FiniteWord(word), range(1, len(word) + 1)) is word_core._span_extremes

    def test_non_utf8_file_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_bytes(b"\xff\xfe0101\n")
        code, out, err = run_cli(["check", "--file", str(path)], capsys=capsys)
        assert code == 3 and out == "" and "decode" in err

    def test_non_binary_file_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("0110x\n")
        code, out, err = run_cli(["check", "--file", str(path)], capsys=capsys)
        assert code == 3 and out == "" and "not a binary word" in err

    def test_non_binary_word_is_usage_error(self, capsys):
        code, out, err = run_cli(["check", "--word", "0110x"], capsys=capsys)
        assert code == 2 and out == "" and "not a binary word" in err

    def test_length_beyond_word_is_usage_error(self, capsys):
        argv = ["check", "--word", "0101", "-n", "9"]
        assert run_cli(argv, capsys=capsys) == (2, "", "error: requested length 9 exceeds word length 4\n")

    def test_zero_flavour(self, capsys):
        code, out, _ = run_cli(["check", "--word", "0010", "--zero"], capsys=capsys)
        assert code == 0
        code, out, _ = run_cli(["check", "--word", "1100", "--zero"], capsys=capsys)
        assert code == 1


class TestPnf:
    def test_fibonacci_window_rows(self, capsys):
        code, out, err = run_cli(["pnf", "fibonacci", "-n", "20"], capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["10100101001001010010", "00100101001001010010"]
        assert err.startswith("note: all 20 positions are exact: the Fibonacci word is Sturmian")

    def test_trusted_range_is_not_certified(self, capsys):
        # champernowne holds 1^i (2^i - 1 in binary) for every i, so its pnf1 is 1^40,
        # but 1^40 first occurs far past any window: the window's forms claim nothing
        for window, length in (([], WINDOW_FACTOR * 40), (["--window", "100000"], 100000)):
            code, out, err = run_cli(["pnf", "champernowne", "-n", "40", *window], capsys=capsys)
            assert code == 0 and "0" in out.split()[0]
            assert err == f"note: normal forms of the first {length} symbols; not certified for the infinite word\n"

    def test_thue_morse_pattern(self, capsys):
        code, out, _ = run_cli(["pnf", "thue-morse", "-n", "21"], capsys=capsys)
        assert out.splitlines() == ["1" + "10" * 10, "0" + "01" * 10]

    def test_literal_word(self, capsys):
        code, out, err = run_cli(["pnf", "--word", "1111"], capsys=capsys)
        assert out.splitlines() == ["1111", "1111"]
        assert err == ""  # a literal is its own window: its normal forms are exact

    def test_explicit_window(self, capsys):
        code, out, _ = run_cli(["pnf", "thue-morse", "-n", "16", "--window", "4096"], capsys=capsys)
        assert code == 0 and out.splitlines()[0] == "1" + "10" * 7 + "1"

    @pytest.mark.parametrize("window", ["0", "1", "-7"])
    def test_short_window_is_clamped_to_length(self, window, capsys):
        clamped = run_cli(["pnf", "fibonacci", "-n", "5", "--window", window], capsys=capsys)
        assert clamped == run_cli(["pnf", "fibonacci", "-n", "5", "--window", "5"], capsys=capsys)

    @pytest.mark.parametrize("command", [["pnf"], ["plotdata", "--pnf"]])
    def test_profiles_only_printed_lengths(self, command, scanned, capsys):
        # the 4n window is read whole, but only lengths 1..n are profiled
        code, _, _ = run_cli(command + ["champernowne", "-n", "50"], capsys=capsys)
        assert code == 0 and scanned == list(range(1, 51))

    def test_prepended_builtin_is_its_own_normal_form(self, capsys):
        # 11 + thue-morse is prefix normal, so its 1-form is the word itself, exact for the infinite word
        # (output covers the full prepended word, length n + 2)
        code, out, err = run_cli(
            ["pnf", "thue-morse", "--prepend-ones", "2", "-n", "20"], capsys=capsys
        )
        assert code == 0 and err.startswith("note: all 22 positions are exact: ")
        _, generated, _ = run_cli(["generate", "thue-morse", "-n", "20"], capsys=capsys)
        assert out.splitlines() == ["11" + generated.strip(), "0" + "01" * 10 + "0"]

    @pytest.mark.parametrize("window", [20, 120, 400])
    def test_prepended_builtin_in_a_window(self, window, capsys):
        # 1^3 and the first max(W, n) symbols are profiled; both forms are printed to length 3 + n
        argv = ["pnf", "paperfolding", "-n", "50", "--prepend-ones", "3", "--window", str(window)]
        code, out, err = run_cli(argv, capsys=capsys)
        wide = "111" + str(generators.paperfolding_stream().prefix(max(window, 50)))
        assert code == 0 and out.split() == oracle_forms(brute_profile(wide), 53)
        assert err == f"note: normal forms of the first {len(wide)} symbols; not certified for the infinite word\n"


def oracle_forms(profile, n):
    """pnf1 and pnf0 to length ``n`` from an oracle's max and min 1s per length."""
    return ["".join(str(b - a) for a, b in itertools.pairwise([0, *counts[:n]])) for counts in profile]


def exact_forms(argv, capsys):
    """The two normal forms that ``argv`` prints, checked to be reported exact."""
    code, out, err = run_cli(argv, capsys=capsys)
    assert code == 0 and " positions are exact: " in err
    return tuple(map(FiniteWord, out.split()))


def window_forms(window, n):
    profile = compute_profile(window, n)
    return analysis.pnf1(profile), analysis.pnf0(profile)


QUADRATIC_SLOPES = ["(3-1*sqrt(5))/2", "(-1+1*sqrt(2))/1", "(-1+1*sqrt(3))/2", "(5-1*sqrt(7))/3", "(-2+1*sqrt(13))/3"]


class TestExactForms:
    """Sturmian, mechanical and Thue-Morse sources print the closed normal
    forms of their infinite words, which a long enough window confirms."""

    @staticmethod
    def assert_every_4n_window_agrees(source, pnf1, pnf0):
        """For every n up to N = len(pnf1), the 4n window's normal forms are
        the first n symbols of ``pnf1`` and ``pnf0``. A window's heaviest
        (lightest) factor of length i only gains (loses) 1s as the window
        grows, so length i agrees on every window from 4i to 4N once it
        agrees on those two."""
        window = source.prefix(WINDOW_FACTOR * len(pnf1))
        assert window_forms(window, len(pnf1)) == (pnf1, pnf0)
        sums = window.prefix_sums()
        pairs = zip(itertools.accumulate(bytes(pnf1)), itertools.accumulate(bytes(pnf0)))
        for i, (heaviest, lightest) in enumerate(pairs, 1):
            weights = sums[i : WINDOW_FACTOR * i + 1] - sums[: (WINDOW_FACTOR - 1) * i + 1]
            assert (weights.max(), weights.min()) == (heaviest, lightest), i

    def test_thue_morse_every_length_to_2000(self, capsys):
        pnf1, pnf0 = exact_forms(["pnf", "thue-morse", "-n", "2000"], capsys)
        assert (pnf1[:5], pnf0[:5]) == (FiniteWord("11010"), FiniteWord("00101"))
        self.assert_every_4n_window_agrees(generators.thue_morse_stream(), pnf1, pnf0)
        for n in (1, 2, 3, 350, 1777):
            assert exact_forms(["pnf", "thue-morse", "-n", str(n)], capsys) == (pnf1[:n], pnf0[:n])

    def test_fibonacci_every_length_to_400(self, capsys):
        pnf1, pnf0 = exact_forms(["pnf", "fibonacci", "-n", "400"], capsys)
        self.assert_every_4n_window_agrees(generators.fibonacci_stream(), pnf1, pnf0)
        for n in (1, 2, 3, 89, 233):
            assert exact_forms(["pnf", "fibonacci", "-n", str(n)], capsys) == (pnf1[:n], pnf0[:n])

    @pytest.mark.parametrize("n", [7920, 7960, 8000])
    def test_fibonacci_at_the_benchmark_lengths(self, n, capsys):
        window = generators.fibonacci_stream().prefix(WINDOW_FACTOR * n)
        assert exact_forms(["pnf", "fibonacci", "-n", str(n)], capsys) == window_forms(window, n)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.integers(1, 1500),
        p_share=st.fractions(0, 1),
        intercept=st.fractions(0, 1, max_denominator=40).filter(lambda x: x < 1),
        upper=st.booleans(),
        n=st.integers(1, 200),
    )
    def test_rational_slopes_match_a_whole_period(self, q, p_share, intercept, upper, n):
        # a p/q word repeats its first q symbols, so n + q of them hold every factor up to length n
        p = round(p_share * q)
        direction = "--upper" if upper else "--lower"
        argv = ["pnf", "mechanical", "--slope", f"{p}/{q}", "--intercept", f"{intercept}", direction, "-n", str(n)]
        stream = generators.mechanical_stream(generators.SlopeSpec.rational(p, q), intercept, upper=upper)
        out, err = io.StringIO(), io.StringIO()  # capsys is function-scoped, so hypothesis cannot reuse it
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0 and " positions are exact: " in err.getvalue()
        assert tuple(map(FiniteWord, out.getvalue().split())) == window_forms(stream.prefix(n + q), n)

    @pytest.mark.parametrize("slope", QUADRATIC_SLOPES)
    @pytest.mark.parametrize("direction", ["--upper", "--lower"])
    def test_quadratic_slopes_match_a_64n_window(self, slope, direction, capsys):
        n = 300
        forms = exact_forms(["pnf", "mechanical", "--slope", slope, direction, "-n", str(n)], capsys)
        stream = generators.mechanical_stream(generators.SlopeSpec.parse(slope), 0, upper=direction == "--upper")
        assert forms == window_forms(stream.prefix(64 * n), n)

    @pytest.mark.parametrize("slope", ["1/3", "2/7", "(-1+1*sqrt(2))/1", "(3-1*sqrt(5))/2"])
    def test_lazy_flipext_from_seed_1_is_the_upper_mechanical_word(self, slope, capsys):
        upper = ["mechanical", "--upper", "--slope", slope, "-n", "500"]
        lazy = ["lazy-flipext-omega", "--slope", slope, "-n", "500"]
        assert run_cli(["generate"] + lazy, capsys=capsys) == run_cli(["generate"] + upper, capsys=capsys)
        assert exact_forms(["pnf"] + lazy, capsys) == exact_forms(["pnf"] + upper, capsys)

    def test_lazy_flipext_from_another_seed_is_exact(self, capsys):
        # 11 0^4 and then the slope-1/3 word from its 7th symbol: 110000 (100)^omega, a factor
        # of length up to 40 of which occurs in its first 6 + 3 + 40 symbols
        forms = exact_forms(["pnf", "lazy-flipext-omega", "--slope", "1/3", "--seed", "11", "-n", "40"], capsys)
        stream = generators.lazy_alpha_flipext_stream(FiniteWord("11"), generators.SlopeSpec.rational(1, 3))
        assert forms == window_forms(stream.prefix(49), 40)
        assert tuple(map(str, forms)) == ("110000" + "100" * 11 + "1", "0000" + "100" * 12)

    @pytest.mark.parametrize("seed", ["1", "110"])
    @pytest.mark.parametrize("command", [["pnf"], ["plotdata", "--pnf"]])
    def test_lazy_flipext_is_built_once(self, command, seed, monkeypatch, capsys):
        builds = count_builds(monkeypatch, "lazy-flipext-omega")
        argv = command + ["lazy-flipext-omega", "--slope", "1/3", "--seed", seed, "-n", "12"]
        assert run_cli(argv, capsys=capsys)[0] == 0 and builds == [seed]

    @pytest.mark.parametrize("command", [["pnf"], ["plotdata", "--pnf"]])
    def test_paperfolding_is_built_once(self, command, monkeypatch, capsys):
        # the one stream prints its prefix, and its forms read no stream
        builds = count_builds(monkeypatch, "paperfolding")
        assert run_cli(command + ["paperfolding", "-n", "100"], capsys=capsys)[0] == 0 and builds == [None]

    @pytest.mark.parametrize("seed", ["1", "10"])
    def test_seeds_of_one_stream_print_one_pair_of_forms(self, seed, capsys):
        # from seed 10 the stream is 10 0 U[3:] for the upper mechanical word U = 100..., so U itself
        lazy = ["lazy-flipext-omega", "--slope", "(-1+1*sqrt(5))/4", "--seed", seed, "-n", "59"]
        upper = ["mechanical", "--upper", "--slope", "(-1+1*sqrt(5))/4", "-n", "59"]
        assert run_cli(["generate"] + lazy, capsys=capsys) == run_cli(["generate"] + upper, capsys=capsys)
        forms = exact_forms(["pnf"] + lazy, capsys)
        assert forms == exact_forms(["pnf"] + upper, capsys) and str(forms[1]).endswith("010010001001")

    def test_a_run_of_0s_after_the_seed_is_a_factor(self, capsys):
        # 11111101 0^4 and then the mechanical tail, which holds no 00
        argv = ["pnf", "lazy-flipext-omega", "--seed", "11111101", "--slope", "(-1+1*sqrt(7))/3", "-n", "2"]
        code, out, err = run_cli(argv, capsys=capsys)
        assert (code, out) == (0, "11\n00\n") and err.startswith("note: all 2 positions are exact: ")

    def test_lazy_flipext_from_short_seeds(self, capsys):
        # pnf and plotdata --pnf against the int64 profile of the first E + 12n + 600 symbols, for E the
        # end of the 0s after the seed: prefix normal seeds of up to 10 symbols, p/60 and quadratic slopes
        rng = random.Random(1811)
        seeds = [
            FiniteWord(bits) for k in range(1, 11) for bits in itertools.product((0, 1), repeat=k)
            if 1 in bits and analysis.is_prefix_normal_1(FiniteWord(bits))
        ]
        slopes = [*QUADRATIC_SLOPES, "(-1+1*sqrt(5))/4", "(-1+1*sqrt(7))/3", *(f"{p}/60" for p in range(1, 61))]
        cases = 0
        while cases < 300:
            seed, text, n = rng.choice(seeds), rng.choice(slopes), rng.randint(1, 90)
            slope = generators.SlopeSpec.parse(text)
            if slope.compare(analysis.min_density(seed).delta) > 0:
                continue
            cases += 1
            stream = generators.lazy_alpha_flipext_stream(seed, slope)
            window = str(stream.prefix(generators._lazy_end(seed, slope) + 12 * n + 600))
            expected = oracle_forms(int64_profile(window, n), n)
            source = ["lazy-flipext-omega", "--slope", text, "--seed", str(seed), "-n", str(n)]
            assert list(map(str, exact_forms(["pnf", *source], capsys))) == expected, source
            rows = TestPlotdata.prefix_sum_rows([FiniteWord(window[:n]), *map(FiniteWord, expected)])
            assert run_cli(["plotdata", *source, "--pnf"], capsys=capsys)[:2] == (0, rows), source

    def test_lazy_flipext_matches_a_pass_per_start(self, capsys):
        # past the lengths that end in the seed's run of 0s one start, the heaviest above the slope, is read
        rng = random.Random(33)
        cases = [("110" * 100, "1/2", 20000), ("11111" + "10" * 15, "(-1+1*sqrt(5))/4", 5000)]
        while len(cases) < 40:
            noise = FiniteWord(rng.choices(b"\0\1", weights=(1, 3), k=rng.randint(8, 60)))
            seed = analysis.pnf1(compute_profile(noise))
            text = rng.choice([*QUADRATIC_SLOPES, *(f"{p}/{q}" for q in (7, 30, 61) for p in range(1, q))])
            if 1 in bytes(seed) and generators.SlopeSpec.parse(text).compare(analysis.min_density(seed).delta) <= 0:
                cases.append((str(seed), text, rng.randint(1, 3000)))
        for seed, text, n in cases:
            source = ["pnf", "lazy-flipext-omega", "--slope", text, "--seed", seed, "-n", str(n)]
            pnf0 = lazy_flipext_pnf0(seed, generators.SlopeSpec.parse(text), n)
            assert bytes(exact_forms(source, capsys)[1]) == pnf0, source

    def test_sparse_rational_slope_is_exact(self, capsys):
        # a 4n window of 40 symbols holds no 1 of the slope-1/1000 word
        assert run_cli(["pnf", "mechanical", "--slope", "1/1000", "-n", "10"], capsys=capsys)[:2] == (
            0, "1000000000\n0000000000\n"
        )

    @pytest.mark.parametrize("option", [["--window", "400"]])
    def test_window_options_keep_the_window(self, option, scanned, capsys):
        code, out, err = run_cli(["pnf", "fibonacci", "-n", "100"] + option, capsys=capsys)
        assert code == 0 and "not certified" in err and scanned == list(range(1, 101))
        assert out == "{}\n{}\n".format(*exact_forms(["pnf", "fibonacci", "-n", "100"], capsys))

    @pytest.mark.parametrize("source", [["fibonacci"], ["thue-morse"]])
    def test_prepending_no_ones_keeps_the_exact_forms(self, source, scanned, capsys):
        # --prepend-ones 0 prepends nothing, so it prints the closed forms, exact, and scans no window
        argv = ["pnf", *source, "-n", "100"]
        code, out, err = run_cli(argv + ["--prepend-ones", "0"], capsys=capsys)
        assert code == 0 and err.startswith("note: all 100 positions are exact: ") and scanned == []
        assert (code, out, err) == run_cli(argv, capsys=capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fibonacci", "-n", "0"], "cannot profile the empty word"),
            (["thue-morse", "-n", "-1"], "prefix length must be non-negative"),
            (["fibonacci"], "builtin sources require -n/--length"),
            (["mechanical", "-n", "5"], "mechanical requires --slope"),
            (["mechanical", "--slope", "3/2", "-n", "5"], "slope must lie in [0, 1]"),
            (["mechanical", "--slope=-1/2", "-n", "5"], "slope must lie in [0, 1]"),
            (["mechanical", "--slope", "1/2", "--intercept", "1", "-n", "5"], "intercept must lie in [0, 1)"),
            (["mechanical", "--slope", "(-1+1*sqrt(2))/1", "--intercept", "1/2", "-n", "5"],
             "irrational slopes support intercept 0 only"),
            (["lazy-flipext-omega", "--slope", "0", "-n", "5"], "slope must lie in (0, 1]"),
            (["lazy-flipext-omega", "--slope", "3/2", "-n", "5"], "slope must lie in (0, 1]"),
            (["fibonacci", "--word", "01", "-n", "2"], "exactly one of BUILTIN, --word, or --file is required"),
        ],
    )
    @pytest.mark.parametrize("command", [["pnf"], ["plotdata", "--pnf"]])
    def test_errors_keep_their_exit_code(self, command, argv, message, capsys):
        assert run_cli(command + argv, capsys=capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["pnf"], ["plotdata", "--pnf"]])
    def test_paperfolding_matches_a_window_8_times_longer(self, command, capsys):
        # every n up to 1,000 reads at most 13 * 1024 symbols, an eighth of the reference window
        reference = "".join(map(str, paperfolding_symbols(8 * 13 * 1024)))
        profile = int64_profile(reference, 1000)
        for n in [*range(1, 130), 200, 255, 256, 257, 300, 511, 600, 1000]:
            forms = oracle_forms(profile, n)
            if command == ["pnf"]:
                expected = "".join(form + "\n" for form in forms)
            else:
                expected = TestPlotdata.prefix_sum_rows([FiniteWord(reference[:n]), *map(FiniteWord, forms)])
            code, out, err = run_cli([*command, "paperfolding", "-n", str(n)], capsys=capsys)
            assert (code, out) == (0, expected) and err.startswith(f"note: all {n} positions are exact: "), n

    def test_paperfolding_forms_match_the_int64_kernel(self):
        # a factor of length up to 2^k recurs with its start below 12 * 2^k, so 13 * 8192 symbols hold them all
        profile = int64_profile("".join(map(str, paperfolding_symbols(13 << 13))), 4097)
        for n in (4095, 4096, 4097):
            assert list(map(str, cli._BUILTINS["paperfolding"].forms(None, None, n))) == oracle_forms(profile, n), n

    def test_paperfolding_forms_take_a_few_bytes_per_length(self):
        forms = cli._BUILTINS["paperfolding"].forms
        forms(None, None, 1)  # its imports, outside the trace
        tracemalloc.start()
        try:
            pnf1, pnf0 = forms(None, None, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pnf1) == len(pnf0) == 1 << 16 and peak < 2 << 20

    def test_paperfolding_reads_no_window_at_the_cap(self, monkeypatch, capsys):
        forms = oracle_forms(int64_profile("".join(map(str, paperfolding_symbols(13 * 64))), 40), 40)
        monkeypatch.setattr(word_core, "MATERIALIZE_CAP", 40)
        code, out, err = run_cli(["pnf", "paperfolding", "-n", "40"], capsys=capsys)
        assert (code, out.split()) == (0, forms) and err.startswith("note: all 40 positions are exact: ")

    @pytest.mark.parametrize(
        "command",
        [["generate", "mechanical"], ["pnf", "mechanical"], ["check", "mechanical", "--upper"],
         ["pnf", "lazy-flipext-omega"]],
        ids=" ".join,
    )
    def test_a_slope_is_parsed_once(self, command, monkeypatch, capsys):
        # the stream and the forms map both read the slope, and reducing a radicand near 10^10 takes ~27 ms
        calls, strip = [], generators._strip_square_factors

        def counted(b, d):
            calls.append(d)
            return strip(b, d)

        monkeypatch.setattr(generators, "_strip_square_factors", counted)
        argv = [*command, "--slope", "(-1+1*sqrt(9999999967))/100000", "-n", "10"]
        assert run_cli(argv, capsys=capsys)[0] == 0 and calls == [9999999967]

    @pytest.mark.parametrize(
        "params", [["--alpha", "1/3"], ["--alpha", "2/5", "--a1", "9/10"], ["--alpha", "1/7", "--a1", "1/5"]]
    )
    def test_density_staircase_is_its_own_1_normal_form(self, params, capsys):
        # every prefix is prefix normal, and the stages append ever longer runs of 0s
        source = ["density-staircase", *params]
        for n in (80, 3000):
            pnf1, pnf0 = exact_forms(["pnf", *source, "-n", str(n)], capsys)
            prefix = run_cli(["generate", *source, "-n", str(n)], capsys=capsys)[1].strip()
            assert str(pnf1) == prefix and analysis.find_violation_1(pnf1) is None
            assert pnf0 == FiniteWord.zeros(n)
        # 0^80, so 0^i for every i <= 80, occurs within the first 250,000 symbols
        assert "0" * 80 in run_cli(["generate", *source, "-n", "250000"], capsys=capsys)[1]

    def test_fresh_process_loads_no_numpy_and_scans_nothing(self):
        script = (
            "import sys\n"
            "from prefixnormal import cli, word_core\n"
            "def scan(*args):\n"
            "    raise AssertionError('compute_profile called')\n"
            "cli.compute_profile = word_core.compute_profile = scan\n"
            "cli.main(['pnf', 'fibonacci', '-n', '8000'])\n"
            "cli.main(['pnf', 'thue-morse', '-n', '350'])\n"
            "cli.main(['pnf', 'density-staircase', '--alpha', '1/3', '-n', '3000'])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
        )
        src = str(Path(prefixnormal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert [len(line) for line in done.stdout.splitlines()] == [8000, 8000, 350, 350, 3000, 3000]
        assert done.stderr.splitlines()[-1] == "False"


#: Builtins whose normal forms are exact, with the parameters they are read with.
PREPENDED_SOURCES = [
    ["fibonacci"],
    ["thue-morse"],
    ["mechanical", "--slope", "3/8", "--intercept", "2/5", "--upper"],
    ["mechanical", "--slope", "5/13", "--intercept", "11/13", "--lower"],
    ["mechanical", "--slope", "(-1+1*sqrt(2))/1", "--upper"],
    ["mechanical", "--slope", "(3-1*sqrt(5))/2", "--lower"],
    ["lazy-flipext-omega", "--slope", "(-1+1*sqrt(3))/2"],
    ["lazy-flipext-omega", "--slope", "1/2", "--seed", "1101"],
    ["lazy-flipext-omega", "--slope", "(-1+1*sqrt(7))/3", "--seed", "11111101"],
    ["density-staircase", "--alpha", "1/10"],
    ["paperfolding"],
]


class TestPrependedForms:
    """``pnf`` and ``check`` of ``1^K w`` for a builtin ``w`` with exact forms,
    at every ``n`` up to 200: ``pnf`` prints the forms of a window 64 times
    longer, and ``check`` the verdict of a scan of the materialized word."""

    #: Built once: these tests run 2,400 commands per source.
    PARSER = build_parser()

    def run(self, argv, capsys):
        args = self.PARSER.parse_args(argv)
        code = args.func(args)
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("prepend", range(4))
    @pytest.mark.parametrize("source", PREPENDED_SOURCES, ids=" ".join)
    def test_forms_and_verdicts_at_every_length(self, source, prepend, capsys):
        longest = prepend + 200
        wide = "1" * prepend + run_cli(["generate", *source, "-n", str(64 * longest)], capsys=capsys)[1].strip()
        forms = oracle_forms(int64_profile(wide, longest), longest)
        for n in range(0 if prepend else 1, 201):  # -n 0 prints the K 1s, the forms' first K symbols
            k = prepend + n
            options = ["-n", str(n), "--prepend-ones", str(prepend)]
            code, out, err = self.run(["pnf", *source, *options], capsys)
            assert (code, out.split()) == (0, [forms[0][:k], forms[1][:k]]), (n, out)
            assert err.startswith(f"note: all {k} positions are exact: "), n
            for flag, finder in (([], analysis.find_violation_1), (["--zero"], analysis.find_violation_0)):
                violation = finder(FiniteWord(wide[:k]))
                expected = (0, "NORMAL\n", "") if violation is None else (1, f"{violation.render()}\n", "")
                assert self.run(["check", *source, *flag, *options], capsys) == expected, (flag, n)

    @pytest.mark.parametrize(
        "argv, verdict",
        [
            (["fibonacci", "-n", "30"], "len=1 start=2 ones=1 prefix_ones=0\n"),
            (["thue-morse", "-n", "30", "--prepend-ones", "1"], "len=2 start=3 ones=2 prefix_ones=1\n"),
            (["fibonacci", "-n", "30", "--zero", "--prepend-ones", "1"], "len=1 start=2 ones=1 prefix_ones=0\n"),
        ],
    )
    def test_violations_are_found_by_the_scan(self, argv, verdict, capsys):
        assert run_cli(["check", *argv], capsys=capsys) == (1, verdict, "")

    def test_a_normal_prefix_of_a_word_that_is_not_is_scanned(self, scanned, capsys):
        # the 5/13 word of intercept 11/13 starts 10100100, prefix normal, while the 1-normal form of the
        # infinite word starts 10100101: the form decides nothing, and the scan finds no violation
        argv = ["mechanical", "--slope", "5/13", "--intercept", "11/13", "-n", "8"]
        assert run_cli(["generate", *argv], capsys=capsys)[1] == "10100100\n"
        assert run_cli(["pnf", *argv], capsys=capsys)[1].startswith("10100101\n")
        assert run_cli(["check", *argv], capsys=capsys) == (0, "NORMAL\n", "") and scanned

    @pytest.mark.parametrize(
        "argv",
        [
            ["fibonacci", "--prepend-ones", "1", "-n", "32000"],
            ["mechanical", "--slope", "2/5", "--zero", "-n", "32000"],
        ],
        ids=["fibonacci", "lower-mechanical-zero"],
    )
    def test_a_word_equal_to_its_form_is_not_scanned(self, argv, monkeypatch, capsys):
        # kernel-large's check of 1 + Fibonacci, and a lower mechanical word, its own 0-normal form
        def unscanned(*args, **kwargs):
            raise AssertionError("a word equal to its closed normal form needs no scan")

        monkeypatch.setattr(word_core, "_extremes", unscanned)
        monkeypatch.setattr(analysis, "_extremes", unscanned)
        assert run_cli(["check", *argv], capsys=capsys) == (0, "NORMAL\n", "")

    def test_closed_forms_read_no_window_at_the_cap(self, monkeypatch, scanned, capsys):
        # a forms window counts only the symbols after the 1s: the 1 + 39 and 20 + 15 symbols fill no more
        # than a cap of 40, and closed forms read no window, so both are exact, with no scan
        wide = "1" * 20 + run_cli(["generate", "fibonacci", "-n", "2240"], capsys=capsys)[1].strip()
        forms = oracle_forms(int64_profile(wide, 35), 35)
        monkeypatch.setattr(word_core, "MATERIALIZE_CAP", 40)
        assert run_cli(["check", "fibonacci", "--prepend-ones", "1", "-n", "39"], capsys=capsys) == (0, "NORMAL\n", "")
        code, out, err = run_cli(["pnf", "fibonacci", "--prepend-ones", "20", "-n", "15"], capsys=capsys)
        assert (code, out.split()) == (0, forms) and err.startswith("note: all 35 positions are exact: ")
        assert scanned == []

    def test_a_forms_window_past_the_cap_is_refused(self, monkeypatch, capsys):
        # the 1 + 36 symbols fit a cap of 40, the |seed| + K + n = 41 that lazy flipext's forms read do not
        monkeypatch.setattr(word_core, "MATERIALIZE_CAP", 40)
        argv = ["pnf", "lazy-flipext-omega", "--slope", "1/2", "--seed", "1101", "--prepend-ones", "1", "-n", "36"]
        assert run_cli(argv, capsys=capsys) == (2, "", "error: refusing to materialize more than 40 symbols\n")


class TestAbelian:
    def test_paperfolding_values(self, capsys):
        code, out, _ = run_cli(
            ["abelian", "paperfolding", "-n", "2048", "--range", "1..20"], capsys=capsys
        )
        values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert values == [2, 3, 4, 3, 4, 5, 4, 3, 4, 5, 6, 5, 4, 5, 4, 3, 4, 5, 6, 5]

    def test_thue_morse_alternation(self, capsys):
        code, out, _ = run_cli(
            ["abelian", "thue-morse", "-n", "2048", "--range", "1..8"], capsys=capsys
        )
        values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert values == [2, 3, 2, 3, 2, 3, 2, 3]

    def test_constant_word(self, capsys):
        code, out, _ = run_cli(["abelian", "--word", "0000", "--range", "1..4"], capsys=capsys)
        values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert values == [1, 1, 1, 1]

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(["abelian", "--word", "0101", "--range", "3..9"], capsys=capsys)
        assert code == 2

    def test_profiles_up_to_range_end(self, scanned, capsys):
        code, out, _ = run_cli(
            ["abelian", "paperfolding", "-n", "300", "--range", "1..10"], capsys=capsys
        )
        assert code == 0 and len(out.splitlines()) == 10
        assert scanned == list(range(1, 11))

    @pytest.mark.parametrize("word_range", [[], ["--range", "1..5"], ["--range", "bad"]])
    def test_empty_word_is_reported_before_range(self, word_range, capsys):
        code, out, err = run_cli(["abelian", "--word", ""] + word_range, capsys=capsys)
        assert (code, out) == (2, "")
        assert err == "error: cannot profile the empty word\n"

    def test_malformed_range_usage_error(self, capsys):
        code, out, err = run_cli(["abelian", "--word", "0101", "--range", "bad"], capsys=capsys)
        assert (code, out) == (2, "") and "cannot parse range" in err


class TestDensity:
    def test_word_report(self, capsys):
        code, out, _ = run_cli(["density", "--word", "1110000"], capsys=capsys)
        assert code == 0 and out.strip() == "3/7 7 3"

    def test_period_form(self, capsys):
        code, out, _ = run_cli(["density", "--period", "1,10"], capsys=capsys)
        assert code == 0 and out.strip() == "1/2"

    def test_single_one(self, capsys):
        code, out, _ = run_cli(["density", "--word", "1"], capsys=capsys)
        assert out.strip() == "1/1 1 1"

    def test_empty_preperiod(self, capsys):
        code, out, _ = run_cli(["density", "--period", ",110"], capsys=capsys)
        assert code == 0 and out.strip() == "2/3"

    def test_builtin_source(self, capsys):
        code, out, _ = run_cli(["density", "fibonacci", "-n", "100"], capsys=capsys)
        delta, iota, kappa = out.split()
        assert code == 0 and delta == f"{kappa}/{iota}"

    def test_period_with_other_source_rejected(self, capsys):
        code, _, _ = run_cli(["density", "--word", "10", "--period", "1,10"], capsys=capsys)
        assert code == 2


class TestIndex:
    def test_build_query_roundtrip(self, tmp_path, capsys):
        index_file = tmp_path / "fib.pnji"
        code, _, _ = run_cli(
            ["index", "build", "fibonacci", "-n", "20", "-o", str(index_file)], capsys=capsys
        )
        assert code == 0 and index_file.exists()
        code, out, _ = run_cli(
            ["index", "query", str(index_file)], stdin_text="3 2\n2 3\n0 0\n", capsys=capsys
        )
        assert code == 0
        assert out.strip().splitlines() == ["yes", "no", "no"]

    def test_strict_mode(self, tmp_path, capsys):
        index_file = tmp_path / "w.pnji"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        code, _, _ = run_cli(
            ["index", "query", str(index_file), "--strict"], stdin_text="1 1\n3 3\n", capsys=capsys
        )
        assert code == 1
        code, _, _ = run_cli(
            ["index", "query", str(index_file), "--strict"], stdin_text="1 1\n", capsys=capsys
        )
        assert code == 0

    def test_queries_file(self, tmp_path, capsys):
        index_file = tmp_path / "w.pnji"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        queries = tmp_path / "q.txt"
        queries.write_text("1 1\n0 2\n")
        code, out, _ = run_cli(
            ["index", "query", str(index_file), "--queries", str(queries)], capsys=capsys
        )
        assert code == 0 and out.strip().splitlines() == ["yes", "no"]

    def test_queries_are_streamed(self, tmp_path, capsys, monkeypatch):
        class LinesOnly(io.StringIO):
            def read(self, *args):
                raise AssertionError("query input must be iterated, not read whole")

        index_file = tmp_path / "w.pnji"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        monkeypatch.setattr(sys, "stdin", LinesOnly("1 1\n\n0 2\f2 0\r\n2 2\n"))
        code = main(["index", "query", str(index_file)])
        assert code == 0 and capsys.readouterr().out == "yes\nno\nno\nyes\n"

    def test_each_answer_is_written_before_the_next_line_is_read(self, tmp_path, capsys, monkeypatch):
        index_file = tmp_path / "w.pnji"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        lines, answers = ["1 1\n", "0 2\n", "2 0\n", "2 2\n"], ["yes\n", "no\n", "no\n", "yes\n"]
        out = io.StringIO()

        def stdin():
            for k, line in enumerate(lines):
                assert out.getvalue() == "".join(answers[:k])  # answers 1..k, before line k + 1 is read
                yield line

        monkeypatch.setattr(sys, "stdin", stdin())
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["index", "query", str(index_file)]) == 0
        assert out.getvalue() == "".join(answers)

    def test_output_file_strict_and_empty_input(self, tmp_path, capsys):
        index_file, target = tmp_path / "w.pnji", tmp_path / "answers.txt"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        argv = ["index", "query", str(index_file), "--strict"]
        assert run_cli(argv, stdin_text="3 3\n1 1\n", capsys=capsys) == (1, "no\nyes\n", "")
        assert run_cli(argv + ["-o", str(target)], stdin_text="3 3\n1 1\n", capsys=capsys) == (1, "", "")
        assert target.read_text() == "no\nyes\n"
        assert run_cli(argv, stdin_text="", capsys=capsys) == (0, "", "")
        assert run_cli(argv + ["-o", str(target)], stdin_text="\n", capsys=capsys) == (0, "", "")
        assert target.read_text() == ""

    def test_answers_before_a_malformed_line_stay_written(self, tmp_path, capsys):
        index_file = tmp_path / "w.pnji"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        code, out, err = run_cli(
            ["index", "query", str(index_file)], stdin_text="1 1\n3 3\none two\n2 2\n", capsys=capsys
        )
        assert (code, out) == (2, "yes\nno\n")
        assert err == "error: cannot parse query line 'one two'; expected 'ZEROS ONES'\n"

    @staticmethod
    def counted_query_file(tmp_path, capsys, monkeypatch, text):
        """Exit code and the write calls of ``index query --queries`` on ``text``."""
        index_file, queries = tmp_path / "w.pnji", tmp_path / "q.txt"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        queries.write_text(text)
        writes = []

        class CountingOut(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", CountingOut())
        return main(["index", "query", str(index_file), "--queries", str(queries)]), writes

    def test_a_queries_file_is_answered_one_block_per_write(self, tmp_path, capsys, monkeypatch):
        code, writes = self.counted_query_file(tmp_path, capsys, monkeypatch, "1 1\n3 3\n" * 5000)
        assert code == 0 and "".join(writes) == "yes\nno\n" * 5000
        assert [text.count("\n") for text in writes] == [4096, 4096, 10_000 - 2 * 4096]

    def test_a_queries_file_keeps_the_answers_before_a_malformed_line(self, tmp_path, capsys, monkeypatch):
        code, writes = self.counted_query_file(tmp_path, capsys, monkeypatch, "1 1\n" * 5000 + "one two\n1 1\n")
        assert code == 2 and "".join(writes) == "yes\n" * 5000
        assert [len(text) for text in writes] == [4 * 4096, 4 * 904]
        assert capsys.readouterr().err == "error: cannot parse query line 'one two'; expected 'ZEROS ONES'\n"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["index", "query", str(tmp_path / "none.pnji")], capsys=capsys)
        assert code == 3

    def test_corrupt_file_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pnji"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, _ = run_cli(["index", "query", str(bad)], capsys=capsys)
        assert code == 3

    def test_bad_query_line(self, tmp_path, capsys):
        index_file = tmp_path / "w.pnji"
        run_cli(["index", "build", "--word", "0101", "-o", str(index_file)], capsys=capsys)
        code, _, _ = run_cli(
            ["index", "query", str(index_file)], stdin_text="one two\n", capsys=capsys
        )
        assert code == 2

    def test_build_from_file_source(self, tmp_path, capsys):
        word_file = tmp_path / "w.txt"
        word_file.write_text("110100110010\n")
        index_file = tmp_path / "w.pnji"
        code, _, _ = run_cli(
            ["index", "build", "--file", str(word_file), "-o", str(index_file)], capsys=capsys
        )
        assert code == 0
        code, out, _ = run_cli(
            ["index", "query", str(index_file)], stdin_text="2 2\n", capsys=capsys
        )
        assert code == 0 and out.strip() == "yes"


class TestPlotdata:
    def test_origin_row_and_fifth(self, capsys):
        code, out, _ = run_cli(["plotdata", "fibonacci", "-n", "20", "--pnf"], capsys=capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "0\t0\t0\t0"
        assert lines[5].split("\t") == ["5", "-1", "-1", "-3"]

    def test_word_only_columns(self, capsys):
        code, out, _ = run_cli(["plotdata", "--word", "1100"], capsys=capsys)
        lines = [line.split("\t") for line in out.strip().splitlines()]
        assert [row[1] for row in lines] == ["0", "1", "2", "1", "0"]
        assert all(len(row) == 2 for row in lines)

    def test_thue_morse_pnf_alternates(self, capsys):
        # heights of 1(10)(10)... : up, up, then alternating down/up
        code, out, _ = run_cli(["plotdata", "thue-morse", "-n", "12", "--pnf"], capsys=capsys)
        pnf1_column = [int(line.split("\t")[2]) for line in out.strip().splitlines()]
        assert pnf1_column == [0, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]

    @staticmethod
    def prefix_sum_rows(words):
        """Row ``i`` is ``i`` and then ``2 P[i] - i`` of each word."""
        walks = [(2 * w.prefix_sums() - np.arange(len(w) + 1)).tolist() for w in words]
        return "".join("\t".join(map(str, row)) + "\n" for row in zip(range(len(words[0]) + 1), *walks))

    @pytest.mark.parametrize("text", ["0", "1", "1100", "0" * 50, "1" * 50, "10" + "0110" * 40])
    def test_word_rows_match_prefix_sums(self, text, capsys):
        expected = self.prefix_sum_rows([FiniteWord(text)])
        assert run_cli(["plotdata", "--word", text], capsys=capsys) == (0, expected, "")

    @pytest.mark.parametrize("name", ["fibonacci", "champernowne", "paperfolding"])
    def test_pnf_rows_match_prefix_sums(self, name, capsys):
        # paperfolding's first 13 * 64 symbols hold every factor up to length 64, so their profile gives its forms
        n = 60
        window = cli._BUILTINS[name].stream(None).prefix(13 * 64 if name == "paperfolding" else WINDOW_FACTOR * n)
        profile = compute_profile(window, n)
        expected = self.prefix_sum_rows([window[:n], analysis.pnf1(profile), analysis.pnf0(profile)])
        code, out, _ = run_cli(["plotdata", name, "-n", str(n), "--pnf"], capsys=capsys)
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("source", [["paperfolding", "-n", "300"], ["fibonacci", "-n", "20"]])
    def test_pnf_note_matches_pnf(self, source, capsys):
        _, _, note = run_cli(["pnf", *source], capsys=capsys)
        assert note.startswith("note: ") and run_cli(["plotdata", *source, "--pnf"], capsys=capsys)[2] == note


#: A prefix normal word of 2,000 symbols, the 1-normal form of paperfolding.
NORMAL = str(analysis.pnf1(compute_profile(generators.paperfolding(2000))))
#: A prefix normal word one symbol longer than the lane scan takes: its check
#: reads its k rows of k lanes, for k 0s, 3 probes each, so it needs numpy.
PAST_LANES = "110" * (math.isqrt(word_core._LANE_READS // 3) + 1)
#: Kernel-large's sparse check with the most 1s: 539 rows of 539 lanes, at most 11 probes each, fit the lanes.
SPARSE_CHECK = ["check", "lazy-flipext-omega", "--slope", "1/60", "-n", "32320"]

#: Commands that scan no word as an array, or scan one short enough for lanes,
#: so they must not touch numpy.
NUMPY_FREE = {
    "fibonacci": ["generate", "fibonacci", "-n", "3000"],
    "thue-morse": ["generate", "thue-morse", "-n", "3000"],
    "paperfolding": ["generate", "paperfolding", "-n", "3000"],
    "champernowne": ["generate", "champernowne", "-n", "3000"],
    "mechanical-rational": ["generate", "mechanical", "--slope", "29/57", "--intercept", "3/7", "-n", "3000"],
    "mechanical-quadratic": ["generate", "mechanical", "--upper", "--slope", "(-1+1*sqrt(3))/2", "-n", "3000"],
    "density-staircase": ["generate", "density-staircase", "--alpha", "1/3", "-n", "3000"],
    "density-word": ["density", "--word", "1101" * 300 + "0001" * 200],
    "density-period": ["density", "--period", "0110100,1" + "0011" * 9],
    "index-query-stdin": ["index", "query", "{index}"],
    "index-query-file": ["index", "query", "{index}", "--queries", "{queries}"],
    "plotdata-word": ["plotdata", "--word", "1101" * 300 + "0001" * 200],
    "pnf-fibonacci": ["pnf", "fibonacci", "-n", "3000"],
    "pnf-thue-morse": ["pnf", "thue-morse", "-n", "3000"],
    "pnf-thue-morse-prepend-zero": ["pnf", "thue-morse", "-n", "3000", "--prepend-ones", "0"],
    "pnf-mechanical-rational": ["pnf", "mechanical", "--slope", "29/57", "--intercept", "3/7", "-n", "3000"],
    "pnf-mechanical-quadratic": ["pnf", "mechanical", "--upper", "--slope", "(-1+1*sqrt(3))/2", "-n", "3000"],
    "pnf-density-staircase": ["pnf", "density-staircase", "--alpha", "1/3", "-n", "3000"],
    "pnf-lazy-flipext-omega": ["pnf", "lazy-flipext-omega", "--slope", "1/3", "--seed", "11", "-n", "3000"],
    "pnf-paperfolding": ["pnf", "paperfolding", "-n", "3000"],
    "plotdata-fibonacci-pnf": ["plotdata", "fibonacci", "-n", "3000", "--pnf"],
    # scans within the lane budget, the sizes of the benchmark's short commands
    "check-normal-file": ["check", "--file", "{normal}"],
    "check-zero": ["check", "--zero", "--word", str(complement(FiniteWord(NORMAL[:1500])))],
    "check-violation-late": ["check", "--word", "1100" * 200 + "1101" + "0" * 500],
    "abelian-range": ["abelian", "paperfolding", "-n", "2000", "--range", "1..100"],
    "plotdata-champernowne-pnf": ["plotdata", "champernowne", "-n", "400", "--pnf"],
    "index-build-word": ["index", "build", "--word", ("110100110010" * 167)[:2000], "-o", "{built}"],
    "generate-flipext-omega": ["generate", "flipext-omega", "--seed", "11010011", "-n", "1000"],
    "check-lazy-sparse": SPARSE_CHECK,
    # kernel-large's dense check, past the lane budget, decided from its closed 1-normal form with no scan
    "check-fibonacci-prepend": ["check", "fibonacci", "--prepend-ones", "1", "-n", "32000"],
}


class TestNumpyFreeCommands:
    """numpy is imported only inside the functions that scan a word as an
    array, and a scan within the lane budget takes lanes while numpy is not
    loaded. With ``sys.modules["numpy"]`` set to None any ``import numpy``
    raises ImportError, so these commands run without ever importing it; the
    expected output comes from numpy, loaded in this process."""

    @pytest.mark.parametrize("name", NUMPY_FREE)
    def test_same_bytes_without_numpy(self, name, tmp_path, monkeypatch, capsys):
        index, queries = tmp_path / "w.pnji", tmp_path / "q.txt"
        run_cli(["index", "build", "--word", "110100110010" * 20, "-o", str(index)], capsys=capsys)
        pairs = "".join(f"{z} {o}\n" for z in range(0, 30, 3) for o in range(0, 30, 4))
        queries.write_text(pairs)
        normal, built = tmp_path / "normal.txt", tmp_path / "built.pnji"
        normal.write_text(NORMAL + "\n")
        argv = [arg.format(index=index, queries=queries, normal=normal, built=built) for arg in NUMPY_FREE[name]]

        def run():
            built.unlink(missing_ok=True)
            return run_cli(argv, stdin_text=pairs, capsys=capsys), built.read_bytes() if built.exists() else None

        expected = run()
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert run() == expected
        (code, out, _), blob = expected
        assert code in (0, 1) and (out or blob)

    def test_a_scanning_command_cannot_run_without_numpy(self, monkeypatch, capsys):
        # a None in sys.modules blocks `import numpy` but counts as not loaded, so
        # a scan within the lane budget runs in lanes, and only a longer one needs numpy
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert run_cli(["check", "--word", "1101"], capsys=capsys) == (0, "NORMAL\n", "")
        assert run_cli(["check", "--word", PAST_LANES[:-1]], capsys=capsys) == (0, "NORMAL\n", "")
        with pytest.raises(ImportError):
            run_cli(["check", "--word", PAST_LANES], capsys=capsys)

    def test_fresh_process_imports_numpy_only_to_scan(self):
        script = (
            "import sys\n"
            "import prefixnormal, prefixnormal.cli\n"
            "from prefixnormal.cli import main\n"
            "main(['generate', 'mechanical', '--slope', '3/101', '-n', '1000'])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "main(['check', '--word', '1101'])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            f"main({SPARSE_CHECK!r})\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            f"main(['check', '--word', {PAST_LANES!r}])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
        )
        src = str(Path(prefixnormal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split("\n")[1:] == ["NORMAL", "NORMAL", "NORMAL", ""]
        assert done.stderr.split() == ["False", "False", "False", "True"]


#: Fresh-process shapes: their code after ``from prefixnormal.cli import main``
#: (None: only the first statement runs), and every ``prefixnormal`` module they load.
MODULE_LOADS = {
    "import prefixnormal": (None, set()),
    "import prefixnormal.cli": ("", {"cli", "errors"}),
    "generate mechanical": (
        "main(['generate', 'mechanical', '--slope', '3/101', '-n', '1000'])",
        {"cli", "errors", "generators", "word_core"},
    ),
    "pnf fibonacci": ("main(['pnf', 'fibonacci', '-n', '1000'])", {"cli", "errors", "generators", "word_core"}),
    "pnf thue-morse": ("main(['pnf', 'thue-morse', '-n', '1000'])", {"cli", "errors", "generators", "word_core"}),
    "pnf paperfolding": ("main(['pnf', 'paperfolding', '-n', '3000'])", {"cli", "errors", "generators", "word_core"}),
    "index query": (
        "main(['index', 'query', {index!r}, '--queries', {queries!r}])",
        {"cli", "errors", "jumbled_index", "word_core"},
    ),
    "density --word": ("main(['density', '--word', '1101' * 300])", {"cli", "errors", "analysis", "word_core"}),
    "check fibonacci --prepend-ones": (
        "main(['check', 'fibonacci', '--prepend-ones', '1', '-n', '32000'])",
        {"cli", "errors", "generators", "word_core"},
    ),
    "check --word 10…": (
        "main(['check', '--word', '10' + '0110' * 500])", {"cli", "errors", "analysis", "word_core"}
    ),
    "generate lazy-flipext-omega --slope": (
        "main(['generate', 'lazy-flipext-omega', '--slope', '(-1+1*sqrt(2))/1', '-n', '1000'])",
        {"cli", "errors", "analysis", "generators", "word_core"},
    ),
    # the scans of the benchmark's short commands, all within the lane budget
    "check --file": ("main(['check', '--file', {normal!r}])", {"cli", "errors", "analysis", "word_core"}),
    "check --zero": (
        f"main(['check', '--zero', '--word', {str(complement(FiniteWord(NORMAL[:1500])))!r}])",
        {"cli", "errors", "analysis", "word_core"},
    ),
    "abelian --range": (
        "main(['abelian', 'paperfolding', '-n', '2000', '--range', '1..100'])",
        {"cli", "errors", "analysis", "generators", "word_core"},
    ),
    "plotdata --pnf champernowne": (
        "main(['plotdata', 'champernowne', '-n', '400', '--pnf'])",
        {"cli", "errors", "analysis", "generators", "word_core"},
    ),
    "index build --word": (
        f"main(['index', 'build', '--word', {('110100110010' * 167)[:2000]!r}, '-o', {{built!r}}])",
        {"cli", "errors", "jumbled_index", "word_core"},
    ),
    "generate flipext-omega --seed": (
        "main(['generate', 'flipext-omega', '--seed', '11010011', '-n', '1000'])",
        {"cli", "errors", "analysis", "generators", "word_core"},
    ),
}


class TestModuleLoads:
    """A command loads only the layers it runs, and a command that needs no
    numpy loads no ``dataclasses`` either. One fresh process per shape."""

    @pytest.mark.parametrize("shape", MODULE_LOADS)
    def test_a_fresh_process_loads_only_what_it_runs(self, shape, tmp_path, capsys):
        index, queries = tmp_path / "w.pnji", tmp_path / "q.txt"
        normal, built = tmp_path / "normal.txt", tmp_path / "built.pnji"
        run_cli(["index", "build", "--word", "110100110010" * 20, "-o", str(index)], capsys=capsys)
        queries.write_text("3 4\n10 12\n" * 1000)
        normal.write_text(NORMAL + "\n")
        code, expected = MODULE_LOADS[shape]
        lines = ["import sys", "import prefixnormal" if code is None else "from prefixnormal.cli import main"]
        lines += [
            (code or "").format(index=str(index), queries=str(queries), normal=str(normal), built=str(built)),
            "loaded = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('prefixnormal.'))",
            "print(loaded, 'dataclasses' in sys.modules, 'numpy' in sys.modules, file=sys.stderr)",
        ]
        src = str(Path(prefixnormal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == f"{sorted(expected)} False False"


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        first = run_cli(["abelian", "paperfolding", "-n", "512", "--range", "1..16"], capsys=capsys)
        second = run_cli(["abelian", "paperfolding", "-n", "512", "--range", "1..16"], capsys=capsys)
        assert first == second


SOURCE_OPTIONS = [
    "-n", "--length", "--word", "--file", "--slope", "--intercept", "--upper", "--lower",
    "--seed", "--alpha", "--a1",
]
#: Every option each subcommand accepts, and options it must keep rejecting.
OPTION_SURFACE = {
    "generate": (SOURCE_OPTIONS + ["-o", "--output"], ["--window"]),
    "check": (SOURCE_OPTIONS + ["-o", "--output", "--zero", "--prepend-ones"], ["--window"]),
    "pnf": (SOURCE_OPTIONS + ["-o", "--output", "--prepend-ones", "--window"], []),
    "abelian": (SOURCE_OPTIONS + ["-o", "--output", "--range"], []),
    "density": (SOURCE_OPTIONS + ["-o", "--output", "--period"], ["--prepend-ones"]),
    "index build": (SOURCE_OPTIONS + ["-o", "--index-file"], ["--output"]),
    "index query": (["-o", "--output", "--queries", "--strict"], ["--word"]),
    "plotdata": (SOURCE_OPTIONS + ["-o", "--output", "--pnf", "--window"], ["--prepend-ones"]),
}
#: A value for each option that takes one; the others are flags.
OPTION_VALUES = {
    "-n": "4", "--length": "4", "--word": "1", "--file": "w.txt", "--slope": "1/2",
    "--intercept": "0", "--seed": "1", "--alpha": "1/3", "--a1": "1/2", "-o": "out",
    "--output": "out", "--index-file": "out", "--prepend-ones": "1", "--window": "8",
    "--range": "1..2", "--period": "1,0", "--queries": "q.txt",
}

#: What index build and index query cannot parse without.
REQUIRED_ARGUMENTS = {"index build": ["--index-file", "out"], "index query": ["idx"]}


def _with_value(option):
    return [option, OPTION_VALUES[option]] if option in OPTION_VALUES else [option]


class TestOptionSurface:
    @pytest.mark.parametrize("command", OPTION_SURFACE)
    def test_each_subcommand_keeps_its_options(self, command, capsys):
        accepted, rejected = OPTION_SURFACE[command]
        base = command.split() + REQUIRED_ARGUMENTS.get(command, [])
        parser = build_parser()
        for option in accepted:
            parser.parse_args(base + _with_value(option))
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert listed == set(accepted) | {"-h", "--help"}
        for option in rejected:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(base + _with_value(option))
            assert exc.value.code == 2


#: For each rational option, an invocation that ends with the option itself.
RATIONAL_OPTIONS = {
    "--slope": ["generate", "mechanical", "-n", "12", "--slope"],
    "--intercept": ["generate", "mechanical", "-n", "12", "--slope", "2/5", "--intercept"],
    "--alpha": ["generate", "density-staircase", "-n", "12", "--alpha"],
    "--a1": ["generate", "density-staircase", "-n", "12", "--alpha", "1/4", "--a1"],
}


class TestRationalGrammar:
    """--intercept, --alpha and --a1 read rationals in the p/q grammar of --slope."""

    @pytest.mark.parametrize("option", RATIONAL_OPTIONS)
    @pytest.mark.parametrize("text, canonical", [("1/3", "1/3"), (" 1 / 3 ", "1/3"), ("0", "0/1")])
    def test_accepted(self, option, text, canonical, capsys):
        argv = RATIONAL_OPTIONS[option]
        result = run_cli(argv + [text], capsys=capsys)
        assert result == run_cli(argv + [canonical], capsys=capsys)
        assert "cannot parse" not in result[2]
        if text == "1/3":
            assert result[0] == 0

    @pytest.mark.parametrize("option", RATIONAL_OPTIONS)
    @pytest.mark.parametrize("text", ["1_0/30", "+1/3", "1/0"])
    def test_rejected(self, option, text, capsys):
        code, out, err = run_cli(RATIONAL_OPTIONS[option] + [text], capsys=capsys)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("option", ["--intercept", "--alpha", "--a1"])
    def test_quadratic_value_is_usage_error(self, option, capsys):
        code, _, err = run_cli(RATIONAL_OPTIONS[option] + ["(1+1*sqrt(5))/4"], capsys=capsys)
        assert code == 2 and "cannot parse rational" in err
