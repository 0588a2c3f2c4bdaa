"""End-to-end tests for the command-line interface."""

import contextlib
import io
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefixnormal
from prefixnormal import FiniteWord, analysis, cli, compute_profile, generators, word_core
from prefixnormal.analysis import WINDOW_FACTOR
from prefixnormal.cli import build_parser, main


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


@pytest.fixture
def scanned(monkeypatch):
    """The factor lengths that the window kernel yields to its consumers,
    every length of every block."""
    lengths = []
    kernel = word_core._window_blocks

    def counting(*args, **kwargs):
        for rows, highs, lows in kernel(*args, **kwargs):
            lengths.extend(rows)
            yield rows, highs, lows

    monkeypatch.setattr(word_core, "_window_blocks", counting)
    monkeypatch.setattr(analysis, "_window_blocks", counting)
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

        monkeypatch.setitem(cli._BUILTINS, "fibonacci", unbuilt)
        argv = [command, "fibonacci", "-n", "20000000", "--prepend-ones", "-1"]
        assert run_cli(argv, capsys=capsys) == (2, "", "error: --prepend-ones must be non-negative\n")

    def test_prepended_fibonacci(self, capsys):
        code, out, _ = run_cli(
            ["check", "fibonacci", "--prepend-ones", "1", "-n", "10000"], capsys=capsys
        )
        assert code == 0 and out.strip() == "NORMAL"

    def test_run_sparse_word_scans_at_most_one_length(self, scanned, capsys):
        # 1 0^63 repeated: 500 runs of 1s in 32,000 symbols, checked by run pairs
        argv = ["check", "lazy-flipext-omega", "--slope", "1/64", "-n", "32000"]
        assert run_cli(argv, capsys=capsys) == (0, "NORMAL\n", "")
        assert len(scanned) <= 1

    def test_planted_violation_scans_its_length_only(self, scanned, capsys):
        word = ("1" + "0" * 63) * 500
        word = word[:20000] + "1" + word[20001:]  # 1 0^31 1 at position 19,969
        code, out, _ = run_cli(["check", "--word", word], capsys=capsys)
        assert (code, out) == (1, "len=33 start=19969 ones=2 prefix_ones=1\n")
        assert scanned == [33]

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
        # the 4n window is a heuristic: a wider one changes these normal forms
        code, out, err = run_cli(["pnf", "paperfolding", "-n", "300"], capsys=capsys)
        assert code == 0 and "all 300 positions" in err and "not certified" in err
        _, wider, _ = run_cli(["pnf", "paperfolding", "-n", "300", "--window", "2400"], capsys=capsys)
        pnf1, pnf0 = out.split()
        wider1, wider0 = wider.split()
        assert pnf1[:146] == wider1[:146] and pnf1[146] != wider1[146]
        assert [i + 1 for i in range(300) if pnf0[i] != wider0[i]] == [294, 295, 299]

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
        code, _, _ = run_cli(command + ["paperfolding", "-n", "50"], capsys=capsys)
        assert code == 0 and scanned == list(range(1, 51))

    def test_prepended_builtin_is_its_own_normal_form(self, capsys):
        # 11 + thue-morse is prefix normal, so its 1-form is the word itself
        # (output covers the full prepended word, length n + 2)
        code, out, _ = run_cli(
            ["pnf", "thue-morse", "--prepend-ones", "2", "-n", "20"], capsys=capsys
        )
        assert code == 0
        _, generated, _ = run_cli(["generate", "thue-morse", "-n", "20"], capsys=capsys)
        assert out.splitlines()[0] == "11" + generated.strip()


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

    def test_lazy_flipext_from_another_seed_keeps_the_window(self, capsys):
        code, out, err = run_cli(["pnf", "lazy-flipext-omega", "--slope", "1/3", "--seed", "11", "-n", "40"], capsys=capsys)
        stream = generators.lazy_alpha_flipext_stream(FiniteWord("11"), generators.SlopeSpec.rational(1, 3))
        assert code == 0 and out == "{}\n{}\n".format(*window_forms(stream.prefix(WINDOW_FACTOR * 40), 40))
        assert "not certified" in err

    def test_sparse_rational_slope_is_exact(self, capsys):
        # a 4n window of 40 symbols holds no 1 of the slope-1/1000 word
        assert run_cli(["pnf", "mechanical", "--slope", "1/1000", "-n", "10"], capsys=capsys)[:2] == (
            0, "1000000000\n0000000000\n"
        )

    @pytest.mark.parametrize("option", [["--window", "400"], ["--prepend-ones", "0"]])
    def test_window_options_keep_the_window(self, option, scanned, capsys):
        code, out, err = run_cli(["pnf", "fibonacci", "-n", "100"] + option, capsys=capsys)
        assert code == 0 and "not certified" in err and scanned == list(range(1, 101))
        assert out == "{}\n{}\n".format(*exact_forms(["pnf", "fibonacci", "-n", "100"], capsys))

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

    def test_fresh_process_loads_no_numpy_and_scans_nothing(self):
        script = (
            "import sys\n"
            "from prefixnormal import cli, word_core\n"
            "def scan(*args):\n"
            "    raise AssertionError('compute_profile called')\n"
            "cli.compute_profile = word_core.compute_profile = scan\n"
            "cli.main(['pnf', 'fibonacci', '-n', '8000'])\n"
            "cli.main(['pnf', 'thue-morse', '-n', '350'])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
        )
        src = str(Path(prefixnormal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert [len(line) for line in done.stdout.splitlines()] == [8000, 8000, 350, 350]
        assert done.stderr.splitlines()[-1] == "False"


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
        n = 60
        window = cli._BUILTINS[name](None).prefix(WINDOW_FACTOR * n)
        profile = compute_profile(window, n)
        expected = self.prefix_sum_rows([window[:n], analysis.pnf1(profile), analysis.pnf0(profile)])
        code, out, _ = run_cli(["plotdata", name, "-n", str(n), "--pnf"], capsys=capsys)
        assert (code, out) == (0, expected)


#: Commands that scan no word as an array, so they must not touch numpy.
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
    "pnf-mechanical-rational": ["pnf", "mechanical", "--slope", "29/57", "--intercept", "3/7", "-n", "3000"],
    "pnf-mechanical-quadratic": ["pnf", "mechanical", "--upper", "--slope", "(-1+1*sqrt(3))/2", "-n", "3000"],
    "plotdata-fibonacci-pnf": ["plotdata", "fibonacci", "-n", "3000", "--pnf"],
}


class TestNumpyFreeCommands:
    """numpy is imported only inside the functions that scan a word as an
    array. With ``sys.modules["numpy"]`` set to None any ``import numpy``
    raises ImportError, so these commands run without ever importing it."""

    @pytest.mark.parametrize("name", NUMPY_FREE)
    def test_same_bytes_without_numpy(self, name, tmp_path, monkeypatch, capsys):
        index, queries = tmp_path / "w.pnji", tmp_path / "q.txt"
        run_cli(["index", "build", "--word", "110100110010" * 20, "-o", str(index)], capsys=capsys)
        pairs = "".join(f"{z} {o}\n" for z in range(0, 30, 3) for o in range(0, 30, 4))
        queries.write_text(pairs)
        argv = [arg.format(index=index, queries=queries) for arg in NUMPY_FREE[name]]
        expected = run_cli(argv, stdin_text=pairs, capsys=capsys)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert run_cli(argv, stdin_text=pairs, capsys=capsys) == expected
        assert expected[0] == 0 and expected[1]

    def test_a_scanning_command_cannot_run_without_numpy(self, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError):
            run_cli(["check", "--word", "1101"], capsys=capsys)

    def test_fresh_process_imports_numpy_only_to_scan(self):
        script = (
            "import sys\n"
            "import prefixnormal, prefixnormal.cli\n"
            "from prefixnormal.cli import main\n"
            "main(['generate', 'mechanical', '--slope', '3/101', '-n', '1000'])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
            "main(['check', '--word', '1101'])\n"
            "print('numpy' in sys.modules, file=sys.stderr)\n"
        )
        src = str(Path(prefixnormal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split("\n")[1:] == ["NORMAL", ""]
        assert done.stderr.split() == ["False", "True"]


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
    "index query": (
        "main(['index', 'query', {index!r}, '--queries', {queries!r}])",
        {"cli", "errors", "jumbled_index", "word_core"},
    ),
    "density --word": ("main(['density', '--word', '1101' * 300])", {"cli", "errors", "analysis", "word_core"}),
}


class TestModuleLoads:
    """A command loads only the layers it runs, and a command that needs no
    numpy loads no ``dataclasses`` either. One fresh process per shape."""

    @pytest.mark.parametrize("shape", MODULE_LOADS)
    def test_a_fresh_process_loads_only_what_it_runs(self, shape, tmp_path, capsys):
        index, queries = tmp_path / "w.pnji", tmp_path / "q.txt"
        run_cli(["index", "build", "--word", "110100110010" * 20, "-o", str(index)], capsys=capsys)
        queries.write_text("3 4\n10 12\n" * 1000)
        code, expected = MODULE_LOADS[shape]
        lines = ["import sys", "import prefixnormal" if code is None else "from prefixnormal.cli import main"]
        lines += [
            (code or "").format(index=str(index), queries=str(queries)),
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
