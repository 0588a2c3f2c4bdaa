"""The package's public namespace and the README's library and CLI examples."""

import importlib
import io
import re
import shlex
import sys
import types
from pathlib import Path

import pytest

import prefixnormal
from prefixnormal.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_exports_resolve_and_exclude_modules():
    for name in prefixnormal.__all__:
        value = getattr(prefixnormal, name)
        assert not isinstance(value, types.ModuleType), name
    assert {"FiniteWord", "max_word", "min_word", "build_index"} <= set(prefixnormal.__all__)


#: Every public name of the package, under its defining module.
PUBLIC = {
    "errors": [
        "IndexFormatError", "InvalidInputError", "NoBoundError", "RangeError", "ResourceLimitError",
        "UnsupportedParameterError",
    ],
    "word_core": [
        "FiniteWord", "LexOrder", "ParikhVector", "PrefixProfile", "Rational", "complement", "compute_profile",
        "lex_compare", "parikh", "prefix_density", "prefix_weight", "reverse",
    ],
    "generators": [
        "DensityStage", "FIBONACCI_MORPHISM", "FIBONACCI_SLOPE", "MATERIALIZE_CAP", "MorphismSpec",
        "QuadraticIrrational", "SQRT2_SLOPE", "SlopeSpec", "THUE_MORSE_MORPHISM", "WordStream",
        "aperiodic_density_stream", "champernowne", "champernowne_stream", "characteristic_stream",
        "characteristic_word", "density_stages", "fibonacci_stream", "flipext", "flipext_stream",
        "geometric_density_sequence", "lazy_alpha_flipext", "lazy_alpha_flipext_stream", "mechanical_lower",
        "mechanical_stream", "mechanical_upper", "morphic_fixpoint", "morphic_stream", "paperfolding",
        "paperfolding_stream", "thue_morse_stream",
    ],
    "analysis": [
        "MinDensityReport", "PNViolation", "UltimatelyPeriodicWord", "abelian_complexity",
        "check_stream_prefix_normal", "empirical_min_prepend", "find_violation_0", "find_violation_1",
        "format_parikh_set", "is_c_balanced", "is_prefix_normal_0", "is_prefix_normal_1", "is_prenecklace_prefix",
        "max_word", "min_density", "min_density_up", "min_word", "parikh_set", "pnf0", "pnf1",
        "prepend_ones_bound", "reliable_pnf_window",
    ],
    "jumbled_index": ["JumbledIndex", "build_index", "deserialize", "serialize"],
}


def test_all_lists_the_public_names_and_each_is_its_defining_modules_object():
    assert prefixnormal.__all__ == sorted(name for names in PUBLIC.values() for name in names)
    assert len(prefixnormal.__all__) == 74 and prefixnormal.__version__ == "0.1.0"
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"prefixnormal.{module}")
        for name in names:
            assert getattr(prefixnormal, name) is getattr(defining, name), name


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from prefixnormal import *", namespace)
    assert set(prefixnormal.__all__) <= set(namespace)
    assert set(prefixnormal.__all__) <= set(dir(prefixnormal))


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'prefixnormal' has no attribute 'no_such_name'"):
        prefixnormal.no_such_name


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})



#: The README's CLI lines whose comments state an outcome: exit code and stdout.
STATED = {
    "pnw check --word 11100110110": (1, "len=5 start=6 ones=4 prefix_ones=3\n"),
    "pnw density --word 1110000": (0, "3/7 7 3\n"),
    "pnw density --period 1,10": (0, "1/2\n"),
    'echo "3 2" | pnw index query fib.pnji': (0, "yes\n"),
}


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (block,) = [block for block in blocks if block.startswith("pnw ")]
    monkeypatch.chdir(tmp_path)
    runs = {}
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        echo, _, pnw = command.rpartition(" | ")  # echo TEXT | pnw ...
        pnw, _, target = pnw.partition(" > ")  # pnw ... > FILE
        monkeypatch.setattr(sys, "stdin", io.StringIO(" ".join(shlex.split(echo)[1:]) + "\n"))
        code = main(shlex.split(pnw)[1:])
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
        runs[command] = code, out, comment
    for command, (code, out, comment) in runs.items():
        if command in STATED:
            assert (code, out) == STATED[command]
            assert (f"exit {code}" if code else out.strip()) in comment, command
        else:
            assert code == 0, command
    assert set(STATED) <= set(runs)
    assert Path("fib.tsv").read_text().startswith("0\t0\t0\t0\n")
