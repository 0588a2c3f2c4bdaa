"""Command-line front end: word generation, prefix-normality checks, normal
forms, abelian complexity, density reports, jumbled indexing, and plot data.

Exit codes: 0 success or positive verdict, 1 semantic negative (violation
found, or a query miss under --strict), 2 usage error, 3 I/O or format error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from . import analysis, generators, jumbled_index
from .analysis import WINDOW_FACTOR
from .errors import IndexFormatError, InvalidInputError, ResourceLimitError
from .generators import SlopeSpec, WordStream
from .word_core import FiniteWord, PrefixProfile, compute_profile


class UsageError(Exception):
    """Raised for bad parameter combinations; mapped to exit code 2."""


class WordFileError(Exception):
    """Raised for a --file that holds no binary word; mapped to exit code 3."""


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}") from exc


def _parse_range(text: str, upper_default: int) -> tuple[int, int]:
    if text is None:
        return 1, upper_default
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise UsageError(f"cannot parse range {text!r}; expected A..B") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"empty or invalid range {text!r}")
    return lo, hi


def _required(args: argparse.Namespace, flag: str) -> str:
    value = getattr(args, flag)
    if not value:
        raise UsageError(f"{args.builtin} requires --{flag}")
    return value


def _density_staircase(args: argparse.Namespace) -> WordStream:
    alpha = _parse_fraction(_required(args, "alpha"))
    a1 = _parse_fraction(args.a1) if args.a1 else None
    return generators.aperiodic_density_stream(
        alpha, generators.geometric_density_sequence(alpha, a1)
    )


#: Builtin word sources by name; each factory reads its parameters from the
#: parsed arguments and raises UsageError when a required one is missing.
_BUILTINS = {
    "fibonacci": lambda args: generators.fibonacci_stream(),
    "thue-morse": lambda args: generators.thue_morse_stream(),
    "paperfolding": lambda args: generators.paperfolding_stream(),
    "champernowne": lambda args: generators.champernowne_stream(),
    "mechanical": lambda args: generators.mechanical_stream(
        SlopeSpec.parse(_required(args, "slope")),
        _parse_fraction(args.intercept),
        upper=bool(args.upper),
    ),
    "flipext-omega": lambda args: generators.flipext_stream(FiniteWord(_required(args, "seed"))),
    "lazy-flipext-omega": lambda args: generators.lazy_alpha_flipext_stream(
        slope=SlopeSpec.parse(_required(args, "slope")), w=FiniteWord(args.seed or "1")
    ),
    "density-staircase": _density_staircase,
}


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("builtin", nargs="?", choices=_BUILTINS, help="builtin word name")
    parser.add_argument("--word", help="literal bitstring source")
    parser.add_argument("--file", type=Path, help="read the word from a file")
    parser.add_argument("-n", "--length", type=int, help="prefix length to materialize")
    parser.add_argument("--slope", help='slope: "p/q" or "(a+b*sqrt(d))/c"')
    parser.add_argument("--intercept", default="0", help='intercept "p/q" (rational slopes only)')
    direction = parser.add_mutually_exclusive_group()
    direction.add_argument("--upper", action="store_true", help="upper mechanical word")
    direction.add_argument("--lower", action="store_true", help="lower mechanical word (default)")
    parser.add_argument("--seed", help="seed word for the extension operators")
    parser.add_argument("--alpha", help="rational density target for density-staircase")
    parser.add_argument("--a1", help="first density of the staircase sequence")


def _resolve_word(args: argparse.Namespace, widen: bool = False) -> FiniteWord:
    """Materialize the single word source (builtin, literal, or file).

    With ``widen``, a builtin is materialized over its analysis window:
    ``WINDOW_FACTOR`` times the requested length unless --window says
    otherwise, and never shorter than the requested length.
    """
    sources = [s for s in (args.builtin, args.word, args.file) if s is not None]
    if len(sources) != 1:
        raise UsageError("exactly one of BUILTIN, --word, or --file is required")
    if args.length is not None and args.length < 0:
        raise UsageError("prefix length must be non-negative")
    if args.word is not None or args.file is not None:
        if args.file is not None:
            text = args.file.read_text().splitlines()
            try:
                word = FiniteWord(text[0].strip() if text else "")
            except InvalidInputError as exc:
                raise WordFileError(f"{args.file}: {exc}") from exc
        else:
            word = FiniteWord(args.word)
        if args.length is not None:
            if args.length > len(word):
                raise UsageError(f"requested length {args.length} exceeds word length {len(word)}")
            word = word[: args.length]
        return word
    length = args.length
    if length is None:
        raise UsageError("builtin sources require -n/--length")
    if widen:
        length = max(WINDOW_FACTOR * length if args.window is None else args.window, length)
    return _BUILTINS[args.builtin](args).prefix(length)


def _apply_prepend(word: FiniteWord, count: int | None) -> FiniteWord:
    if not count:
        return word
    if count < 0:
        raise UsageError("--prepend-ones must be non-negative")
    return FiniteWord.ones(count) + word


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        args.output.write_text(text + "\n")
    else:
        print(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    _emit(args, str(_resolve_word(args)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    word = _apply_prepend(_resolve_word(args), args.prepend_ones)
    finder = analysis.find_violation_0 if args.zero else analysis.find_violation_1
    violation = finder(word)
    if violation is None:
        _emit(args, "NORMAL")
        return 0
    _emit(args, violation.render())
    return 1


def _profile_for_output(args: argparse.Namespace) -> tuple[FiniteWord, PrefixProfile, int]:
    """The output word, its profile over a widened analysis window, and the
    length up to which that profile is trusted.

    Builtin sources are materialized once, ``WINDOW_FACTOR`` times longer
    than the printed length (overridable via --window), so every printed
    position lies in the trusted quarter of the window; the output word is
    the window's prefix, and only its lengths are profiled, over every
    factor of the window. Literal words are their own window.
    """
    window = _resolve_word(args, widen=True)
    wide = _apply_prepend(window, getattr(args, "prepend_ones", None))
    # a literal is printed whole; a builtin up to -n symbols after the prepended ones
    out_len = len(wide) if args.builtin is None else len(wide) - len(window) + args.length
    reliable = analysis.reliable_pnf_window(len(wide))
    return wide[:out_len], compute_profile(wide, out_len), reliable


def _cmd_pnf(args: argparse.Namespace) -> int:
    _, profile, reliable = _profile_for_output(args)
    _emit(args, f"{analysis.pnf1(profile)}\n{analysis.pnf0(profile)}")
    if reliable < profile.length:
        note = f"positions beyond {reliable} may change with a longer analysis window"
    else:
        note = f"all {profile.length} positions lie within the reliable range"
    basis = f"the reliable range comes from the {WINDOW_FACTOR}n window heuristic and is not certified"
    print(f"note: {note}; {basis}", file=sys.stderr)
    return 0


def _cmd_abelian(args: argparse.Namespace) -> int:
    word = _resolve_word(args)
    # compute_profile reports an empty word before any range is read
    lo, hi = _parse_range(args.range, len(word)) if word else (1, 0)
    if hi > len(word):
        raise UsageError(f"range end {hi} exceeds word length {len(word)}")
    profile = compute_profile(word, hi)
    lines = [f"{n}\t{analysis.abelian_complexity(profile, n)}" for n in range(lo, hi + 1)]
    _emit(args, "\n".join(lines))
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    if args.period is not None:
        if args.word is not None or args.builtin is not None or args.file is not None:
            raise UsageError("--period cannot be combined with another word source")
        pre_text, _, per_text = args.period.partition(",")
        up = analysis.UltimatelyPeriodicWord(FiniteWord(pre_text), FiniteWord(per_text))
        delta = analysis.min_density_up(up)
        _emit(args, f"{delta.numerator}/{delta.denominator}")
        return 0
    word = _resolve_word(args)
    report = analysis.min_density(word)
    _emit(args, f"{report.delta.numerator}/{report.delta.denominator} {report.iota} {report.kappa}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    if args.action == "build":
        word = _resolve_word(args)
        blob = jumbled_index.serialize(jumbled_index.build_index(word))
        args.index_file.write_bytes(blob)
        return 0
    index = jumbled_index.deserialize(args.index_file.read_bytes())
    answers = []
    misses = False
    source = open(args.queries) if args.queries is not None else contextlib.nullcontext(sys.stdin)
    with source as stream:
        # file lines end at newlines only; str.splitlines also splits at \v, \f and others
        for line in itertools.chain.from_iterable(map(str.splitlines, stream)):
            if not line.strip():
                continue
            try:
                zeros_text, ones_text = line.split()
                zeros, ones = int(zeros_text), int(ones_text)
            except ValueError as exc:
                raise UsageError(f"cannot parse query line {line!r}; expected 'ZEROS ONES'") from exc
            hit = index.query(zeros, ones)
            misses = misses or not hit
            answers.append("yes" if hit else "no")
    _emit(args, "\n".join(answers))
    return 1 if args.strict and misses else 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.pnf:
        word, profile, _ = _profile_for_output(args)
        words = (word, analysis.pnf1(profile), analysis.pnf0(profile))
    else:
        words = (_resolve_word(args),)
    steps = np.arange(len(words[0]) + 1)
    # one row per prefix length: the length, then ones minus zeros of each word
    table = np.column_stack([steps] + [2 * w.prefix_sums() - steps for w in words])
    _emit(args, "\n".join("\t".join(map(str, row)) for row in table.tolist()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnw",
        description="Generate, check, and index binary words with respect to prefix normality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print a word prefix")
    _add_source_arguments(p)
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="test prefix normality")
    _add_source_arguments(p)
    p.add_argument("--zero", action="store_true", help="check the 0-flavour instead")
    p.add_argument("--prepend-ones", type=int, metavar="K", help="prepend K ones first")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("pnf", help="print both prefix normal forms")
    _add_source_arguments(p)
    p.add_argument("--prepend-ones", type=int, metavar="K")
    p.add_argument("--window", type=int, help="analysis window length (builtins only)")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_pnf)

    p = sub.add_parser("abelian", help="tabulate abelian complexity")
    _add_source_arguments(p)
    p.add_argument("--range", help="lengths to report, as A..B")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_abelian)

    p = sub.add_parser("density", help="minimum density report")
    _add_source_arguments(p)
    p.add_argument("--period", metavar="U,X", help="ultimately periodic word U followed by X repeated")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("index", help="build or query a jumbled-matching index")
    index_sub = p.add_subparsers(dest="action", required=True)
    b = index_sub.add_parser("build", help="serialize an index to a file")
    _add_source_arguments(b)
    b.add_argument("-o", "--index-file", type=Path, required=True)
    b.set_defaults(func=_cmd_index, action="build")
    q = index_sub.add_parser("query", help="answer 'ZEROS ONES' queries")
    q.add_argument("index_file", type=Path)
    q.add_argument("--queries", type=Path, help="file of query pairs (default: stdin)")
    q.add_argument("--strict", action="store_true", help="exit 1 when any answer is 'no'")
    q.add_argument("-o", "--output", type=Path)
    q.set_defaults(func=_cmd_index, action="query")

    p = sub.add_parser("plotdata", help="emit staircase plot rows (ones minus zeros)")
    _add_source_arguments(p)
    p.add_argument("--pnf", action="store_true", help="add normal-form columns")
    p.add_argument("--window", type=int, help="analysis window length for the normal forms")
    p.add_argument("-o", "--output", type=Path)
    p.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, IndexFormatError, UnicodeDecodeError, WordFileError) as exc:
        # before the exit-2 arm: both format errors are ValueError subclasses
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ResourceLimitError, ValueError, IndexError) as exc:
        # library precondition failures surface as usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
