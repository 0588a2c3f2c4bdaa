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
    """A rational in the ``p/q`` grammar of :meth:`SlopeSpec.parse`."""
    with contextlib.suppress(InvalidInputError):
        spec = SlopeSpec.parse(text)
        if spec.is_rational:
            return spec.value
    raise UsageError(f"cannot parse rational {text!r}")


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
    if (getattr(args, "prepend_ones", None) or 0) < 0:
        raise UsageError("--prepend-ones must be non-negative")
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
    # _resolve_word has rejected a negative count before producing any symbol
    return FiniteWord.ones(count) + word if count else word


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
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
    if args.builtin is None:
        return 0  # a literal word is its own window: its normal forms are exact
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


def _cmd_index_build(args: argparse.Namespace) -> int:
    blob = jumbled_index.serialize(jumbled_index.build_index(_resolve_word(args)))
    args.index_file.write_bytes(blob)
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    index = jumbled_index.deserialize(args.index_file.read_bytes())
    misses = False
    with contextlib.ExitStack() as stack:
        stream = stack.enter_context(open(args.queries)) if args.queries is not None else sys.stdin
        out = stack.enter_context(open(args.output, "w")) if args.output else sys.stdout
        # answered line by line; file lines end at newlines only, str.splitlines also splits at \v, \f
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
            out.write("yes\n" if hit else "no\n")
    return 1 if args.strict and misses else 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.pnf:
        word, profile, _ = _profile_for_output(args)
        words = (word, analysis.pnf1(profile), analysis.pnf0(profile))
    else:
        words = (_resolve_word(args),)
    # one row per prefix length: the length, then ones minus zeros of each word
    walks = [itertools.accumulate(map((-1, 1).__getitem__, bytes(w)), initial=0) for w in words]
    row = "\t".join(["{}"] * (1 + len(words)))
    _emit(args, "\n".join(map(row.format, itertools.count(), *walks)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # option groups shared by several subcommands, declared once as parent parsers
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("builtin", nargs="?", choices=_BUILTINS, help="builtin word name")
    source.add_argument("--word", help="literal bitstring source")
    source.add_argument("--file", type=Path, help="read the word from a file")
    source.add_argument("-n", "--length", type=int, help="prefix length to materialize")
    source.add_argument("--slope", help='slope: "p/q" or "(a+b*sqrt(d))/c"')
    source.add_argument("--intercept", default="0", help='intercept "p/q" (rational slopes only)')
    direction = source.add_mutually_exclusive_group()
    direction.add_argument("--upper", action="store_true", help="upper mechanical word")
    direction.add_argument("--lower", action="store_true", help="lower mechanical word (default)")
    source.add_argument("--seed", help="seed word for the extension operators")
    source.add_argument("--alpha", help='rational density target "p/q" for density-staircase')
    source.add_argument("--a1", help='first density "p/q" of the staircase sequence')
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", type=Path, help="write the result to a file")
    prepend = argparse.ArgumentParser(add_help=False)
    prepend.add_argument("--prepend-ones", type=int, metavar="K", help="prepend K ones first")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window", type=int, help="analysis window length (builtins only)")

    parser = argparse.ArgumentParser(
        prog="pnw",
        description="Generate, check, and index binary words with respect to prefix normality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, func, help_text: str, *parents) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    command(sub, "generate", _cmd_generate, "print a word prefix", source, output)
    p = command(sub, "check", _cmd_check, "test prefix normality", source, prepend, output)
    p.add_argument("--zero", action="store_true", help="check the 0-flavour instead")
    command(sub, "pnf", _cmd_pnf, "print both prefix normal forms", source, prepend, window, output)
    p = command(sub, "abelian", _cmd_abelian, "tabulate abelian complexity", source, output)
    p.add_argument("--range", help="lengths to report, as A..B")
    p = command(sub, "density", _cmd_density, "minimum density report", source, output)
    p.add_argument("--period", metavar="U,X", help="ultimately periodic word U followed by X repeated")
    index = sub.add_parser("index", help="build or query a jumbled-matching index")
    index_sub = index.add_subparsers(dest="action", required=True)
    p = command(index_sub, "build", _cmd_index_build, "serialize an index to a file", source)
    p.add_argument("-o", "--index-file", type=Path, required=True)
    p = command(index_sub, "query", _cmd_index_query, "answer 'ZEROS ONES' queries", output)
    p.add_argument("index_file", type=Path)
    p.add_argument("--queries", type=Path, help="file of query pairs (default: stdin)")
    p.add_argument("--strict", action="store_true", help="exit 1 when any answer is 'no'")
    plot_help = "emit staircase plot rows (ones minus zeros)"
    p = command(sub, "plotdata", _cmd_plotdata, plot_help, source, window, output)
    p.add_argument("--pnf", action="store_true", help="add normal-form columns")
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
