"""Command-line front end: word generation, prefix-normality checks, normal
forms, abelian complexity, density reports, jumbled indexing, and plot data.

Exit codes: 0 success or positive verdict, 1 semantic negative (violation
found, or a query miss under --strict), 2 usage error, 3 I/O or format error.

Each command imports the layers it runs when it runs, so a command loads
``generators`` only for a builtin source and ``analysis`` or
``jumbled_index`` only when it analyzes or indexes.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import operator
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import IndexFormatError, InvalidInputError, ResourceLimitError

if TYPE_CHECKING:
    from fractions import Fraction
    from types import ModuleType

    from .generators import SlopeSpec, WordStream
    from .word_core import FiniteWord

#: Most answers of a --queries file written with one call.
_QUERY_BLOCK = 4096


class UsageError(Exception):
    """Raised for bad parameter combinations; mapped to exit code 2."""


class WordFileError(Exception):
    """Raised for a --file that holds no binary word; mapped to exit code 3."""


def _generators() -> ModuleType:
    """The generators module, imported the first time a builtin source is built."""
    from . import generators
    return generators


def _word(text: str | bytes) -> FiniteWord:
    from .word_core import FiniteWord
    return FiniteWord(text)


def _parse_fraction(text: str) -> Fraction:
    """A rational in the ``p/q`` grammar of :meth:`SlopeSpec.parse`."""
    with contextlib.suppress(InvalidInputError):
        spec = _generators().SlopeSpec.parse(text)
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


def _slope(args: argparse.Namespace) -> SlopeSpec:
    if isinstance(slope := _required(args, "slope"), str):  # parsed once: a stream and its forms map both read it
        slope = args.slope = _generators().SlopeSpec.parse(slope)
    return slope


def _density_staircase(args: argparse.Namespace) -> WordStream:
    alpha = _parse_fraction(_required(args, "alpha"))
    a1 = _parse_fraction(args.a1) if args.a1 else None
    generators = _generators()
    return generators.aperiodic_density_stream(alpha, generators.geometric_density_sequence(alpha, a1))


def _mechanical_forms(slope: SlopeSpec, n: int) -> tuple[FiniteWord, FiniteWord]:
    """A balanced word of slope ``a`` has ``ceil(i*a)`` 1s in its heaviest and
    ``floor(i*a)`` in its lightest factors of length ``i``, the prefix weights
    of its upper and lower mechanical words of intercept 0."""
    generators = _generators()
    return generators.mechanical_upper(slope, 0, n), generators.mechanical_lower(slope, 0, n)


def _lazy_flipext_forms(args: argparse.Namespace, stream: WordStream, n: int) -> tuple[FiniteWord, FiniteWord]:
    """Past ``w`` and a run of 0s the stream follows the upper mechanical word
    ``U`` of slope ``a``, and every prefix is prefix normal (see
    ``generators.lazy_alpha_flipext_stream``), so pnf1 is the printed prefix.
    The tail holds every factor of ``U``, the lightest of ``floor(i*a)`` 1s. A
    leading 1 moves right and a 0 after a 0 moves left, never gaining weight,
    so a lighter factor starts after a 1 followed by a 0, at an ``s <= |w|``
    with prefix weight ``P(s) > ceil(s*a)``: else it weighs at least
    ``ceil((s+i)*a) - ceil(s*a) >= floor(i*a)``, and it ends by symbol ``|w| + n``.
    From ``E``, the end of the 0s, ``P(j) = ceil(j*a)``, so a factor at ``s`` of
    length ``i >= E`` weighs ``ceil(i*a - d_s)`` for ``d_s = P(s) - s*a``: there
    the start of greatest ``d_s`` alone is the lightest, and only the lengths
    below ``E`` read every start."""
    slope, seed = _slope(args), len(args.seed or "1")
    raw = bytes(window := stream.prefix(seed + n))
    weights = list(itertools.accumulate(raw[: seed + 1], initial=0))
    starts = [s for s in range(1, seed + 1) if raw[s - 1] > raw[s] and weights[s] > math.ceil(s * slope.value)]
    lower = _generators().mechanical_lower(slope, 0, n)
    if not starts:  # from seed 1 no start remains
        return window[:n], lower
    from .word_core import _word_with_prefix_weights
    end = raw.find(1, seed)  # at or past E, the end of the 0s; none in the window: every length is short
    short = n if end < 0 else min(n, end)
    sums, least = list(itertools.accumulate(raw)), list(itertools.accumulate(bytes(lower)))
    for s in starts:
        least[:short] = map(min, least[:short], map(operator.sub, sums[s : s + short], itertools.repeat(sums[s - 1])))
    if short < n:
        s = starts[0]
        for t in starts[1:]:  # d_t > d_s when the integer P(t) - P(s) exceeds (t - s)*a, so its floor
            if weights[t] - weights[s] > math.floor((t - s) * slope.value):
                s = t
        tail = map(operator.sub, sums[s + short : s + n], itertools.repeat(sums[s - 1]))
        least[short:] = map(min, least[short:], tail)
    return window[:n], _word_with_prefix_weights(least)


def _paperfolding_form(pick: Callable[[int, int], int], n: int) -> FiniteWord:
    """pnf1 (``pick`` max) or pnf0 (min) of paperfolding to length ``n``. Counting
    from 1, odd positions alternate ``0 1 0 1 ...`` and position ``2j`` repeats
    ``j``: for ``a = ceil(L/2)`` and ``b = floor(L/2)``, a factor of length ``L`` at
    an odd start ``s`` is ``a`` alternating symbols, led by 1 when ``s = 3 mod 4``,
    and the factor of length ``b`` at ``(s+1)/2``, odd when ``s = 1 mod 4``; at an
    even ``s``, the factor of length ``a`` at ``s/2`` and ``b`` alternating symbols,
    led by 1 when ``s/2`` is odd. Each class of ``s`` mod 4 maps onto all odd or all
    even starts, so the pick at odd starts is ``O(L) = pick(floor(a/2) + O(b),
    ceil(a/2) + E(b))``, at even ``E(L) = pick(E(a) + floor(b/2), O(a) + ceil(b/2))``."""
    from array import array
    odd = array("I", [0, pick(0, 1)])  # by length, from 0; O(1) = E(1): odd and even positions hold both letters
    even = array("I", odd)
    for length in range(2, n + 1):
        a, b = (length + 1) // 2, length // 2
        odd.append(pick(a // 2 + odd[b], (a + 1) // 2 + even[b]))
        even.append(pick(even[a] + b // 2, odd[a] + (b + 1) // 2))
    weights = array("I", map(pick, odd, even))
    return _word(bytes(map(operator.sub, itertools.islice(weights, 1, None), weights)))


def _prepended_forms(
    args: argparse.Namespace, stream: WordStream | None, word: FiniteWord
) -> tuple[FiniteWord, FiniteWord] | None:
    """The normal forms of the infinite word ``x = 1^K w`` to the length of
    ``word``, its prefix, for a builtin ``w`` with a ``forms`` map, read from
    its ``stream``; None for another source or an empty word. A factor that
    starts in the 1s, ``t >= 1`` of them, weighs ``t + P_w(i - t)``: at most
    ``P_x(i)``, and at least ``1 + P_w(i - 1) >= P_w(i)``, no lighter than the
    lightest in ``w``. So pnf0 is ``w``'s, and pnf1 has prefix weights the
    greater of ``w``'s max-1s and ``P_x(i)``."""
    builtin = _BUILTINS.get(args.builtin)
    if builtin is None or builtin.forms is None or not word:
        return None
    pnf1, pnf0 = builtin.forms(args, stream, len(word))
    if getattr(args, "prepend_ones", None):
        from .word_core import _word_with_prefix_weights
        heaviest = map(max, itertools.accumulate(bytes(pnf1)), itertools.accumulate(bytes(word)))
        pnf1 = _word_with_prefix_weights(list(heaviest))
    return pnf1, pnf0


class _Builtin(NamedTuple):
    """A builtin's stream factory and, for exact normal forms, why they are exact
    and a map from the arguments, the stream and ``n`` to the first ``n`` symbols
    of (pnf1, pnf0) that reads the stream only as far as its proof needs."""

    stream: Callable[[argparse.Namespace], WordStream]
    reason: str | None = None
    forms: Callable[[argparse.Namespace, WordStream, int], tuple[FiniteWord, FiniteWord]] | None = None


#: Builtin word sources by name; a factory raises UsageError when a parameter it needs is missing.
_BUILTINS = {
    "fibonacci": _Builtin(
        lambda args: _generators().fibonacci_stream(), "the Fibonacci word is Sturmian",
        lambda args, stream, n: _mechanical_forms(_generators().FIBONACCI_SLOPE, n),
    ),
    "thue-morse": _Builtin(
        lambda args: _generators().thue_morse_stream(),
        "Thue-Morse has abelian complexity 2 and 3 (Richomme, Saari and Zamboni, 2011)",
        # the first n symbols of 1(10)^omega and of 0(01)^omega
        lambda args, stream, n: (_word(("1" + "10" * (n // 2))[:n]), _word(("0" + "01" * (n // 2))[:n])),
    ),
    "paperfolding": _Builtin(
        lambda args: _generators().paperfolding_stream(),
        "its odd positions alternate 0 1 and position 2j repeats position j",
        lambda args, stream, n: (_paperfolding_form(max, n), _paperfolding_form(min, n)),
    ),
    "champernowne": _Builtin(lambda args: _generators().champernowne_stream()),
    # a p/q word is periodic, and every intercept and direction has the same factors
    "mechanical": _Builtin(
        lambda args: _generators().mechanical_stream(_slope(args), _parse_fraction(args.intercept), bool(args.upper)),
        "a mechanical word is balanced", lambda args, stream, n: _mechanical_forms(_slope(args), n),
    ),
    "flipext-omega": _Builtin(lambda args: _generators().flipext_stream(_word(_required(args, "seed")))),
    "lazy-flipext-omega": _Builtin(
        lambda args: _generators().lazy_alpha_flipext_stream(slope=_slope(args), w=_word(args.seed or "1")),
        "past its seed and a run of 0s it follows the upper mechanical word of its slope", _lazy_flipext_forms,
    ),
    # pnf1: every prefix is prefix normal (see generators._density_stages);
    # pnf0: each run of 0s is longer than the last, so 0^i is a factor for every i
    "density-staircase": _Builtin(
        _density_staircase, "every prefix is prefix normal and its runs of 0s grow without bound",
        lambda args, stream, n: (stream.prefix(n), _word("0" * n)),
    ),
}


def _resolve_word(args: argparse.Namespace) -> tuple[FiniteWord, WordStream | None]:
    """Materialize the analysed word, --prepend-ones 1s and then the single
    source (builtin, literal, or file), with the builtin's stream or None; a word
    past ``MATERIALIZE_CAP`` symbols, its 1s included, is refused before any
    symbol is built."""
    sources = [s for s in (args.builtin, args.word, args.file) if s is not None]
    if len(sources) != 1:
        raise UsageError("exactly one of BUILTIN, --word, or --file is required")
    if args.length is not None and args.length < 0:
        raise UsageError("prefix length must be non-negative")
    prepend = getattr(args, "prepend_ones", None) or 0
    if prepend < 0:
        raise UsageError("--prepend-ones must be non-negative")
    if args.builtin is None:
        text = args.word if args.file is None else (args.file.read_text().splitlines() or [""])[0].strip()
        length = len(text) if args.length is None else min(args.length, len(text))
    elif args.length is None:
        raise UsageError("builtin sources require -n/--length")
    else:
        length = args.length
    from .word_core import _check_cap
    _check_cap(prepend + length)
    stream = None if args.builtin is None else _BUILTINS[args.builtin].stream(args)
    if stream is None:
        try:
            word = _word(text)
        except InvalidInputError as exc:
            if args.file is None:
                raise
            raise WordFileError(f"{args.file}: {exc}") from exc
        if args.length is not None:
            if args.length > len(word):
                raise UsageError(f"requested length {args.length} exceeds word length {len(word)}")
            word = word[: args.length]
    else:
        word = stream.prefix(length)
    return (_word("1" * prepend) + word if prepend else word), stream


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        args.output.write_text(text + "\n")
    else:
        print(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    _emit(args, str(_resolve_word(args)[0]))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """A builtin with exact normal forms is NORMAL when the word starts with the
    flavour's letter and equals that flavour's form: the infinite word's heaviest
    (lightest) factors bound the prefix's. Other words are scanned, at once by the
    first-run search if they start with the other letter, as are a word whose forms
    read past the cap and paperfolding, whose early violations a scan finds first."""
    word, stream = _resolve_word(args)
    form = 1 if args.zero else 0  # pnf0 or pnf1, in the order _prepended_forms returns them
    forms = None
    if word and word[0] == 1 - form and args.builtin != "paperfolding":
        with contextlib.suppress(ResourceLimitError):
            forms = _prepended_forms(args, stream, word)
    if forms is not None and forms[form] == word:
        violation = None
    else:
        from .analysis import find_violation_0, find_violation_1
        violation = (find_violation_0 if args.zero else find_violation_1)(word)
    _emit(args, "NORMAL" if violation is None else violation.render())
    return 0 if violation is None else 1


def _forms_for_output(args: argparse.Namespace) -> tuple[FiniteWord, FiniteWord, FiniteWord, str | None]:
    """The output word, its two normal forms, and the stderr note on them, None
    for a literal: its own window, its forms are exact. A builtin with a ``forms``
    map gets its infinite word's forms, with any --prepend-ones 1s, or exits 2 when
    they read past the cap. --window, an empty word (left to the window's profile to
    reject) and a builtin with no map get a finite window's forms, uncertified."""
    word, stream = _resolve_word(args)
    forms = None if args.window is not None else _prepended_forms(args, stream, word)
    if forms is not None:
        return word, *forms, f"all {len(word)} positions are exact: {_BUILTINS[args.builtin].reason}"
    from .analysis import WINDOW_FACTOR, pnf0, pnf1
    from .word_core import _check_cap, compute_profile
    window = word
    if stream is not None:  # the 1s, then WINDOW_FACTOR * n symbols of the builtin or --window, never fewer than n
        prepend, n = len(word) - args.length, args.length
        length = max(WINDOW_FACTOR * n if args.window is None else args.window, n)
        _check_cap(prepend + length)
        window = word[:prepend] + stream.prefix(length)
    profile = compute_profile(window, len(word))  # only the printed lengths, over every factor of the window
    note = f"normal forms of the first {len(window)} symbols; not certified for the infinite word"
    return word, pnf1(profile), pnf0(profile), note if args.builtin else None


def _print_note(note: str | None) -> None:
    if note is not None:
        print(f"note: {note}", file=sys.stderr)


def _cmd_pnf(args: argparse.Namespace) -> int:
    _, pnf1, pnf0, note = _forms_for_output(args)
    _emit(args, f"{pnf1}\n{pnf0}")
    _print_note(note)
    return 0


def _cmd_abelian(args: argparse.Namespace) -> int:
    from .analysis import abelian_complexity
    from .word_core import compute_profile
    word, _ = _resolve_word(args)
    # compute_profile reports an empty word before any range is read
    lo, hi = _parse_range(args.range, len(word)) if word else (1, 0)
    if hi > len(word):
        raise UsageError(f"range end {hi} exceeds word length {len(word)}")
    profile = compute_profile(word, hi)
    lines = [f"{n}\t{abelian_complexity(profile, n)}" for n in range(lo, hi + 1)]
    _emit(args, "\n".join(lines))
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    from .analysis import UltimatelyPeriodicWord, min_density, min_density_up
    if args.period is not None:
        if args.word is not None or args.builtin is not None or args.file is not None:
            raise UsageError("--period cannot be combined with another word source")
        pre_text, _, per_text = args.period.partition(",")
        up = UltimatelyPeriodicWord(_word(pre_text), _word(per_text))
        delta = min_density_up(up)
        _emit(args, f"{delta.numerator}/{delta.denominator}")
        return 0
    word, _ = _resolve_word(args)
    report = min_density(word)
    _emit(args, f"{report.delta.numerator}/{report.delta.denominator} {report.iota} {report.kappa}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    from .jumbled_index import build_index, serialize
    blob = serialize(build_index(_resolve_word(args)[0]))
    args.index_file.write_bytes(blob)
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    from .jumbled_index import deserialize
    index = deserialize(args.index_file.read_bytes())
    misses = False
    with contextlib.ExitStack() as stack:
        stream = stack.enter_context(open(args.queries)) if args.queries is not None else sys.stdin
        out = stack.enter_context(open(args.output, "w")) if args.output else sys.stdout
        # stdin is answered line by line, a file _QUERY_BLOCK answers per write
        block, answers = (1 if args.queries is None else _QUERY_BLOCK), []
        try:
            # file lines end at newlines only, str.splitlines also splits at \v, \f
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
                answers.append("yes\n" if hit else "no\n")
                if len(answers) == block:
                    out.write("".join(answers))
                    answers.clear()
        finally:  # the answers before a malformed line are written too
            if answers:
                out.write("".join(answers))
    return 1 if args.strict and misses else 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    if args.pnf:
        *words, note = _forms_for_output(args)
    else:
        words, note = [_resolve_word(args)[0]], None
    # one row per prefix length: the length, then ones minus zeros of each word
    walks = [itertools.accumulate(map((-1, 1).__getitem__, bytes(w)), initial=0) for w in words]
    row = "\t".join(["{}"] * (1 + len(words)))
    _emit(args, "\n".join(map(row.format, itertools.count(), *walks)))
    _print_note(note)
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
