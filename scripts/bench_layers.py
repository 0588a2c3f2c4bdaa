"""Per-layer timings for the ``BENCH_*.json`` files, at several sizes so that
scaling shows.

Every row is timed by one rule. Each source tree (a directory that holds the
``prefixnormal`` package, such as ``src`` of a checkout) gets one long-lived
child with a copy of the tree on ``PYTHONPATH``, pinned with the script to one
CPU. The copy holds no ``__pycache__`` and no process writes one
(``PYTHONDONTWRITEBYTECODE=1``), so every tree's processes compile the package
from source, as in a fresh checkout, whatever bytecode the tree holds. The
child builds and checks the benchmark words once and freezes them out of the
garbage collector. Each request "row R at size n" then makes one call, with
the garbage collected first and the collector off during the call; the child
answers with its seconds and a sha256 of its result. A process row's call is
one fresh ``python -c`` process, timed whole, whose digest covers its exit
code and stdout. Each round calls every row ``REPEATS`` times per tree, the
trees' calls interleaved call by call in an order rotated by round + row +
repeat, so paired calls run milliseconds apart and every tree takes every
position equally often; the round keeps each tree's fastest call. A digest
that differs between calls or trees stops the script.

A row gives the median and quartiles of its per-round times and its spread
ratio (q3 - q1) / median; a layer timed at every size gets the exponent of a
least-squares fit of log time against log n. Every tree after the first gets
the median and quartiles of its per-round ratio to the first tree. Cite
those: a ratio whose quartile band is wider than ``SPREAD_LIMIT`` cannot show
a 10% change, and gets a warning.

    python scripts/bench_layers.py --tree parent=../parent/src --tree change=src \\
        --tree aa=../parent-copy/src --sizes 4096 16384 65536 --rounds 7 --out BENCH_28.json

The kernel rows scan the word ``1`` followed by the Fibonacci word, which is
prefix normal and 1-balanced, so ``find_violation_1`` and
``is_c_balanced(w, 1)`` scan every factor length, as the full profile does.
The ``.sparse`` rows check and profile ``(1 0^63)^(n/64)``, prefix normal with
n/64 1s, so the spans read about (n/64)^2/2 cells; the ``.long_runs`` rows
``(1^64 0^64)^(n/128)``, prefix normal with n/2 of each letter, about n^2/8
cells, the backend's costliest kind of word for its length. The child checks
every verdict before it times anything. These rows run with numpy loaded, so
every scan takes numpy's span blocks. The ``.lanes.random``, ``.lanes.normal``
and ``.lanes.sparse`` rows take the lanes instead: they scan a random word of
``LANE_SIZE`` symbols, its 1-prefix normal form and ``(1 0^63)^500``, whatever
``--sizes`` says, with ``sys.modules["numpy"]`` set to None and every scan
sent to the lanes during the call, as a parent's backend rule may not send
them. The generator row times ``flipext_stream(FiniteWord("11010011")).prefix(n)``,
a prefix normal seed of minimum density 1/2. The lexicographic rows time
``max_word`` and ``min_word`` at ``LEX_LENGTHS`` seeded lengths on four words
of each size: a random word, its 1-prefix normal form, a word with a 1 at
about every 64th symbol, and ``(01)^(n/2)``. The index rows time
``DESERIALIZE_CALLS`` calls of ``deserialize`` on the index of the random
word, and ``QUERY_PAIRS`` queries around its band of 1s, 1% of them longer
than the word.

The process rows (``PROCESS_LAYERS``) run at a fixed size, whatever
``--sizes`` says: importing the CLI; ``pnf fibonacci -n 8000``, which prints
closed forms; eight commands that load no numpy (among them ``check`` of a word
settled by its first run, ``generate lazy-flipext-omega`` from its default
seed ``1``, and three whose scans fit the lane budget of 2^22 lane reads:
``abelian --range``, ``index build --word`` and the seed check of
``generate flipext-omega``); two checks that ``pnw`` decides from the closed
normal form of the builtin with no scan and no numpy, ``check lazy-flipext-omega
--slope 1/64 -n 32000``, the word ``(1 0^63)^500``, and ``check fibonacci
--prepend-ones 1 -n 32000``; ``check --word`` of ``1`` and
3,094 Fibonacci symbols, prefix normal, whose full scan lies just past that
budget, so it loads numpy; and one ``max_word`` call on a random word of
``LEX_PROCESS_SIZE`` symbols. ``index query`` reads an index that the first
tree builds once, and ``index build`` writes to a scratch file. Exit code 1 is
``pnw check``'s verdict on a word that is not prefix normal; any other
non-zero exit code stops the script.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

#: Calls per tree, row and round, interleaved across trees; the round keeps each tree's fastest.
REPEATS = 4
#: Lexicographic extremes, timed over ``LEX_LENGTHS`` lengths on each of these words.
LEX_WORDS = ("random", "normal", "sparse", "alternating")
LEX_LAYERS = tuple(f"analysis.{name}.{word}" for name in ("max_word", "min_word") for word in LEX_WORDS)
LEX_LENGTHS = 64
#: ``deserialize`` calls and query pairs timed per size; 1% of the queries are longer than the word.
DESERIALIZE_CALLS = 10
QUERY_PAIRS = 100_000
#: Layers timed in process at every size of ``--sizes``.
LAYERS = ("word_core.compute_profile", "word_core.compute_profile.sparse", "word_core.compute_profile.long_runs",
          "analysis.find_violation_1", "analysis.find_violation_1.sparse", "analysis.find_violation_1.long_runs",
          "analysis.is_c_balanced", "generators.flipext_stream", *LEX_LAYERS, "jumbled_index.deserialize",
          "jumbled_index.query")
#: Symbols of the random word of the lane rows, and of (1 0^63)^500: the full scans of both fit the lane budget.
LANE_SIZE, SPARSE_LANE_SIZE = 2000, 32000
#: Layers timed in process with numpy blocked, so that their scans take the lanes, at the size of their word.
LANE_LAYERS = {f"{layer}.lanes.{word}": n for layer in ("word_core.compute_profile", "analysis.find_violation_1")
               for word, n in (("random", LANE_SIZE), ("normal", LANE_SIZE), ("sparse", SPARSE_LANE_SIZE))}
FLIPEXT_SEED = "11010011"
#: ``python -c`` code that runs ``pnw`` on the arguments after it, as the benchmark does.
PNW = "import sys; from prefixnormal.cli import main; sys.exit(main())"
#: ``10`` and 1,998 random symbols, like the benchmark's ``check --word``: it violates at length 2.
CHECK_WORD = "10" + "".join(random.Random(1998).choices("01", k=1998))


def fibonacci_word(n: int) -> str:
    """The first ``n`` symbols of the Fibonacci word, the fixpoint of 0 -> 01, 1 -> 0."""
    word = "0"
    while len(word) < n:
        word = "".join("01" if symbol == "0" else "0" for symbol in word)
    return word[:n]


#: ``1`` and 3,094 Fibonacci symbols: prefix normal, and a full scan just past the lane budget.
NORMAL_WORD = "1" + fibonacci_word(3094)
#: 2,000 random symbols, indexed by ``cli.index_build``.
INDEX_WORD = "".join(random.Random(2000).choices("01", k=2000))
#: Layers timed as fresh processes at a fixed size: ``python -c`` code and its arguments.
PROCESS_LAYERS = {
    "startup.import_cli": ("import prefixnormal.cli", []),
    "cli.pnf_fibonacci": (PNW, ["pnf", "fibonacci", "-n", "8000"]),
    "cli.index_query": (PNW, ["index", "query", "{index}", "--queries", "{queries}"]),
    "cli.density_word": (PNW, ["density", "--word", "1101" * 300 + "0001" * 200]),
    "cli.generate_mechanical": (PNW, ["generate", "mechanical", "--slope", "3/101", "-n", "2000"]),
    "cli.generate_lazy_flipext": (PNW, ["generate", "lazy-flipext-omega", "--slope", "(-1+1*sqrt(2))/1",
                                        "-n", "2000"]),
    "cli.check_violation": (PNW, ["check", "--word", CHECK_WORD]),
    "cli.abelian_range": (PNW, ["abelian", "paperfolding", "-n", "2000", "--range", "1..100"]),
    "cli.index_build": (PNW, ["index", "build", "--word", INDEX_WORD, "-o", "{built}"]),
    "cli.generate_flipext": (PNW, ["generate", "flipext-omega", "--seed", FLIPEXT_SEED, "-n", "1000"]),
    "cli.check_normal": (PNW, ["check", "--word", NORMAL_WORD]),
    "cli.check_fibonacci": (PNW, ["check", "fibonacci", "--prepend-ones", "1", "-n", "32000"]),
    "cli.check_lazy_sparse": (PNW, ["check", "lazy-flipext-omega", "--slope", "1/64", "-n", "32000"]),
    "library.lex": ("import sys, prefixnormal as pn; w = pn.FiniteWord(open(sys.argv[1]).read());"
                    " print(pn.max_word(w, len(w) // 2))", ["{lex_word}"]),
}
#: Symbols of the random word of ``library.lex``.
LEX_PROCESS_SIZE = 16384
#: The index and the 2,000 query pairs of ``cli.index_query``.
INDEX_SOURCE = ["fibonacci", "-n", "2048"]
QUERIES = "".join(f"{zeros} {ones}\n" for zeros in range(50) for ones in range(40))
#: Widest quartile band q3 - q1 of a paired ratio at which it can show a 10% change.
SPREAD_LIMIT = 0.10


def pin_to_one_cpu() -> int | None:
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def in_lanes(word_core, scan, w):
    """``scan(w)`` in lanes, with numpy counted as not loaded and not importable, whatever the tree's backend rule
    picks: a parent's rule may send a scan to numpy that a later one runs in lanes."""
    numpy, backend = sys.modules["numpy"], word_core._backend
    sys.modules["numpy"], word_core._backend = None, lambda w, lengths: word_core._lane_extremes
    try:
        return scan(w)
    finally:
        sys.modules["numpy"], word_core._backend = numpy, backend


def each_length(extreme, w, lengths: list[int]) -> list:
    return [extreme(w, i) for i in lengths]


def deserialize_all(deserialize, blob: bytes):
    return [deserialize(blob) for _ in range(DESERIALIZE_CALLS)][-1]


def query_all(query, pairs: list[tuple[int, int]]) -> bytearray:
    answers = bytearray(len(pairs))
    for k, (zeros, ones) in enumerate(pairs):
        answers[k] = query(zeros, ones)
    return answers


def child_calls(sizes: list[int]) -> dict:
    """The call of every in-process row, keyed by (layer, n), on words built and checked once."""
    import prefixnormal as pn
    from prefixnormal.analysis import find_violation_1, is_c_balanced

    calls = {}
    fibonacci = pn.morphic_fixpoint(pn.FIBONACCI_MORPHISM, max(sizes))
    seed = pn.FiniteWord(FLIPEXT_SEED)
    for n in sizes:
        w = pn.FiniteWord("1") + fibonacci[: n - 1]
        sparse = pn.FiniteWord(b"\1" + b"\0" * 63) * (n // 64)
        long_runs = pn.FiniteWord(b"\1" * 64 + b"\0" * 64) * (n // 128)
        if find_violation_1(w) is not None or not is_c_balanced(w, 1):
            raise SystemExit("the benchmark word must be prefix normal and 1-balanced")
        if find_violation_1(sparse) is not None or find_violation_1(long_runs) is not None:
            raise SystemExit("the sparse and long-run benchmark words must be prefix normal")
        for suffix, scanned in (("", w), (".sparse", sparse), (".long_runs", long_runs)):
            calls[f"word_core.compute_profile{suffix}", n] = partial(pn.compute_profile, scanned)
            calls[f"analysis.find_violation_1{suffix}", n] = partial(find_violation_1, scanned)
        calls["analysis.is_c_balanced", n] = partial(is_c_balanced, w, 1)
        calls["generators.flipext_stream", n] = partial(lambda n: pn.flipext_stream(seed).prefix(n), n)
        rng = random.Random(n)
        noise = pn.FiniteWord(rng.getrandbits(1) for _ in range(n))
        profile = pn.compute_profile(noise)
        lex_words = {"random": noise, "normal": pn.pnf1(profile), "alternating": pn.FiniteWord("01" * (n // 2)),
                     "sparse": pn.FiniteWord(rng.randrange(64) == 0 for _ in range(n))}
        lengths = sorted(rng.sample(range(1, n + 1), LEX_LENGTHS))
        for name, extreme in (("max_word", pn.max_word), ("min_word", pn.min_word)):
            for kind, lex_word in lex_words.items():
                calls[f"analysis.{name}.{kind}", n] = partial(each_length, extreme, lex_word, lengths)
        blob = pn.serialize(pn.JumbledIndex(profile))
        calls["jumbled_index.deserialize", n] = partial(deserialize_all, pn.deserialize, blob)
        pairs = []  # about half inside the band of 1s of their length, the rest just outside it
        for _ in range(QUERY_PAIRS):
            i = rng.randint(1, n) if rng.randrange(100) else n + rng.randint(1, 99)
            lo, hi = (profile.min_ones_at(i), profile.max_ones_at(i)) if i <= n else (0, i)
            width = (hi - lo) // 2 + 1
            ones = min(i, max(0, rng.randint(lo - width, hi + width)))
            pairs.append((i - ones, ones))
        calls["jumbled_index.query", n] = partial(query_all, pn.deserialize(blob).query, pairs)
    noise = pn.FiniteWord(random.Random(LANE_SIZE).choices(b"\0\1", k=LANE_SIZE))
    lane_words = {"random": noise, "normal": pn.pnf1(pn.compute_profile(noise)),
                  "sparse": pn.FiniteWord(b"\1" + b"\0" * 63) * (SPARSE_LANE_SIZE // 64)}
    for layer, scan in (("word_core.compute_profile", pn.compute_profile),
                        ("analysis.find_violation_1", find_violation_1)):
        for kind, lane_word in lane_words.items():
            calls[f"{layer}.lanes.{kind}", len(lane_word)] = partial(in_lanes, pn.word_core, scan, lane_word)
    return calls


def serve(sizes: list[int]) -> None:
    """Answer requests ``layer n`` on stdin, one JSON line each on stdout; the tree is on sys.path."""
    import numpy  # loaded before any row, so every scan but the lane rows' takes the spans

    calls = child_calls(sizes)
    gc.freeze()  # the words built once stay out of every collection, so a collection before a call is short
    print(json.dumps(numpy.__version__), flush=True)
    for request in sys.stdin:
        layer, n = request.split()
        call = calls[layer, int(n)]
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        digest = hashlib.sha256(repr(result).encode()).hexdigest()
        del result  # freed here: rebinding it in the next call's `result = call()` would free it in that timed call
        print(json.dumps([seconds, digest]), flush=True)


def run_process(env: dict, argv: list[str]) -> tuple[float, str]:
    """Seconds of one fresh ``python argv`` process, and a sha256 of its exit code and stdout."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
    seconds = time.perf_counter() - start
    if done.returncode not in (0, 1):
        raise subprocess.CalledProcessError(done.returncode, done.args, done.stdout, done.stderr)
    return seconds, hashlib.sha256(b"%d\n" % done.returncode + done.stdout).hexdigest()


def read_answer(label: str, child: subprocess.Popen):
    line = child.stdout.readline()
    if not line:
        raise SystemExit(f"the child of tree {label} exited with code {child.wait()}")
    return json.loads(line)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    values = sorted(values)
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def exponent(sizes: list[int], seconds: list[float]) -> float | None:
    if len(sizes) < 2:
        return None
    xs, ys = [math.log(n) for n in sizes], [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        serve([int(n) for n in sys.argv[2:]])
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a source tree to time, under a label; repeat to compare trees")
    parser.add_argument("--sizes", type=int, nargs="+", default=[4096, 16384, 65536])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args()
    trees = dict(spec.split("=", 1) for spec in args.tree)
    labels = list(trees)
    cpu = pin_to_one_cpu()  # the children and every fresh process inherit the pin
    # one row per (layer, n): a process layer has the one size None, and a lane layer the size of its word
    rows = [*((layer, n) for layer in LAYERS for n in args.sizes), *LANE_LAYERS.items(),
            *((layer, None) for layer in PROCESS_LAYERS)]
    runs = {label: {row: [] for row in rows} for label in labels}  # the best call of each round, in round order
    digests, children = {}, {}
    try:
        with tempfile.TemporaryDirectory() as scratch:
            envs = {}
            for label, tree in trees.items():
                copy = Path(scratch, "trees", label)
                shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__"))
                envs[label] = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
            files = {name: str(Path(scratch, name)) for name in ("index", "queries", "lex_word", "built")}
            Path(files["queries"]).write_text(QUERIES)
            rng = random.Random(LEX_PROCESS_SIZE)
            Path(files["lex_word"]).write_text("".join(rng.choice("01") for _ in range(LEX_PROCESS_SIZE)))
            run_process(envs[labels[0]], ["-c", PNW, "index", "build", *INDEX_SOURCE, "-o", files["index"]])
            argv = [sys.executable, os.path.abspath(__file__), "--child", *map(str, args.sizes)]
            for label in labels:
                children[label] = subprocess.Popen(argv, env=envs[label], stdin=subprocess.PIPE,
                                                   stdout=subprocess.PIPE, text=True)
            numpy_version = [read_answer(label, children[label]) for label in labels][0]

            def call(label: str, layer: str, n: int | None) -> tuple[float, str]:
                if n is None:
                    code, arguments = PROCESS_LAYERS[layer]
                    return run_process(envs[label], ["-c", code, *(a.format(**files) for a in arguments)])
                children[label].stdin.write(f"{layer} {n}\n")
                children[label].stdin.flush()
                return read_answer(label, children[label])

            for round_ in range(args.rounds):
                for index, (layer, n) in enumerate(rows):
                    best = dict.fromkeys(labels, math.inf)
                    for repeat in range(REPEATS):
                        shift = (round_ + index + repeat) % len(labels)
                        for label in labels[shift:] + labels[:shift]:
                            seconds, output = call(label, layer, n)
                            first = digests.setdefault((layer, n), (label, output))
                            if first[1] != output:
                                raise SystemExit(f"trees {first[0]} and {label} differ: {layer} at n={n}")
                            best[label] = min(best[label], seconds)
                    for label in labels:
                        runs[label][layer, n].append(best[label])
    finally:
        for child in children.values():
            child.kill()  # idle between requests, or stuck in a call after a failure
            child.communicate()
    report_rows, exponents, ratios = [], [], []
    baseline = labels[0]
    for label in labels:
        medians = {}
        for layer, n in rows:
            times = runs[label][layer, n]
            q1, medians[layer, n], q3 = quartiles(times)
            report_rows.append({"layer": layer, "tree": label, "n": n, "median_s": medians[layer, n], "q1_s": q1,
                                "q3_s": q3, "spread_ratio": (q3 - q1) / medians[layer, n], "runs_s": sorted(times)})
            if label != baseline:
                paired = [t / b for t, b in zip(times, runs[baseline][layer, n])]
                q1, median, q3 = quartiles(paired)
                ratios.append({"layer": layer, "tree": label, "baseline": baseline, "n": n,
                               "median": median, "q1": q1, "q3": q3, "per_round": paired})
        for layer in LAYERS:
            exponents.append({"layer": layer, "tree": label,
                              "exponent": exponent(args.sizes, [medians[layer, n] for n in args.sizes])})
    report = {
        "script": "scripts/bench_layers.py",
        "timing": f"one long-lived child per tree answers each in-process call, a fresh process is each process"
                  f" row's call; each tree's {REPEATS} calls of a row per round are interleaved with the other"
                  f" trees' in an order rotated by round + row + repeat, and the round keeps the fastest",
        "word": "1 followed by the Fibonacci word (prefix normal, 1-balanced: every scan is full)",
        "sparse_word": "analysis.find_violation_1.sparse and word_core.compute_profile.sparse: (1 0^63)^(n/64),"
                       " prefix normal, n/64 1s: the span backend reads the positions of the 1s",
        "long_runs_word": "analysis.find_violation_1.long_runs and word_core.compute_profile.long_runs:"
                          " (1^64 0^64)^(n/128), prefix normal, n/2 of each letter: about n^2/8 spans",
        "lanes": f"{', '.join(LANE_LAYERS)}: compute_profile and find_violation_1 of a random word of {LANE_SIZE}"
                 f" symbols, of its 1-prefix normal form and of (1 0^63)^{SPARSE_LANE_SIZE // 64}, in process with"
                 f" numpy blocked, so in lanes",
        "generator": f"flipext_stream(FiniteWord({FLIPEXT_SEED!r})).prefix(n), the same word in every tree",
        "processes": {layer: f"fresh `python -c {code!r} {' '.join(arguments)}` processes, n null"
                      for layer, (code, arguments) in PROCESS_LAYERS.items()},
        "index": f"`pnw index build {' '.join(INDEX_SOURCE)}`, built by the first tree;"
                 f" queries: zeros 0..49 by ones 0..39, 2,000 pairs",
        "lex": f"max_word and min_word at {LEX_LENGTHS} seeded lengths of a random word of n symbols, its 1-prefix"
               f" normal form, a word with 1s at about 1 in 64 symbols, and (01)^(n/2);"
               f" library.lex: max_word(w, {LEX_PROCESS_SIZE // 2}) on a random word of {LEX_PROCESS_SIZE} symbols",
        "index_layers": f"{DESERIALIZE_CALLS} deserialize calls on the index of the random word of n symbols, and"
                        f" {QUERY_PAIRS:,} query pairs around its band of 1s, 1% longer than the word",
        "comparing": "cite the paired ratios for a change between trees: absolute medians drift between rounds,"
                     " and medians from different BENCH files are not comparable",
        "rounds": args.rounds,
        "trees": labels,
        "machine": {"platform": platform.platform(), "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "pinned_cpu": cpu, "python": platform.python_version(),
                    "numpy": numpy_version},
        "rows": report_rows,
        "ratios": ratios,
        "exponents": exponents,
    }
    with open(args.out, "w") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    for row in report_rows:
        print(f"{row['layer']:32s} {row['tree']:8s} n={row['n'] or '-':>6} median {row['median_s']:.4f} s"
              f" spread {row['spread_ratio']:.3f}")
    for item in exponents:
        print(f"{item['layer']:32s} {item['tree']:8s} exponent {item['exponent']}")
    for item in ratios:
        print(f"{item['layer']:32s} {item['tree']}/{item['baseline']} n={item['n'] or '-':>6}"
              f" ratio {item['median']:.3f} (q1 {item['q1']:.3f}, q3 {item['q3']:.3f})")
        if item["q3"] - item["q1"] > SPREAD_LIMIT:
            print(f"warning: {item['layer']} {item['tree']}/{item['baseline']} n={item['n']}: quartile band"
                  f" {item['q1']:.3f}-{item['q3']:.3f} is wider than {SPREAD_LIMIT}, so this ratio cannot show"
                  f" a 10% change", file=sys.stderr)


if __name__ == "__main__":
    main()
