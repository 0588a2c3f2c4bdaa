"""Per-layer timings for the ``BENCH_*.json`` files, at several sizes so that
scaling shows.

Each source tree (a directory that holds the ``prefixnormal`` package, such
as ``src`` of a checkout) is timed in fresh processes pinned to one CPU.
Rounds alternate which tree runs first. A row gives the median and quartiles
of one layer at one size over the rounds, and its spread ratio
(q3 - q1) / median; a row whose ratio exceeds 0.10 gets a warning, since it
cannot show a 10% change. Each layer also gets the exponent of a
least-squares fit of log time against log n. Every tree after the first
gets, per layer and size, the median and quartiles of its per-round ratio
to the first tree: the two ran back to back, so the ratio is less exposed to
the drift that moves absolute medians between rounds and between files.

    python scripts/bench_layers.py --tree parent=../parent/src --tree change=src \\
        --sizes 4096 16384 65536 --rounds 9 --out BENCH_16.json

The kernel rows scan the word ``1`` followed by the Fibonacci word. It is
prefix normal and 1-balanced, so ``find_violation_1`` and
``is_c_balanced(w, 1)`` scan every factor length, as the full profile does;
the child checks both verdicts before it times anything. The
``analysis.find_violation_1.sparse`` and ``word_core.compute_profile.sparse``
rows check and profile ``(1 0^63)^(n/64)``, which is prefix normal with n/64
1s, so the span backend reads the positions of its 1s, the rarer letter, and
scans about (n/64)^2/2 spans instead of n^2 window cells. The ``.long_runs``
rows check and profile ``(1^64 0^64)^(n/128)``, prefix normal with n/2 of
each letter, where the spans scan about n^2/8 cells: the backend's costliest
kind of word for its length. These rows run with numpy loaded, so every scan
takes numpy's span blocks. The ``.lanes.random`` and ``.lanes.normal`` rows of
``compute_profile`` and ``find_violation_1`` take the lanes instead: they scan
a random word of ``LANE_SIZE`` symbols and its 1-prefix normal form, whatever
``--sizes`` says, with ``sys.modules["numpy"]`` set to None around each call,
and keep the fastest of ``LANE_REPEATS`` calls per round. The random word's
check stops at its first violation; the normal form's reads every length. A
sha256 of every scan's result must match between trees. Every in-process
call is timed with the garbage collected first and the collector off while
it runs, so that no collection triggered by an earlier row's allocations
lands in its window. The generator row times
``flipext_stream(FiniteWord("11010011")).prefix(n)``, a prefix normal seed of
minimum density 1/2; the child returns a sha256 of each word it produced,
and the script exits non-zero if two trees produce different words.
The ``cli.pnf_fibonacci`` row times a whole ``pnf fibonacci -n n/4`` process,
interpreter start included, whose 4n analysis window would be ``n`` symbols;
its output must also match between trees. The rows of ``PROCESS_LAYERS``
time a whole fresh process at a fixed size, whatever ``--sizes`` says:
importing the CLI, eight commands that load no numpy (among them ``check`` of
a word settled by its first run, ``generate lazy-flipext-omega`` from its
default seed ``1``, and three whose scans fit the lane budget of 2^22 cells:
``abelian --range``, ``index build --word`` and the seed check of
``generate flipext-omega``), ``check`` of a prefix normal word of 2,049
symbols, whose full scan of 2,049 x 2,049 cells lies just past that budget,
so it still loads numpy, and one ``max_word`` call on a random word of
``LEX_PROCESS_SIZE`` symbols. Their standard output and exit code must match
between trees too; ``index query`` reads an index that the first tree builds
once, and ``index build`` writes to a scratch file. A
process row runs ``PROCESS_REPEATS`` processes per tree and round and keeps
their median, since one process varies by tens of percent.

The lexicographic rows time ``max_word`` and ``min_word`` at ``LEX_LENGTHS``
seeded lengths on four words of each size: a random word, its 1-prefix normal
form, a word with a 1 at about every 64th symbol, and ``(01)^(n/2)``. The
index rows time ``DESERIALIZE_CALLS`` calls of ``deserialize`` on the index of
the random word, and ``QUERY_PAIRS`` queries around its band of 1s, 1% of them
longer than the word. A sha256 of the factors and of the answers must match
between trees.
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
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Lexicographic extremes, timed over ``LEX_LENGTHS`` lengths on each of these words.
LEX_WORDS = ("random", "normal", "sparse", "alternating")
LEX_LAYERS = tuple(f"analysis.{name}.{word}" for name in ("max_word", "min_word") for word in LEX_WORDS)
LEX_LENGTHS = 64
#: ``deserialize`` calls and query pairs timed per size; 1% of the queries are longer than the word.
DESERIALIZE_CALLS = 10
QUERY_PAIRS = 100_000
LAYERS = ("word_core.compute_profile", "word_core.compute_profile.sparse", "word_core.compute_profile.long_runs",
          "analysis.find_violation_1", "analysis.find_violation_1.sparse", "analysis.find_violation_1.long_runs",
          "analysis.is_c_balanced", "generators.flipext_stream", *LEX_LAYERS, "jumbled_index.deserialize",
          "jumbled_index.query")
#: Layers timed in process at the fixed size ``LANE_SIZE`` with numpy blocked, so that their scans take the lanes.
LANE_LAYERS = tuple(f"{layer}.lanes.{word}" for layer in ("word_core.compute_profile", "analysis.find_violation_1")
                    for word in ("random", "normal"))
#: Symbols of the random word of the lane rows: its full scan, 2,000 x 2,000 cells, fits the lane budget of 2^22.
LANE_SIZE = 2000
#: Calls per tree and round of a lane row; the round keeps the fastest.
LANE_REPEATS = 5
#: A layer timed as fresh ``pnw`` processes per size.
PNF_LAYER = "cli.pnf_fibonacci"
FLIPEXT_SEED = "11010011"
#: ``python -c`` code that runs ``pnw`` on the arguments after it, as the benchmark does.
PNW = "import sys; from prefixnormal.cli import main; sys.exit(main())"
#: ``10`` and 1,998 random symbols, like the benchmark's ``check --word``: it violates at length 2.
CHECK_WORD = "10" + "".join(random.Random(1998).choices("01", k=1998))
#: 2,000 random symbols, indexed by ``cli.index_build``.
INDEX_WORD = "".join(random.Random(2000).choices("01", k=2000))
#: Layers timed as fresh processes at a fixed size: ``python -c`` code and its arguments.
PROCESS_LAYERS = {
    "startup.import_cli": ("import prefixnormal.cli", []),
    "cli.index_query": (PNW, ["index", "query", "{index}", "--queries", "{queries}"]),
    "cli.density_word": (PNW, ["density", "--word", "1101" * 300 + "0001" * 200]),
    "cli.generate_mechanical": (PNW, ["generate", "mechanical", "--slope", "3/101", "-n", "2000"]),
    "cli.generate_lazy_flipext": (PNW, ["generate", "lazy-flipext-omega", "--slope", "(-1+1*sqrt(2))/1",
                                        "-n", "2000"]),
    "cli.check_violation": (PNW, ["check", "--word", CHECK_WORD]),
    "cli.abelian_range": (PNW, ["abelian", "paperfolding", "-n", "2000", "--range", "1..100"]),
    "cli.index_build": (PNW, ["index", "build", "--word", INDEX_WORD, "-o", "{built}"]),
    "cli.generate_flipext": (PNW, ["generate", "flipext-omega", "--seed", FLIPEXT_SEED, "-n", "1000"]),
    "cli.check_normal": (PNW, ["check", "fibonacci", "--prepend-ones", "1", "-n", "2048"]),
    "library.lex": ("import sys, prefixnormal as pn; w = pn.FiniteWord(open(sys.argv[1]).read());"
                    " print(pn.max_word(w, len(w) // 2))", ["{lex_word}"]),
}
#: Fresh processes per tree and round for a process row; the round keeps their median.
PROCESS_REPEATS = 5
#: Symbols of the random word of ``library.lex``.
LEX_PROCESS_SIZE = 16384
#: The index and the 2,000 query pairs of ``cli.index_query``.
INDEX_SOURCE = ["fibonacci", "-n", "2048"]
QUERIES = "".join(f"{zeros} {ones}\n" for zeros in range(50) for ones in range(40))
#: Largest spread ratio (q3 - q1) / median at which a row can show a 10% change.
SPREAD_LIMIT = 0.10


def pin_to_one_cpu() -> int | None:
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed(call):
    """Seconds that ``call()`` takes, with the garbage collected before and
    the collector off while it runs, and its result."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = call()
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def child(sizes: list[int]) -> dict:
    """Time every layer once per size in this process; the tree is on sys.path."""
    import prefixnormal as pn
    from prefixnormal.analysis import find_violation_1, is_c_balanced

    fibonacci = pn.morphic_fixpoint(pn.FIBONACCI_MORPHISM, max(sizes))
    words = {n: pn.FiniteWord("1") + fibonacci[: n - 1] for n in sizes}
    sparse = {n: pn.FiniteWord(b"\1" + b"\0" * 63) * (n // 64) for n in sizes}
    long_runs = {n: pn.FiniteWord(b"\1" * 64 + b"\0" * 64) * (n // 128) for n in sizes}
    for w in words.values():
        if find_violation_1(w) is not None or not is_c_balanced(w, 1):
            raise SystemExit("the benchmark word must be prefix normal and 1-balanced")
    if any(find_violation_1(w) is not None for w in (*sparse.values(), *long_runs.values())):
        raise SystemExit("the sparse and long-run benchmark words must be prefix normal")
    scans = {
        "word_core.compute_profile": (pn.compute_profile, words),
        "word_core.compute_profile.sparse": (pn.compute_profile, sparse),
        "word_core.compute_profile.long_runs": (pn.compute_profile, long_runs),
        "analysis.find_violation_1": (find_violation_1, words),
        "analysis.find_violation_1.sparse": (find_violation_1, sparse),
        "analysis.find_violation_1.long_runs": (find_violation_1, long_runs),
        "analysis.is_c_balanced": (lambda w: is_c_balanced(w, 1), words),
    }
    times: dict = {layer: {} for layer in LAYERS}
    digests = {}
    for layer, (scan, scanned) in scans.items():
        for n, w in scanned.items():
            times[layer][n], result = timed(lambda: scan(w))
            digests[f"{layer} at n={n}"] = hashlib.sha256(repr(result).encode()).hexdigest()
    for n in sizes:
        seed = pn.FiniteWord(FLIPEXT_SEED)
        times["generators.flipext_stream"][n], word = timed(lambda: pn.flipext_stream(seed).prefix(n))
        digests[f"flipext word at n={n}"] = hashlib.sha256(bytes(word)).hexdigest()
    for n in sizes:
        rng = random.Random(n)
        noise = pn.FiniteWord(rng.getrandbits(1) for _ in range(n))
        profile = pn.compute_profile(noise)
        lex_words = {"random": noise, "normal": pn.pnf1(profile), "alternating": pn.FiniteWord("01" * (n // 2)),
                     "sparse": pn.FiniteWord(rng.randrange(64) == 0 for _ in range(n))}
        lengths = sorted(rng.sample(range(1, n + 1), LEX_LENGTHS))
        for name, extreme in (("max_word", pn.max_word), ("min_word", pn.min_word)):
            for kind, w in lex_words.items():
                times[f"analysis.{name}.{kind}"][n], factors = timed(lambda: [extreme(w, i) for i in lengths])
                digests[f"{name} on the {kind} word at n={n}"] = hashlib.sha256(str(factors).encode()).hexdigest()
        blob = pn.serialize(pn.JumbledIndex(profile))
        calls = range(DESERIALIZE_CALLS)
        times["jumbled_index.deserialize"][n], indexes = timed(lambda: [pn.deserialize(blob) for _ in calls])
        index = indexes[-1]
        pairs = []  # about half inside the band of 1s of their length, the rest just outside it
        for _ in range(QUERY_PAIRS):
            i = rng.randint(1, n) if rng.randrange(100) else n + rng.randint(1, 99)
            lo, hi = (profile.min_ones_at(i), profile.max_ones_at(i)) if i <= n else (0, i)
            width = (hi - lo) // 2 + 1
            ones = min(i, max(0, rng.randint(lo - width, hi + width)))
            pairs.append((i - ones, ones))
        answers, query = bytearray(QUERY_PAIRS), index.query

        def answer() -> None:
            for k, (zeros, ones) in enumerate(pairs):
                answers[k] = query(zeros, ones)

        times["jumbled_index.query"][n], _ = timed(answer)
        digests[f"index answers at n={n}"] = hashlib.sha256(answers).hexdigest()
    import numpy

    noise = pn.FiniteWord(random.Random(LANE_SIZE).choices(b"\0\1", k=LANE_SIZE))
    lane_words = {"random": noise, "normal": pn.pnf1(pn.compute_profile(noise))}
    lane_scans = {"word_core.compute_profile": pn.compute_profile, "analysis.find_violation_1": find_violation_1}
    for layer in LANE_LAYERS:
        name, _, kind = layer.rpartition(".lanes.")
        scan, w = lane_scans[name], lane_words[kind]
        sys.modules["numpy"] = None  # numpy counts as not loaded and cannot be imported: a scan runs in lanes or fails
        try:
            calls = [timed(lambda: scan(w)) for _ in range(LANE_REPEATS)]
        finally:
            sys.modules["numpy"] = numpy
        times[layer] = {LANE_SIZE: min(seconds for seconds, _ in calls)}
        digests[f"{layer} at n={LANE_SIZE}"] = hashlib.sha256(repr(calls[0][1]).encode()).hexdigest()
    return {"times": times, "digests": digests, "numpy": numpy.__version__}


def run_child(tree: str, sizes: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    argv = [sys.executable, os.path.abspath(__file__), "--child", *map(str, sizes)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_process(tree: str, argv: list[str], repeats: int = 1) -> tuple[float, str]:
    """Median seconds of ``repeats`` fresh ``python argv`` processes, and a
    sha256 of their exit code and stdout, which must not vary. Exit code 1 is
    ``pnw check``'s verdict on a word that is not prefix normal."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    seconds, outputs = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
        seconds.append(time.perf_counter() - start)
        if done.returncode not in (0, 1):
            raise subprocess.CalledProcessError(done.returncode, done.args, done.stdout, done.stderr)
        outputs.add(hashlib.sha256(b"%d\n" % done.returncode + done.stdout).hexdigest())
    if len(outputs) > 1:
        raise SystemExit(f"python {' '.join(argv)} printed different outputs in one tree")
    return statistics.median(seconds), outputs.pop()


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
        pin_to_one_cpu()
        print(json.dumps(child([int(n) for n in sys.argv[2:]])))
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a source tree to time, under a label; repeat to compare trees")
    parser.add_argument("--sizes", type=int, nargs="+", default=[4096, 16384, 65536])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args()
    trees = dict(spec.split("=", 1) for spec in args.tree)
    cpu = pin_to_one_cpu()
    layers = (*LAYERS, *LANE_LAYERS, PNF_LAYER, *PROCESS_LAYERS)
    # runs[label][layer][n] holds one time per round, in round order, so rounds pair up across trees;
    # a process layer has the one size None, and a lane layer LANE_SIZE
    fixed = {**dict.fromkeys(PROCESS_LAYERS, [None]), **dict.fromkeys(LANE_LAYERS, [LANE_SIZE])}
    runs: dict = {label: {layer: {n: [] for n in fixed.get(layer, args.sizes)} for layer in layers} for label in trees}
    numpy_version, digests = None, {}

    def same_output(what: str, label: str, digest: str) -> None:
        if digests.setdefault(what, (label, digest))[1] != digest:
            raise SystemExit(f"trees {digests[what][0]} and {label} differ: {what}")

    with tempfile.TemporaryDirectory() as scratch:
        files = {name: str(Path(scratch, name)) for name in ("index", "queries", "lex_word", "built")}
        Path(files["queries"]).write_text(QUERIES)
        rng = random.Random(LEX_PROCESS_SIZE)
        Path(files["lex_word"]).write_text("".join(rng.choice("01") for _ in range(LEX_PROCESS_SIZE)))
        run_process(next(iter(trees.values())), ["-c", PNW, "index", "build", *INDEX_SOURCE, "-o", files["index"]])
        for round_ in range(args.rounds):
            order = list(trees) if round_ % 2 == 0 else list(reversed(trees))
            for label in order:
                result = run_child(trees[label], args.sizes)
                numpy_version = result["numpy"]
                for what, digest in result["digests"].items():
                    same_output(what, label, digest)
                for layer in (*LAYERS, *LANE_LAYERS):
                    for n in runs[label][layer]:
                        runs[label][layer][n].append(result["times"][layer][str(n)])
                for n in args.sizes:
                    argv = ["-m", "prefixnormal.cli", "pnf", "fibonacci", "-n", str(n // 4)]
                    seconds, digest = run_process(trees[label], argv, PROCESS_REPEATS)
                    same_output(f"pnf fibonacci output at n={n // 4}", label, digest)
                    runs[label][PNF_LAYER][n].append(seconds)
                for layer, (code, arguments) in PROCESS_LAYERS.items():
                    argv = ["-c", code, *(a.format(**files) for a in arguments)]
                    seconds, digest = run_process(trees[label], argv, PROCESS_REPEATS)
                    same_output(f"{layer} output", label, digest)
                    runs[label][layer][None].append(seconds)
    rows, exponents, ratios = [], [], []
    baseline = next(iter(trees))
    for label in trees:
        for layer in layers:
            medians = []
            for n in runs[label][layer]:
                q1, median, q3 = quartiles(runs[label][layer][n])
                medians.append(median)
                rows.append({"layer": layer, "tree": label, "n": n, "median_s": median, "q1_s": q1, "q3_s": q3,
                             "spread_ratio": (q3 - q1) / median, "runs_s": sorted(runs[label][layer][n])})
                if label != baseline:
                    paired = [t / b for t, b in zip(runs[label][layer][n], runs[baseline][layer][n])]
                    q1, median, q3 = quartiles(paired)
                    ratios.append({"layer": layer, "tree": label, "baseline": baseline, "n": n,
                                   "median": median, "q1": q1, "q3": q3, "per_round": paired})
            if layer not in fixed:
                exponents.append({"layer": layer, "tree": label, "exponent": exponent(args.sizes, medians)})
    report = {
        "script": "scripts/bench_layers.py",
        "word": "1 followed by the Fibonacci word (prefix normal, 1-balanced: every scan is full)",
        "sparse_word": "analysis.find_violation_1.sparse and word_core.compute_profile.sparse: (1 0^63)^(n/64),"
                       " prefix normal, n/64 1s: the span backend reads the positions of the 1s",
        "long_runs_word": "analysis.find_violation_1.long_runs and word_core.compute_profile.long_runs:"
                          " (1^64 0^64)^(n/128), prefix normal, n/2 of each letter: about n^2/8 spans",
        "lanes": f"{', '.join(LANE_LAYERS)}: compute_profile and find_violation_1 of a random word of {LANE_SIZE}"
                 f" symbols and of its 1-prefix normal form, in process with numpy blocked, so in lanes;"
                 f" the fastest of {LANE_REPEATS} calls per tree and round",
        "generator": f"flipext_stream(FiniteWord({FLIPEXT_SEED!r})).prefix(n), the same word in every tree",
        "process": f"{PNF_LAYER}: fresh `python -m prefixnormal.cli pnf fibonacci -n n/4` processes",
        "processes": {layer: f"fresh `python -c {code!r} {' '.join(arguments)}` processes, n null"
                      for layer, (code, arguments) in PROCESS_LAYERS.items()},
        "index": f"`pnw index build {' '.join(INDEX_SOURCE)}`, built by the first tree;"
                 f" queries: zeros 0..49 by ones 0..39, 2,000 pairs",
        "process_repeats": f"each process row is the median of {PROCESS_REPEATS} fresh processes per tree and round",
        "lex": f"max_word and min_word at {LEX_LENGTHS} seeded lengths of a random word of n symbols, its 1-prefix"
               f" normal form, a word with 1s at about 1 in 64 symbols, and (01)^(n/2);"
               f" library.lex: max_word(w, {LEX_PROCESS_SIZE // 2}) on a random word of {LEX_PROCESS_SIZE} symbols",
        "index_layers": f"{DESERIALIZE_CALLS} deserialize calls on the index of the random word of n symbols, and"
                        f" {QUERY_PAIRS:,} query pairs around its band of 1s, 1% longer than the word",
        "comparing": "cite the paired ratios for a change between trees: absolute medians drift between rounds,"
                     " and medians from different BENCH files are not comparable",
        "rounds": args.rounds,
        "trees": list(trees),
        "machine": {"platform": platform.platform(), "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "pinned_cpu": cpu, "python": platform.python_version(),
                    "numpy": numpy_version},
        "rows": rows,
        "ratios": ratios,
        "exponents": exponents,
    }
    with open(args.out, "w") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    for row in rows:
        print(f"{row['layer']:32s} {row['tree']:8s} n={row['n'] or '-':>6} median {row['median_s']:.4f} s"
              f" spread {row['spread_ratio']:.3f}")
        if row["spread_ratio"] > SPREAD_LIMIT:
            print(f"warning: {row['layer']} {row['tree']} n={row['n']}: spread ratio {row['spread_ratio']:.3f}"
                  f" exceeds {SPREAD_LIMIT}, so this row cannot show a 10% change", file=sys.stderr)
    for item in exponents:
        print(f"{item['layer']:32s} {item['tree']:8s} exponent {item['exponent']}")
    for item in ratios:
        print(f"{item['layer']:32s} {item['tree']}/{item['baseline']} n={item['n'] or '-':>6}"
              f" ratio {item['median']:.3f} (q1 {item['q1']:.3f}, q3 {item['q3']:.3f})")


if __name__ == "__main__":
    main()
