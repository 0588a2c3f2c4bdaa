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
the child checks both verdicts before it times anything. The generator row
times ``flipext_stream(FiniteWord("11010011")).prefix(n)``, a prefix normal
seed of minimum density 1/2; the child returns a sha256 of each word it
produced, and the script exits non-zero if two trees produce different words.
The ``cli.pnf_fibonacci`` row times a whole ``pnf fibonacci -n n/4`` process,
interpreter start included, whose 4n analysis window would be ``n`` symbols;
its output must also match between trees. The rows of ``PROCESS_LAYERS``
time one whole fresh process each at a fixed size, whatever ``--sizes``
says: importing the CLI, and three commands that load no numpy. Their
standard output must match between trees too; ``index query`` reads an
index that the first tree builds once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LAYERS = ("word_core.compute_profile", "analysis.find_violation_1", "analysis.is_c_balanced",
          "generators.flipext_stream")
#: A layer timed as one fresh ``pnw`` process per size.
PNF_LAYER = "cli.pnf_fibonacci"
FLIPEXT_SEED = "11010011"
#: ``python -c`` code that runs ``pnw`` on the arguments after it, as the benchmark does.
PNW = "import sys; from prefixnormal.cli import main; sys.exit(main())"
#: Layers timed as one fresh process at a fixed size: ``python -c`` code and its arguments.
PROCESS_LAYERS = {
    "startup.import_cli": ("import prefixnormal.cli", []),
    "cli.index_query": (PNW, ["index", "query", "{index}", "--queries", "{queries}"]),
    "cli.density_word": (PNW, ["density", "--word", "1101" * 300 + "0001" * 200]),
    "cli.generate_mechanical": (PNW, ["generate", "mechanical", "--slope", "3/101", "-n", "2000"]),
}
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


def child(sizes: list[int]) -> dict:
    """Time every layer once per size in this process; the tree is on sys.path."""
    import prefixnormal as pn
    from prefixnormal.analysis import find_violation_1, is_c_balanced

    scans = {
        "word_core.compute_profile": pn.compute_profile,
        "analysis.find_violation_1": find_violation_1,
        "analysis.is_c_balanced": lambda w: is_c_balanced(w, 1),
    }
    fibonacci = pn.morphic_fixpoint(pn.FIBONACCI_MORPHISM, max(sizes))
    words = {n: pn.FiniteWord("1") + fibonacci[: n - 1] for n in sizes}
    for w in words.values():
        if find_violation_1(w) is not None or not is_c_balanced(w, 1):
            raise SystemExit("the benchmark word must be prefix normal and 1-balanced")
    times: dict = {layer: {} for layer in LAYERS}
    for layer, scan in scans.items():
        for n, w in words.items():
            start = time.perf_counter()
            scan(w)
            times[layer][n] = time.perf_counter() - start
    digests = {}
    for n in sizes:
        start = time.perf_counter()
        word = pn.flipext_stream(pn.FiniteWord(FLIPEXT_SEED)).prefix(n)
        times["generators.flipext_stream"][n] = time.perf_counter() - start
        digests[n] = hashlib.sha256(bytes(word)).hexdigest()
    return {"times": times, "digests": digests, "numpy": sys.modules["numpy"].__version__}


def run_child(tree: str, sizes: list[int]) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    argv = [sys.executable, os.path.abspath(__file__), "--child", *map(str, sizes)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def run_process(tree: str, argv: list[str]) -> tuple[float, str]:
    """Seconds of one fresh ``python argv`` process and a sha256 of its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)
    return time.perf_counter() - start, hashlib.sha256(done.stdout).hexdigest()


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
    layers = (*LAYERS, PNF_LAYER, *PROCESS_LAYERS)
    # runs[label][layer][n] holds one time per round, in round order, so rounds pair up across trees;
    # a process layer has the one size None
    runs: dict = {label: {layer: {n: [] for n in ([None] if layer in PROCESS_LAYERS else args.sizes)}
                          for layer in layers} for label in trees}
    numpy_version, digests = None, {}

    def same_output(what: str, label: str, digest: str) -> None:
        if digests.setdefault(what, (label, digest))[1] != digest:
            raise SystemExit(f"trees {digests[what][0]} and {label} differ: {what}")

    with tempfile.TemporaryDirectory() as scratch:
        files = {"index": str(Path(scratch, "index.pnji")), "queries": str(Path(scratch, "queries.txt"))}
        Path(files["queries"]).write_text(QUERIES)
        run_process(next(iter(trees.values())), ["-c", PNW, "index", "build", *INDEX_SOURCE, "-o", files["index"]])
        for round_ in range(args.rounds):
            order = list(trees) if round_ % 2 == 0 else list(reversed(trees))
            for label in order:
                result = run_child(trees[label], args.sizes)
                numpy_version = result["numpy"]
                for n, digest in result["digests"].items():
                    same_output(f"flipext word at n={n}", label, digest)
                for layer in LAYERS:
                    for n in args.sizes:
                        runs[label][layer][n].append(result["times"][layer][str(n)])
                for n in args.sizes:
                    argv = ["-m", "prefixnormal.cli", "pnf", "fibonacci", "-n", str(n // 4)]
                    seconds, digest = run_process(trees[label], argv)
                    same_output(f"pnf fibonacci output at n={n // 4}", label, digest)
                    runs[label][PNF_LAYER][n].append(seconds)
                for layer, (code, arguments) in PROCESS_LAYERS.items():
                    seconds, digest = run_process(trees[label], ["-c", code, *(a.format(**files) for a in arguments)])
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
            if layer not in PROCESS_LAYERS:
                exponents.append({"layer": layer, "tree": label, "exponent": exponent(args.sizes, medians)})
    report = {
        "script": "scripts/bench_layers.py",
        "word": "1 followed by the Fibonacci word (prefix normal, 1-balanced: every scan is full)",
        "generator": f"flipext_stream(FiniteWord({FLIPEXT_SEED!r})).prefix(n), the same word in every tree",
        "process": f"{PNF_LAYER}: one fresh `python -m prefixnormal.cli pnf fibonacci -n n/4` process",
        "processes": {layer: f"one fresh `python -c {code!r} {' '.join(arguments)}` process, n null"
                      for layer, (code, arguments) in PROCESS_LAYERS.items()},
        "index": f"`pnw index build {' '.join(INDEX_SOURCE)}`, built by the first tree;"
                 f" queries: zeros 0..49 by ones 0..39, 2,000 pairs",
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
        print(f"{row['layer']:28s} {row['tree']:8s} n={row['n'] or '-':>6} median {row['median_s']:.4f} s"
              f" spread {row['spread_ratio']:.3f}")
        if row["spread_ratio"] > SPREAD_LIMIT:
            print(f"warning: {row['layer']} {row['tree']} n={row['n']}: spread ratio {row['spread_ratio']:.3f}"
                  f" exceeds {SPREAD_LIMIT}, so this row cannot show a 10% change", file=sys.stderr)
    for item in exponents:
        print(f"{item['layer']:28s} {item['tree']:8s} exponent {item['exponent']}")
    for item in ratios:
        print(f"{item['layer']:28s} {item['tree']}/{item['baseline']} n={item['n'] or '-':>6}"
              f" ratio {item['median']:.3f} (q1 {item['q1']:.3f}, q3 {item['q3']:.3f})")


if __name__ == "__main__":
    main()
