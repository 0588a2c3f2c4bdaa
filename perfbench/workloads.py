"""The four seeded workloads and the expected result of every invocation.

A workload is a fixed list of invocations: ``pnw`` command lines, or for
``library-session`` library tasks (see ``libtask.py``). The seed changes the
content of each input but not its cost class: full-scan ``check`` inputs stay
prefix normal, sparse inputs keep their run structure, slope denominators and
densities stay in narrow bands, and lengths move by at most about 1%.

Expected exit codes and outputs come from ``reference.py`` and are computed
here, before anything is timed; the program under test sees only the
generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

# Slopes (sqrt(d) - 1)/c, all with density in [0.38, 0.47], so that every
# choice costs the same per symbol.
QUADRATIC_SLOPES = ((2, 1), (5, 3), (7, 4), (10, 5), (11, 6), (13, 6), (14, 7), (15, 7))


@dataclass
class Invocation:
    """One closed-loop step and what it must produce."""

    label: str
    argv: list[str] | None = None  # pnw arguments
    task: dict | None = None  # library task spec
    stdin: str | None = None  # file fed to standard input
    code: int = 0
    stdout: str = ""  # sha256 of the expected standard output
    files: dict[str, str] = field(default_factory=dict)  # path -> sha256 of a file it must write
    tag: str | None = None  # generator family that the trace charges WordStream.prefix to
    printed: int | None = None  # printed normal-form length, for cli.pnf.window_ratio


def sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("ascii") if isinstance(data, str) else data).hexdigest()


def cli(label: str, argv: list[str], out: str, code: int = 0, **extra) -> Invocation:
    return Invocation(label, argv=argv, code=code, stdout=sha(out), **extra)


def check(label: str, argv: list[str], text: str, **extra) -> Invocation:
    """``pnw check`` on a word whose reference verdict decides the expected result."""
    code, out = ref.check_output(text)
    return cli(label, argv, out, code, **extra)


def random_word(rng: random.Random, n: int, density: float = 0.5) -> str:
    return "".join("1" if rng.random() < density else "0" for _ in range(n))


def prefix_normal_word(rng: random.Random, n: int) -> str:
    """The 1-prefix normal form of a random word: prefix normal, seeded content."""
    return ref.normal_forms(random_word(rng, n), n)[0]


def near(rng: random.Random, n: int) -> int:
    """A length at most 1% below ``n``."""
    return n - rng.randrange(n // 100 + 1)


def rational_slope(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    q = rng.randint(lo, hi)
    p = rng.choice([p for p in range(q // 4, 3 * q // 4) if math.gcd(p, q) == 1])
    return p, q


def quadratic_slope(rng: random.Random) -> tuple[str, tuple[int, int, int, int]]:
    d, c = rng.choice(QUADRATIC_SLOPES)
    return f"(-1+1*sqrt({d}))/{c}", (-1, 1, c, d)


def flipext_seed(rng: random.Random) -> str:
    """A prefix normal 8-bit seed of minimum density exactly 1/2: the flipext
    tail density follows the seed's minimum density, and with it the cost."""
    pool = []
    for value in range(128, 256):
        text = format(value, "b")
        if ref.violation(text) is None and ref.min_density(text)[0] == Fraction(1, 2):
            pool.append(text)
    return rng.choice(pool)


def query_pairs(rng: random.Random, text: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (zeros, ones) queries around the achievable band of each length,
    so about half hit, plus 1% with lengths beyond the word."""
    gen = np.random.default_rng(rng.getrandbits(64))
    hi, lo = ref.profile(text)
    n = len(text)
    length = gen.integers(1, n + 1, size=count)
    length[: count // 100] = gen.integers(n + 1, n + 100, size=count // 100)
    at = np.minimum(length, n) - 1
    width = (hi[at] - lo[at]) // 2 + 1
    ones = np.clip(gen.integers(lo[at] - width, hi[at] + width + 1), 0, length)
    return (length - ones).astype(np.int32), ones.astype(np.int32)


def answers_text(text: str, zeros: np.ndarray, ones: np.ndarray) -> str:
    hits = ref.query_answers(text, zeros, ones)
    return "\n".join("yes" if hit else "no" for hit in hits.tolist()) + "\n"


def write(path: Path, data: str | bytes) -> str:
    if isinstance(data, str):
        path.write_text(data)
    else:
        path.write_bytes(data)
    return str(path)


# -- workloads ---------------------------------------------------------------------


def cli_startup(rng: random.Random, work: Path) -> list[Invocation]:
    """About 20 small commands; interpreter start and import dominate each."""
    out = []

    def small() -> int:
        return rng.randint(1500, 2000)

    for name, make in (
        ("fibonacci", ref.fibonacci), ("thue-morse", ref.thue_morse),
        ("paperfolding", ref.paperfolding), ("champernowne", ref.champernowne),
    ):
        n = small()
        out.append(cli(f"generate-{name}", ["generate", name, "-n", str(n)], make(n) + "\n", tag=name))
    p, q = rational_slope(rng, 50, 60)
    u, v = rng.randrange(1, 7), 7
    n = small()
    out.append(cli(
        "generate-mechanical",
        ["generate", "mechanical", "--slope", f"{p}/{q}", "--intercept", f"{u}/{v}", "-n", str(n)],
        ref.mechanical_rational(p, q, u, v, n, upper=False) + "\n", tag="mechanical-rational",
    ))
    seed, n = flipext_seed(rng), rng.randint(900, 1000)
    out.append(cli(
        "generate-flipext-omega", ["generate", "flipext-omega", "--seed", seed, "-n", str(n)],
        ref.flipext(seed, n) + "\n", tag="flipext-omega",
    ))
    slope, (a, b, c, d) = quadratic_slope(rng)
    n = small()
    out.append(cli(
        "generate-lazy-flipext-omega", ["generate", "lazy-flipext-omega", "--slope", slope, "-n", str(n)],
        ref.mechanical_quadratic(a, b, c, d, n, upper=True) + "\n", tag="lazy-flipext-omega",
    ))
    n = small()
    out.append(cli(
        "generate-density-staircase", ["generate", "density-staircase", "--alpha", "1/3", "-n", str(n)],
        ref.density_staircase(Fraction(1, 3), n) + "\n", tag="density-staircase",
    ))

    early = "10" + random_word(rng, 1998)
    out.append(check("check-violation", ["check", "--word", early], early))
    normal = prefix_normal_word(rng, 2000)
    out.append(check("check-normal-file", ["check", "--file", write(work / "normal.txt", normal + "\n")], normal))
    zero = ref.complement(prefix_normal_word(rng, 1500))
    out.append(check("check-zero", ["check", "--zero", "--word", zero], ref.complement(zero)))

    word = random_word(rng, 2000, rng.uniform(0.3, 0.7))
    delta, iota, kappa = ref.min_density(word)
    out.append(cli(
        "density-word", ["density", "--word", word], f"{delta.numerator}/{delta.denominator} {iota} {kappa}\n"
    ))
    pre, per = random_word(rng, rng.randint(5, 40)), "1" + random_word(rng, rng.randint(5, 40))
    delta = ref.min_density_periodic(pre, per)
    out.append(cli("density-period", ["density", "--period", f"{pre},{per}"], f"{delta.numerator}/{delta.denominator}\n"))

    n = rng.randint(300, 400)
    pnf1, pnf0 = ref.normal_forms(ref.thue_morse(4 * n), n)
    out.append(cli("pnf", ["pnf", "thue-morse", "-n", str(n)], f"{pnf1}\n{pnf0}\n", tag="thue-morse", printed=n))
    n = small()
    text = ref.paperfolding(n)
    top = rng.randint(80, 120)
    out.append(cli(
        "abelian", ["abelian", "paperfolding", "-n", str(n), "--range", f"1..{top}"],
        "".join(ref.abelian_lines(text).splitlines(keepends=True)[:top]), tag="paperfolding",
    ))
    n = rng.randint(300, 400)
    text = ref.champernowne(n)
    pnf1, pnf0 = ref.normal_forms(ref.champernowne(4 * n), n)
    out.append(cli(
        "plotdata-pnf", ["plotdata", "champernowne", "-n", str(n), "--pnf"], ref.plot_rows(text, pnf1, pnf0),
        tag="champernowne", printed=n,
    ))

    word = random_word(rng, 2000)
    built = str(work / "built.pnji")
    out.append(Invocation(
        "index-build", argv=["index", "build", "--word", word, "-o", built], stdout=sha(""),
        files={built: sha(ref.index_bytes(word))},
    ))
    word = random_word(rng, 2000)
    index = write(work / "query.pnji", ref.index_bytes(word))
    zeros, ones = query_pairs(rng, word, 20000)
    pairs = write(work / "pairs.txt", "".join(f"{z} {o}\n" for z, o in zip(zeros.tolist(), ones.tolist())))
    out.append(cli("index-query-file", ["index", "query", index, "--queries", pairs], answers_text(word, zeros, ones)))
    zeros, ones = zeros[:50], ones[:50]
    batch = write(work / "batch.txt", "".join(f"{z} {o}\n" for z, o in zip(zeros.tolist(), ones.tolist())))
    out.append(Invocation(
        "index-query-stdin", argv=["index", "query", index], stdin=batch,
        stdout=sha(answers_text(word, zeros, ones)),
    ))
    return out


def kernel_large(rng: random.Random, work: Path) -> list[Invocation]:
    """Five full-scan commands at n = 24k-32k; the window kernel dominates."""
    n = near(rng, 32000)
    word = "1" + ref.fibonacci(n)
    out = [check("check-fibonacci", ["check", "fibonacci", "--prepend-ones", "1", "-n", str(n)], word, tag="fibonacci")]
    n = near(rng, 8000)
    pnf1, pnf0 = ref.normal_forms(ref.fibonacci(4 * n), n)
    out.append(cli("pnf-fibonacci", ["pnf", "fibonacci", "-n", str(n)], f"{pnf1}\n{pnf0}\n", tag="fibonacci", printed=n))
    n = near(rng, 24000)
    out.append(cli(
        "abelian-paperfolding", ["abelian", "paperfolding", "-n", str(n)],
        ref.abelian_lines(ref.paperfolding(n)), tag="paperfolding",
    ))
    n = near(rng, 24000)
    built = str(work / "thue-morse.pnji")
    out.append(Invocation(
        "index-build-thue-morse", argv=["index", "build", "thue-morse", "-n", str(n), "-o", built],
        stdout=sha(""), files={built: sha(ref.index_bytes(ref.thue_morse(n)))}, tag="thue-morse",
    ))
    # Sparse: 1 0^(q-1) repeated, long 0-runs, and prefix normal, so the scan is full.
    q, n = rng.randint(60, 68), near(rng, 32000)
    out.append(check(
        "check-lazy-sparse", ["check", "lazy-flipext-omega", "--slope", f"1/{q}", "-n", str(n)],
        ref.mechanical_rational(1, q, 0, 1, n, upper=True), tag="lazy-flipext-omega",
    ))
    return out


def generate_exact(rng: random.Random, work: Path) -> list[Invocation]:
    """Five generate commands; exact floors and flipext rebuilds dominate."""
    p, q = rational_slope(rng, 97, 103)
    u, v = rng.randrange(1, 11), 11
    n = near(rng, 100000)
    out = [cli(
        "generate-mechanical-rational",
        ["generate", "mechanical", "--slope", f"{p}/{q}", "--intercept", f"{u}/{v}", "-n", str(n)],
        ref.mechanical_rational(p, q, u, v, n, upper=False) + "\n", tag="mechanical-rational",
    )]
    slope, (a, b, c, d) = quadratic_slope(rng)
    n = near(rng, 60000)
    out.append(cli(
        "generate-mechanical-quadratic", ["generate", "mechanical", "--upper", "--slope", slope, "-n", str(n)],
        ref.mechanical_quadratic(a, b, c, d, n, upper=True) + "\n", tag="mechanical-quadratic",
    ))
    slope, (a, b, c, d) = quadratic_slope(rng)
    n = near(rng, 100000)
    out.append(cli(
        "generate-lazy-flipext-omega", ["generate", "lazy-flipext-omega", "--slope", slope, "-n", str(n)],
        ref.mechanical_quadratic(a, b, c, d, n, upper=True) + "\n", tag="lazy-flipext-omega",
    ))
    seed, n = flipext_seed(rng), near(rng, 4000)
    out.append(cli(
        "generate-flipext-omega", ["generate", "flipext-omega", "--seed", seed, "-n", str(n)],
        ref.flipext(seed, n) + "\n", tag="flipext-omega",
    ))
    n = near(rng, 5000)
    out.append(cli(
        "generate-density-staircase", ["generate", "density-staircase", "--alpha", "1/3", "-n", str(n)],
        ref.density_staircase(Fraction(1, 3), n) + "\n", tag="density-staircase",
    ))
    return out


def library_session(rng: random.Random, work: Path) -> list[Invocation]:
    """Five library tasks that no CLI command reaches: lexicographic extremes,
    the index read path, balance and the periodic minimum density. An odd
    number of tasks puts the latency median inside one task's samples."""
    out = []
    for label, word in (
        ("lex-random", random_word(rng, near(rng, 16000))),
        ("lex-normal", prefix_normal_word(rng, near(rng, 16000))),
    ):
        lengths = sorted(rng.sample(range(1, len(word) + 1), 64))
        lines = [f"{n} {sha(hi)[:16]} {sha(lo)[:16]}" for n, (hi, lo) in zip(lengths, ref.extreme_factors(word, lengths))]
        lines.append(f"prenecklace {ref.is_prenecklace(word)}")
        spec = {"task": "lex", "word": write(work / f"{label}.txt", word), "lengths": lengths}
        out.append(Invocation(label, task=spec, stdout=sha("\n".join(lines) + "\n")))

    word = random_word(rng, near(rng, 32000), rng.uniform(0.4, 0.6))
    zeros, ones = query_pairs(rng, word, 1_000_000)
    hits = ref.query_answers(word, zeros, ones).astype(np.uint8)
    pairs = np.empty(2 * len(zeros), dtype="<i4")
    pairs[0::2], pairs[1::2] = zeros, ones
    spec = {
        "task": "index", "roundtrips": 10,
        "index": write(work / "library.pnji", ref.index_bytes(word)),
        "queries": write(work / "queries.bin", pairs.tobytes()),
    }
    expected = f"hits {int(hits.sum())}\nanswers {sha(hits.tobytes())[:16]}\nroundtrip True\n"
    out.append(Invocation("index-read", task=spec, stdout=sha(expected)))

    slope, (a, b, c, d) = quadratic_slope(rng)
    n = near(rng, 8000)
    sturmian = ref.mechanical_quadratic(a, b, c, d, n + 1, upper=True)[1:]
    word = random_word(rng, n)
    hi, lo = ref.profile(word)
    spread = int((hi - lo).max())
    spec = {
        "task": "balance", "slope": slope, "length": n, "word": write(work / "balance.txt", word),
        "checks": [spread - 1, spread],
    }
    sturmian_balanced = bool((np.subtract(*ref.profile(sturmian)) <= 1).all())
    expected = f"sturmian {sha(sturmian)[:16]}\nbalanced {sturmian_balanced} False True\n"
    out.append(Invocation("balance", task=spec, stdout=sha(expected), tag="mechanical-quadratic"))

    pre, per = random_word(rng, rng.randint(1500, 2000)), "1" + random_word(rng, rng.randint(2500, 3000))
    delta = ref.min_density_periodic(pre, per)
    spec = {"task": "density", "preperiod": pre, "period": per}
    out.append(Invocation("density", task=spec, stdout=sha(f"min_density_up {delta.numerator}/{delta.denominator}\n")))
    for inv in out:
        inv.task["spec"] = write(work / f"{inv.label}.json", json.dumps(inv.task))
    return out


WORKLOADS = {
    "cli-startup": cli_startup,
    "kernel-large": kernel_large,
    "generate-exact": generate_exact,
    "library-session": library_session,
}


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
