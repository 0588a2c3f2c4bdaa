"""Per-layer metrics of the traced run, computed from its spans.

Busy time is the summed duration of a function's spans (children included);
self time excludes the time covered by child spans. Every metric is reported
on every workload; a layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS

GENERATORS = (
    "fibonacci", "thue-morse", "paperfolding", "champernowne", "mechanical-rational",
    "mechanical-quadratic", "flipext-omega", "lazy-flipext-omega", "density-staircase",
)


def _defs() -> list[tuple[str, str, str]]:
    s, n, r = "s", "count", "ratio"
    rows = [
        ("startup.import_s", s, "lower"),
        ("startup.numpy_import_s", s, "lower"),
        ("startup.process_s", s, "lower"),
        ("startup.latency_share", r, "lower"),
        ("startup.errors", n, "lower"),
        ("cli.bytes_out", "bytes", "lower"),
        ("cli.pnf.window_ratio", r, "higher"),
        ("generators.flipext.steps", n, "lower"),
    ]
    for layer in LAYERS:
        rows += [(f"{layer}.self_s", s, "lower"), (f"{layer}.self_share", r, "lower"), (f"{layer}.errors", n, "lower")]
    for tag in GENERATORS:
        rows += [
            (f"generators.{tag}.busy_s", s, "lower"),
            (f"generators.{tag}.symbols", n, "lower"),
            (f"generators.{tag}.symbols_per_s", "1/s", "higher"),
            (f"generators.{tag}.exponent", r, "lower"),
        ]
    for prefix in ("word_core.compute_profile", "analysis.find_violation"):
        rows += [
            (f"{prefix}.calls", n, "lower"),
            (f"{prefix}.busy_s", s, "lower"),
            (f"{prefix}.self_s", s, "lower"),
            (f"{prefix}.windows", n, "lower"),
            (f"{prefix}.windows_per_s", "1/s", "higher"),
            (f"{prefix}.exponent", r, "lower"),
        ]
    rows += [
        ("word_core.prefix_sums.busy_s", s, "lower"),
        ("word_core.finiteword.calls", n, "lower"),
        ("word_core.finiteword.bytes", "bytes", "lower"),
        ("word_core.finiteword.busy_s", s, "lower"),
        ("analysis.pnf.busy_s", s, "lower"),
        ("analysis.min_density.busy_s", s, "lower"),
        ("analysis.is_c_balanced.busy_s", s, "lower"),
        ("analysis.lex.calls", n, "lower"),
        ("analysis.lex.busy_s", s, "lower"),
        ("analysis.lex.alloc_peak_mb", "MB", "lower"),
        ("analysis.lex.exponent", r, "lower"),
        ("jumbled_index.build.busy_s", s, "lower"),
        ("jumbled_index.serialize.busy_s", s, "lower"),
        ("jumbled_index.serialize.bytes", "bytes", "lower"),
        ("jumbled_index.deserialize.busy_s", s, "lower"),
        ("jumbled_index.query.calls", n, "lower"),
        ("jumbled_index.query.busy_s", s, "lower"),
        ("jumbled_index.query.queries_per_s", "1/s", "higher"),
        ("jumbled_index.query.hit_ratio", r, "higher"),
        ("trace.wall_s", s, "lower"),
        ("trace.untraced_wall_s", s, "lower"),
        ("trace.overhead_s", s, "lower"),
        ("trace.overhead_ratio", r, "lower"),
        ("trace.coverage", r, "higher"),
        ("trace.spans", n, "lower"),
    ]
    return rows


PER_LAYER = _defs()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(records, plan, traced, untraced, errors, sweep, startup) -> dict[str, float]:
    """Every per-layer metric from the traced pass's span records.

    ``traced``/``untraced`` are the per-invocation rows of the two in-process
    passes, ``sweep`` the scaling rows, ``startup`` the fresh-process probes.
    """
    spans = [r for r in records if not r.get("tally")]
    tallies = [r for r in records if r.get("tally")]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def busy(*names):
        return sum(s["end"] - s["start"] for name in names for s in by_name[name])

    wall = sum(row["wall"] for row in traced)
    m = {
        "startup.import_s": startup["import_s"],
        "startup.numpy_import_s": startup["numpy_import_s"],
        "startup.process_s": startup["process_s"],
        "startup.latency_share": startup["import_s"]
        / (startup["process_s"] + statistics.median(row["wall"] for row in untraced)),
        "startup.errors": startup["errors"],
        "cli.bytes_out": sum(row["bytes_out"] for row, inv in zip(traced, plan) if inv.argv is not None),
    }

    windows = defaultdict(int)
    for span in by_name["word_core.compute_profile"]:
        windows[span["invocation"]] = max(windows[span["invocation"]], span["n"])
    printed = [(inv.printed, windows[i]) for i, inv in enumerate(plan) if inv.printed]
    m["cli.pnf.window_ratio"] = _rate(sum(p for p, _ in printed), sum(w for _, w in printed))
    m["generators.flipext.steps"] = sum(
        row["ones"] - inv.argv[inv.argv.index("--seed") + 1].count("1")
        for row, inv in zip(traced, plan)
        if inv.argv and inv.argv[:2] == ["generate", "flipext-omega"]
    )

    self_time = defaultdict(float)
    for span in spans:
        self_time[span["name"].split(".")[0]] += span["self"]
    for tally in tallies:
        self_time[tally["name"].split(".")[0]] += tally["busy"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
        m[f"{layer}.self_share"] = _rate(self_time[layer], wall)
        m[f"{layer}.errors"] = errors[layer]

    prefix_spans = defaultdict(list)
    for span in by_name["generators.prefix"]:
        prefix_spans[span["tag"]].append(span)
    for tag in GENERATORS:
        seconds = sum(s["end"] - s["start"] for s in prefix_spans[tag])
        symbols = sum(s["n"] for s in prefix_spans[tag])
        m[f"generators.{tag}.busy_s"] = seconds
        m[f"generators.{tag}.symbols"] = symbols
        m[f"generators.{tag}.symbols_per_s"] = _rate(symbols, seconds)
        m[f"generators.{tag}.exponent"] = sweep[f"generators.{tag}"]["exponent"]

    def kernel(prefix, name, scanned):
        calls = by_name[name]
        seconds = busy(name)
        work = sum(scanned(s) for s in calls)
        m[f"{prefix}.calls"] = len(calls)
        m[f"{prefix}.busy_s"] = seconds
        m[f"{prefix}.self_s"] = sum(s["self"] for s in calls)
        m[f"{prefix}.windows"] = work
        m[f"{prefix}.windows_per_s"] = _rate(work, seconds)
        m[f"{prefix}.exponent"] = sweep[prefix]["exponent"]

    def violation_windows(span):
        # Lengths 1..L are scanned, n - i + 1 windows each; L is the witness
        # length, or n for a prefix normal word.
        n = span["n"]
        last = span["witness"] or n
        return last * n - last * (last - 1) // 2

    kernel("word_core.compute_profile", "word_core.compute_profile", lambda s: s["n"] * (s["n"] + 1) // 2)
    kernel("analysis.find_violation", "analysis.find_violation_1", violation_windows)

    words = by_name["word_core.FiniteWord"]
    lex = by_name["analysis.max_word"] + by_name["analysis.min_word"]
    query = [t for t in tallies if t["name"] == "jumbled_index.query"]
    queries = sum(t["calls"] for t in query)
    query_s = sum(t["busy"] for t in query)
    m.update({
        "word_core.prefix_sums.busy_s": busy("word_core.prefix_sums"),
        "word_core.finiteword.calls": len(words),
        "word_core.finiteword.bytes": sum(s["bytes"] for s in words if "bytes" in s),
        "word_core.finiteword.busy_s": busy("word_core.FiniteWord"),
        "analysis.pnf.busy_s": busy("analysis.pnf1", "analysis.pnf0"),
        "analysis.min_density.busy_s": busy("analysis.min_density", "analysis.min_density_up"),
        "analysis.is_c_balanced.busy_s": busy("analysis.is_c_balanced"),
        "analysis.lex.calls": len(lex),
        "analysis.lex.busy_s": busy("analysis.max_word", "analysis.min_word"),
        "analysis.lex.alloc_peak_mb": max((s["alloc_peak"] for s in lex), default=0) / 2**20,
        "analysis.lex.exponent": sweep["analysis.lex"]["exponent"],
        "jumbled_index.build.busy_s": busy("jumbled_index.build_index"),
        "jumbled_index.serialize.busy_s": busy("jumbled_index.serialize"),
        "jumbled_index.serialize.bytes": sum(s["bytes"] for s in by_name["jumbled_index.serialize"]),
        "jumbled_index.deserialize.busy_s": busy("jumbled_index.deserialize"),
        "jumbled_index.query.calls": queries,
        "jumbled_index.query.busy_s": query_s,
        "jumbled_index.query.queries_per_s": _rate(queries, query_s),
        "jumbled_index.query.hit_ratio": _rate(sum(t["hits"] for t in query), queries),
    })

    untraced_wall = sum(row["wall"] for row in untraced)
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    covered += sum(t["busy"] for t in tallies if t["parent"] is None)
    m.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.overhead_ratio": _rate(wall - untraced_wall, untraced_wall),
        "trace.coverage": _rate(covered, wall),
        "trace.spans": len(records),
    })
    return m
