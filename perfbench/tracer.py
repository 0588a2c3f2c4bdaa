"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``prefixnormal`` layer from
outside the library. Modules bind names directly (``from .word_core import
compute_profile``), so :meth:`Tracer.install` replaces every binding of a
wrapped function in every package module, not just the defining one.

Each call becomes a span: name, start, end, parent span, invocation id and
self time (duration minus the time covered by child spans). Spans stay in
memory until :meth:`Tracer.write`. ``JumbledIndex.query`` runs a million
times in one invocation, so its calls are tallied per invocation (calls,
hits, busy time) instead of kept one by one; their time still counts as
child time of the enclosing span.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from time import perf_counter

LAYERS = ("cli", "generators", "word_core", "analysis", "jumbled_index")

# Public functions wrapped per module; methods are given as Class.method.
TRACED = {
    "word_core": (
        "compute_profile", "complement", "reverse", "parikh", "prefix_weight",
        "prefix_density", "lex_compare", "FiniteWord.__init__", "FiniteWord.prefix_sums",
    ),
    "generators": (
        "WordStream.prefix", "mechanical_stream", "mechanical_lower", "mechanical_upper",
        "characteristic_stream", "characteristic_word", "morphic_stream", "morphic_fixpoint",
        "fibonacci_stream", "thue_morse_stream", "paperfolding_stream", "paperfolding",
        "champernowne_stream", "champernowne", "flipext", "flipext_stream",
        "lazy_alpha_flipext", "lazy_alpha_flipext_stream", "geometric_density_sequence",
        "density_stages", "aperiodic_density_stream",
    ),
    "analysis": (
        "find_violation_1", "find_violation_0", "is_prefix_normal_1", "is_prefix_normal_0",
        "check_stream_prefix_normal", "pnf1", "pnf0", "abelian_complexity", "parikh_set",
        "format_parikh_set", "reliable_pnf_window", "min_density", "min_density_up",
        "is_c_balanced", "prepend_ones_bound", "empirical_min_prepend",
        "is_prenecklace_prefix", "max_word", "min_word",
    ),
    "jumbled_index": ("build_index", "serialize", "deserialize"),
    "cli": ("main",),
}
TALLIED = ("jumbled_index", "JumbledIndex.query")
ALLOC_TRACED = {"analysis.max_word", "analysis.min_word"}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.tallies: dict[tuple[int, str], dict] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.invocation = 0
        self.tag: str | None = None
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 0

    def span(self, layer: str, name: str, fn):
        tracer = self
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            watching = alloc and not tracemalloc.is_tracing()
            if watching:
                tracemalloc.start()
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                record = {
                    "id": frame[0], "name": name, "start": start, "end": end,
                    "parent": parent[0] if parent else None, "invocation": tracer.invocation,
                    "self": end - start - frame[1], "tag": tracer.tag,
                }
                if watching:
                    record["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if ok:
                    record.update(_attributes(name, args, result))
                tracer.spans.append(record)

        return wrapper

    def tally(self, layer: str, name: str, fn):
        tracer = self

        # A fixed signature keeps the per-call cost small: this runs 10^6 times.
        @functools.wraps(fn)
        def wrapper(index, zeros, ones):
            start = perf_counter()
            try:
                result = fn(index, zeros, ones)
            except Exception:
                tracer.errors[layer] += 1
                raise
            elapsed = perf_counter() - start
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is not None:
                parent[1] += elapsed
            key = (tracer.invocation, name)
            row = tracer.tallies.get(key)
            if row is None:
                row = tracer.tallies[key] = {
                    "name": name, "invocation": tracer.invocation, "tally": True,
                    "parent": parent[0] if parent else None, "calls": 0, "hits": 0, "busy": 0.0,
                }
            row["calls"] += 1
            row["hits"] += bool(result)
            row["busy"] += elapsed
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every binding in the package."""
        import prefixnormal
        from prefixnormal import analysis, cli, generators, jumbled_index, word_core

        modules = {
            "word_core": word_core, "generators": generators, "analysis": analysis,
            "jumbled_index": jumbled_index, "cli": cli,
        }
        everywhere = [prefixnormal, *modules.values()]
        plan = [(layer, qualname, self.span) for layer, names in TRACED.items() for qualname in names]
        plan.append((*TALLIED, self.tally))
        for layer, qualname, make in plan:
            module = modules[layer]
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                owner = getattr(module, owner_name)
                name = f"{layer}.{owner_name if attr == '__init__' else attr}"
                setattr(owner, attr, make(layer, name, getattr(owner, attr)))
                continue
            original = getattr(module, qualname)
            wrapped = make(layer, f"{layer}.{qualname}", original)
            for mod in everywhere:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def write(self, path) -> int:
        """Write all spans and tallies as JSON lines; returns the record count."""
        records = self.spans + list(self.tallies.values())
        with open(path, "w") as out:
            for record in records:
                out.write(json.dumps(record) + "\n")
        return len(records)


def _attributes(name: str, args: tuple, result) -> dict:
    """Sizes recorded with a span, read from its arguments and result."""
    if name == "word_core.compute_profile":
        return {"n": len(args[0])}
    if name == "word_core.FiniteWord":
        return {"bytes": len(args[0])}
    if name == "generators.prefix":
        return {"n": args[1]}
    if name == "analysis.find_violation_1":
        return {"n": len(args[0]), "witness": None if result is None else result.factor_length}
    if name == "jumbled_index.serialize":
        return {"bytes": len(result)}
    return {}
