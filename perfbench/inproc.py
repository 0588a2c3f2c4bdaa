"""One in-process pass over a workload's invocations, for the traced run.

Usage: ``python perfbench/inproc.py PLAN.json RESULT.json [SPANS.jsonl]``
with ``src`` on ``PYTHONPATH``. CLI invocations call
``prefixnormal.cli.main(argv)`` with standard output captured; library tasks
call ``libtask.run``. Given a span path, the tracer is installed before the
first call and its spans are written there at the end. Each pass runs in its
own process, so the traced and the untraced pass start from the same state.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from time import perf_counter

from harness import judge
from workloads import Invocation


def run_one(inv: Invocation, main, libtask) -> tuple[int, bytes]:
    out = io.StringIO()
    if inv.task is not None:
        return 0, libtask.run(inv.task).encode("ascii")
    with open(inv.stdin or os.devnull) as stdin, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        saved, sys.stdin = sys.stdin, stdin
        try:
            code = main(inv.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.stdin = saved
    return code, out.getvalue().encode("ascii")


def main(argv: list[str]) -> None:
    plan_path, result_path, *spans_path = argv
    names = {f.name for f in fields(Invocation)}
    plan = [Invocation(**{k: v for k, v in row.items() if k in names}) for row in json.loads(Path(plan_path).read_text())]
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from prefixnormal import cli

    import libtask

    rows = []
    for i, inv in enumerate(plan):
        if tracer is not None:
            tracer.invocation, tracer.tag = i, inv.tag
        start = perf_counter()
        code, out = run_one(inv, cli.main, libtask)
        wall = perf_counter() - start
        ok, detail = judge(inv, code, out)
        rows.append({"label": inv.label, "wall": wall, "ok": ok, "detail": detail, "bytes_out": len(out), "ones": out.count(b"1")})
    result = {"invocations": rows}
    if tracer is not None:
        result["records"] = tracer.write(spans_path[0])
        result["errors"] = tracer.errors
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
