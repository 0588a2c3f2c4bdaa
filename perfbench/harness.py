"""Running one invocation and judging its result.

Each closed-loop step is one fresh process: ``pnw`` (the console entry point,
spelled out with ``-c`` so that no installed script is needed) or a library
task. It is timed from process start until it has exited after its last byte
of output, and its rusage comes from ``wait4``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import Invocation

PNW = ("-c", "import sys; from prefixnormal.cli import main; sys.exit(main())")
LIBTASK = str(Path(__file__).with_name("libtask.py"))


@dataclass
class Outcome:
    ok: bool
    wall: float
    cpu: float
    maxrss_kb: int
    detail: str = ""


def command(inv: Invocation) -> list[str]:
    if inv.task is not None:
        return [sys.executable, LIBTASK, inv.task["spec"]]
    return [sys.executable, *PNW, *inv.argv]


def judge(inv: Invocation, code: int, stdout: bytes) -> tuple[bool, str]:
    """Compare exit code, standard output and written files with the expected
    values; written files are removed so a stale one cannot pass next time."""
    problems = []
    if code != inv.code:
        problems.append(f"exit {code}, expected {inv.code}")
    if hashlib.sha256(stdout).hexdigest() != inv.stdout:
        problems.append(f"stdout differs ({len(stdout)} bytes)")
    for path, expected in inv.files.items():
        try:
            data = Path(path).read_bytes()
        except OSError:
            problems.append(f"{path} not written")
            continue
        os.unlink(path)
        if hashlib.sha256(data).hexdigest() != expected:
            problems.append(f"{path} differs")
    return not problems, "; ".join(problems)


def run_fresh(inv: Invocation, env: dict, cwd: Path, errors: Path) -> Outcome:
    """Run one invocation as a fresh process and judge it."""
    with open(inv.stdin or os.devnull, "rb") as stdin, open(errors, "wb") as stderr:
        start = perf_counter()
        proc = subprocess.Popen(command(inv), stdin=stdin, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=cwd)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    ok, detail = judge(inv, code, out)
    if not ok:
        detail += " | stderr: " + errors.read_text(errors="replace")[-300:].strip()
    return Outcome(ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, detail)
