"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        (from the repository root)

Checks that the correctness gate is live: a real invocation with a
deliberately wrong expected output, exit code or written file is counted as
failed, in a fresh process and in process, while the unaltered invocation
passes. Also checks that BENCHMARK.json lists exactly the metrics, with the
units, that the benchmark prints. Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import layers
import run
import workloads


def main() -> int:
    root = Path.cwd().resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    failures = []
    try:
        plan = workloads.build("cli-startup", 0, work)
        good = plan[0]
        built = next(inv for inv in plan if inv.files)
        cases = [
            ("unaltered", good, True),
            ("unaltered file", built, True),
            ("wrong stdout", dataclasses.replace(good, stdout=workloads.sha("0\n")), False),
            ("wrong exit code", dataclasses.replace(good, code=1), False),
            ("wrong file", dataclasses.replace(built, files={p: workloads.sha(b"") for p in built.files}), False),
        ]
        for name, inv, expected in cases:
            ok = harness.run_fresh(inv, env, root, work / "stderr.txt").ok
            if ok != expected:
                failures.append(f"fresh process, {name}: judged {'ok' if ok else 'failed'}")
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps([dataclasses.asdict(inv) for _, inv, _ in cases]))
        subprocess.run(
            [sys.executable, str(Path(harness.__file__).with_name("inproc.py")), str(plan_path), str(result_path)],
            env=env, cwd=root, check=True,
        )
        rows = json.loads(result_path.read_text())["invocations"]
        for (name, _, expected), row in zip(cases, rows):
            if row["ok"] != expected:
                failures.append(f"in process, {name}: judged {'ok' if row['ok'] else 'failed'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    manifest = json.loads((root / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if listed != run.END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {listed} != printed {run.END_TO_END}")
    listed = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if listed != layers.UNITS:
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if {w["name"] for w in manifest["workloads"]} != set(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
