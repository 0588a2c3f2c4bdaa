"""prefixnormal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a prefixnormal checkout (the package is imported from
``src``). Load is one client in a closed loop: each invocation is a fresh
process started only after the previous one has exited, with no threads and
no parallel processes. Inputs come from ``--seed``; expected results come
from ``reference.py`` and are computed before anything is timed.

``--trace 0`` repeats the workload's invocation list until its invocations
have taken ``--seconds`` and reports the end-to-end metrics. ``--trace 1`` runs the same
invocations in process, once untraced and once with every layer's public
functions wrapped, adds the scaling sweep and the import-time probes, and
reports the per-layer metrics; its spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import workloads
from harness import run_fresh

PROBE_EVERY = 1.0  # seconds between set-up probes in the closed loop
# On a shared host the CPU speed can drift by tens of percent within minutes,
# and a fixed pure-Python loop slows by about the same factor. Every
# closed-loop time is therefore reported in seconds at the speed where
# CALIBRATION_STEPS loop steps take REFERENCE_S, timed right after it.
REFERENCE_S = 0.015
CALIBRATION_STEPS = 300_000
CALIBRATION_WINDOW = 5
IMPORT = ("-c", "import prefixnormal, prefixnormal.cli")
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

# The split each traced workload is expected to show on the seed code.
PREDICTIONS = {
    "cli-startup": "startup.import_s is most of an invocation's latency",
    "kernel-large": "compute_profile + find_violation self time is most of the traced wall",
    "generate-exact": "generators self time is most of the traced wall",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh(cmd, env, root) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    done = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True)
    return perf_counter() - start, done


def check_import(env, root) -> None:
    """Warm the bytecode cache and make sure the checkout's own package is the
    one imported."""
    _, done = fresh([sys.executable, "-c", "import prefixnormal.cli, prefixnormal; print(prefixnormal.__file__)"], env, root)
    where = Path(done.stdout.strip() or ".").resolve()
    if done.returncode != 0 or root / "src" not in where.parents:
        raise SystemExit(f"error: prefixnormal does not import from {root / 'src'}: {done.stderr.strip()[-300:]}")


def import_time(env, root) -> float:
    wall, done = fresh([sys.executable, *IMPORT], env, root)
    if done.returncode != 0:
        raise SystemExit(f"error: import failed: {done.stderr.strip()[-300:]}")
    return wall


def calibrate() -> float:
    """Time of a fixed pure-Python loop: the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i
    return perf_counter() - start


def timing_metrics(setup, passes, scaled: bool) -> dict:
    """The time metrics from (seconds, speed scale) samples, scaled or raw."""

    def t(seconds, scale):
        return seconds * scale if scaled else seconds

    latencies = [t(wall, scale) for run in passes for wall, _, scale in run]
    return {
        "setup_s": statistics.median(t(*sample) for sample in setup),
        "wall_s": statistics.median(sum(t(wall, scale) for wall, _, scale in run) for run in passes),
        "cpu_s": statistics.median(sum(t(cpu, scale) for _, cpu, scale in run) for run in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
    }


def closed_loop(plan, seconds, env, root, work):
    """Repeat the plan until its invocations have taken ``seconds`` in total.

    A set-up probe (a fresh interpreter importing the package) runs between
    invocations about once every PROBE_EVERY seconds, so ``setup_s`` samples
    the same stretch of time as the other metrics; probe time is not counted
    in any other metric. Every probe and invocation is followed by
    :func:`calibrate`; its times are reported scaled by ``REFERENCE_S`` over
    the median of the last CALIBRATION_WINDOW calibrations, which follows the
    host's speed without the noise of a single short loop. The raw figures
    are printed beside them.
    """
    setup, passes, problems, calibrations = [], [], [], []
    peak_kb = attempted = failed = 0
    last_probe = float("-inf")

    def scale() -> float:
        calibrations.append(calibrate())
        return REFERENCE_S / statistics.median(calibrations[-CALIBRATION_WINDOW:])

    while not passes or sum(wall for run in passes for wall, _, _ in run) < seconds:
        run = []
        for inv in plan:
            if perf_counter() - last_probe >= PROBE_EVERY:
                wall = import_time(env, root)
                setup.append((wall, scale()))
                last_probe = perf_counter()
            outcome = run_fresh(inv, env, root, work / "stderr.txt")
            run.append((outcome.wall, outcome.cpu, scale()))
            attempted += 1
            peak_kb = max(peak_kb, outcome.maxrss_kb)
            if not outcome.ok:
                failed += 1
                problems.append(f"{inv.label}: {outcome.detail}")
        passes.append(run)
    metrics = {**timing_metrics(setup, passes, scaled=True), "peak_rss_mb": peak_kb / 1024}
    raw = timing_metrics(setup, passes, scaled=False)
    samples = f"{attempted} samples"
    counts = {"setup_s": f"{len(setup)} runs", "wall_s": f"{len(passes)} passes", "cpu_s": f"{len(passes)} passes",
              "latency_p50_s": samples, "latency_p90_s": samples}
    notes = {name: f"{counts[name]}, raw {raw[name]:.6g}" for name in raw}
    return metrics, notes, attempted, failed, problems


def import_probe(env, root, runs=5) -> dict:
    """Import cost from ``-X importtime`` in fresh processes (medians)."""
    imports, numpy_imports, errors = [], [], 0
    for _ in range(runs):
        _, done = fresh([sys.executable, "-X", "importtime", *IMPORT], env, root)
        if done.returncode != 0:
            errors += 1
            continue
        total, numpy_us = 0, None
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            if name in ("prefixnormal", "prefixnormal.cli"):
                total += int(parts[1])
            if name.strip() == "numpy" and numpy_us is None:
                numpy_us = int(parts[1])
        imports.append(total / 1e6)
        numpy_imports.append((numpy_us or 0) / 1e6)
    process = [import_time(env, root) for _ in range(runs)]
    return {
        "import_s": statistics.median(imports) if imports else 0.0,
        "numpy_import_s": statistics.median(numpy_imports) if numpy_imports else 0.0,
        "process_s": statistics.median(process),
        "errors": errors,
    }


def in_process(plan_path, env, root, out_path, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "inproc.py"), str(plan_path), str(out_path)] + ([str(spans)] if spans else [])
    done = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: in-process pass failed: {done.stderr.strip()[-500:]}")
    return json.loads(out_path.read_text())


def traced_run(args, plan, env, root, work):
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps([dataclasses.asdict(inv) for inv in plan]))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    untraced = in_process(plan_path, env, root, work / "untraced.json")
    traced = in_process(plan_path, env, root, work / "traced.json", spans_path)
    sweep_path = work / "sweep.json"
    done = subprocess.run([sys.executable, str(HERE / "sweep.py"), str(sweep_path)], env=env, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: scaling sweep failed: {done.stderr.strip()[-500:]}")
    sweep = json.loads(sweep_path.read_text())
    startup = import_probe(env, root)
    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    metrics = layers.layer_metrics(
        records, plan, traced["invocations"], untraced["invocations"], traced["errors"], sweep, startup
    )
    rows = untraced["invocations"] + traced["invocations"]
    problems = [f"{row['label']}: {row['detail']}" for row in rows if not row["ok"]]
    print(f"spans: {spans_path.relative_to(root)} ({len(records)} records)")
    print("scaling sweep (seconds at each size):")
    for name, row in sweep.items():
        cells = "  ".join(f"{n // 1000}k={t:.4f}" for n, t in zip(row["sizes"], row["seconds"]))
        print(f"  {name:<34} {cells}  exponent={row['exponent']:.2f}")
    return metrics, {}, len(rows), len(problems), problems


def prediction(workload, m) -> str:
    wall = m["trace.wall_s"] or 1.0
    if workload not in PREDICTIONS:
        return (
            f"shares of the traced wall: analysis.lex busy {m['analysis.lex.busy_s'] / wall:.3f}, "
            f"jumbled_index self {m['jumbled_index.self_share']:.3f}, word_core self {m['word_core.self_share']:.3f}"
        )
    share = {
        "cli-startup": m["startup.latency_share"],
        "kernel-large": (m["word_core.compute_profile.self_s"] + m["analysis.find_violation.self_s"]) / wall,
        "generate-exact": m["generators.self_share"],
    }[workload]
    verdict = "confirmed" if share > 0.5 else "NOT confirmed"
    return f"prediction ({PREDICTIONS[workload]}): share {share:.3f}, {verdict}"


def pin_to_one_cpu() -> str:
    """Run the benchmark and every process it starts on one CPU.

    One client runs on one core: numpy's BLAS threads then stay idle instead
    of racing the measured thread for a second core whose availability
    varies, and the calibration loop times the core the invocations use.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"
    return f"pinned to CPU {cpu}"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "prefixnormal" / "__init__.py").is_file():
        print(f"error: {root} is not a prefixnormal checkout (src/prefixnormal missing)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    pinning = pin_to_one_cpu()
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, work)
        check_import(env, root)
        print(f"prefixnormal benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print(
            f"machine: nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}; "
            f"load: 1 client, closed loop, {len(plan)} invocations per pass, {pinning}"
        )
        if args.trace:
            metrics, notes, attempted, failed, problems = traced_run(args, plan, env, root, work)
            units = layers.UNITS
        else:
            metrics, notes, attempted, failed, problems = closed_loop(plan, args.seconds, env, root, work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]:<6} {notes.get(name, '')}")
    print(f"  {'failed_ratio':<44} {failed / attempted:>16.6g} {'-':<6} {failed}/{attempted} invocations")
    if args.trace:
        print(prediction(args.workload, metrics))
    for problem in problems[:10]:
        print(f"FAILED {problem}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
