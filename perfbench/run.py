#!/usr/bin/env python3
"""Benchmark of the dfgof command line, driven in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a dfgof source tree and imports ``src/dfgof`` from
it.  One operation is one ``dfgof.cli.run([...])`` call; the loop is closed:
the next operation starts only once the previous one has returned and its
output files have been checked.  Rounds of the workload's operations repeat
until ``--seconds`` have passed; the last round is always finished.  An
operation fails when it exits non-zero or a check on its outputs fails.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
A report for people goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOAD_NAMES = ("simulate-p1", "simulate-p2", "test-p2")
SETUP_PROBES = 5


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_dfgof():
    """Import dfgof from this checkout's ``src``, never from elsewhere."""
    package = SRC / "dfgof"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no dfgof package at {package}")
    sys.path.insert(0, str(SRC))
    import dfgof
    import dfgof.cli

    if Path(dfgof.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported dfgof from {dfgof.__file__}, not from {package}")
    return dfgof


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Set-up as a fresh process pays it: import dfgof, then make inputs."""
    start = time.perf_counter()
    import_dfgof()
    import inputs

    inputs.prepare(workload, ROOT, workdir, seed)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreter processes."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir(parents=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe_dir),
                "--workload", workload, "--seed", str(seed)]  # fmt: skip
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return statistics.median(times)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident-set high-water mark of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_operation(dfgof, op, tracer, index: int) -> tuple[float, float, str | None]:
    """Run one CLI call and check its outputs: (wall s, CPU s, error or None)."""
    shutil.rmtree(op.outdir, ignore_errors=True)
    captured = io.StringIO()
    if tracer is not None:
        tracer.op = index
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = dfgof.cli.run(op.argv)
    except Exception:  # a crash of the CLI fails this operation, not the run
        code = None
        captured.write(traceback.format_exc())
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.op = None
    if code != 0:
        return wall, cpu, f"exit code {code}: {captured.getvalue()[-2000:]}"
    try:
        op.check(op.outdir)
    except Exception as exc:  # a missing or unreadable output fails the check too
        return wall, cpu, f"{type(exc).__name__}: {exc}"
    return wall, cpu, None


def run(args, dfgof, workdir: Path) -> dict:
    setup_s = measure_setup(args.workload, args.seed, workdir)

    import inputs
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        inputs.prepare(args.workload, ROOT, workdir, args.seed), workdir, args.seed
    )
    tracer = totals = None
    if args.trace:
        spool = workdir / "spool"
        spool.mkdir()
        tracer = spans.Tracer(spool)
        spans.install(tracer)
        totals = spans.LayerTotals()

    walls, rates, cpu_per_rep, failures = [], [], [], []
    failed = reps_done = 0
    start = time.perf_counter()
    round_index = 0
    while round_index == 0 or time.perf_counter() - start < args.seconds:
        for op in workload.round(round_index):
            wall, cpu, error = run_operation(dfgof, op, tracer, len(walls))
            walls.append(wall)
            cpu_per_rep.append(cpu / op.reps)
            if tracer is not None:
                totals.add(tracer.collect())
            if error is None:
                reps_done += op.reps
                rates.append(op.reps / wall)
            else:
                rates.append(0.0)
                failed += 1
                failures.append(f"round {round_index} {op.case}: {error}")
        round_index += 1
    peak = peak_rss_mb()  # before the run-level checks allocate anything

    correct = True
    try:
        workload.finish(dfgof)
    except Exception as exc:
        correct = False
        failures.append(f"run-level check: {type(exc).__name__}: {exc}")

    reps_per_s = statistics.median(rates)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{args.workload}: {len(walls)} operations in {round_index} rounds, "
        f"{reps_done} replications, {reps_per_s:.4g} replications/s",
        file=sys.stderr,
    )
    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in totals.metrics(len(walls)).items()}
        for name, value in metrics.items():
            print(f"  {name:48s} {value['value']:.6g} {value['unit']}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": statistics.median(walls), "unit": "s"},
            "reps_per_s": {"value": reps_per_s, "unit": "1/s"},
            "cpu_ms_per_rep": {"value": 1000.0 * statistics.median(cpu_per_rep), "unit": "ms"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    return {
        "correct": correct,
        "attempted": len(walls),
        "failed": failed,
        "metrics": metrics,
    }


def _unit(metric: str) -> str:
    return "ms" if metric.endswith("_ms") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if args.setup_probe is not None:
            print(repr(setup_probe(args.workload, args.seed, args.setup_probe)))
            return 0
        dfgof = import_dfgof()
        workdir = WORK / f"run-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result = run(args, dfgof, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (SetupError, FileNotFoundError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
