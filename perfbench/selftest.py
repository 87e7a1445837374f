#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must pass on real dfgof
outputs and fail on a corrupted copy of them.

    python3 perfbench/selftest.py

Runs one operation of every workload and one replication drawn through the
public API, then feeds each check corrupted outputs: a shifted ECDF, a
dropped or non-finite ECDF row, an off-by-one p-value, a process dump that
disagrees with the statistic, a non-minimal p-value for the shifted file, a
bootstrap null of the wrong scale, a swapped assignment pair, a misreported
cost, a non-orthogonal residual vector and a perturbed process value.
Prints one line per case and exits non-zero if any check passed a
corrupted output or failed a genuine one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import shutil
import sys
from pathlib import Path

import run

SEED = 20261017


def main() -> int:
    dfgof = run.import_dfgof()
    import checks
    import inputs
    import workloads

    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    outcomes: list[bool] = []

    def expect(passes: bool, label: str, func, *args) -> None:
        try:
            func(*args)
            ok = passes
            note = "passed"
        except checks.CheckFailed as exc:
            ok = not passes
            note = f"failed: {exc}"
        outcomes.append(ok)
        print(f"{'ok  ' if ok else 'BAD '} {label}: {note}")

    def run_op(op) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = dfgof.cli.run(op.argv)
        if code != 0:
            raise SystemExit(f"dfgof exited {code} on {op.argv}")

    def corrupted(src: Path, name: str, edit) -> Path:
        """Copy of output directory ``src`` with file ``name`` rewritten by ``edit``."""
        dst = workdir / f"corrupt-{len(outcomes)}"
        shutil.copytree(src, dst)
        path = dst / name
        path.write_text(edit(path.read_text()))
        return dst

    try:
        # simulate-p1: Kolmogorov reference, two-sample agreement, counts
        p1 = workloads.SimulateP1(inputs.prepare("simulate-p1", run.ROOT, workdir, SEED), workdir / "p1", SEED)
        op = p1.round(0)[0]
        run_op(op)
        expect(True, "p1 genuine output", p1.check, op.outdir)
        shifted = corrupted(op.outdir, "ecdf_normal_1_2.csv", lambda t: _map_column(t, 0, lambda v: v + 0.2))
        expect(False, "p1 ECDF shifted by 0.2", p1.check, shifted)
        values = checks.ecdf_values(op.outdir / "ecdf_uniform_0_2.csv")
        expect(False, "p1 shifted ECDF vs discrete Kolmogorov law", checks.check_univariate_null, values + 0.2, p1.N)
        expect(False, "p1 designs disagree", checks.check_same_law, values, values + 0.2, "designs")
        dropped = corrupted(op.outdir, "ecdf_uniform_0_2.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n")
        expect(False, "p1 ECDF row dropped", p1.check, dropped)

        # simulate-p2: ECDF counts, then replications drawn through the API
        p2 = workloads.SimulateP2(inputs.prepare("simulate-p2", run.ROOT, workdir, SEED), workdir / "p2", SEED)
        op = p2.round(0)[0]
        run_op(op)
        expect(True, "p2 genuine output", p2.check, op.outdir)
        nan_row = corrupted(op.outdir, "ecdf_beta_indep.csv", lambda t: t.replace(t.splitlines()[-1].split(",")[0], "nan"))
        expect(False, "p2 non-finite ECDF value", p2.check, nan_row)
        for n in p2.CHECK_SIZES:
            rep = workloads.draw_replication(dfgof, "beta_indep", n, [SEED, n])
            expect(True, f"replication n={n} genuine", workloads.check_replication, rep)
            expect(False, f"replication n={n} swapped pair", workloads.check_replication, _swapped(rep, checks))
            bad_cost = dataclasses.replace(rep, cost=rep.cost * (1 + 1e-6))
            expect(False, f"replication n={n} misreported cost", workloads.check_replication, bad_cost)
            leaky = dataclasses.replace(rep, transformed=rep.transformed + 1e-3)
            expect(False, f"replication n={n} non-orthogonal residuals", workloads.check_replication, leaky)
            values = rep.eval_values.copy()
            values[len(values) // 2] += 1e-6
            expect(False, f"replication n={n} perturbed process value", workloads.check_replication,
                   dataclasses.replace(rep, eval_values=values))  # fmt: skip

        # test-p2: p-value formula, observed statistic, shifted file, exact law
        tp = workloads.TestP2(inputs.prepare("test-p2", run.ROOT, workdir, SEED), workdir / "test", SEED)
        cases = {c.name: c for c in tp.CASES}
        outdirs = {}
        for op in tp.round(0):
            run_op(op)
            outdirs[op.case] = op.outdir
            expect(True, f"test {op.case} genuine output", tp.check, op.outdir, cases[op.case])
        null_dir, null_case = outdirs["null-normal"], cases["null-normal"]

        def off_by_one(text: str) -> str:
            value = float(re.search(r"^pvalue: (\S+) ", text, flags=re.MULTILINE).group(1))
            return re.sub(r"^pvalue: \S+", f"pvalue: {value - 1.0 / (tp.REPS + 1.0)!r}", text, flags=re.MULTILINE)

        expect(False, "test off-by-one p-value", tp.check, corrupted(null_dir, "summary.txt", off_by_one), null_case)
        scaled = corrupted(null_dir, "process_transformed.csv", lambda t: _map_column(t, -1, lambda v: 0.9 * v))
        expect(False, "test process dump disagrees with ks_abs", tp.check, scaled, null_case)
        expect(False, "test null file checked as shifted", tp.check, null_dir, cases["shifted-normal"])
        wide = corrupted(null_dir, "null_ecdf.csv", lambda t: _map_column(t, 0, lambda v: 2.0 * v))
        # keep the p-value consistent with the corrupted null so only the law check can catch it
        summary = (wide / "summary.txt").read_text()
        observed = float(re.search(r"ks_abs = (\S+)$", summary, flags=re.MULTILINE).group(1))
        null = checks.ecdf_values(wide / "null_ecdf.csv")
        p = (1.0 + float((null >= observed).sum())) / (tp.REPS + 1.0)
        (wide / "summary.txt").write_text(re.sub(r"^pvalue: \S+", f"pvalue: {p!r}", summary, flags=re.MULTILINE))
        expect(False, "test bootstrap null at twice the scale", tp.check, wide, null_case)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bad = outcomes.count(False)
    print(f"{len(outcomes) - bad} of {len(outcomes)} self-test cases behaved as expected")
    return 1 if bad else 0


def _swapped(rep, checks):
    """The replication with row 0 and the row matched farthest from row 0's
    point trading anchors, so the assignment is strictly suboptimal."""
    x01 = checks.unit_cube(rep.x)
    anchors = checks.halton(x01.shape[0], 2)[rep.sigma]
    i = 0
    j = int(((x01[i] - anchors) ** 2).sum(axis=1).argmax())
    sigma = rep.sigma.copy()
    sigma[[i, j]] = sigma[[j, i]]
    return dataclasses.replace(rep, sigma=sigma)


def _map_column(text: str, column: int, func) -> str:
    """Apply ``func`` to one column of every row of a CSV below its header."""
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[column] = repr(func(float(parts[column])))
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.exit(main())
