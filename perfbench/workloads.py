"""The three benchmark workloads.

A workload turns the benchmark seed into rounds of ``dfgof`` command lines,
checks the files each command writes, and may run checks of its own once
the timed phase is over.  Every round holds the same operations; only the
seeds passed to dfgof change from round to round.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import require
from inputs import TEST_N, bilinear_mean

LATTICE = 64  # dfgof's default lattice resolution for p = 2


@dataclass(frozen=True)
class Operation:
    """One dfgof CLI invocation and the check of what it wrote."""

    case: str
    argv: list[str]
    reps: int  # Monte Carlo replications the invocation runs
    outdir: Path
    check: Callable[[Path], None]


def _op_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def _design_counts(summary: str, design: str) -> tuple[int, int]:
    match = checks.summary_field(summary, rf"^design {design}: reps=(\d+) failures=(\d+)")
    return int(match.group(1)), int(match.group(2))


class Simulate:
    """``dfgof simulate CONFIG`` with the size, designs and worker count
    pinned by flags, so that the workload does not follow edits to the
    shipped config files."""

    N: int
    REPS: int
    DESIGNS: tuple[str, ...]
    WORKERS: int

    def __init__(self, inputs: dict[str, Path], workdir: Path, seed: int):
        self.config = inputs["config"]
        self.workdir = workdir
        self.seed = seed

    def round(self, index: int) -> list[Operation]:
        outdir = self.workdir / "simulate"
        argv = [
            "simulate", str(self.config), "--workers", str(self.WORKERS), "--n", str(self.N),
            "--reps", str(self.REPS), "--design", ",".join(self.DESIGNS),
            "--seed", str(_op_seed(self.seed, index)), "-o", str(outdir),
        ]  # fmt: skip
        return [Operation("simulate", argv, self.REPS * len(self.DESIGNS), outdir, self.check)]

    def design_values(self, outdir: Path) -> list[np.ndarray]:
        """Each design's ECDF values, after checking their count."""
        summary = (outdir / "summary.txt").read_text()
        out = []
        for design in self.DESIGNS:
            reps, failures = _design_counts(summary, design)
            require(reps == self.REPS, f"{design}: summary reports {reps} replications, asked {self.REPS}")
            values = checks.ecdf_values(outdir / f"ecdf_{design}.csv")
            checks.check_ecdf_count(values, reps - failures, design)
            out.append(values)
        return out

    def check(self, outdir: Path) -> None:
        self.design_values(outdir)

    def finish(self, dfgof) -> None:
        pass


class SimulateP1(Simulate):
    """simple_linear, n = 200, 2000 replications on each of two designs,
    two worker processes."""

    N = 200
    REPS = 2000
    DESIGNS = ("uniform_0_2", "normal_1_2")
    WORKERS = 2

    def check(self, outdir: Path) -> None:
        ecdfs = self.design_values(outdir)
        for values in ecdfs:
            checks.check_univariate_null(values, self.N)
        checks.check_same_law(ecdfs[0], ecdfs[1], "transformed ks_abs across designs")


class SimulateP2(Simulate):
    """bilinear2d, n = 1000, two replications on each of two designs, one
    worker.  Each replication draws a fresh X, so nothing carries over
    between replications."""

    N = 1000
    REPS = 2
    DESIGNS = ("beta_dep_a", "beta_indep")
    WORKERS = 1
    CHECK_SIZES = (120, N)  # replications drawn by the benchmark itself

    def finish(self, dfgof) -> None:
        """Replications drawn here through the public API: optimal
        assignment, norm-keeping rotation orthogonal to the reference span,
        and partial sums, each against the benchmark's own computation."""
        for d_index, design in enumerate(self.DESIGNS):
            for n in self.CHECK_SIZES:
                check_replication(draw_replication(dfgof, design, n, [self.seed, n, d_index]))


@dataclass(frozen=True)
class Replication:
    """What the public API produced for one bilinear2d replication."""

    x: np.ndarray
    y: np.ndarray
    residuals: np.ndarray
    sigma: np.ndarray
    cost: float
    transformed: np.ndarray
    degrees: list[tuple[int, ...]]
    eval_points: np.ndarray
    eval_values: np.ndarray


def draw_replication(dfgof, design: str, n: int, seed) -> Replication:
    rng = np.random.default_rng(seed)
    x = dfgof.covariate_design(design, n, seed=rng.integers(2**63))
    y = bilinear_mean(x) + rng.standard_normal(n)
    sample = dfgof.Sample(x, y)
    model = dfgof.build_model("bilinear2d", sample)
    fitres = dfgof.fit(model, sample)
    x01, _, _ = dfgof.rescale_unit_cube(x)
    anchors = dfgof.generate_anchors(n, 2, "halton")
    assignment = dfgof.solve_assignment(x01, anchors)
    scan = anchors.points[assignment.sigma]
    basis = dfgof.make_basis(2, model.d)
    score_set = dfgof.score_basis(model, fitres, sample)
    transformed = dfgof.transform_residuals(fitres.residuals, score_set, dfgof.sample_on_points(basis, scan))
    proc = dfgof.build_process(transformed.values, scan)
    return Replication(
        x, y, fitres.residuals, assignment.sigma, assignment.cost, transformed.values,
        checks.basis_degrees(basis.describe()), proc.eval_points, proc.eval_values,
    )  # fmt: skip


def check_replication(rep: Replication) -> None:
    x = rep.x
    n = x.shape[0]
    own_design = np.column_stack([np.ones(n), x[:, 0], x[:, 1], x[:, 0] * x[:, 1]])
    own_resid = rep.y - own_design @ np.linalg.lstsq(own_design, rep.y, rcond=None)[0]
    err = float(np.abs(rep.residuals - own_resid).max())
    require(err <= checks.ROUNDOFF_TOL, f"fitted residuals off by {err:.3e}")
    checks.check_assignment(x, rep.sigma, rep.cost)
    scan = checks.halton(n, 2)[rep.sigma]
    checks.check_transformed(rep.residuals, rep.transformed, scan, rep.degrees)
    checks.check_process(scan, rep.transformed, rep.eval_points, rep.eval_values)


@dataclass(frozen=True)
class Case:
    name: str
    data: str  # key of the generated file
    error_law: str


class TestP2:
    """``dfgof test`` on generated bilinear2d files, n = 500: a null file
    under both error laws and a strongly shifted file."""

    REPS = 40
    CASES = (
        Case("null-normal", "null", "normal"),
        Case("null-uniform", "null", "uniform"),
        Case("shifted-normal", "shifted", "normal"),
    )
    EXACT_DRAWS = 1000

    def __init__(self, inputs: dict[str, Path], workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.files = inputs
        self._exact: dict[tuple, np.ndarray] = {}

    def round(self, index: int) -> list[Operation]:
        ops = []
        for case in self.CASES:
            outdir = self.workdir / case.name
            argv = [
                "test", str(self.files[case.data]), "--model", "bilinear2d", "--reps", str(self.REPS),
                "--error-law", case.error_law, "--seed", str(_op_seed(self.seed, index)), "-o", str(outdir),
            ]  # fmt: skip
            ops.append(Operation(case.name, argv, self.REPS, outdir, lambda out, c=case: self.check(out, c)))
        return ops

    def exact_null(self, degrees) -> np.ndarray:
        key = tuple(degrees)
        if key not in self._exact:
            rng = np.random.default_rng([self.seed, TEST_N, 7])
            self._exact[key] = checks.exact_null_ks_abs(
                checks.halton(TEST_N, 2), degrees, LATTICE, self.EXACT_DRAWS, rng
            )
        return self._exact[key]

    def check(self, outdir: Path, case: Case) -> None:
        summary = (outdir / "summary.txt").read_text()
        observed = float(checks.summary_field(summary, r"^statistic: transformed\.ks_abs = (\S+)$").group(1))
        pvalue = float(checks.summary_field(summary, r"^pvalue: (\S+) \(").group(1))
        listed = read_statistics(outdir / "statistics.csv")[("transformed", "ks_abs")]
        require(abs(listed - observed) <= checks.EXACT_TOL * observed, "statistics.csv and summary disagree on ks_abs")

        null = checks.ecdf_values(outdir / "null_ecdf.csv")
        checks.check_ecdf_count(null, self.REPS, "null_ecdf.csv")
        checks.check_pvalue(null, observed, pvalue)

        dump = checks.read_columns(outdir / "process_transformed.csv")
        peak = float(np.abs(dump[:, -1]).max())
        require(
            abs(peak - observed) <= checks.EXACT_TOL * observed,
            f"ks_abs {observed!r} but max |process| is {peak!r}",
        )
        if case.data == "shifted":
            require(pvalue == 1.0 / (self.REPS + 1.0), f"shifted file: p-value {pvalue!r}, expected 1/(B+1)")
        if case.error_law == "normal":
            exact = self.exact_null(checks.basis_degrees(summary))
            checks.check_same_law(null, exact, "bootstrap null against the exact N(0, I - R R^T) law")

    def finish(self, dfgof) -> None:
        pass


def read_statistics(path: Path) -> dict[tuple[str, str], float]:
    out = {}
    for line in path.read_text().splitlines()[1:]:
        process, statistic, value = line.split(",")
        out[(process, statistic)] = float(value)
    return out


WORKLOADS = {"simulate-p1": SimulateP1, "simulate-p2": SimulateP2, "test-p2": TestP2}
