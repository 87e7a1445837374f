"""Monte Carlo experiment engine.

Each replication draws covariates and errors, forms the response under the
null model (plus an optional alternative shift), fits, rotates the
residuals onto the reference basis, standardizes the covariates by optimal
transport when p >= 2, and records Kolmogorov-Smirnov style statistics of
both the transformed and the untransformed residual process.

Replications run in blocks of ``BLOCK`` consecutive indices: block b holds
replications b * BLOCK up to (b + 1) * BLOCK - 1, the last block fewer.
Replication i draws X and then its errors from its own RNG stream, derived
from (seed, design id, variant tag, i); a block makes the streams of its
replications together (``seeding.rngs_for``) and stacks their draws
along a leading sample axis.  Fit, score and reference sets, reflection
chains, both processes and their statistics then run once per block over
that axis, and every sample gets the numbers it would get on its own.  The
block boundaries depend on the replication count alone, never on
the worker count: the process pool hands out chunks of whole blocks and
returns them in task order, so results are bit-identical for any number
of workers.  ``run_experiments`` runs the
blocks of several single-design configs as one task list, such as every
design of a command, or the null and alternative runs of ``power``; one
process pool of at most ``workers`` processes, and no more than the tasks
or the cores, serves the whole list and lives for that call only.
Per-sample Python work is left where the data force it: each
replication's generator, draws and centering constants, and for p >= 2 the
optimal assignment and the setup of the dominance sweep of each sample.  A
block in which a sample fails (rank-deficient fit, too few distinct
covariate values) is evaluated again one sample at a time, the failing
samples are dropped and counted; more than 1% failures in a config aborts
the run.

The per-sample pipeline has two halves.  ``fixed_geometry`` holds all that
is fixed given X and the fitted score span: the scan points (for p >= 2
the rescale and the optimal assignment), the score and reference sets, and
one process plan per set of scan points.  At p = 1 ``process.ecdf_plan``
sorts each sample's covariate once for its empirical-CDF times and their
plan; at p >= 2 ``process.process_plan`` plans the matched anchors and
the rescaled covariates.  Every residual, score and reference vector
stays in data row order; only the scan points differ between p = 1 and
p >= 2.  Residuals meet a geometry in one way: each column is
studentized, transformed by one reflection plan per sample and scanned
by the geometry's plan of its process kind, and a column gets the same
numbers whatever the other columns are.  ``residual_processes`` builds
both processes of a residual vector, or of a stack of them: a simulation
block evaluates its fitted residuals so (``pipeline_processes``).  The
``dfgof test`` bootstrap keeps X fixed and builds the geometry once.  Its
observed residual gets both processes from ``residual_processes``, so its
statistics are what a simulation records for that sample.  Its null
residuals are a stream of column blocks (``bootstrap_residuals``) that
``residual_statistics`` reduces block by block to the statistics of the
selected process, keeping no block and no process values: memory is
O(n x block + evaluation points x block), with blocks of as many columns
as keep both within BLOCK_BYTES, not O(n x reps).

Every sample of n points in dimension p >= 2 is matched to the Halton net
of (n, p), which depends on nothing else: ``fixed_geometry`` fetches it
from ``fixed_anchors``, which keeps one net, with its assignment
hierarchy, per (n, p) for every seed.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .basis import make_basis, sample_on_points
from .errors import ConfigError, NumericalError, RankDeficiencyError
from .model import MODEL_KINDS, FitResult, RegressionModel, Sample, build_model, fit, score_basis
from .process import (
    Ecdf,
    ProcessPlan,
    StepProcess,
    build_process,
    ecdf_plan,
    ks_statistics,
    plan_statistics,
    process_plan,
)
from .rotations import OrthonormalSet
from .seeding import check_seed, rngs_for
from .transform import transform_residuals
from .transport import AnchorSet, generate_anchors, rescale_unit_cube, solve_assignment


def _beta_dep(n: int, rng: np.random.Generator, swap: bool) -> np.ndarray:
    """x1 ~ U(0, 1) and x2 | x1 ~ Beta(8 (1 - x1), 8 x1), or with the two
    shape parameters swapped."""
    x1 = rng.uniform(0.0, 1.0, size=n)
    a = np.maximum(8.0 * (1.0 - x1), 1e-12)
    b = np.maximum(8.0 * x1, 1e-12)
    return np.column_stack([x1, rng.beta(b, a) if swap else rng.beta(a, b)])


# design id: (p, the (n, p) covariates drawn from a generator)
DESIGNS = {
    "uniform_0_2": (1, lambda n, rng: rng.uniform(0.0, 2.0, size=n)[:, None]),
    "normal_1_2": (1, lambda n, rng: (1.0 + math.sqrt(2.0) * rng.standard_normal(n))[:, None]),
    "beta_dep_a": (2, lambda n, rng: _beta_dep(n, rng, swap=False)),
    "beta_dep_b": (2, lambda n, rng: _beta_dep(n, rng, swap=True)),
    "beta_indep": (2, lambda n, rng: np.column_stack([rng.beta(0.35, 0.35, size=n), rng.beta(0.2, 0.2, size=n)])),
}

# psi id: (p, the mean shift at covariates (..., p))
PSI_FUNCTIONS = {
    "x_squared": (1, lambda x: x[..., 0] ** 2),
    "x2_squared": (2, lambda x: x[..., 1] ** 2),
    "x2_cubed": (2, lambda x: x[..., 1] ** 3),
    "sin_half_pi_x2": (2, lambda x: np.sin(0.5 * math.pi * x[..., 1])),
}

ERROR_LAWS = ("normal", "uniform")
STATISTICS = ("ks_abs", "ks_plus")
PROCESS_KINDS = ("transformed", "raw")
MAX_FAILURE_FRACTION = 0.01
# Replications evaluated together as one stack; blocks start at multiples of
# BLOCK whatever the worker count.
BLOCK = 64
# Bytes of the float64 arrays of one block of null residual columns of
# ``dfgof test``: n x columns and evaluation points x columns stay within
# it.  A p = 2 process of a few hundred points, with its 64 x 64 lattice,
# takes 456 columns per block, and a p = 1 process of 10^5 points 20.
BLOCK_BYTES = 1 << 24
# test levels of the rejection rates of a power run
LEVELS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class AlternativeSpec:
    """Mean shift amplitude * psi added to the null mean."""

    psi: str
    amplitude: float

    def __post_init__(self):
        if self.psi not in PSI_FUNCTIONS:
            raise ConfigError(f"unknown psi id {self.psi!r}; known: {sorted(PSI_FUNCTIONS)}")
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite, got {self.amplitude!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment.

    ``design`` may list several covariate designs; the simulation entry
    points take single-design configs (the CLI fans a multi-design config
    out into one config per design, and runs them all as one task list).
    All fields are plain values so configs can be shipped to worker
    processes.
    """

    design: tuple[str, ...]
    model: str
    n: int
    reps: int
    seed: int
    statistic: str = "ks_abs"
    process: str = "transformed"
    alternative: AlternativeSpec | None = None
    error_law: str = "normal"

    def __post_init__(self):
        design = (self.design,) if isinstance(self.design, str) else tuple(self.design)
        if not design:
            raise ConfigError("at least one design id is required")
        object.__setattr__(self, "design", design)
        for d in design:
            if d not in DESIGNS:
                raise ConfigError(f"unknown design id {d!r}; known: {sorted(DESIGNS)}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}; known: {sorted(MODEL_KINDS)}")
        p = MODEL_KINDS[self.model][0]
        if any(DESIGNS[dd][0] != p for dd in design):
            raise ConfigError(f"model {self.model!r} needs {p}-dimensional designs, got {design}")
        if self.n < 10:
            raise ConfigError(f"n must be >= 10, got {self.n}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        check_seed(self.seed)
        if self.statistic not in STATISTICS:
            raise ConfigError(f"unknown statistic {self.statistic!r}; known: {STATISTICS}")
        if self.process not in PROCESS_KINDS:
            raise ConfigError(f"unknown process kind {self.process!r}; known: {PROCESS_KINDS}")
        if self.error_law not in ERROR_LAWS:
            raise ConfigError(f"unknown error law {self.error_law!r}; known: {ERROR_LAWS}")
        if self.alternative is not None:
            psi_p = PSI_FUNCTIONS[self.alternative.psi][0]
            if psi_p != p:
                raise ConfigError(f"psi {self.alternative.psi!r} needs p={psi_p}, model has p={p}")

    @property
    def p(self) -> int:
        return MODEL_KINDS[self.model][0]

    @property
    def d(self) -> int:
        return MODEL_KINDS[self.model][1]

    def single(self, design_id: str) -> "ExperimentConfig":
        return replace(self, design=(design_id,))


def covariate_design(design_id: str, n: int, seed=None) -> np.ndarray:
    """Draw the n x p covariate matrix of a built-in design, deterministically per seed."""
    if design_id not in DESIGNS:
        raise ConfigError(f"unknown design id {design_id!r}; known: {sorted(DESIGNS)}")
    return DESIGNS[design_id][1](n, np.random.default_rng(seed))


def _draw_errors(law: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if law == "normal":
        return rng.standard_normal(n)
    # uniform(-sqrt(3), sqrt(3)): mean 0, variance 1
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=n)


@lru_cache(maxsize=8)
def fixed_anchors(n: int, p: int) -> AnchorSet:
    """The Halton net every sample of n points in dimension p is matched to.
    It depends on (n, p) alone: one object, with its hierarchy, serves
    every seed."""
    return generate_anchors(n, p, "halton")


def _variant_tag(config: ExperimentConfig) -> str:
    # Null and alternative runs use distinct streams, so a zero-amplitude
    # power run is independent of its paired null (honest level recovery).
    # Different alternatives share streams: common random numbers make the
    # resulting power curves directly comparable.
    return "null" if config.alternative is None else "alt"


@dataclass(frozen=True, eq=False)
class Geometry:
    """What the residual evaluation of one sample needs that is fixed given
    X and the fitted score span, indexed by data row; for a stacked sample
    every array has a leading sample axis.

    ``points`` scan the transformed process (empirical-CDF times, or the
    matched anchors), (n, p).  ``plans`` holds the process plan of each
    process kind: the raw process is scanned by the same points at p = 1,
    and shares the plan, and by the rescaled covariates at p >= 2.
    """

    points: np.ndarray
    score_set: OrthonormalSet
    reference_set: OrthonormalSet
    plans: dict[str, ProcessPlan]


def fixed_geometry(model: RegressionModel, sample: Sample, fitres: FitResult) -> Geometry:
    """Scan points, score and reference sets and process plans of one
    fitted sample, or of each sample of a stack.

    For p = 1 each row is scanned at the empirical-CDF time of its
    covariate (i/n without ties; tied covariates share the time of their
    last copy, so the process and the reference set see no tie order).
    ``process.ecdf_plan`` sorts each sample's covariate once and gives
    the times and the one plan both process kinds share; a covariate with
    no more than d distinct values raises RankDeficiencyError there,
    before the score set is built.  For p >= 2 each row is scanned at the
    point of the Halton net ``fixed_anchors(n, p)`` that the optimal
    assignment matches it to, one assignment per sample; the raw process
    gets its own plan on the rescaled covariates.  For linear
    model kinds nothing here depends on the response, so one geometry
    serves every response drawn on the same X.
    """
    if sample.p == 1:
        times, plan = ecdf_plan(sample.X[..., 0], model.d)
        points = times[..., None]
        plans = dict.fromkeys(PROCESS_KINDS, plan)
    else:
        anchor_set = fixed_anchors(sample.n, sample.p)
        xs = sample.X if sample.stacked else sample.X[None]
        raw_points = np.empty(sample.X.shape)
        points = np.empty(sample.X.shape)
        for x, raw, scan in zip(xs, raw_points.reshape(xs.shape), points.reshape(xs.shape)):
            raw[:], _, _ = rescale_unit_cube(x)
            scan[:] = anchor_set.points[solve_assignment(raw, anchor_set).sigma]
        plans = {"transformed": process_plan(points), "raw": process_plan(raw_points)}
    score_set = score_basis(model, fitres, sample)
    reference_set = sample_on_points(make_basis(sample.p, model.d), points)
    return Geometry(points, score_set, reference_set, plans)


def process_statistics(procs: dict[str, StepProcess]) -> dict[str, float | np.ndarray]:
    """Every statistic of every process, keyed "{process}.{statistic}"."""
    return {f"{kind}.{name}": value for kind, proc in procs.items() for name, value in ks_statistics(proc).items()}


def _unit_columns(geometry: Geometry, residuals: np.ndarray, kinds) -> dict[str, np.ndarray]:
    """The columns of an (n, m) residual matrix, or of a (B, n, m) stack on
    a stacked geometry, studentized: the raw columns, and the transformed
    ones too when ``kinds`` holds the transformed kind; keyed by kind.

    Each column e is divided by its sigma_hat = |e| / sqrt(n - d), with d
    the size of the score set, so the statistics are on the unit-variance
    scale whatever the error variance is, and are unchanged when e is
    scaled by any c > 0.  For a linear kind under a normal null, e / |e| is
    uniform on the sphere of the residual space whatever sigma is, so an
    observed column and bootstrap columns drawn at unit variance have one
    law.  A column of zero norm raises NumericalError.  One reflection plan
    per sample maps every column, and a column gets the same numbers
    whatever the other columns are.
    """
    # each norm is summed over a contiguous copy of its column: the order
    # of a strided sum depends on the layout, and so on the other columns
    norms = np.linalg.norm(np.swapaxes(residuals, -1, -2).copy(), axis=-1)[..., None, :]
    if not np.all(norms > 0.0):
        raise NumericalError("a residual column has zero norm and cannot be studentized")
    unit = residuals / (norms / math.sqrt(residuals.shape[-2] - geometry.score_set.count))
    columns = {"raw": unit}
    if "transformed" in kinds:
        columns["transformed"] = transform_residuals(unit, geometry.score_set, geometry.reference_set).values
    return columns


def residual_processes(geometry: Geometry, residuals: np.ndarray) -> dict[str, StepProcess]:
    """Both processes of a residual vector on one geometry, or of each
    sample of a (B, n) stack on a stacked geometry: the residuals are
    studentized and, for the transformed process, transformed
    (``_unit_columns``), and each process is built from the geometry's
    plan of its kind, so the scan points are sorted, swept and binned once
    per geometry, not once per build."""
    columns = _unit_columns(geometry, residuals[..., None], PROCESS_KINDS)
    return {kind: build_process(columns[kind][..., 0], geometry.plans[kind]) for kind in PROCESS_KINDS}


def residual_statistics(geometry: Geometry, blocks: Iterable[np.ndarray], process: str) -> dict[str, np.ndarray]:
    """Statistics of ``process`` for every column of a stream of (n, m)
    residual blocks on one geometry, keyed "{process}.{statistic}", one
    entry per column in stream order.

    Each block is studentized and transformed as ``residual_processes``
    does it, and reduced to its statistics by ``plan_statistics`` on the
    geometry's plan: no process values are kept, and each block is dropped
    once reduced, so memory follows the block size, not the column count.  A
    column gets the same numbers, bit for bit, whatever the other columns
    and the blocks are, and the same as ``ks_statistics`` of its process
    from ``residual_processes``.
    """
    if process not in PROCESS_KINDS:
        raise ConfigError(f"unknown process kind {process!r}; known: {PROCESS_KINDS}")
    plan = geometry.plans[process]
    parts = [plan_statistics(_unit_columns(geometry, block, (process,))[process], plan) for block in blocks]
    return {f"{process}.{name}": np.concatenate([part[name] for part in parts], axis=-1) for name in STATISTICS}


def _block_columns(geometry: Geometry) -> int:
    """Null residual columns per block of ``bootstrap_residuals``: the most
    that keep n x columns and evaluation points x columns float64 values
    within BLOCK_BYTES, and at least one."""
    rows = max(plan.eval_points.shape[-2] for plan in geometry.plans.values())
    return max(1, BLOCK_BYTES // (8 * max(rows, geometry.points.shape[-2])))


def bootstrap_residuals(
    model: RegressionModel, geometry: Geometry, fitres: FitResult, *, seed: int, reps: int, error_law: str
) -> Iterator[np.ndarray]:
    """The null residual columns of a parametric bootstrap at the fitted
    parameter on the observed X, as a stream of (n, k) blocks with
    k = ``_block_columns(geometry)`` (the last block fewer): reps columns
    in all, made one block at a time as the stream is read.

    Column b holds eps_b - S^T (S eps_b), with S the vectors of
    ``geometry.score_set`` and eps_b drawn from the stream
    (seed, "bootstrap", b): the least-squares residuals of
    null_mean + eps_b, as the null mean lies in the score span;
    ``residual_statistics`` studentizes every column, so the unit variance
    of the draws does not matter.  Each draw is projected on its own, by
    two matrix-vector products that see no other draw, so a column gets
    the same bits whatever ``reps`` and the blocks are (one BLAS product
    over all the columns rounds by their count).  The k-th draw goes to
    the row at scan position k (scan points in lexicographic order), so
    the columns do not depend on the row order of the data: the scan
    points of p >= 2 are distinct anchors, and the reflections treat the
    rows of a p = 1 tie group alike.  Linear model kinds only: their score
    span, and with it the geometry, does not change between replicates.
    """
    if not model.linear:
        raise ConfigError(f"the bootstrap needs a linear model kind, got {model.kind!r}")
    if error_law not in ERROR_LAWS:
        raise ConfigError(f"unknown error law {error_law!r}; known: {ERROR_LAWS}")
    n = fitres.residuals.shape[0]
    scan = np.lexsort(geometry.points.reshape(n, -1).T[::-1])
    scores = geometry.score_set.vectors
    width = _block_columns(geometry)

    def blocks():
        for start in range(0, reps, width):
            rngs = rngs_for(seed, "bootstrap", indices=range(start, min(start + width, reps)))
            rows = np.empty((len(rngs), n))
            for row, rng in zip(rows, rngs):
                row[scan] = _draw_errors(error_law, n, rng)
                row -= (scores @ row) @ scores
            yield rows.T

    return blocks()


def pipeline_processes(model: RegressionModel, sample: Sample, fitres: FitResult):
    """Transformed and raw residual processes for one fitted sample, or
    stacked processes for a fitted stack: ``residual_processes`` of the
    fitted residuals on the sample's ``fixed_geometry``."""
    return residual_processes(fixed_geometry(model, sample, fitres), fitres.residuals)


def pipeline_records(
    model: RegressionModel, sample: Sample, fitres: FitResult
) -> dict[str, float] | dict[str, np.ndarray]:
    """Statistics of the transformed and raw residual processes for one
    fitted sample (floats), or for each sample of a fitted stack (arrays
    with one entry per sample)."""
    return process_statistics(pipeline_processes(model, sample, fitres))


def _draws(config: ExperimentConfig, design_id: str, indices: range) -> list[tuple[np.ndarray, np.ndarray]]:
    """Covariates and then errors of each replication of ``indices``, each
    from its own generator."""
    rngs = rngs_for(config.seed, "design", design_id, _variant_tag(config), "rep", indices=indices)
    draw = DESIGNS[design_id][1]
    return [(draw(config.n, rng), _draw_errors(config.error_law, config.n, rng)) for rng in rngs]


def _stack_records(config: ExperimentConfig, draws: list[tuple[np.ndarray, np.ndarray]]) -> dict[str, np.ndarray]:
    """Records of a stack of replications, one entry per draw."""
    x = np.stack([xi for xi, _ in draws])
    errors = np.stack([ei for _, ei in draws])
    model = build_model(config.model, Sample(x, np.zeros(errors.shape)))
    # every kind here is linear, so the fitted residuals (I - P)(X theta + e)
    # do not depend on theta; theta = (1, ..., 1) keeps the bits of every
    # fixed-seed output
    signal = np.asarray(model.mean(np.ones(config.d), x), dtype=float)
    if config.alternative is not None:
        signal = signal + config.alternative.amplitude * PSI_FUNCTIONS[config.alternative.psi][1](x)
    sample = Sample(x, signal + errors)
    fitres = fit(model, sample)
    return pipeline_records(model, sample, fitres)


def _block(config: ExperimentConfig, design_id: str, start: int) -> tuple[dict[str, np.ndarray], int]:
    """Records of the block of replications from ``start`` (a multiple of
    BLOCK) and the number of its replications dropped.

    The block is evaluated as one stack.  If some sample fails, each sample
    is evaluated again as a stack of one, which gives it the same numbers,
    and the failing ones are dropped.
    """
    draws = _draws(config, design_id, range(start, min(start + BLOCK, config.reps)))
    try:
        return _stack_records(config, draws), 0
    except RankDeficiencyError:
        pass
    kept = []
    for draw in draws:
        try:
            kept.append(_stack_records(config, [draw]))
        except RankDeficiencyError:
            continue
    columns = {key: np.concatenate([record[key] for record in kept]) for key in kept[0]} if kept else {}
    return columns, len(draws) - len(kept)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Per-replication statistic columns for one design.  ``elapsed`` is
    the wall time the run spent on this design, as ``run_experiments``
    defines it."""

    config: ExperimentConfig
    columns: dict[str, np.ndarray]
    failures: int
    elapsed: float

    def ecdf(self, process: str | None = None, statistic: str | None = None) -> Ecdf:
        process = process or self.config.process
        statistic = statistic or self.config.statistic
        return Ecdf(self.columns[f"{process}.{statistic}"])


def _task(task: tuple[ExperimentConfig, str, int]) -> tuple[dict[str, np.ndarray], int]:
    # looked up at call time, so a forked worker runs the _block it inherits
    return _block(*task)


def _experiment_result(config: ExperimentConfig, blocks: list, elapsed: float) -> ExperimentResult:
    """Join the blocks of one config in replication order; more than
    MAX_FAILURE_FRACTION dropped replications raise NumericalError."""
    failures = sum(dropped for _, dropped in blocks)
    kept = [columns for columns, _ in blocks if columns]
    if failures > MAX_FAILURE_FRACTION * config.reps:
        raise NumericalError(
            f"{failures} of {config.reps} replications failed to fit "
            f"(> {MAX_FAILURE_FRACTION:.0%} allowed)"
        )
    if not kept:
        raise NumericalError("all replications failed to fit")
    columns = {key: np.concatenate([part[key] for part in kept]) for key in kept[0]}
    return ExperimentResult(config=config, columns=columns, failures=failures, elapsed=elapsed)


def run_experiments(configs: Sequence[ExperimentConfig], workers: int = 1) -> list[ExperimentResult]:
    """Run all replications of several single-design configs as one task
    list, one result per config in the order given.

    The tasks are the blocks of each config in turn.  The pool size is
    ``workers``, which must be at least 1, capped at the number of tasks
    and at the machine's core count, as a pool starts all its processes at
    once.  When that leaves more than one, one process pool runs the whole
    list and is shut down before this returns, also when it raises;
    otherwise the blocks run in a plain loop.  The pool is sent the tasks in chunks of
    ceil(tasks / (4 * pool size)) consecutive blocks, one round trip per
    chunk.  Results are collected in task order, and the blocks do not
    depend on the worker count, the chunks or the other configs, so every
    result is bit-identical for any worker count.  A result's ``elapsed``
    is the wall time from the last block of the config before it (the
    call's start, for the first) to its own last block, which arrives
    with the rest of its chunk, so the values add up to the wall time of
    the run.  The configs are checked in order as their blocks arrive: the
    first with more than MAX_FAILURE_FRACTION dropped replications raises
    NumericalError, and the chunks not yet started are cancelled.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    for config in configs:
        if len(config.design) != 1:
            raise ConfigError(f"run_experiments needs exactly one design per config, got {config.design}")
    tasks = [(config, config.design[0], start) for config in configs for start in range(0, config.reps, BLOCK)]
    last = time.perf_counter()
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        if pool is None:
            blocks = map(_task, tasks)
        else:
            # about 4 chunks per process: few round trips for cheap p = 1
            # blocks, while a process that finishes early still takes over
            # the chunks left; the wall time of 2-worker p = 2 commands
            # did not move against one block per round trip (BENCH_25.json)
            blocks = pool.map(_task, tasks, chunksize=math.ceil(len(tasks) / (4 * workers)))
        results = []
        for config in configs:
            parts = [next(blocks) for _ in range(0, config.reps, BLOCK)]
            now = time.perf_counter()
            results.append(_experiment_result(config, parts, now - last))
            last = now
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all replications of a single-design config: ``run_experiments``
    of that one config."""
    return run_experiments([config], workers=workers)[0]


@dataclass(frozen=True, eq=False)
class PowerResult:
    ecdf: Ecdf
    rejection_rate_at: dict[float, float]
    null_ecdf: Ecdf
    failures: int


def paired_runs(config: ExperimentConfig) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The null run paired with an alternative config (same seed,
    alternative removed), then the alternative run itself."""
    if config.alternative is None:
        raise ConfigError("a power run requires a config with an alternative")
    return replace(config, alternative=None), config


def power_result(
    null: ExperimentResult, alternative: ExperimentResult, levels: tuple[float, ...] = LEVELS
) -> PowerResult:
    """Rejection rates of the alternative's statistics at each level, the
    null's 1 - level quantile being the critical value."""
    null_ecdf = null.ecdf()
    stats = alternative.ecdf().sorted_values
    rates = {float(a): float(np.mean(stats > null_ecdf.quantile(1.0 - a))) for a in levels}
    return PowerResult(ecdf=Ecdf(stats), rejection_rate_at=rates, null_ecdf=null_ecdf, failures=alternative.failures)
