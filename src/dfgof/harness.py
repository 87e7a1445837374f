"""Monte Carlo experiment engine.

Each replication draws covariates and errors, forms the response under the
null model (plus an optional alternative shift), fits, rotates the
residuals onto the reference basis, standardizes the covariates by optimal
transport when p >= 2, and records Kolmogorov-Smirnov style statistics of
both the transformed and the untransformed residual process.

Replications run in blocks of ``BLOCK`` consecutive indices: block b holds
replications b * BLOCK up to (b + 1) * BLOCK - 1, the last block fewer.
Replication i draws X and then its errors from its own RNG stream, derived
from (seed, design id, variant tag, i), and each block stacks its draws
along a leading sample axis.  Fit, score and reference sets, reflection
chains, both processes, their statistics and the probes then run once per
block over that axis, and every sample gets the numbers it would get on its
own.  The block boundaries depend on the replication count alone, never on
the worker count: the process pool hands out whole blocks, so results are
bit-identical for any number of workers.  Per-sample Python work is left
where the data force it: each replication's stream, draws and centering
constants, and for p >= 2 the optimal assignment and the dominance sweep of
each sample.  A block in which a sample fails (rank-deficient fit, too few
distinct covariate values) is evaluated again one sample at a time, the
failing samples are dropped and counted; more than 1% failures aborts the
run.

The per-sample pipeline has two halves.  ``fixed_geometry`` holds all that
is fixed given X and the fitted score span: the scan points (for p >= 2
the rescale and the optimal assignment) and the score and reference sets.
Every residual, score and reference vector stays in data row order; only
the scan points differ between p = 1 and p >= 2.  The second half
evaluates residuals on that geometry, building the reflection plan between
the two sets once and applying it to one residual vector
(``pipeline_processes``) or to every column of a matrix
(``residual_statistics``).  Both take one sample or a stack.  A simulation
block runs both halves once on its stack; the ``dfgof test`` bootstrap
keeps X fixed, builds the geometry once and evaluates the observed residual
and all bootstrap residuals together as the columns of one matrix
(``bootstrap_residuals``).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from .basis import make_basis, sample_on_points
from .errors import ConfigError, NumericalError, RankDeficiencyError
from .model import FitResult, RegressionModel, Sample, build_model, fit, score_basis
from .process import Ecdf, StepProcess, build_process, ks_statistics, tie_last
from .rotations import OrthonormalSet
from .seeding import rng_for, seed_sequence
from .transform import transform_residuals
from .transport import AnchorSet, generate_anchors, rescale_unit_cube, solve_assignment, transported_points

DESIGNS = {
    "uniform_0_2": 1,
    "normal_1_2": 1,
    "beta_dep_a": 2,
    "beta_dep_b": 2,
    "beta_indep": 2,
}

MODEL_KINDS = {
    "simple_linear": (1, 1),  # (p, d)
    "centered_linear": (1, 2),
    "bilinear2d": (2, 4),
}

PSI_FUNCTIONS = {
    "x_squared": 1,  # p
    "x2_squared": 2,
    "x2_cubed": 2,
    "sin_half_pi_x2": 2,
}

ERROR_LAWS = ("normal", "uniform")
STATISTICS = ("ks_abs", "ks_plus")
PROCESS_KINDS = ("transformed", "raw")
ANCHOR_MODES = ("halton", "random")
MAX_FAILURE_FRACTION = 0.01
# Replications evaluated together as one stack; blocks start at multiples of
# BLOCK whatever the worker count.
BLOCK = 64
# Residual columns whose processes are built together: bounds the
# (evaluation points x columns) arrays whatever the number of columns.
EVAL_COLUMNS = 8


@dataclass(frozen=True)
class AlternativeSpec:
    """Mean shift psi added to the null mean, optionally scaled by 1/sqrt(n)."""

    psi: str
    amplitude: float
    local_scaling: bool = False

    def __post_init__(self):
        if self.psi not in PSI_FUNCTIONS:
            raise ConfigError(f"unknown psi id {self.psi!r}; known: {sorted(PSI_FUNCTIONS)}")
        if not math.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite, got {self.amplitude!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment.

    ``design`` may list several covariate designs; the simulation entry
    points run one design at a time (the CLI fans a multi-design config out
    into one run per design).  All fields are plain values so configs can
    be shipped to worker processes.
    """

    design: tuple[str, ...]
    model: str
    n: int
    reps: int
    seed: int
    statistic: str = "ks_abs"
    process: str = "transformed"
    alternative: AlternativeSpec | None = None
    anchors: str = "halton"
    grid: int | None = None
    error_law: str = "normal"
    theta_true: tuple[float, ...] | None = None
    probe_times: tuple[float, ...] = ()

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
        p, d = MODEL_KINDS[self.model]
        if any(DESIGNS[dd] != p for dd in design):
            raise ConfigError(f"model {self.model!r} needs {p}-dimensional designs, got {design}")
        if self.n < 10:
            raise ConfigError(f"n must be >= 10, got {self.n}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.statistic not in STATISTICS:
            raise ConfigError(f"unknown statistic {self.statistic!r}; known: {STATISTICS}")
        if self.process not in PROCESS_KINDS:
            raise ConfigError(f"unknown process kind {self.process!r}; known: {PROCESS_KINDS}")
        if self.anchors not in ANCHOR_MODES:
            raise ConfigError(f"unknown anchor mode {self.anchors!r}; known: {ANCHOR_MODES}")
        if self.error_law not in ERROR_LAWS:
            raise ConfigError(f"unknown error law {self.error_law!r}; known: {ERROR_LAWS}")
        if self.grid is not None and self.grid < 2:
            raise ConfigError(f"grid must be >= 2, got {self.grid}")
        if self.theta_true is not None:
            theta = tuple(float(v) for v in self.theta_true)
            if len(theta) != d:
                raise ConfigError(f"theta_true must have length d={d}, got {len(theta)}")
            if not all(math.isfinite(v) for v in theta):
                raise ConfigError("theta_true contains non-finite entries")
            object.__setattr__(self, "theta_true", theta)
        if self.alternative is not None:
            if PSI_FUNCTIONS[self.alternative.psi] != p:
                raise ConfigError(
                    f"psi {self.alternative.psi!r} needs p={PSI_FUNCTIONS[self.alternative.psi]}, model has p={p}"
                )
        probe = tuple(float(t) for t in self.probe_times)
        if probe and (p != 1 or not all(0.0 <= t <= 1.0 for t in probe)):
            raise ConfigError("probe_times require a 1-dimensional design and values in [0, 1]")
        object.__setattr__(self, "probe_times", probe)

    @property
    def p(self) -> int:
        return MODEL_KINDS[self.model][0]

    @property
    def d(self) -> int:
        return MODEL_KINDS[self.model][1]

    def single(self, design_id: str) -> "ExperimentConfig":
        return replace(self, design=(design_id,))


def _sample_design(design_id: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if design_id == "uniform_0_2":
        return rng.uniform(0.0, 2.0, size=n)[:, None]
    if design_id == "normal_1_2":
        return (1.0 + math.sqrt(2.0) * rng.standard_normal(n))[:, None]
    if design_id == "beta_dep_a":
        x1 = rng.uniform(0.0, 1.0, size=n)
        a = np.maximum(8.0 * (1.0 - x1), 1e-12)
        b = np.maximum(8.0 * x1, 1e-12)
        return np.column_stack([x1, rng.beta(a, b)])
    if design_id == "beta_dep_b":
        x1 = rng.uniform(0.0, 1.0, size=n)
        a = np.maximum(8.0 * x1, 1e-12)
        b = np.maximum(8.0 * (1.0 - x1), 1e-12)
        return np.column_stack([x1, rng.beta(a, b)])
    if design_id == "beta_indep":
        return np.column_stack([rng.beta(0.35, 0.35, size=n), rng.beta(0.2, 0.2, size=n)])
    raise ConfigError(f"unknown design id {design_id!r}; known: {sorted(DESIGNS)}")


def covariate_design(design_id: str, n: int, p: int | None = None, seed=None) -> np.ndarray:
    """Draw the n x p covariate matrix of a built-in design, deterministically per seed."""
    if design_id not in DESIGNS:
        raise ConfigError(f"unknown design id {design_id!r}; known: {sorted(DESIGNS)}")
    if p is not None and p != DESIGNS[design_id]:
        raise ConfigError(f"design {design_id!r} has dimension {DESIGNS[design_id]}, not {p}")
    return _sample_design(design_id, n, np.random.default_rng(seed))


def _draw_errors(law: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if law == "normal":
        return rng.standard_normal(n)
    # uniform(-sqrt(3), sqrt(3)): mean 0, variance 1
    return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=n)


def _psi_values(psi: str, x: np.ndarray) -> np.ndarray:
    if psi == "x_squared":
        return x[..., 0] ** 2
    if psi == "x2_squared":
        return x[..., 1] ** 2
    if psi == "x2_cubed":
        return x[..., 1] ** 3
    if psi == "sin_half_pi_x2":
        return np.sin(0.5 * math.pi * x[..., 1])
    raise ConfigError(f"unknown psi id {psi!r}")


@lru_cache(maxsize=8)
def fixed_anchors(n: int, p: int, mode: str, seed: int | None) -> AnchorSet:
    """The anchor set shared by every sample of n points in dimension p: the
    Halton net, or n uniform points drawn from the stream
    seed_sequence(seed, "anchors") of the master seed."""
    if mode == "halton":
        return generate_anchors(n, p, "halton")
    if seed is None:
        raise ConfigError("random anchors require a seed (config key 'seed' or flag --seed)")
    return generate_anchors(n, p, "random", seed=seed_sequence(seed, "anchors"))


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
    every field but ``grid`` has a leading sample axis.

    ``points`` scan the transformed process (empirical-CDF times, or the
    matched anchors) and ``raw_points`` the raw one (the same times, or
    the rescaled covariates), both (n, p).
    """

    points: np.ndarray
    raw_points: np.ndarray
    score_set: OrthonormalSet
    reference_set: OrthonormalSet
    grid: int | None


def _ecdf_times(x: np.ndarray, d: int) -> np.ndarray:
    """Empirical-CDF time of every entry of each row of a (B, n) stack: the
    share of the row's entries <= it.  Raises RankDeficiencyError when a
    row takes d or fewer distinct values: the score span then holds every
    tie-group indicator and the process vanishes at all its times."""
    n = x.shape[-1]
    order = np.argsort(x, axis=-1, kind="stable")
    ranked = np.take_along_axis(x, order, axis=-1)
    distinct = 1 + np.count_nonzero(ranked[:, 1:] != ranked[:, :-1], axis=-1)
    if np.any(distinct <= d):
        raise RankDeficiencyError(
            f"the covariate takes {int(distinct.min())} distinct values, not more than the "
            f"d = {d} fitted parameters: the residual process would vanish at every scan time"
        )
    times = np.empty(x.shape)
    np.put_along_axis(times, order, (tie_last(ranked) + 1) / n, axis=-1)
    return times


def fixed_geometry(
    model: RegressionModel,
    sample: Sample,
    fitres: FitResult,
    *,
    anchor_set: AnchorSet | None = None,
    grid: int | None = None,
) -> Geometry:
    """Scan points and score and reference sets of one fitted sample, or of
    each sample of a stack.

    For p = 1 each row is scanned at the empirical-CDF time of its
    covariate (i/n without ties; tied covariates share the time of their
    last copy, so the process and the reference set see no tie order);
    a covariate with no more than d distinct values raises
    RankDeficiencyError.  For p >= 2 an anchor set of matching size is
    required and each row is scanned at the anchor the optimal assignment
    matches it to, one assignment per sample.  For linear model kinds
    nothing here depends on the response, so one geometry serves every
    response drawn on the same X.
    """
    xs = sample.X if sample.stacked else sample.X[None]
    if sample.p == 1:
        points = raw_points = _ecdf_times(xs[..., 0], model.d)[..., None]
    else:
        if anchor_set is None:
            raise ValueError("p >= 2 requires an anchor set")
        raw_points = np.empty(xs.shape)
        points = np.empty(xs.shape)
        for x, raw, scan in zip(xs, raw_points, points):
            raw[:], _, _ = rescale_unit_cube(x)
            scan[:] = transported_points(solve_assignment(raw, anchor_set), anchor_set)
    if not sample.stacked:
        points, raw_points = points[0], raw_points[0]
    score_set = score_basis(model, fitres, sample)
    reference_set = sample_on_points(make_basis(sample.p, model.d), points)
    return Geometry(points, raw_points, score_set, reference_set, grid)


def process_statistics(procs: dict[str, StepProcess]) -> dict[str, float | np.ndarray]:
    """Every statistic of every process, keyed "{process}.{statistic}"."""
    return {f"{kind}.{name}": value for kind, proc in procs.items() for name, value in ks_statistics(proc).items()}


def residual_statistics(
    geometry: Geometry, residuals: np.ndarray, process: str
) -> tuple[dict[str, np.ndarray], dict[str, StepProcess]]:
    """Statistics of ``process`` for every column of an (n, m) residual
    matrix on one geometry, keyed "{process}.{statistic}", and both
    processes of column 0.

    One rotation maps the whole matrix; the processes of ``process`` are
    then built EVAL_COLUMNS columns at a time, so that memory does not grow
    with the number of lattice points times m.  The other process is built
    for column 0 alone.
    """
    if process not in PROCESS_KINDS:
        raise ConfigError(f"unknown process kind {process!r}; known: {PROCESS_KINDS}")
    columns = {
        "transformed": transform_residuals(residuals, geometry.score_set, geometry.reference_set).values,
        "raw": residuals,
    }
    points = {"transformed": geometry.points, "raw": geometry.raw_points}
    first = {
        kind: build_process(columns[kind][:, :1], points[kind], grid=geometry.grid).column(0)
        for kind in PROCESS_KINDS
        if kind != process
    }
    stats: dict[str, list[np.ndarray]] = {}
    for start in range(0, residuals.shape[1], EVAL_COLUMNS):
        proc = build_process(columns[process][:, start : start + EVAL_COLUMNS], points[process], grid=geometry.grid)
        if start == 0:
            first[process] = proc.column(0)
        for name, values in ks_statistics(proc).items():
            stats.setdefault(f"{process}.{name}", []).append(values)
        del proc  # keep one block's process alive, not two
    return {key: np.concatenate(parts) for key, parts in stats.items()}, first


def bootstrap_residuals(
    model: RegressionModel, geometry: Geometry, fitres: FitResult, *, seed: int, reps: int, error_law: str
) -> np.ndarray:
    """(n, reps + 1) residual matrix of a parametric bootstrap at the fitted
    parameter on the observed X.

    Column 0 holds the observed residuals.  Column b holds
    eps_b - S^T (S eps_b), with S the vectors of ``geometry.score_set`` and
    eps_b drawn from the stream rng_for(seed, "bootstrap", b - 1): the
    least-squares residuals of null_mean + eps_b, as the null mean lies in
    the score span.  The k-th draw goes to the row at scan position k
    (scan points in lexicographic order), so the columns do not depend on
    the row order of the data: the scan points of p >= 2 are distinct
    anchors, and the reflections treat the rows of a p = 1 tie group
    alike.  Linear model kinds only: their score span, and with it the
    geometry, does not change between replicates.
    """
    if not model.linear:
        raise ConfigError(f"the bootstrap needs a linear model kind, got {model.kind!r}")
    if error_law not in ERROR_LAWS:
        raise ConfigError(f"unknown error law {error_law!r}; known: {ERROR_LAWS}")
    n = fitres.residuals.shape[0]
    out = np.empty((n, reps + 1))
    out[:, 0] = fitres.residuals
    scan = np.lexsort(geometry.points.reshape(n, -1).T[::-1])
    for b in range(reps):
        out[scan, b + 1] = _draw_errors(error_law, n, rng_for(seed, "bootstrap", b))
    scores = geometry.score_set.vectors
    boot = out[:, 1:]
    boot -= scores.T @ (scores @ boot)
    return out


def pipeline_processes(
    model: RegressionModel,
    sample: Sample,
    fitres: FitResult,
    *,
    anchor_set: AnchorSet | None = None,
    grid: int | None = None,
):
    """Transformed and raw residual processes for one fitted sample, or
    stacked processes for a fitted stack.

    For p = 1 the scan runs over empirical-CDF times; for p >= 2 an anchor
    set of matching size is required and the scan runs over the matched
    anchors (transformed) or the rescaled covariates (raw).
    """
    geometry = fixed_geometry(model, sample, fitres, anchor_set=anchor_set, grid=grid)
    transformed = transform_residuals(fitres.residuals, geometry.score_set, geometry.reference_set).values
    if sample.p == 1:
        # both processes scan the same times: one sort serves the two columns
        both = build_process(np.stack([transformed, fitres.residuals], axis=-1), geometry.points)
        return {"transformed": both.column(0), "raw": both.column(1)}
    return {
        "transformed": build_process(transformed, geometry.points, grid=grid),
        "raw": build_process(fitres.residuals, geometry.raw_points, grid=grid),
    }


def _probe(proc: StepProcess, t: float) -> float | np.ndarray:
    """p = 1 process value at time t: the value at the last evaluation
    point <= t (the first point if none is)."""
    times = proc.eval_points[..., 0]
    last = np.maximum(np.count_nonzero(times <= t, axis=-1) - 1, 0)
    if not proc.stacked:
        return float(proc.eval_values[last])
    return np.take_along_axis(proc.eval_values, last[:, None], axis=1)[:, 0]


def pipeline_records(
    model: RegressionModel,
    sample: Sample,
    fitres: FitResult,
    *,
    anchor_set: AnchorSet | None = None,
    grid: int | None = None,
    probe_times: tuple[float, ...] = (),
) -> dict[str, float] | dict[str, np.ndarray]:
    """Statistics of the transformed and raw residual processes for one
    fitted sample (floats), or for each sample of a fitted stack (arrays
    with one entry per sample)."""
    procs = pipeline_processes(model, sample, fitres, anchor_set=anchor_set, grid=grid)
    record = process_statistics(procs)
    for i, t in enumerate(probe_times):
        record[f"probe.{i}"] = _probe(procs["transformed"], t)
    return record


def _draws(config: ExperimentConfig, design_id: str, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and then errors of replication ``index``, from its own
    generator."""
    rng = rng_for(config.seed, "design", design_id, _variant_tag(config), "rep", index)
    x = _sample_design(design_id, config.n, rng)
    return x, _draw_errors(config.error_law, config.n, rng)


def _stack_records(config: ExperimentConfig, draws: list[tuple[np.ndarray, np.ndarray]]) -> dict[str, np.ndarray]:
    """Records of a stack of replications, one entry per draw."""
    x = np.stack([xi for xi, _ in draws])
    errors = np.stack([ei for _, ei in draws])
    model = build_model(config.model, Sample(x, np.zeros(errors.shape)))
    theta = np.asarray(config.theta_true if config.theta_true is not None else np.ones(model.d))
    signal = np.asarray(model.mean(theta, x), dtype=float)
    if config.alternative is not None:
        amp = config.alternative.amplitude
        if config.alternative.local_scaling:
            amp /= math.sqrt(config.n)
        signal = signal + amp * _psi_values(config.alternative.psi, x)
    sample = Sample(x, signal + errors)
    fitres = fit(model, sample)
    anchor_set = fixed_anchors(config.n, config.p, config.anchors, config.seed) if config.p >= 2 else None
    return pipeline_records(
        model, sample, fitres, anchor_set=anchor_set, grid=config.grid, probe_times=config.probe_times
    )


def _block(config: ExperimentConfig, design_id: str, start: int) -> tuple[dict[str, np.ndarray], int]:
    """Records of the block of replications from ``start`` (a multiple of
    BLOCK) and the number of its replications dropped.

    The block is evaluated as one stack.  If some sample fails, each sample
    is evaluated again as a stack of one, which gives it the same numbers,
    and the failing ones are dropped.
    """
    draws = [_draws(config, design_id, i) for i in range(start, min(start + BLOCK, config.reps))]
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
    """Per-replication statistic columns for one design."""

    config: ExperimentConfig
    columns: dict[str, np.ndarray]
    failures: int
    elapsed: float

    def ecdf(self, process: str | None = None, statistic: str | None = None) -> Ecdf:
        process = process or self.config.process
        statistic = statistic or self.config.statistic
        return Ecdf(self.columns[f"{process}.{statistic}"])

    def probes(self) -> np.ndarray:
        keys = [k for k in self.columns if k.startswith("probe.")]
        keys.sort(key=lambda k: int(k.split(".")[1]))
        return np.column_stack([self.columns[k] for k in keys])


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all replications of a single-design config.

    Replications run in blocks of BLOCK; with workers > 1 the blocks are
    distributed over a process pool.  Results are collected in replication
    order, and the blocks do not depend on the worker count, so output is
    bit-identical for any worker count.
    """
    if len(config.design) != 1:
        raise ConfigError(f"run_experiment needs exactly one design, got {config.design}")
    design_id = config.design[0]
    start = time.perf_counter()
    starts = range(0, config.reps, BLOCK)
    if workers <= 1:
        blocks = [_block(config, design_id, s) for s in starts]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block, repeat(config), repeat(design_id), starts))
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
    return ExperimentResult(
        config=config, columns=columns, failures=failures, elapsed=time.perf_counter() - start
    )


def simulate_null(config: ExperimentConfig, workers: int = 1) -> Ecdf:
    """Sorted statistics of the configured (process, statistic) under the null."""
    if config.alternative is not None:
        raise ConfigError("simulate_null requires a config without an alternative")
    return run_experiment(config, workers=workers).ecdf()


@dataclass(frozen=True, eq=False)
class PowerResult:
    ecdf: Ecdf
    rejection_rate_at: dict[float, float]
    null_ecdf: Ecdf
    failures: int


def simulate_power(
    config: ExperimentConfig,
    workers: int = 1,
    levels: tuple[float, ...] = (0.01, 0.05, 0.10),
) -> PowerResult:
    """Statistics under the alternative plus rejection rates against the
    paired null run (same seed, alternative removed)."""
    if config.alternative is None:
        raise ConfigError("simulate_power requires a config with an alternative")
    null_ecdf = simulate_null(replace(config, alternative=None), workers=workers)
    result = run_experiment(config, workers=workers)
    stats = result.ecdf().sorted_values
    rates = {
        float(a): float(np.mean(stats > null_ecdf.quantile(1.0 - a))) for a in levels
    }
    return PowerResult(
        ecdf=Ecdf(stats), rejection_rate_at=rates, null_ecdf=null_ecdf, failures=result.failures
    )
