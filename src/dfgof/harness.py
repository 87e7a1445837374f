"""Monte Carlo experiment engine.

Each replication draws covariates and errors, forms the response under the
null model (plus an optional alternative shift), fits, rotates the
residuals onto the reference basis, standardizes the covariates by optimal
transport when p >= 2, and records Kolmogorov-Smirnov style statistics of
both the transformed and the untransformed residual process.

Replications are independent: the RNG stream of replication i is derived
from (seed, design id, variant tag, i), so results are bit-identical
whatever the execution order or worker count.  Fit failures are counted
and the replication is dropped; more than 1% failures aborts the run.

The per-sample pipeline has two halves.  ``fixed_geometry`` holds all that
is fixed given X and the fitted score span: scan order and scan points
(for p >= 2 the rescale and the optimal assignment) and the score and
reference sets.  The second half evaluates residuals on that geometry,
building the reflection plan between the two sets once and applying it to
one residual vector (``pipeline_processes``) or to every column of a
matrix (``residual_statistics``).  A simulation
replication draws a fresh X and runs both halves once; the
``dfgof test`` bootstrap keeps X fixed, builds the geometry once and
evaluates the observed residual and all bootstrap residuals together as
the columns of one matrix (``bootstrap_residuals``).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .basis import make_basis, sample_on_points
from .errors import ConfigError, NumericalError, RankDeficiencyError, SingularMatrixError
from .model import FitResult, RegressionModel, Sample, ascending_scan_order, build_model, fit, score_basis
from .process import StepProcess, build_process, ks_statistics
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
STATISTICS = ("ks_abs", "ks_plus", "cvm")
PROCESS_KINDS = ("transformed", "raw")
MAX_FAILURE_FRACTION = 0.01
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
    resample_anchors: bool = False
    basis_d: int | None = None
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
        if self.anchors not in ("halton", "random"):
            raise ConfigError(f"unknown anchor mode {self.anchors!r}")
        if self.error_law not in ERROR_LAWS:
            raise ConfigError(f"unknown error law {self.error_law!r}; known: {ERROR_LAWS}")
        if self.basis_d is not None and self.basis_d != d:
            raise ConfigError(
                f"basis_d={self.basis_d} must match the model's parameter count d={d}"
            )
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
        if probe and (p != 1 or min(probe) < 0.0 or max(probe) > 1.0):
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


@dataclass(frozen=True, eq=False)
class Ecdf:
    """Empirical distribution of replication statistics."""

    sorted_values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.sorted_values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("an Ecdf needs a non-empty 1-D value array")
        object.__setattr__(self, "sorted_values", v)

    @property
    def size(self) -> int:
        return self.sorted_values.size

    def value_at(self, x: float) -> float:
        return float(np.searchsorted(self.sorted_values, x, side="right")) / self.size

    def quantile(self, q: float) -> float:
        """Order-statistic quantile: the ceil(q * size)-th smallest value."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        k = min(max(int(math.ceil(q * self.size)), 1), self.size)
        return float(self.sorted_values[k - 1])


def ecdf_sup_distance(a: Ecdf, b: Ecdf) -> float:
    """Exact two-sample Kolmogorov sup distance between step ECDFs."""
    grid = np.concatenate([a.sorted_values, b.sorted_values])
    fa = np.searchsorted(a.sorted_values, grid, side="right") / a.size
    fb = np.searchsorted(b.sorted_values, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ecdf_vs_cdf_sup(ecdf: Ecdf, cdf) -> float:
    """Exact sup distance between a step ECDF and a continuous CDF that
    accepts an array of points."""
    n = ecdf.size
    c = np.asarray(cdf(ecdf.sorted_values), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.maximum(np.abs(i / n - c), np.abs((i - 1) / n - c)).max())


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
        return x[:, 0] ** 2
    if psi == "x2_squared":
        return x[:, 1] ** 2
    if psi == "x2_cubed":
        return x[:, 1] ** 3
    if psi == "sin_half_pi_x2":
        return np.sin(0.5 * math.pi * x[:, 1])
    raise ConfigError(f"unknown psi id {psi!r}")


@lru_cache(maxsize=8)
def _fixed_anchors(n: int, p: int, mode: str, master_seed: int) -> AnchorSet:
    if mode == "halton":
        return generate_anchors(n, p, "halton")
    return generate_anchors(n, p, "random", seed=seed_sequence(master_seed, "anchors"))


def _anchors_for(config: ExperimentConfig, rep_index: int) -> AnchorSet:
    if config.resample_anchors and config.anchors == "random":
        return generate_anchors(
            config.n, config.p, "random", seed=seed_sequence(config.seed, "anchors", rep_index)
        )
    return _fixed_anchors(config.n, config.p, config.anchors, config.seed)


def _variant_tag(config: ExperimentConfig) -> str:
    # Null and alternative runs use distinct streams, so a zero-amplitude
    # power run is independent of its paired null (honest level recovery).
    # Different alternatives share streams: common random numbers make the
    # resulting power curves directly comparable.
    return "null" if config.alternative is None else "alt"


@dataclass(frozen=True, eq=False)
class Geometry:
    """What the residual evaluation of one sample needs that is fixed given
    X and the fitted score span.

    ``scan_order`` puts data rows in scan order (p = 1; None for p >= 2,
    where data order is kept).  ``points`` scan the transformed process
    (rank times, or the matched anchors) and ``raw_points`` the raw one
    (rank times, or the rescaled covariates).
    """

    scan_order: np.ndarray | None
    points: np.ndarray
    raw_points: np.ndarray
    score_set: OrthonormalSet
    reference_set: OrthonormalSet
    grid: int | None


def fixed_geometry(
    model: RegressionModel,
    sample: Sample,
    fitres: FitResult,
    *,
    anchor_set: AnchorSet | None = None,
    grid: int | None = None,
) -> Geometry:
    """Scan geometry and score and reference sets of one fitted sample.

    For p = 1 the scan runs over rank times; for p >= 2 an anchor set of
    matching size is required and the covariates are matched to it by the
    optimal assignment.  For linear model kinds nothing here depends on the
    response, so one geometry serves every response drawn on the same X.
    """
    n, p = sample.n, sample.p
    basis = make_basis(p, model.d)
    if p == 1:
        scan = ascending_scan_order(sample.X)
        points = raw_points = np.arange(1, n + 1) / n
        score_set = score_basis(model, fitres, sample, scan)
    else:
        if anchor_set is None:
            raise ValueError("p >= 2 requires an anchor set")
        scan = None
        raw_points, _, _ = rescale_unit_cube(sample.X)
        points = transported_points(solve_assignment(raw_points, anchor_set), anchor_set)
        score_set = score_basis(model, fitres, sample)
    reference_set = sample_on_points(basis, points)
    return Geometry(scan, points, raw_points, score_set, reference_set, grid)


def _scanned(geometry: Geometry, residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transformed and raw residuals in scan order: one reflection plan maps
    a vector or every column of a matrix."""
    raw = residuals if geometry.scan_order is None else residuals[geometry.scan_order]
    return transform_residuals(raw, geometry.score_set, geometry.reference_set).values, raw


def _processes(geometry: Geometry, transformed: np.ndarray, raw: np.ndarray) -> dict[str, StepProcess]:
    return {
        "transformed": build_process(transformed, geometry.points, grid=geometry.grid),
        "raw": build_process(raw, geometry.raw_points, grid=geometry.grid),
    }


def process_statistics(procs: dict[str, StepProcess]) -> dict[str, float | np.ndarray]:
    """Every statistic of every process, keyed "{process}.{statistic}"."""
    return {f"{kind}.{stat.name}": stat.value for kind, proc in procs.items() for stat in ks_statistics(proc)}


def residual_statistics(
    geometry: Geometry, residuals: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, StepProcess]]:
    """Every statistic of every column of an (n, m) residual matrix, and the
    processes of column 0.

    One rotation maps the whole matrix; the processes are then built
    EVAL_COLUMNS columns at a time, so that memory does not grow with the
    number of lattice points times m.
    """
    transformed, raw = _scanned(geometry, residuals)
    stats: dict[str, list[np.ndarray]] = {}
    first = None
    for start in range(0, residuals.shape[1], EVAL_COLUMNS):
        cols = slice(start, start + EVAL_COLUMNS)
        procs = _processes(geometry, transformed[:, cols], raw[:, cols])
        if first is None:
            first = {kind: proc.column(0) for kind, proc in procs.items()}
        for key, values in process_statistics(procs).items():
            stats.setdefault(key, []).append(values)
        del procs  # keep one block of processes alive, not two
    return {key: np.concatenate(parts) for key, parts in stats.items()}, first


def bootstrap_residuals(
    model: RegressionModel, sample: Sample, fitres: FitResult, *, seed: int, reps: int, error_law: str
) -> np.ndarray:
    """(n, reps + 1) residual matrix of a parametric bootstrap at the fitted
    parameter on the observed X.

    Column 0 holds the observed residuals.  Column b holds the least-squares
    residuals of null_mean + eps_b, where eps_b is drawn from the stream
    rng_for(seed, "bootstrap", b - 1); one least-squares solve fits all
    bootstrap columns on the fixed design.  Linear model kinds only: their
    design, and with it the geometry, does not change between replicates.
    """
    if not model.linear:
        raise ConfigError(f"the bootstrap needs a linear model kind, got {model.kind!r}")
    if error_law not in ERROR_LAWS:
        raise ConfigError(f"unknown error law {error_law!r}; known: {ERROR_LAWS}")
    out = np.empty((sample.n, reps + 1))
    out[:, 0] = fitres.residuals
    for b in range(reps):
        out[:, b + 1] = _draw_errors(error_law, sample.n, rng_for(seed, "bootstrap", b))
    boot = out[:, 1:]
    boot += np.asarray(model.mean(fitres.theta_hat, sample.X), dtype=float)[:, None]
    design = np.asarray(model.grad(fitres.theta_hat, sample.X), dtype=float)
    theta, _, _, _ = np.linalg.lstsq(design, boot, rcond=None)
    boot -= design @ theta
    return out


def pipeline_processes(
    model: RegressionModel,
    sample: Sample,
    fitres: FitResult,
    *,
    anchor_set: AnchorSet | None = None,
    grid: int | None = None,
):
    """Transformed and raw residual processes for one fitted sample.

    For p = 1 the scan runs over rank times; for p >= 2 an anchor set of
    matching size is required and the scan runs over the matched anchors
    (transformed) or the rescaled covariates (raw).
    """
    geometry = fixed_geometry(model, sample, fitres, anchor_set=anchor_set, grid=grid)
    return _processes(geometry, *_scanned(geometry, fitres.residuals))


def pipeline_records(
    model: RegressionModel,
    sample: Sample,
    fitres: FitResult,
    *,
    anchor_set: AnchorSet | None = None,
    grid: int | None = None,
    probe_times: tuple[float, ...] = (),
) -> dict[str, float]:
    """Statistics of the transformed and raw residual processes for one
    fitted sample."""
    procs = pipeline_processes(model, sample, fitres, anchor_set=anchor_set, grid=grid)
    record = process_statistics(procs)
    proc_t = procs["transformed"]
    for i, t in enumerate(probe_times):
        idx = int(np.searchsorted(proc_t.eval_points[:, 0], t, side="right")) - 1
        record[f"probe.{i}"] = float(proc_t.eval_values[max(idx, 0)])
    return record


def _replication(config: ExperimentConfig, design_id: str, index: int) -> dict[str, float] | None:
    """One simulation replication; None marks an excluded fit failure.

    Stream discipline: covariates are drawn first, then errors, from the
    replication's own generator.
    """
    rng = rng_for(config.seed, "design", design_id, _variant_tag(config), "rep", index)
    x = _sample_design(design_id, config.n, rng)
    errors = _draw_errors(config.error_law, config.n, rng)

    probe_sample = Sample(x, np.zeros(config.n))
    model = build_model(config.model, probe_sample)
    theta = np.asarray(config.theta_true if config.theta_true is not None else np.ones(model.d))
    signal = np.asarray(model.mean(theta, x), dtype=float)
    if config.alternative is not None:
        amp = config.alternative.amplitude
        if config.alternative.local_scaling:
            amp /= math.sqrt(config.n)
        signal = signal + amp * _psi_values(config.alternative.psi, x)
    sample = Sample(x, signal + errors)

    try:
        fitres = fit(model, sample)
    except (RankDeficiencyError, SingularMatrixError):
        return None
    if not fitres.converged:
        return None

    anchor_set = _anchors_for(config, index) if config.p >= 2 else None
    return pipeline_records(
        model, sample, fitres, anchor_set=anchor_set, grid=config.grid, probe_times=config.probe_times
    )


def _replication_star(args) -> dict[str, float] | None:
    return _replication(*args)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Per-replication statistic columns for one design."""

    config: ExperimentConfig
    columns: dict[str, np.ndarray]
    failures: int
    elapsed: float

    @property
    def reps_used(self) -> int:
        return self.config.reps - self.failures

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

    With workers > 1 replications are distributed over a process pool;
    results are collected by replication index, so output is bit-identical
    for any worker count.
    """
    if len(config.design) != 1:
        raise ConfigError(f"run_experiment needs exactly one design, got {config.design}")
    design_id = config.design[0]
    start = time.perf_counter()
    tasks = [(config, design_id, i) for i in range(config.reps)]
    if workers <= 1:
        records = [_replication(*t) for t in tasks]
    else:
        chunk = max(1, config.reps // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_replication_star, tasks, chunksize=chunk))
    kept = [r for r in records if r is not None]
    failures = len(records) - len(kept)
    if failures > MAX_FAILURE_FRACTION * config.reps:
        raise NumericalError(
            f"{failures} of {config.reps} replications failed to fit "
            f"(> {MAX_FAILURE_FRACTION:.0%} allowed)"
        )
    if not kept:
        raise NumericalError("all replications failed to fit")
    columns = {key: np.array([r[key] for r in kept]) for key in kept[0]}
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
