"""Command-line front end.

Subcommands: ``fit`` (estimate a model on a data file), ``test`` (full
pipeline on a data file with a Monte Carlo p-value), ``simulate`` (null
distribution of a statistic), ``power`` (alternative vs paired null),
``assign`` (optimal transport matching only), ``limits`` (reference
distribution and covariance tables).

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
All outputs are written atomically under the output directory together
with a manifest echoing the full effective configuration; the manifest is
itself a valid config file.  Simulation commands refuse to run without an
explicit seed.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
from dataclasses import MISSING, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .basis import make_basis
from .errors import ConfigError, NumericalError
from .fileio import load_points, load_sample, write_ecdf, write_process_dump, write_table, write_text_atomic
from .harness import (
    ERROR_LAWS,
    PROCESS_KINDS,
    STATISTICS,
    AlternativeSpec,
    ExperimentConfig,
    bootstrap_residuals,
    fixed_anchors,
    fixed_geometry,
    paired_runs,
    power_result,
    process_statistics,
    residual_processes,
    residual_statistics,
    run_experiments,
)
from .model import MODEL_KINDS, build_model, fit
from .process import (
    GRID_GUARD,
    SIEGMUND_BETA,
    Ecdf,
    ecdf_sup_distance,
    ecdf_vs_cdf_sup,
    kolmogorov_cdf,
    limit_covariance,
)
from .seeding import check_seed
from .transport import rescale_unit_cube, solve_assignment

OUTPUT_DIR_ENV = "DFGOF_OUTPUT_DIR"

_EXPERIMENT_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "alternative")
# the defaults of the flags that set a config key outside a config file
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
_ALTERNATIVE_KEYS = tuple(f.name for f in fields(AlternativeSpec))
# [experiment] keys that simulate and power take as flags too; power also
# takes every [alternative] key as a flag
_EXPERIMENT_FLAGS = ("seed", "reps", "n", "design", "statistic", "process")
_INT_KEYS = {"n", "reps", "seed"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_design(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a sectioned key = value config file into an ExperimentConfig.

    Unknown sections or keys are errors (anti-typo contract); ``overrides``
    (already-typed values, e.g. from command-line flags, keyed by
    [experiment] or [alternative] key) replace file values before
    validation, and None values are skipped.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # a key twice, no section, no '='
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in ("experiment", "alternative"):
            raise ConfigError(f"unknown config section [{section}]")
    if not parser.has_section("experiment"):
        raise ConfigError("config file must contain an [experiment] section")

    kwargs: dict = {}
    for key, raw in parser.items("experiment"):
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key {key!r} in [experiment]")
        if key == "design":
            kwargs[key] = _parse_design(raw)
        elif key in _INT_KEYS:
            kwargs[key] = _parse_int(key, raw)
        else:
            kwargs[key] = raw.strip()

    alt: dict = {}
    if parser.has_section("alternative"):
        for key, raw in parser.items("alternative"):
            if key not in _ALTERNATIVE_KEYS:
                raise ConfigError(f"unknown key {key!r} in [alternative]")
            if key == "amplitude":
                try:
                    alt[key] = float(raw)
                except ValueError:
                    raise ConfigError(f"key 'amplitude': expected a number, got {raw!r}") from None
            else:
                alt[key] = raw.strip()

    for key, value in (overrides or {}).items():
        if value is not None:
            (alt if key in _ALTERNATIVE_KEYS else kwargs)[key] = value
    if alt:
        if "psi" not in alt or "amplitude" not in alt:
            raise ConfigError("[alternative] requires both psi and amplitude")
        kwargs["alternative"] = AlternativeSpec(**alt)

    missing = [k for k in ("design", "model", "n", "reps") if k not in kwargs]
    if missing:
        raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
    if "seed" not in kwargs:
        raise ConfigError("a seed is required (config key 'seed' or flag --seed)")
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _fmt_float(v: float) -> str:
    return f"{float(v):.17g}"


def echo_config(config: ExperimentConfig) -> str:
    """Render the configuration as a config file that parses back to it."""
    lines = [
        "[experiment]",
        f"design = {', '.join(config.design)}",
        f"model = {config.model}",
        f"n = {config.n}",
        f"reps = {config.reps}",
        f"seed = {config.seed}",
        f"statistic = {config.statistic}",
        f"process = {config.process}",
        f"error_law = {config.error_law}",
    ]
    if config.alternative is not None:
        lines += [
            "",
            "[alternative]",
            f"psi = {config.alternative.psi}",
            f"amplitude = {_fmt_float(config.alternative.amplitude)}",
        ]
    return "\n".join(lines) + "\n"


def _output_dir(args) -> Path:
    """The output directory a command writes to: -o, else $DFGOF_OUTPUT_DIR,
    else ./dfgof_out.  It is a usage error when the path, or the nearest of
    its parents that exists, is not a directory."""
    path = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "dfgof_out")
    existing = next((part for part in (path, *path.parents) if part.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} is not a directory")
    return path


def _resolve_outdir(args) -> Path:
    """Make the output directory ``run`` checked, once the command has its
    results."""
    try:
        args.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {args.output_dir}: {exc.strerror or exc}") from None
    return args.output_dir


def _write_manifest(outdir: Path, config: ExperimentConfig) -> None:
    write_text_atomic(outdir / "manifest.cfg", echo_config(config))


def _write_summary(outdir: Path, lines: list[str]) -> None:
    """Write ``lines`` to summary.txt under ``outdir`` and print them."""
    write_text_atomic(outdir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def _summary_header(command: str, args, outdir: Path, seed: int, override_names: tuple[str, ...]) -> list[str]:
    """Opening lines of a simulation summary: what ran, where, and which
    flags overrode the config file."""
    lines = [
        f"command: {command}",
        f"output_dir: {outdir}",
        f"config: {args.config}",
        f"seed: {seed}",
        f"workers: {args.workers}",
    ]
    overrides = [(name, getattr(args, name)) for name in override_names if getattr(args, name) is not None]
    if overrides:
        lines.append("overrides: " + ", ".join(f"{k}={v}" for k, v in overrides))
    return lines


def _overrides(args, names: tuple[str, ...]) -> dict:
    """The config keys the flags ``names`` set; unset flags are None, which
    ``parse_config`` skips."""
    over = {name: getattr(args, name) for name in names}
    if args.design is not None:
        over["design"] = _parse_design(args.design)
    return over


def _cmd_simulate(args) -> None:
    config = parse_config(args.config, _overrides(args, _EXPERIMENT_FLAGS))
    if config.alternative is not None:
        raise ConfigError("'simulate' runs the null only; use 'power' for configs with an [alternative]")
    runs = run_experiments([config.single(design_id) for design_id in config.design], workers=args.workers)
    outdir = _resolve_outdir(args)
    results = dict(zip(config.design, runs))
    files = []
    for design_id, res in results.items():
        path = outdir / f"ecdf_{design_id}.csv"
        write_ecdf(path, res.ecdf())
        files.append(path.name)
        if args.plot_data:
            values = res.ecdf().sorted_values
            n = values.size
            rows = np.column_stack((values, kolmogorov_cdf(values), np.arange(1, n + 1) / n))
            plot_path = outdir / f"plot_{design_id}.csv"
            write_table(plot_path, ["value", "kolmogorov_cdf", "level"], rows)
            files.append(plot_path.name)

    basis = make_basis(config.p, config.d)
    lines = _summary_header("simulate", args, outdir, config.seed, _EXPERIMENT_FLAGS)
    lines.append(f"basis: {basis.describe()}")
    lines.append(f"statistic: {config.process}.{config.statistic}")
    for design_id, res in results.items():
        lines.append(
            f"design {design_id}: reps={res.config.reps} failures={res.failures} elapsed={res.elapsed:.2f}s"
        )
        if (config.p, config.d, config.process, config.statistic) == (1, 1, "transformed", "ks_abs"):
            # one fitted parameter in one dimension: the limit law is
            # Kolmogorov's K, and at finite n the maximum over the n scan
            # times follows K(x + SIEGMUND_BETA / sqrt(n)) more closely
            dist = ecdf_vs_cdf_sup(res.ecdf(), kolmogorov_cdf)
            lines.append(f"kolmogorov_sup {design_id}: {_fmt_float(dist)}")
            shift = SIEGMUND_BETA / math.sqrt(config.n)
            dist = ecdf_vs_cdf_sup(res.ecdf(), lambda x: kolmogorov_cdf(x + shift))
            lines.append(f"kolmogorov_corrected_sup {design_id}: {_fmt_float(dist)}")
    ids = list(results)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            dist = ecdf_sup_distance(results[ids[i]].ecdf(), results[ids[j]].ecdf())
            lines.append(f"sup_distance {ids[i]} vs {ids[j]}: {_fmt_float(dist)}")
    lines.append("files: " + ", ".join(files))
    _write_manifest(outdir, config)
    _write_summary(outdir, lines)


def _cmd_power(args) -> None:
    overridable = _EXPERIMENT_FLAGS + _ALTERNATIVE_KEYS
    config = parse_config(args.config, _overrides(args, overridable))
    alt = config.alternative
    if alt is None:
        raise ConfigError("'power' requires an [alternative] section or --psi/--amplitude flags")
    pairs = [paired_runs(config.single(design_id)) for design_id in config.design]
    runs = run_experiments([run for pair in pairs for run in pair], workers=args.workers)
    outdir = _resolve_outdir(args)
    lines = _summary_header("power", args, outdir, config.seed, overridable)
    basis = make_basis(config.p, config.d)
    lines.append(f"basis: {basis.describe()}")
    lines.append(f"statistic: {config.process}.{config.statistic}")
    lines.append(f"alternative: psi={alt.psi} amplitude={_fmt_float(alt.amplitude)}")
    files = []
    for design_id, null, alternative in zip(config.design, runs[::2], runs[1::2]):
        power = power_result(null, alternative)
        alt_path = outdir / f"ecdf_alt_{design_id}.csv"
        null_path = outdir / f"ecdf_null_{design_id}.csv"
        rates_path = outdir / f"rejection_rates_{design_id}.csv"
        write_ecdf(alt_path, power.ecdf)
        write_ecdf(null_path, power.null_ecdf)
        write_table(rates_path, ["level", "rejection_rate"], np.array(sorted(power.rejection_rate_at.items())))
        files += [alt_path.name, null_path.name, rates_path.name]
        shift = ecdf_sup_distance(power.ecdf, power.null_ecdf)
        lines.append(
            f"design {design_id}: failures={power.failures} "
            + " ".join(f"rate@{lvl:g}={rate:.4f}" for lvl, rate in sorted(power.rejection_rate_at.items()))
            + f" null_vs_alt_sup={_fmt_float(shift)}"
        )
    lines.append("files: " + ", ".join(files))
    _write_manifest(outdir, config)
    _write_summary(outdir, lines)


def _cmd_fit(args) -> None:
    sample = load_sample(args.data)
    model = build_model(args.model, sample)
    result = fit(model, sample)
    outdir = _resolve_outdir(args)
    for name, column, values in (("theta", "theta_hat", result.theta_hat), ("residuals", "residual", result.residuals)):
        write_table(outdir / f"{name}.csv", ["index", column], np.column_stack((np.arange(values.size), values)))
    theta_text = ", ".join(_fmt_float(v) for v in result.theta_hat)
    print(f"theta_hat = [{theta_text}]")
    print(f"converged = {result.converged} (iterations: {result.iterations})")


def _cmd_test(args) -> None:
    if args.seed is None:
        raise ConfigError("'test' requires --seed (Monte Carlo p-value must be reproducible)")
    check_seed(args.seed)
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    sample = load_sample(args.data)
    model = build_model(args.model, sample)
    observed_fit = fit(model, sample)
    residual_norm = float(np.linalg.norm(observed_fit.residuals))
    # an exact fit leaves rounding residuals of a few eps |Y|; noise that
    # double precision resolves leaves hundreds
    if residual_norm <= 64 * np.finfo(float).eps * float(np.linalg.norm(sample.Y)):
        raise NumericalError(
            f"the {args.model} model fits the data to rounding (residual norm {residual_norm:.3g}): "
            "there is no residual scale to test"
        )
    geometry = fixed_geometry(model, sample, observed_fit)
    observed_procs = residual_processes(geometry, observed_fit.residuals)
    key = f"{args.process}.{args.statistic}"
    observed = process_statistics(observed_procs)
    observed_stat = observed[key]
    null = bootstrap_residuals(model, geometry, observed_fit, seed=args.seed, reps=args.reps, error_law=args.error_law)
    boot_stats = residual_statistics(geometry, null, args.process)[key]
    pvalue = (1.0 + float(np.sum(boot_stats >= observed_stat))) / (args.reps + 1.0)

    outdir = _resolve_outdir(args)
    rows = ("%s,%s,%.17g\n" % (*name.split("."), value) for name, value in sorted(observed.items()))
    write_text_atomic(outdir / "statistics.csv", "process,statistic,value\n" + "".join(rows))
    write_ecdf(outdir / "null_ecdf.csv", Ecdf(boot_stats))
    for kind, proc in observed_procs.items():
        write_process_dump(outdir / f"process_{kind}.csv", proc)

    basis = make_basis(sample.p, model.d)
    lines = [
        "command: test",
        f"data: {args.data}",
        f"model: {args.model}",
        f"seed: {args.seed}",
        f"basis: {basis.describe()}",
        f"sigma_hat: {_fmt_float(residual_norm / math.sqrt(sample.n - model.d))}",
        f"statistic: {key} = {_fmt_float(observed_stat)}",
        f"pvalue: {_fmt_float(pvalue)} ({args.reps} null replications)",
    ]
    _write_summary(outdir, lines)


def _cmd_assign(args) -> None:
    raw = load_points(args.data)
    points, lo, hi = rescale_unit_cube(raw)
    try:
        anchors = fixed_anchors(points.shape[0], points.shape[1])
    except ValueError as exc:  # more columns than the Halton net has primes
        raise ConfigError(f"{args.data}: {exc}") from None
    assignment = solve_assignment(points, anchors)
    per_point = np.linalg.norm(points - anchors.points[assignment.sigma], axis=1)
    outdir = _resolve_outdir(args)
    write_table(
        outdir / "assignment.csv",
        ["index", "anchor_index", "cost"],
        np.column_stack((np.arange(points.shape[0]), assignment.sigma, per_point)),
        footer=f"# total_cost={_fmt_float(assignment.cost)}",
    )
    lines = [
        "command: assign",
        f"data: {args.data}",
        f"n: {points.shape[0]}  p: {points.shape[1]}",
        "rescale_low: " + ", ".join(_fmt_float(v) for v in lo),
        "rescale_high: " + ", ".join(_fmt_float(v) for v in hi),
        f"total_cost: {_fmt_float(assignment.cost)}",
    ]
    _write_summary(outdir, lines)


def _cmd_limits(args) -> None:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    try:
        basis = make_basis(args.p, args.d)
    except ValueError as exc:  # p, d or the tensor products they need
        raise ConfigError(str(exc)) from None
    if args.p >= 2 and 16**args.p > GRID_GUARD:
        # (4^p)^2 pairs of points, one limit_covariance call each
        raise ConfigError(f"--p {args.p} gives 16^{args.p} covariance rows, more than the {GRID_GUARD} guard")
    outdir = _resolve_outdir(args)
    xs = np.arange(0, args.steps + 1) * (2.5 / args.steps)
    write_table(outdir / "kolmogorov_cdf.csv", ["x", "cdf"], np.column_stack((xs, kolmogorov_cdf(xs))))
    if args.p == 1:
        grid = np.arange(1, 20) / 20.0
        header = ["s", "t", "cov"]
        rows = [(s, t, limit_covariance([s], [t], basis)) for s in grid for t in grid]
    else:
        axis = np.arange(1, 5) / 5.0
        pts = [np.array(tup) for tup in itertools.product(axis, repeat=args.p)]
        header = [f"x{j + 1}" for j in range(args.p)] + [f"y{j + 1}" for j in range(args.p)] + ["cov"]
        rows = [(*x, *y, limit_covariance(x, y, basis)) for x in pts for y in pts]
    write_table(outdir / "limit_covariance.csv", header, np.array(rows))
    lines = [
        "command: limits",
        f"basis: {basis.describe()}",
        "files: kolmogorov_cdf.csv, limit_covariance.csv",
    ]
    _write_summary(outdir, lines)


def _add_common(sub):
    sub.add_argument("-o", "--output-dir", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or ./dfgof_out)")


def _add_experiment(sub):
    """The config file argument and the flags that override its [experiment] keys."""
    sub.add_argument("config", help="experiment config file")
    _add_common(sub)
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--reps", type=int, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--design", default=None, help="comma-separated design ids (overrides config)")
    sub.add_argument("--statistic", default=None)
    sub.add_argument("--process", default=None)
    sub.add_argument("--workers", type=int, default=1)


# parse_args leaves a parser as it found it, so one parser serves every call
@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="dfgof", description="Distribution-free goodness-of-fit testing for parametric regression.")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    sim = subs.add_parser("simulate", help="simulate the null distribution of a statistic")
    _add_experiment(sim)
    sim.add_argument("--plot-data", action="store_true", help="also write (value, reference cdf, level) columns")
    sim.set_defaults(handler=_cmd_simulate)

    pow_ = subs.add_parser("power", help="simulate an alternative against its paired null")
    _add_experiment(pow_)
    # overrides of the [alternative] keys, which need both psi and amplitude
    pow_.add_argument("--psi", default=None)
    pow_.add_argument("--amplitude", type=float, default=None)
    pow_.set_defaults(handler=_cmd_power)

    fit_ = subs.add_parser("fit", help="fit a model to a data file")
    fit_.add_argument("data")
    fit_.add_argument("--model", required=True, choices=tuple(MODEL_KINDS))
    _add_common(fit_)
    fit_.set_defaults(handler=_cmd_fit)

    test = subs.add_parser("test", help="goodness-of-fit test on a data file")
    test.add_argument("data")
    test.add_argument("--model", required=True, choices=tuple(MODEL_KINDS))
    _add_common(test)
    test.add_argument("--seed", type=int, default=None, help="master seed (required)")
    test.add_argument("--reps", type=int, default=200, help="null replications for the p-value")
    test.add_argument("--statistic", default=_DEFAULTS["statistic"], choices=STATISTICS)
    test.add_argument("--process", default=_DEFAULTS["process"], choices=PROCESS_KINDS)
    test.add_argument("--error-law", default=_DEFAULTS["error_law"], choices=ERROR_LAWS)
    test.set_defaults(handler=_cmd_test)

    asg = subs.add_parser("assign", help="optimal transport matching of a covariate file")
    asg.add_argument("data")
    _add_common(asg)
    asg.set_defaults(handler=_cmd_assign)

    lim = subs.add_parser("limits", help="reference cdf and limit covariance tables")
    lim.add_argument("--p", type=int, default=1)
    lim.add_argument("--d", type=int, default=2)
    lim.add_argument("--steps", type=int, default=200, help="x-grid steps for the reference cdf table")
    _add_common(lim)
    lim.set_defaults(handler=_cmd_limits)

    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.output_dir = _output_dir(args)  # before any work of the command
        args.handler(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
