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
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .basis import make_basis
from .errors import ConfigError, NumericalError
from .fileio import load_points, load_sample, write_ecdf, write_process_dump, write_table, write_text_atomic
from .harness import (
    MODEL_KINDS,
    AlternativeSpec,
    Ecdf,
    ExperimentConfig,
    bootstrap_residuals,
    ecdf_sup_distance,
    fixed_geometry,
    residual_statistics,
    run_experiment,
    simulate_power,
)
from .model import build_model, fit
from .process import DEFAULT_GRID, kolmogorov_cdf, limit_covariance
from .seeding import seed_sequence
from .transport import generate_anchors, rescale_unit_cube, solve_assignment

OUTPUT_DIR_ENV = "DFGOF_OUTPUT_DIR"

_EXPERIMENT_KEYS = (
    "design",
    "model",
    "n",
    "reps",
    "seed",
    "statistic",
    "process",
    "anchors",
    "resample_anchors",
    "basis_d",
    "grid",
    "error_law",
    "theta_true",
    "probe_times",
)
_ALTERNATIVE_KEYS = ("psi", "amplitude", "local_scaling")
_INT_KEYS = {"n", "reps", "seed", "basis_d", "grid"}
_BOOL_KEYS = {"resample_anchors", "local_scaling"}
_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str | None
    output_dir: Path
    seed: int | None
    overrides: tuple[tuple[str, str], ...]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError(message)


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float_tuple(key: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers, got {raw!r}") from None


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a sectioned key = value config file into an ExperimentConfig.

    Unknown sections or keys are errors (anti-typo contract); ``overrides``
    (already-typed values, e.g. from command-line flags) replace file
    values before validation.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    read = parser.read(path)
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
            kwargs[key] = tuple(part.strip() for part in raw.split(",") if part.strip())
        elif key in _INT_KEYS:
            kwargs[key] = _parse_int(key, raw)
        elif key in _BOOL_KEYS:
            kwargs[key] = _parse_bool(key, raw)
        elif key in ("theta_true", "probe_times"):
            if raw.strip().lower() in ("", "auto"):
                kwargs[key] = None if key == "theta_true" else ()
            else:
                kwargs[key] = _parse_float_tuple(key, raw)
        else:
            kwargs[key] = raw.strip()

    if parser.has_section("alternative"):
        alt: dict = {}
        for key, raw in parser.items("alternative"):
            if key not in _ALTERNATIVE_KEYS:
                raise ConfigError(f"unknown key {key!r} in [alternative]")
            if key == "amplitude":
                try:
                    alt[key] = float(raw)
                except ValueError:
                    raise ConfigError(f"key 'amplitude': expected a number, got {raw!r}") from None
            elif key == "local_scaling":
                alt[key] = _parse_bool(key, raw)
            else:
                alt[key] = raw.strip()
        if "psi" not in alt or "amplitude" not in alt:
            raise ConfigError("[alternative] requires both psi and amplitude")
        kwargs["alternative"] = AlternativeSpec(**alt)

    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})

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
    """Render the full effective configuration as a re-parsable config file."""
    lines = [
        "[experiment]",
        f"design = {', '.join(config.design)}",
        f"model = {config.model}",
        f"n = {config.n}",
        f"reps = {config.reps}",
        f"seed = {config.seed}",
        f"statistic = {config.statistic}",
        f"process = {config.process}",
        f"anchors = {config.anchors}",
        f"resample_anchors = {'true' if config.resample_anchors else 'false'}",
        f"basis_d = {config.basis_d if config.basis_d is not None else config.d}",
        f"error_law = {config.error_law}",
    ]
    theta = config.theta_true if config.theta_true is not None else (1.0,) * config.d
    lines.append(f"theta_true = {', '.join(_fmt_float(v) for v in theta)}")
    if config.p >= 2:
        lines.append(f"grid = {config.grid if config.grid is not None else DEFAULT_GRID.get(config.p, 8)}")
    if config.probe_times:
        lines.append(f"probe_times = {', '.join(_fmt_float(v) for v in config.probe_times)}")
    if config.alternative is not None:
        lines += [
            "",
            "[alternative]",
            f"psi = {config.alternative.psi}",
            f"amplitude = {_fmt_float(config.alternative.amplitude)}",
            f"local_scaling = {'true' if config.alternative.local_scaling else 'false'}",
        ]
    return "\n".join(lines) + "\n"


def _resolve_outdir(args) -> Path:
    out = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "dfgof_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _collect_overrides(args, names) -> tuple[tuple[str, str], ...]:
    pairs = []
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            pairs.append((name, str(value)))
    return tuple(pairs)


def _write_manifest(outdir: Path, config: ExperimentConfig) -> None:
    write_text_atomic(outdir / "manifest.cfg", echo_config(config))


def _summary_header(manifest: RunManifest, workers: int | None = None) -> list[str]:
    lines = [
        f"command: {manifest.command}",
        f"output_dir: {manifest.output_dir}",
    ]
    if manifest.config_path is not None:
        lines.append(f"config: {manifest.config_path}")
    if manifest.seed is not None:
        lines.append(f"seed: {manifest.seed}")
    if workers is not None:
        lines.append(f"workers: {workers}")
    if manifest.overrides:
        lines.append("overrides: " + ", ".join(f"{k}={v}" for k, v in manifest.overrides))
    return lines


def _experiment_overrides(args) -> dict:
    over: dict = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.reps is not None:
        over["reps"] = args.reps
    if args.n is not None:
        over["n"] = args.n
    if args.design is not None:
        over["design"] = tuple(part.strip() for part in args.design.split(",") if part.strip())
    if getattr(args, "statistic", None) is not None:
        over["statistic"] = args.statistic
    if getattr(args, "process", None) is not None:
        over["process"] = args.process
    return over


def _cmd_simulate(args) -> None:
    config = parse_config(args.config, _experiment_overrides(args))
    if config.alternative is not None:
        raise ConfigError("'simulate' runs the null only; use 'power' for configs with an [alternative]")
    outdir = _resolve_outdir(args)
    manifest = RunManifest(
        command="simulate",
        config_path=str(args.config),
        output_dir=outdir,
        seed=config.seed,
        overrides=_collect_overrides(args, ("seed", "reps", "n", "design", "statistic", "process")),
    )
    delim = args.delimiter
    results = {}
    files = []
    for design_id in config.design:
        res = run_experiment(config.single(design_id), workers=args.workers)
        results[design_id] = res
        path = outdir / f"ecdf_{design_id}.csv"
        write_ecdf(path, res.ecdf(), delim)
        files.append(path.name)
        if args.plot_data:
            values = res.ecdf().sorted_values
            n = values.size
            rows = zip(values, kolmogorov_cdf(values), np.arange(1, n + 1) / n)
            plot_path = outdir / f"plot_{design_id}.csv"
            write_table(plot_path, ["value", "kolmogorov_cdf", "level"], rows, delim)
            files.append(plot_path.name)

    basis = make_basis(config.p, config.d)
    lines = _summary_header(manifest, args.workers)
    lines.append(f"basis: {basis.describe()}")
    lines.append(f"statistic: {config.process}.{config.statistic}")
    for design_id, res in results.items():
        lines.append(
            f"design {design_id}: reps={res.config.reps} failures={res.failures} elapsed={res.elapsed:.2f}s"
        )
    ids = list(results)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            dist = ecdf_sup_distance(results[ids[i]].ecdf(), results[ids[j]].ecdf())
            lines.append(f"sup_distance {ids[i]} vs {ids[j]}: {_fmt_float(dist)}")
    lines.append("files: " + ", ".join(files))
    _write_manifest(outdir, config)
    write_text_atomic(outdir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def _cmd_power(args) -> None:
    over = _experiment_overrides(args)
    config = parse_config(args.config, over)
    if args.psi is not None or args.amplitude is not None:
        base = config.alternative or AlternativeSpec(psi="x2_cubed", amplitude=1.0)
        alt = AlternativeSpec(
            psi=args.psi if args.psi is not None else base.psi,
            amplitude=args.amplitude if args.amplitude is not None else base.amplitude,
            local_scaling=bool(args.local_scaling) if args.local_scaling is not None else base.local_scaling,
        )
        config = replace(config, alternative=alt)
    if config.alternative is None:
        raise ConfigError("'power' requires an [alternative] section or --psi/--amplitude flags")
    outdir = _resolve_outdir(args)
    manifest = RunManifest(
        command="power",
        config_path=str(args.config),
        output_dir=outdir,
        seed=config.seed,
        overrides=_collect_overrides(
            args, ("seed", "reps", "n", "design", "statistic", "process", "psi", "amplitude")
        ),
    )
    delim = args.delimiter
    lines = _summary_header(manifest, args.workers)
    basis = make_basis(config.p, config.d)
    lines.append(f"basis: {basis.describe()}")
    lines.append(f"statistic: {config.process}.{config.statistic}")
    alt = config.alternative
    lines.append(
        f"alternative: psi={alt.psi} amplitude={_fmt_float(alt.amplitude)} local_scaling={alt.local_scaling}"
    )
    files = []
    for design_id in config.design:
        power = simulate_power(config.single(design_id), workers=args.workers)
        alt_path = outdir / f"ecdf_alt_{design_id}.csv"
        null_path = outdir / f"ecdf_null_{design_id}.csv"
        rates_path = outdir / f"rejection_rates_{design_id}.csv"
        write_ecdf(alt_path, power.ecdf, delim)
        write_ecdf(null_path, power.null_ecdf, delim)
        write_table(
            rates_path,
            ["level", "rejection_rate"],
            sorted(power.rejection_rate_at.items()),
            delim,
        )
        files += [alt_path.name, null_path.name, rates_path.name]
        shift = ecdf_sup_distance(power.ecdf, power.null_ecdf)
        lines.append(
            f"design {design_id}: failures={power.failures} "
            + " ".join(f"rate@{lvl:g}={rate:.4f}" for lvl, rate in sorted(power.rejection_rate_at.items()))
            + f" null_vs_alt_sup={_fmt_float(shift)}"
        )
    lines.append("files: " + ", ".join(files))
    _write_manifest(outdir, config)
    write_text_atomic(outdir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def _cmd_fit(args) -> None:
    sample = load_sample(args.data, args.delimiter)
    model = build_model(args.model, sample)
    result = fit(model, sample)
    outdir = _resolve_outdir(args)
    write_table(
        outdir / "theta.csv",
        ["index", "theta_hat"],
        ((k, v) for k, v in enumerate(result.theta_hat)),
        args.delimiter,
    )
    write_table(
        outdir / "residuals.csv",
        ["index", "residual"],
        ((i, v) for i, v in enumerate(result.residuals)),
        args.delimiter,
    )
    theta_text = ", ".join(_fmt_float(v) for v in result.theta_hat)
    print(f"theta_hat = [{theta_text}]")
    print(f"converged = {result.converged} (iterations: {result.iterations})")


def _observed_anchors(args, sample):
    if sample.p < 2:
        return None
    if args.anchors == "random":
        if args.seed is None:
            raise ConfigError("random anchors require --seed")
        return generate_anchors(sample.n, sample.p, "random", seed=seed_sequence(args.seed, "anchors"))
    return generate_anchors(sample.n, sample.p, "halton")


def _cmd_test(args) -> None:
    if args.seed is None:
        raise ConfigError("'test' requires --seed (Monte Carlo p-value must be reproducible)")
    sample = load_sample(args.data, args.delimiter)
    model = build_model(args.model, sample)
    observed_fit = fit(model, sample)
    anchors = _observed_anchors(args, sample)
    geometry = fixed_geometry(model, sample, observed_fit, anchor_set=anchors, grid=args.grid)
    residuals = bootstrap_residuals(
        model, sample, observed_fit, seed=args.seed, reps=args.reps, error_law=args.error_law
    )
    stats, observed_procs = residual_statistics(geometry, residuals)
    key = f"{args.process}.{args.statistic}"
    observed = {k: float(v[0]) for k, v in stats.items()}
    observed_stat = observed[key]
    boot_stats = stats[key][1:]
    pvalue = (1.0 + float(np.sum(boot_stats >= observed_stat))) / (args.reps + 1.0)

    outdir = _resolve_outdir(args)
    write_table(
        outdir / "statistics.csv",
        ["process", "statistic", "value"],
        ((k.split(".")[0], k.split(".")[1], v) for k, v in sorted(observed.items())),
        args.delimiter,
    )
    write_ecdf(outdir / "null_ecdf.csv", Ecdf(boot_stats), args.delimiter)
    for kind, proc in observed_procs.items():
        write_process_dump(outdir / f"process_{kind}.csv", proc, args.delimiter)

    basis = make_basis(sample.p, model.d)
    lines = [
        "command: test",
        f"data: {args.data}",
        f"model: {args.model}",
        f"seed: {args.seed}",
        f"basis: {basis.describe()}",
        f"statistic: {key} = {_fmt_float(observed_stat)}",
        f"pvalue: {_fmt_float(pvalue)} ({args.reps} null replications)",
    ]
    write_text_atomic(outdir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def _cmd_assign(args) -> None:
    raw = load_points(args.data, args.delimiter)
    points, lo, hi = rescale_unit_cube(raw)
    if args.anchors == "random":
        if args.seed is None:
            raise ConfigError("random anchors require --seed")
        anchors = generate_anchors(points.shape[0], points.shape[1], "random", seed=seed_sequence(args.seed, "anchors"))
    else:
        anchors = generate_anchors(points.shape[0], points.shape[1], "halton")
    assignment = solve_assignment(points, anchors)
    per_point = np.linalg.norm(points - anchors.points[assignment.sigma], axis=1)
    outdir = _resolve_outdir(args)
    write_table(
        outdir / "assignment.csv",
        ["index", "anchor_index", "cost"],
        ((i, int(assignment.sigma[i]), per_point[i]) for i in range(points.shape[0])),
        args.delimiter,
        footer=f"# total_cost={_fmt_float(assignment.cost)}",
    )
    lines = [
        "command: assign",
        f"data: {args.data}",
        f"anchors: {anchors.mode}",
        f"n: {points.shape[0]}  p: {points.shape[1]}",
        "rescale_low: " + ", ".join(_fmt_float(v) for v in lo),
        "rescale_high: " + ", ".join(_fmt_float(v) for v in hi),
        f"total_cost: {_fmt_float(assignment.cost)}",
    ]
    write_text_atomic(outdir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def _cmd_limits(args) -> None:
    outdir = _resolve_outdir(args)
    xs = np.arange(0, args.steps + 1) * (2.5 / args.steps)
    write_table(
        outdir / "kolmogorov_cdf.csv",
        ["x", "cdf"],
        zip(xs, kolmogorov_cdf(xs)),
        args.delimiter,
    )
    basis = make_basis(args.p, args.d)
    files = ["kolmogorov_cdf.csv"]
    if args.p == 1:
        grid = np.arange(1, 20) / 20.0
        rows = ((s, t, limit_covariance([s], [t], basis)) for s in grid for t in grid)
        write_table(outdir / "limit_covariance.csv", ["s", "t", "cov"], rows, args.delimiter)
        files.append("limit_covariance.csv")
    else:
        axis = np.arange(1, 5) / 5.0
        pts = [np.array(tup) for tup in itertools.product(axis, repeat=args.p)]
        header = [f"x{j + 1}" for j in range(args.p)] + [f"y{j + 1}" for j in range(args.p)] + ["cov"]
        rows = (tuple(x) + tuple(y) + (limit_covariance(x, y, basis),) for x in pts for y in pts)
        write_table(outdir / "limit_covariance.csv", header, rows, args.delimiter)
        files.append("limit_covariance.csv")
    lines = [
        "command: limits",
        f"basis: {basis.describe()}",
        "files: " + ", ".join(files),
    ]
    write_text_atomic(outdir / "summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))


def _add_common(sub, seed_help="master seed"):
    sub.add_argument("-o", "--output-dir", default=None, help=f"output directory (default ${OUTPUT_DIR_ENV} or ./dfgof_out)")
    sub.add_argument("--delimiter", default=",", help="field delimiter for input and output files")
    sub.add_argument("--seed", type=int, default=None, help=seed_help)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dfgof", description="Distribution-free goodness-of-fit testing for parametric regression.")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    sim = subs.add_parser("simulate", help="simulate the null distribution of a statistic")
    sim.add_argument("config", help="experiment config file")
    _add_common(sim)
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--design", default=None, help="comma-separated design ids (overrides config)")
    sim.add_argument("--statistic", default=None)
    sim.add_argument("--process", default=None)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--plot-data", action="store_true", help="also write (value, reference cdf, level) columns")
    sim.set_defaults(handler=_cmd_simulate)

    pow_ = subs.add_parser("power", help="simulate an alternative against its paired null")
    pow_.add_argument("config")
    _add_common(pow_)
    pow_.add_argument("--reps", type=int, default=None)
    pow_.add_argument("--n", type=int, default=None)
    pow_.add_argument("--design", default=None)
    pow_.add_argument("--statistic", default=None)
    pow_.add_argument("--process", default=None)
    pow_.add_argument("--workers", type=int, default=1)
    pow_.add_argument("--psi", default=None)
    pow_.add_argument("--amplitude", type=float, default=None)
    pow_.add_argument("--local-scaling", action="store_const", const=True, default=None)
    pow_.set_defaults(handler=_cmd_power)

    fit_ = subs.add_parser("fit", help="fit a model to a data file")
    fit_.add_argument("data")
    fit_.add_argument("--model", required=True, choices=tuple(MODEL_KINDS))
    _add_common(fit_)
    fit_.set_defaults(handler=_cmd_fit)

    test = subs.add_parser("test", help="goodness-of-fit test on a data file")
    test.add_argument("data")
    test.add_argument("--model", required=True, choices=tuple(MODEL_KINDS))
    _add_common(test, seed_help="master seed (required)")
    test.add_argument("--reps", type=int, default=200, help="null replications for the p-value")
    test.add_argument("--statistic", default="ks_abs", choices=["ks_abs", "ks_plus", "cvm"])
    test.add_argument("--process", default="transformed", choices=["transformed", "raw"])
    test.add_argument("--anchors", default="halton", choices=["halton", "random"])
    test.add_argument("--grid", type=int, default=None)
    test.add_argument("--error-law", default="normal", choices=["normal", "uniform"])
    test.set_defaults(handler=_cmd_test)

    asg = subs.add_parser("assign", help="optimal transport matching of a covariate file")
    asg.add_argument("data")
    asg.add_argument("--anchors", default="halton", choices=["halton", "random"])
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
        args.handler(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
