"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line with its measured numbers (run with -s to see them).

Heavy simulations run once per worker count through module-scoped fixtures;
the determinism test byte-compares the files the two passes wrote.

Two references are chosen with care, and both choices are checked here:

* the univariate null law is compared with the Kolmogorov law corrected for
  discrete monitoring, K(x + 0.5826/sqrt(n)), not with the asymptotic K(x).
  The transformed max-statistic is the maximum of a bridge observed at the
  n rank times only, and at n=200 that maximum sits about 0.070 from K in
  sup distance but within 0.005 of the corrected law;
* the sine mean shift is run at the amplitude whose part orthogonal to the
  bilinear model span matches the cubic's at amplitude 1.  On the
  ``beta_indep`` design x2 piles up near 0 and 1, where sin(pi x2 / 2) is
  almost linear, so at amplitude 1 most of the sine is absorbed by the fit.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dfgof.basis import make_basis, sample_on_points
from dfgof.fileio import write_ecdf, write_table
from dfgof.harness import (
    BLOCK,
    DESIGNS,
    PSI_FUNCTIONS,
    AlternativeSpec,
    ExperimentConfig,
    _draws,
    _variant_tag,
    bootstrap_residuals,
    covariate_design,
    fixed_geometry,
    pipeline_processes,
    process_statistics,
    residual_processes,
    residual_statistics,
    run_experiment,
)
from dfgof.model import Sample, build_model, fit, score_basis
from dfgof.process import (
    SIEGMUND_BETA,
    Ecdf,
    ecdf_sup_distance,
    ecdf_vs_cdf_sup,
    kolmogorov_cdf,
    lattice_resolution,
    limit_covariance,
)
from dfgof.seeding import seed_sequence
from dfgof.transport import generate_anchors, rescale_unit_cube, solve_assignment
from oracles import brute_force_assignment, transform_matrix, uniform_anchors

pytestmark = pytest.mark.acceptance

SEED_NULL_P1 = 20260808
SEED_FIG3 = 30308
SEED_COV = 50505
SEED_POWER = 60606
SEED_LEVEL = 70707

P1_DESIGNS = ("uniform_0_2", "normal_1_2")
P2_DESIGNS = ("beta_dep_a", "beta_dep_b", "beta_indep")
# interior times of the p = 1 covariance check, and (i, j) of the p = 2
# lattice nodes (i/63, j/63) of its counterpart
COV_TIMES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
COV_NODES = ((16, 16), (16, 48), (32, 32), (48, 16), (48, 48), (21, 42))

# The sine shift is run at the amplitude whose part orthogonal to the
# bilinear model span has the same mean norm as the cubic's at amplitude 1.
# On the power fixture's 1000 beta_indep draws (n=200) those mean norms are
# 1.842 (x2^3) and 1.007 (sin(pi x2 / 2)), so the amplitude is
# 1.842 / 1.007 = 1.83.  test_power_floors_against_mean_shifts re-measures
# the two norms and keeps this constant tied to the rule.
SINE_AMPLITUDE = 1.83


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _dump(result, outdir, tag: str) -> None:
    write_ecdf(outdir / f"{tag}_ecdf.csv", result.ecdf())
    keys = sorted(result.columns)
    write_table(outdir / f"{tag}_columns.csv", keys, np.column_stack([result.columns[k] for k in keys]))


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    return {w: tmp_path_factory.mktemp(f"workers{w}") for w in (1, 2)}


@pytest.fixture(scope="module")
def univariate_null_runs(workdirs):
    runs = {}
    for workers, outdir in workdirs.items():
        runs[workers] = {}
        for design in P1_DESIGNS:
            cfg = ExperimentConfig(
                design=(design,), model="simple_linear", n=200, reps=2000, seed=SEED_NULL_P1
            )
            res = run_experiment(cfg, workers=workers)
            _dump(res, outdir, f"null_univariate_{design}")
            runs[workers][design] = res
    return runs


@pytest.fixture(scope="module")
def bivariate_null_runs(workdirs):
    runs = {}
    for workers, outdir in workdirs.items():
        runs[workers] = {}
        for design in P2_DESIGNS:
            cfg = ExperimentConfig(
                design=(design,),
                model="bilinear2d",
                n=200,
                reps=1000,
                seed=SEED_FIG3,
                statistic="ks_plus",
            )
            res = run_experiment(cfg, workers=workers)
            _dump(res, outdir, f"null_bivariate_{design}")
            runs[workers][design] = res
    return runs


@pytest.fixture(scope="module")
def power_runs(workdirs):
    variants = {
        "null": None,
        "x2_cubed": AlternativeSpec(psi="x2_cubed", amplitude=1.0),
        "sin_half_pi_x2": AlternativeSpec(psi="sin_half_pi_x2", amplitude=SINE_AMPLITUDE),
        "amp0": AlternativeSpec(psi="x2_cubed", amplitude=0.0),
    }
    runs = {}
    for workers, outdir in workdirs.items():
        runs[workers] = {}
        for tag, alternative in variants.items():
            cfg = ExperimentConfig(
                design=("beta_indep",),
                model="bilinear2d",
                n=200,
                reps=1000,
                seed=SEED_POWER,
                statistic="ks_abs",
                alternative=alternative,
            )
            res = run_experiment(cfg, workers=workers)
            _dump(res, outdir, f"power_{tag}")
            runs[workers][tag] = res
    return runs


def _assignment_table(seed_salt: int):
    rows = []
    for p in (1, 2, 3):
        for n in range(2, 8):
            for i in range(100):
                rng = np.random.default_rng(seed_sequence(seed_salt, "assign", p, n, i))
                x = rng.uniform(0.0, 1.0, size=(n, p))
                anchors = uniform_anchors(n, p, seed=(seed_salt, p, n, i))
                fast = solve_assignment(x, anchors)
                slow = brute_force_assignment(x, anchors)
                rows.append((p, n, i, fast.cost, slow.cost))
    return rows


def test_exact_residual_covariance_identities():
    """A A^T = I - sum_k ref_k ref_k^T exactly for all built-in model kinds."""
    start = time.perf_counter()
    worst = 0.0
    for n in (50, 200):
        for kind in ("simple_linear", "centered_linear", "bilinear2d"):
            rng = np.random.default_rng(seed_sequence(1, "identity", kind, n))
            if kind == "bilinear2d":
                x = np.column_stack([rng.uniform(0, 1, n), rng.beta(2.0, 3.0, n)])
            else:
                x = rng.uniform(0.2, 2.0, n)[:, None]
            probe = Sample(x, np.zeros(n))
            model = build_model(kind, probe)
            sample = Sample(x, model.mean(np.ones(model.d), x) + rng.standard_normal(n))
            fitres = fit(model, sample)
            score = score_basis(model, fitres, sample)
            if sample.p == 1:
                times = np.searchsorted(np.sort(x[:, 0]), x[:, 0], side="right") / n
                reference = sample_on_points(make_basis(1, model.d), times)
            else:
                x01, _, _ = rescale_unit_cube(x)
                anchors = generate_anchors(n, 2, "halton")
                points = anchors.points[solve_assignment(x01, anchors).sigma]
                reference = sample_on_points(make_basis(2, model.d), points)
            a = transform_matrix(score, reference)
            target = np.eye(n) - reference.vectors.T @ reference.vectors
            worst = max(worst, float(np.abs(a @ a.T - target).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(
        "exact residual covariance identity (3 model kinds, n in {50, 200})",
        ok,
        f"max entrywise error {worst:.2e} (tol 1e-10), elapsed {elapsed:.2f}s (< 1s)",
    )
    assert worst < 1e-10
    assert elapsed < 1.0


def _discrete_kolmogorov_cdf(n: int):
    """Kolmogorov law of the bridge maximum observed at the n times i/n:
    K(x + beta / sqrt(n)), the asymptotic law K with Siegmund's correction."""
    shift = SIEGMUND_BETA / math.sqrt(n)
    return lambda x: kolmogorov_cdf(x + shift)


def test_discrete_kolmogorov_reference_matches_partial_sum_maxima():
    """The corrected law is within 0.01 of 100,000 exact n=200 maxima of
    partial sums of N(0, I - 11^T/n), where the asymptotic law is > 0.05 off."""
    n, draws, chunk = 200, 100_000, 10_000
    rng = np.random.default_rng(seed_sequence(SEED_NULL_P1, "discrete kolmogorov reference"))
    maxima = []
    for _ in range(draws // chunk):
        z = rng.standard_normal((chunk, n))
        z -= z.mean(axis=1, keepdims=True)
        maxima.append(np.abs(np.cumsum(z, axis=1)).max(axis=1) / math.sqrt(n))
    ecdf = Ecdf(np.concatenate(maxima))
    corrected = ecdf_vs_cdf_sup(ecdf, _discrete_kolmogorov_cdf(n))
    asymptotic = ecdf_vs_cdf_sup(ecdf, kolmogorov_cdf)
    ok = corrected <= 0.01 and asymptotic > 0.05
    _report(
        "discrete-monitoring Kolmogorov reference (n=200, 100000 draws)",
        ok,
        f"corrected law {corrected:.4f} (<= 0.01), asymptotic law {asymptotic:.4f} (> 0.05)",
    )
    assert corrected <= 0.01
    assert asymptotic > 0.05


def test_univariate_null_law_matches_reference(univariate_null_runs):
    """Transformed max-statistic at n=200: designs agree within 0.05 and each
    ECDF is within 0.06 of the discrete-monitoring Kolmogorov law."""
    runs = univariate_null_runs[2]
    n = runs[P1_DESIGNS[0]].config.n
    reference = _discrete_kolmogorov_cdf(n)
    ecdfs = {design: res.ecdf("transformed", "ks_abs") for design, res in runs.items()}
    dists = {design: ecdf_vs_cdf_sup(e, reference) for design, e in ecdfs.items()}
    asymptotic = {design: ecdf_vs_cdf_sup(e, kolmogorov_cdf) for design, e in ecdfs.items()}
    cross = ecdf_sup_distance(ecdfs[P1_DESIGNS[0]], ecdfs[P1_DESIGNS[1]])
    elapsed = sum(res.elapsed for res in runs.values())
    ok = all(d <= 0.06 for d in dists.values()) and cross <= 0.05
    detail = (
        ", ".join(
            f"{k} vs reference {v:.4f} (<= 0.06; asymptotic law {asymptotic[k]:.4f})"
            for k, v in dists.items()
        )
        + f", between designs {cross:.4f} (<= 0.05), elapsed {elapsed:.1f}s (target < 120s)"
    )
    _report(f"univariate null law (n={n}, 2000 reps, 2 designs)", ok, detail)
    assert cross <= 0.05, f"the two designs' ECDFs are {cross:.4f} apart"
    for design, dist in dists.items():
        assert dist <= 0.06, (
            f"{design}: ECDF is {dist:.4f} from the discrete-monitoring Kolmogorov law "
            f"K(x + {SIEGMUND_BETA}/sqrt({n}))"
        )


def test_bivariate_null_law_design_free(bivariate_null_runs):
    """Transported max-statistic: the three covariate designs coincide within
    0.07 while the untransformed statistic separates them further."""
    runs = bivariate_null_runs[2]
    t_max = r_max = 0.0
    details = []
    for a, b in itertools.combinations(P2_DESIGNS, 2):
        dt = ecdf_sup_distance(runs[a].ecdf("transformed", "ks_plus"), runs[b].ecdf("transformed", "ks_plus"))
        dr = ecdf_sup_distance(runs[a].ecdf("raw", "ks_plus"), runs[b].ecdf("raw", "ks_plus"))
        t_max, r_max = max(t_max, dt), max(r_max, dr)
        details.append(f"{a}|{b}: t={dt:.3f} r={dr:.3f}")
    elapsed = sum(res.elapsed for res in runs.values())
    ok = t_max <= 0.07 and r_max > max(t_max, 0.07)
    _report(
        "bivariate null law across designs (n=200, 1000 reps)",
        ok,
        "; ".join(details)
        + f"; transformed max {t_max:.4f} (<= 0.07), raw max {r_max:.4f} (> transformed), "
        f"elapsed {elapsed:.1f}s (target < 900s)",
    )
    assert t_max <= 0.07
    assert r_max > t_max
    assert r_max > 0.07  # at least one raw pair is genuinely separated


def test_assignment_solver_exact_on_enumerable_instances(workdirs):
    """Solver cost equals the brute-force optimum exactly on 100 instances
    for every n in 2..7 and p in 1..3."""
    start = time.perf_counter()
    mismatches = 0
    for workers, outdir in workdirs.items():
        rows = _assignment_table(4)
        write_table(outdir / "assignment_costs.csv", ["p", "n", "i", "solver", "brute"], np.array(rows))
        if workers == 2:
            mismatches = sum(1 for _, _, _, a, b in rows if a != b)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        "assignment solver vs exhaustive oracle (1800 instances)",
        ok,
        f"{mismatches} cost mismatches (exact equality), elapsed {elapsed:.2f}s (< 10s)",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def _transformed_processes(config: ExperimentConfig):
    """The stacked transformed process of each block of a null run's
    replications, drawn from the run's own streams."""
    for start in range(0, config.reps, BLOCK):
        draws = _draws(config, config.design[0], range(start, min(start + BLOCK, config.reps)))
        x = np.stack([xi for xi, _ in draws])
        errors = np.stack([ei for _, ei in draws])
        model = build_model(config.model, Sample(x, np.zeros(errors.shape)))
        sample = Sample(x, model.mean(np.ones(config.d), x) + errors)
        fitres = fit(model, sample)
        yield pipeline_processes(model, sample, fitres)["transformed"]


def test_transformed_process_covariance_matches_bridge():
    """Empirical covariance of the transformed process at 9 interior times
    equals min(s,t) - s t within 0.03 (n=300, 20000 replications), and the
    process ends at 0 in every sample."""
    cfg = ExperimentConfig(design=("uniform_0_2",), model="simple_linear", n=300, reps=20000, seed=SEED_COV)
    start = time.perf_counter()
    # without ties the evaluation points are 0, 1/n, ..., 1: time t is column round(t n)
    columns = [round(t * cfg.n) for t in COV_TIMES]
    values, ends = [], 0.0
    for proc in _transformed_processes(cfg):
        assert np.all(proc.eval_points[:, columns, 0] == COV_TIMES)
        values.append(proc.eval_values[:, columns])
        # the constant direction is removed, so the process ends at 0
        ends = max(ends, float(np.abs(proc.eval_values[:, -1]).max()))
    elapsed = time.perf_counter() - start
    emp = np.cov(np.concatenate(values), rowvar=False)
    target = np.array([[min(s, t) - s * t for t in COV_TIMES] for s in COV_TIMES])
    err = float(np.abs(emp - target).max())
    ok = err < 0.03 and ends < 1e-8 and elapsed < 300.0
    _report(
        "transformed process covariance (n=300, 20000 reps)",
        ok,
        f"max |cov - (min(s,t) - st)| = {err:.4f} (< 0.03), max |value at t=1| {ends:.1e} (< 1e-8), "
        f"elapsed {elapsed:.1f}s (< 300s)",
    )
    assert err < 0.03
    assert ends < 1e-8
    assert elapsed < 300.0


@pytest.mark.parametrize("design", ["beta_dep_a", "beta_indep"])
def test_bivariate_process_covariance_matches_limit(design):
    """Empirical covariance of the transformed bilinear2d process at 6
    lattice nodes equals limit_covariance within 0.03 (n=200, 1000
    replications), and the process is 0 at the corner (1, 1)."""
    cfg = ExperimentConfig(design=(design,), model="bilinear2d", n=200, reps=1000, seed=SEED_COV)
    m = lattice_resolution(cfg.p)
    start = time.perf_counter()
    # the lattice follows the n scan points, node (i, j) at index i m + j
    columns = [cfg.n + i * m + j for i, j in COV_NODES]
    nodes = np.array(COV_NODES) / (m - 1)
    values, corners = [], 0.0
    for proc in _transformed_processes(cfg):
        assert np.all(proc.eval_points[:, columns] == nodes)
        assert np.all(proc.eval_points[:, -1] == 1.0)
        values.append(proc.eval_values[:, columns])
        corners = max(corners, float(np.abs(proc.eval_values[:, -1]).max()))
    elapsed = time.perf_counter() - start
    emp = np.cov(np.concatenate(values), rowvar=False)
    basis = make_basis(cfg.p, cfg.d)
    target = np.array([[limit_covariance(x, y, basis) for y in nodes] for x in nodes])
    err = float(np.abs(emp - target).max())
    ok = err < 0.03 and corners < 1e-8
    _report(
        f"bivariate transformed process covariance ({design}, n=200, 1000 reps)",
        ok,
        f"max |cov - limit_covariance| = {err:.4f} (< 0.03), max |value at (1, 1)| {corners:.1e} (< 1e-8), "
        f"elapsed {elapsed:.1f}s",
    )
    assert err < 0.03
    assert corners < 1e-8


def _mean_orthogonal_norm(config: ExperimentConfig) -> float:
    """Mean Euclidean norm, over the run's design draws, of the part of the
    mean shift orthogonal to the model span (the part no fit can absorb)."""
    alt = config.alternative
    norms = []
    for i in range(config.reps):
        # Same stream as the run's replication i, whose covariates are drawn first.
        stream = seed_sequence(config.seed, "design", config.design[0], _variant_tag(config), "rep", i)
        x = covariate_design(config.design[0], config.n, seed=stream)
        model = build_model(config.model, Sample(x, np.zeros(config.n)))
        q, _ = np.linalg.qr(model.grad(np.ones(model.d), x))
        h = alt.amplitude * PSI_FUNCTIONS[alt.psi][1](x)
        norms.append(np.linalg.norm(h - q @ (q.T @ h)))
    return float(np.mean(norms))


# (model kind, design, n) of the level check of the studentized bootstrap
LEVEL_CASES = (("centered_linear", "uniform_0_2", 200), ("bilinear2d", "beta_dep_a", 300))
LEVEL_FILES = 200
LEVEL_REPS = 99
LEVEL_SCALES = (0.25, 4.0)


def _bootstrap_pvalues(kind: str, design: str, n: int, index: int) -> list[float]:
    """Bootstrap p-values of the transformed ks_abs statistic of one null
    file, X and errors drawn once, at each response c * (mean + eps) with c
    in LEVEL_SCALES: the path of ``dfgof test``."""
    rng = np.random.default_rng(seed_sequence(SEED_LEVEL, "level", design, index))
    x = DESIGNS[design][1](n, rng)
    eps = rng.standard_normal(n)
    model = build_model(kind, Sample(x, np.zeros(n)))
    mean = model.mean(np.ones(model.d), x)
    pvalues = []
    for c in LEVEL_SCALES:
        sample = Sample(x, c * (mean + eps))
        fitres = fit(model, sample)
        geometry = fixed_geometry(model, sample, fitres)
        observed = process_statistics(residual_processes(geometry, fitres.residuals))["transformed.ks_abs"]
        null = bootstrap_residuals(model, geometry, fitres, seed=index, reps=LEVEL_REPS, error_law="normal")
        stats = residual_statistics(geometry, null, "transformed")["transformed.ks_abs"]
        pvalues.append((1.0 + float(np.sum(stats >= observed))) / (LEVEL_REPS + 1.0))
    return pvalues


@pytest.mark.parametrize(("kind", "design", "n"), LEVEL_CASES)
def test_studentized_bootstrap_has_its_level_at_any_error_scale(kind, design, n):
    """Every residual column is studentized, so the p-value of a null file
    does not change when the response is scaled by 1/4 or 4, and the 5%
    rejection rate of 200 null files lies within 3 binomial sd of 0.05."""
    start = time.perf_counter()
    pvalues = np.array([_bootstrap_pvalues(kind, design, n, i) for i in range(LEVEL_FILES)])
    elapsed = time.perf_counter() - start
    same = bool(np.array_equal(pvalues[:, 0], pvalues[:, 1]))
    rate = float(np.mean(pvalues[:, 0] <= 0.05))
    ok = same and 0.004 <= rate <= 0.096
    _report(
        f"studentized bootstrap level ({kind}, {design}, n={n}, B={LEVEL_REPS}, {LEVEL_FILES} files)",
        ok,
        f"p-values identical at c = 1/4 and c = 4: {same}; rejection at 5% {rate:.3f} "
        f"([0.004, 0.096]), at 10% {float(np.mean(pvalues[:, 0] <= 0.10)):.3f}, elapsed {elapsed:.1f}s",
    )
    assert same, "a null file's p-value changed with the scale of its response"
    assert 0.004 <= rate <= 0.096, f"5% rejection rate {rate:.3f}"


def test_power_floors_against_mean_shifts(power_runs):
    """Transformed max-statistic at the simulated 5% critical value: both
    mean-shift alternatives exceed a 0.10 rejection floor, amplitude 0
    recovers the 5% level within 0.02.  The sine runs at the amplitude whose
    model-orthogonal part matches the cubic's (within 10%)."""
    runs = power_runs[2]
    critical = runs["null"].ecdf("transformed", "ks_abs").quantile(0.95)
    rates = {
        tag: float(np.mean(runs[tag].ecdf("transformed", "ks_abs").sorted_values > critical))
        for tag in ("x2_cubed", "sin_half_pi_x2", "amp0")
    }
    perp = {tag: _mean_orthogonal_norm(runs[tag].config) for tag in ("x2_cubed", "sin_half_pi_x2")}
    perp_ratio = perp["sin_half_pi_x2"] / perp["x2_cubed"]
    ok = (
        rates["x2_cubed"] > 0.10
        and rates["sin_half_pi_x2"] > 0.10
        and abs(rates["amp0"] - 0.05) <= 0.02
        and abs(perp_ratio - 1.0) <= 0.10
    )
    _report(
        "power floors (bilinear model, n=200, 1000 reps, 5% level)",
        ok,
        f"critical {critical:.4f}; cubic {rates['x2_cubed']:.4f} (> 0.10), "
        f"sine at amplitude {SINE_AMPLITUDE} {rates['sin_half_pi_x2']:.4f} (> 0.10), "
        f"amplitude-0 {rates['amp0']:.4f} (0.05 +/- 0.02); mean orthogonal norm "
        f"cubic {perp['x2_cubed']:.3f}, sine {perp['sin_half_pi_x2']:.3f} (ratio 1 +/- 0.10)",
    )
    assert abs(perp_ratio - 1.0) <= 0.10, (
        f"sine amplitude {SINE_AMPLITUDE} gives a model-orthogonal part of mean norm "
        f"{perp['sin_half_pi_x2']:.3f} against the cubic's {perp['x2_cubed']:.3f}"
    )
    assert abs(rates["amp0"] - 0.05) <= 0.02, f"amplitude-0 rejection {rates['amp0']:.4f}"
    assert rates["x2_cubed"] > 0.10, f"cubic rejection {rates['x2_cubed']:.4f}"
    assert rates["sin_half_pi_x2"] > 0.10, (
        f"sine rejection {rates['sin_half_pi_x2']:.4f} at amplitude {SINE_AMPLITUDE}, "
        f"where its model-orthogonal part matches the cubic's"
    )


def test_bitwise_determinism_across_worker_counts(
    workdirs, univariate_null_runs, bivariate_null_runs, power_runs
):
    """The same seeds with 1 or 2 workers produce byte-identical output files."""
    files1 = sorted(f.name for f in workdirs[1].iterdir())
    files2 = sorted(f.name for f in workdirs[2].iterdir())
    same_names = files1 == files2
    diffs = [
        name
        for name in files1
        if (workdirs[1] / name).read_bytes() != (workdirs[2] / name).read_bytes()
    ]
    ok = same_names and not diffs
    _report(
        "bitwise determinism across worker counts",
        ok,
        f"{len(files1)} files compared, {len(diffs)} differ" + (f": {diffs}" if diffs else ""),
    )
    assert same_names
    assert diffs == []
