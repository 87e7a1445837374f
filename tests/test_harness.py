import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfgof.harness as harness
from dfgof.errors import ConfigError, NumericalError
from dfgof.harness import (
    BLOCK,
    PROCESS_KINDS,
    STATISTICS,
    DESIGNS,
    PSI_FUNCTIONS,
    AlternativeSpec,
    ExperimentConfig,
    _draw_errors,
    bootstrap_residuals,
    covariate_design,
    fixed_anchors,
    fixed_geometry,
    paired_runs,
    pipeline_records,
    power_result,
    process_statistics,
    residual_statistics,
    run_experiment,
    run_experiments,
)
from dfgof.model import MODEL_KINDS, Sample, build_model, fit
from dfgof.process import Ecdf, build_process, ecdf_sup_distance, ecdf_vs_cdf_sup, ks_statistics
from dfgof.seeding import rngs_for, seed_sequence
from dfgof.transport import DENSE_MAX, generate_anchors


def small_config(**kw):
    base = dict(design=("uniform_0_2",), model="simple_linear", n=30, reps=10, seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


def power_of(config):
    """The power of an alternative config against its paired null, as
    ``dfgof power`` computes it for one design."""
    return power_result(*run_experiments(paired_runs(config)))


class TestCovariateDesign:
    def test_uniform_0_2_range(self):
        x = covariate_design("uniform_0_2", 500, seed=1)
        assert x.shape == (500, 1)
        assert x.min() >= 0.0 and x.max() <= 2.0

    def test_beta_designs_in_unit_square(self):
        for design in ("beta_dep_a", "beta_dep_b", "beta_indep"):
            x = covariate_design(design, 400, seed=2)
            assert x.shape == (400, 2)
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_normal_design_is_unbounded_ish(self):
        x = covariate_design("normal_1_2", 2000, seed=3)
        assert x.std() == pytest.approx(np.sqrt(2.0), rel=0.1)
        assert x.mean() == pytest.approx(1.0, abs=0.1)

    def test_deterministic_per_seed(self):
        a = covariate_design("beta_dep_a", 50, seed=7)
        b = covariate_design("beta_dep_a", 50, seed=7)
        assert np.array_equal(a, b)

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="design"):
            covariate_design("lognormal", 10, seed=0)

    def test_dimension_check(self):
        # a design's dimension is checked against the model's in the config
        with pytest.raises(ConfigError, match="2-dimensional designs"):
            ExperimentConfig(design=("uniform_0_2",), model="bilinear2d", n=30, reps=5, seed=1)

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_table_dimension_is_the_draw_width(self, design):
        p = DESIGNS[design][0]
        x = covariate_design(design, 40, seed=4)
        assert x.shape == (40, p)
        assert np.all(np.isfinite(x))

    def test_beta_dep_designs_share_their_first_draws(self):
        # the two dependent designs swap the shape parameters of x2 only:
        # same seed, same x1, and x2 stays in [0, 1]
        a = covariate_design("beta_dep_a", 300, seed=5)
        b = covariate_design("beta_dep_b", 300, seed=5)
        assert np.array_equal(a[:, 0], b[:, 0])
        assert not np.array_equal(a[:, 1], b[:, 1])
        # x2 | x1 ~ Beta(8 (1 - x1), 8 x1) has mean 1 - x1; swapped, mean x1
        assert np.corrcoef(a[:, 0], a[:, 1])[0, 1] < -0.5
        assert np.corrcoef(b[:, 0], b[:, 1])[0, 1] > 0.5

    @pytest.mark.parametrize("psi", sorted(PSI_FUNCTIONS))
    def test_psi_reads_a_design_of_its_dimension(self, psi):
        p, formula = PSI_FUNCTIONS[psi]
        x = np.random.default_rng(6).uniform(size=(7, p))
        shift = formula(x)
        assert shift.shape == (7,)
        assert np.array_equal(formula(x[None])[0], shift)  # (..., p) stacks


class TestFixedAnchors:
    def test_one_halton_net_serves_every_seed(self):
        net = fixed_anchors(300, 2)
        assert fixed_anchors(300, 2) is net
        assert np.array_equal(net.points, generate_anchors(300, 2, "halton").points)


class TestConfigValidation:
    def test_design_model_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(design=("beta_dep_a",), model="simple_linear", n=30, reps=5, seed=1)

    def test_unknown_statistic(self):
        with pytest.raises(ConfigError, match="statistic"):
            small_config(statistic="anderson")

    def test_psi_dimension_checked(self):
        with pytest.raises(ConfigError, match="psi"):
            small_config(alternative=AlternativeSpec(psi="x2_cubed", amplitude=1.0))

    def test_bad_amplitude(self):
        with pytest.raises(ConfigError, match="amplitude"):
            AlternativeSpec(psi="x_squared", amplitude=float("nan"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a config refuses it with a usage error, before any stream is made
        with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            small_config(seed=seed)
        assert small_config(seed=seed % 2**64).seed == seed % 2**64

    def test_string_design_promoted_to_tuple(self):
        cfg = ExperimentConfig(design="uniform_0_2", model="simple_linear", n=30, reps=5, seed=1)
        assert cfg.design == ("uniform_0_2",)


class TestEcdf:
    def test_reps_one(self):
        ecdf = run_experiment(small_config(reps=1)).ecdf()
        assert ecdf.size == 1

    def test_sorted_values_and_quantile(self):
        ecdf = Ecdf(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(ecdf.sorted_values, [1.0, 2.0, 3.0])
        assert ecdf.quantile(0.5) == 2.0
        assert ecdf.quantile(1.0) == 3.0

    def test_sup_distance_identical(self):
        e = Ecdf(np.arange(10.0))
        assert ecdf_sup_distance(e, e) == 0.0

    def test_sup_distance_disjoint(self):
        assert ecdf_sup_distance(Ecdf(np.array([0.0, 1.0])), Ecdf(np.array([5.0, 6.0]))) == 1.0

    def test_sup_distance_hand_case(self):
        assert ecdf_sup_distance(Ecdf(np.array([1.0, 3.0])), Ecdf(np.array([2.0, 4.0]))) == 0.5

    def test_sup_distance_to_a_cdf_hand_case(self):
        # steps 0 -> 1/2 -> 1 at 1/4 and 3/4 sit 1/4 from the uniform cdf at both jumps
        assert ecdf_vs_cdf_sup(Ecdf(np.array([0.75, 0.25])), lambda x: x) == 0.25

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
    def test_sup_distance_to_a_cdf_matches_jump_by_jump_scan(self, xs):
        ecdf = Ecdf(np.array(xs))
        n = ecdf.size
        scan = max(
            max(abs(i / n - v), abs((i - 1) / n - v)) for i, v in enumerate(ecdf.sorted_values, start=1)
        )
        assert ecdf_vs_cdf_sup(ecdf, lambda x: x) == scan

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    )
    def test_sup_distance_is_a_bounded_symmetric_metric(self, xs, ys):
        a, b = Ecdf(np.array(xs)), Ecdf(np.array(ys))
        d = ecdf_sup_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == ecdf_sup_distance(b, a)
        assert ecdf_sup_distance(a, a) == 0.0


class TestRunExperiment:
    def test_reproducible_across_worker_counts(self):
        cfg = small_config(reps=BLOCK + 12)  # two blocks, so two workers make a pool
        r1 = run_experiment(cfg, workers=1)
        r2 = run_experiment(cfg, workers=2)
        assert set(r1.columns) == set(r2.columns)
        for key in r1.columns:
            assert np.array_equal(r1.columns[key], r2.columns[key])

    def test_records_cover_both_processes(self):
        res = run_experiment(small_config())
        for kind in ("transformed", "raw"):
            for stat in STATISTICS:
                assert f"{kind}.{stat}" in res.columns

    def test_multi_design_config_rejected_at_run(self):
        cfg = small_config(design=("uniform_0_2", "normal_1_2"))
        with pytest.raises(ConfigError, match="run_experiments needs exactly one design"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "config",
        [
            small_config(reps=BLOCK + 9),
            small_config(
                design=("beta_dep_a",), model="bilinear2d", n=24, reps=BLOCK + 9,
                alternative=AlternativeSpec(psi="x2_squared", amplitude=0.5),
            ),
        ],  # fmt: skip
        ids=["p1-null", "p2-alt"],
    )
    def test_block_records_are_those_of_per_replication_streams(self, config):
        # a block makes its streams together; each replication must get the
        # draws of its own one-stream range, numpy's SeedSequence stream of
        # its path, in a whole and a partial block
        design = config.design[0]
        for start in (0, BLOCK):
            draws = []
            for i in range(start, min(start + BLOCK, config.reps)):
                path = (config.seed, "design", design, harness._variant_tag(config), "rep", i)
                (rng,) = rngs_for(*path[:-1], indices=range(i, i + 1))
                assert rng.bit_generator.state == np.random.default_rng(seed_sequence(*path)).bit_generator.state
                draws.append((DESIGNS[design][1](config.n, rng), _draw_errors(config.error_law, config.n, rng)))
            records, dropped = harness._block(config, design, start)
            expected = harness._stack_records(config, draws)
            assert dropped == 0 and records.keys() == expected.keys()
            for key, column in expected.items():
                assert records[key].tobytes() == column.tobytes(), (start, key)

    @pytest.mark.usefixtures("first_replication_fails")
    def test_failure_fraction_guard(self):
        cfg = small_config(reps=20)
        with pytest.raises(NumericalError, match="failed to fit"):
            run_experiment(cfg)  # 1/20 = 5% > 1%

    @pytest.mark.usefixtures("first_replication_fails")
    def test_failures_below_threshold_are_reported(self):
        cfg = small_config(reps=200)
        res = run_experiment(cfg)
        assert res.failures == 1
        assert np.array_equal(res.columns["transformed.ks_abs"], np.arange(1, 200))


class TestRunExperiments:
    """Several single-design configs as one task list."""

    CONFIGS = (
        dict(reps=70),
        dict(design=("normal_1_2",), reps=5, seed=4),
        dict(reps=70, alternative=AlternativeSpec(psi="x_squared", amplitude=1.0)),
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_config_gets_the_records_of_its_own_run(self, workers):
        configs = [small_config(**kw) for kw in self.CONFIGS]
        for config, res in zip(configs, run_experiments(configs, workers=workers)):
            alone = run_experiment(config)
            assert res.config == config and res.failures == alone.failures == 0
            assert set(res.columns) == set(alone.columns)
            for key in alone.columns:
                assert np.array_equal(res.columns[key], alone.columns[key])

    def test_elapsed_adds_up_to_the_wall_time_of_the_run(self):
        configs = [small_config(**kw) for kw in self.CONFIGS]
        start = time.perf_counter()
        results = run_experiments(configs, workers=2)
        wall = time.perf_counter() - start
        assert all(res.elapsed >= 0.0 for res in results)
        assert sum(res.elapsed for res in results) <= wall

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            run_experiments([small_config()], workers=workers)

    def test_multi_design_config_rejected(self):
        with pytest.raises(ConfigError, match="run_experiments needs exactly one design"):
            run_experiments([small_config(), small_config(design=("uniform_0_2", "normal_1_2"))])

    @pytest.mark.usefixtures("first_replication_fails")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_guard_holds_per_config_and_stops_the_pool(self, workers):
        # 1 of 200 passes the 1% guard, 1 of 20 does not
        with pytest.raises(NumericalError, match="1 of 20 replications"):
            run_experiments([small_config(reps=200), small_config(reps=20), small_config(reps=200)], workers=workers)
        assert multiprocessing.active_children() == []

    def test_pool_size_is_capped_by_the_blocks_and_the_cores(self, monkeypatch):
        # a pool starts all its processes at once: no more are asked for
        # than there are blocks to run or cores to run them
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        one_block = small_config(reps=BLOCK)
        huge = run_experiment(one_block, workers=10**6)
        assert sizes == []
        plain = run_experiment(one_block, workers=1)
        assert set(huge.columns) == set(plain.columns)
        for key in plain.columns:
            assert np.array_equal(huge.columns[key], plain.columns[key])
        run_experiment(small_config(reps=BLOCK + 1), workers=10**6)
        assert sizes == ([2] if (os.cpu_count() or 1) >= 2 else [])


    def test_long_task_lists_go_out_in_chunks_of_blocks(self, monkeypatch):
        # 25 blocks: more than 4 per process of any pool this machine makes,
        # so the pool gets chunks of ceil(25 / (4 * pool size)) blocks
        chunks = []

        class ChunkRecordingPool(harness.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                chunks.append(len(args[0]))  # the blocks of one chunk
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", ChunkRecordingPool)
        blocks = 25
        config = small_config(reps=(blocks - 1) * BLOCK + 5)
        expected = []
        results = {}
        for workers in (1, 2, 3):
            results[workers] = run_experiments([config], workers=workers)[0]
            size = min(workers, os.cpu_count() or 1)
            if size > 1:
                chunk = math.ceil(blocks / (4 * size))
                expected += [chunk] * (blocks // chunk) + ([blocks % chunk] if blocks % chunk else [])
        assert chunks == expected
        assert (os.cpu_count() or 1) < 2 or max(chunks) > 1
        for workers in (2, 3):
            assert results[workers].columns.keys() == results[1].columns.keys()
            for key, column in results[1].columns.items():
                assert results[workers].columns[key].tobytes() == column.tobytes(), (workers, key)
        assert multiprocessing.active_children() == []


class TestSimulate:
    def test_power_requires_alternative(self):
        with pytest.raises(ConfigError, match="a power run requires a config with an alternative"):
            paired_runs(small_config())

    def test_zero_amplitude_recovers_null_distribution(self):
        cfg = small_config(
            n=50, reps=400, seed=99, alternative=AlternativeSpec(psi="x_squared", amplitude=0.0)
        )
        power = power_of(cfg)
        # same law: sup distance within the two-sample 99% band
        bound = 2.0 * 1.36 * np.sqrt(2.0 / 400)
        assert ecdf_sup_distance(power.ecdf, power.null_ecdf) < bound
        assert power.rejection_rate_at[0.05] == pytest.approx(0.05, abs=0.035)

    def test_positive_amplitude_shifts_the_statistic(self):
        cfg = small_config(
            n=80, reps=250, seed=5, alternative=AlternativeSpec(psi="x_squared", amplitude=1.5)
        )
        power = power_of(cfg)
        assert power.rejection_rate_at[0.05] > 0.3

    def test_alternative_adds_amplitude_times_psi(self):
        # the response of an alternative run is mean(1, ..., 1) + amplitude * psi + e
        alternative = AlternativeSpec(psi="x_squared", amplitude=1.5)
        cfg = small_config(n=100, reps=BLOCK, seed=8, alternative=alternative)
        draws = harness._draws(cfg, cfg.design[0], range(cfg.reps))
        x = np.stack([xi for xi, _ in draws])
        errors = np.stack([ei for _, ei in draws])
        model = build_model(cfg.model, Sample(x, np.zeros(errors.shape)))
        y = model.mean(np.ones(cfg.d), x) + 1.5 * PSI_FUNCTIONS["x_squared"][1](x) + errors
        sample = Sample(x, y)
        expected = pipeline_records(model, sample, fit(model, sample))
        columns = run_experiment(cfg).columns
        assert columns.keys() == expected.keys()
        for key, column in columns.items():
            assert np.array_equal(column, expected[key]), key


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_fitted_residuals_do_not_depend_on_the_true_parameter(kind):
    # every built-in kind is linear, so the residuals of mean(theta) + e are
    # (I - P) e whatever theta is: a simulation can fix theta = (1, ..., 1).
    # They differ by rounding alone, which scales with |Y| (at most
    # 4.4 eps |Y| over n = 30 to 1000, five draws each)
    p, d = MODEL_KINDS[kind]
    eps = np.finfo(float).eps
    for design in (name for name, (design_p, _) in DESIGNS.items() if design_p == p):
        x = covariate_design(design, 200, seed=31)
        e = np.random.default_rng(32).standard_normal(200)
        model = build_model(kind, Sample(x, e))
        reference = fit(model, Sample(x, e)).residuals
        for scale in (0.0, 1.0, 7.5, -40.0):
            y = model.mean(np.full(d, scale), x) + e
            residuals = fit(model, Sample(x, y)).residuals
            assert np.linalg.norm(residuals - reference) <= 16 * eps * np.linalg.norm(y), (design, scale)


class TestTiedCovariates:
    """Five distinct covariate values: every statistic, and the bootstrap
    p-value, must be the same whatever order the tied rows come in."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(12)
        n = 200
        x = rng.integers(0, 5, size=n).astype(float)
        return x, 1.0 + 0.5 * x + rng.standard_normal(n)

    def test_statistics_do_not_depend_on_row_order(self):
        x, y = self._data()
        n = x.shape[0]
        records = []
        for k in range(4):
            perm = np.random.default_rng(k).permutation(n)
            sample = Sample(x[perm], y[perm])
            model = build_model("centered_linear", sample)
            records.append(pipeline_records(model, sample, fit(model, sample)))
        assert set(records[0]) == {f"{kind}.{stat}" for kind in ("transformed", "raw") for stat in STATISTICS}
        for key, value in records[0].items():
            for other in records[1:]:
                assert other[key] == pytest.approx(value, rel=1e-9, abs=0.0), key

    def test_bootstrap_pvalues_do_not_depend_on_row_order(self):
        x, y = self._data()
        _assert_bootstrap_row_order_free("centered_linear", x, y)


def _bootstrap_statistics(kind, x, y, *, seed=3, reps=40):
    """Every statistic of the observed column and the bootstrap columns, as
    ``dfgof test`` computes them."""
    sample = Sample(x, y)
    model = build_model(kind, sample)
    observed_fit = fit(model, sample)
    geometry = fixed_geometry(model, sample, observed_fit)
    residuals = bootstrap_residuals(model, geometry, observed_fit, seed=seed, reps=reps, error_law="normal")
    return _all_statistics(geometry, residuals)[0]


def _all_statistics(geometry, residuals):
    """Statistics of both processes for every residual column, and the
    processes of column 0."""
    stats = {}
    for kind in ("transformed", "raw"):
        selected, first = residual_statistics(geometry, residuals, kind)
        assert set(selected) == {f"{kind}.{stat}" for stat in STATISTICS}
        stats.update(selected)
    return stats, first


def _assert_same_statistics(reference, other, rel=1e-9):
    """Each statistic agrees to ``rel`` of its process's sup norm: a path
    that never rises above its start has a ks_plus of rounding size."""
    assert set(other) == set(reference)
    for key, value in reference.items():
        scale = np.abs(reference[key.replace("ks_plus", "ks_abs")])
        assert np.all(np.abs(np.asarray(other[key]) - value) <= rel * scale), key


def _assert_bootstrap_row_order_free(kind, x, y):
    n = x.shape[0]
    stats = [_bootstrap_statistics(kind, x, y)]
    for k in range(3):
        perm = np.random.default_rng(k).permutation(n)
        stats.append(_bootstrap_statistics(kind, x[perm], y[perm]))
    for other in stats[1:]:
        _assert_same_statistics(stats[0], other)
        for key, values in other.items():
            assert _pvalue(values[1:], values[0]) == _pvalue(stats[0][key][1:], stats[0][key][0]), key


def test_bivariate_bootstrap_pvalues_do_not_depend_on_row_order():
    # above DENSE_MAX, where the assignment is warm-started; continuous
    # covariates, so no two rows coincide
    n = 300
    assert n > DENSE_MAX
    x = covariate_design("beta_dep_a", n, seed=6)
    y = 1.0 + x.sum(axis=1) + np.random.default_rng(6).standard_normal(n)
    _assert_bootstrap_row_order_free("bilinear2d", x, y)


def _records(kind, x, y):
    sample = Sample(x, y)
    model = build_model(kind, sample)
    return pipeline_records(model, sample, fit(model, sample))


class TestPipelineInvariance:
    """pipeline_records statistics under a row permutation and under a
    per-coordinate affine rescale x -> a x + b with a > 0."""

    @settings(max_examples=8)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 200),
        tied=st.booleans(),
        scale=st.floats(0.1, 10.0),
        shift=st.floats(-10.0, 10.0),
    )
    def test_univariate(self, seed, n, tied, scale, shift):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 5, size=n).astype(float) if tied else rng.uniform(0.5, 2.0, size=n)
        y = 1.0 + 0.5 * x + rng.standard_normal(n)
        perm = rng.permutation(n)
        base = _records("centered_linear", x, y)
        _assert_same_statistics(base, _records("centered_linear", x[perm], y[perm]))
        _assert_same_statistics(base, _records("centered_linear", scale * x + shift, y))

    @pytest.mark.parametrize("n", [60, DENSE_MAX + 44])
    @settings(max_examples=4)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    )
    def test_bivariate(self, seed, n, scale, shift):
        # continuous covariates from a drawn seed: no two rows coincide
        x = covariate_design("beta_dep_a", n, seed=seed)
        rng = np.random.default_rng(seed)
        y = 1.0 + x.sum(axis=1) + rng.standard_normal(n)
        perm = rng.permutation(n)
        base = _records("bilinear2d", x, y)
        _assert_same_statistics(base, _records("bilinear2d", x[perm], y[perm]))
        # the rescale keeps the nested gradient spans {1}, {1, x1}, ... and
        # so the score basis, the fit, the assignment and both processes
        _assert_same_statistics(base, _records("bilinear2d", x * np.array(scale) + np.array(shift), y))


def _bootstrap_case(kind, n, seed):
    """A null sample of a CLI model kind; tied_linear is centered_linear on
    covariates with five distinct values."""
    rng = np.random.default_rng(seed)
    if kind == "bilinear2d":
        x = covariate_design("beta_dep_a", n, seed=seed)
    elif kind == "tied_linear":
        x = rng.integers(0, 5, size=n).astype(float)
    else:
        x = rng.uniform(0.5, 2.0, size=n)
    model_kind = "centered_linear" if kind == "tied_linear" else kind
    probe = Sample(x, np.zeros(n))
    model = build_model(model_kind, probe)
    sample = Sample(x, model.mean(np.ones(model.d), probe.X) + rng.standard_normal(n))
    return model, sample


def _pvalue(boot, observed):
    return (1.0 + np.sum(boot >= observed)) / (boot.size + 1.0)


class TestBatchedBootstrap:
    """One geometry and one residual matrix give what a refit per bootstrap
    replicate gives."""

    @pytest.mark.parametrize("law", ["normal", "uniform"])
    @pytest.mark.parametrize("kind", ["simple_linear", "centered_linear", "tied_linear", "bilinear2d"])
    def test_matches_refit_per_replicate(self, kind, law):
        reps, seed = 30, 17
        model, sample = _bootstrap_case(kind, 60, 4)
        observed_fit = fit(model, sample)
        geometry = fixed_geometry(model, sample, observed_fit)
        residuals = bootstrap_residuals(model, geometry, observed_fit, seed=seed, reps=reps, error_law=law)
        assert residuals.shape == (sample.n, reps + 1)
        batch, first = _all_statistics(geometry, residuals)

        null_mean = model.mean(observed_fit.theta_hat, sample.X)
        # draw k goes to the row at scan position k: the k-th scan point in
        # lexicographic order (rows of a tie in row order)
        points = geometry.points.reshape(sample.n, -1)
        scan = sorted(range(sample.n), key=lambda i: (tuple(points[i]), i))
        records = [pipeline_records(model, sample, observed_fit)]
        for b in range(reps):
            eps = np.empty(sample.n)
            eps[scan] = _draw_errors(law, sample.n, np.random.default_rng(seed_sequence(seed, "bootstrap", b)))
            boot = Sample(sample.X, null_mean + eps)
            records.append(pipeline_records(model, boot, fit(model, boot)))

        assert set(batch) == {f"{kind}.{stat}" for kind in ("transformed", "raw") for stat in STATISTICS}
        for key, values in batch.items():
            reference = np.array([record[key] for record in records])
            scale = np.abs(reference)
            if key.endswith("ks_plus"):
                # a path that never rises above its start has a ks_plus of
                # rounding size; rounding scales with the path's sup norm
                sup = np.array([record[key.replace("ks_plus", "ks_abs")] for record in records])
                scale = np.maximum(scale, sup)
            assert np.all(np.abs(values - reference) <= 1e-12 * scale), key
            assert _pvalue(values[1:], values[0]) == _pvalue(reference[1:], reference[0]), key
        # the processes handed back for the dumps are those of the observed residuals
        assert np.abs(first["transformed"].eval_values).max() == batch["transformed.ks_abs"][0]

    @pytest.mark.parametrize("kind", ["simple_linear", "tied_linear", "bilinear2d"])
    def test_observed_column_is_the_simulation_record(self, kind):
        # one evaluation path: column 0 of the bootstrap matrix gets what a
        # simulation records for the sample, bit for bit, whatever B is
        model, sample = _bootstrap_case(kind, 200, 9)
        observed_fit = fit(model, sample)
        record = pipeline_records(model, sample, observed_fit)
        geometry = fixed_geometry(model, sample, observed_fit)
        for reps in (1, 7, 40):
            residuals = bootstrap_residuals(model, geometry, observed_fit, seed=5, reps=reps, error_law="normal")
            for process in PROCESS_KINDS:
                stats, first = residual_statistics(geometry, residuals, process)
                assert process_statistics(first) == record, (reps, process)
                for key, values in stats.items():
                    assert values[0] == record[key], (reps, key)

    @pytest.mark.parametrize(("kind", "n"), [("centered_linear", 2000), ("bilinear2d", 500)])
    def test_null_columns_do_not_depend_on_reps(self, kind, n):
        # each draw is projected on its own, so the first 100 null columns
        # and statistics of 200 replicates are those of 100, bit for bit
        model, sample = _bootstrap_case(kind, n, 8)
        observed_fit = fit(model, sample)
        geometry = fixed_geometry(model, sample, observed_fit)
        runs = {}
        for reps in (100, 200):
            residuals = bootstrap_residuals(model, geometry, observed_fit, seed=3, reps=reps, error_law="normal")
            runs[reps] = residuals, *(residual_statistics(geometry, residuals, process)[0] for process in PROCESS_KINDS)
        (short, *short_stats), (long, *long_stats) = runs[100], runs[200]
        assert long[:, :101].tobytes() == short.tobytes()
        for few, many in zip(short_stats, long_stats):
            for key, values in few.items():
                assert many[key][:101].tobytes() == values.tobytes(), key

    @pytest.mark.parametrize("kind", ["simple_linear", "bilinear2d"])
    def test_columns_are_studentized(self, kind):
        # each column is divided by |e| / sqrt(n - d): its raw process is
        # that of the unit-scale column, and multiples of it by powers of
        # two get the same statistics bit for bit
        model, sample = _bootstrap_case(kind, 60, 4)
        observed_fit = fit(model, sample)
        geometry = fixed_geometry(model, sample, observed_fit)
        e = observed_fit.residuals
        unit = e / (np.linalg.norm(e) / np.sqrt(60 - model.d))
        for process in PROCESS_KINDS:
            stats, _ = residual_statistics(geometry, np.column_stack([e, 4.0 * e, 0.25 * e]), process)
            for key, values in stats.items():
                assert values[1] == values[0] == values[2], key
        reference = ks_statistics(build_process(unit, geometry.plans["raw"]))
        assert stats["raw.ks_abs"][0] == pytest.approx(reference["ks_abs"], rel=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        # -1 and 2**64 would otherwise draw the columns of 2**64 - 1 and 0
        model, sample = _bootstrap_case("simple_linear", 30, 5)
        fitres = fit(model, sample)
        geometry = fixed_geometry(model, sample, fitres)
        with pytest.raises(ValueError, match=r"integer label must lie in \[0, 2\*\*64\)"):
            bootstrap_residuals(model, geometry, fitres, seed=seed, reps=3, error_law="normal")

    def test_zero_residual_column_raises(self):
        model, sample = _bootstrap_case("simple_linear", 30, 5)
        geometry = fixed_geometry(model, sample, fit(model, sample))
        residuals = np.column_stack([fit(model, sample).residuals, np.zeros(30)])
        with pytest.raises(NumericalError, match="zero norm"):
            residual_statistics(geometry, residuals, "transformed")

    def test_nonlinear_model_rejected(self):
        model, sample = _bootstrap_case("simple_linear", 30, 5)
        custom = build_model("custom", mean=model.mean, grad=model.grad, d=1)
        fitres = fit(model, sample)
        geometry = fixed_geometry(model, sample, fitres)
        with pytest.raises(ConfigError, match="linear"):
            bootstrap_residuals(custom, geometry, fitres, seed=1, reps=3, error_law="normal")
