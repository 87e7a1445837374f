import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfgof.errors import ConfigError, NumericalError
from dfgof.harness import (
    STATISTICS,
    AlternativeSpec,
    ExperimentConfig,
    _draw_errors,
    bootstrap_residuals,
    covariate_design,
    fixed_geometry,
    pipeline_records,
    residual_statistics,
    run_experiment,
    simulate_null,
    simulate_power,
)
from dfgof.model import Sample, build_model, fit
from dfgof.process import Ecdf, ecdf_sup_distance, ecdf_vs_cdf_sup
from dfgof.seeding import rng_for
from dfgof.transport import DENSE_MAX, generate_anchors


def small_config(**kw):
    base = dict(design=("uniform_0_2",), model="simple_linear", n=30, reps=10, seed=123)
    base.update(kw)
    return ExperimentConfig(**base)


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
        with pytest.raises(ConfigError):
            covariate_design("uniform_0_2", 10, p=2, seed=0)


class TestConfigValidation:
    def test_design_model_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(design=("beta_dep_a",), model="simple_linear", n=30, reps=5, seed=1)

    def test_unknown_statistic(self):
        with pytest.raises(ConfigError, match="statistic"):
            small_config(statistic="anderson")

    def test_theta_length_checked(self):
        with pytest.raises(ConfigError, match="theta_true"):
            small_config(theta_true=(1.0, 2.0))

    def test_psi_dimension_checked(self):
        with pytest.raises(ConfigError, match="psi"):
            small_config(alternative=AlternativeSpec(psi="x2_cubed", amplitude=1.0))

    def test_bad_amplitude(self):
        with pytest.raises(ConfigError, match="amplitude"):
            AlternativeSpec(psi="x_squared", amplitude=float("nan"))

    @pytest.mark.parametrize("times", [(1.5,), (0.5, float("nan"))])
    def test_probe_times_outside_unit_interval_rejected(self, times):
        with pytest.raises(ConfigError, match="probe_times"):
            small_config(probe_times=times)

    def test_string_design_promoted_to_tuple(self):
        cfg = ExperimentConfig(design="uniform_0_2", model="simple_linear", n=30, reps=5, seed=1)
        assert cfg.design == ("uniform_0_2",)


class TestEcdf:
    def test_reps_one(self):
        ecdf = simulate_null(small_config(reps=1))
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
        cfg = small_config(reps=12)
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

    def test_probe_values_match_process_definition(self):
        cfg = small_config(reps=3, probe_times=(0.5, 1.0))
        res = run_experiment(cfg)
        probes = res.probes()
        assert probes.shape == (3, 2)
        # final process value vanishes: the constant direction is removed
        assert np.abs(probes[:, 1]).max() < 1e-8

    def test_multi_design_config_rejected_at_run(self):
        cfg = small_config(design=("uniform_0_2", "normal_1_2"))
        with pytest.raises(ConfigError, match="exactly one design"):
            run_experiment(cfg)

    @staticmethod
    def _first_replication_fails(monkeypatch):
        """Replace the per-block unit by one whose replication 0 fails and
        whose replication i records i."""
        import dfgof.harness as harness

        def failing(config, design_id, start):
            kept = [i for i in range(start, min(start + harness.BLOCK, config.reps)) if i != 0]
            dropped = min(harness.BLOCK, config.reps - start) - len(kept)
            return {"transformed.ks_abs": np.array(kept, dtype=float)}, dropped

        monkeypatch.setattr(harness, "_block", failing)

    def test_failure_fraction_guard(self, monkeypatch):
        self._first_replication_fails(monkeypatch)
        cfg = small_config(reps=20)
        with pytest.raises(NumericalError, match="failed to fit"):
            run_experiment(cfg)  # 1/20 = 5% > 1%

    def test_failures_below_threshold_are_reported(self, monkeypatch):
        self._first_replication_fails(monkeypatch)
        cfg = small_config(reps=200)
        res = run_experiment(cfg)
        assert res.failures == 1
        assert np.array_equal(res.columns["transformed.ks_abs"], np.arange(1, 200))


class TestSimulate:
    def test_null_rejects_alternative_config(self):
        cfg = small_config(alternative=AlternativeSpec(psi="x_squared", amplitude=1.0))
        with pytest.raises(ConfigError):
            simulate_null(cfg)

    def test_power_requires_alternative(self):
        with pytest.raises(ConfigError):
            simulate_power(small_config())

    def test_zero_amplitude_recovers_null_distribution(self):
        cfg = small_config(
            n=50, reps=400, seed=99, alternative=AlternativeSpec(psi="x_squared", amplitude=0.0)
        )
        power = simulate_power(cfg)
        # same law: sup distance within the two-sample 99% band
        bound = 2.0 * 1.36 * np.sqrt(2.0 / 400)
        assert ecdf_sup_distance(power.ecdf, power.null_ecdf) < bound
        assert power.rejection_rate_at[0.05] == pytest.approx(0.05, abs=0.035)

    def test_positive_amplitude_shifts_the_statistic(self):
        cfg = small_config(
            n=80, reps=250, seed=5, alternative=AlternativeSpec(psi="x_squared", amplitude=1.5)
        )
        power = simulate_power(cfg)
        assert power.rejection_rate_at[0.05] > 0.3

    def test_local_scaling_divides_amplitude(self):
        cfg_fixed = small_config(
            n=100, reps=60, seed=8, alternative=AlternativeSpec(psi="x_squared", amplitude=1.0)
        )
        cfg_local = small_config(
            n=100,
            reps=60,
            seed=8,
            alternative=AlternativeSpec(psi="x_squared", amplitude=10.0, local_scaling=True),
        )
        fixed = simulate_power(cfg_fixed)
        local = simulate_power(cfg_local)
        assert np.array_equal(fixed.ecdf.sorted_values, local.ecdf.sorted_values)

    def test_truth_value_does_not_move_transformed_statistic_much(self):
        # distribution-freeness also covers the true parameter value
        a = simulate_null(small_config(n=60, reps=300, seed=21))
        b = simulate_null(small_config(n=60, reps=300, seed=22, theta_true=(7.5,)))
        bound = 2.0 * 1.36 * np.sqrt(2.0 / 300)
        assert ecdf_sup_distance(a, b) < bound


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
        _assert_bootstrap_row_order_free("centered_linear", x, y, anchors=None)


def _bootstrap_statistics(kind, x, y, anchors, *, seed=3, reps=40):
    """Every statistic of the observed column and the bootstrap columns, as
    ``dfgof test`` computes them."""
    sample = Sample(x, y)
    model = build_model(kind, sample)
    observed_fit = fit(model, sample)
    geometry = fixed_geometry(model, sample, observed_fit, anchor_set=anchors)
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


def _assert_bootstrap_row_order_free(kind, x, y, anchors):
    n = x.shape[0]
    stats = [_bootstrap_statistics(kind, x, y, anchors)]
    for k in range(3):
        perm = np.random.default_rng(k).permutation(n)
        stats.append(_bootstrap_statistics(kind, x[perm], y[perm], anchors))
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
    _assert_bootstrap_row_order_free("bilinear2d", x, y, generate_anchors(n, 2, "halton"))


def _records(kind, x, y):
    sample = Sample(x, y)
    model = build_model(kind, sample)
    anchors = generate_anchors(sample.n, 2, "halton") if sample.p == 2 else None
    return pipeline_records(model, sample, fit(model, sample), anchor_set=anchors)


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
    anchors = generate_anchors(n, 2, "halton") if sample.p == 2 else None
    return model, sample, anchors


def _pvalue(boot, observed):
    return (1.0 + np.sum(boot >= observed)) / (boot.size + 1.0)


class TestBatchedBootstrap:
    """One geometry and one residual matrix give what a refit per bootstrap
    replicate gives."""

    @pytest.mark.parametrize("law", ["normal", "uniform"])
    @pytest.mark.parametrize("kind", ["simple_linear", "centered_linear", "tied_linear", "bilinear2d"])
    def test_matches_refit_per_replicate(self, kind, law):
        reps, seed = 30, 17
        model, sample, anchors = _bootstrap_case(kind, 60, 4)
        observed_fit = fit(model, sample)
        geometry = fixed_geometry(model, sample, observed_fit, anchor_set=anchors)
        residuals = bootstrap_residuals(model, geometry, observed_fit, seed=seed, reps=reps, error_law=law)
        assert residuals.shape == (sample.n, reps + 1)
        batch, first = _all_statistics(geometry, residuals)

        null_mean = model.mean(observed_fit.theta_hat, sample.X)
        # draw k goes to the row at scan position k: the k-th scan point in
        # lexicographic order (rows of a tie in row order)
        points = geometry.points.reshape(sample.n, -1)
        scan = sorted(range(sample.n), key=lambda i: (tuple(points[i]), i))
        records = [pipeline_records(model, sample, observed_fit, anchor_set=anchors)]
        for b in range(reps):
            eps = np.empty(sample.n)
            eps[scan] = _draw_errors(law, sample.n, rng_for(seed, "bootstrap", b))
            boot = Sample(sample.X, null_mean + eps)
            records.append(pipeline_records(model, boot, fit(model, boot), anchor_set=anchors))

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

    def test_nonlinear_model_rejected(self):
        model, sample, _ = _bootstrap_case("simple_linear", 30, 5)
        custom = build_model("custom", mean=model.mean, grad=model.grad, d=1)
        fitres = fit(model, sample)
        geometry = fixed_geometry(model, sample, fitres)
        with pytest.raises(ConfigError, match="linear"):
            bootstrap_residuals(custom, geometry, fitres, seed=1, reps=3, error_law="normal")
