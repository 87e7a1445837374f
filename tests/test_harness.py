import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfgof.errors import ConfigError, NumericalError
from dfgof.harness import (
    STATISTICS,
    AlternativeSpec,
    Ecdf,
    ExperimentConfig,
    _draw_errors,
    bootstrap_residuals,
    covariate_design,
    ecdf_sup_distance,
    ecdf_vs_cdf_sup,
    fixed_geometry,
    pipeline_records,
    residual_statistics,
    run_experiment,
    simulate_null,
    simulate_power,
)
from dfgof.model import Sample, build_model, fit
from dfgof.seeding import rng_for
from dfgof.transport import generate_anchors


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

    def test_string_design_promoted_to_tuple(self):
        cfg = ExperimentConfig(design="uniform_0_2", model="simple_linear", n=30, reps=5, seed=1)
        assert cfg.design == ("uniform_0_2",)


class TestEcdf:
    def test_reps_one(self):
        ecdf = simulate_null(small_config(reps=1))
        assert ecdf.size == 1

    def test_value_at_and_quantile(self):
        ecdf = Ecdf(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(ecdf.sorted_values, [1.0, 2.0, 3.0])
        assert ecdf.value_at(2.0) == pytest.approx(2 / 3)
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
            for stat in ("ks_abs", "ks_plus", "cvm"):
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

    def test_failure_fraction_guard(self, monkeypatch):
        import dfgof.harness as harness

        calls = {"i": 0}

        def failing(config, design_id, index):
            calls["i"] += 1
            return None if index == 0 else {"transformed.ks_abs": 1.0}

        monkeypatch.setattr(harness, "_replication", failing)
        cfg = small_config(reps=20)
        with pytest.raises(NumericalError, match="failed to fit"):
            run_experiment(cfg)  # 1/20 = 5% > 1%

    def test_failures_below_threshold_are_reported(self, monkeypatch):
        import dfgof.harness as harness

        def failing(config, design_id, index):
            return None if index == 0 else {"transformed.ks_abs": float(index)}

        monkeypatch.setattr(harness, "_replication", failing)
        cfg = small_config(reps=200)
        res = run_experiment(cfg)
        assert res.failures == 1
        assert res.reps_used == 199


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
        residuals = bootstrap_residuals(model, sample, observed_fit, seed=seed, reps=reps, error_law=law)
        assert residuals.shape == (sample.n, reps + 1)
        batch, first = residual_statistics(geometry, residuals)

        null_mean = model.mean(observed_fit.theta_hat, sample.X)
        records = [pipeline_records(model, sample, observed_fit, anchor_set=anchors)]
        for b in range(reps):
            eps = _draw_errors(law, sample.n, rng_for(seed, "bootstrap", b))
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
        with pytest.raises(ConfigError, match="linear"):
            bootstrap_residuals(custom, sample, fit(model, sample), seed=1, reps=3, error_law="normal")
