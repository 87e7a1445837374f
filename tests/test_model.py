import numpy as np
import pytest

from dfgof.errors import NumericalError, RankDeficiencyError, SingularMatrixError
from dfgof.model import (
    FitResult,
    RegressionModel,
    Sample,
    build_model,
    fit,
    fit_gauss_newton,
    fit_linear,
    score_basis,
)


def exp_model():
    return build_model(
        "custom",
        mean=lambda th, x: np.exp(th[0] * x[:, 0]),
        grad=lambda th, x: (x[:, 0] * np.exp(th[0] * x[:, 0]))[:, None],
        d=1,
    )


def _linear_model(design):
    """A model linear in theta whose gradient columns are ``design(x)``."""
    return RegressionModel(
        kind="linear", d=2, mean=lambda th, x: design(x) @ th, grad=lambda th, x: design(x), linear=True
    )


class TestSample:
    def test_one_dimensional_covariates_promoted(self):
        s = Sample(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert s.X.shape == (3, 1)
        assert s.n == 3 and s.p == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Sample(np.array([[1.0], [np.nan], [2.0]]), np.zeros(3))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="n >= p"):
            Sample(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))


class TestFitLinear:
    def test_noiseless_proportional_response(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        sample = Sample(x, 2.0 * x)
        result = fit_linear(build_model("simple_linear"), sample)
        assert result.theta_hat[0] == pytest.approx(2.0, abs=1e-12)
        assert np.abs(result.residuals).max() < 1e-12

    def test_constant_response_centered_model(self):
        sample = Sample(np.array([0.3, 1.7, 2.9]), np.array([3.0, 3.0, 3.0]))
        model = build_model("centered_linear", sample)
        result = fit_linear(model, sample)
        assert result.theta_hat[0] == pytest.approx(3.0, abs=1e-12)
        assert result.theta_hat[1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_slope(self):
        sample = Sample(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        result = fit_linear(build_model("simple_linear"), sample)
        assert result.theta_hat[0] == pytest.approx(17.0 / 14.0, rel=1e-14)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 2, 60)
        sample = Sample(x, 1.0 + 0.5 * x + rng.standard_normal(60))
        model = build_model("centered_linear", sample)
        result = fit_linear(model, sample)
        design = model.grad(result.theta_hat, sample.X)
        assert np.abs(design.T @ result.residuals).max() < 1e-8 * np.linalg.norm(sample.Y)

    def test_rank_deficient_design_rejected(self):
        sample = Sample(np.linspace(0, 1, 8), np.zeros(8))
        model = _linear_model(lambda x: np.column_stack([x[:, 0], 2.0 * x[:, 0]]))
        with pytest.raises(RankDeficiencyError):
            fit_linear(model, sample)

    def test_bilinear2d_recovers_truth_noiselessly(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(50, 2))
        probe = Sample(x, np.zeros(50))
        model = build_model("bilinear2d", probe)
        theta = np.array([1.0, -0.5, 2.0, 0.75])
        sample = Sample(x, model.mean(theta, x))
        result = fit_linear(model, sample)
        assert np.allclose(result.theta_hat, theta, atol=1e-10)


class TestGaussNewton:
    def test_linear_model_reached_in_one_iteration(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 2, 40)
        y = 1.5 * x + rng.standard_normal(40)
        sample = Sample(x, y)
        closed = fit_linear(build_model("simple_linear"), sample)
        custom = build_model(
            "custom",
            mean=lambda th, xx: th[0] * xx[:, 0],
            grad=lambda th, xx: xx[:, :1].copy(),
            d=1,
        )
        result = fit_gauss_newton(custom, sample, np.array([0.0]), max_iter=5)
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(closed.theta_hat[0], abs=1e-8)

    def test_noiseless_exponential_recovery(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2, 80)
        model = exp_model()
        sample = Sample(x, np.exp(0.5 * x))
        result = fit_gauss_newton(model, sample, np.array([0.0]))
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_iterations_returns_start(self):
        sample = Sample(np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 3.0]))
        result = fit_gauss_newton(exp_model(), sample, np.array([0.25]), max_iter=0)
        assert not result.converged
        assert result.iterations == 0
        assert result.theta_hat[0] == 0.25

    def test_rank_deficient_jacobian_names_the_rank(self):
        x = np.linspace(0.1, 1.0, 10)
        model = RegressionModel(
            kind="custom",
            d=2,
            mean=lambda th, xx: (th[0] + th[1]) * xx[:, 0],
            grad=lambda th, xx: np.column_stack([xx[:, 0], xx[:, 0]]),
        )
        with pytest.raises(SingularMatrixError, match=r"Jacobian has rank 1 < d = 2 at iterate 1"):
            fit_gauss_newton(model, Sample(x, 2.0 * x + 0.1), np.zeros(2))

    def test_dispatcher_routes_by_kind(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 2, 30)
        sample = Sample(x, np.exp(0.3 * x) + 0.01 * rng.standard_normal(30))
        result = fit(exp_model(), sample, theta0=np.array([0.0]))
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(0.3, abs=0.05)


class TestScoreBasis:
    def test_simple_linear_gives_normalized_covariates(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5, 2.0, 25)
        sample = Sample(x, 2.0 * x + rng.standard_normal(25))
        model = build_model("simple_linear")
        result = fit(model, sample)
        out = score_basis(model, result, sample)
        expected = x / np.linalg.norm(x)
        assert np.allclose(out.vectors[0], expected, atol=1e-12)

    def test_centered_linear_gives_constant_and_centered_unit(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 2, 30)
        sample = Sample(x, 1.0 + x + rng.standard_normal(30))
        model = build_model("centered_linear", sample)
        result = fit(model, sample)
        out = score_basis(model, result, sample)
        n = 30
        assert np.allclose(out.vectors[0], np.ones(n) / np.sqrt(n), atol=1e-12)
        centered = x - x.mean()
        assert np.allclose(out.vectors[1], centered / np.linalg.norm(centered), atol=1e-12)

    def test_bilinear2d_matches_thin_qr_in_model_order(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 3.0, size=(40, 2))
        probe = Sample(x, np.zeros(40))
        model = build_model("bilinear2d", probe)
        sample = Sample(x, model.mean(np.ones(4), probe.X) + rng.standard_normal(40))
        out = score_basis(model, fit(model, sample), sample)
        q, r = np.linalg.qr(model.grad(np.zeros(4), x))
        q = q * np.sign(np.diag(r))  # R with a positive diagonal fixes Q
        assert np.abs(out.vectors - q.T).max() < 1e-12

    @pytest.mark.parametrize(
        "kind, scale, shift",
        [
            ("bilinear2d", (3.0, 0.2), (-5.0, 7.0)),
            ("bilinear2d", (3.0, 0.2), (0.0, 0.0)),
            ("bilinear2d", (1.0, 1.0), (-5.0, 7.0)),
            ("centered_linear", (3.0,), (-5.0,)),
        ],
    )
    def test_affine_rescale_with_positive_scales_keeps_the_basis(self, kind, scale, shift):
        rng = np.random.default_rng(11)
        p = len(scale)
        x = rng.uniform(0.0, 3.0, size=(60, p))
        y = x.sum(axis=1) + rng.standard_normal(60)
        bases = []
        for xx in (x, x * np.array(scale) + np.array(shift)):
            sample = Sample(xx, y)
            model = build_model(kind, sample)
            bases.append(score_basis(model, fit(model, sample), sample).vectors)
        assert np.abs(bases[1] - bases[0]).max() < 1e-10

    def test_duplicated_gradient_columns_rejected(self):
        sample = Sample(np.linspace(0.1, 1, 10), np.zeros(10))
        model = _linear_model(lambda x: np.column_stack([x[:, 0], x[:, 0]]))
        bad_fit = FitResult(
            theta_hat=np.zeros(2),
            residuals=np.zeros(10),
            converged=True,
            iterations=0,
        )
        with pytest.raises(NumericalError):
            score_basis(model, bad_fit, sample)


class TestInvariants:
    def test_residuals_are_projection_of_errors(self):
        # for linear kinds: residuals = errors - sum_k <score_k, errors> score_k, exactly
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 2, 50)
        errors = rng.standard_normal(50)
        probe = Sample(x, np.zeros(50))
        model = build_model("centered_linear", probe)
        sample = Sample(x, model.mean(np.array([1.0, 2.0]), probe.X) + errors)
        result = fit(model, sample)
        basis = score_basis(model, result, sample)
        projected = errors - basis.vectors.T @ (basis.vectors @ errors)
        assert np.abs(result.residuals - projected).max() < 1e-8

    def test_refit_on_fitted_mean_plus_residuals_is_idempotent(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 2, 40)
        sample = Sample(x, 1.0 + 0.7 * x + rng.standard_normal(40))
        model = build_model("centered_linear", sample)
        result = fit(model, sample)
        rebuilt = Sample(x, model.mean(result.theta_hat, sample.X) + result.residuals)
        again = fit(model, rebuilt)
        assert np.allclose(again.theta_hat, result.theta_hat, atol=1e-8)

    @pytest.mark.parametrize("kind", ["simple_linear", "centered_linear", "bilinear2d"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(9)
        p = 2 if kind == "bilinear2d" else 1
        x = rng.uniform(0.1, 1.9, size=(12, p))
        model = build_model(kind, Sample(x, np.zeros(12)))
        step = 1e-6
        for _ in range(20):
            theta = rng.uniform(-2, 2, model.d)
            grad = model.grad(theta, x)
            for k in range(model.d):
                bump = np.zeros(model.d)
                bump[k] = step
                numeric = (model.mean(theta + bump, x) - model.mean(theta - bump, x)) / (2 * step)
                scale = np.maximum(np.abs(grad[:, k]), 1.0)
                assert np.max(np.abs(numeric - grad[:, k]) / scale) < 1e-5
