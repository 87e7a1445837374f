import numpy as np
import pytest

from dfgof.basis import make_basis, sample_on_points
from dfgof.model import Sample, build_model, fit, fit_gauss_newton, score_basis
from dfgof.rotations import OrthonormalSet, RotationPlan, apply_plan, build_plan, gram_schmidt
from dfgof.transform import transform_residuals
from oracles import transform_matrix


def fitted_univariate(seed, n, kind="simple_linear"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 2.0, n)
    probe = Sample(x, np.zeros(n))
    model = build_model(kind, probe)
    d = model.d
    theta = np.ones(d)
    sample = Sample(x, model.mean(theta, probe.X) + rng.standard_normal(n))
    result = fit(model, sample)
    score = score_basis(model, result, sample)
    # data-order empirical-CDF times, as the pipeline scans them
    reference = sample_on_points(make_basis(1, d), np.searchsorted(np.sort(x), x, side="right") / n)
    return result.residuals, score, reference


class TestTransformResiduals:
    def test_single_parameter_matches_closed_formula(self):
        # mandatory guard for the direction convention: with one fitted
        # parameter the rotation must reduce to
        # e = eps - <eps, ref> / (1 - <score, ref>) (ref - score)
        residuals, score, reference = fitted_univariate(0, 35)
        out = transform_residuals(residuals, score, reference)
        z = score.vectors[0]
        r = reference.vectors[0]
        manual = residuals - (residuals @ r) / (1.0 - z @ r) * (r - z)
        assert np.abs(out.values - manual).max() < 1e-12

    def test_identity_when_sets_match(self):
        rng = np.random.default_rng(1)
        s = gram_schmidt(rng.standard_normal((2, 10)))
        residuals = rng.standard_normal(10)
        out = transform_residuals(residuals, s, s)
        assert np.allclose(out.values, residuals, atol=1e-12)

    def test_residuals_orthogonal_to_both_spans_are_fixed(self):
        rng = np.random.default_rng(2)
        n = 12
        score = gram_schmidt(rng.standard_normal((2, n)))
        reference = gram_schmidt(rng.standard_normal((2, n)))
        span = np.vstack([score.vectors, reference.vectors])
        q, _ = np.linalg.qr(span.T, mode="complete")
        v = q[:, 4:] @ (q[:, 4:].T @ rng.standard_normal(n))
        out = transform_residuals(v, score, reference)
        assert np.allclose(out.values, v, atol=1e-10)

    def test_unitarity(self):
        residuals, score, reference = fitted_univariate(3, 50, "centered_linear")
        out = transform_residuals(residuals, score, reference)
        assert abs(np.linalg.norm(out.values) - np.linalg.norm(residuals)) < 1e-10

    def test_transformed_residuals_orthogonal_to_reference(self):
        residuals, score, reference = fitted_univariate(4, 50, "centered_linear")
        out = transform_residuals(residuals, score, reference)
        inner = reference.vectors @ out.values
        assert np.abs(inner).max() < 1e-8 * np.linalg.norm(out.values)

    def test_inverse_direction_recovers_input(self):
        residuals, score, reference = fitted_univariate(5, 40, "centered_linear")
        out = transform_residuals(residuals, score, reference)
        plan = build_plan(score, reference)
        # each reflection is an involution: the rows in reverse order undo the plan
        inverse = RotationPlan(sources=plan.sources[::-1], images=plan.images[::-1])
        back = apply_plan(inverse, out.values)
        assert np.abs(back - residuals).max() < 1e-9

    def test_matrix_columns_match_vector_transforms(self):
        residuals, score, reference = fitted_univariate(9, 40, "centered_linear")
        rng = np.random.default_rng(9)
        matrix = np.column_stack([residuals, rng.standard_normal((40, 3))])
        out = transform_residuals(matrix, score, reference)
        for j in range(matrix.shape[1]):
            one = transform_residuals(matrix[:, j], score, reference).values
            assert np.array_equal(out.values[:, j], one), j

    @pytest.mark.parametrize("kind", ["simple_linear", "centered_linear", "bilinear2d"])
    def test_stacked_sample_matches_that_sample_alone(self, kind):
        # sample b of a (B, n, m) stack rounds as it does alone, column by column
        rng = np.random.default_rng(13)
        size, n, m = 5, 60, 9
        x = rng.uniform(0.2, 2.0, (size, n, 2 if kind == "bilinear2d" else 1))
        stack = Sample(x, rng.standard_normal((size, n)))
        model = build_model(kind, stack)
        fitres = fit(model, stack)
        scores = score_basis(model, fitres, stack)
        references = gram_schmidt(rng.standard_normal((size, model.d, n)))
        matrix = np.concatenate([fitres.residuals[..., None], rng.standard_normal((size, n, m - 1))], axis=-1)
        out = transform_residuals(matrix, scores, references).values
        for b in range(size):
            score = OrthonormalSet(scores.vectors[b])
            reference = OrthonormalSet(references.vectors[b])
            assert np.array_equal(out[b], transform_residuals(matrix[b], score, reference).values), b
            for j in range(m):
                assert np.array_equal(out[b, :, j], transform_residuals(matrix[b, :, j], score, reference).values)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        s = gram_schmidt(rng.standard_normal((1, 6)))
        with pytest.raises(ValueError):
            transform_residuals(np.ones(5), s, s)


class TestTransformMatrix:
    def test_covariance_identity_single_parameter(self):
        _, score, reference = fitted_univariate(9, 30)
        a = transform_matrix(score, reference)
        r = reference.vectors[0]
        target = np.eye(30) - np.outer(r, r)
        assert np.abs(a @ a.T - target).max() < 1e-10

    def test_covariance_identity_two_parameters(self):
        _, score, reference = fitted_univariate(10, 45, "centered_linear")
        a = transform_matrix(score, reference)
        target = np.eye(45) - reference.vectors.T @ reference.vectors
        assert np.abs(a @ a.T - target).max() < 1e-10

    def test_matrix_agrees_with_vector_path(self):
        residuals, score, reference = fitted_univariate(11, 25, "centered_linear")
        a = transform_matrix(score, reference)
        out = transform_residuals(residuals, score, reference)
        # residuals are already projected, so A applied to them equals the transform
        assert np.allclose(a @ residuals, out.values, atol=1e-10)


class TestMonteCarloCovariance:
    def test_nonlinear_model_covariance_matches_reference_projection(self):
        # exp mean, fresh errors per replication, fitted by Gauss-Newton:
        # empirical covariance of the transformed residuals must match
        # I - sum_k ref_k ref_k^T on a 10x10 block within 5/sqrt(reps)
        rng = np.random.default_rng(12)
        n, reps = 500, 20_000
        x = rng.uniform(0.0, 2.0, n)
        model = build_model(
            "custom",
            mean=lambda th, xx: np.exp(th[0] * xx[:, 0]),
            grad=lambda th, xx: (xx[:, 0] * np.exp(th[0] * xx[:, 0]))[:, None],
            d=1,
        )
        basis = make_basis(1, 1)
        times = np.searchsorted(np.sort(x), x, side="right") / n
        reference = sample_on_points(basis, times)
        theta_true = np.array([0.5])
        mean_true = model.mean(theta_true, x[:, None])

        block = np.zeros((10, 10))
        used = 0
        for rep in range(reps):
            rep_rng = np.random.default_rng((12, rep))
            sample = Sample(x, mean_true + rep_rng.standard_normal(n))
            fitres = fit_gauss_newton(model, sample, theta_true, max_iter=30)
            if not fitres.converged:
                continue
            score = score_basis(model, fitres, sample)
            values = transform_residuals(fitres.residuals, score, reference).values[:10]
            block += np.outer(values, values)
            used += 1
        assert used > 0.99 * reps
        block /= used
        target = (np.eye(n) - reference.vectors.T @ reference.vectors)[:10, :10]
        tol = 5.0 / np.sqrt(used)
        assert np.abs(block - target).max() < tol
