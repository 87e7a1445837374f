import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfgof.errors import RankDeficiencyError, SingularMatrixError
from dfgof.rotations import (
    OrthonormalSet,
    RotationPlan,
    apply_plan,
    build_plan,
    gram_schmidt,
    inv_sqrt_spd,
    reflect,
)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_orthonormal(rng, count, length):
    return gram_schmidt(rng.standard_normal((count, length)))


def inverse(plan):
    # each reflection is an involution, so the rows in reverse order undo the plan
    return RotationPlan(sources=plan.sources[::-1], images=plan.images[::-1])


def random_unit(rng, length):
    v = rng.standard_normal(length)
    return v / np.linalg.norm(v)


class TestReflect:
    def test_swaps_the_two_unit_vectors(self):
        assert np.allclose(reflect(E1, E2, E1), E2, atol=1e-14)
        assert np.allclose(reflect(E1, E2, E2), E1, atol=1e-14)

    def test_identity_when_vectors_equal(self):
        v = np.array([3.0, 4.0])
        out = reflect(np.array([1.0, 0.0]), np.array([1.0, 0.0]), v)
        assert np.array_equal(out, v)

    def test_fixes_symmetric_vector(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(reflect(E1, E2, v), v, atol=1e-14)

    def test_fixes_orthogonal_complement(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        assert np.allclose(reflect(e1, e2, e3), e3, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reflect(E1, E2, np.ones(3))
        with pytest.raises(ValueError):
            reflect(np.ones(3) / np.sqrt(3), E2, np.ones(2))

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            reflect(2.0 * E1, E2, E1)
        with pytest.raises(ValueError, match="unit norm"):
            reflect(E1, 0.5 * E2, E1)

    def test_matrix_argument_reflects_each_column(self):
        rng = np.random.default_rng(5)
        a = random_unit(rng, 7)
        b = random_unit(rng, 7)
        m = rng.standard_normal((7, 4))
        out = reflect(a, b, m)
        for j in range(4):
            assert np.allclose(out[:, j], reflect(a, b, m[:, j]), atol=1e-14)

    @given(st.integers(0, 10_000))
    def test_involution_isometry_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = random_unit(rng, n)
        b = random_unit(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        assert np.allclose(reflect(a, b, reflect(a, b, v)), v, atol=1e-9)
        assert abs(np.linalg.norm(reflect(a, b, v)) - np.linalg.norm(v)) < 1e-10 * max(
            1.0, np.linalg.norm(v)
        )
        lhs = reflect(a, b, u) @ v
        rhs = u @ reflect(a, b, v)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestBuildPlan:
    def test_single_pair_for_one_dimensional_sets(self):
        plan = build_plan(OrthonormalSet(E1[None, :]), OrthonormalSet(E2[None, :]))
        assert plan.count == 1
        assert np.allclose(plan.sources[0], E1)
        assert np.allclose(plan.images[0], E2)

    def test_source_equals_target_gives_identity(self):
        rng = np.random.default_rng(3)
        s = random_orthonormal(rng, 3, 6)
        plan = build_plan(s, s)
        v = rng.standard_normal(6)
        assert np.allclose(apply_plan(plan, v), v, atol=1e-12)
        assert np.allclose(apply_plan(inverse(plan), v), v, atol=1e-12)

    def test_forward_matches_explicit_matrix_composition(self):
        # oracle: materialize each reflection as a dense matrix and multiply
        rng = np.random.default_rng(17)
        source = random_orthonormal(rng, 3, 8)
        target = random_orthonormal(rng, 3, 8)
        plan = build_plan(source, target)
        k = np.eye(8)
        for a, b in zip(plan.sources, plan.images):
            gap = 1.0 - a @ b
            u = np.eye(8) if gap < 1e-12 else np.eye(8) - np.outer(a - b, a - b) / gap
            k = u @ k
        for j in range(3):
            assert np.allclose(k @ source.vectors[j], target.vectors[j], atol=1e-10)
        # reverse-order product is the inverse map
        kinv = np.eye(8)
        for a, b in zip(plan.sources[::-1], plan.images[::-1]):
            gap = 1.0 - a @ b
            u = np.eye(8) if gap < 1e-12 else np.eye(8) - np.outer(a - b, a - b) / gap
            kinv = u @ kinv
        for j in range(3):
            assert np.allclose(kinv @ target.vectors[j], source.vectors[j], atol=1e-10)
        assert np.allclose(apply_plan(plan, np.eye(8)), k, atol=1e-12)

    def test_size_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="set sizes"):
            build_plan(random_orthonormal(rng, 2, 5), random_orthonormal(rng, 3, 5))
        with pytest.raises(ValueError, match="lengths"):
            build_plan(random_orthonormal(rng, 2, 5), random_orthonormal(rng, 2, 6))

    def test_non_orthonormal_input_rejected(self):
        bad = np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        with pytest.raises(ValueError, match="orthonormal"):
            OrthonormalSet(bad)


class TestApplyPlan:
    def test_forward_and_inverse_map_the_sets(self):
        # many random instances: the plan maps source_k -> target_k, its inverse back
        failures = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 6))
            n = int(rng.integers(d + 1, 51))
            source = random_orthonormal(rng, d, n)
            target = random_orthonormal(rng, d, n)
            plan = build_plan(source, target)
            fwd = apply_plan(plan, source.vectors.T)
            inv = apply_plan(inverse(plan), target.vectors.T)
            if not np.allclose(fwd, target.vectors.T, atol=1e-9):
                failures += 1
            if not np.allclose(inv, source.vectors.T, atol=1e-9):
                failures += 1
        assert failures == 0

    def test_roundtrip_and_norm_preservation(self):
        rng = np.random.default_rng(23)
        source = random_orthonormal(rng, 4, 12)
        target = random_orthonormal(rng, 4, 12)
        plan = build_plan(source, target)
        v = rng.standard_normal(12)
        w = apply_plan(plan, v)
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-9
        assert np.allclose(apply_plan(inverse(plan), w), v, atol=1e-9)

    def test_orthogonal_complement_is_fixed(self):
        rng = np.random.default_rng(29)
        source = random_orthonormal(rng, 2, 9)
        target = random_orthonormal(rng, 2, 9)
        plan = build_plan(source, target)
        # vector orthogonal to all sources and all cached images
        span = np.vstack([plan.sources, plan.images])
        v = rng.standard_normal(9)
        q, _ = np.linalg.qr(span.T, mode="complete")
        v = q[:, 4:] @ (q[:, 4:].T @ v)
        assert np.allclose(apply_plan(plan, v), v, atol=1e-10)
        assert np.allclose(apply_plan(inverse(plan), v), v, atol=1e-10)

    def test_matrix_representation_is_orthogonal(self):
        rng = np.random.default_rng(31)
        source = random_orthonormal(rng, 3, 10)
        target = random_orthonormal(rng, 3, 10)
        plan = build_plan(source, target)
        k = apply_plan(plan, np.eye(10))
        assert np.abs(k.T @ k - np.eye(10)).max() < 1e-8

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        plan = build_plan(random_orthonormal(rng, 2, 5), random_orthonormal(rng, 2, 5))
        with pytest.raises(ValueError):
            apply_plan(plan, np.ones(6))


class TestGramSchmidt:
    def test_axis_scaling(self):
        out = gram_schmidt([np.array([2.0, 0.0]), np.array([0.0, 3.0])])
        assert np.allclose(out.vectors, np.eye(2), atol=1e-14)

    def test_hand_worked_pair(self):
        out = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert np.allclose(out.vectors, np.eye(2), atol=1e-14)

    def test_rank_deficiency_names_the_index(self):
        with pytest.raises(RankDeficiencyError, match="vector 1"):
            gram_schmidt([np.array([1.0, 0.0]), np.array([2.0, 0.0])])

    @given(st.integers(0, 10_000))
    def test_output_is_orthonormal_and_spans(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 9))
        vectors = rng.standard_normal((k, n))
        out = gram_schmidt(vectors)
        assert out.gram_defect() < 1e-12
        # same span: original vectors reproduce from projections
        coeff = out.vectors @ vectors.T
        assert np.allclose(out.vectors.T @ coeff, vectors.T, atol=1e-8)
        # first direction preserved
        first = vectors[0] / np.linalg.norm(vectors[0])
        assert np.allclose(out.vectors[0], first, atol=1e-12)


class TestInvSqrtSpd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_spd(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        out = inv_sqrt_spd(np.diag([4.0, 9.0]))
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        m = a @ a.T + 0.5 * np.eye(3)
        n = inv_sqrt_spd(m)
        assert np.allclose(n, n.T, atol=1e-14)
        assert np.abs(n @ m @ n - np.eye(3)).max() < 1e-9

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            inv_sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inv_sqrt_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))
