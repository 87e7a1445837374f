import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from dfgof.harness import covariate_design
from dfgof.transport import (
    DENSE_MAX,
    AnchorSet,
    GROUP,
    _assignment_duals,
    _group_centroids,
    _halton,
    _hilbert_order,
    _reduced_cost,
    generate_anchors,
    rescale_unit_cube,
    solve_assignment,
)
from oracles import brute_force_assignment, uniform_anchors


def _ecdf_of_transported(assignment, anchors, x):
    """Empirical CDF of the transported covariates at x (componentwise <=)."""
    return float(np.all(anchors.points[assignment.sigma] <= x, axis=1).mean())


def _radical_inverse(i: int, base: int) -> float:
    """Scalar radical inverse, digit by digit: the reference for _halton."""
    f = 1.0
    x = 0.0
    while i:
        f /= base
        x += f * (i % base)
        i //= base
    return x


def _full_sweep_duals(cost, sigma):
    """Duals by Jacobi Bellman-Ford sweeps that relax from every column:
    the reference for the frontier sweep of _assignment_duals."""
    m = cost.shape[0]
    rows = np.empty(m, dtype=np.intp)
    rows[sigma] = np.arange(m)
    matched = cost[rows, np.arange(m)]
    weights = cost[rows] - matched[:, None]
    v = np.zeros(m)
    for _ in range(m):
        relaxed = (v[:, None] + weights).min(axis=0)
        if not np.any(relaxed < v):
            break
        v = relaxed
    return (matched - v)[sigma], v


def _assert_same_bits(got, expected):
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def _dense_optimum(x, anchors):
    """Plain linear_sum_assignment on the full cdist cost, as the reference."""
    cost = cdist(x, anchors.points)
    _, sigma = linear_sum_assignment(cost)
    return sigma, math.fsum(sorted(cost[np.arange(len(sigma)), sigma]))


class TestGenerateAnchors:
    def test_halton_base2_first_points(self):
        out = generate_anchors(4, 1, "halton")
        assert np.allclose(out.points[:, 0], [0.5, 0.25, 0.75, 0.125])

    def test_halton_second_axis_uses_base3(self):
        out = generate_anchors(3, 2, "halton")
        assert np.allclose(out.points[:, 0], [0.5, 0.25, 0.75])
        assert np.allclose(out.points[:, 1], [1 / 3, 2 / 3, 1 / 9])

    @pytest.mark.parametrize("n, p", [(1, 1), (1000, 2), (5000, 3), (777, 15)])
    def test_halton_matches_scalar_radical_inverse_bit_for_bit(self, n, p):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        reference = np.array([[_radical_inverse(i, primes[j]) for j in range(p)] for i in range(1, n + 1)])
        assert _halton(n, p).tobytes() == reference.tobytes()

    def test_halton_rejects_more_axes_than_primes(self):
        with pytest.raises(ValueError, match="p <= 15"):
            generate_anchors(4, 16, "halton")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            generate_anchors(5, 1, "sobol")

    def test_points_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            AnchorSet(points=np.array([[0.5], [0.5]]))


class TestSolveAssignment:
    def test_identity_when_clouds_coincide(self):
        anchors = generate_anchors(6, 2, "halton")
        out = solve_assignment(anchors.points, anchors)
        assert np.array_equal(out.sigma, np.arange(6))
        assert out.cost == pytest.approx(0.0, abs=1e-12)

    def test_two_point_crossing(self):
        anchors = AnchorSet(points=np.array([[0.8], [0.2]]))
        out = solve_assignment(np.array([[0.1], [0.9]]), anchors)
        assert np.array_equal(out.sigma, np.array([1, 0]))
        assert out.cost == pytest.approx(0.2, abs=1e-12)

    def test_matches_brute_force_on_small_instances(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 1.0, size=(n, p))
            anchors = uniform_anchors(n, p, seed=seed + 1000)
            fast = solve_assignment(x, anchors)
            slow = brute_force_assignment(x, anchors)
            assert fast.cost == slow.cost

    def test_cost_never_beaten_by_random_permutations(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, size=(30, 2))
        anchors = generate_anchors(30, 2, "halton")
        best = solve_assignment(x, anchors)
        for _ in range(50):
            sigma = rng.permutation(30)
            cost = np.linalg.norm(x - anchors.points[sigma], axis=1).sum()
            assert best.cost <= cost + 1e-12

    def test_row_shuffle_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, size=(15, 2))
        anchors = generate_anchors(15, 2, "halton")
        base = solve_assignment(x, anchors)
        perm = rng.permutation(15)
        shuffled = solve_assignment(x[perm], anchors)
        assert shuffled.cost == pytest.approx(base.cost, abs=1e-12)
        base_pairs = {(i, s) for i, s in enumerate(base.sigma)}
        shuffled_pairs = {(int(perm[i]), s) for i, s in enumerate(shuffled.sigma)}
        assert base_pairs == shuffled_pairs

    def test_non_finite_rejected(self):
        anchors = generate_anchors(3, 1, "halton")
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(np.array([[0.1], [np.inf], [0.4]]), anchors)

    def test_shape_mismatch_rejected(self):
        anchors = generate_anchors(3, 1, "halton")
        with pytest.raises(ValueError):
            solve_assignment(np.array([[0.1], [0.2]]), anchors)


class TestWarmStartedSolve:
    """Above DENSE_MAX the dense solver runs on costs reduced by coarse duals."""

    @pytest.mark.parametrize("n", [DENSE_MAX + 1, 600, 1100])
    @pytest.mark.parametrize("design", ["beta_dep_a", "beta_dep_b", "beta_indep"])
    @pytest.mark.parametrize("mode", ["halton", "random"])
    @pytest.mark.parametrize("order", ["iid", "x1_sorted"])
    def test_same_permutation_and_cost_as_dense(self, n, design, mode, order):
        x, _, _ = rescale_unit_cube(covariate_design(design, n, seed=n))
        if order == "x1_sorted":
            x = x[np.argsort(x[:, 0], kind="stable")]
        anchors = generate_anchors(n, 2) if mode == "halton" else uniform_anchors(n, 2, seed=n + 1)
        sigma, cost = _dense_optimum(x, anchors)
        out = solve_assignment(x, anchors)
        assert np.array_equal(out.sigma, sigma)
        assert out.cost == cost

    def test_same_permutation_and_cost_as_dense_in_three_dimensions(self):
        rng = np.random.default_rng(3)
        x = rng.beta(2.0, 5.0, size=(600, 3))
        anchors = generate_anchors(600, 3, "halton")
        sigma, cost = _dense_optimum(x, anchors)
        out = solve_assignment(x, anchors)
        assert np.array_equal(out.sigma, sigma)
        assert out.cost == cost

    def test_duplicate_rows_reach_the_dense_optimum(self):
        rng = np.random.default_rng(4)
        x = np.repeat(rng.uniform(0.0, 1.0, size=(200, 2)), 3, axis=0)
        anchors = generate_anchors(600, 2, "halton")
        _, cost = _dense_optimum(x, anchors)
        out = solve_assignment(x, anchors)
        # tied rows may swap anchors; the total may not move
        assert out.cost == pytest.approx(cost, abs=1e-12)
        assert out.cost == pytest.approx(np.linalg.norm(x - anchors.points[out.sigma], axis=1).sum(), abs=1e-12)

    def test_coarse_duals_are_feasible_and_tight_on_the_matching(self):
        x, _, _ = rescale_unit_cube(covariate_design("beta_indep", 150, seed=9))
        anchors = generate_anchors(150, 2, "halton")
        cost = cdist(x, anchors.points)
        _, sigma = linear_sum_assignment(cost)
        u, v = _assignment_duals(cost, sigma)
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-12
        assert np.abs(reduced[np.arange(150), sigma]).max() <= 1e-12

    @pytest.mark.parametrize("n", [400, 1001])
    def test_reduced_cost_is_nonnegative_with_a_zero_in_every_row_and_column(self, n):
        x, _, _ = rescale_unit_cube(covariate_design("beta_dep_a", n, seed=10))
        anchors = generate_anchors(n, 2, "halton")
        reduced, _ = _reduced_cost(x, anchors.hierarchy[1])
        assert reduced.shape == (n, n)
        assert reduced.min() == 0.0
        assert np.all(reduced.min(axis=1) == 0.0)
        assert np.all(reduced.min(axis=0) == 0.0)

    def test_anchor_hierarchy_is_built_once_and_groups_each_level(self):
        anchors = generate_anchors(3000, 2, "halton")
        hierarchy = anchors.hierarchy
        assert anchors.hierarchy is hierarchy
        order, levels = hierarchy
        assert [level.shape[0] for level in levels] == [3000, 750, 188, 47]
        # the finest level holds the anchors along the Hilbert curve, which
        # is already the order that groups them
        assert np.array_equal(order, _hilbert_order(anchors.points))
        assert np.array_equal(levels[0], anchors.points[order])
        assert np.array_equal(_hilbert_order(levels[0]), np.arange(3000))
        for fine, coarse in zip(levels, levels[1:]):
            assert np.array_equal(coarse, _group_centroids(fine))
        small = generate_anchors(DENSE_MAX, 2, "halton")
        order, levels = small.hierarchy
        assert len(levels) == 1 and levels[0] is small.points
        assert np.array_equal(order, np.arange(DENSE_MAX))

    @pytest.mark.parametrize("n", [4 * DENSE_MAX + 1, 1001])
    def test_duals_of_the_reduced_matrix_certify_the_coarse_cost(self, n):
        # Bellman-Ford on the matrix a level was solved on, plus its row
        # shift, gives row duals of that level's plain cost
        x, _, _ = rescale_unit_cube(covariate_design("beta_dep_b", n, seed=11))
        anchors = generate_anchors(n, 2, "halton")
        levels = anchors.hierarchy[1]
        reduced, shift = _reduced_cost(x, levels)
        _, sigma = linear_sum_assignment(reduced)
        u, _ = _assignment_duals(reduced, sigma)
        u += shift
        cost = cdist(x, levels[0])
        v = (cost - u[:, None]).min(axis=0)
        assert np.abs(cost[np.arange(n), sigma] - u - v[sigma]).max() <= 1e-9

    @pytest.mark.parametrize("n", [4 * 50, 4 * 50 + 1, 4 * 50 + 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hilbert_order_is_a_deterministic_permutation(self, n, p):
        x = np.random.default_rng(n + p).beta(2.0, 5.0, size=(n, p))
        order = _hilbert_order(x)
        assert np.array_equal(np.sort(order), np.arange(n))
        assert np.array_equal(_hilbert_order(x.copy()), order)

    def test_hilbert_order_visits_grid_cells_one_step_apart(self):
        # on a 2^k grid consecutive points along the curve are neighbours
        for p, side in ((2, 8), (3, 4)):
            grid = np.stack(np.meshgrid(*[np.arange(side)] * p, indexing="ij"), axis=-1).reshape(-1, p)
            steps = np.abs(np.diff(grid[_hilbert_order(grid.astype(float))], axis=0)).sum(axis=1)
            assert np.all(steps == 1)

    def test_hilbert_order_keeps_duplicate_rows_in_row_order_and_together(self):
        base = np.random.default_rng(12).uniform(size=(30, 2))
        x = np.repeat(base, 3, axis=0)
        order = _hilbert_order(x)
        assert np.array_equal(np.sort(order), np.arange(90))
        # the copies of a row are adjacent and in row order
        assert np.array_equal(order.reshape(30, 3), order.reshape(30, 3)[:, :1] + np.arange(3))

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_group_centroids_of_a_ragged_last_group(self, n):
        x = np.random.default_rng(n).uniform(size=(n, 2))
        centroids = _group_centroids(x)
        assert centroids.shape == (-(-n // GROUP), 2)
        ordered = x[_hilbert_order(x)]
        assert np.allclose(centroids[-1], ordered[(centroids.shape[0] - 1) * GROUP :].mean(axis=0))
        # every group mean weighted by its size gives the cloud's mean
        sizes = np.minimum(GROUP, n - GROUP * np.arange(centroids.shape[0]))
        assert np.allclose((centroids * sizes[:, None]).sum(axis=0), x.sum(axis=0))

    def test_dual_sweep_terminates_on_all_equal_costs(self):
        sigma = np.random.default_rng(5).permutation(40)
        u, v = _assignment_duals(np.ones((40, 40)), sigma)
        assert np.array_equal(u + v[sigma], np.ones(40))
        _assert_same_bits((u, v), _full_sweep_duals(np.ones((40, 40)), sigma))

    def test_dual_sweep_is_capped_for_a_non_optimal_permutation(self):
        # the swapped permutation leaves a negative cycle; the sweep count
        # cap still ends the loop
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        u, v = _assignment_duals(cost, np.array([1, 0]))
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
        _assert_same_bits((u, v), _full_sweep_duals(cost, np.array([1, 0])))

    @pytest.mark.parametrize("seed", range(6))
    def test_frontier_sweep_equals_the_full_sweep_bit_for_bit(self, seed):
        # random optimal assignments: Euclidean costs, and the reduced
        # matrix of a warm-started level
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, DENSE_MAX)) if seed % 2 else int(rng.integers(DENSE_MAX + 1, 400))
        x = rng.beta(0.5, 0.5, size=(n, 2))
        anchors = generate_anchors(n, 2, "halton")
        cost = cdist(x, anchors.points) if seed % 2 else _reduced_cost(x, anchors.hierarchy[1])[0]
        sigma = linear_sum_assignment(cost)[1]
        _assert_same_bits(_assignment_duals(cost, sigma), _full_sweep_duals(cost, sigma))

    def test_assignment_is_solved_on_hilbert_ordered_anchor_columns(self, monkeypatch):
        from dfgof import transport

        seen = []
        original = transport._reduced_cost

        def recording(x, levels):
            seen.append(levels[0])
            return original(x, levels)

        monkeypatch.setattr(transport, "_reduced_cost", recording)
        n = 3 * DENSE_MAX
        x, _, _ = rescale_unit_cube(covariate_design("beta_dep_a", n, seed=13))
        anchors = generate_anchors(n, 2, "halton")
        out = solve_assignment(x, anchors)
        assert seen[0] is anchors.hierarchy[1][0]
        assert np.array_equal(seen[0], anchors.points[_hilbert_order(anchors.points)])
        sigma, cost = _dense_optimum(x, anchors)
        assert np.array_equal(out.sigma, sigma)
        assert out.cost == cost

    @pytest.mark.filterwarnings("error")
    def test_non_finite_rejected_above_dense_max(self):
        # rejected before the Hilbert key casts coordinates to integers,
        # so no invalid-cast warning is raised on the way
        n = DENSE_MAX + 10
        x = np.random.default_rng(6).uniform(0.0, 1.0, size=(n, 2))
        x[n - 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(x, generate_anchors(n, 2, "halton"))


class TestTransportedEcdf:
    def test_upper_corner_is_one(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 1.0, size=(12, 2))
        anchors = generate_anchors(12, 2, "halton")
        assignment = solve_assignment(x, anchors)
        assert _ecdf_of_transported(assignment, anchors, np.array([1.0, 1.0])) == 1.0

    def test_below_smallest_coordinate_is_zero(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, size=(10, 2))
        anchors = generate_anchors(10, 2, "halton")
        assignment = solve_assignment(x, anchors)
        low = anchors.points.min(axis=0)
        probe = np.array([low[0] / 2.0, 1.0])
        assert _ecdf_of_transported(assignment, anchors, probe) == 0.0

    def test_equals_anchor_ecdf_everywhere(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0.0, 1.0, size=(25, 2))
        anchors = uniform_anchors(25, 2, seed=77)
        assignment = solve_assignment(x, anchors)
        for probe in rng.uniform(0.0, 1.0, size=(100, 2)):
            anchor_value = float(np.all(anchors.points <= probe, axis=1).mean())
            assert _ecdf_of_transported(assignment, anchors, probe) == anchor_value


class TestRescale:
    def test_maps_bounds_to_unit_cube(self):
        rng = np.random.default_rng(12)
        x = rng.normal(5.0, 3.0, size=(40, 2))
        out, lo, hi = rescale_unit_cube(x)
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)
        assert np.allclose(lo, x.min(axis=0))
        assert np.allclose(hi, x.max(axis=0))

    def test_monotone_per_coordinate(self):
        x = np.array([[1.0, 10.0], [3.0, -2.0], [2.0, 4.0]])
        out, _, _ = rescale_unit_cube(x)
        for j in range(2):
            assert np.array_equal(np.argsort(out[:, j]), np.argsort(x[:, j]))

    def test_constant_column_maps_to_half(self):
        x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        out, _, _ = rescale_unit_cube(x)
        assert np.allclose(out[:, 1], 0.5)
