import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfgof.basis import legendre_shifted, make_basis
from dfgof.process import DOMINANCE_BLOCK, build_process, kolmogorov_cdf, ks_statistics, limit_covariance
from dfgof.transport import AnchorSet


class TestBuildProcess:
    def test_zero_residuals_give_zero_process(self):
        proc = build_process(np.zeros(5), np.arange(1, 6) / 5)
        assert np.allclose(proc.eval_values, 0.0)

    def test_single_jump(self):
        proc = build_process(np.array([3.0]), np.array([0.5]))
        # zero before the jump at 0.5, the whole residual from there on
        assert np.array_equal(proc.eval_points[:, 0], [0.0, 0.5])
        assert proc.eval_values == pytest.approx([0.0, 3.0])

    def test_rank_time_partial_sums(self):
        rng = np.random.default_rng(0)
        n = 20
        residuals = rng.standard_normal(n)
        times = np.arange(1, n + 1) / n
        proc = build_process(residuals, times)
        # eval points are 0 plus the jump times; value at i/n is the i-th partial sum
        assert np.allclose(proc.eval_points[:, 0], np.concatenate([[0.0], times]))
        expected = np.concatenate([[0.0], np.cumsum(residuals) / np.sqrt(n)])
        assert np.allclose(proc.eval_values, expected)

    def test_tied_scan_points_merge(self):
        proc = build_process(np.array([1.0, 2.0, 4.0]), np.array([0.5, 0.5, 1.0]))
        assert np.allclose(proc.eval_points[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(proc.eval_values, [0.0, 3.0 / np.sqrt(3.0), 7.0 / np.sqrt(3.0)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_process(np.ones(3), np.array([0.1, 0.2]))

    def test_scan_points_outside_unit_cube_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            build_process(np.ones(2), np.array([0.5, 1.5]))

    def test_two_dimensional_values_match_direct_count(self):
        rng = np.random.default_rng(1)
        n = 30
        scan = rng.uniform(0.0, 1.0, size=(n, 2))
        residuals = rng.standard_normal(n)
        proc = build_process(residuals, scan, grid=9)
        for idx in rng.integers(0, proc.eval_points.shape[0], size=40):
            point = proc.eval_points[idx]
            direct = residuals[np.all(scan <= point, axis=1)].sum() / np.sqrt(n)
            assert proc.eval_values[idx] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matrix_columns_match_vector_processes(self, p):
        # bit for bit: a column's values do not depend on the column count
        rng = np.random.default_rng(3)
        m = 8
        for n in (17, 70, 300, 701):
            scan = rng.uniform(0.0, 1.0, size=(n, p)) if p == 2 else np.arange(1, n + 1) / n
            residuals = rng.standard_normal((n, m))
            proc = build_process(residuals, scan, grid=9)
            assert proc.eval_values.shape == (proc.eval_points.shape[0], m)
            stats = ks_statistics(proc)
            for j in range(m):
                one = build_process(residuals[:, j], scan, grid=9)
                assert np.array_equal(proc.eval_points, one.eval_points)
                assert np.array_equal(proc.eval_values[:, j], one.eval_values)
                assert np.array_equal(proc.column(j).eval_values, proc.eval_values[:, j])
                for name, value in ks_statistics(one).items():
                    assert stats[name][j] == value

    def test_empty_bivariate_process(self):
        proc = build_process(np.zeros(0), np.zeros((0, 2)), grid=4)
        assert proc.contributions.shape == (0,)
        assert np.array_equal(proc.eval_values, np.zeros(16))

    def test_grid_guard(self):
        with pytest.raises(ValueError, match="guard"):
            build_process(np.ones(2), np.array([[0.5, 0.5], [0.6, 0.6]]), grid=1500)

    def test_monotone_rearrangement_invariance(self):
        # permuting observations together with their scan points leaves the path unchanged
        rng = np.random.default_rng(2)
        n = 15
        residuals = rng.standard_normal(n)
        times = np.arange(1, n + 1) / n
        proc = build_process(residuals, times)
        perm = rng.permutation(n)
        proc_perm = build_process(residuals[perm], times[perm])
        assert np.allclose(proc.eval_points, proc_perm.eval_points)
        assert np.allclose(proc.eval_values, proc_perm.eval_values)


def _brute_dominance(scan, contrib):
    return np.all(scan[None] <= scan[:, None], -1) @ contrib


def _assert_scan_values_match_brute_force(scan, residuals):
    proc = build_process(residuals, scan, grid=3)
    n = scan.shape[0]
    expected = _brute_dominance(scan, proc.contributions)
    got = proc.eval_values[:n]
    assert got.shape == expected.shape
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


# sizes around the 16-position leaves and the merge levels above them
EDGE_SIZES = [0, 1, 2, 15, 16, 17, 31, 33, 63, 65, 127, 129, 255, 257]


class TestDominanceSums:
    """Process values at the scan points against the brute-force dominance
    mask, with ties in both coordinates and exact duplicate points."""

    @given(
        n=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 300)),
        levels=st.integers(1, 40),
        width=st.sampled_from([None, 1, 3, 8]),
        seed=st.integers(0, 10_000),
    )
    def test_bivariate_sweep_matches_mask(self, n, levels, width, seed):
        rng = np.random.default_rng(seed)
        scan = rng.integers(0, levels, size=(n, 2)) / levels
        residuals = rng.standard_normal(n if width is None else (n, width))
        _assert_scan_values_match_brute_force(scan, residuals)

    @pytest.mark.parametrize("width", [None, 4])
    @pytest.mark.parametrize("levels", [None, 5])
    def test_trivariate_blocks_match_mask(self, width, levels):
        rng = np.random.default_rng(8)
        n = 2 * DOMINANCE_BLOCK + 13
        scan = rng.uniform(size=(n, 3)) if levels is None else rng.integers(0, levels, size=(n, 3)) / levels
        residuals = rng.standard_normal(n if width is None else (n, width))
        _assert_scan_values_match_brute_force(scan, residuals)

    def test_bivariate_memory_is_linear_in_n(self):
        # an n x n mask with its float copy would take n^2 * 9 bytes = 144 MB
        rng = np.random.default_rng(4)
        n = 4000
        scan = rng.uniform(size=(n, 2))
        residuals = rng.standard_normal(n)
        tracemalloc.start()
        try:
            build_process(residuals, scan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


class TestKsStatistics:
    def test_zero_process(self):
        stats = ks_statistics(build_process(np.zeros(4), np.arange(1, 5) / 4))
        assert stats["ks_abs"] == 0.0
        assert stats["ks_plus"] == 0.0

    def test_single_jump_signs(self):
        down = ks_statistics(build_process(np.array([-2.0]), np.array([0.5])))
        assert down["ks_abs"] == pytest.approx(2.0)
        assert down["ks_plus"] == pytest.approx(0.0)  # the t=0 baseline
        up = ks_statistics(build_process(np.array([2.0]), np.array([0.5])))
        assert up["ks_plus"] == pytest.approx(2.0)

    def test_hand_values(self):
        # contributions chosen so the partial sums are 0.1, -0.3, 0.2
        n = 3
        partial = np.array([0.1, -0.3, 0.2])
        residuals = np.diff(np.concatenate([[0.0], partial])) * np.sqrt(n)
        stats = ks_statistics(build_process(residuals, np.arange(1, n + 1) / n))
        assert stats["ks_abs"] == pytest.approx(0.3)
        assert stats["ks_plus"] == pytest.approx(0.2)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            r = np.random.default_rng(seed).standard_normal(25)
            proc = build_process(r, np.arange(1, 26) / 25)
            stats = ks_statistics(proc)
            final = proc.eval_values[-1]
            assert stats["ks_abs"] >= stats["ks_plus"]
            assert stats["ks_plus"] >= max(final, 0.0)


class TestKolmogorovCdf:
    def test_zero(self):
        assert kolmogorov_cdf(0.0) == 0.0

    def test_saturates_to_one(self):
        assert kolmogorov_cdf(5.0) == pytest.approx(1.0, abs=1e-12)

    def test_known_median(self):
        assert kolmogorov_cdf(0.82757) == pytest.approx(0.5, abs=1e-4)

    def test_series_spot_value(self):
        # independent evaluation of the alternating series at x = 1
        x = 1.0
        expected = 1.0 - 2.0 * sum((-1) ** (k - 1) * np.exp(-2.0 * k * k * x * x) for k in range(1, 60))
        assert kolmogorov_cdf(1.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_cdf(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_cdf(np.array([0.5, np.nan]))

    def test_array_form_matches_scalar_form(self):
        grid = np.concatenate([np.linspace(0.0, 3.0, 601), [0.039, 0.04, 0.041, 8.0]])
        values = kolmogorov_cdf(grid)
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
        scalar = np.array([kolmogorov_cdf(float(x)) for x in grid])
        assert isinstance(kolmogorov_cdf(1.0), float)
        assert np.abs(values - scalar).max() <= 1e-15
        assert kolmogorov_cdf(grid.reshape(5, 121)).shape == (5, 121)

    def test_matches_scipy_kolmogorov_law(self):
        from scipy.stats import kstwobign

        grid = np.linspace(0.2, 3.0, 57)
        # the series stops at terms below 1e-12, so K is off by at most 2e-12
        assert np.abs(kolmogorov_cdf(grid) - kstwobign.cdf(grid)).max() < 3e-12

    def test_nondecreasing_on_grid(self):
        grid = np.linspace(0.0, 3.0, 1000)
        values = [kolmogorov_cdf(x) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestMonteCarloProcessCovariance:
    def test_transformed_process_covariance_on_interior_grid(self):
        # simple linear null: covariance of the transformed process at a
        # 5x5 grid of interior times must match the bridge min(s,t) - s t
        from dfgof.harness import ExperimentConfig, run_experiment

        times = (0.1, 0.3, 0.5, 0.7, 0.9)
        cfg = ExperimentConfig(
            design=("uniform_0_2",),
            model="simple_linear",
            n=300,
            reps=20000,
            seed=424242,
            probe_times=times,
        )
        res = run_experiment(cfg, workers=2)
        emp = np.cov(res.probes(), rowvar=False)
        target = np.array([[min(s, t) - s * t for t in times] for s in times])
        assert np.abs(emp - target).max() < 0.03


class TestLimitCovariance:
    def test_brownian_bridge_for_constant_basis(self):
        basis = make_basis(1, 1)
        for s, t in [(0.2, 0.7), (0.5, 0.5), (0.9, 0.1)]:
            assert limit_covariance([s], [t], basis) == pytest.approx(min(s, t) - s * t, abs=1e-12)

    def test_upper_corner_vanishes(self):
        for p, d in ((1, 3), (2, 4)):
            basis = make_basis(p, d)
            one = np.ones(p)
            assert limit_covariance(one, one, basis) == pytest.approx(0.0, abs=1e-12)

    def test_two_function_closed_form(self):
        # adding the degree-1 polynomial subtracts 3 s(1-s) t(1-t)
        basis = make_basis(1, 2)
        for s, t in [(0.3, 0.8), (0.6, 0.6)]:
            expected = min(s, t) - s * t - 3.0 * s * (1 - s) * t * (1 - t)
            assert limit_covariance([s], [t], basis) == pytest.approx(expected, abs=1e-12)

    def test_out_of_range_rejected(self):
        basis = make_basis(1, 1)
        with pytest.raises(ValueError):
            limit_covariance([1.2], [0.5], basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "name, call",
    [
        ("scan points", lambda bad: build_process(np.ones(3), np.array([bad, 0.5, 1.0]))),
        ("scan points", lambda bad: build_process(np.ones(3), np.array([[0.5, bad], [0.5, 0.5], [1.0, 1.0]]))),
        ("points", lambda bad: limit_covariance([bad], [0.5], make_basis(1, 1))),
        ("points", lambda bad: legendre_shifted(2, np.array([0.5, bad]))),
        ("anchor coordinates", lambda bad: AnchorSet(np.array([[bad, 0.5], [0.5, 0.5]]), "halton")),
    ],
    ids=["build_process_p1", "build_process_p2", "limit_covariance", "legendre_shifted", "AnchorSet"],
)
def test_non_finite_unit_cube_input_rejected(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} contain non-finite entries$"):
        call(bad)
