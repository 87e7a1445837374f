"""Replications run in blocks of BLOCK as one stack: every layer run over a
stack must give each sample what it gives that sample alone, and a
replication's record must not depend on the block it falls in."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfgof.harness as harness
from dfgof.basis import make_basis, sample_on_points
from dfgof.errors import RankDeficiencyError
from dfgof.harness import BLOCK, ExperimentConfig, fixed_geometry, pipeline_records, run_experiment
from dfgof.model import Sample, build_model, fit, score_basis
from dfgof.process import build_process, ks_statistics
from dfgof.transform import transform_residuals
from dfgof.transport import generate_anchors, rescale_unit_cube, solve_assignment


def _records_by_index(result):
    return [{key: column[i] for key, column in result.columns.items()} for i in range(result.config.reps)]


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(design=("normal_1_2",), model="centered_linear", n=30, reps=1, seed=41),
        ExperimentConfig(design=("beta_dep_a",), model="bilinear2d", n=24, reps=1, seed=42),
    ],
    ids=["p1", "p2"],
)
def test_record_does_not_depend_on_reps_or_workers(config):
    # replication i in blocks of every size: i + 1 replications end the run
    # at i, BLOCK fill one block, 2 * BLOCK + 3 end on a short last block
    indices = (0, 37, BLOCK - 1, BLOCK + 5, 2 * BLOCK + 2)
    runs = {}
    for i in indices:
        for reps in (i + 1, BLOCK, 2 * BLOCK + 3):
            if reps <= i:
                continue
            for workers in (1, 2):
                if (reps, workers) not in runs:
                    result = run_experiment(replace(config, reps=reps), workers=workers)
                    assert result.failures == 0
                    runs[reps, workers] = _records_by_index(result)
    for i in indices:
        seen = [records[i] for (reps, _), records in runs.items() if reps > i]
        assert len(seen) >= 2
        for other in seen[1:]:
            assert other.keys() == seen[0].keys()
            for key, value in seen[0].items():
                assert other[key].tobytes() == value.tobytes(), (i, key)


def _stack_case(kind, n, size, seed, tied):
    """``size`` null samples of a model kind, each with its own X, as a
    stack and as single samples with their own models."""
    rng = np.random.default_rng(seed)
    p = 2 if kind == "bilinear2d" else 1
    if p == 2:
        x = rng.beta(0.5, 0.5, size=(size, n, 2))
    elif tied:
        x = rng.integers(0, 5, size=(size, n, 1)).astype(float)
        x[:, :5, 0] = np.arange(5.0)  # more distinct values than any d
    else:
        x = rng.uniform(0.5, 2.0, size=(size, n, 1))
    errors = rng.standard_normal((size, n))
    model = build_model(kind, Sample(x, np.zeros((size, n))))
    stack = Sample(x, model.mean(np.ones(model.d), x) + errors)
    singles = []
    for b in range(size):
        single_model = build_model(kind, Sample(x[b], np.zeros(n)))
        singles.append((single_model, Sample(x[b], single_model.mean(np.ones(model.d), x[b]) + errors[b])))
    anchors = generate_anchors(n, 2, "halton") if p == 2 else None
    return model, stack, singles, anchors


def _equal(stacked, single, what):
    assert np.array_equal(stacked, single), what


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["simple_linear", "centered_linear", "bilinear2d"]),
    n=st.integers(10, 60),
    size=st.integers(1, BLOCK),
    seed=st.integers(0, 2**32 - 1),
    tied=st.booleans(),
)
def test_each_stacked_layer_matches_single_samples(kind, n, size, seed, tied):
    if kind == "bilinear2d":
        size = min(size, 6)  # one assignment per sample
    model, stack, singles, anchors = _stack_case(kind, n, size, seed, tied)
    fitres = fit(model, stack)
    scores = score_basis(model, fitres, stack)
    geometry = fixed_geometry(model, stack, fitres)
    references = sample_on_points(make_basis(stack.p, model.d), geometry.points)
    transformed = transform_residuals(fitres.residuals, scores, references).values
    process = build_process(transformed, geometry.points)
    stats = ks_statistics(process)
    records = pipeline_records(model, stack, fitres)
    for b, (single_model, sample) in enumerate(singles):
        one = fit(single_model, sample)
        _equal(fitres.theta_hat[b], one.theta_hat, "theta_hat")
        _equal(fitres.residuals[b], one.residuals, "residuals")
        one_scores = score_basis(single_model, one, sample)
        _equal(scores.vectors[b], one_scores.vectors, "score set")
        one_geometry = fixed_geometry(single_model, sample, one)
        assert np.array_equal(geometry.points[b], one_geometry.points)
        # the scan points: empirical-CDF times at p = 1, the anchor the
        # optimal assignment matches each row to at p = 2
        if anchors is None:
            x = sample.X[:, 0]
            expected = np.searchsorted(np.sort(x), x, side="right")[:, None] / n
        else:
            expected = anchors.points[solve_assignment(rescale_unit_cube(sample.X)[0], anchors).sigma]
        assert np.array_equal(one_geometry.points, expected)
        _equal(references.vectors[b], one_geometry.reference_set.vectors, "reference set")
        one_transformed = transform_residuals(one.residuals, one_scores, one_geometry.reference_set).values
        _equal(transformed[b], one_transformed, "transformed residuals")
        one_process = build_process(one_transformed, one_geometry.points)
        # a stacked p = 1 process lists tied times once per copy; each copy
        # carries the value of its tie group
        times = process.eval_points[b]
        distinct = np.append(np.any(times[1:] != times[:-1], axis=1), True)
        assert np.array_equal(times[distinct], one_process.eval_points)
        _equal(process.eval_values[b][distinct], one_process.eval_values, "process values")
        for name, value in ks_statistics(one_process).items():
            _equal(stats[name][b], value, name)
        one_records = pipeline_records(single_model, sample, one)
        assert records.keys() == one_records.keys()
        for key, value in one_records.items():
            _equal(records[key][b], value, key)


class TestFewDistinctCovariateValues:
    """At p = 1 with no more distinct covariate values than fitted
    parameters the process vanishes at every scan time; that is an error,
    not a statistic."""

    @pytest.mark.parametrize(
        ("kind", "x", "message"),
        [
            ("simple_linear", np.full(300, 3.0), "takes 1 distinct values, not more than the d = 1"),
            ("centered_linear", np.arange(300) % 2.0, "takes 2 distinct values, not more than the d = 2"),
        ],
    )
    def test_named_error(self, kind, x, message):
        rng = np.random.default_rng(1)
        sample = Sample(x, 1.0 + x + rng.standard_normal(x.shape[0]))
        model = build_model(kind, sample)
        fitres = fit(model, sample)  # the fit itself has full rank
        with pytest.raises(RankDeficiencyError, match=message):
            fixed_geometry(model, sample, fitres)
        with pytest.raises(RankDeficiencyError, match=message):
            pipeline_records(model, sample, fitres)

    def test_one_more_distinct_value_is_accepted(self):
        x = np.arange(300) % 3.0
        sample = Sample(x, x + np.random.default_rng(2).standard_normal(300))
        model = build_model("centered_linear", sample)
        record = pipeline_records(model, sample, fit(model, sample))
        assert record["transformed.ks_abs"] > 1e-3

    def test_simulation_drops_the_replication(self, monkeypatch):
        config = ExperimentConfig(design=("uniform_0_2",), model="simple_linear", n=40, reps=2 * BLOCK + 3, seed=8)
        clean = run_experiment(config)
        draws = harness._draws

        def constant_covariate_at_70(config, design_id, indices):
            return [
                (np.full_like(x, 3.0), errors) if index == 70 else (x, errors)
                for index, (x, errors) in zip(indices, draws(config, design_id, indices))
            ]

        monkeypatch.setattr(harness, "_draws", constant_covariate_at_70)
        dropped = run_experiment(config)
        assert dropped.failures == 1
        for key, column in clean.columns.items():
            # the other samples of the failing block keep their numbers
            assert np.array_equal(dropped.columns[key], np.delete(column, 70)), key


def test_test_command_builds_the_unselected_process_once(monkeypatch):
    builds, reductions = [], []
    build, reduce = harness.build_process, harness.plan_statistics

    def counting_build(residuals, scan_points):
        builds.append(residuals.shape)
        return build(residuals, scan_points)

    def counting_reduce(residuals, plan):
        reductions.append(residuals.shape)
        return reduce(residuals, plan)

    monkeypatch.setattr(harness, "build_process", counting_build)
    monkeypatch.setattr(harness, "plan_statistics", counting_reduce)
    n, reps = 40, 40
    model, stack, singles, anchors = _stack_case("bilinear2d", n, 1, 3, False)
    single_model, sample = singles[0]
    fitres = fit(single_model, sample)
    geometry = fixed_geometry(single_model, sample, fitres)
    first = harness.residual_processes(geometry, fitres.residuals)
    assert set(first) == {"transformed", "raw"}
    null = harness.bootstrap_residuals(single_model, geometry, fitres, seed=5, reps=reps, error_law="normal")
    stats = harness.residual_statistics(geometry, null, "raw")
    assert set(stats) == {"raw.ks_abs", "raw.ks_plus"}
    assert all(values.shape == (reps,) for values in stats.values())
    # the observed residuals build both processes, and the null columns
    # are reduced to the statistics of the raw one without a build, as
    # many at a time as keep n x columns and evaluation points x columns
    # float64 values within BLOCK_BYTES: a p = 2 process with its 64 x 64
    # lattice takes all 40 bootstrap columns in one block
    chunk = harness.BLOCK_BYTES // (8 * (n + 64**2))
    assert chunk >= reps
    assert builds == [(n,)] * 2
    assert reductions == [(n, reps)]
    # a larger bootstrap is split into blocks of that many columns
    builds.clear()
    reductions.clear()
    more = 2 * chunk + 3
    null = harness.bootstrap_residuals(single_model, geometry, fitres, seed=5, reps=more, error_law="normal")
    split = harness.residual_statistics(geometry, null, "raw")
    assert builds == []
    assert reductions == [(n, chunk)] * 2 + [(n, 3)]
    # and every column keeps its statistics
    assert np.array_equal(split["raw.ks_abs"][:reps], stats["raw.ks_abs"])
