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
from dfgof.transport import generate_anchors

TOL = 1e-12


def _records_by_index(result):
    return [{key: column[i] for key, column in result.columns.items()} for i in range(result.config.reps)]


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(
            design=("normal_1_2",), model="centered_linear", n=30, reps=1, seed=41, probe_times=(0.25, 0.5)
        ),
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


def _close(stacked, single, what):
    scale = max(1.0, float(np.abs(single).max(initial=0.0)))
    assert np.abs(np.asarray(stacked) - single).max(initial=0.0) <= TOL * scale, what


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
    geometry = fixed_geometry(model, stack, fitres, anchor_set=anchors)
    references = sample_on_points(make_basis(stack.p, model.d), geometry.points)
    transformed = transform_residuals(fitres.residuals, scores, references).values
    process = build_process(transformed, geometry.points)
    stats = ks_statistics(process)
    records = pipeline_records(model, stack, fitres, anchor_set=anchors, probe_times=(0.3, 0.9) if stack.p == 1 else ())
    for b, (single_model, sample) in enumerate(singles):
        one = fit(single_model, sample)
        _close(fitres.theta_hat[b], one.theta_hat, "theta_hat")
        _close(fitres.residuals[b], one.residuals, "residuals")
        one_scores = score_basis(single_model, one, sample)
        _close(scores.vectors[b], one_scores.vectors, "score set")
        one_geometry = fixed_geometry(single_model, sample, one, anchor_set=anchors)
        assert np.array_equal(geometry.points[b], one_geometry.points)
        _close(references.vectors[b], one_geometry.reference_set.vectors, "reference set")
        one_transformed = transform_residuals(one.residuals, one_scores, one_geometry.reference_set).values
        _close(transformed[b], one_transformed, "transformed residuals")
        one_process = build_process(one_transformed, one_geometry.points)
        # a stacked p = 1 process lists tied times once per copy; each copy
        # carries the value of its tie group
        times = process.eval_points[b]
        distinct = np.append(np.any(times[1:] != times[:-1], axis=1), True)
        assert np.array_equal(times[distinct], one_process.eval_points)
        _close(process.eval_values[b][distinct], one_process.eval_values, "process values")
        for name, value in ks_statistics(one_process).items():
            _close(stats[name][b], value, name)
        one_records = pipeline_records(
            single_model, sample, one, anchor_set=anchors, probe_times=(0.3, 0.9) if stack.p == 1 else ()
        )
        assert records.keys() == one_records.keys()
        for key, value in one_records.items():
            _close(records[key][b], value, key)


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

        def constant_covariate_at_70(config, design_id, index):
            x, errors = draws(config, design_id, index)
            return (np.full_like(x, 3.0), errors) if index == 70 else (x, errors)

        monkeypatch.setattr(harness, "_draws", constant_covariate_at_70)
        dropped = run_experiment(config)
        assert dropped.failures == 1
        for key, column in clean.columns.items():
            # the other samples of the failing block keep their numbers
            assert np.array_equal(dropped.columns[key], np.delete(column, 70)), key


def test_test_command_builds_the_unselected_process_once(monkeypatch):
    calls = []
    original = harness.build_process

    def counting(residuals, scan_points, grid=None):
        calls.append(residuals.shape[1])
        return original(residuals, scan_points, grid=grid)

    monkeypatch.setattr(harness, "build_process", counting)
    n, reps = 40, 40
    model, stack, singles, anchors = _stack_case("bilinear2d", n, 1, 3, False)
    single_model, sample = singles[0]
    fitres = fit(single_model, sample)
    geometry = fixed_geometry(single_model, sample, fitres, anchor_set=anchors)
    residuals = harness.bootstrap_residuals(single_model, geometry, fitres, seed=5, reps=reps, error_law="normal")
    stats, first = harness.residual_statistics(geometry, residuals, "raw")
    assert set(stats) == {"raw.ks_abs", "raw.ks_plus"}
    assert all(values.shape == (reps + 1,) for values in stats.values())
    assert set(first) == {"transformed", "raw"}
    blocks = -(-(reps + 1) // harness.EVAL_COLUMNS)
    assert len(calls) == blocks + 1
