"""The null of ``dfgof test`` is a stream of column blocks reduced to their
statistics: whatever the block size, every null statistic must be the one
an unstreamed evaluation of the same draws gives, bit for bit, and the
memory of the stream must follow one block, not the replicate count."""

import math
import tracemalloc

import numpy as np
import pytest

import dfgof.harness as harness
from dfgof.harness import PROCESS_KINDS, STATISTICS, bootstrap_residuals, fixed_geometry, residual_statistics
from dfgof.model import Sample, build_model, fit
from dfgof.process import build_process, ks_statistics, plan_statistics, process_plan
from dfgof.transform import transform_residuals


def _case(kind, n, seed):
    """A fitted null sample and its geometry: p = 1 untied or tied
    (covariates with 7 distinct values), or p = 2 with every tenth row
    repeated, so that the raw process's sweep maps duplicate points to
    their last copy."""
    rng = np.random.default_rng(seed)
    if kind == "p2_duplicates":
        x = harness.covariate_design("beta_dep_a", n, seed=seed)
        x[1::10] = x[::10][: x[1::10].shape[0]]
        model_kind = "bilinear2d"
    else:
        x = rng.integers(0, 7, size=n).astype(float) if kind == "p1_tied" else rng.uniform(0.0, 2.0, size=n)
        model_kind = "centered_linear"
    probe = Sample(x, np.zeros(n))
    model = build_model(model_kind, probe)
    sample = Sample(x, model.mean(np.ones(model.d), probe.X) + rng.standard_normal(n))
    fitres = fit(model, sample)
    return model, fitres, fixed_geometry(model, sample, fitres)


def _unstreamed(geometry, columns, process):
    """Statistics of every column of one (n, m) matrix, by the textbook
    route: studentize, transform, build the whole process, take its
    statistics."""
    n = columns.shape[0]
    sigma = np.linalg.norm(columns.T.copy(), axis=-1) / math.sqrt(n - geometry.score_set.count)
    unit = columns / sigma
    if process == "transformed":
        unit = transform_residuals(unit, geometry.score_set, geometry.reference_set).values
    stats = ks_statistics(build_process(unit, geometry.plans[process]))
    return {f"{process}.{name}": value for name, value in stats.items()}


@pytest.mark.parametrize("reps", [1, 40, 200, 300])
@pytest.mark.parametrize("kind", ["p1_untied", "p1_tied", "p2_duplicates"])
def test_the_stream_moves_no_bit(monkeypatch, kind, reps):
    n = 120 if kind == "p2_duplicates" else 200
    model, fitres, geometry = _case(kind, n, 11)
    null = bootstrap_residuals(model, geometry, fitres, seed=4, reps=reps, error_law="normal")
    draws = np.concatenate(list(null), axis=1)
    assert draws.shape == (n, reps)
    expected = {process: _unstreamed(geometry, draws, process) for process in PROCESS_KINDS}
    rows = max(n, geometry.plans["raw"].eval_points.shape[0])
    # one block, two blocks, and blocks of 3 columns (1 for a single replicate)
    for width, blocks in ((reps, 1), (-(-reps // 2), min(reps, 2)), (3, -(-reps // 3))):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * rows * width)
        stream = list(bootstrap_residuals(model, geometry, fitres, seed=4, reps=reps, error_law="normal"))
        assert len(stream) == blocks
        assert np.concatenate(stream, axis=1).tobytes() == draws.tobytes()
        for process in PROCESS_KINDS:
            stats = residual_statistics(geometry, iter(stream), process)
            assert set(stats) == {f"{process}.{name}" for name in STATISTICS}
            for key, values in stats.items():
                assert values.tobytes() == expected[process][key].tobytes(), (width, key)


def _plans(p, stacked, rng):
    """Scan points of a p-dimensional plan, with ties or duplicates and a
    point at the origin."""
    lead = (3, 50) if stacked else (50,)
    if p == 1:
        points = rng.integers(0, 12, size=lead + (1,)).astype(float) / 11.0
    else:
        points = rng.uniform(size=lead + (p,))
        points[..., 1::7, :] = points[..., ::7, :][..., : points[..., 1::7, :].shape[-2], :]
        points[..., 0, :] = 0.0
    return process_plan(points)


@pytest.mark.parametrize("columns", [None, 1, 9])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_plan_reduction_is_the_statistics_of_the_built_process(p, stacked, columns):
    rng = np.random.default_rng(100 * p + 10 * stacked + (columns or 0))
    plan = _plans(p, stacked, rng)
    residuals = rng.standard_normal(plan.lead_shape + (() if columns is None else (columns,)))
    reduced = plan_statistics(residuals, plan)
    built = ks_statistics(build_process(residuals, plan))
    assert reduced.keys() == built.keys()
    for name, value in built.items():
        if columns is None and not stacked:
            assert type(reduced[name]) is float and reduced[name] == value, name
        else:
            assert reduced[name].shape == value.shape
            assert reduced[name].tobytes() == value.tobytes(), name


def test_null_memory_follows_one_block_not_the_replicates(monkeypatch):
    # p = 1, n = 20,000, B = 200: one copy of the (n, B + 1) matrix of the
    # unstreamed null is 32 MB, and several were alive at once (161 MB of
    # tracemalloc peak); a stream holds about five arrays of one block
    n, reps = 20_000, 200
    model, fitres, geometry = _case("p1_untied", n, 12)
    for budget in (harness.BLOCK_BYTES, 1 << 20):
        monkeypatch.setattr(harness, "BLOCK_BYTES", budget)
        block_bytes = 8 * (n + 1) * harness._block_columns(geometry)
        assert block_bytes <= budget
        for process in PROCESS_KINDS:
            tracemalloc.start()
            try:
                null = bootstrap_residuals(model, geometry, fitres, seed=2, reps=reps, error_law="normal")
                residual_statistics(geometry, null, process)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # six blocks, and eight n-vectors for the draws' set-up
            assert peak < 6 * block_bytes + 8 * 8 * n, (budget, process, peak)
