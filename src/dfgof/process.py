"""Partial-sum residual processes, test statistics and limit references.

The residual process at x is the sum of residuals whose scan point is
componentwise <= x, scaled by 1/sqrt(n).  In one dimension the scan points
are the empirical-CDF times of the covariate (i/n without ties) and the
process is evaluated exactly at t = 0 and every jump; in higher dimensions
the supremum over the cube is approximated by evaluating at every scan
point plus a regular lattice, whose per-axis resolution
``lattice_resolution`` fixes by p.  At p = 2 the values at the
scan points come from a merge sweep over the points ordered by their
second coordinate, in O(n log^2 n) time at worst and O(n) memory per
residual column; p >= 3 sums an n x n dominance mask in row blocks.

A process may carry one residual vector or the m columns of an (n, m)
residual matrix scanned by the same points; its evaluation values then
gain a trailing column axis, and every statistic becomes a length-m array.
A stack of B samples, each with its own scan points, gives a stacked
process: both fields gain a leading sample axis.  At p = 1 its evaluation
points are then t = 0 and all n sorted scan points, tied copies included,
each copy carrying the value of its tie group, so every sample has n + 1
of them.

What depends on the scan points alone is set up once by ``process_plan``
and applied by ``build_process`` to any residuals on those points: at
p = 1 the stable order of the times and the tie-last index, at p = 2 the
merge sweep's order, ranks, leaf masks, per-level merge permutations and
duplicate map, at p >= 2 the lattice bin of every point.  Building from a
plan gives the same numbers, bit for bit, as building from the points.
``plan_statistics`` reduces the same values to the statistics one part
at a time, without keeping them.
``ecdf_plan`` starts one step earlier, from a p = 1 covariate: one sort
per sample gives its empirical-CDF times, their tie groups and the plan
those times would get from ``process_plan``.

Replicated statistics are summarized by their empirical distribution
(``Ecdf``), compared with each other or with a reference law such as
``kolmogorov_cdf`` by exact sup distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ReferenceBasis, check_unit_cube
from .errors import ConfigError, RankDeficiencyError

# Lattice points per axis by dimension p, 8 above p = 3.
GRID = {2: 64, 3: 16}
GRID_GUARD = 1_000_000
# Positions per brute-force leaf of the p = 2 dominance sweep (at most).
DOMINANCE_LEAF = 16
# Scan-point rows per block of the p >= 3 dominance sums: the float copy of
# the boolean mask is then block x n rather than n x n.
DOMINANCE_BLOCK = 64
# Barrier shift of a Brownian maximum observed on a grid of step 1/n, so
# that its law is close to K(x + SIEGMUND_BETA / sqrt(n)):
# -zeta(1/2) / sqrt(2 pi) (Siegmund 1985; Broadie, Glasserman & Kou 1997).
SIEGMUND_BETA = 0.5826


def lattice_resolution(p: int) -> int | None:
    """The per-axis lattice resolution a p-dimensional process is evaluated
    on: None at p = 1, which scans no lattice, else GRID[p]; a lattice of
    more than GRID_GUARD points is refused."""
    if p == 1:
        return None
    m = GRID.get(p, 8)
    if m**p > GRID_GUARD:
        raise ConfigError(f"a lattice of {m}^{p} points exceeds the {GRID_GUARD} guard")
    return m


@dataclass(frozen=True, eq=False)
class StepProcess:
    """Evaluation points and partial-sum values of a residual process: (k, p)
    points and (k,) values, or (k, m) for m residual columns; a stacked
    process puts the sample axis in front of both."""

    eval_points: np.ndarray
    eval_values: np.ndarray

    @property
    def stacked(self) -> bool:
        return self.eval_points.ndim == 3


def _lattice(p: int, m: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, m)
    mesh = np.meshgrid(*([axis] * p), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _lattice_bins(scan: np.ndarray, m: int) -> np.ndarray:
    """Flat index of the lattice bin of each scan point: the smallest
    lattice node componentwise >= it."""
    p = scan.shape[1]
    axis = np.linspace(0.0, 1.0, m)
    idx = np.stack([np.searchsorted(axis, scan[:, j], side="left") for j in range(p)], axis=1)
    return np.ravel_multi_index(tuple(idx.T), (m,) * p)


def _lattice_values(bins: np.ndarray, cols: np.ndarray, m: int, p: int) -> np.ndarray:
    """Exact process values on the regular lattice via p-dimensional
    cumulative sums of the (n, width) contributions binned at ``bins``.
    Each residual column is binned in its own bins, in row order, so a
    column's values do not depend on the other columns."""
    width = cols.shape[1]
    flat = (bins[:, None] * width + np.arange(width)).ravel()
    box = np.bincount(flat, weights=cols.ravel(), minlength=m**p * width).reshape((m,) * p + (width,))
    for ax in range(p):
        np.cumsum(box, axis=ax, out=box)
    return box.reshape(m**p, width)


@dataclass(frozen=True, eq=False)
class _Sweep:
    """The merge sweep of one set of n >= 1 p = 2 scan points, set up once
    for any residual columns.

    The points are put in positions ordered by (x2, x1), ``order``; a
    point is then dominated exactly by the points at earlier positions
    whose x1 rank is <= its own, plus its exact duplicates at later
    positions.  The positions are padded to leaf * 2**levels with zero
    contributions.  ``below`` holds the dominance inside each leaf of at
    most DOMINANCE_LEAF positions.  Each merge level sorts every block by
    (x1 rank, half), left half first on equal ranks; ``merges`` holds per
    level that order, its right-half mask, the positions under that mask
    and the half width.  ``last`` maps each position to the last copy of
    its point when exact duplicates exist (Bentley 1980, multidimensional
    divide-and-conquer).
    """

    order: np.ndarray
    below: np.ndarray
    merges: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, int], ...]
    last: np.ndarray | None


def _sweep(scan: np.ndarray) -> _Sweep:
    """One stable sort of n keys per merge level, log2(n / DOMINANCE_LEAF)
    levels, O(n) memory per level."""
    n = scan.shape[0]
    x1, x2 = scan[:, 0], scan[:, 1]
    by_x1 = np.argsort(x1, kind="stable")
    ranked = x1[by_x1]
    rank1 = np.empty(n, dtype=np.int64)  # equal values share a rank
    rank1[by_x1] = np.cumsum(np.concatenate([[0], ranked[1:] != ranked[:-1]]))
    order = by_x1[np.argsort(x2[by_x1], kind="stable")]

    levels = ((n - 1) // DOMINANCE_LEAF).bit_length()
    leaf = -(-n // (1 << levels))
    size = leaf << levels
    rank = np.zeros(size, dtype=np.int64)
    rank[:n] = rank1[order]
    leaf_rank = rank.reshape(-1, leaf)
    below = (leaf_rank[:, None, :] <= leaf_rank[:, :, None]) & np.tri(leaf, dtype=bool)

    merges = []
    merged = np.arange(size)  # positions; each block of the level sorted by (rank, half)
    stride = 2 * n  # above 2 * rank + 1 for every rank < n
    half = leaf
    while half < size:
        halves = merged // half
        key = (halves >> 1) * stride + 2 * rank[merged] + (halves & 1)
        merged = merged[np.argsort(key, kind="stable")]
        right = (merged // half) % 2 == 1
        merges.append((merged, right, merged[right], half))
        half *= 2

    s1, s2 = x1[order], x2[order]
    dup = (s1[1:] == s1[:-1]) & (s2[1:] == s2[:-1])
    last = None
    if dup.any():
        # an exact duplicate takes the value of its last copy, which sees all copies
        ends = np.flatnonzero(~np.append(dup, False))
        last = ends[np.searchsorted(ends, np.arange(n))]
    return _Sweep(order, below, tuple(merges), last)


def _sweep_sums(sweep: _Sweep, cols: np.ndarray) -> np.ndarray:
    """Dominance sums of (n, m) contributions by a merge sweep: the leaves
    are summed by brute force, one leaf position at a time over all
    leaves, so each column's sums round the same whatever m is; each merge
    level then adds, by one cumulative sum per block, the block's
    left-half contributions to its right-half points.  No BLAS call."""
    n, m = cols.shape
    leaves, leaf, _ = sweep.below.shape
    size = leaves * leaf
    padded = np.zeros((size, m))
    padded[:n] = cols[sweep.order]
    blocks = padded.reshape(-1, leaf, m)
    sums = np.zeros(blocks.shape)
    for j in range(leaf):  # one fixed summation order, whatever m is
        sums += sweep.below[:, :, j, None] * blocks[:, None, j, :]
    sums = sums.reshape(size, m)
    for merged, right, targets, half in sweep.merges:
        part = padded[merged]
        part[right] = 0.0
        part = np.cumsum(part.reshape(-1, 2 * half, m), axis=1).reshape(size, m)
        sums[targets] += part[right]
    sums = sums[:n]
    if sweep.last is not None:
        sums = sums[sweep.last]
    out = np.empty((n, m))
    out[sweep.order] = sums
    return out


def _mask_sums(scan: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dominance sums of p >= 3 scan points (and of no points at all): the
    dominance mask times the contributions in DOMINANCE_BLOCK row blocks;
    the mask is built one coordinate at a time, so no (n, n, p) temporary
    is made.  Each column is one matrix-vector product with the mask, so
    its sums round the same whatever the other columns are."""
    n, p = scan.shape
    out = np.empty(cols.shape[::-1])
    vectors = np.ascontiguousarray(cols.T)
    for start in range(0, n, DOMINANCE_BLOCK):
        rows = scan[start : start + DOMINANCE_BLOCK]
        mask = scan[None, :, 0] <= rows[:, None, 0]
        for j in range(1, p):
            mask &= scan[None, :, j] <= rows[:, None, j]
        weights = mask.astype(float)
        for sums, vector in zip(out, vectors):
            sums[start : start + DOMINANCE_BLOCK] = weights @ vector
    return out.T


def tie_last(sorted_values: np.ndarray) -> np.ndarray:
    """For each position of ascending rows, the position of the last copy
    of its value in the row (the row's tie group ends there)."""
    n = sorted_values.shape[-1]
    ends = np.ones(sorted_values.shape, dtype=bool)
    ends[..., :-1] = sorted_values[..., 1:] != sorted_values[..., :-1]
    marks = np.where(ends, np.arange(n), n)
    return np.minimum.accumulate(marks[..., ::-1], axis=-1)[..., ::-1]


@dataclass(frozen=True, eq=False)
class ProcessPlan:
    """The part of a process build that depends on the scan points alone,
    made once by ``process_plan`` (or ``ecdf_plan``) and applied by
    ``build_process`` and ``plan_statistics`` to any residuals scanned by
    those points.

    ``lead_shape`` is (n,) for one set of scan points and (B, n) for a stack:
    the leading axes of the residuals the plan takes.  ``eval_points`` are
    those of every process built from the plan.  p = 1 keeps the stable
    ascending order of each sample's scan times as flat row indices of the
    stack, ``gather``, and in ``pick`` the flat positions of the evaluation
    values among the zero-led cumulative sums of the ordered
    contributions: the tie-last index of each sorted time, one past it.
    p >= 2 keeps in ``samples``, per sample, a ``_Sweep`` (p = 2) or the
    scan points themselves (p >= 3 and empty samples), with the lattice
    bin of every scan point on the lattice of ``lattice_resolution(p)``.
    """

    lead_shape: tuple[int, ...]
    eval_points: np.ndarray
    gather: np.ndarray | None = None
    pick: np.ndarray | None = None
    samples: tuple[tuple[_Sweep | np.ndarray, np.ndarray], ...] = ()

    @property
    def stacked(self) -> bool:
        return len(self.lead_shape) == 2

    def parts(self, columns: np.ndarray):
        """The (B, k, m) process values of (B, n, m) contributions, one part
        of the evaluation axis at a time, in order: at p = 1 the cumulative
        sums picked at the evaluation times; at p >= 2 the dominance sums at
        the scan points (the merge sweep at p = 2, the mask sums at
        p >= 3), then the lattice values."""
        b, n, m = columns.shape
        if self.gather is not None:
            sums = np.empty((b, n + 1, m))
            sums[:, 0] = 0.0
            np.cumsum(columns.reshape(b * n, m)[self.gather].reshape(b, n, m), axis=1, out=sums[:, 1:])
            yield sums.reshape(b * (n + 1), m)[self.pick].reshape(b, -1, m)
            return
        p = self.eval_points.shape[-1]
        resolution = lattice_resolution(p)
        yield np.stack(
            [
                _sweep_sums(kernel, cols) if isinstance(kernel, _Sweep) else _mask_sums(kernel, cols)
                for (kernel, _), cols in zip(self.samples, columns)
            ]
        )
        yield np.stack([_lattice_values(bins, cols, resolution, p) for (_, bins), cols in zip(self.samples, columns)])


def _line_plan(order: np.ndarray, ranked: np.ndarray, last: np.ndarray, stacked: bool) -> ProcessPlan:
    """p = 1 plan of a (B, n) stack of scan times, given per sample by the
    stable ascending order of its times, the sorted times and the tie-last
    index of each: evaluation at t = 0 and at the n sorted times, with the
    partial sum up to the last copy of each time (t = 0 is a scan time of
    its own when some point sits there).  An unstacked plan keeps one
    evaluation point per distinct time."""
    b, n = ranked.shape
    rows = np.arange(b)[:, None]
    first = np.where(ranked[:, :1] > 0.0, 0, last[:, :1] + 1) if n else np.zeros((b, 1), dtype=np.intp)
    pick = np.concatenate([first, last + 1], axis=1)
    points = np.concatenate([np.zeros((b, 1)), ranked], axis=1)
    if not stacked:
        keep = np.append(points[0, 1:] != points[0, :-1], True)
        points, pick = points[:, keep], pick[:, keep]
    return ProcessPlan(
        lead_shape=ranked.shape if stacked else (n,),
        eval_points=points[..., None] if stacked else points[0, :, None],
        gather=(order + rows * n).ravel(),
        pick=(pick + rows * (n + 1)).ravel(),
    )


def ecdf_plan(x: np.ndarray, d: int) -> tuple[np.ndarray, ProcessPlan]:
    """Empirical-CDF scan times of a covariate, (n,) or a (B, n) stack, in
    data row order, and the plan of the processes they scan.

    The time of an entry is the share of its sample's entries <= it: i/n
    without ties, and tied entries share the time of their last copy.  One
    sort per sample gives the times, their tie groups and the plan, which
    equals ``process_plan`` of the times.  Raises RankDeficiencyError when a
    sample takes d or fewer distinct values: a score span of dimension d
    then holds every tie-group indicator, and the transformed process
    vanishes at all its times.
    """
    x = np.asarray(x, dtype=float)
    stacked = x.ndim == 2
    xs = x if stacked else x[None]
    b, n = xs.shape
    # the default sort is several times faster than a stable one, and in a
    # sample without ties it gives the one ascending order there is
    order = np.argsort(xs, axis=-1)
    offsets = n * np.arange(b)[:, None]  # rows of the flattened stack
    ranked = xs.ravel()[order + offsets]
    distinct = n - np.count_nonzero(ranked[:, 1:] == ranked[:, :-1], axis=-1)
    if np.any(distinct <= d):
        raise RankDeficiencyError(
            f"the covariate takes {int(distinct.min())} distinct values, not more than the "
            f"d = {d} fitted parameters: the residual process would vanish at every scan time"
        )
    tied = distinct < n
    if tied.any():
        order[tied] = np.argsort(xs[tied], axis=-1, kind="stable")
    last = tie_last(ranked)
    sorted_times = (last + 1) / n
    times = np.empty(b * n)
    times[(order + offsets).ravel()] = sorted_times.ravel()
    return times.reshape(x.shape), _line_plan(order, sorted_times, last, stacked)


def process_plan(scan_points: np.ndarray) -> ProcessPlan:
    """Set up the processes scanned by ``scan_points`` for any residuals.

    scan_points must lie in [0,1]^p (times for p = 1, transported or
    rescaled covariates for p >= 2): (n, p) points, n times, or a (B, n, p)
    stack.  For p >= 2 the lattice is that of ``lattice_resolution(p)``.
    """
    scan = np.asarray(scan_points, dtype=float)
    if scan.ndim == 1:
        scan = scan[:, None]
    if scan.ndim not in (2, 3):
        raise ValueError(f"scan points must be (n, p) or (B, n, p), got shape {scan.shape}")
    check_unit_cube("scan points", scan)
    stacked = scan.ndim == 3
    n, p = scan.shape[-2:]
    m = lattice_resolution(p)
    scans = scan if stacked else scan[None]
    if p == 1:
        times = scans[..., 0]
        order = np.argsort(times, axis=-1, kind="stable")
        ranked = np.take_along_axis(times, order, axis=-1)
        return _line_plan(order, ranked, tie_last(ranked), stacked)
    lattice = _lattice(p, m)
    eval_points = np.concatenate([scans, np.broadcast_to(lattice, (scans.shape[0],) + lattice.shape)], axis=1)
    samples = tuple((_sweep(pts) if p == 2 and n else pts, _lattice_bins(pts, m)) for pts in scans)
    return ProcessPlan(
        lead_shape=scan.shape[:-1],
        eval_points=eval_points if stacked else eval_points[0],
        samples=samples,
    )


def _contributions(residuals, plan: ProcessPlan) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (B, n, m) contributions residual / sqrt(n) of residuals that
    ``plan`` takes, and the column shape of the residuals: () or (m,)."""
    residuals = np.asarray(residuals, dtype=float)
    lead = len(plan.lead_shape)  # axes before the columns: (n,) or (B, n)
    if residuals.ndim not in (lead, lead + 1) or residuals.shape[:lead] != plan.lead_shape:
        raise ValueError(
            f"residuals (shape {residuals.shape}) and scan points (shape {plan.lead_shape}) do not match"
        )
    contrib = residuals / math.sqrt(plan.lead_shape[-1])
    columns = contrib if plan.stacked else contrib[None]
    return (columns if columns.ndim == 3 else columns[..., None]), contrib.shape[lead:]


def build_process(residuals: np.ndarray, scan_points) -> StepProcess:
    """Build the partial-sum process of ``residuals`` scanned by ``scan_points``.

    ``residuals`` is one vector of length n or an (n, m) matrix whose
    columns share the scan points.  ``scan_points`` are those of
    ``process_plan``, or a plan it made: building many processes on the
    same points from one plan sets them up once.
    A (B, n, p) stack of scan points with (B, n) or (B, n, m) residuals
    builds the B processes at once as one stacked process.
    """
    plan = scan_points if isinstance(scan_points, ProcessPlan) else process_plan(scan_points)
    columns, column_shape = _contributions(residuals, plan)
    parts = list(plan.parts(columns))
    values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    values = values.reshape(values.shape[:2] + column_shape)
    return StepProcess(eval_points=plan.eval_points, eval_values=values if plan.stacked else values[0])


def _extreme_statistics(high, low) -> dict[str, float | np.ndarray]:
    """ks_abs and ks_plus from the max and the min of a process's values:
    max |value| is the larger of |max| and |min|, exactly."""
    stats = {"ks_abs": np.maximum(np.abs(high), np.abs(low)), "ks_plus": high}
    if np.ndim(high) == 0:
        return {name: float(value) for name, value in stats.items()}
    return stats


def ks_statistics(proc: StepProcess) -> dict[str, float | np.ndarray]:
    """Kolmogorov-Smirnov style statistics of the evaluated process:
    ks_abs = max |value| and ks_plus = max value over the evaluation points.

    For a matrix process each statistic is a length-m array, one entry per
    residual column; a stacked process puts the sample axis in front.
    """
    values = proc.eval_values
    axis = 1 if proc.stacked else 0
    if values.shape[axis] == 0:
        raise ValueError("process has an empty evaluation set")
    return _extreme_statistics(values.max(axis=axis), values.min(axis=axis))


def plan_statistics(residuals: np.ndarray, plan: ProcessPlan) -> dict[str, float | np.ndarray]:
    """``ks_statistics(build_process(residuals, plan))``, bit for bit,
    without the process: each part of the values (``ProcessPlan.parts``)
    is reduced to its max and min per column as it is made, so the values
    of all the evaluation points are never held at once."""
    columns, column_shape = _contributions(residuals, plan)
    extremes = [(part.max(axis=1, initial=-np.inf), part.min(axis=1, initial=np.inf)) for part in plan.parts(columns)]
    shape = columns.shape[:1] + column_shape if plan.stacked else column_shape
    high = np.maximum.reduce([high for high, _ in extremes]).reshape(shape)
    low = np.minimum.reduce([low for _, low in extremes]).reshape(shape)
    return _extreme_statistics(high, low)


def kolmogorov_cdf(x):
    """CDF of the supremum of the absolute Brownian bridge.

    K(x) = 1 - 2 sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2); the series is
    truncated once terms drop below 1e-12.  For x < 0.04 the value is below
    the double-precision underflow threshold and 0 is returned directly.
    ``x`` may be a scalar (a float is returned) or an array (an array of
    the same shape is returned, each entry summed as the scalar would be).
    """
    x = np.asarray(x, dtype=float)
    bad = x[~(x >= 0.0)]
    if bad.size:
        raise ValueError(f"x must be >= 0, got {float(bad[0])}")
    flat = x.ravel()
    s = np.zeros(flat.shape)
    # entries still summing; the terms fall with k, so an entry whose term
    # dropped below the cutoff is done for good
    live = np.flatnonzero(flat >= 0.04)
    xs = flat[live]
    sign = 1.0
    for k in range(1, 100_000):
        term = np.exp(-2.0 * k * k * xs * xs)
        keep = term >= 1e-12
        if not keep.all():
            live, xs, term = live[keep], xs[keep], term[keep]
        if live.size == 0:
            break
        s[live] += sign * term
        sign = -sign
    value = 1.0 - 2.0 * s
    # below 2x the truncation bound: noise, not signal
    value = np.where((flat < 0.04) | (value < 1e-11), 0.0, np.minimum(value, 1.0)).reshape(x.shape)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True, eq=False)
class Ecdf:
    """Empirical distribution of replication statistics."""

    sorted_values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.sorted_values, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("an Ecdf needs a non-empty 1-D value array")
        object.__setattr__(self, "sorted_values", v)

    @property
    def size(self) -> int:
        return self.sorted_values.size

    def quantile(self, q: float) -> float:
        """Order-statistic quantile: the ceil(q * size)-th smallest value."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        k = min(max(int(math.ceil(q * self.size)), 1), self.size)
        return float(self.sorted_values[k - 1])


def ecdf_sup_distance(a: Ecdf, b: Ecdf) -> float:
    """Exact two-sample Kolmogorov sup distance between step ECDFs."""
    grid = np.concatenate([a.sorted_values, b.sorted_values])
    fa = np.searchsorted(a.sorted_values, grid, side="right") / a.size
    fb = np.searchsorted(b.sorted_values, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ecdf_vs_cdf_sup(ecdf: Ecdf, cdf) -> float:
    """Exact sup distance between a step ECDF and a continuous CDF that
    accepts an array of points."""
    n = ecdf.size
    c = np.asarray(cdf(ecdf.sorted_values), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.maximum(np.abs(i / n - c), np.abs((i - 1) / n - c)).max())


def limit_covariance(x, y, basis: ReferenceBasis) -> float:
    """Covariance of the limiting transformed process between points x and y.

    Equals the uniform-volume of the box below min(x, y) (componentwise)
    minus sum_k Q_k(x) Q_k(y) over the reference basis.  For the constant-
    only basis in one dimension this is the Brownian bridge covariance
    min(s, t) - s t.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (basis.p,) or y.shape != (basis.p,):
        raise ValueError(f"points must have dimension {basis.p}")
    for pt in (x, y):
        check_unit_cube("points", pt)
    value = float(np.minimum(x, y).prod())
    for k in range(basis.d):
        value -= float(basis.cumulative_one(k, x[None, :])[0] * basis.cumulative_one(k, y[None, :])[0])
    return value

