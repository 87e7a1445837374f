"""Partial-sum residual processes, test statistics and limit references.

The residual process at x is the sum of residual contributions whose scan
point is componentwise <= x, scaled by 1/sqrt(n).  In one dimension the
scan points are the empirical-CDF times of the covariate (i/n without
ties) and the process is evaluated exactly at t = 0 and every jump; in
higher dimensions the supremum over the cube is approximated by evaluating
at every scan point plus a regular lattice (its resolution is a config knob
and is reported in outputs).  At p = 2 the values at the scan points come
from a merge sweep over the points ordered by their second coordinate, in
O(n log^2 n) time at worst and O(n) memory per residual column; p >= 3
sums an n x n dominance mask in row blocks.

A process may carry one residual vector or the m columns of an (n, m)
residual matrix scanned by the same points; its contributions and
evaluation values then gain a trailing column axis, and every statistic
becomes a length-m array.  A stack of B samples, each with its own scan
points, gives a stacked process: every field gains a leading sample axis.
At p = 1 its evaluation points are then t = 0 and all n sorted scan
points, tied copies included, each copy carrying the value of its tie
group, so every sample has n + 1 of them.

Replicated statistics are summarized by their empirical distribution
(``Ecdf``), compared with each other or with a reference law such as
``kolmogorov_cdf`` by exact sup distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ReferenceBasis, check_unit_cube

DEFAULT_GRID = {2: 64, 3: 16}
GRID_GUARD = 1_000_000
# Positions per brute-force leaf of the p = 2 dominance sweep (at most).
DOMINANCE_LEAF = 16
# Scan-point rows per block of the p >= 3 dominance sums: numpy multiplies a
# boolean mask by a float copy of it, which is then block x n rather than
# n x n.
DOMINANCE_BLOCK = 64


@dataclass(frozen=True, eq=False)
class StepProcess:
    """Scan-ordered partial-sum process with its evaluations (a stacked
    process puts the sample axis in front of each field)."""

    scan_points: np.ndarray  # (n, p)
    contributions: np.ndarray  # residual / sqrt(n): (n,), or (n, m) for m residual columns
    eval_points: np.ndarray  # (k, p)
    eval_values: np.ndarray  # (k,), or (k, m)

    @property
    def stacked(self) -> bool:
        return self.eval_points.ndim == 3

    @property
    def p(self) -> int:
        return self.scan_points.shape[-1]

    def column(self, j: int) -> "StepProcess":
        """The process of residual column j of a matrix process."""
        return StepProcess(
            scan_points=self.scan_points,
            contributions=self.contributions[..., j].copy(),
            eval_points=self.eval_points,
            eval_values=self.eval_values[..., j].copy(),
        )


def _lattice(p: int, m: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, m)
    mesh = np.meshgrid(*([axis] * p), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _lattice_values(scan: np.ndarray, contrib: np.ndarray, m: int) -> np.ndarray:
    """Exact process values on the regular lattice via p-dimensional
    cumulative sums: each contribution is binned at the smallest lattice
    node componentwise >= its scan point.  Each residual column is binned
    in its own bins, in row order, so a column's values do not depend on
    the other columns."""
    p = scan.shape[1]
    axis = np.linspace(0.0, 1.0, m)
    idx = np.stack([np.searchsorted(axis, scan[:, j], side="left") for j in range(p)], axis=1)
    flat = np.ravel_multi_index(tuple(idx.T), (m,) * p)
    cols = contrib[:, None] if contrib.ndim == 1 else contrib
    width = cols.shape[1]
    bins = (flat[:, None] * width + np.arange(width)).ravel()
    box = np.bincount(bins, weights=cols.ravel(), minlength=m**p * width).reshape((m,) * p + (width,))
    for ax in range(p):
        box = np.cumsum(box, axis=ax)
    return box.reshape((m**p,) + contrib.shape[1:])


def _planar_dominance_sums(scan: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Dominance sums of p = 2 scan points by a bottom-up merge sweep.

    The points are put in positions ordered by (x2, x1); a point is then
    dominated exactly by the points at earlier positions whose x1 rank is
    <= its own, plus its exact duplicates at later positions.  The
    positions are padded to leaf * 2**levels with zero contributions.
    Leaves of at most DOMINANCE_LEAF positions are summed by brute force,
    one leaf position at a time over all leaves, so each column's sums
    round the same whatever the number of columns.  Each merge level then
    sorts every block by (x1 rank, half), left half first on equal ranks,
    and one cumulative sum adds the block's left-half contributions to its
    right-half points (Bentley 1980, multidimensional divide-and-conquer).
    One stable sort of n keys per level, log2(n / DOMINANCE_LEAF) levels,
    O(n) memory per residual column, and no BLAS call.
    """
    n = scan.shape[0]
    if n == 0:
        return np.zeros(contrib.shape)
    cols = contrib.reshape(n, -1)
    m = cols.shape[1]
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
    padded = np.zeros((size, m))
    padded[:n] = cols[order]
    leaf_rank = rank.reshape(-1, leaf)
    below = (leaf_rank[:, None, :] <= leaf_rank[:, :, None]) & np.tri(leaf, dtype=bool)
    blocks = padded.reshape(-1, leaf, m)
    sums = np.zeros(blocks.shape)
    for j in range(leaf):  # one fixed summation order, whatever m is
        sums += below[:, :, j, None] * blocks[:, None, j, :]
    sums = sums.reshape(size, m)

    merged = np.arange(size)  # positions; each block of the level sorted by (rank, half)
    stride = 2 * n  # above 2 * rank + 1 for every rank < n
    half = leaf
    while half < size:
        halves = merged // half
        key = (halves >> 1) * stride + 2 * rank[merged] + (halves & 1)
        merged = merged[np.argsort(key, kind="stable")]
        right = (merged // half) % 2 == 1
        part = padded[merged]
        part[right] = 0.0
        part = np.cumsum(part.reshape(-1, 2 * half, m), axis=1).reshape(size, m)
        sums[merged[right]] += part[right]
        half *= 2

    sums = sums[:n]
    s1, s2 = x1[order], x2[order]
    dup = (s1[1:] == s1[:-1]) & (s2[1:] == s2[:-1])
    if dup.any():
        # an exact duplicate takes the value of its last copy, which sees all copies
        last = np.flatnonzero(~np.append(dup, False))
        sums = sums[last[np.searchsorted(last, np.arange(n))]]
    out = np.empty((n, m))
    out[order] = sums
    return out.reshape(contrib.shape)


def _dominance_sums(scan: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Process values at the scan points: at each point, the sum of the
    contributions whose scan point is componentwise <= it.

    ``contrib`` is a vector or an (n, m) matrix.  p = 2 runs the merge
    sweep of ``_planar_dominance_sums``.  p >= 3, which no model kind
    reaches, multiplies the boolean dominance mask by the contributions in
    DOMINANCE_BLOCK row blocks; the mask is built one coordinate at a
    time, so no (n, n, p) temporary is made.
    """
    n, p = scan.shape
    if p == 2:
        return _planar_dominance_sums(scan, contrib)
    out = np.empty(contrib.shape)
    for start in range(0, n, DOMINANCE_BLOCK):
        rows = scan[start : start + DOMINANCE_BLOCK]
        mask = scan[None, :, 0] <= rows[:, None, 0]
        for j in range(1, p):
            mask &= scan[None, :, j] <= rows[:, None, j]
        out[start : start + DOMINANCE_BLOCK] = mask @ contrib
    return out


def tie_last(sorted_values: np.ndarray) -> np.ndarray:
    """For each position of ascending rows, the position of the last copy
    of its value in the row (the row's tie group ends there)."""
    n = sorted_values.shape[-1]
    ends = np.ones(sorted_values.shape, dtype=bool)
    ends[..., :-1] = sorted_values[..., 1:] != sorted_values[..., :-1]
    marks = np.where(ends, np.arange(n), n)
    return np.minimum.accumulate(marks[..., ::-1], axis=-1)[..., ::-1]


def _scan_values(scan: np.ndarray, contrib: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = 1 evaluation of a (B, n) stack of scan times and (B, n, m)
    contributions: t = 0 and the n sorted times of each sample, with the
    partial sum up to the last copy of each time."""
    order = np.argsort(scan, axis=-1, kind="stable")
    times = np.take_along_axis(scan, order, axis=-1)
    csum = np.cumsum(np.take_along_axis(contrib, order[..., None], axis=1), axis=1)
    values = np.take_along_axis(csum, tie_last(times)[..., None], axis=1)
    start = np.zeros((scan.shape[0], 1) + contrib.shape[2:])
    if scan.shape[1]:
        # t = 0 is a scan time of its own when some point sits there
        start = np.where((times[:, :1] > 0.0)[..., None], start, values[:, :1])
    return np.concatenate([np.zeros((scan.shape[0], 1)), times], axis=1), np.concatenate([start, values], axis=1)


def build_process(residuals: np.ndarray, scan_points: np.ndarray, grid: int | None = None) -> StepProcess:
    """Build the partial-sum process of ``residuals`` scanned by ``scan_points``.

    ``residuals`` is one vector of length n or an (n, m) matrix whose
    columns share the scan points.  scan_points must lie in [0,1]^p (rank
    times for p = 1, transported or rescaled covariates for p >= 2).
    ``grid`` is the per-axis lattice resolution for p >= 2 (default 64 for
    p = 2).  A (B, n, p) stack of scan points with (B, n) or (B, n, m)
    residuals builds the B processes at once as one stacked process.
    """
    residuals = np.asarray(residuals, dtype=float)
    scan = np.asarray(scan_points, dtype=float)
    if scan.ndim == 1:
        scan = scan[:, None]
    stacked = scan.ndim == 3
    lead = scan.ndim - 1  # axes before the columns: (n,) or (B, n)
    if residuals.ndim not in (lead, lead + 1) or residuals.shape[:lead] != scan.shape[:lead]:
        raise ValueError(
            f"residuals (shape {residuals.shape}) and scan points (shape {scan.shape}) do not match"
        )
    check_unit_cube("scan points", scan)
    n, p = scan.shape[-2:]
    contrib = residuals / math.sqrt(n)
    scans = scan if stacked else scan[None]
    columns = contrib if stacked else contrib[None]
    columns = columns if columns.ndim == 3 else columns[..., None]

    if p == 1:
        points, values = _scan_values(scans[..., 0], columns)
        if not stacked:
            # one evaluation point per distinct time
            keep = np.append(points[0, 1:] != points[0, :-1], True)
            points, values = points[:, keep], values[:, keep]
        eval_points = points[..., None]
    else:
        m = grid if grid is not None else DEFAULT_GRID.get(p, 8)
        if m < 2:
            raise ValueError(f"grid resolution must be >= 2, got {m}")
        if m**p > GRID_GUARD:
            raise ValueError(f"lattice of {m}^{p} points exceeds the {GRID_GUARD} guard")
        lattice = _lattice(p, m)
        eval_points = np.concatenate([scans, np.broadcast_to(lattice, (scans.shape[0],) + lattice.shape)], axis=1)
        values = np.stack(
            [
                np.concatenate([_dominance_sums(pts, cols), _lattice_values(pts, cols, m)])
                for pts, cols in zip(scans, columns)
            ]
        )
    values = values.reshape(values.shape[:2] + contrib.shape[lead:])
    if not stacked:
        eval_points, values = eval_points[0], values[0]
    return StepProcess(scan_points=scan, contributions=contrib, eval_points=eval_points, eval_values=values)


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
    stats = {"ks_abs": np.abs(values).max(axis=axis), "ks_plus": values.max(axis=axis)}
    if values.ndim == 1:
        return {name: float(value) for name, value in stats.items()}
    return stats


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

