"""Partial-sum residual processes, test statistics and limit references.

The residual process at x is the sum of residual contributions whose scan
point is componentwise <= x, scaled by 1/sqrt(n).  In one dimension the
scan points are the rank times i/n and the process is evaluated exactly at
t = 0 and every jump; in higher dimensions the supremum over the cube is
approximated by evaluating at every scan point plus a regular lattice
(its resolution is a config knob and is reported in outputs).

A process may carry one residual vector or the m columns of an (n, m)
residual matrix scanned by the same points; its contributions and
evaluation values then gain a trailing column axis, and every statistic
becomes a length-m array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import ReferenceBasis

DEFAULT_GRID = {2: 64, 3: 16}
GRID_GUARD = 1_000_000
# Scan-point rows per block of the p >= 2 dominance sums of a residual
# matrix: numpy multiplies a boolean mask by a float copy of it, which is
# then block x n rather than n x n.
DOMINANCE_BLOCK = 64


@dataclass(frozen=True, eq=False)
class StepProcess:
    """Scan-ordered partial-sum process with its evaluations."""

    scan_points: np.ndarray  # (n, p)
    contributions: np.ndarray  # residual / sqrt(n): (n,), or (n, m) for m residual columns
    eval_points: np.ndarray  # (k, p)
    eval_values: np.ndarray  # (k,), or (k, m)

    @property
    def p(self) -> int:
        return self.scan_points.shape[1]

    def value_at(self, x) -> float:
        """Process value at an arbitrary point (componentwise <=)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mask = np.all(self.scan_points <= x, axis=1)
        return float(self.contributions[mask].sum())

    def column(self, j: int) -> "StepProcess":
        """The process of residual column j of a matrix process."""
        return StepProcess(
            scan_points=self.scan_points,
            contributions=self.contributions[:, j].copy(),
            eval_points=self.eval_points,
            eval_values=self.eval_values[:, j].copy(),
        )


@dataclass(frozen=True, eq=False)
class StatisticResult:
    name: str
    value: float | np.ndarray  # (m,) for a matrix process
    argmax: np.ndarray | None  # (p,), or (m, p)


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


def _dominance_sums(scan: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Process values at the scan points: at each point, the sum of the
    contributions whose scan point is componentwise <= it.

    The boolean dominance mask is built one coordinate at a time, so no
    (n, n, p) temporary is made.  A residual matrix is summed over row
    blocks of the mask; a single residual vector keeps the one
    matrix-vector product over the whole mask, whose rounding the
    simulation outputs are pinned to.
    """
    n, p = scan.shape
    block = max(n if contrib.ndim == 1 else DOMINANCE_BLOCK, 1)
    out = np.empty(contrib.shape)
    for start in range(0, n, block):
        rows = scan[start : start + block]
        mask = scan[None, :, 0] <= rows[:, None, 0]
        for j in range(1, p):
            mask &= scan[None, :, j] <= rows[:, None, j]
        out[start : start + block] = mask @ contrib
    return out


def build_process(residuals: np.ndarray, scan_points: np.ndarray, grid: int | None = None) -> StepProcess:
    """Build the partial-sum process of ``residuals`` scanned by ``scan_points``.

    ``residuals`` is one vector of length n or an (n, m) matrix whose
    columns share the scan points.  scan_points must lie in [0,1]^p (rank
    times for p = 1, transported or rescaled covariates for p >= 2).
    ``grid`` is the per-axis lattice resolution for p >= 2 (default 64 for
    p = 2).
    """
    residuals = np.asarray(residuals, dtype=float)
    scan = np.asarray(scan_points, dtype=float)
    if scan.ndim == 1:
        scan = scan[:, None]
    if residuals.ndim not in (1, 2) or residuals.shape[0] != scan.shape[0]:
        raise ValueError(
            f"residuals (shape {residuals.shape}) and scan points (shape {scan.shape}) do not match"
        )
    if scan.size and (scan.min() < 0.0 or scan.max() > 1.0):
        raise ValueError("scan points must lie in [0, 1]^p")
    n, p = scan.shape
    contrib = residuals / math.sqrt(n)

    if p == 1:
        order = np.argsort(scan[:, 0], kind="stable")
        sorted_pts = scan[order, 0]
        csum = np.cumsum(contrib[order], axis=0)
        uniq = np.unique(sorted_pts)
        last = np.searchsorted(sorted_pts, uniq, side="right") - 1
        values = csum[last]
        if uniq.size == 0 or uniq[0] > 0.0:
            uniq = np.concatenate([[0.0], uniq])
            values = np.concatenate([np.zeros((1,) + values.shape[1:]), values])
        return StepProcess(
            scan_points=scan, contributions=contrib, eval_points=uniq[:, None], eval_values=values
        )

    m = grid if grid is not None else DEFAULT_GRID.get(p, 8)
    if m < 2:
        raise ValueError(f"grid resolution must be >= 2, got {m}")
    if m**p > GRID_GUARD:
        raise ValueError(f"lattice of {m}^{p} points exceeds the {GRID_GUARD} guard")
    return StepProcess(
        scan_points=scan,
        contributions=contrib,
        eval_points=np.vstack([scan, _lattice(p, m)]),
        eval_values=np.concatenate([_dominance_sums(scan, contrib), _lattice_values(scan, contrib, m)]),
    )


def ks_statistics(proc: StepProcess) -> list[StatisticResult]:
    """Kolmogorov-Smirnov style statistics of the evaluated process.

    ks_abs = max |value|, ks_plus = max value, cvm = mean of squared values
    over the evaluation points (a discrete quadratic surrogate, reported as
    engineering plumbing).  The evaluation point attaining each maximum is
    recorded.  For a matrix process each value is a length-m array, one
    entry per residual column, and each argmax an (m, p) array.
    """
    values = proc.eval_values
    if values.shape[0] == 0:
        raise ValueError("process has an empty evaluation set")
    size = np.abs(values)
    i_abs = np.argmax(size, axis=0)
    i_plus = np.argmax(values, axis=0)
    cvm = np.mean(values**2, axis=0)
    if values.ndim == 1:
        ks_abs, ks_plus, cvm = float(size[i_abs]), float(values[i_plus]), float(cvm)
    else:
        cols = np.arange(values.shape[1])
        ks_abs, ks_plus = size[i_abs, cols], values[i_plus, cols]
    return [
        StatisticResult("ks_abs", ks_abs, proc.eval_points[i_abs].copy()),
        StatisticResult("ks_plus", ks_plus, proc.eval_points[i_plus].copy()),
        StatisticResult("cvm", cvm, None),
    ]


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
        if pt.min() < 0.0 or pt.max() > 1.0:
            raise ValueError("points must lie in [0, 1]^p")
    value = float(np.minimum(x, y).prod())
    for k in range(basis.d):
        value -= float(basis.cumulative_one(k, x[None, :])[0] * basis.cumulative_one(k, y[None, :])[0])
    return value
