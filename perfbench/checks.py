"""Checks on dfgof outputs, computed apart from dfgof.

Every reference here is built from numpy and scipy alone: the Kolmogorov
law from ``scipy.stats.kstwobign``, optimal assignments from scipy's
solvers on a cost matrix computed here, the reference span from
``numpy.polynomial.legendre``, and partial sums by brute force over the
dominance relation.  No check compares against a stored copy of an earlier
output.  A failed check raises :class:`CheckFailed`.

Statistical checks use bounds that a correct program exceeds with
probability at most ``ALPHA`` per check, from the Dvoretzky-Kiefer-Wolfowitz
inequality P(sup |F_m - F| > eps) <= 2 exp(-2 m eps^2), so a benchmark run
of a correct program does not fail them by chance.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.stats import kstwobign

ALPHA = 1e-6
# Partial sums observed at the n rank times only: the maximum of the
# discretely monitored bridge follows K(x + 0.5826 / sqrt(n)) with
# 0.5826 = -zeta(1/2) / sqrt(2 pi) (Siegmund 1985; Broadie, Glasserman & Kou
# 1997).  At n = 200 the corrected law sits 0.002 from exact maxima;
# REFERENCE_SLACK covers that approximation error.
DISCRETE_SHIFT = 0.5826
REFERENCE_SLACK = 0.005
# Dense csgraph matching takes 2.2 s at n = 200 and 23 s at n = 300 on two
# cores, so larger instances are solved with linear_sum_assignment on the
# same cost matrix.
CSGRAPH_MAX_N = 200
PRIMES = (2, 3, 5, 7, 11, 13)
EXACT_TOL = 1e-12  # relative, for values dfgof writes with %.17g
ROUNDOFF_TOL = 1e-10


class CheckFailed(Exception):
    """An output of dfgof is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- bounds


def dkw_eps(m: int, alpha: float = ALPHA) -> float:
    """Sup distance an ECDF of m draws exceeds with probability <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * m))


def two_sample_bound(m1: int, m2: int, alpha: float = ALPHA) -> float:
    """Sup distance two ECDFs of one law exceed with probability <= alpha."""
    return dkw_eps(m1, alpha / 2.0) + dkw_eps(m2, alpha / 2.0)


def sup_vs_cdf(values: np.ndarray, cdf) -> float:
    """Exact sup distance between the step ECDF of ``values`` and ``cdf``."""
    v = np.sort(np.asarray(values, dtype=float))
    m = v.size
    f = cdf(v)
    i = np.arange(1, m + 1)
    return float(max((i / m - f).max(), (f - (i - 1) / m).max()))


def sup_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Exact sup distance between two step ECDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def discrete_kolmogorov_cdf(n: int):
    shift = DISCRETE_SHIFT / math.sqrt(n)
    return lambda x: kstwobign.cdf(np.asarray(x) + shift)


# ---------------------------------------------------------------- files


def read_columns(path: Path) -> np.ndarray:
    """Numeric rows of a dfgof CSV output, header and comment lines skipped."""
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(part) for part in line.split(",")])
        except ValueError:
            if rows:
                raise CheckFailed(f"{path}: non-numeric row {line!r}") from None
    require(bool(rows), f"{path}: no data rows")
    require(len({len(r) for r in rows}) == 1, f"{path}: ragged rows")
    return np.array(rows)


def ecdf_values(path: Path) -> np.ndarray:
    """Values of an ECDF file, after checking its value,level layout."""
    table = read_columns(path)
    require(table.shape[1] == 2, f"{path}: expected value,level columns")
    values, levels = table[:, 0], table[:, 1]
    m = values.size
    require(bool(np.all(np.isfinite(values))), f"{path}: non-finite values")
    require(bool(np.all(np.diff(values) >= 0.0)), f"{path}: values not sorted")
    require(
        bool(np.allclose(levels, np.arange(1, m + 1) / m, rtol=0.0, atol=1e-15)),
        f"{path}: levels are not (i + 1) / {m}",
    )
    return values


def summary_field(text: str, pattern: str) -> re.Match:
    match = re.search(pattern, text, flags=re.MULTILINE)
    require(match is not None, f"summary has no line matching {pattern!r}")
    return match


def basis_degrees(text: str) -> list[tuple[int, ...]]:
    """Multi-degrees from a basis description ``... degrees=[0,0;1,0;..]``."""
    raw = summary_field(text, r"degrees=\[([0-9,;]*)\]").group(1)
    return [tuple(int(v) for v in part.split(",")) for part in raw.split(";")]


# ---------------------------------------------------------------- geometry


def halton(n: int, p: int) -> np.ndarray:
    """First n points of the Halton sequence (bases 2, 3, 5, ...), index 1 on."""
    pts = np.zeros((n, p))
    for j, base in enumerate(PRIMES[:p]):
        i = np.arange(1, n + 1)
        f = 1.0
        while i.any():
            f /= base
            pts[:, j] += f * (i % base)
            i //= base
    return pts


def unit_cube(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(axis=0), x.max(axis=0)
    return (x - lo) / (hi - lo)


def euclidean_cost(x: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    return np.sqrt(((x[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2))


def optimal_cost(cost: np.ndarray) -> float:
    n = cost.shape[0]
    if n <= CSGRAPH_MAX_N:
        rows, cols = min_weight_full_bipartite_matching(csr_matrix(cost))
    else:
        rows, cols = linear_sum_assignment(cost)
    return math.fsum(cost[rows, cols])


def reference_span(points: np.ndarray, degrees) -> np.ndarray:
    """Orthonormal columns spanning the shifted Legendre products of the
    given multi-degrees, evaluated at ``points``."""
    cols = []
    for deg in degrees:
        col = np.ones(points.shape[0])
        for j, m in enumerate(deg):
            col = col * legendre.legval(2.0 * points[:, j] - 1.0, [0.0] * m + [1.0])
        cols.append(col)
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q


def lattice(p: int, m: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, m)
    mesh = np.meshgrid(*([axis] * p), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def partial_sums(scan: np.ndarray, values: np.ndarray, at: np.ndarray, block: int = 128) -> np.ndarray:
    """Brute force: sum of values[j] / sqrt(n) over scan[j] <= at[k]
    componentwise, for every row k of ``at`` (``values`` may be a matrix of
    columns).  Worked in blocks so memory stays small."""
    n = scan.shape[0]
    out = []
    for start in range(0, at.shape[0], block):
        dom = np.all(scan[None, :, :] <= at[start : start + block, None, :], axis=2)
        out.append(dom.astype(float) @ values)
    return np.concatenate(out) / math.sqrt(n)


# ---------------------------------------------------------------- checks


def check_univariate_null(values: np.ndarray, n: int) -> None:
    """ECDF of transformed ks_abs maxima against K(x + 0.5826/sqrt(n))."""
    dist = sup_vs_cdf(values, discrete_kolmogorov_cdf(n))
    bound = dkw_eps(values.size) + REFERENCE_SLACK
    require(dist <= bound, f"ks_abs ECDF is {dist:.4f} from the discrete Kolmogorov law (bound {bound:.4f})")


def check_same_law(a: np.ndarray, b: np.ndarray, what: str) -> None:
    dist = sup_two_sample(a, b)
    bound = two_sample_bound(a.size, b.size)
    require(dist <= bound, f"{what}: two-sample sup distance {dist:.4f} exceeds {bound:.4f}")


def check_ecdf_count(values: np.ndarray, expected: int, what: str) -> None:
    require(values.size == expected, f"{what}: {values.size} ECDF values, expected {expected}")


def check_assignment(x: np.ndarray, sigma: np.ndarray, reported_cost: float) -> None:
    """``sigma`` maps the rows of x (any scale) to the Halton net by minimum
    total Euclidean cost, and ``reported_cost`` is that cost."""
    x01 = unit_cube(np.asarray(x, dtype=float))
    n, p = x01.shape
    sigma = np.asarray(sigma)
    require(np.array_equal(np.sort(sigma), np.arange(n)), "assignment is not a permutation")
    cost = euclidean_cost(x01, halton(n, p))
    best = optimal_cost(cost)
    own = math.fsum(cost[np.arange(n), sigma])
    tol = ROUNDOFF_TOL * max(best, 1.0)
    require(abs(own - best) <= tol, f"assignment costs {own!r}, optimum is {best!r}")
    require(abs(reported_cost - best) <= tol, f"reported assignment cost {reported_cost!r}, optimum is {best!r}")


def check_transformed(raw: np.ndarray, transformed: np.ndarray, scan: np.ndarray, degrees) -> None:
    """The rotation keeps the residual norm and lands orthogonal to the
    reference span at the scan points."""
    raw_norm = float(np.linalg.norm(raw))
    norm = float(np.linalg.norm(transformed))
    require(
        abs(norm - raw_norm) <= ROUNDOFF_TOL * max(raw_norm, 1.0),
        f"transformed norm {norm!r} differs from residual norm {raw_norm!r}",
    )
    leak = float(np.abs(reference_span(scan, degrees).T @ transformed).max())
    require(leak <= ROUNDOFF_TOL * max(norm, 1.0), f"transformed residuals leak {leak:.3e} into the reference span")


def check_process(scan: np.ndarray, values: np.ndarray, eval_points: np.ndarray, eval_values: np.ndarray) -> None:
    """Process values at every evaluation point equal brute-force partial sums."""
    expected = partial_sums(scan, values, eval_points)
    err = float(np.abs(expected - eval_values).max())
    require(err <= ROUNDOFF_TOL * max(1.0, float(np.abs(expected).max())), f"process values off by {err:.3e}")


def check_pvalue(null: np.ndarray, observed: float, pvalue: float) -> None:
    expected = (1.0 + float(np.sum(null >= observed))) / (null.size + 1.0)
    require(abs(pvalue - expected) <= EXACT_TOL, f"p-value {pvalue!r}, recomputed {expected!r}")


def exact_null_ks_abs(points: np.ndarray, degrees, grid: int, draws: int, rng, chunk: int = 25) -> np.ndarray:
    """ks_abs drawn from the exact finite-n law of the transformed process
    under Gaussian errors: residuals N(0, I - R R^T), R spanning the
    reference functions at the scan points, evaluated at the scan points
    and the grid x grid lattice.  Drawn in small chunks, so that the
    benchmark's own arrays stay below the program's peak memory."""
    n, p = points.shape
    q = reference_span(points, degrees)
    at = np.vstack([points, lattice(p, grid)])
    out = np.empty(draws)
    for start in range(0, draws, chunk):
        z = rng.standard_normal((n, min(chunk, draws - start)))
        e = z - q @ (q.T @ z)
        out[start : start + z.shape[1]] = np.abs(partial_sums(points, e, at)).max(axis=0)
    return out
