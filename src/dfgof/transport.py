"""Optimal-assignment standardization of multidimensional covariates.

Covariate clouds in dimension p >= 2 have no canonical scan order.  We fix
n anchor points spread over [0,1]^p (a low-discrepancy Halton net by
default, or seeded i.i.d. uniforms) and match covariates to anchors by the
bijection minimizing the total Euclidean distance.  The matched anchor
points then play the role the rank transform plays in one dimension: the
empirical distribution of the transported covariates is exactly the anchor
distribution, whatever the covariates were.

Covariates are affinely rescaled per coordinate into [0,1]^p before
matching; the rescale is monotone in every coordinate, so box indicators
keep their meaning.

scipy is imported inside the functions that solve assignments, so that
importing the package (and every p = 1 run) does not pay for
``scipy.optimize`` and ``scipy.spatial``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import check_unit_cube

BRUTE_FORCE_MAX = 8

# problems up to this size are solved on the plain dense cost; larger ones
# are warm-started from the duals of a coarse problem of grouped centroids
DENSE_MAX = 184

# points per coarse centroid of the warm start
GROUP = 4

# rows of cdist built at a time, so no second n x n matrix is ever held
ROW_BLOCK = 64

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """n pairwise-distinct points in [0,1]^p."""

    points: np.ndarray
    mode: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-D (n, p) array, got ndim={pts.ndim}")
        check_unit_cube("anchor coordinates", pts)
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("anchor points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class Assignment:
    """Bijection i -> sigma(i) from covariate points to anchor points."""

    sigma: np.ndarray
    cost: float

    def __post_init__(self):
        s = np.asarray(self.sigma)
        if not np.array_equal(np.sort(s), np.arange(s.shape[0])):
            raise ValueError("sigma must be a permutation of 0..n-1")
        object.__setattr__(self, "sigma", s)


def _halton(n: int, p: int) -> np.ndarray:
    if p > len(_PRIMES):
        raise ValueError(f"halton anchors support p <= {len(_PRIMES)}, got {p}")
    pts = np.empty((n, p))
    for j in range(p):
        # radical inverse of 1..n in base b, digit by digit for all indices
        # at once; an index whose digits have run out adds f * 0 = 0.0
        base = _PRIMES[j]
        i = np.arange(1, n + 1)
        f = 1.0
        x = np.zeros(n)
        while i.any():
            f /= base
            x += f * (i % base)
            i //= base
        pts[:, j] = x
    return pts


def generate_anchors(n: int, p: int, mode: str = "halton", seed=None) -> AnchorSet:
    """Anchor net in [0,1]^p.

    "halton": first n points of the Halton sequence (bases 2, 3, 5, ... per
    coordinate, starting at index 1) -- deterministic, uniformly spread.
    "random": n i.i.d. uniform points from a seeded generator; ``seed`` is
    required so there is no silent nondeterminism.
    """
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if mode == "halton":
        return AnchorSet(points=_halton(n, p), mode=mode)
    if mode == "random":
        if seed is None:
            raise ValueError("random anchors require an explicit seed")
        rng = np.random.default_rng(seed)
        return AnchorSet(points=rng.uniform(0.0, 1.0, size=(n, p)), mode=mode)
    raise ValueError(f"unknown anchor mode {mode!r}")


def _check_shapes(x: np.ndarray, anchors: AnchorSet) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != anchors.points.shape:
        raise ValueError(f"covariates have shape {x.shape}, anchors {anchors.points.shape}")
    return x


def _check_finite(cost: np.ndarray) -> None:
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")


def _cost_matrix(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist

    cost = cdist(x, a)
    _check_finite(cost)
    return cost


def _row_blocks(n: int):
    return (slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def _total_cost(distances: np.ndarray) -> float:
    # correctly-rounded exact sum of the matched distances, independent of
    # addend order: cost-tied assignments report bit-identical totals
    return math.fsum(sorted(distances))


def _matched_distances(x: np.ndarray, a: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # the same cdist entries a dense cost matrix holds at (i, sigma(i)),
    # taken from ROW_BLOCK x ROW_BLOCK diagonal blocks
    from scipy.spatial.distance import cdist

    return np.concatenate(
        [np.diagonal(cdist(x[b], a[sigma[b]])) for b in _row_blocks(x.shape[0])]
    )


def _assignment_duals(cost: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual potentials (u, v) certifying the optimal assignment ``sigma``.

    u_i + v_j <= cost_ij everywhere, with equality on i -> sigma(i).  v is
    the shortest-path distance, from a virtual source joined to every
    column by a zero edge, in the graph with an edge k -> j of weight
    cost[r(k), j] - cost[r(k), k], where r(k) is the row matched to column
    k.  Optimality of sigma means no negative cycle, so Bellman-Ford
    converges within m sweeps; the cap only ends a -1e-16 "cycle" that
    rounding can leave.
    """
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


def _hilbert_order(points: np.ndarray) -> np.ndarray:
    """Permutation sorting ``points`` along a p-dimensional Hilbert curve.

    Coordinates are rescaled per axis onto [0, 1] and quantized to
    ``bits = min(16, 64 // p)`` bits, so the index fits one uint64.
    Skilling's transform (AIP Conf. Proc. 707, 2004) turns the quantized
    axes into the curve's transposed index, whose bits interleave into the
    key; the sort is stable, so equal keys (duplicate rows) keep row order.
    """
    n, p = points.shape
    bits = min(16, 64 // p)
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    unit = (points - lo) / np.where(span > 0.0, span, 1.0)
    axes = (unit * float(2**bits - 1)).astype(np.uint64)
    zero, one = np.uint64(0), np.uint64(1)
    # inverse undo, from the top bit down: where axis i has the bit, invert
    # the low bits of axis 0, else exchange the low bits of axes 0 and i
    for level in range(bits - 1, 0, -1):
        q = one << np.uint64(level)
        low = q - one
        for i in range(p):
            hit = (axes[:, i] & q) != 0
            swap = np.where(hit, zero, (axes[:, 0] ^ axes[:, i]) & low)
            axes[:, 0] ^= np.where(hit, low, swap)
            axes[:, i] ^= swap
    # Gray encode
    for i in range(1, p):
        axes[:, i] ^= axes[:, i - 1]
    flip = np.zeros(n, dtype=np.uint64)
    for level in range(bits - 1, 0, -1):
        q = one << np.uint64(level)
        flip ^= np.where((axes[:, p - 1] & q) != 0, q - one, zero)
    axes ^= flip[:, None]
    key = np.zeros(n, dtype=np.uint64)
    for level in range(bits - 1, -1, -1):
        for i in range(p):
            key = (key << one) | ((axes[:, i] >> np.uint64(level)) & one)
    return np.argsort(key, kind="stable")


def _group_centroids(points: np.ndarray) -> np.ndarray:
    """Centroids of GROUP consecutive points along the Hilbert curve.

    ceil(n / GROUP) groups; when GROUP does not divide n the last one is
    smaller.  Both clouds of an n-point problem get the same group sizes.
    """
    ordered = points[_hilbert_order(points)]
    starts = np.arange(0, ordered.shape[0], GROUP)
    sizes = np.diff(np.append(starts, ordered.shape[0]))
    return np.add.reduceat(ordered, starts, axis=0) / sizes[:, None]


def _reduced_cost(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Dense cost minus warm-start duals, as the one n x n matrix built.

    Duals come from the optimal assignment of a coarse problem: the
    centroids of groups of GROUP points along a Hilbert curve, built for
    the rows and for the anchors alike, so each coarse point stands for a
    small compact patch of its cloud (Merigot 2011; Schmitzer 2016).  The
    coarse problem is solved by ``_solve``, so large n recurse.  Its row
    duals extend to every anchor and then every row by c-transforms,
    v_j = min_coarse i (c_ij - u_i), u_i = min_j (c_ij - v_j), so every
    reduced entry is >= 0 and every row has a 0.  A last column reduction
    puts a 0 in every column as well.
    """
    from scipy.spatial.distance import cdist

    n = x.shape[0]
    xc = _group_centroids(x)
    ac = _group_centroids(a)
    u, _ = _assignment_duals(_cost_matrix(xc, ac), _solve(xc, ac))
    v = np.full(n, np.inf)
    for b in _row_blocks(xc.shape[0]):
        block = cdist(xc[b], a)
        block -= u[b, None]
        np.minimum(v, block.min(axis=0), out=v)
    reduced = np.empty((n, n))
    for b in _row_blocks(n):
        block = cdist(x[b], a, out=reduced[b])
        block -= v
        block -= block.min(axis=1, keepdims=True)
        _check_finite(block)
    reduced -= reduced.min(axis=0)
    return reduced


def _solve(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    from scipy.optimize import linear_sum_assignment

    cost = _cost_matrix(x, a) if x.shape[0] <= DENSE_MAX else _reduced_cost(x, a)
    return linear_sum_assignment(cost)[1]


def solve_assignment(x: np.ndarray, anchors: AnchorSet) -> Assignment:
    """Exact minimizer of the total Euclidean matching cost.

    Solved by a shortest-augmenting-path algorithm on a dense n x n matrix
    (scipy's linear_sum_assignment).  Above DENSE_MAX points the matrix is
    the cost minus dual potentials from a coarse problem, the centroids of
    GROUP consecutive points along a Hilbert curve of each cloud, solved
    the same way; after the potentials, every column is reduced to a
    minimum of 0.  For every permutation the potentials and the reduction
    subtract the same constant, so the minimizer is unchanged and the
    solver's augmenting paths are shorter.  Deterministic for fixed input;
    among cost-ties the returned permutation is whatever the solver picks,
    and may differ between the plain and the warm-started matrix.  The
    reported cost is the correctly-rounded sum of the matched Euclidean
    distances.  Non-finite covariates raise ValueError.
    """
    x = _check_shapes(x, anchors)
    if not np.all(np.isfinite(x)):
        raise ValueError("covariate points must be finite")
    sigma = _solve(x, anchors.points)
    return Assignment(sigma=sigma, cost=_total_cost(_matched_distances(x, anchors.points, sigma)))


def brute_force_assignment(x: np.ndarray, anchors: AnchorSet) -> Assignment:
    """Exhaustive minimum over all n! permutations (oracle, n <= 8).

    Ties are broken by the lexicographically smallest permutation.
    """
    x = _check_shapes(x, anchors)
    cost = _cost_matrix(x, anchors.points)
    n = cost.shape[0]
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX}, got n={n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    totals = cost[np.arange(n), perms].sum(axis=1)
    # re-rank the near-minimal candidates with the exact total; candidates
    # arrive in lexicographic order, so strict improvement breaks ties to
    # the lexicographically smallest permutation
    best_sigma = None
    best_cost = np.inf
    for idx in np.flatnonzero(totals <= totals.min() + 1e-9):
        c = _total_cost(cost[np.arange(n), perms[idx]])
        if c < best_cost:
            best_cost = c
            best_sigma = perms[idx]
    return Assignment(sigma=best_sigma, cost=best_cost)


def transported_points(assignment: Assignment, anchors: AnchorSet) -> np.ndarray:
    """Anchor point matched to each covariate point, in covariate order."""
    return anchors.points[assignment.sigma]


def rescale_unit_cube(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine per-coordinate rescale of a point cloud onto [0,1]^p.

    Returns (rescaled points, per-coordinate minima, per-coordinate maxima);
    the bounds are recorded in run outputs so the map can be inverted.
    Coordinates with zero range map to 0.5.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    flat = span <= 0.0
    safe = np.where(flat, 1.0, span)
    out = (x - lo) / safe
    out[:, flat] = 0.5
    return out, lo, hi
