"""Dense reference implementations that the tests check the package against."""

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist

from dfgof.rotations import OrthonormalSet, apply_plan, build_plan
from dfgof.transport import AnchorSet, Assignment

BRUTE_FORCE_MAX = 8


def uniform_anchors(n: int, p: int, seed) -> AnchorSet:
    """n i.i.d. uniform points in [0,1]^p drawn by ``np.random.default_rng(seed)``:
    an anchor net with no structure, to check the solver beyond the Halton net."""
    return AnchorSet(points=np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, p)))


def transform_matrix(score_set: OrthonormalSet, reference_set: OrthonormalSet) -> np.ndarray:
    """Dense matrix A mapping error vectors to transformed residuals for
    models whose residuals are an exact projection (linear kinds).

    A = (rotation carrying score_k -> ref_k) @ (I - sum_k score_k score_k^T),
    so A @ A.T = I - sum_k ref_k ref_k^T holds as an exact matrix identity.
    It holds n x n entries: keep n small.
    """
    n = score_set.length
    projector = np.eye(n) - score_set.vectors.T @ score_set.vectors
    return apply_plan(build_plan(score_set, reference_set), projector)


def brute_force_assignment(x: np.ndarray, anchors: AnchorSet) -> Assignment:
    """Exhaustive minimum of the total Euclidean matching cost over all n!
    permutations, n <= BRUTE_FORCE_MAX.

    Ties are broken by the lexicographically smallest permutation.  The
    cost is the correctly-rounded sum of the matched distances, as
    ``solve_assignment`` reports it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != anchors.points.shape:
        raise ValueError(f"covariates have shape {x.shape}, anchors {anchors.points.shape}")
    n = x.shape[0]
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX}, got n={n}")
    cost = cdist(x, anchors.points)
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    totals = cost[np.arange(n), perms].sum(axis=1)
    # re-rank the near-minimal candidates with the exact total; candidates
    # arrive in lexicographic order, so strict improvement breaks ties to
    # the lexicographically smallest permutation
    best_sigma, best_cost = None, math.inf
    for idx in np.flatnonzero(totals <= totals.min() + 1e-9):
        c = math.fsum(cost[np.arange(n), perms[idx]])
        if c < best_cost:
            best_sigma, best_cost = perms[idx], c
    return Assignment(sigma=best_sigma, cost=best_cost)
