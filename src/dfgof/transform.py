"""Rotation of raw residuals into distribution-free residuals.

The fitted residuals are (up to estimation error) the projection of the
error vector orthogonal to the score span, so their covariance depends on
the covariates.  Applying the reflection chain that carries the score basis
onto the reference basis yields residuals whose covariance is
I - sum_k ref_k ref_k^T: a matrix free of the covariates.  The map is
unitary, hence one-to-one: no statistical information is lost and the raw
residuals can be recovered exactly.

For one fitted parameter the chain is the single reflection U[score, ref],
and the transformed residuals reduce to

    e = eps - (<eps, ref> / (1 - <score, ref>)) (ref - score),

which is pinned as a unit test guarding the direction convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotations import OrthonormalSet, RotationPlan, apply_plan, build_plan

DENSE_GUARD = 2000  # transform_matrix materializes an n x n array


@dataclass(frozen=True, eq=False)
class TransformedResiduals:
    """Distribution-free residuals with the plan that produced them."""

    values: np.ndarray
    plan: RotationPlan
    score_set: OrthonormalSet
    reference_set: OrthonormalSet
    scan_order: np.ndarray
    reliable: bool = True


def transform_residuals(
    residuals: np.ndarray,
    score_set: OrthonormalSet,
    reference_set: OrthonormalSet,
    scan_order: np.ndarray | None = None,
    fit_converged: bool = True,
    studentize: bool = False,
) -> TransformedResiduals:
    """Map raw residuals to distribution-free residuals.

    Builds the reflection chain between the two orthonormal sets and applies
    the direction carrying score_k -> ref_k.  ``residuals`` must be indexed
    consistently with the vectors of both sets (i.e. already in scan order);
    it is one vector or an (n, m) matrix whose columns are mapped alike, so
    that many residual vectors on one design share one chain.  When the
    underlying fit did not converge the transform still runs but the result
    is tagged unreliable.  ``studentize`` additionally divides each column
    by the sample standard deviation of its input residuals (off by
    default: the error variance is taken as known and equal to one).
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim not in (1, 2):
        raise ValueError(f"residuals must be a vector or a matrix of columns, got shape {residuals.shape}")
    if residuals.shape[0] != score_set.length:
        raise ValueError(
            f"residual length {residuals.shape[0]} does not match basis length {score_set.length}"
        )
    if scan_order is None:
        scan_order = np.arange(residuals.shape[0])
    plan = build_plan(score_set, reference_set).reversed()
    values = apply_plan(plan, residuals)
    if studentize:
        values = values / np.std(residuals, ddof=1, axis=0)
    return TransformedResiduals(
        values=values,
        plan=plan,
        score_set=score_set,
        reference_set=reference_set,
        scan_order=np.asarray(scan_order),
        reliable=bool(fit_converged),
    )


def transform_matrix(score_set: OrthonormalSet, reference_set: OrthonormalSet) -> np.ndarray:
    """Dense matrix A mapping error vectors to transformed residuals for
    models whose residuals are an exact projection (linear kinds).

    A = (rotation carrying score_k -> ref_k) @ (I - sum_k score_k score_k^T),
    so A @ A.T = I - sum_k ref_k ref_k^T holds as an exact matrix identity.
    Intended for tests; guarded against large n.
    """
    n = score_set.length
    if n > DENSE_GUARD:
        raise ValueError(f"n={n} exceeds the dense materialization guard ({DENSE_GUARD})")
    projector = np.eye(n) - score_set.vectors.T @ score_set.vectors
    plan = build_plan(score_set, reference_set).reversed()
    return apply_plan(plan, projector)
