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

from .rotations import OrthonormalSet, apply_plan, build_plan


@dataclass(frozen=True, eq=False)
class TransformedResiduals:
    """Distribution-free residuals."""

    values: np.ndarray


def transform_residuals(
    residuals: np.ndarray,
    score_set: OrthonormalSet,
    reference_set: OrthonormalSet,
) -> TransformedResiduals:
    """Map raw residuals to distribution-free residuals.

    Builds the reflection chain carrying score_k -> ref_k and applies it.
    ``residuals`` must be indexed consistently with the vectors of both sets
    (the pipeline keeps all three in data row order); it is one vector or
    an (n, m) matrix whose columns are mapped alike, so that many residual
    vectors on one design share one chain.  For stacked sets, one pair per
    sample, it is a (B, n) or (B, n, m) stack and each sample gets its
    own chain.  A column gets the same numbers, bit for bit, whatever the
    other columns and samples are.
    """
    residuals = np.asarray(residuals, dtype=float)
    lead = 1 if score_set.stacked else 0
    if residuals.ndim not in (lead + 1, lead + 2):
        raise ValueError(f"residuals must be a vector or a matrix of columns, got shape {residuals.shape}")
    if residuals.shape[lead] != score_set.length:
        raise ValueError(
            f"residual length {residuals.shape[lead]} does not match basis length {score_set.length}"
        )
    return TransformedResiduals(values=apply_plan(build_plan(score_set, reference_set), residuals))

