"""Dense reference implementations that the tests check the package against."""

import numpy as np

from dfgof.rotations import OrthonormalSet, apply_plan, build_plan


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
