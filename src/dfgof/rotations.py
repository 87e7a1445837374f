"""Elementary unitary reflections and their composition.

The building block is the operator that swaps two unit vectors ``a`` and
``b`` and fixes everything orthogonal to them::

    U[a,b] v = v - (<a - b, v> / (1 - <a, b>)) (a - b),      U[a,a] = I.

Each ``U[a,b]`` is a symmetric involution (the Householder reflection
through the bisector of ``a`` and ``b``), hence orthogonal.

A :class:`RotationPlan` chains such reflections so that a whole orthonormal
set is mapped onto another: applied row by row it sends ``source_k ->
target_k`` for every k and fixes vectors orthogonal to all the pair
vectors.  Each reflection is an involution, so the same rows applied in
reverse order give the inverse map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RankDeficiencyError, SingularMatrixError

UNIT_NORM_TOL = 1e-10
# Below this value of 1 - <a, b> the two vectors are treated as equal and
# the reflection degenerates to the identity (avoids catastrophic
# cancellation in the 1/(1 - <a,b>) factor).
DEGENERATE_GAP = 1e-12
# Worst Gram defect accepted on orthonormal-set inputs; sets with defect in
# (CLEAN_GRAM_TOL, INPUT_GRAM_TOL] are re-orthonormalized before use.
INPUT_GRAM_TOL = 1e-8
CLEAN_GRAM_TOL = 1e-12


def _check_unit(name: str, v: np.ndarray) -> None:
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} must have unit norm, got |{name}| = {nrm!r}")


def reflect(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the reflection swapping unit vectors ``a`` and ``b`` to ``v``.

    ``v`` may be a vector of length n or an (n, m) matrix whose columns are
    each reflected.  Returns a new array; inputs are never modified.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-D of equal length, got {a.shape} and {b.shape}")
    if v.shape[0] != a.shape[0]:
        raise ValueError(f"v has leading dimension {v.shape[0]}, expected {a.shape[0]}")
    _check_unit("a", a)
    _check_unit("b", b)

    gap = 1.0 - float(a @ b)
    if gap < DEGENERATE_GAP:
        return v.copy()
    d = a - b
    coef = np.tensordot(d, v, axes=(0, 0)) / gap
    return v - np.multiply.outer(d, coef)


@dataclass(frozen=True, eq=False)
class OrthonormalSet:
    """An ordered set of k orthonormal vectors of length n, stored as rows."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"vectors must be a 2-D (count, length) array, got ndim={arr.ndim}")
        if arr.shape[0] > arr.shape[1]:
            raise ValueError(f"cannot have {arr.shape[0]} orthonormal vectors of length {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vectors contain non-finite entries")
        object.__setattr__(self, "vectors", arr)
        defect = self.gram_defect()
        if defect > INPUT_GRAM_TOL:
            raise ValueError(f"set is not orthonormal: max Gram defect {defect:.3e} > {INPUT_GRAM_TOL}")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def length(self) -> int:
        return self.vectors.shape[1]

    def gram_defect(self) -> float:
        g = self.vectors @ self.vectors.T
        return float(np.abs(g - np.eye(self.count)).max())


@dataclass(frozen=True, eq=False)
class RotationPlan:
    """Reflection pairs, in the order they are applied, mapping one
    orthonormal set onto another.

    Row j is the reflection swapping ``sources[j]`` and ``images[j]``; see
    :func:`build_plan` for which vectors these are.
    """

    sources: np.ndarray
    images: np.ndarray

    def __post_init__(self):
        if self.sources.shape != self.images.shape:
            raise ValueError("sources and images must have identical shape")

    @property
    def count(self) -> int:
        return self.sources.shape[0]

    @property
    def length(self) -> int:
        return self.sources.shape[1]


def _cleaned(s: OrthonormalSet) -> OrthonormalSet:
    if s.gram_defect() > CLEAN_GRAM_TOL:
        return gram_schmidt(s.vectors)
    return s


def build_plan(source: OrthonormalSet, target: OrthonormalSet) -> RotationPlan:
    """Build the reflection chain mapping ``source_k -> target_k`` for every k.

    With t_1 = target_1 and t_k the image of target_k under U[source_1,
    t_1] ... U[source_{k-1}, t_{k-1}] (applied first to last), that
    composition maps target_k -> source_k.  The plan stores the pairs
    (source_k, t_k) last k first, so applying its rows in order is the
    inverse composition, source_k -> target_k.
    """
    if source.count != target.count:
        raise ValueError(f"set sizes differ: {source.count} != {target.count}")
    if source.length != target.length:
        raise ValueError(f"vector lengths differ: {source.length} != {target.length}")
    source = _cleaned(source)
    target = _cleaned(target)

    d, n = source.count, source.length
    srcs = np.empty((d, n))
    imgs = np.empty((d, n))
    for k in range(d):
        image = target.vectors[k]
        for j in range(k):
            image = reflect(srcs[j], imgs[j], image)
        srcs[k] = source.vectors[k]
        imgs[k] = image
    return RotationPlan(sources=srcs[::-1], images=imgs[::-1])


def apply_plan(plan: RotationPlan, v: np.ndarray) -> np.ndarray:
    """Apply the plan's reflections in row order to ``v`` (vector or matrix
    of columns)."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != plan.length:
        raise ValueError(f"v has leading dimension {v.shape[0]}, expected {plan.length}")
    out = v.copy()
    for a, b in zip(plan.sources, plan.images):
        out = reflect(a, b, out)
    return out


def gram_schmidt(vectors: Sequence[np.ndarray] | np.ndarray) -> OrthonormalSet:
    """Orthonormalize ``vectors`` in order, preserving span and the
    direction of the first vector.

    Uses modified Gram-Schmidt with a re-orthogonalization pass, so output
    Gram defects are at machine-precision level.  Raises
    :class:`RankDeficiencyError` naming the first vector whose component
    orthogonal to its predecessors is below ``1e-10`` times its norm.
    """
    arr = np.array(vectors, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a list of equal-length vectors, got ndim={arr.ndim}")
    k, n = arr.shape
    if k > n:
        raise RankDeficiencyError(f"{k} vectors of length {n} cannot be linearly independent")
    out = np.empty((k, n))
    for i in range(k):
        input_norm = float(np.linalg.norm(arr[i]))
        u = arr[i].copy()
        for _ in range(2):
            for j in range(i):
                u -= (out[j] @ u) * out[j]
        pivot = float(np.linalg.norm(u))
        if pivot < 1e-10 * max(input_norm, 1e-300):
            raise RankDeficiencyError(
                f"vector {i} is linearly dependent on its predecessors "
                f"(pivot {pivot:.3e} vs input norm {input_norm:.3e})"
            )
        out[i] = u / pivot
    return OrthonormalSet(out)


def inv_sqrt_spd(m: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a symmetric positive definite matrix.

    Returns symmetric N with N @ m @ N = I, computed from the symmetric
    eigendecomposition.  Raises :class:`SingularMatrixError` when the
    smallest eigenvalue is below 1e-12 times the largest.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max()) if m.size else 0.0
    if float(np.abs(m - m.T).max()) > 1e-8 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh(m)
    w_max = float(w.max()) if w.size else 0.0
    if w_max <= 0.0 or float(w.min()) <= 1e-12 * w_max:
        raise SingularMatrixError(
            f"matrix is singular or indefinite to working precision (eigenvalues in [{w.min():.3e}, {w_max:.3e}])"
        )
    n = (v / np.sqrt(w)) @ v.T
    return (n + n.T) / 2.0
