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

from .errors import RankDeficiencyError

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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each sample's two vectors, for (B, n) stacks: one
    BLAS dot per sample, the same call ``a @ b`` makes for one pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _reflect_stack(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reflections swapping a[i] and b[i], applied to the columns of v[i],
    for every sample i of (B, n) unit vectors and a (B, n, m) stack."""
    gap = 1.0 - _dots(a, b)
    degenerate = gap < DEGENERATE_GAP
    d = a - b
    coef = (d[:, None, :] @ v)[:, 0, :] / np.where(degenerate, 1.0, gap)[:, None]
    out = v - d[:, :, None] * coef[:, None, :]
    if degenerate.any():
        out[degenerate] = v[degenerate]
    return out


def _as_columns(v: np.ndarray, stacked: bool) -> np.ndarray:
    """v as a (B, n, m) stack: a single vector or matrix gains the sample
    axis, and a vector per sample the column axis."""
    if not stacked:
        v = v[None]
    return v[..., None] if v.ndim == 2 else v


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
    if v.ndim not in (1, 2) or v.shape[0] != a.shape[0]:
        raise ValueError(f"v has leading dimension {v.shape[0]}, expected {a.shape[0]}")
    _check_unit("a", a)
    _check_unit("b", b)
    return _reflect_stack(a[None], b[None], _as_columns(v, False))[0].reshape(v.shape)


def _gram_defects(vectors: np.ndarray) -> np.ndarray:
    """Worst Gram defect of each set of a (B, k, n) stack."""
    g = vectors @ np.swapaxes(vectors, -1, -2)
    return np.abs(g - np.eye(vectors.shape[-2])).max(axis=(-2, -1), initial=0.0)


@dataclass(frozen=True, eq=False)
class OrthonormalSet:
    """An ordered set of k orthonormal vectors of length n, stored as rows,
    or a stack of B such sets along a leading sample axis."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim not in (2, 3):
            raise ValueError(f"vectors must be a 2-D (count, length) array, got ndim={arr.ndim}")
        if arr.shape[-2] > arr.shape[-1]:
            raise ValueError(f"cannot have {arr.shape[-2]} orthonormal vectors of length {arr.shape[-1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vectors contain non-finite entries")
        object.__setattr__(self, "vectors", arr)
        defects = _gram_defects(arr if arr.ndim == 3 else arr[None])
        object.__setattr__(self, "_defects", defects)
        defect = float(defects.max(initial=0.0))
        if defect > INPUT_GRAM_TOL:
            raise ValueError(f"set is not orthonormal: max Gram defect {defect:.3e} > {INPUT_GRAM_TOL}")

    @property
    def stacked(self) -> bool:
        return self.vectors.ndim == 3

    @property
    def count(self) -> int:
        return self.vectors.shape[-2]

    @property
    def length(self) -> int:
        return self.vectors.shape[-1]

    def gram_defect(self) -> float:
        """Worst Gram defect, over every set of a stack."""
        return float(self._defects.max(initial=0.0))


@dataclass(frozen=True, eq=False)
class RotationPlan:
    """Reflection pairs, in the order they are applied, mapping one
    orthonormal set onto another (one plan per sample for a stack).

    Row j is the reflection swapping ``sources[j]`` and ``images[j]``; see
    :func:`build_plan` for which vectors these are.
    """

    sources: np.ndarray
    images: np.ndarray

    def __post_init__(self):
        if self.sources.shape != self.images.shape:
            raise ValueError("sources and images must have identical shape")

    @property
    def stacked(self) -> bool:
        return self.sources.ndim == 3

    @property
    def count(self) -> int:
        return self.sources.shape[-2]

    @property
    def length(self) -> int:
        return self.sources.shape[-1]


def _cleaned(s: OrthonormalSet) -> np.ndarray:
    """The (B, k, n) vectors of ``s``, with the sets whose Gram defect
    exceeds CLEAN_GRAM_TOL orthonormalized again."""
    vectors = s.vectors if s.stacked else s.vectors[None]
    dirty = s._defects > CLEAN_GRAM_TOL
    if dirty.any():
        vectors = vectors.copy()
        vectors[dirty] = _orthonormalize(vectors[dirty])
    return vectors


def build_plan(source: OrthonormalSet, target: OrthonormalSet) -> RotationPlan:
    """Build the reflection chain mapping ``source_k -> target_k`` for every k.

    With t_1 = target_1 and t_k the image of target_k under U[source_1,
    t_1] ... U[source_{k-1}, t_{k-1}] (applied first to last), that
    composition maps target_k -> source_k.  The plan stores the pairs
    (source_k, t_k) last k first, so applying its rows in order is the
    inverse composition, source_k -> target_k.  Stacked sets give one
    plan per sample.
    """
    if source.stacked != target.stacked or source.vectors.shape[:-2] != target.vectors.shape[:-2]:
        raise ValueError("source and target must both be single sets or stacks of the same size")
    if source.count != target.count:
        raise ValueError(f"set sizes differ: {source.count} != {target.count}")
    if source.length != target.length:
        raise ValueError(f"vector lengths differ: {source.length} != {target.length}")
    srcs = _cleaned(source)
    targets = _cleaned(target)
    imgs = np.empty_like(targets)
    for k in range(srcs.shape[1]):
        image = targets[:, k, :, None]
        for j in range(k):
            image = _reflect_stack(srcs[:, j], imgs[:, j], image)
        imgs[:, k] = image[..., 0]
    srcs, imgs = srcs[:, ::-1], imgs[:, ::-1]
    if not source.stacked:
        srcs, imgs = srcs[0], imgs[0]
    return RotationPlan(sources=srcs, images=imgs)


def apply_plan(plan: RotationPlan, v: np.ndarray) -> np.ndarray:
    """Apply the plan's reflections in row order to ``v``: a vector or a
    matrix of columns, or for a stacked plan a (B, n) or (B, n, m) stack
    whose sample i the plan of sample i maps."""
    v = np.asarray(v, dtype=float)
    lead = 1 if plan.stacked else 0
    if v.ndim not in (lead + 1, lead + 2) or v.shape[lead] != plan.length:
        raise ValueError(f"v has shape {v.shape}, expected dimension {lead} of length {plan.length}")
    if plan.stacked and v.shape[0] != plan.sources.shape[0]:
        raise ValueError(f"v holds {v.shape[0]} samples, the plan {plan.sources.shape[0]}")
    for name, rows in (("sources", plan.sources), ("images", plan.images)):
        norms = np.linalg.norm(rows, axis=-1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ValueError(f"plan {name} must have unit norm")
    pairs = (plan.sources, plan.images) if plan.stacked else (plan.sources[None], plan.images[None])
    out = _as_columns(v, plan.stacked).copy()
    for j in range(plan.count):
        out = _reflect_stack(pairs[0][:, j], pairs[1][:, j], out)
    return out.reshape(v.shape)


def _orthonormalize(arr: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalization pass over the k
    vectors of every set of a (B, k, n) stack; see :func:`gram_schmidt`."""
    _, k, n = arr.shape
    if k > n:
        raise RankDeficiencyError(f"{k} vectors of length {n} cannot be linearly independent")
    out = np.empty(arr.shape)
    for i in range(k):
        u = arr[:, i].copy()
        input_norm = np.sqrt(_dots(u, u))
        for _ in range(2):
            for j in range(i):
                u -= _dots(out[:, j], u)[:, None] * out[:, j]
        pivot = np.sqrt(_dots(u, u))
        dependent = pivot < 1e-10 * np.maximum(input_norm, 1e-300)
        if dependent.any():
            b = int(np.argmax(dependent))
            raise RankDeficiencyError(
                f"vector {i} is linearly dependent on its predecessors "
                f"(pivot {pivot[b]:.3e} vs input norm {input_norm[b]:.3e})"
            )
        out[:, i] = u / pivot[:, None]
    return out


def gram_schmidt(vectors: Sequence[np.ndarray] | np.ndarray) -> OrthonormalSet:
    """Orthonormalize ``vectors`` in order, preserving span and the
    direction of the first vector.

    ``vectors`` holds k vectors of length n, or a (B, k, n) stack of such
    sets, each orthonormalized on its own.  Uses modified Gram-Schmidt with
    a re-orthogonalization pass, so output Gram defects are at
    machine-precision level.  Raises :class:`RankDeficiencyError` naming
    the first vector whose component orthogonal to its predecessors is
    below ``1e-10`` times its norm.
    """
    arr = np.array(vectors, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(f"expected a list of equal-length vectors, got ndim={arr.ndim}")
    if arr.ndim == 3:
        return OrthonormalSet(_orthonormalize(arr))
    return OrthonormalSet(_orthonormalize(arr[None])[0])

