"""Reference orthonormal function systems on the unit cube.

The reference system fixes the limiting geometry of the transformed
residual process, so it must not depend on the data.  We use orthonormal
shifted Legendre polynomials on [0, 1] and, for several covariate
dimensions, their tensor products enumerated in graded lexicographic order
of multi-degree (constant first).  The enumeration order is a project
convention fixed for reproducibility; results must always be reported
together with the basis description.

Every basis function comes with its cumulative integral over the lower-left
box, Q(x) = integral of r over {z <= x}, in closed form.  The first
function is identically 1, so Q_1(x) is the volume of the box; all later
functions integrate to 0 over the whole cube.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rotations import OrthonormalSet, gram_schmidt

MAX_INDEX = 12  # per-coordinate cap on the 1-based polynomial index


def _legendre_values(max_degree: int, u: np.ndarray) -> list[np.ndarray]:
    """Legendre polynomials P_0..P_max_degree on [-1, 1] by recurrence."""
    values = [np.ones_like(u)]
    if max_degree >= 1:
        values.append(u.copy())
    for m in range(1, max_degree):
        values.append(((2 * m + 1) * u * values[m] - m * values[m - 1]) / (m + 1))
    return values


def check_unit_cube(name: str, values: np.ndarray, tol: float = 0.0) -> None:
    """Raise ValueError unless every entry of ``values`` is finite and lies
    in [-tol, 1 + tol]; the message names the input ``name``."""
    if not np.all((values >= -tol) & (values <= 1.0 + tol)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} contain non-finite entries")
        raise ValueError(f"{name} must lie in [0, 1], got range [{values.min()!r}, {values.max()!r}]")


def legendre_shifted(k: int, t):
    """Orthonormal shifted Legendre polynomial of degree k-1 at t in [0, 1].

    k=1 is the constant 1, k=2 is sqrt(3)(2t-1), k=3 is sqrt(5)(6t^2-6t+1),
    higher indices follow from the three-term recurrence.
    """
    if not 1 <= k <= MAX_INDEX:
        raise ValueError(f"index k must be in [1, {MAX_INDEX}], got {k}")
    t_arr = np.asarray(t, dtype=float)
    check_unit_cube("points", np.atleast_1d(t_arr), tol=1e-9)
    out = _legendre_orthonormal(k - 1, np.atleast_1d(t_arr))
    return float(out[0]) if t_arr.ndim == 0 else out


def _legendre_orthonormal(m: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal shifted Legendre polynomial of degree m at points t
    already checked to lie in [0, 1]."""
    return np.sqrt(2 * m + 1) * _legendre_values(m, 2.0 * t - 1.0)[m]


def _cumulative_factor(m: int, x: np.ndarray) -> np.ndarray:
    """Integral over [0, x] of the orthonormal shifted Legendre of degree m.

    For m >= 1 the antiderivative is (P_{m+1}(u) - P_{m-1}(u)) / (2 sqrt(2m+1))
    with u = 2x - 1, which vanishes at both endpoints; for m = 0 it is x.
    """
    if m == 0:
        return x.copy()
    u = 2.0 * x - 1.0
    p = _legendre_values(m + 1, u)
    return (p[m + 1] - p[m - 1]) / (2.0 * np.sqrt(2 * m + 1))


def _multi_degrees(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """First d multi-degrees in graded lexicographic monomial order (first
    coordinate takes precedence: 1; x1, x2; x1^2, x1 x2, x2^2; ...), each
    coordinate degree at most MAX_INDEX - 1."""
    cap = MAX_INDEX - 1
    if d > MAX_INDEX**p:
        raise ValueError(f"d={d} exceeds the {MAX_INDEX ** p} tensor products available for p={p}")
    out: list[tuple[int, ...]] = []
    total = 0
    while len(out) < d:
        if total > cap * p:
            raise ValueError(f"d={d} exceeds the available tensor products for p={p}")
        grade = [c for c in itertools.product(range(min(total, cap) + 1), repeat=p) if sum(c) == total]
        for combo in sorted(grade, reverse=True):
            out.append(combo)
            if len(out) == d:
                break
        total += 1
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ReferenceBasis:
    """d orthonormal functions on [0,1]^p with closed-form box integrals."""

    p: int
    d: int
    degrees: tuple[tuple[int, ...], ...]

    def _points(self, points) -> np.ndarray:
        """(n, p) points, or a (B, n, p) stack, checked to lie in the cube."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim not in (2, 3) or pts.shape[-1] != self.p:
            raise ValueError(f"expected points of dimension {self.p}, got shape {pts.shape}")
        check_unit_cube("points", pts, tol=1e-9)
        return pts

    def _evaluate(self, k: int, pts: np.ndarray) -> np.ndarray:
        out = np.ones(pts.shape[:-1])
        for j, m in enumerate(self.degrees[k]):
            out *= _legendre_orthonormal(m, pts[..., j])
        return out

    def evaluate_one(self, k: int, points) -> np.ndarray:
        """Values of basis function k (0-based) at the given points."""
        return self._evaluate(k, self._points(points))

    def cumulative_one(self, k: int, points) -> np.ndarray:
        """Q_k(x): integral of basis function k over the box {z <= x}."""
        pts = self._points(points)
        out = np.ones(pts.shape[0])
        for j, m in enumerate(self.degrees[k]):
            out *= _cumulative_factor(m, pts[:, j])
        return out

    def describe(self) -> str:
        degs = ";".join(",".join(str(m) for m in deg) for deg in self.degrees)
        return f"shifted-legendre p={self.p} d={self.d} degrees=[{degs}]"


def make_basis(p: int, d: int) -> ReferenceBasis:
    """Reference basis of d functions on [0,1]^p, constant first.

    For p = 1 these are the first d orthonormal shifted Legendre
    polynomials; for p >= 2, tensor products in graded lexicographic order
    of multi-degree.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return ReferenceBasis(p=p, d=d, degrees=_multi_degrees(p, d))


def sample_on_points(basis: ReferenceBasis, points) -> OrthonormalSet:
    """Evaluate the basis at n sample points and orthonormalize exactly.

    Each function is evaluated at the points and scaled by 1/sqrt(n); the
    resulting vectors are orthonormal only up to a discretization error, so
    a Gram-Schmidt pass removes that error exactly.  The first (constant)
    vector's direction is preserved.  Raises on rank deficiency, e.g. when
    too many points coincide.  A (B, n, p) stack of point sets gives a
    stacked set, one per sample.
    """
    pts = basis._points(points)
    n = pts.shape[-2]
    if n < basis.d:
        raise ValueError(f"need at least d={basis.d} points, got {n}")
    rows = np.stack([basis._evaluate(k, pts) for k in range(basis.d)], axis=-2) / np.sqrt(n)
    return gram_schmidt(rows)
