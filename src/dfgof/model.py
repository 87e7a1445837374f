"""Regression models, least-squares fitting and the fitted score basis.

A model is a mean function m(theta, X) with its exact parameter gradient.
Built-in kinds are linear in theta and fitted in closed form; arbitrary
smooth models ("custom") are fitted by damped Gauss-Newton.  The score
basis is the set of n-vectors obtained by whitening the gradient columns
with the inverse square root of the information matrix and scaling by
1/sqrt(n); after an exact Gram-Schmidt cleanup it is the orthonormal basis
of the gradient span that the residual rotation consumes.

Custom models must be pure functions of (theta, X): no hidden mutable
state, so fits may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, RankDeficiencyError, SingularMatrixError
from .rotations import OrthonormalSet, gram_schmidt, inv_sqrt_spd

LINEAR_KINDS = ("simple_linear", "centered_linear", "basis_linear", "bilinear2d")


@dataclass(frozen=True, eq=False)
class Sample:
    """Covariate matrix X (n rows, p columns) and response vector Y (length n)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.Y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ValueError(f"X must be a 2-D (n, p) matrix, got ndim={x.ndim}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError(f"Y must be 1-D of length {x.shape[0]}, got shape {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample contains non-finite entries")
        if x.shape[0] < x.shape[1] + 1:
            raise ValueError(f"need n >= p + 1 observations, got n={x.shape[0]}, p={x.shape[1]}")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class RegressionModel:
    """Mean function with exact parameter gradient.

    mean(theta, X) returns the length-n vector of mean values; grad(theta, X)
    returns the (n, d) matrix of partial derivatives.  ``linear`` marks
    kinds whose gradient does not depend on theta (closed-form fit).
    """

    kind: str
    d: int
    mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p: int | None = None
    linear: bool = False


@dataclass(frozen=True, eq=False)
class FitResult:
    theta_hat: np.ndarray
    residuals: np.ndarray
    info_matrix: np.ndarray  # (1/n) sum of grad_i grad_i^T at theta_hat
    converged: bool
    iterations: int


def build_model(
    kind: str,
    sample: Sample | None = None,
    *,
    funcs: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None,
    mean: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    d: int | None = None,
) -> RegressionModel:
    """Construct a built-in or custom regression model.

    Kinds that center covariates ("centered_linear", "bilinear2d") bind the
    centering constants from ``sample`` at construction time, so the model
    is a fixed function thereafter.
    """
    if kind == "simple_linear":
        return RegressionModel(
            kind=kind,
            d=1,
            mean=lambda th, x: th[0] * x[:, 0],
            grad=lambda th, x: x[:, :1].copy(),
            p=1,
            linear=True,
        )
    if kind == "centered_linear":
        if sample is None:
            raise ValueError("centered_linear requires a sample to bind the covariate mean")
        c = float(sample.X[:, 0].mean())

        def _grad(th, x, c=c):
            return np.column_stack([np.ones(x.shape[0]), x[:, 0] - c])

        return RegressionModel(
            kind=kind,
            d=2,
            mean=lambda th, x, c=c: th[0] + th[1] * (x[:, 0] - c),
            grad=_grad,
            p=1,
            linear=True,
        )
    if kind == "basis_linear":
        if not funcs:
            raise ValueError("basis_linear requires a non-empty list of basis functions")
        funcs = tuple(funcs)

        def _design(x, funcs=funcs):
            return np.column_stack([np.asarray(f(x), dtype=float) for f in funcs])

        return RegressionModel(
            kind=kind,
            d=len(funcs),
            mean=lambda th, x: _design(x) @ th,
            grad=lambda th, x: _design(x),
            linear=True,
        )
    if kind == "bilinear2d":
        if sample is None:
            raise ValueError("bilinear2d requires a sample to bind the centering constants")
        if sample.p != 2:
            raise ConfigError(f"bilinear2d needs 2 covariate columns, the data have {sample.p}")
        c1 = float(sample.X[:, 0].mean())
        c2 = float(sample.X[:, 1].mean())
        c12 = float((sample.X[:, 0] * sample.X[:, 1]).mean())

        def _grad2(th, x, c1=c1, c2=c2, c12=c12):
            return np.column_stack(
                [np.ones(x.shape[0]), x[:, 0] - c1, x[:, 1] - c2, x[:, 0] * x[:, 1] - c12]
            )

        return RegressionModel(
            kind=kind,
            d=4,
            mean=lambda th, x, c1=c1, c2=c2, c12=c12: (
                th[0] + th[1] * (x[:, 0] - c1) + th[2] * (x[:, 1] - c2) + th[3] * (x[:, 0] * x[:, 1] - c12)
            ),
            grad=_grad2,
            p=2,
            linear=True,
        )
    if kind == "custom":
        if mean is None or grad is None or d is None:
            raise ValueError("custom models require mean, grad and d")
        return RegressionModel(kind=kind, d=d, mean=mean, grad=grad, linear=False)
    raise ValueError(f"unknown model kind {kind!r}")


def _design_matrix(model: RegressionModel, theta: np.ndarray, sample: Sample) -> np.ndarray:
    g = np.asarray(model.grad(theta, sample.X), dtype=float)
    if g.shape != (sample.n, model.d):
        raise ValueError(f"grad returned shape {g.shape}, expected {(sample.n, model.d)}")
    return g


def fit_linear(model: RegressionModel, sample: Sample) -> FitResult:
    """Closed-form least squares for kinds whose mean is linear in theta."""
    if not model.linear:
        raise ValueError(f"fit_linear requires a linear model kind, got {model.kind!r}")
    if sample.n < model.d + 1:
        raise ValueError(f"need n >= d + 1 observations, got n={sample.n}, d={model.d}")
    design = _design_matrix(model, np.zeros(model.d), sample)
    theta, _, rank, _ = np.linalg.lstsq(design, sample.Y, rcond=None)
    if rank < model.d:
        raise RankDeficiencyError(f"design matrix has rank {rank} < d = {model.d}")
    residuals = sample.Y - np.asarray(model.mean(theta, sample.X), dtype=float)
    info = design.T @ design / sample.n
    return FitResult(theta_hat=theta, residuals=residuals, info_matrix=info, converged=True, iterations=0)


def fit_gauss_newton(
    model: RegressionModel,
    sample: Sample,
    theta0,
    max_iter: int = 100,
    step_tol: float = 1e-10,
    grad_tol: float = 1e-8,
) -> FitResult:
    """Damped Gauss-Newton with halving line search on the sum of squares.

    Stops when the (damped) step norm drops below ``step_tol``, when the
    gradient of the SSE drops below ``grad_tol``, or after ``max_iter``
    iterations; the last case reports ``converged=False`` and leaves the
    decision to the caller.
    """
    theta = np.array(theta0, dtype=float).ravel()
    if theta.shape != (model.d,):
        raise ValueError(f"theta0 must have length {model.d}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 contains non-finite entries")

    def sse(th):
        r = sample.Y - np.asarray(model.mean(th, sample.X), dtype=float)
        return float(r @ r), r

    converged = False
    iterations = 0
    current, resid = sse(theta)
    for iterations in range(1, max_iter + 1):
        jac = _design_matrix(model, theta, sample)
        grad_sse = -2.0 * (jac.T @ resid)
        if float(np.linalg.norm(grad_sse)) < grad_tol:
            converged = True
            break
        delta, _, rank, _ = np.linalg.lstsq(jac, resid, rcond=None)
        if rank < model.d:
            raise SingularMatrixError(f"information matrix is singular at iterate {iterations}")
        lam = 1.0
        improved = False
        for _ in range(60):
            trial, trial_resid = sse(theta + lam * delta)
            if trial <= current:
                improved = True
                break
            lam /= 2.0
        if not improved:
            break  # no descent even for tiny steps: numerical floor reached
        theta = theta + lam * delta
        current, resid = trial, trial_resid
        if float(np.linalg.norm(lam * delta)) < step_tol:
            converged = True
            break
    if max_iter == 0:
        iterations = 0

    jac = _design_matrix(model, theta, sample)
    info = jac.T @ jac / sample.n
    return FitResult(
        theta_hat=theta,
        residuals=sample.Y - np.asarray(model.mean(theta, sample.X), dtype=float),
        info_matrix=info,
        converged=converged,
        iterations=iterations,
    )


def fit(model: RegressionModel, sample: Sample, theta0=None, **gn_options) -> FitResult:
    """Dispatch to the closed-form or Gauss-Newton fitter."""
    if model.linear:
        return fit_linear(model, sample)
    if theta0 is None:
        theta0 = np.zeros(model.d)
    return fit_gauss_newton(model, sample, theta0, **gn_options)


def ascending_scan_order(x: np.ndarray) -> np.ndarray:
    """Scan order for one covariate dimension: ascending covariate value,
    ties broken by original index.  For p >= 2 the identity order is used
    (the transported anchor points carry the geometry instead)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if x.shape[1] != 1:
            return np.arange(x.shape[0])
        x = x[:, 0]
    return np.argsort(x, kind="stable")


def score_basis(
    model: RegressionModel,
    fitres: FitResult,
    sample: Sample,
    scan_order: np.ndarray | None = None,
) -> OrthonormalSet:
    """Orthonormal basis of the fitted gradient span, in scan order.

    Builds the d vectors (info_matrix^{-1/2} grad(theta_hat, X_i)) / sqrt(n),
    permutes entries into scan order, and applies Gram-Schmidt so the set is
    exactly orthonormal at finite n.
    """
    n = sample.n
    if scan_order is None:
        scan_order = np.arange(n)
    scan_order = np.asarray(scan_order)
    if not np.array_equal(np.sort(scan_order), np.arange(n)):
        raise ValueError("scan_order must be a permutation of 0..n-1")
    whitener = inv_sqrt_spd(fitres.info_matrix)
    design = _design_matrix(model, fitres.theta_hat, sample)
    columns = (design @ whitener) / np.sqrt(n)  # column k is the k-th score vector
    return gram_schmidt(columns[scan_order].T)
