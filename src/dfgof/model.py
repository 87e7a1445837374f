"""Regression models, least-squares fitting and the fitted score basis.

A model is a mean function m(theta, X) with its exact parameter gradient.
Built-in kinds are linear in theta and fitted in closed form; arbitrary
smooth models ("custom") are fitted by damped Gauss-Newton.

Each built-in kind is one row of ``KINDS``: its covariate count p, whether
it has an intercept (then every regressor is centred on the sample the
model is built on), and its regressors in model order, each a product of
covariate columns.  ``MODEL_KINDS`` gives each kind's (p, d).

The score basis is the Gram-Schmidt orthonormalization of the gradient
columns at the fitted parameter, taken in model order: the orthonormal
basis of the gradient span that the residual rotation consumes.  Vector k
is the normalized part of gradient column k orthogonal to columns
0..k-1, so a rescale of the covariates that maps each gradient column to
a positive multiple of itself plus earlier columns keeps the basis: for
the kinds with an intercept, any affine rescale of each covariate with a
positive scale.  Its entries follow the data rows for every covariate
dimension: the scan geometry is carried by the scan points alone.

A ``Sample`` may also hold a stack of B samples of equal size along a
leading axis.  Linear kinds built on such a stack bind each sample's own
centering constants, and ``fit`` and ``score_basis`` then run once over
the whole stack, giving each sample the result it gets on its own.

Custom models must be pure functions of (theta, X): no hidden mutable
state, so fits may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable

import numpy as np

from .errors import ConfigError, RankDeficiencyError, SingularMatrixError
from .rotations import OrthonormalSet, gram_schmidt

KINDS = {
    "simple_linear": (1, False, ((0,),)),
    "centered_linear": (1, True, ((0,),)),
    "bilinear2d": (2, True, ((0,), (1,), (0, 1))),
}
MODEL_KINDS = {kind: (p, intercept + len(regressors)) for kind, (p, intercept, regressors) in KINDS.items()}


@dataclass(frozen=True, eq=False)
class Sample:
    """Covariate matrix X (n rows, p columns) and response vector Y (length n),
    or a stack of B of them: X of shape (B, n, p) and Y of shape (B, n)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        y = np.asarray(self.Y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim not in (2, 3):
            raise ValueError(f"X must be a 2-D (n, p) matrix or a (B, n, p) stack, got ndim={x.ndim}")
        if y.shape != x.shape[:-1]:
            raise ValueError(f"Y must have shape {x.shape[:-1]}, got shape {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample contains non-finite entries")
        if x.shape[-2] < x.shape[-1] + 1:
            raise ValueError(f"need n >= p + 1 observations, got n={x.shape[-2]}, p={x.shape[-1]}")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def stacked(self) -> bool:
        return self.X.ndim == 3

    @property
    def n(self) -> int:
        return self.X.shape[-2]

    @property
    def p(self) -> int:
        return self.X.shape[-1]


@dataclass(frozen=True, eq=False)
class RegressionModel:
    """Mean function with exact parameter gradient.

    mean(theta, X) returns the length-n vector of mean values; grad(theta, X)
    returns the (n, d) matrix of partial derivatives.  ``linear`` marks
    kinds whose gradient does not depend on theta (closed-form fit).  The
    built-in kinds also take a (B, n, p) stack of X with theta of shape
    (d,) or (B, d), and return (B, n) and (B, n, d).
    """

    kind: str
    d: int
    mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    linear: bool = False


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted parameter, residuals and convergence report; for a stacked
    sample the arrays gain the leading sample axis."""

    theta_hat: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int


def build_model(
    kind: str,
    sample: Sample | None = None,
    *,
    mean: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    d: int | None = None,
) -> RegressionModel:
    """Construct a built-in or custom regression model.

    A built-in kind is built from its row of ``KINDS``.  Its gradient
    columns are a column of ones if it has an intercept, then its
    regressors, each less its mean over ``sample`` if it has an intercept:
    the model binds these centering constants (one set per sample of a
    stack).  The mean sums theta_k times column k, column 0 first.  A
    ``sample`` with another covariate count than the kind's p raises
    :class:`ConfigError`.
    """
    if kind == "custom":
        if mean is None or grad is None or d is None:
            raise ValueError("custom models require mean, grad and d")
        return RegressionModel(kind=kind, d=d, mean=mean, grad=grad, linear=False)
    if kind not in KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    p, intercept, regressors = KINDS[kind]
    if sample is not None and sample.p != p:
        plural = "s" if p > 1 else ""
        raise ConfigError(f"{kind} needs {p} covariate column{plural}, the data have {sample.p}")

    def product(x, r):  # the covariate columns r multiplied left to right
        return reduce(mul, [x[..., j] for j in r])

    if intercept:
        if sample is None:
            raise ValueError(f"{kind} requires a sample to bind the centering constants")
        centres = [product(sample.X, r).mean(axis=-1, keepdims=True) for r in regressors]

    def regressor(x, k):  # regressor k, centred if the kind has an intercept
        value = product(x, regressors[k])
        return value - centres[k] if intercept else value

    def _mean(th, x):  # column by column; the column of ones adds theta_0 itself
        total = th[..., 0, None] if intercept else th[..., 0, None] * regressor(x, 0)
        for k in range(1 - intercept, len(regressors)):
            total = total + th[..., k + intercept, None] * regressor(x, k)
        return total

    def _grad(th, x):  # filled in place, which keeps few (B, n) arrays of a block alive
        g = np.empty(x.shape[:-1] + (intercept + len(regressors),))
        if intercept:
            g[..., 0] = 1.0
        for k in range(len(regressors)):
            g[..., intercept + k] = regressor(x, k)
        return g

    return RegressionModel(kind=kind, d=MODEL_KINDS[kind][1], mean=_mean, grad=_grad, linear=True)


def _design_matrix(model: RegressionModel, theta: np.ndarray, sample: Sample) -> np.ndarray:
    g = np.asarray(model.grad(theta, sample.X), dtype=float)
    expected = sample.X.shape[:-1] + (model.d,)
    if g.shape != expected:
        raise ValueError(f"grad returned shape {g.shape}, expected {expected}")
    return g


def fit_linear(model: RegressionModel, sample: Sample) -> FitResult:
    """Closed-form least squares for kinds whose mean is linear in theta.

    Solves through the thin SVD of the design, one per sample of a stack.
    Like ``numpy.linalg.lstsq``, singular values up to machine epsilon
    times max(n, d) times the largest count as zero; a design of lower
    rank than d raises :class:`RankDeficiencyError`, and fewer than d + 1
    observations raise :class:`ConfigError`.
    """
    if not model.linear:
        raise ValueError(f"fit_linear requires a linear model kind, got {model.kind!r}")
    if sample.n < model.d + 1:
        raise ConfigError(f"need n >= d + 1 observations, got n={sample.n}, d={model.d}")
    design = _design_matrix(model, np.zeros(model.d), sample)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = np.sum(s > np.finfo(float).eps * max(sample.n, model.d) * s[..., :1], axis=-1)
    if np.any(rank < model.d):
        raise RankDeficiencyError(f"design matrix has rank {int(rank.min())} < d = {model.d}")
    coords = (np.swapaxes(u, -1, -2) @ sample.Y[..., None])[..., 0] / s
    theta = (np.swapaxes(vt, -1, -2) @ coords[..., None])[..., 0]
    residuals = sample.Y - np.asarray(model.mean(theta, sample.X), dtype=float)
    return FitResult(theta_hat=theta, residuals=residuals, converged=True, iterations=0)


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
            raise SingularMatrixError(f"Jacobian has rank {rank} < d = {model.d} at iterate {iterations}")
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

    return FitResult(
        theta_hat=theta,
        residuals=sample.Y - np.asarray(model.mean(theta, sample.X), dtype=float),
        converged=converged,
        iterations=iterations,
    )


def fit(model: RegressionModel, sample: Sample, theta0=None, **gn_options) -> FitResult:
    """Dispatch to the closed-form or Gauss-Newton fitter.  A stacked
    sample needs a linear kind."""
    if model.linear:
        return fit_linear(model, sample)
    if sample.stacked:
        raise ValueError(f"a stacked sample needs a linear model kind, got {model.kind!r}")
    if theta0 is None:
        theta0 = np.zeros(model.d)
    return fit_gauss_newton(model, sample, theta0, **gn_options)


def score_basis(model: RegressionModel, fitres: FitResult, sample: Sample) -> OrthonormalSet:
    """Orthonormal basis of the fitted gradient span, indexed by data row.

    Gram-Schmidt of the gradient columns grad(theta_hat, X)[:, k] in model
    order k = 0, ..., d - 1, so score vectors 0..k span what gradient
    columns 0..k span.  A stacked sample gives a stacked set, one basis per
    sample.
    """
    design = _design_matrix(model, fitres.theta_hat, sample)
    return gram_schmidt(np.swapaxes(design, -1, -2))
