"""Kernel ridge regression.

Fits minimize the ridge-regularized empirical risk in the RKHS of a positive
semidefinite kernel; the closed form is

    f_hat(x) = K(X, x)^T (K(X, X) + n * lambda * I)^(-1) Y.

The linear system is solved by a Cholesky factorization with escalating
jitter (jitter only when lambda = 0). Fitted predictors are immutable and
may be queried concurrently; independent fits share no mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError
from scipy.spatial.distance import cdist, pdist

from .data import Dataset


class ConditioningError(RuntimeError):
    """The regularized Gram system could not be factorized."""


class StabilityUndefinedError(ValueError):
    """Stability coefficients k/(n*lambda) are undefined at lambda = 0."""


class KernelShape(Enum):
    RBF = "rbf"
    LINEAR = "linear"
    POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class RKHSKernel:
    """A symmetric PSD kernel: rbf, linear, or polynomial.

    rbf uses K(x, y) = exp(-||x - y||^2 / (2 l^2)); a None lengthscale means
    "choose by the median heuristic at fit time". polynomial uses
    K(x, y) = (x . y + offset)^degree.
    """

    shape: KernelShape = KernelShape.RBF
    lengthscale: float | None = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.shape is KernelShape.RBF:
            if self.lengthscale is not None and self.lengthscale <= 0:
                raise ValueError("rbf lengthscale must be positive")
        if self.shape is KernelShape.POLYNOMIAL:
            if self.degree < 1 or self.degree != int(self.degree):
                raise ValueError("polynomial degree must be an integer >= 1")
            if self.offset < 0:
                raise ValueError("polynomial offset must be >= 0")

    @property
    def k_bound(self) -> float | None:
        """sup_x K(x, x) when finite a priori (1 for rbf), else None."""
        return 1.0 if self.shape is KernelShape.RBF else None


def rbf_kernel(lengthscale: float | None = None) -> RKHSKernel:
    return RKHSKernel(shape=KernelShape.RBF, lengthscale=lengthscale)


def linear_kernel() -> RKHSKernel:
    return RKHSKernel(shape=KernelShape.LINEAR, lengthscale=None)


def polynomial_kernel(degree: int, offset: float = 1.0) -> RKHSKernel:
    return RKHSKernel(
        shape=KernelShape.POLYNOMIAL, lengthscale=None, degree=degree, offset=offset
    )


def median_heuristic(X: np.ndarray) -> float:
    """Median of the positive pairwise distances (1.0 if there are none)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        return 1.0
    d = pdist(X)
    d = d[d > 0]
    if d.size == 0:
        return 1.0
    return float(np.median(d))


def gram(kernel: RKHSKernel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix with entries K(A_i, B_j)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"feature dims differ: {A.shape[1]} vs {B.shape[1]}")
    if kernel.shape is KernelShape.RBF:
        if kernel.lengthscale is None:
            raise ValueError("rbf lengthscale unresolved; fit resolves it")
        sq = cdist(A, B, metric="sqeuclidean")
        return np.exp(-sq / (2.0 * kernel.lengthscale**2))
    if kernel.shape is KernelShape.LINEAR:
        return A @ B.T
    return (A @ B.T + kernel.offset) ** kernel.degree


@dataclass(frozen=True)
class KRRPredictor:
    """A fitted kernel ridge regressor.

    ``coefficients`` solve (K(X,X) + n*lambda*I + jitter*I) c = Y;
    ``k_bound`` is sup K(x, x): exact for rbf, otherwise the max Gram
    diagonal over the training sample.
    """

    train_features: np.ndarray
    kernel: RKHSKernel
    lam: float
    coefficients: np.ndarray
    k_bound: float

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return gram(self.kernel, X, self.train_features) @ self.coefficients

    def predict_one(self, x) -> float:
        return float(self.predict(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    @property
    def n(self) -> int:
        return self.train_features.shape[0]


def ridge_solve(K: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Coefficients c solving (K + n*lam*I + jitter*I) c = y.

    jitter starts at 0 for lam > 0 (the system is already positive
    definite) and at 1e-10 * trace(K)/n for lam = 0; on factorization
    failure it escalates x10 up to 3 retries before raising
    ConditioningError. The solution must satisfy the linear system to
    relative residual 1e-8.
    """
    n = len(y)
    base = K + n * lam * np.eye(n)
    base_jitter = 1e-10 * np.trace(K) / n
    jitter = 0.0 if lam > 0 else base_jitter
    y_scale = max(np.linalg.norm(y), 1e-300)
    for _ in range(4):
        system = base if jitter == 0.0 else base + jitter * np.eye(n)
        try:
            factor = cho_factor(system, lower=True)
            candidate = cho_solve(factor, y)
        except LinAlgError:
            jitter = base_jitter if jitter == 0.0 else jitter * 10.0
            continue
        if np.linalg.norm(system @ candidate - y) <= 1e-8 * y_scale:
            return candidate
        jitter = base_jitter if jitter == 0.0 else jitter * 10.0
    raise ConditioningError(
        f"Gram system not solvable to 1e-8 relative residual after jitter "
        f"escalation (n={n}, lambda={lam:g}, last jitter={jitter:g})"
    )


def krr_fit(train: Dataset, kernel: RKHSKernel, lam: float) -> KRRPredictor:
    """Solve the ridge system for the training sample (see ``ridge_solve``)."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    X = train.features
    if kernel.shape is KernelShape.RBF and kernel.lengthscale is None:
        kernel = replace(kernel, lengthscale=median_heuristic(X))
    K = gram(kernel, X, X)
    coef = ridge_solve(K, train.labels, lam)
    k_bound = kernel.k_bound
    if k_bound is None:
        k_bound = float(np.max(np.diag(K)))
    return KRRPredictor(
        train_features=X, kernel=kernel, lam=lam, coefficients=coef, k_bound=k_bound
    )


def krr_stability_coeffs(p: KRRPredictor) -> np.ndarray:
    """Per-point label-perturbation coefficients, all equal to k/(n*lambda).

    Changing training labels by (delta_i) moves every prediction by at most
    sum_i k/(n*lambda) * |delta_i|; requires lambda > 0.
    """
    if p.lam <= 0:
        raise StabilityUndefinedError(
            "stability coefficients require lambda > 0"
        )
    return np.full(p.n, p.k_bound / (p.n * p.lam))


def krr_lambda_rule(n: int, beta: float, p: float, c: float = 1.0) -> float:
    """Rate-driven default regularization c * n^(-1 / (beta + p)).

    ``beta`` is the assumed approximation-error exponent (> 0) and ``p`` the
    assumed eigenvalue-decay exponent, in (0, 1). Neither is estimable from
    data here; callers supply them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not c > 0:
        raise ValueError(f"c must be > 0, got {c}")
    return c * float(n) ** (-1.0 / (beta + p))
