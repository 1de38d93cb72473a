"""Kernel ridge regression.

Fits minimize the ridge-regularized empirical risk in the RKHS of a positive
semidefinite kernel; the closed form is

    f_hat(x) = K(X, x)^T (K(X, X) + n * lambda * I)^(-1) Y.

The linear system is solved by a Cholesky factorization with escalating
jitter (jitter only when lambda = 0). ``krr_path`` fits a grid of lambdas
from one Gram matrix and one ``ridge_path`` call, and ``predict_path``
predicts all of them from one Gram block of the queries; ``krr_fit`` is the
one-lambda path. Fitted predictors are immutable and may be queried
concurrently; independent fits share no mutable state.

scipy supplies the squared distances (``data.sq_distances``) and the LAPACK
Cholesky routines (``ridge_path``); both import it on first use, so loading
this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .data import Dataset, as_queries, sq_distances


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
    lengthscale: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.shape is KernelShape.RBF:
            if self.lengthscale is not None and not self.lengthscale > 0:
                raise ValueError("rbf lengthscale must be positive")
        if self.shape is KernelShape.POLYNOMIAL:
            if self.degree < 1 or self.degree != int(self.degree):
                raise ValueError("polynomial degree must be an integer >= 1")
            if not self.offset >= 0:
                raise ValueError("polynomial offset must be >= 0")

    @property
    def k_bound(self) -> float | None:
        """sup_x K(x, x) when finite a priori (1 for rbf), else None."""
        return 1.0 if self.shape is KernelShape.RBF else None


def rbf_kernel(lengthscale: float | None = None) -> RKHSKernel:
    return RKHSKernel(shape=KernelShape.RBF, lengthscale=lengthscale)


def linear_kernel() -> RKHSKernel:
    return RKHSKernel(shape=KernelShape.LINEAR)


def polynomial_kernel(degree: int, offset: float = 1.0) -> RKHSKernel:
    return RKHSKernel(shape=KernelShape.POLYNOMIAL, degree=degree, offset=offset)


def median_heuristic(X: np.ndarray) -> float:
    """Median of the positive pairwise distances (1.0 if there are none)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return median_heuristic_sq(sq_distances(X, X))


def median_heuristic_sq(sq: np.ndarray) -> float:
    """``median_heuristic`` from a symmetric matrix of squared distances.

    Each positive pair appears twice, so entries m - 1 and m of the 2m
    sorted positive entries are the middle pair values; the median is the
    mean of their square roots, as ``np.median`` of the distances rounds it.
    """
    positive = sq[sq > 0]
    m = positive.size // 2
    if m == 0:
        return 1.0
    positive.partition(m - 1)
    return float((np.sqrt(positive[m - 1]) + np.sqrt(positive[m:].min())) / 2)


def rbf_from_sq(sq: np.ndarray, lengthscale: float) -> np.ndarray:
    """exp(-sq / (2 l^2)), computed in place in ``sq``, which it returns; an
    l whose square passes the float range acts as an infinite one."""
    try:
        square = lengthscale**2
    except OverflowError:
        square = np.inf
    np.divide(sq, -(2.0 * square), out=sq)
    return np.exp(sq, out=sq)


def gram(kernel: RKHSKernel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix with entries K(A_i, B_j)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"feature dims differ: {A.shape[1]} vs {B.shape[1]}")
    if kernel.shape is KernelShape.RBF:
        if kernel.lengthscale is None:
            raise ValueError("rbf lengthscale unresolved; fit resolves it")
        return rbf_from_sq(sq_distances(A, B), kernel.lengthscale)
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
        X = as_queries(X, self.train_features.shape[1])
        return gram(self.kernel, X, self.train_features) @ self.coefficients

    def predict_one(self, x) -> float:
        return float(self.predict(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    @property
    def n(self) -> int:
        return self.train_features.shape[0]


def ridge_path(K: np.ndarray, y: np.ndarray, lams: Sequence[float]) -> np.ndarray:
    """Row i solves (K + n*lams[i]*I + jitter*I) c = y.

    K must be symmetric: the Cholesky factorization reads one triangle.
    jitter starts at 0 for lam > 0 (the system is already positive
    definite) and at 1e-10 * trace(K)/n for lam = 0; on factorization
    failure it escalates x10 up to 3 retries before raising
    ConditioningError. Each solution must satisfy its linear system to
    relative residual 1e-8. Non-finite K or y raise ValueError.

    The finiteness check, trace and label norm are taken once, and every
    lam reuses one n x n buffer that LAPACK factorizes in place: the same
    potrf/potrs calls as scipy's cho_factor/cho_solve, so the coefficients
    are the same bits.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if K.shape != (n, n):
        raise ValueError(f"Gram matrix shape {K.shape} does not match {n} labels")
    if not (np.isfinite(K).all() and np.isfinite(y).all()):
        raise ValueError("Gram matrix and labels must be finite")
    base_jitter = 1e-10 * np.trace(K) / n
    y_scale = max(np.linalg.norm(y), 1e-300)
    system = np.empty((n, n))
    diagonal = system.reshape(-1)[:: n + 1]

    def fill(lam, jitter):
        # rounds as K + n*lam*I, then + jitter*I
        np.copyto(system, K)
        np.add(diagonal, n * lam, out=diagonal)
        if jitter != 0.0:
            np.add(diagonal, jitter, out=diagonal)

    coefs = np.empty((len(lams), n))
    for i, lam in enumerate(lams):
        jitter = 0.0 if lam > 0 else base_jitter
        for _ in range(4):
            fill(lam, jitter)
            # system.T is the Fortran-order view LAPACK overwrites in place
            factor, info = dpotrf(system.T, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                coefs[i], _ = dpotrs(factor, y, lower=1)
                fill(lam, jitter)  # the factor overwrote the system
                if np.linalg.norm(system @ coefs[i] - y) <= 1e-8 * y_scale:
                    break
            jitter = base_jitter if jitter == 0.0 else jitter * 10.0
        else:
            raise ConditioningError(
                f"Gram system not solvable to 1e-8 relative residual after "
                f"jitter escalation (n={n}, lambda={lam:g}, last jitter={jitter:g})"
            )
    return coefs


def krr_path(
    train: Dataset, kernel: RKHSKernel, lams: Sequence[float]
) -> list[KRRPredictor]:
    """One fit per lambda, from one Gram matrix and one ``ridge_path`` call.

    An rbf kernel without a lengthscale takes the median heuristic of the
    training rows; every fit shares the resolved kernel and the training
    features.
    """
    if not all(lam >= 0 for lam in lams):
        raise ValueError("lambda must be >= 0")
    X = train.features
    if kernel.shape is KernelShape.RBF and kernel.lengthscale is None:
        # one distance matrix serves the heuristic and the Gram matrix
        sq = sq_distances(X, X)
        kernel = replace(kernel, lengthscale=median_heuristic_sq(sq))
        K = rbf_from_sq(sq, kernel.lengthscale)
    else:
        K = gram(kernel, X, X)
    k_bound = kernel.k_bound
    if k_bound is None:
        k_bound = float(np.max(np.diag(K)))
    return [KRRPredictor(train_features=X, kernel=kernel, lam=lam,
                         coefficients=coef, k_bound=k_bound)
            for lam, coef in zip(lams, ridge_path(K, train.labels, lams))]


def predict_path(path: Sequence[KRRPredictor], X) -> list[np.ndarray]:
    """Predictions at ``X`` of every fit of one ``krr_path``, from one Gram
    block; each equals that fit's ``predict``."""
    G = gram(path[0].kernel, X, path[0].train_features)
    return [G @ p.coefficients for p in path]


def krr_fit(train: Dataset, kernel: RKHSKernel, lam: float) -> KRRPredictor:
    """Solve the ridge system for the training sample: ``krr_path`` with one
    lambda (see ``ridge_path`` for the solve)."""
    return krr_path(train, kernel, (lam,))[0]


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
