"""Nadaraya-Watson kernel smoothing.

The estimator is f_hat(x) = sum_i w_i(x) Y_i with weights

    w_i(x) = K(||x - X_i||_2 / h) / sum_j K(||x - X_j||_2 / h),

so every prediction is a convex combination of training labels. Kernels are
positive at 0, nonincreasing, and (except for the plain gaussian shape)
supported on [0, 1]; all shapes have finite second moment. When a query
falls outside every kernel window, the prediction falls back to the nearest
training point's label, ties going to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset


class SmoothingKernel(Enum):
    """Radial profiles K(u), u >= 0. Compact support except GAUSSIAN."""

    BOXCAR = "boxcar"
    EPANECHNIKOV = "epanechnikov"
    TRUNCATED_GAUSSIAN = "truncated_gaussian"
    GAUSSIAN = "gaussian"

    def profile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.profile_sq(u * u)

    def profile_sq(self, s) -> np.ndarray:
        """K as a function of the squared scaled distance s = u^2.

        All-radial shapes only need s, which lets callers skip the square
        root on large distance matrices.
        """
        s = np.asarray(s, dtype=float)
        if self is SmoothingKernel.BOXCAR:
            return (s <= 1.0).astype(float)
        if self is SmoothingKernel.EPANECHNIKOV:
            return np.maximum(1.0 - s, 0.0)
        if self is SmoothingKernel.TRUNCATED_GAUSSIAN:
            out = np.zeros_like(s)
            inside = s <= 1.0
            out[inside] = np.exp(-0.5 * s[inside])
            return out
        return np.exp(-0.5 * s)


def predict_from_kernel(
    raw: np.ndarray, sq: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Predictions from (m, n) kernel values and squared query-train
    distances; a query with no kernel mass takes its nearest label."""
    sums = raw.sum(axis=1)
    out = np.empty(len(raw))
    live = sums > 0.0
    out[live] = (raw[live] @ labels) / sums[live]
    if not live.all():
        dead = ~live
        out[dead] = labels[np.argmin(sq[dead], axis=1)]
    return out


@dataclass(frozen=True)
class KSPredictor:
    """A fitted kernel smoother: the training sample plus (kernel, h).

    Immutable; prediction at distinct queries is safe to run concurrently.
    """

    train: Dataset
    kernel: SmoothingKernel = SmoothingKernel.TRUNCATED_GAUSSIAN
    bandwidth: float = 0.1

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def _raw(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized kernel values and squared query-train distances."""
        if X.shape[1] != self.train.dim:
            raise ValueError(
                f"query dim {X.shape[1]} != training dim {self.train.dim}"
            )
        sq = cdist(X, self.train.features, metric="sqeuclidean")
        raw = self.kernel.profile_sq(sq / (self.bandwidth * self.bandwidth))
        return raw, sq

    def weights(self, x) -> np.ndarray:
        """Convex weights over training points for a single query point."""
        return self.weights_many(np.atleast_2d(np.asarray(x, dtype=float)))[0]

    def weights_many(self, X: np.ndarray) -> np.ndarray:
        """Row-stochastic (m, n) weight matrix for m query points."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        raw, sq = self._raw(X)
        sums = raw.sum(axis=1)
        dead = sums == 0.0
        if np.any(dead):
            # empty neighborhood: one-hot on the nearest training point
            # (argmin takes the lowest index on ties)
            nearest = np.argmin(sq[dead], axis=1)
            raw[dead] = 0.0
            raw[np.flatnonzero(dead), nearest] = 1.0
            sums[dead] = 1.0
        return raw / sums[:, None]

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        raw, sq = self._raw(X)
        return predict_from_kernel(raw, sq, self.train.labels)

    def predict_one(self, x) -> float:
        return float(self.predict(np.atleast_2d(np.asarray(x, dtype=float)))[0])


def ks_fit(
    train: Dataset,
    kernel: SmoothingKernel = SmoothingKernel.TRUNCATED_GAUSSIAN,
    bandwidth: float = 0.1,
) -> KSPredictor:
    return KSPredictor(train=train, kernel=kernel, bandwidth=bandwidth)


def ks_bandwidth_rule(n: int, d: int, alpha: float, c: float = 1.0) -> float:
    """Rate-driven default bandwidth c * n^(-1 / (2*alpha + d)).

    ``alpha`` is the assumed Holder smoothness exponent of the regression
    function, in (0, 1]. The constant c defaults to 1; only the order is
    principled, so callers tune c per dataset.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not c > 0:
        raise ValueError(f"c must be > 0, got {c}")
    return c * float(n) ** (-1.0 / (2.0 * alpha + d))
