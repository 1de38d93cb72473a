"""Nadaraya-Watson kernel smoothing.

The estimator is f_hat(x) = sum_i w_i(x) Y_i with weights

    w_i(x) = K(||x - X_i||_2 / h) / sum_j K(||x - X_j||_2 / h),

so every prediction is a convex combination of training labels. Kernels are
positive at 0, nonincreasing, and (except for the plain gaussian shape)
supported on [0, 1]; all shapes have finite second moment. When a query
falls outside every kernel window, the prediction falls back to the nearest
training point's label, ties going to the lowest index.

For 1-D data and a compact-support kernel, predictions only visit the
training points inside each query's window [q - h, q + h], found by binary
search in the sorted features (windowed Nadaraya-Watson evaluation, Fan &
Marron 1994); everything else evaluates the dense (m, n) kernel matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset


class SmoothingKernel(Enum):
    """Radial profiles K(u), u >= 0. Compact support except GAUSSIAN."""

    BOXCAR = "boxcar"
    EPANECHNIKOV = "epanechnikov"
    TRUNCATED_GAUSSIAN = "truncated_gaussian"
    GAUSSIAN = "gaussian"

    @property
    def compact(self) -> bool:
        """True when K vanishes beyond u = 1."""
        return self is not SmoothingKernel.GAUSSIAN

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


# Window pairs are evaluated in blocks of consecutive queries holding about
# this many pairs, so the 512 KB temporaries are reused from the heap.
# Temporaries spanning every pair of a call are mapped afresh each time, and
# their page faults cost about as much as the arithmetic.
_BLOCK_PAIRS = 1 << 16


def predict_sorted_1d(
    xs: np.ndarray,
    labels: np.ndarray,
    ranks: np.ndarray,
    queries: np.ndarray,
    kernel: SmoothingKernel,
    h: float,
) -> np.ndarray:
    """Predictions at 1-D ``queries`` from training points ``xs`` sorted
    ascending by a stable sort, for a compact-support ``kernel``.

    ``labels`` are in the same order as ``xs``; ``ranks`` are the training
    points' original indices, which break nearest-neighbour ties. Only the
    pairs inside each query's window are evaluated, on the same
    (q - x)^2 / (h * h) values as the dense path, so results differ from
    ``predict_from_kernel`` by float summation order only.
    """
    m = len(queries)
    lo, counts = _windows(xs, queries, h)
    sums, weighted = np.zeros(m), np.zeros(m)
    for block in _blocks(counts):
        runs = counts[block]
        cols = _pair_columns(lo[block], runs)
        sq = np.repeat(queries[block], runs)
        sq -= xs[cols]
        sq *= sq
        sq /= h * h
        raw = kernel.profile_sq(sq)
        sums[block] = _segment_sums(raw, runs)
        raw *= labels[cols]
        weighted[block] = _segment_sums(raw, runs)
    out = np.empty(m)
    live = sums > 0.0
    out[live] = weighted[live] / sums[live]
    if not live.all():
        dead = ~live
        out[dead] = labels[_nearest_sorted_1d(xs, ranks, queries[dead])]
    return out


def _windows(xs, queries, radius):
    """Start and length of each query's run of sorted ``xs`` within
    ``radius``. The window is padded so that no point whose rounded distance
    meets the radius is missed; the extra points are evaluated like any
    other."""
    reach = radius + 1e-9 * (radius + np.abs(queries))
    lo = np.searchsorted(xs, queries - reach, side="left")
    return lo, np.searchsorted(xs, queries + reach, side="right") - lo


def _blocks(counts) -> list[slice]:
    """Slices of consecutive queries holding about _BLOCK_PAIRS pairs each."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_BLOCK_PAIRS, total, _BLOCK_PAIRS))
    bounds = [0, *cuts.tolist(), len(counts)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _pair_columns(lo, counts) -> np.ndarray:
    """Training positions of the flattened window pairs, query by query."""
    cols = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    cols += np.arange(len(cols))
    return cols


def _segment_sums(values, counts) -> np.ndarray:
    """Sums of the consecutive runs of ``values`` with the given lengths."""
    out = np.zeros(len(counts))
    filled = counts > 0
    if filled.any():
        out[filled] = np.add.reduceat(values, (np.cumsum(counts) - counts)[filled])
    return out


def _nearest_sorted_1d(xs, ranks, queries) -> np.ndarray:
    """Positions in sorted ``xs`` of each query's nearest training point by
    rounded squared distance, ties going to the lowest rank: the point that
    ``argmin`` over the dense row picks."""
    right = np.minimum(np.searchsorted(xs, queries), len(xs) - 1)
    left = np.maximum(right - 1, 0)
    near = np.minimum(np.abs(queries - xs[left]), np.abs(queries - xs[right]))
    # every point whose rounded squared distance equals the nearest one's
    lo, counts = _windows(xs, queries, near)
    cols = _pair_columns(lo, counts)
    rows = np.repeat(np.arange(len(queries)), counts)
    diff = queries[rows] - xs[cols]
    by_distance = np.lexsort((ranks[cols], diff * diff, rows))
    return cols[by_distance[np.cumsum(counts) - counts]]


@dataclass(frozen=True)
class KSPredictor:
    """A fitted kernel smoother: the training sample plus (kernel, h).

    Immutable apart from a sort of the training points cached on first use
    (recomputing it is harmless); prediction at distinct queries is safe to
    run concurrently.
    """

    train: Dataset
    kernel: SmoothingKernel = SmoothingKernel.TRUNCATED_GAUSSIAN
    bandwidth: float = 0.1

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D training features in stable sorted order, their labels and
        original indices; computed on first use."""
        order = np.argsort(self.train.features[:, 0], kind="stable")
        return self.train.features[order, 0], self.train.labels[order], order

    def _check_queries(self, X: np.ndarray) -> None:
        if X.shape[1] != self.train.dim:
            raise ValueError(
                f"query dim {X.shape[1]} != training dim {self.train.dim}"
            )
        if not np.isfinite(X).all():
            raise ValueError("queries must be finite")

    def _raw(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized kernel values and squared query-train distances."""
        self._check_queries(X)
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
        if self.train.dim == 1 and self.kernel.compact:
            self._check_queries(X)
            xs, labels, order = self._sorted
            return predict_sorted_1d(xs, labels, order, X[:, 0], self.kernel,
                                     self.bandwidth)
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
