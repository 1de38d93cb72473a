"""Nadaraya-Watson kernel smoothing.

The estimator is f_hat(x) = sum_i w_i(x) Y_i with weights

    w_i(x) = K(||x - X_i||_2 / h) / sum_j K(||x - X_j||_2 / h),

so every prediction is a convex combination of training labels. Kernels are
positive at 0, nonincreasing, and (except for the plain gaussian shape)
supported on [0, 1]; all shapes have finite second moment. When a query
falls outside every kernel window, the prediction falls back to the nearest
training point's label, ties going to the lowest index.

``ks_predict`` predicts a grid of bandwidths from one training sample, and
is the one place that picks how. For 1-D data and a compact-support kernel,
predictions only visit the training points inside each query's window
[q - h, q + h], found by binary search in the sample's cached stable order
(``Dataset.sorted_1d``; windowed Nadaraya-Watson evaluation, Fan & Marron
1994). Such a call sorts its queries once with numpy's default sort, predicts
every bandwidth on the ascending queries and scatters each result back to the
caller's order: a query's prediction depends only on its own window and on
the set of queries, never on their order, so neither the sort nor the order
it gives equal queries changes a bit. Everything else evaluates the dense
(m, n) kernel matrix from one distance matrix shared by every bandwidth.
The windowed path needs only numpy. The dense path takes its
distances from ``data.sq_distances``, which imports scipy on first use, so a
1-D compact-kernel run never loads scipy.

Inside the window, boxcar and epanechnikov are polynomials in (q - x)^2, so
a call whose windows hold at least ``_MOMENT_MIN_PAIRS`` pairs takes their
sums from prefix sums of x-moments in O(log n) per query, whatever h is (the
updating scheme of Seifert, Brockmann, Engel & Gasser 1994, Fast algorithms
for nonparametric curve estimation, JCGS 3). Smaller calls and the truncated
gaussian evaluate each window pair. The moment path keeps results within
float summation order of the pair path:

- moments are taken about the centre of a 2h-wide bin of queries (a run of
  consecutive sorted queries), so their terms stay O(h^2) and cancel by
  about 10x, not by (1/h)^2;
- they cover only the inner window |q - x| < h (1 - 1e-7); the points
  between it and the padded window are evaluated pair by pair, so the
  boxcar edge s <= 1 and the epanechnikov clamp at 0 round as on the dense
  path;
- a query whose error bound 64 eps (span + 1) (max|y| + |pred|) / sums,
  with span the length of the prefix it read, exceeds 1e-13 max(1, max|y|)
  is redone pair by pair. These queries have little kernel mass, typically
  beyond the ends of the data, and so few pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .data import Dataset, sq_distances


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


def ks_predict(
    train: Dataset, X, kernel: SmoothingKernel, bandwidths: Sequence[float]
) -> list[np.ndarray]:
    """Predictions at the queries ``X`` of the smoother fit on ``train``,
    one array per bandwidth.

    1-D data with a compact-support kernel takes each query's window in
    ``train.sorted_1d`` (``predict_sorted_1d``); anything else evaluates the
    dense kernel matrix from one (m, n) squared-distance matrix
    (``predict_from_kernel``).
    """
    X = _queries(train, X)
    if train.dim == 1 and kernel.compact:
        xs, labels, order = train.sorted_1d
        return predict_sorted_1d(xs, labels, order, X[:, 0], kernel, bandwidths)
    sq = sq_distances(X, train.features)
    return [predict_from_kernel(kernel.profile_sq(sq / (h * h)), sq, train.labels)
            for h in bandwidths]


def _queries(train: Dataset, X) -> np.ndarray:
    """``X`` as a 2-D float array of finite queries in the sample's dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != train.dim:
        raise ValueError(f"query dim {X.shape[1]} != training dim {train.dim}")
    if not np.isfinite(X).all():
        raise ValueError("queries must be finite")
    return X


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
# this many pairs, so a block bounds each float64 temporary at about 512 KB
# instead of one spanning every pair of a call.
_BLOCK_PAIRS = 1 << 16

# Calls with at least this many window pairs sum boxcar and epanechnikov
# windows from prefix moments; below it the moments' set-up costs more than
# the pairs they save.
_MOMENT_MIN_PAIRS = _BLOCK_PAIRS

# Kernels that are polynomial in s = (q - x)^2 / h^2 inside the window.
_POLYNOMIAL = (SmoothingKernel.BOXCAR, SmoothingKernel.EPANECHNIKOV)


def predict_sorted_1d(
    xs: np.ndarray,
    labels: np.ndarray,
    ranks: np.ndarray,
    queries: np.ndarray,
    kernel: SmoothingKernel,
    bandwidths: Sequence[float],
) -> list[np.ndarray]:
    """Predictions at 1-D ``queries``, one array per bandwidth, from training
    points ``xs`` in stable ascending order, for a compact-support
    ``kernel``.

    ``labels`` are in the same order as ``xs``; ``ranks`` are the training
    points' original indices, which break nearest-neighbour ties. The queries
    are sorted once, in any order among equal ones, and each bandwidth is
    predicted in that order; a query's prediction depends only on its own
    window and on the set of queries, so the results are scattered back to
    the caller's order bit for bit. They differ from ``predict_from_kernel``
    by float summation order only: small calls and the truncated gaussian
    evaluate each window pair on the same (q - x)^2 / (h * h) values as the
    dense path; large boxcar and epanechnikov calls take their window sums
    from prefix moments (see the module docstring).
    """
    perm = np.argsort(queries)
    q = queries[perm]
    preds = []
    for h in bandwidths:
        lo, counts = _windows(xs, q, h)
        if kernel in _POLYNOMIAL and counts.sum() >= _MOMENT_MIN_PAIRS:
            sums, weighted = _moment_sums(xs, labels, q, kernel, h, lo, counts)
        else:
            sums, weighted = _pair_sums(xs, labels, q, kernel, h, lo, counts)
        out = np.empty(len(q))
        live = sums > 0.0
        out[live] = weighted[live] / sums[live]
        if not live.all():
            dead = ~live
            out[dead] = labels[_nearest_sorted_1d(xs, ranks, q[dead])]
        pred = np.empty_like(out)
        pred[perm] = out
        preds.append(pred)
    return preds


def _pair_sums(xs, labels, queries, kernel, h, lo, counts):
    """Kernel sums and label-weighted sums over each query's run of sorted
    ``xs`` (start ``lo``, length ``counts``), evaluated pair by pair."""
    m = len(queries)
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
    return sums, weighted


def _moment_sums(xs, labels, queries, kernel, h, lo, counts):
    """The sums of ``_pair_sums`` for a polynomial kernel, from prefix
    moments over each query's inner window, pairs on the window's rim, and
    pairs again for every query whose moment error bound is too loose."""
    # inner window |q - x| < h (1 - 1e-7), shrunk by the rounding of q -+ h;
    # every point in it has s < 1 in any rounding, so K is the polynomial
    reach = h * (1.0 - 1e-7) - 1e-9 * (h + np.abs(queries))
    lo_in = np.searchsorted(xs, queries - reach, side="right")
    hi_in = np.maximum(np.searchsorted(xs, queries + reach, side="left"), lo_in)
    n_inner = hi_in - lo_in
    sums, weighted, span = _inner_moments(xs, labels, queries, kernel, h,
                                          lo_in, n_inner)
    # the rim between the inner window and the padded one, pair by pair
    left, right = lo_in - lo, lo + counts - hi_in
    rim = np.flatnonzero(left + right)
    if len(rim):
        both = np.r_[rim, rim]
        rim_sums, rim_weighted = _pair_sums(
            xs, labels, queries[both], kernel, h, np.r_[lo[rim], hi_in[rim]],
            np.r_[left[rim], right[rim]])
        np.add.at(sums, both, rim_sums)
        np.add.at(weighted, both, rim_weighted)
    # cumulative sums over ``span`` points carry an absolute error of about
    # eps * span in units of one kernel value; redo the queries where that
    # can move the prediction by more than 1e-13 of the label scale
    y_max = float(np.abs(labels).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = np.abs(weighted / sums)
        bound = 64 * np.finfo(float).eps * (span + 1) * (y_max + pred) / sums
    redo = np.flatnonzero((n_inner > 0) & ~(bound <= 1e-13 * max(1.0, y_max)))
    if len(redo):
        sums[redo], weighted[redo] = _pair_sums(
            xs, labels, queries[redo], kernel, h, lo[redo], counts[redo])
    return sums, weighted


def _inner_moments(xs, labels, queries, kernel, h, lo, counts):
    """Kernel and label-weighted sums over each query's run of sorted ``xs``
    from prefix moments, with the length of the prefix each came from.

    Ascending queries are grouped in bins of width 2h anchored at their
    centres a, so each bin is a run of consecutive queries; a bin's prefix
    sums of d, d^2, y, y d and y d^2, d = x - a, run over the union of its
    queries' windows. With q' = q - a and N the window's length, a query's
    epanechnikov sums are N - (S2 - 2 q' S1 + q'^2 N) / h^2 and
    Y0 - (Y2 - 2 q' Y1 + q'^2 Y0) / h^2 (boxcar: N and Y0). Anchoring keeps
    d and q' within 2h, so the expansion loses about a factor of 10 to
    cancellation. Prefix arrays are built a group of bins at a time, padded
    to the group's longest prefix (see ``_bin_blocks``).
    """
    m = len(queries)
    sums, weighted, span = np.zeros(m), np.zeros(m), np.zeros(m)
    filled = np.flatnonzero(counts > 0)
    if not len(filled):
        return sums, weighted, span
    lo, counts, q = lo[filled], counts[filled], queries[filled]
    key = np.floor(q / (2.0 * h))
    opens = np.r_[True, key[1:] != key[:-1]]
    starts = np.flatnonzero(opens)
    bin_of = np.cumsum(opens) - 1
    anchor = (key[starts] + 0.5) * (2.0 * h)
    first = np.minimum.reduceat(lo, starts)
    lengths = np.maximum.reduceat(lo + counts, starts) - first
    span[filled] = lengths[bin_of]
    epanechnikov = kernel is SmoothingKernel.EPANECHNIKOV
    hh = h * h
    row = np.empty_like(lengths)
    for bins in _bin_blocks(lengths):
        row[bins] = np.arange(len(bins))
        in_block = np.zeros(len(starts), dtype=bool)
        in_block[bins] = True
        at = np.flatnonzero(in_block[bin_of])
        width = lengths[bins].max()
        cols = first[bins][:, None] + np.arange(width)
        # prefix[k, row, i]: moment k (d, d^2, y d, y d^2, y; boxcar: y)
        # summed over the bin's first i points; past the bin's own length a
        # row runs on over later points, which no query of the bin reads
        prefix = np.empty((5 if epanechnikov else 1, len(bins), width + 1))
        prefix[:, :, 0] = 0.0
        y = prefix[-1, :, 1:]
        np.take(labels, cols, out=y, mode="clip")
        if epanechnikov:
            d, d2, yd, yd2 = prefix[:4, :, 1:]
            np.take(xs, cols, out=d, mode="clip")
            d -= anchor[bins][:, None]
            np.multiply(d, d, out=d2)
            np.multiply(y, d, out=yd)
            np.multiply(yd, d, out=yd2)
        np.cumsum(prefix, axis=2, out=prefix)
        r, start = row[bin_of[at]], lo[at] - first[bin_of[at]]
        windowed = prefix[:, r, start + counts[at]] - prefix[:, r, start]
        n = counts[at].astype(float)
        if epanechnikov:
            s1, s2, y1, y2, y0 = windowed
            qd = q[at] - anchor[bin_of[at]]
            sums[filled[at]] = n - (s2 - 2.0 * qd * s1 + qd * qd * n) / hh
            weighted[filled[at]] = y0 - (y2 - 2.0 * qd * y1 + qd * qd * y0) / hh
        else:
            sums[filled[at]], weighted[filled[at]] = n, windowed[0]
    return sums, weighted, span


def _bin_blocks(lengths) -> list[np.ndarray]:
    """Groups of bins whose padded (bins x longest prefix) arrays hold about
    _BLOCK_PAIRS values each, at least one bin per group. Bins are grouped
    by prefix length, so little padding is wasted on clustered data."""
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order]
    groups, start = [], 0
    while start < len(order):
        padded = np.arange(1, len(order) - start + 1) * ranked[start:]
        stop = start + max(1, int(np.searchsorted(padded, _BLOCK_PAIRS,
                                                  side="right")))
        groups.append(order[start:stop])
        start = stop
    return groups


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

    Immutable; prediction at distinct queries is safe to run concurrently.
    """

    train: Dataset
    kernel: SmoothingKernel = SmoothingKernel.TRUNCATED_GAUSSIAN
    bandwidth: float = 0.1

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    def _raw(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalized kernel values and squared query-train distances."""
        sq = sq_distances(_queries(self.train, X), self.train.features)
        raw = self.kernel.profile_sq(sq / (self.bandwidth * self.bandwidth))
        return raw, sq

    def weights(self, x) -> np.ndarray:
        """Convex weights over training points for a single query point."""
        return self.weights_many(np.atleast_2d(np.asarray(x, dtype=float)))[0]

    def weights_many(self, X: np.ndarray) -> np.ndarray:
        """Row-stochastic (m, n) weight matrix for m query points."""
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
        return ks_predict(self.train, X, self.kernel, (self.bandwidth,))[0]

    def predict_one(self, x) -> float:
        return float(self.predict(np.atleast_2d(np.asarray(x, dtype=float)))[0])
