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

``ks_predict_rows`` predicts k label rows over one sample's features at
once, as transformation selection's auxiliary fits need: they share the
target features and differ only in their labels. ``ks_predict`` is its
one-row call, on the same code. Whatever does not read the labels is
computed once for all rows: the query sort, the windows, the leave-out, the
window pairs' columns and kernel values, and the nearest-neighbour
fallback's points; on the dense path the kernel matrix, its row sums and
the nearest points. Per row come the label-weighted sums: the window
pairs' kernel values times the row's labels, each query's run reduced as a
one-row call reduces it; on the dense path one matrix-vector product per
row, since a matrix-matrix product sums in another order; and on the moment
path the whole prefix-moment evaluation, whose error bound reads the
labels. So row i has the bits of a call on row i alone.

``ks_cv_predict`` predicts every fold of a cross-validation at once. A 1-D
compact-kernel call predicts each query from the training points outside
its own fold, and one pass per bandwidth serves all folds: the queries are
sorted once, windows are found by one search in the whole sample's cached
sort, then counted in the points the query's fold keeps. A block of window
pairs or a group of moment bins belongs to one fold (small folds share a
block of pairs and filter them), and the points that fold keeps are
gathered once for it. Whatever a call on one fold's points computes once per
call is computed per fold: the moment-vs-pair choice from the fold's own
pair total, the max|y| of the moment error bound, the moment bins, window
starts and prefix spans counted in the fold's points, and the
nearest-neighbour fallback among them. Every operation on a query's values
is then the one that call makes, in the same order, so each prediction, and
each CV score, has the bits of a per-fold fit. A call without folds
(``ks_predict``'s) runs the same code as one fold that leaves nothing out.

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

from dataclasses import dataclass, replace
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
    one array per bandwidth: ``ks_predict_rows`` with the sample's own
    labels as its one row."""
    return [pred[0] for pred in
            ks_predict_rows(train, train.labels[None], X, kernel, bandwidths)]


def ks_predict_rows(
    train: Dataset, rows: np.ndarray, X, kernel: SmoothingKernel,
    bandwidths: Sequence[float],
) -> list[np.ndarray]:
    """Predictions at the queries ``X``, one (k, m) array per bandwidth, of
    the smoothers fit on ``train``'s features with each of the k label rows
    ``rows`` (in ``train``'s row order); row i has the bits of a fit on the
    sample relabeled with ``rows[i]``.

    1-D data with a compact-support kernel takes each query's window in
    ``train.sorted_1d`` (``predict_sorted_1d``); anything else evaluates the
    dense kernel matrix from one (m, n) squared-distance matrix
    (``predict_from_kernel``).
    """
    X = _queries(train, X)
    if train.dim == 1 and kernel.compact:
        xs, _, order = train.sorted_1d
        return predict_sorted_1d(xs, rows.take(order, axis=1), order, X[:, 0],
                                 kernel, bandwidths)
    sq = sq_distances(X, train.features)
    return [predict_from_kernel(kernel.profile_sq(sq / (h * h)), sq, rows)
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
    raw: np.ndarray, sq: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Predictions, one row per label row of ``rows`` (k, n), from (m, n)
    kernel values and squared query-train distances; a query with no kernel
    mass takes its nearest label. The kernel sums and the nearest points are
    shared by every row; each row is its own matrix-vector product, whose
    bits a matrix-matrix product would not keep."""
    sums = raw.sum(axis=1)
    out = np.empty((len(rows), len(raw)))
    live = sums > 0.0
    kept = raw[live]
    for pred, labels in zip(out, rows):
        pred[live] = (kept @ labels) / sums[live]
    if not live.all():
        dead = ~live
        out[:, dead] = rows[:, np.argmin(sq[dead], axis=1)]
    return out


# Window pairs are evaluated in blocks of consecutive queries holding at most
# about this many pairs (see ``_blocks``), so a block bounds each float64
# temporary at about 512 KB instead of one spanning every pair of a call.
_BLOCK_PAIRS = 1 << 16

# Calls with at least this many window pairs sum boxcar and epanechnikov
# windows from prefix moments; below it the moments' set-up costs more than
# the pairs they save.
_MOMENT_MIN_PAIRS = _BLOCK_PAIRS

# Kernels that are polynomial in s = (q - x)^2 / h^2 inside the window.
_POLYNOMIAL = (SmoothingKernel.BOXCAR, SmoothingKernel.EPANECHNIKOV)


def ks_cv_predict(
    data: Dataset,
    parts: Sequence[np.ndarray],
    kernel: SmoothingKernel,
    bandwidths: Sequence[float],
) -> list[np.ndarray]:
    """Each row's prediction, one array per bandwidth, from the smoother fit
    on ``data`` less the row's part: every fold of a cross-validation whose
    folds ``parts`` partition the rows.

    A 1-D sample with a compact-support kernel is predicted in one
    ``predict_sorted_1d`` pass per bandwidth, each row from the points
    outside its part; anything else fits ``ks_predict`` on
    ``data.without(part)`` part by part. Either way a row gets the bits that
    ``ks_predict`` fit on the sample less its part gives it.
    """
    if data.dim == 1 and kernel.compact:
        fold = np.empty(data.n, dtype=np.min_scalar_type(len(parts) - 1))
        for f, rows in enumerate(parts):
            fold[rows] = f
        xs, labels, order = data.sorted_1d
        return [pred[0] for pred in predict_sorted_1d(
            xs, labels[None], order, data.features[:, 0], kernel, bandwidths,
            (fold[order], fold))]
    preds = [np.empty(data.n) for _ in bandwidths]
    for rows in parts:
        fits = ks_predict(data.without(rows), data.features[rows], kernel, bandwidths)
        for pred, fit in zip(preds, fits):
            pred[rows] = fit
    return preds


def predict_sorted_1d(
    xs: np.ndarray,
    rows: np.ndarray,
    ranks: np.ndarray,
    queries: np.ndarray,
    kernel: SmoothingKernel,
    bandwidths: Sequence[float],
    folds: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Predictions at 1-D ``queries``, one (k, m) array per bandwidth, from
    training points ``xs`` in stable ascending order, for a compact-support
    ``kernel``: row i from the labels ``rows[i]``.

    ``rows`` (k, n) holds k label rows, each in the same order as ``xs``;
    ``ranks`` are the training points' original indices, which break
    nearest-neighbour ties. Only the label-weighted sums are taken row by
    row (see the module docstring), so each row has the bits of a call on
    that row alone. The queries
    are sorted once, in any order among equal ones, and each bandwidth is
    predicted in that order; a query's prediction depends only on its own
    window and on the set of queries, so the results are scattered back to
    the caller's order bit for bit. They differ from ``predict_from_kernel``
    by float summation order only: small calls and the truncated gaussian
    evaluate each window pair on the same (q - x)^2 / (h * h) values as the
    dense path; large boxcar and epanechnikov calls take their window sums
    from prefix moments (see the module docstring).

    ``folds`` holds the fold of each training point (in the order of ``xs``)
    and of each query, as small nonnegative integers. A query is predicted
    from the points outside its own fold, with the bits of a call on those
    points and that fold's queries alone. Without ``folds`` the call is the
    one fold that leaves nothing out, and every query keeps every point.
    """
    perm = np.argsort(queries)
    ascending = queries[perm]
    if folds is None:
        leave, regroup = _KEEP_ALL, slice(None)
    else:  # a fold's queries consecutive, still ascending
        fold, query_fold = folds
        regroup = np.argsort(query_fold[perm], kind="stable")
        perm = perm[regroup]
        leave = _LeaveOut.of(fold, query_fold[perm], rows)
    q = ascending[regroup]
    back = np.empty_like(perm)  # where each of the caller's queries went
    back[perm] = np.arange(len(perm))
    preds = []
    for h in bandwidths:
        # searched in ascending order, which binary search serves fastest
        lo, counts = _windows(xs, ascending, h)
        lo, counts = lo[regroup], counts[regroup]
        sums, weighted = _window_sums(xs, rows, q, kernel, h, lo, counts, leave)
        live = sums > 0.0  # (m,) shared by every row, or (k, m)
        out = np.divide(weighted, sums, out=np.empty_like(weighted), where=live)
        if not live.all():
            # a query's nearest point does not depend on its labels
            dead = np.flatnonzero(~live.reshape(-1, len(q)).all(axis=0))
            near = rows.take(_nearest_sorted_1d(xs, ranks, q[dead], leave.take(dead)),
                             axis=1)
            out[:, dead] = np.where(live[..., dead], out[:, dead], near)
        preds.append(out.take(back, axis=1))
    return preds


@dataclass(frozen=True)
class _LeaveOut:
    """The training points each query of a call leaves out: those of its own
    fold. Windows stay runs [lo, lo + counts) of positions in the sorted
    training sample; these methods count and list the points of a run that
    its query keeps. The keep-all form (``fold`` None), which a call without
    folds builds, leaves nothing out and answers with the runs as found."""

    fold: np.ndarray | None  # of each sorted training point
    query: np.ndarray | None  # of each query
    # per label row (a call's) or for one row (``row``), per fold: max |label|
    # over the points outside it
    y_max: np.ndarray | None
    keys: np.ndarray | None  # fold * (n + 1) + position, ascending
    first: np.ndarray | None  # per fold: where its points start in keys

    @classmethod
    def of(cls, fold, query, rows) -> _LeaveOut:
        n, size = len(fold), int(max(fold.max(), query.max())) + 1
        by_fold = np.argsort(fold, kind="stable")
        keys = fold[by_fold] * np.intp(n + 1) + by_fold
        y_max = np.zeros((len(rows), size))
        for top, labels in zip(y_max, rows):
            np.maximum.at(top, fold, np.abs(labels))
            ranked = np.argsort(top)
            top[ranked[-1]], top[ranked[:-1]] = top[ranked[-2]], top[ranked[-1]]
        return cls(fold, query, y_max, keys,
                   np.searchsorted(keys, np.arange(size) * (n + 1)))

    def take(self, idx) -> _LeaveOut:
        """The same training folds for the queries ``idx``."""
        if self.fold is None:
            return self
        return replace(self, query=self.query[idx])

    def row(self, r) -> _LeaveOut:
        """The same leave-out for label row ``r`` alone."""
        if self.fold is None:
            return self
        return replace(self, y_max=self.y_max[r])

    def runs(self, m) -> list[tuple[int, int]]:
        """(start, stop) of each run of consecutive queries of one fold, of
        the call's ``m`` queries."""
        if self.fold is None:
            return [(0, m)]
        ends = np.flatnonzero(self.query[1:] != self.query[:-1]) + 1
        bounds = [0, *ends.tolist(), m]
        return list(zip(bounds, bounds[1:]))

    def label_max(self, labels):
        """Each query's max |label| over the points it keeps."""
        if self.fold is None:
            return float(np.abs(labels).max())
        return self.y_max[self.query]

    def fold_pairs(self, counts):
        """For each query, the total of ``counts`` over its fold's queries."""
        if self.fold is None:
            return counts.sum()
        return np.bincount(self.query, weights=counts)[self.query]

    def kept_before(self, pos) -> np.ndarray:
        """How many points each query keeps below sorted position ``pos``."""
        key = self.query * np.intp(len(self.fold) + 1) + pos
        return pos - (np.searchsorted(self.keys, key) - self.first[self.query])

    def window(self, lo, counts) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of each query's run counted in its kept points:
        the run that a call on those points alone finds."""
        if self.fold is None:
            return lo, counts
        start = self.kept_before(lo)
        return start, self.kept_before(lo + counts) - start

    def kept_runs(self, lo, counts, at):
        """The points that query ``at``'s fold keeps across the runs (``lo``,
        ``counts``), as an index into the sorted sample, and the start and
        length of each run among them."""
        if self.fold is None:
            return slice(None), lo, counts
        start, stop = lo.min(), lo + counts
        kept = start + np.flatnonzero(self.fold[start:stop.max()] != self.query[at])
        start = np.searchsorted(kept, lo)
        return kept, start, np.searchsorted(kept, stop) - start

    def columns(self, lo, counts) -> tuple[np.ndarray, np.ndarray]:
        """Sorted positions of the kept points of each query's run, query by
        query, and how many each query keeps."""
        cols = _pair_columns(lo, counts)
        if self.fold is None:
            return cols, counts
        keep = self.fold[cols] != np.repeat(self.query, counts)
        return cols[keep], self.window(lo, counts)[1]

    def neighbours(self, pos, n) -> tuple[np.ndarray, np.ndarray]:
        """Sorted positions of each query's nearest kept points of ``n``, below
        and at or above position ``pos``; a side without one takes the other's."""
        if self.fold is None:
            right = np.minimum(pos, n - 1)
            return np.maximum(right - 1, 0), right
        # where each run of one fold's points starts, then n
        bounds = np.r_[0, np.flatnonzero(self.fold[1:] != self.fold[:-1]) + 1, n]
        above = np.minimum(pos, n - 1)
        run_end = bounds[np.searchsorted(bounds, above, side="right")]
        right = np.where(self.fold[above] == self.query, run_end, above)
        right = np.where(pos < n, right, n)
        below = np.maximum(pos - 1, 0)
        run_start = bounds[np.searchsorted(bounds, below, side="right") - 1]
        left = np.where(self.fold[below] == self.query, run_start - 1, below)
        left = np.where(pos > 0, left, -1)
        return np.where(left < 0, right, left), np.where(right == n, left, right)


_KEEP_ALL = _LeaveOut(None, None, None, None, None)  # no folds: nothing left out


def _window_sums(xs, rows, queries, kernel, h, lo, counts, leave):
    """Kernel sums and label-weighted sums over each query's window, the
    latter (k, m) for the label rows ``rows``. A boxcar or epanechnikov
    query whose fold holds at least _MOMENT_MIN_PAIRS kept window pairs
    takes them from prefix moments (``_moment_rows``), and its kernel sums
    are (k, m) too; any other query sums its window pair by pair, into
    kernel sums (m,) that every row shares."""
    # a fold keeps at most its queries' whole windows
    if kernel not in _POLYNOMIAL or not (
            leave.fold_pairs(counts) >= _MOMENT_MIN_PAIRS).any():
        return _pair_sums(xs, rows, queries, kernel, h, lo, counts, leave)
    kept = leave.window(lo, counts)
    moment = leave.fold_pairs(kept[1]) >= _MOMENT_MIN_PAIRS
    if moment.all():
        return _moment_rows(xs, rows, queries, kernel, h, lo, counts, leave, kept)
    sums, weighted = np.empty((2, len(rows), len(queries)))
    at = np.flatnonzero(moment)
    sums[:, at], weighted[:, at] = _moment_rows(
        xs, rows, queries[at], kernel, h, lo[at], counts[at], leave.take(at),
        (kept[0][at], kept[1][at]))
    at = np.flatnonzero(~moment)
    sums[:, at], weighted[:, at] = _pair_sums(xs, rows, queries[at], kernel, h, lo[at],
                                              counts[at], leave.take(at))
    return sums, weighted


def _moment_rows(xs, rows, queries, kernel, h, lo, counts, leave, kept):
    """``_moment_sums`` for each label row, as (k, m) kernel sums and
    weighted sums. Each row takes the whole moment path on its own: its
    labels decide which queries the moment error bound sends back to their
    pairs."""
    sums, weighted = zip(*(
        _moment_sums(xs, labels, queries, kernel, h, lo, counts, leave.row(r), kept)
        for r, labels in enumerate(rows)))
    return np.array(sums), np.array(weighted)


def _pair_sums(xs, rows, queries, kernel, h, lo, counts, leave):
    """Kernel sums (m,) and label-weighted sums (k, m), for the label rows
    ``rows``, over the kept points of each query's run of sorted ``xs``
    (start ``lo``, length ``counts``), evaluated pair by pair. The kernel
    values are computed once and weighted by each row in turn; the last
    row's products overwrite them in place, so a one-row call keeps no more
    temporaries alive than the kernel values alone (more would make the
    allocator return and fault in pages anew: twice the minor page faults
    of a ks_cv_offset op)."""
    m = len(queries)
    sums, weighted = np.zeros(m), np.zeros((len(rows), m))
    for block, shared in _blocks(counts, leave.runs(m)):
        block_lo, runs = lo[block], counts[block]
        if shared:  # whole runs of queries: their pairs filtered
            block_xs, block_rows = xs, rows
            cols, runs = leave.take(block).columns(block_lo, runs)
        else:  # part of one fold's run: its runs among its kept points
            kept, block_lo, runs = leave.kept_runs(block_lo, runs, block.start)
            block_xs, block_rows = xs[kept], rows[:, kept]
            cols = _pair_columns(block_lo, runs)
        sq = np.repeat(queries[block], runs)
        sq -= block_xs[cols]
        sq *= sq
        sq /= h * h
        raw = kernel.profile_sq(sq)
        # each query's pairs are a run of ``raw``; an empty run sums to 0
        filled = runs > 0
        starts = (np.cumsum(runs) - runs)[filled]
        sums[block][filled] = np.add.reduceat(raw, starts)
        last = len(block_rows) - 1
        for r, labels in enumerate(block_rows):
            if r < last:
                products = labels[cols] * raw
            else:  # no row reads the kernel values after the last one
                products = raw
                products *= labels[cols]
            weighted[r, block][filled] = np.add.reduceat(products, starts)
    return sums, weighted


def _moment_sums(xs, labels, queries, kernel, h, lo, counts, leave, kept):
    """The sums of ``_pair_sums`` for one label row ``labels`` and a
    polynomial kernel, from prefix moments over each query's inner window,
    pairs on the window's rim, and pairs again for every query whose moment
    error bound is too loose. ``kept`` holds each query's window as a start
    and length among the points it keeps (``_LeaveOut.window``)."""
    # inner window |q - x| < h (1 - 1e-7), shrunk by the rounding of q -+ h;
    # every point in it has s < 1 in any rounding, so K is the polynomial
    reach = h * (1.0 - 1e-7) - 1e-9 * (h + np.abs(queries))
    below, above = queries - reach, queries + reach
    # the padded window's ends, moved in past the few points that lie
    # between them and the inner window's: no search for most queries
    n = len(xs)
    lo_in, hi_in = lo.copy(), lo + counts
    shell = np.flatnonzero((lo_in < n) & (xs[np.minimum(lo_in, n - 1)] <= below))
    lo_in[shell] = np.searchsorted(xs, below[shell], side="right")
    shell = np.flatnonzero((hi_in > 0) & (xs[np.maximum(hi_in - 1, 0)] >= above))
    hi_in[shell] = np.searchsorted(xs, above[shell], side="left")
    hi_in = np.maximum(hi_in, lo_in)
    # the rim between the inner window and the padded one, pair by pair
    left, right = lo_in - lo, lo + counts - hi_in
    rim = np.flatnonzero(left + right)
    own = kept[0].copy(), kept[1].copy()  # the inner windows among kept points
    own[0][rim], own[1][rim] = leave.take(rim).window(lo_in[rim],
                                                      hi_in[rim] - lo_in[rim])
    sums, weighted, span, n_inner = _inner_moments(
        xs, labels, queries, kernel, h, lo_in, hi_in - lo_in, leave, own)
    rim = rim[kept[1][rim] > n_inner[rim]]  # the rims that hold kept points
    if len(rim):
        both = np.r_[rim, rim]
        rim_sums, rim_weighted = _pair_sums(
            xs, labels[None], queries[both], kernel, h, np.r_[lo[rim], hi_in[rim]],
            np.r_[left[rim], right[rim]], leave.take(both))
        np.add.at(sums, both, rim_sums)
        np.add.at(weighted, both, rim_weighted[0])
    # cumulative sums over ``span`` points carry an absolute error of about
    # eps * span in units of one kernel value; redo the queries where that
    # can move the prediction by more than 1e-13 of the label scale
    y_max = leave.label_max(labels)
    with np.errstate(divide="ignore", invalid="ignore"):
        pred = np.abs(weighted / sums)
        bound = 64 * np.finfo(float).eps * (span + 1) * (y_max + pred) / sums
    redo = np.flatnonzero((n_inner > 0) & ~(bound <= 1e-13 * np.maximum(1.0, y_max)))
    if len(redo):
        sums[redo], (weighted[redo],) = _pair_sums(
            xs, labels[None], queries[redo], kernel, h, lo[redo], counts[redo],
            leave.take(redo))
    return sums, weighted


def _inner_moments(xs, labels, queries, kernel, h, lo, counts, leave, own):
    """Kernel and label-weighted sums over the kept points of each query's
    run of sorted ``xs`` from prefix moments, with the length of the prefix
    each came from and the number of points each summed. ``own`` holds each
    run as a start and length among the points its query keeps.

    Ascending queries of one fold are grouped in bins of width 2h anchored
    at their centres a, so each bin is a run of consecutive queries; a bin's
    prefix sums of d, d^2, y, y d and y d^2, d = x - a, run over the union of
    its queries' windows. With q' = q - a and N the window's length, a
    query's epanechnikov sums are N - (S2 - 2 q' S1 + q'^2 N) / h^2 and
    Y0 - (Y2 - 2 q' Y1 + q'^2 Y0) / h^2 (boxcar: N and Y0). Anchoring keeps
    d and q' within 2h, so the expansion loses about a factor of 10 to
    cancellation. Prefix arrays are built a group of bins of one fold at a
    time, padded to the group's longest prefix (see ``_bin_blocks``).
    """
    m = len(queries)
    sums, weighted, span = np.zeros(m), np.zeros(m), np.zeros(m)
    own_lo, own_counts = own
    filled = np.flatnonzero(own_counts > 0)
    if not len(filled):
        return sums, weighted, span, own_counts
    q = queries[filled]
    key = np.floor(q / (2.0 * h))
    opens = np.r_[True, key[1:] != key[:-1]]
    leave = leave.take(filled)
    opens[[a for a, _ in leave.runs(len(filled))]] = True  # no bin spans two folds
    starts = np.flatnonzero(opens)
    bin_of = np.cumsum(opens) - 1
    anchor = (key[starts] + 0.5) * (2.0 * h)
    # the sorted positions each bin reads, then counted in its kept points
    bin_lo = np.minimum.reduceat(lo[filled], starts)
    bin_n = np.maximum.reduceat((lo + counts)[filled], starts) - bin_lo
    bin_leave = leave.take(starts)  # by each bin's first query
    first, lengths = bin_leave.window(bin_lo, bin_n)
    span[filled] = lengths[bin_of]
    lo, counts = own_lo[filled], own_counts[filled]
    epanechnikov = kernel is SmoothingKernel.EPANECHNIKOV
    hh = h * h
    row = np.empty_like(lengths)
    sizes = np.diff(np.r_[starts, len(filled)])  # queries per bin
    for bins in _bin_blocks(lengths, bin_leave.runs(len(starts))):
        row[bins] = np.arange(len(bins))
        at = _pair_columns(starts[bins], sizes[bins])  # the bins' queries
        width = lengths[bins].max()
        # the points the bins' fold keeps where they read, and where in
        # them each bin's first point lies
        kept, base, _ = bin_leave.kept_runs(bin_lo[bins], bin_n[bins], bins[0])
        cols = base[:, None] + np.arange(width)
        start = lo[at] - first[bin_of[at]]
        windowed = _run_moments(xs[kept], labels[kept], cols, anchor[bins],
                                row[bin_of[at]], start, start + counts[at],
                                epanechnikov)
        n = counts[at].astype(float)
        if epanechnikov:
            s1, s2, y1, y2, y0 = windowed
            qd = q[at] - anchor[bin_of[at]]
            sums[filled[at]] = n - (s2 - 2.0 * qd * s1 + qd * qd * n) / hh
            weighted[filled[at]] = y0 - (y2 - 2.0 * qd * y1 + qd * qd * y0) / hh
        else:
            sums[filled[at]], weighted[filled[at]] = n, windowed[0]
    return sums, weighted, span, own_counts


def _run_moments(xs, labels, cols, anchor, rows, start, stop, epanechnikov):
    """Moment sums of the points ``cols[row, start:stop]`` for each
    (row, start, stop): d, d^2, y d, y d^2 and y with d = x - anchor[row]
    (boxcar: y alone), as differences of prefix sums along each row."""
    # prefix[k, row, i]: moment k summed over the row's first i points;
    # past its bin's own length a row runs on over points no query reads
    prefix = np.empty((5 if epanechnikov else 1, len(cols), cols.shape[1] + 1))
    prefix[:, :, 0] = 0.0
    y = prefix[-1, :, 1:]
    np.take(labels, cols, out=y, mode="clip")
    if epanechnikov:
        d, d2, yd, yd2 = prefix[:4, :, 1:]
        np.take(xs, cols, out=d, mode="clip")
        d -= anchor[:, None]
        np.multiply(d, d, out=d2)
        np.multiply(y, d, out=yd)
        np.multiply(yd, d, out=yd2)
    np.cumsum(prefix, axis=2, out=prefix)
    return prefix[:, rows, stop] - prefix[:, rows, start]


def _bin_blocks(lengths, runs) -> list[np.ndarray]:
    """Groups of bins whose padded (bins x longest prefix) arrays hold about
    _BLOCK_PAIRS values each, at least one bin per group and never bins of
    two folds (``runs``: the (start, stop) of each fold's bins). Bins are
    grouped by prefix length, so little padding is wasted on clustered
    data."""
    groups = []
    for a, b in runs:
        order = a + np.argsort(lengths[a:b], kind="stable")
        ranked = lengths[order]
        start = 0
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


def _blocks(counts, runs) -> list[tuple[slice, bool]]:
    """Slices of consecutive queries holding about _BLOCK_PAIRS pairs each,
    of queries in ``runs`` (start, stop) of one fold each. A block holds
    whole runs whose pairs together fit in one run's share of _BLOCK_PAIRS
    (flagged True: their pairs are filtered by fold), or part of one run, at
    most half of _BLOCK_PAIRS: a block's temporaries live until the next
    block's replace them, so two blocks of a fold stay within the one block
    a call on that fold alone would make."""
    ends = np.cumsum(counts)
    share, limit = _BLOCK_PAIRS // len(runs), max(1, _BLOCK_PAIRS // 2)
    blocks, start, held = [], 0, 0  # the whole runs gathered: first query, pairs
    for a, b in runs:
        before = int(ends[a - 1]) if a else 0
        total = int(ends[b - 1]) - before if b > a else 0
        if total <= share:
            if held + total > share:
                blocks.append((slice(start, a), True))
                start, held = a, 0
            held += total
            continue
        if a > start:
            blocks.append((slice(start, a), True))
        cuts = np.searchsorted(ends, before + np.arange(limit, total, limit))
        bounds = [a, *cuts.tolist(), b]
        blocks += [(slice(c, d), False) for c, d in zip(bounds, bounds[1:]) if d > c]
        start, held = b, 0
    if len(counts) > start:
        blocks.append((slice(start, len(counts)), True))
    return blocks


def _pair_columns(lo, counts) -> np.ndarray:
    """Training positions of the flattened window pairs, query by query."""
    cols = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    cols += np.arange(len(cols))
    return cols


def _nearest_sorted_1d(xs, ranks, queries, leave) -> np.ndarray:
    """Positions in sorted ``xs`` of each query's nearest kept training point
    by rounded squared distance, ties going to the lowest rank: the point
    that ``argmin`` over the dense row picks."""
    left, right = leave.neighbours(np.searchsorted(xs, queries), len(xs))
    near = np.minimum(np.abs(queries - xs[left]), np.abs(queries - xs[right]))
    # every point whose rounded squared distance equals the nearest one's
    cols, counts = leave.columns(*_windows(xs, queries, near))
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
