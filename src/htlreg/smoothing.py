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
once, as a cell's equal target-stage fits need (``KSSpec.fit_samples``):
only-target's, the HTL methods' and the selection members' samples share
the target features and differ only in their labels. ``ks_predict`` is its
one-row call, on the same code, and reads the sample's labels in its cached
sort.
Whatever does not read the labels is computed once for all rows: the query
sort, the windows, the fold maps, the window pairs' columns and kernel
values, and the nearest-neighbour fallback's points; on the dense path the
kernel matrix, its row sums and the nearest points; on the moment path the
inner windows, the rims, the bins, the d and d^2 prefix rows and the kernel
sums. Per row come the label-weighted sums: the window pairs' kernel values
times the row's labels, each query's run reduced as a one-row call reduces
it; on the dense path one matrix-vector product per row, since a
matrix-matrix product sums in another order; on the moment path the y, y d
and y d^2 prefix rows and the rim's weighted sums; and the moment error
bound, which reads the labels, with its pair-path redo. So row i has the
bits of a call on row i alone.

``ks_cv_predict`` predicts every fold of a cross-validation of a 1-D sample
with a compact-support kernel at once, and raises ``ValueError`` for any
other sample or kernel, whose folds ``experiment.grid_search_cv`` fits one
by one. Each query is predicted from the training points outside its own
fold, and one pass per bandwidth serves all folds. The points each
fold keeps, in the sample's cached sort, are laid end to end in a position
map, one run per fold, for a group of consecutive folds at a time; a window
found by one search in the whole sorted sample is placed in its query's
run, and from then on every window is a run of map positions, read through
the map. Whatever a call on one fold's points computes once per call is
computed per fold: the moment-vs-pair choice from the fold's own pair
total, the max|y| of the moment error bound, and moment bins and prefix
groups that never hold two folds' queries. Every operation on a query's
values is then the one that call makes, in the same order, so each
prediction, and each CV score, has the bits of a per-fold fit. A call
without folds (``ks_predict``'s) has one run, the sorted sample itself, and
no map.

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

from .data import Dataset, as_queries, sq_distances


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
    return [pred[0] for pred in ks_predict_rows(train, None, X, kernel, bandwidths)]


def ks_predict_rows(
    train: Dataset, rows: np.ndarray | None, X, kernel: SmoothingKernel,
    bandwidths: Sequence[float],
) -> list[np.ndarray]:
    """Predictions at the queries ``X``, one (k, m) array per bandwidth, of
    the smoothers fit on ``train``'s features with each of the k label rows
    ``rows`` (in ``train``'s row order); row i has the bits of a fit on the
    sample relabeled with ``rows[i]``. ``rows`` None is the one row of the
    sample's own labels.

    1-D data with a compact-support kernel takes each query's window in
    ``train.sorted_1d``, whose cached labels serve ``rows`` None
    (``predict_sorted_1d``); anything else evaluates the dense kernel matrix
    from one (m, n) squared-distance matrix (``predict_from_kernel``).
    """
    X = as_queries(X, train.dim)
    if train.dim == 1 and kernel.compact:
        xs, labels, order = train.sorted_1d
        rows = labels[None] if rows is None else rows.take(order, axis=1)
        return predict_sorted_1d(xs, rows, order, X[:, 0], kernel, bandwidths)
    if rows is None:
        rows = train.labels[None]
    sq = sq_distances(X, train.features)
    return [predict_from_kernel(kernel.profile_sq(sq / (h * h)), sq, rows)
            for h in bandwidths]


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
# about half this many pairs (see ``_blocks``), so two blocks bound each
# float64 temporary at about 512 KB instead of one spanning every pair of a
# call. A fold group's position map holds at most about twice this many
# points (see ``_fold_maps``), so its memory does not grow with the folds.
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
    folds ``parts`` partition the rows, of a 1-D sample with a
    compact-support kernel.

    One ``predict_sorted_1d`` pass per bandwidth predicts each row from the
    points outside its part, with the bits that ``ks_predict`` fit on the
    sample less its part gives it. Any other sample or kernel raises
    ``ValueError``: its folds are fit one by one (``grid_search_cv``).
    """
    if data.dim != 1 or not kernel.compact:
        raise ValueError(f"no one-pass CV for {data.dim}-D data with {kernel.value}")
    fold = np.empty(data.n, dtype=np.min_scalar_type(len(parts) - 1))
    for f, rows in enumerate(parts):
        fold[rows] = f
    xs, labels, order = data.sorted_1d
    return [pred[0] for pred in predict_sorted_1d(
        xs, labels[None], order, data.features[:, 0], kernel, bandwidths,
        (fold[order], fold))]


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
    points and that fold's queries alone: the points each fold keeps are
    laid end to end in a position map, one run per fold, a group of folds
    at a time (``_fold_maps``), and each window is a run of map positions.
    Without ``folds`` the call is one run, the sample itself, and has no map.
    """
    perm = np.argsort(queries)
    if folds is None:
        groups = [(slice(None), _Map(None, None, len(xs)),
                   np.zeros(len(perm), np.intp), None)]
    else:  # a fold's queries consecutive, still ascending
        fold, query_fold = folds
        perm = perm[np.argsort(query_fold[perm], kind="stable")]
        groups = _fold_maps(fold, query_fold[perm], rows)
    queries = queries[perm]
    back = np.empty_like(perm)  # where each of the caller's queries went
    back[perm] = np.arange(len(perm))
    preds = [np.empty((len(rows), len(perm))) for _ in bandwidths]
    for part, fmap, run, y_max in groups:
        q = queries[part]
        for h, pred in zip(bandwidths, preds):
            lo, counts = fmap.window(run, *_windows(xs, q, h))
            sums, weighted = _window_sums(xs, rows, fmap, q, kernel, h, lo, counts,
                                          run, y_max)
            live = sums > 0.0  # (m,) shared by every row, or (k, m)
            out = np.divide(weighted, sums, out=pred[:, part], where=live)
            if not live.all():
                # a query's nearest point does not depend on its labels
                dead = np.flatnonzero(~live.reshape(-1, len(q)).all(axis=0))
                near = rows.take(_nearest_sorted_1d(xs, ranks, fmap, q[dead], run[dead]),
                                 axis=1)
                out[:, dead] = np.where(live[..., dead], out[:, dead], near)
    return [pred.take(back, axis=1) for pred in preds]


@dataclass(frozen=True)
class _Map:
    """Where each query's training points lie. A group of folds is a table
    of runs by sorted positions, whose entry (r, p) is kept unless point p
    is in run r's fold: ``at`` lists the sorted positions of the kept
    entries, row by row, so each fold's kept points make one ascending run
    and the runs lie end to end; ``own`` lists the flat indices r * n + p of
    the entries left out. A kept entry's map position is its flat index less
    the entries left out before it, so a window or search made in the whole
    sorted sample is placed in a query's run. A call without folds has no
    map (``at`` and ``own`` None): its one run is the sorted sample itself."""

    at: np.ndarray | None
    own: np.ndarray | None
    n: int

    def place(self, run, pos):
        """Map positions, in the runs ``run``, of sorted positions ``pos``:
        of each run's first point at or after them."""
        if self.own is None:
            return pos
        flat = run * self.n + pos
        return flat - np.searchsorted(self.own, flat)

    def window(self, run, lo, counts) -> tuple[np.ndarray, np.ndarray]:
        """Start and length, in each query's run, of its run [lo, lo + counts)
        of the sorted sample: the window a call on the run's points finds."""
        if self.own is None:
            return lo, counts
        start = self.place(run, lo)
        return start, self.place(run, lo + counts) - start

    def read(self, pos) -> np.ndarray:
        """The sorted positions at map positions ``pos``, the last one's past
        the map's end."""
        return pos if self.at is None else self.at.take(pos, mode="clip")


def _fold_maps(fold, query_fold, rows):
    """(queries, map, run, y_max) per group of consecutive folds, ``fold``
    of each sorted training point: the slice of the fold-sorted
    ``query_fold`` the group predicts, its ``_Map``, each of those queries'
    run (its fold less the group's first), and, per label row of ``rows``
    and per run, the max |label| over the points the run keeps. A group's
    map holds at most about 2 * _BLOCK_PAIRS points, or one fold's."""
    n, size = len(fold), int(max(fold.max(), query_fold.max())) + 1
    y_max = np.zeros((len(rows), size))
    for top, labels in zip(y_max, rows):  # each fold's own, then the others'
        np.maximum.at(top, fold, np.abs(labels))
        ranked = np.argsort(top)
        top[ranked[-1]], top[ranked[:-1]] = top[ranked[-2]], top[ranked[-1]]
    # where each fold's run would start in one map of every fold, then its end
    ends = np.r_[0, np.cumsum(n - np.bincount(fold, minlength=size))]
    first = np.searchsorted(query_fold, np.arange(size + 1))  # each fold's queries
    a = 0
    while a < size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + 2 * _BLOCK_PAIRS,
                                           side="right")) - 1)
        keep = fold != np.arange(a, b)[:, None]
        at, own = np.flatnonzero(keep), np.flatnonzero(~keep)
        del keep
        at %= n
        part = slice(first[a], first[b])
        yield part, _Map(at, own, n), query_fold[part].astype(np.intp) - a, y_max[:, a:b]
        a = b


def _window_sums(xs, rows, fmap, queries, kernel, h, lo, counts, run, y_max):
    """Kernel sums and label-weighted sums over each query's window, a run
    (start ``lo``, length ``counts``) of the map ``fmap``, the latter (k, m)
    for the label rows ``rows``. A boxcar or epanechnikov query whose run's
    queries hold at least _MOMENT_MIN_PAIRS window pairs takes them from
    prefix moments (``_moment_sums``), and its kernel sums are (k, m) too;
    any other query sums its window pair by pair, into kernel sums (m,)
    that every row shares."""
    moment = kernel in _POLYNOMIAL and (  # per run
        np.bincount(run, weights=counts) >= _MOMENT_MIN_PAIRS)
    if not np.any(moment):
        return _pair_sums(xs, rows, fmap, queries, kernel, h, lo, counts)
    if moment.all():
        return _moment_sums(xs, rows, fmap, queries, kernel, h, lo, counts, run, y_max)
    moment = moment[run]
    sums, weighted = np.empty((2, len(rows), len(queries)))
    at = np.flatnonzero(moment)
    sums[:, at], weighted[:, at] = _moment_sums(
        xs, rows, fmap, queries[at], kernel, h, lo[at], counts[at], run[at], y_max)
    at = np.flatnonzero(~moment)
    sums[:, at], weighted[:, at] = _pair_sums(xs, rows, fmap, queries[at], kernel, h,
                                              lo[at], counts[at])
    return sums, weighted


def _pair_sums(xs, rows, fmap, queries, kernel, h, lo, counts):
    """Kernel sums (m,) and label-weighted sums (k, m), for the label rows
    ``rows``, over each query's run of the map ``fmap`` (start ``lo``,
    length ``counts``), evaluated pair by pair. The kernel values are
    computed once and weighted by each row in turn, each row's products in
    its own gathered labels and the last row's in the kernel values, so a
    call of any number of rows keeps no more temporaries alive than a
    one-row call (more would make the allocator return and fault in pages
    anew: twice the minor page faults of a ks_cv_offset op)."""
    m = len(queries)
    sums, weighted = np.zeros(m), np.zeros((len(rows), m))
    last = len(rows) - 1
    for block in _blocks(counts):
        runs = counts[block]
        cols = fmap.read(_pair_columns(lo[block], runs))
        sq = np.repeat(queries[block], runs)
        sq -= xs[cols]
        sq *= sq
        sq /= h * h
        raw = kernel.profile_sq(sq)
        # each query's pairs are a run of ``raw``; an empty run sums to 0
        filled = runs > 0
        starts = (np.cumsum(runs) - runs)[filled]
        sums[block][filled] = np.add.reduceat(raw, starts)
        for r, labels in enumerate(rows):
            if r < last:
                products = labels[cols]
                products *= raw
            else:  # no row reads the kernel values after the last one
                products = raw
                products *= labels[cols]
            weighted[r, block][filled] = np.add.reduceat(products, starts)
            del products  # freed before the next row gathers its labels
    return sums, weighted


def _moment_sums(xs, rows, fmap, queries, kernel, h, lo, counts, run, y_max):
    """The sums of ``_pair_sums`` for the label rows ``rows`` and a
    polynomial kernel, as (k, m) kernel sums and weighted sums, from prefix
    moments over each query's inner window, pairs on the window's rim, and
    pairs again for every query whose moment error bound is too loose.
    ``y_max`` holds, per label row and per run, the max |label| the bound
    reads, or is None for one run of the whole sample. The windows, the rims
    and the kernel sums are computed once for all rows; the error bound reads
    a row's labels, so each row redoes its own queries, and its kernel sums
    are its own."""
    # inner window |q - x| < h (1 - 1e-7), shrunk by the rounding of q -+ h;
    # every point in it has s < 1 in any rounding, so K is the polynomial
    reach = h * (1.0 - 1e-7) - 1e-9 * (h + np.abs(queries))
    below, above = queries - reach, queries + reach
    # the padded window's ends, moved in past the few points that lie
    # between them and the inner window's: no search for most queries. A
    # point read past a run's end belongs to no window, and may only cost a
    # search that finds the same end.
    lo_in, hi_in = lo.copy(), lo + counts
    shell = np.flatnonzero(xs.take(fmap.read(lo_in), mode="clip") <= below)
    lo_in[shell] = fmap.place(run[shell], np.searchsorted(xs, below[shell], side="right"))
    shell = np.flatnonzero(xs.take(fmap.read(hi_in - 1), mode="clip") >= above)
    hi_in[shell] = fmap.place(run[shell], np.searchsorted(xs, above[shell], side="left"))
    hi_in = np.maximum(hi_in, lo_in)
    # the rim between the inner window and the padded one, pair by pair
    left, right = lo_in - lo, lo + counts - hi_in
    rim = np.flatnonzero(left + right)
    # a huge h overflows the moments quietly: the error bound below redoes them
    with np.errstate(over="ignore", invalid="ignore"):
        shared, weighted, span = _inner_moments(xs, rows, fmap, queries, kernel, h,
                                                lo_in, hi_in - lo_in, run)
    if len(rim):
        both = np.r_[rim, rim]
        rim_sums, rim_weighted = _pair_sums(
            xs, rows, fmap, queries[both], kernel, h, np.r_[lo[rim], hi_in[rim]],
            np.r_[left[rim], right[rim]])
        np.add.at(shared, both, rim_sums)
        for row_weighted, row_rim in zip(weighted, rim_weighted):
            np.add.at(row_weighted, both, row_rim)
    sums = np.empty_like(weighted)
    sums[:] = shared
    # cumulative sums over ``span`` points carry an absolute error of about
    # eps * span in units of one kernel value; redo the queries where that
    # can move the prediction by more than 1e-13 of the label scale
    for r, labels in enumerate(rows):
        top = np.abs(labels).max() if y_max is None else y_max[r, run]
        with np.errstate(divide="ignore", invalid="ignore"):
            pred = np.abs(weighted[r] / shared)
            bound = 64 * np.finfo(float).eps * (span + 1) * (top + pred) / shared
        redo = np.flatnonzero((hi_in > lo_in) & ~(bound <= 1e-13 * np.maximum(1.0, top)))
        if len(redo):
            sums[r, redo], (weighted[r, redo],) = _pair_sums(
                xs, labels[None], fmap, queries[redo], kernel, h, lo[redo], counts[redo])
    return sums, weighted


def _inner_moments(xs, rows, fmap, queries, kernel, h, lo, counts, run):
    """Kernel sums (m,) and label-weighted sums (k, m), for the label rows
    ``rows``, over each query's run of the map ``fmap`` (start ``lo``,
    length ``counts``) from prefix moments, with the length of the prefix
    each came from.

    Ascending queries of one run are grouped in bins of width 2h anchored
    at their centres a, so each bin is a run of consecutive queries; a bin's
    prefix sums of d, d^2 and, per row, y, y d and y d^2, d = x - a, run
    over the union of its queries' windows. With q' = q - a and N the
    window's length, a query's epanechnikov sums are
    N - (S2 - 2 q' S1 + q'^2 N) / h^2 and Y0 - (Y2 - 2 q' Y1 + q'^2 Y0) / h^2
    (boxcar: N and Y0). Anchoring keeps d and q' within 2h, so the
    expansion loses about a factor of 10 to cancellation. Prefix arrays are
    built a group of bins of one run at a time, padded to the group's
    longest prefix (see ``_bin_blocks``); the bins, the d and d^2 prefix
    rows and the kernel sums are shared by every label row.
    """
    m = len(queries)
    sums, weighted, span = np.zeros(m), np.zeros((len(rows), m)), np.zeros(m)
    filled = np.flatnonzero(counts > 0)
    if not len(filled):
        return sums, weighted, span
    q, run, lo, counts = queries[filled], run[filled], lo[filled], counts[filled]
    key = np.floor(q / (2.0 * h))
    # a bin opens at a new key and at a new run: no bin spans two folds
    opens = np.r_[True, (key[1:] != key[:-1]) | (run[1:] != run[:-1])]
    starts = np.flatnonzero(opens)
    bin_of = np.cumsum(opens) - 1
    anchor = (key[starts] + 0.5) * (2.0 * h)
    # the map positions each bin reads
    first = np.minimum.reduceat(lo, starts)
    lengths = np.maximum.reduceat(lo + counts, starts) - first
    span[filled] = lengths[bin_of]
    epanechnikov = kernel is SmoothingKernel.EPANECHNIKOV
    # a block's prefix array holds no more values than a one-row block's
    budget = _BLOCK_PAIRS * _prefix_height(1, epanechnikov) // _prefix_height(
        len(rows), epanechnikov)
    hh = h * h
    row = np.empty_like(lengths)
    sizes = np.diff(np.r_[starts, len(filled)])  # queries per bin
    for bins in _bin_blocks(lengths, run[starts], budget):
        row[bins] = np.arange(len(bins))
        at = _pair_columns(starts[bins], sizes[bins])  # the bins' queries
        cols = fmap.read(first[bins, None] + np.arange(lengths[bins].max()))
        start = lo[at] - first[bin_of[at]]
        windowed = _run_moments(xs, rows, cols, anchor[bins], row[bin_of[at]], start,
                                start + counts[at], epanechnikov)
        n = counts[at].astype(float)
        if epanechnikov:
            s1, s2 = windowed[:2]
            y1, y2, y0 = windowed[2:].reshape(3, len(rows), -1)
            qd = q[at] - anchor[bin_of[at]]
            sums[filled[at]] = n - (s2 - 2.0 * qd * s1 + qd * qd * n) / hh
            weighted[:, filled[at]] = y0 - (y2 - 2.0 * qd * y1 + qd * qd * y0) / hh
        else:
            sums[filled[at]], weighted[:, filled[at]] = n, windowed
    return sums, weighted, span


def _prefix_height(k, epanechnikov) -> int:
    """Moment rows of a prefix array for k label rows: d, d^2 and y d,
    y d^2, y per row for epanechnikov; y per row for boxcar."""
    return 2 + 3 * k if epanechnikov else k


def _run_moments(xs, rows, cols, anchor, bins, start, stop, epanechnikov):
    """Moment sums of the points ``cols[bin, start:stop]`` for each
    (bin, start, stop): d and d^2, then y d, y d^2 and y of each label row
    of ``rows`` (k, n), with d = x - anchor[bin] (boxcar: y of each row), as
    differences of prefix sums along each bin's row of ``cols``."""
    # prefix[j, bin, i]: moment j summed over the bin's first i points;
    # past its own length a bin's row runs on over points no query reads
    k = len(rows)
    prefix = np.empty((_prefix_height(k, epanechnikov), len(cols), cols.shape[1] + 1))
    prefix[:, :, 0] = 0.0
    y = prefix[-k:, :, 1:]
    np.take(rows, cols, axis=1, out=y, mode="clip")
    if epanechnikov:
        d, d2 = prefix[:2, :, 1:]
        yd, yd2 = prefix[2:2 + k, :, 1:], prefix[2 + k:2 + 2 * k, :, 1:]
        np.take(xs, cols, out=d, mode="clip")
        d -= anchor[:, None]
        np.multiply(d, d, out=d2)
        np.multiply(y, d, out=yd)
        np.multiply(yd, d, out=yd2)
    np.cumsum(prefix, axis=2, out=prefix)
    return prefix[:, bins, stop] - prefix[:, bins, start]


def _bin_blocks(lengths, run, budget) -> list[np.ndarray]:
    """Groups of bins whose padded (bins x longest prefix) arrays hold about
    ``budget`` values each, at least one bin per group and never bins of
    two runs (``run``: each bin's). Bins are grouped by prefix length, so
    little padding is wasted on clustered data; each bin's prefix is summed
    on its own and its padding never read, so the grouping changes no sum."""
    groups = []
    bounds = [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1).tolist(), len(run)]
    for a, b in zip(bounds, bounds[1:]):
        order = a + np.argsort(lengths[a:b], kind="stable")
        ranked = lengths[order]
        start = 0
        while start < len(order):
            padded = np.arange(1, len(order) - start + 1) * ranked[start:]
            stop = start + max(1, int(np.searchsorted(padded, budget, side="right")))
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
    """Slices of consecutive queries holding at most about _BLOCK_PAIRS // 2
    pairs each, or one query: a block's temporaries live until the next
    block's replace them, so two blocks stay within _BLOCK_PAIRS."""
    ends = np.cumsum(counts)
    limit = max(1, _BLOCK_PAIRS // 2)
    bounds = [0, len(counts)]
    if len(counts) and ends[-1] > limit:
        bounds[1:1] = np.searchsorted(ends, np.arange(limit, ends[-1], limit)).tolist()
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def _pair_columns(lo, counts) -> np.ndarray:
    """Training positions of the flattened window pairs, query by query."""
    cols = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    cols += np.arange(len(cols))
    return cols


def _nearest_sorted_1d(xs, ranks, fmap, queries, run) -> np.ndarray:
    """Sorted positions of each query's nearest point in its run of the map
    ``fmap`` by rounded squared distance, ties going to the lowest rank:
    the point that ``argmin`` over the dense row of a call on the run's
    points picks."""
    # the run's points below and at or above the query; a side without one
    # takes the other's
    right = np.minimum(fmap.place(run, np.searchsorted(xs, queries)),
                       fmap.place(run, len(xs)) - 1)
    left = np.maximum(right - 1, fmap.place(run, 0))
    near = np.minimum(np.abs(queries - xs[fmap.read(left)]),
                      np.abs(queries - xs[fmap.read(right)]))
    # every point whose rounded squared distance equals the nearest one's
    lo, counts = fmap.window(run, *_windows(xs, queries, near))
    cols = fmap.read(_pair_columns(lo, counts))
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
        sq = sq_distances(as_queries(X, self.train.dim), self.train.features)
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
