import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htlreg import smoothing
from htlreg.data import Dataset
from htlreg.pipeline import BandwidthRule
from htlreg.smoothing import (
    KSPredictor,
    SmoothingKernel,
    ks_predict,
    ks_predict_rows,
    predict_from_kernel,
)

COMPACT = [k for k in SmoothingKernel if k.compact]
# dyadic training points repeat and put query midpoints at exact ties
TRAIN_X = st.integers(0, 32).map(lambda k: k / 32) | st.floats(0.0, 1.0)
QUERY_X = st.integers(-16, 80).map(lambda k: k / 64) | st.floats(-1.0, 2.0)
BANDWIDTH = st.sampled_from([1 / 128, 1 / 64, 1 / 32, 0.1]) | st.floats(1e-3, 2.0)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def make(xs, ys):
    return Dataset(features=np.asarray(xs, float).reshape(-1, 1),
                   labels=np.asarray(ys, float))


def brute_force_ks(train_x, train_y, kernel, h, x):
    """Independent re-implementation of the weight formula, plain loops."""
    def K(u):
        if kernel is SmoothingKernel.BOXCAR:
            return 1.0 if u <= 1.0 else 0.0
        if kernel is SmoothingKernel.EPANECHNIKOV:
            return 1.0 - u * u if u <= 1.0 else 0.0
        if kernel is SmoothingKernel.TRUNCATED_GAUSSIAN:
            return math.exp(-0.5 * u * u) if u <= 1.0 else 0.0
        return math.exp(-0.5 * u * u)

    vals = [K(np.linalg.norm(np.atleast_1d(x) - np.atleast_1d(xi)) / h)
            for xi in train_x]
    total = sum(vals)
    if total == 0.0:
        dists = [np.linalg.norm(np.atleast_1d(x) - np.atleast_1d(xi))
                 for xi in train_x]
        return train_y[int(np.argmin(dists))]
    return sum(v * y for v, y in zip(vals, train_y)) / total


class TestWeights:
    def test_boxcar_one_point_in_window(self):
        p = KSPredictor(make([0.0, 1.0], [0.0, 0.0]), SmoothingKernel.BOXCAR, 0.5)
        np.testing.assert_allclose(p.weights([0.0]), [1.0, 0.0])

    def test_boxcar_symmetric(self):
        p = KSPredictor(make([0.0, 1.0], [0.0, 0.0]), SmoothingKernel.BOXCAR, 2.0)
        np.testing.assert_allclose(p.weights([0.5]), [0.5, 0.5])

    def test_epanechnikov_hand_values(self):
        # K(0.25)=0.9375, K(0.5)=0.75, K(2.25)=0 -> normalized [5/9, 4/9, 0]
        p = KSPredictor(make([0.0, 0.3, 1.0], [0, 0, 0]),
                   SmoothingKernel.EPANECHNIKOV, 0.4)
        np.testing.assert_allclose(
            p.weights([0.1]), [5.0 / 9.0, 4.0 / 9.0, 0.0], atol=1e-14
        )

    @pytest.mark.parametrize("kernel", list(SmoothingKernel))
    def test_convexity_property(self, kernel):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n, d = int(rng.integers(2, 15)), int(rng.integers(1, 4))
            ds = Dataset(features=rng.normal(size=(n, d)), labels=rng.normal(size=n))
            p = KSPredictor(ds, kernel, float(rng.uniform(0.05, 2.0)))
            W = p.weights_many(rng.normal(size=(6, d)))
            assert np.all(W >= 0) and np.all(W <= 1)
            np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        p = KSPredictor(make([0.0], [1.0]))
        with pytest.raises(ValueError, match="dim"):
            p.weights_many(np.zeros((2, 3)))


class TestPredict:
    def test_single_training_point(self):
        for kernel in SmoothingKernel:
            p = KSPredictor(make([0.2], [5.0]), kernel, 0.3)
            assert p.predict_one([0.9]) == 5.0

    def test_boxcar_mean(self):
        p = KSPredictor(make([0.0, 1.0], [1.0, 3.0]), SmoothingKernel.BOXCAR, 2.0)
        assert p.predict_one([0.5]) == pytest.approx(2.0, abs=1e-15)

    def test_matches_brute_force_on_squared_curve(self):
        xs = np.linspace(0, 1, 50)
        ys = xs**2
        p = KSPredictor(make(xs, ys), SmoothingKernel.EPANECHNIKOV, 0.1)
        for q in np.linspace(0, 1, 30):
            expected = brute_force_ks(xs, ys, SmoothingKernel.EPANECHNIKOV, 0.1, q)
            assert p.predict_one([q]) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_label_range(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.uniform(size=(40, 2)), labels=rng.normal(size=40))
        p = KSPredictor(ds, SmoothingKernel.TRUNCATED_GAUSSIAN, 0.2)
        preds = p.predict(rng.uniform(size=(80, 2)))
        assert preds.min() >= ds.labels.min() - 1e-12
        assert preds.max() <= ds.labels.max() + 1e-12

    def test_fallback_nearest_neighbor(self):
        p = KSPredictor(make([0.0, 10.0], [1.0, 2.0]), SmoothingKernel.BOXCAR, 0.5)
        # query far from both, nearer to the second point
        assert p.predict_one([7.0]) == 2.0

    def test_fallback_tie_lowest_index(self):
        p = KSPredictor(make([0.0, 4.0], [1.0, 2.0]), SmoothingKernel.BOXCAR, 0.5)
        assert p.predict_one([2.0]) == 1.0

    @pytest.mark.parametrize("kernel, dim", [
        (SmoothingKernel.EPANECHNIKOV, 1),  # window path
        (SmoothingKernel.GAUSSIAN, 1),
        (SmoothingKernel.BOXCAR, 2),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_query_rejected(self, kernel, dim, bad):
        ds = Dataset(features=np.zeros((2, dim)) + [[0.0], [1.0]],
                     labels=[1.0, 2.0])
        query = np.zeros((2, dim))
        query[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            KSPredictor(ds, kernel, 0.5).predict(query)


class TestWindowPath:
    """1-D compact-support prediction against the dense (m, n) path. The
    moment floor 0 sends every boxcar and epanechnikov call through the
    prefix-moment sums."""

    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @PROPERTY
    @given(xs=st.lists(TRAIN_X, min_size=1, max_size=25),
           queries=st.lists(QUERY_X, min_size=1, max_size=20),
           kernel=st.sampled_from(COMPACT), h=BANDWIDTH,
           rnd=st.randoms(use_true_random=False))
    @example(xs=[0.25, 0.5, 0.25, 0.75, 0.5], queries=[0.375, 0.625, 2.0, -1.0, 0.25],
             kernel=SmoothingKernel.EPANECHNIKOV, h=1 / 64, rnd=None)
    # distinct points whose rounded squared distances to the query are equal
    @example(xs=[0.0, 1e-300], queries=[1 / 64], kernel=SmoothingKernel.BOXCAR,
             h=1 / 128, rnd=None)
    def test_matches_dense(self, moment_floor, xs, queries, kernel, h, rnd):
        labels = list(range(len(xs)))  # distinct, so a wrong tie-break shows
        if rnd is not None:
            rnd.shuffle(labels)
        p = KSPredictor(make(xs, labels), kernel, h)
        Q = np.asarray(queries).reshape(-1, 1)
        [dense] = predict_from_kernel(*p._raw(Q), p.train.labels[None])
        with mock.patch.object(smoothing, "_MOMENT_MIN_PAIRS", moment_floor):
            got = p.predict(Q)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @pytest.mark.parametrize("kernel", COMPACT)
    @pytest.mark.parametrize("block_pairs", [1, 7, 1 << 16])
    def test_blocks_match_dense(self, monkeypatch, block_pairs, kernel,
                                moment_floor):
        monkeypatch.setattr(smoothing, "_BLOCK_PAIRS", block_pairs)
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", moment_floor)
        rng = np.random.default_rng(11)
        xs = rng.integers(0, 40, size=60) / 40
        p = KSPredictor(make(xs, rng.normal(size=60)), kernel, 0.06)
        # queries past either end have empty windows and take the nearest label
        Q = np.r_[rng.uniform(-0.5, 1.5, size=50), np.arange(81) / 80]
        Q = Q.reshape(-1, 1)
        [dense] = predict_from_kernel(*p._raw(Q), p.train.labels[None])
        np.testing.assert_allclose(p.predict(Q), dense, rtol=0, atol=1e-12)
        # a call without folds is the one fold that leaves nothing out
        xs, labels, order = p.train.sorted_1d
        args = xs, labels[None], order, Q[:, 0], kernel, [0.06]
        folds = np.ones(p.train.n, np.uint8), np.zeros(len(Q), np.uint8)
        [whole] = smoothing.predict_sorted_1d(*args)
        [one_fold] = smoothing.predict_sorted_1d(*args, folds)
        assert whole.tobytes() == one_fold.tobytes()

    def test_a_bandwidth_near_the_float_range_warns_of_nothing(self, monkeypatch):
        # h = 1e300 overflows the moments' squares; every query is redone
        # pair by pair, with the bits of a pair-path call
        rng = np.random.default_rng(2)
        train = make(rng.uniform(size=10_000), rng.normal(size=10_000))
        Q = rng.uniform(size=(2000, 1))
        kernel = SmoothingKernel.EPANECHNIKOV
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [moment] = ks_predict(train, Q, kernel, (1e300,))
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", train.n * len(Q) + 1)
        [paired] = ks_predict(train, Q, kernel, (1e300,))
        assert moment.tobytes() == paired.tobytes()

    @pytest.mark.parametrize("kernel", [SmoothingKernel.EPANECHNIKOV,
                                        SmoothingKernel.BOXCAR])
    def test_moment_path_edges(self, monkeypatch, kernel):
        rng = np.random.default_rng(1)
        h = 1 / 16
        # dyadic points repeat, and a query on their grid has points at
        # exactly +-h: boxcar counts them, epanechnikov gives them 0
        x = np.r_[rng.integers(0, 256, 1500) / 256, rng.uniform(0, 1, 500)]
        p = KSPredictor(make(x, 10.0 + rng.normal(size=len(x))), kernel, h)
        grid = rng.integers(0, 256, 300) / 256
        u = rng.uniform(0.5, 1.0, size=(2, 50)) * h
        below, above = x.min() - u[0], x.max() + u[1]
        Q = np.r_[grid, below, above].reshape(-1, 1)
        paired = []  # queries whose whole window was summed pair by pair
        pair_sums = smoothing._pair_sums

        def spy(xs, labels, fmap, queries, kernel, h, lo, counts):
            whole = counts == smoothing._windows(xs, queries, h)[1]
            paired.extend(queries[whole & (counts > 0)])
            return pair_sums(xs, labels, fmap, queries, kernel, h, lo, counts)

        monkeypatch.setattr(smoothing, "_pair_sums", spy)
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", 0)
        [dense] = predict_from_kernel(*p._raw(Q), p.train.labels[None])
        np.testing.assert_allclose(p.predict(Q), dense, rtol=0, atol=1e-12)
        # sparse kernel mass beyond the data's ends fails the moment error
        # bound, and those queries are re-predicted on the pair path
        assert np.isin(below, paired).any() and np.isin(above, paired).any()
        assert not np.isin(grid, paired).all()  # the moments did serve

    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @PROPERTY
    @given(xs=st.lists(TRAIN_X, min_size=1, max_size=25),
           queries=st.lists(QUERY_X, min_size=1, max_size=20),
           kernel=st.sampled_from(COMPACT),
           bandwidths=st.lists(BANDWIDTH, min_size=1, max_size=4),
           rnd=st.randoms(use_true_random=False))
    def test_query_order_does_not_change_a_bit(self, moment_floor, xs, queries,
                                               kernel, bandwidths, rnd):
        # the property that lets a call sort its queries: each prediction
        # depends on its own query and on the set of queries, not their order
        queries = queries + rnd.choices(queries, k=rnd.randrange(len(queries) + 1))
        train = make(xs, [rnd.uniform(-1.0, 1.0) for _ in xs])
        Q = np.asarray(queries).reshape(-1, 1)
        perm = np.asarray(rnd.sample(range(len(Q)), len(Q)))
        with mock.patch.object(smoothing, "_MOMENT_MIN_PAIRS", moment_floor):
            whole = ks_predict(train, Q, kernel, bandwidths)
            permuted = ks_predict(train, Q[perm], kernel, bandwidths)
        assert len(permuted) == len(bandwidths)
        for got, want in zip(permuted, whole):
            assert np.array_equal(got, want[perm])

    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @pytest.mark.parametrize("kernel", COMPACT)
    def test_duplicate_queries_in_any_order_give_the_same_bits(
            self, monkeypatch, kernel, moment_floor):
        # enough repeated queries for numpy's default sort to reorder equal
        # ones, with signed zeros and queries past both ends of the data
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", moment_floor)
        rng = np.random.default_rng(12)
        xs = np.r_[rng.integers(0, 128, 1500) / 128, rng.uniform(0, 1, 1500)]
        train = make(xs, rng.normal(size=len(xs)))
        Q = rng.integers(-16, 80, size=3000) / 64
        Q[rng.choice(len(Q), size=100, replace=False)] = -0.0
        Q = Q.reshape(-1, 1)
        perm = rng.permutation(len(Q))
        bandwidths = [1 / 64, 0.05]
        whole = ks_predict(train, Q, kernel, bandwidths)
        for got, want in zip(ks_predict(train, Q[perm], kernel, bandwidths), whole):
            assert got.tobytes() == want[perm].tobytes()

    @pytest.mark.parametrize("block_pairs", [smoothing._BLOCK_PAIRS, 600])
    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @pytest.mark.parametrize("kernel", COMPACT)
    def test_cv_predict_gives_each_row_its_fold_fit_bit_for_bit(
            self, monkeypatch, kernel, moment_floor, block_pairs):
        # one label far above the rest: its own fold's queries, which leave
        # it out, bound their moment error by a smaller max|y| than the
        # sample's; repeated dyadic points fall on both sides of fold lines.
        # At 600 block pairs each fold's map is a group of its own.
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", moment_floor)
        monkeypatch.setattr(smoothing, "_BLOCK_PAIRS", block_pairs)
        groups = []
        fold_maps = smoothing._fold_maps

        def counted(*args):
            for group in fold_maps(*args):
                groups.append(group)
                yield group

        monkeypatch.setattr(smoothing, "_fold_maps", counted)
        rng = np.random.default_rng(13)
        xs = np.r_[rng.integers(0, 64, 600) / 64, rng.uniform(0, 1, 600)]
        ys = rng.normal(size=len(xs))
        ys[0] = 1e3
        parts = np.array_split(rng.permutation(len(xs)), 7)
        bandwidths = [1 / 128, 0.05, 0.2]
        got = smoothing.ks_cv_predict(make(xs, ys), parts, kernel, bandwidths)
        assert len(groups) == (len(parts) if block_pairs == 600 else 1)
        for rows in parts:
            fits = ks_predict(make(np.delete(xs, rows), np.delete(ys, rows)),
                              xs[rows].reshape(-1, 1), kernel, bandwidths)
            for pred, fit in zip(got, fits):
                assert pred[rows].tobytes() == fit.tobytes()

    @pytest.mark.parametrize("dim, kernel", [(2, SmoothingKernel.EPANECHNIKOV),
                                             (1, SmoothingKernel.GAUSSIAN)])
    def test_cv_predict_takes_only_1d_compact_kernel_samples(self, dim, kernel):
        # a d > 1 sample would otherwise be predicted from column 0 alone
        rng = np.random.default_rng(15)
        data = Dataset(features=rng.uniform(size=(20, dim)), labels=rng.normal(size=20))
        with pytest.raises(ValueError, match=f"no one-pass CV for {dim}-D data"):
            smoothing.ks_cv_predict(data, np.array_split(np.arange(20), 4), kernel, [0.2])

    def test_a_block_of_several_folds_keeps_each_querys_own_points(self):
        # queries of folds 2, 5, 2, as the left and right rims of two folds'
        # queries come, share a block: each sums the points of its fold's run
        rng = np.random.default_rng(14)
        xs, ys = np.sort(rng.uniform(0, 1, 200)), rng.normal(size=200)
        fold = rng.integers(0, 6, 200).astype(np.uint8)
        queries, query_fold = np.array([0.3, 0.6, 0.31]), np.array([2, 5, 2], np.uint8)
        kernel, h = SmoothingKernel.EPANECHNIKOV, 0.05
        [(_, fmap, _, _)] = smoothing._fold_maps(fold, np.arange(6), ys[None])
        run = query_fold.astype(np.intp)  # one group: each fold's run is its own
        lo, counts = fmap.window(run, *smoothing._windows(xs, queries, h))
        assert len(smoothing._blocks(counts)) == 1
        got = smoothing._pair_sums(xs, ys[None], fmap, queries, kernel, h, lo, counts)
        for i, f in enumerate(query_fold):
            kept = fold != f
            q = queries[i:i + 1]
            want = smoothing._pair_sums(xs[kept], ys[None, kept], smoothing._Map(None, None, 0),
                                        q, kernel, h, *smoothing._windows(xs[kept], q, h))
            assert got[0][i] == want[0][0] and got[1][0, i] == want[1][0, 0]

    @pytest.mark.parametrize("block_pairs", [smoothing._BLOCK_PAIRS, 600])
    def test_each_folds_run_is_its_fold_samples_sort(self, monkeypatch, block_pairs):
        # repeated values, 0.0 and -0.0 among them: a fold's run, read
        # through the map, is the stable sort of the fold's own sample
        monkeypatch.setattr(smoothing, "_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(15)
        xs = rng.integers(-8, 9, 1000) / 8
        zeros = np.flatnonzero(xs == 0)
        xs[zeros[::2]] = -0.0
        data = make(xs, rng.normal(size=len(xs)))
        parts = np.array_split(rng.permutation(len(xs)), 5)
        fold = np.empty(len(xs), np.uint8)
        for f, rows in enumerate(parts):
            fold[rows] = f
        sorted_x, labels, order = data.sorted_1d
        runs = []
        for _, fmap, _, y_max in smoothing._fold_maps(fold[order], np.arange(5),
                                                      labels[None]):
            run = np.arange(y_max.shape[1])
            runs += [fmap.at[start:stop] for start, stop in
                     zip(fmap.place(run, 0), fmap.place(run, len(xs)))]
        assert len(runs) == len(parts)
        for at, rows in zip(runs, parts):
            fold_x, fold_y, fold_order = data.without(rows).sorted_1d
            assert sorted_x[at].tobytes() == fold_x.tobytes()
            assert labels[at].tobytes() == fold_y.tobytes()
            # the fold sample's rows are the others, in row order
            kept = np.delete(np.arange(len(xs)), rows)
            assert np.array_equal(np.searchsorted(kept, order[at]), fold_order)

    @PROPERTY
    @given(st.integers(1, 2), st.integers(1, 20), st.sampled_from(list(SmoothingKernel)),
           BANDWIDTH, st.data())
    def test_predictions_stay_inside_label_range(self, d, n, kernel, h, data):
        coords = st.floats(-1.0, 2.0)
        X = np.array(data.draw(st.lists(coords, min_size=n * d, max_size=n * d)))
        y = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=n,
                                        max_size=n)))
        m = data.draw(st.integers(1, 10))
        Q = np.array(data.draw(st.lists(coords, min_size=m * d, max_size=m * d)))
        preds = KSPredictor(Dataset(features=X.reshape(n, d), labels=y), kernel,
                       h).predict(Q.reshape(-1, d))
        tol = 1e-12 * max(1.0, np.abs(y).max())
        assert np.all(preds >= y.min() - tol) and np.all(preds <= y.max() + tol)


def assert_rows_are_their_own_fits(train, rows, Q, kernel, bandwidths):
    """Row i of each ``ks_predict_rows`` result has the bits of
    ``ks_predict`` on ``train`` relabeled with ``rows[i]``."""
    got = ks_predict_rows(train, rows, Q, kernel, bandwidths)
    assert len(got) == len(bandwidths)
    for i, labels in enumerate(rows):
        fits = ks_predict(Dataset(features=train.features, labels=labels), Q,
                          kernel, bandwidths)
        for pred, fit in zip(got, fits):
            assert pred.shape == (len(rows), len(Q))
            assert pred[i].tobytes() == fit.tobytes()


def label_rows(rng, n):
    """Label rows that differ in scale and shape: the moment error bound
    reads max|y| and the prediction, so its redo set differs row by row."""
    ys = rng.normal(size=n)
    spike = ys.copy()
    spike[rng.integers(n)] = 1e6
    return np.array([ys, 1e-9 * ys, spike, np.full(n, 3.0), -ys])


class TestLabelRows:
    """One call predicts k label rows over the same features; each row has
    the bits of a call on that row alone."""

    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @PROPERTY
    @given(xs=st.lists(TRAIN_X, min_size=1, max_size=25),
           queries=st.lists(QUERY_X, min_size=1, max_size=20),
           kernel=st.sampled_from(list(SmoothingKernel)),
           bandwidths=st.lists(BANDWIDTH, min_size=1, max_size=3),
           k=st.integers(1, 4), data=st.data())
    def test_each_row_is_its_own_fit(self, moment_floor, xs, queries, kernel,
                                     bandwidths, k, data):
        labels = st.lists(st.floats(-1e3, 1e3), min_size=len(xs), max_size=len(xs))
        rows = np.array([data.draw(labels) for _ in range(k)])
        Q = np.asarray(queries).reshape(-1, 1)
        with mock.patch.object(smoothing, "_MOMENT_MIN_PAIRS", moment_floor):
            assert_rows_are_their_own_fits(make(xs, rows[0]), rows, Q, kernel,
                                           bandwidths)

    @pytest.mark.parametrize("kernel", COMPACT)
    def test_pair_and_moment_paths(self, kernel):
        # repeated dyadic points, duplicate and signed-zero queries, and
        # queries past both ends: sparse kernel mass there, none beyond
        rng = np.random.default_rng(21)
        xs = np.r_[rng.integers(0, 128, 1000) / 128, rng.uniform(0, 1, 1000)]
        Q = np.r_[rng.integers(-16, 80, 600) / 64, np.full(20, 0.5),
                  np.zeros(10), np.full(10, -0.0), rng.uniform(-0.5, 1.5, 60)]
        Q = Q.reshape(-1, 1)
        train = make(xs, np.zeros(len(xs)))
        pairs = {h: int(smoothing._windows(np.sort(xs), np.sort(Q[:, 0]), h)[1].sum())
                 for h in (1 / 512, 0.1)}
        assert pairs[1 / 512] < smoothing._MOMENT_MIN_PAIRS < pairs[0.1]
        assert_rows_are_their_own_fits(train, label_rows(rng, len(xs)), Q, kernel,
                                       [1 / 512, 0.1])

    @pytest.mark.parametrize("kernel", list(SmoothingKernel))
    def test_dense_path(self, kernel):
        # 2-D features (and the gaussian in 1-D) take the dense kernel
        # matrix; far queries have no compact-kernel mass
        rng = np.random.default_rng(22)
        for d in (1, 2) if kernel is SmoothingKernel.GAUSSIAN else (2,):
            X = rng.integers(0, 16, size=(300, d)) / 16
            Q = np.r_[rng.uniform(-0.5, 1.5, size=(40, d)), X[:10], -X[:5]]
            train = Dataset(features=X, labels=np.zeros(len(X)))
            assert_rows_are_their_own_fits(train, label_rows(rng, len(X)), Q,
                                           kernel, [0.05, 0.3])

    @pytest.mark.parametrize("moment_floor", [smoothing._MOMENT_MIN_PAIRS, 0])
    @pytest.mark.parametrize("kernel", COMPACT)
    def test_rows_with_folds(self, monkeypatch, kernel, moment_floor):
        # each row's fold predictions are the one-row call's, bit for bit
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", moment_floor)
        rng = np.random.default_rng(23)
        xs = np.sort(np.r_[rng.integers(0, 64, 300) / 64, rng.uniform(0, 1, 300)])
        rows = label_rows(rng, len(xs))
        fold = rng.integers(0, 5, len(xs)).astype(np.uint8)
        folds = fold, fold[rng.permutation(len(xs))]
        args = np.arange(len(xs)), xs, kernel, [1 / 128, 0.05, 0.2]
        got = smoothing.predict_sorted_1d(xs, rows, *args, folds)
        for i, labels in enumerate(rows):
            alone = smoothing.predict_sorted_1d(xs, labels[None], *args, folds)
            for pred, want in zip(got, alone):
                assert pred[i].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("kernel", COMPACT[:2])
    def test_a_moment_block_serves_every_row(self, monkeypatch, kernel):
        # selection with K = 4 predicts 9 candidate rows over 100 target
        # points at 50 validation points; blocks small enough to split
        monkeypatch.setattr(smoothing, "_MOMENT_MIN_PAIRS", 0)
        monkeypatch.setattr(smoothing, "_BLOCK_PAIRS", 600)
        rng = np.random.default_rng(24)
        train = make(rng.uniform(0, 1, 100), np.zeros(100))
        rows = np.r_[label_rows(rng, 100), rng.normal(size=(4, 100))]
        Q = rng.uniform(-0.1, 1.1, (50, 1))
        epanechnikov = kernel is SmoothingKernel.EPANECHNIKOV
        blocks, prefixes = [], []
        bin_blocks, run_moments = smoothing._bin_blocks, smoothing._run_moments

        def block_spy(*args):
            blocks.append(bin_blocks(*args))
            return blocks[-1]

        def moment_spy(xs, labels, cols, *args):
            prefixes.append((len(labels), *cols.shape))
            return run_moments(xs, labels, cols, *args)

        monkeypatch.setattr(smoothing, "_bin_blocks", block_spy)
        monkeypatch.setattr(smoothing, "_run_moments", moment_spy)
        ks_predict_rows(train, rows, Q, kernel, [0.1])
        # one prefix array per block, holding every row: d and d^2 once
        assert len(prefixes) == sum(map(len, blocks)) > len(blocks)
        bound = smoothing._prefix_height(1, epanechnikov) * smoothing._BLOCK_PAIRS
        for k, bins, width in prefixes:
            assert k == 9
            assert smoothing._prefix_height(k, epanechnikov) * bins * width <= bound \
                or bins == 1
        assert any(bins > 1 for _, bins, _ in prefixes)
        assert_rows_are_their_own_fits(train, rows, Q, kernel, [0.1])


class TestStability:
    def test_label_perturbation_bound_exact(self):
        # |f_hat(x) - f_tilde(x)| <= sum_i w_i(x) |dY_i| over 100 random cases
        rng = np.random.default_rng(7)
        for case in range(100):
            n = int(rng.integers(2, 20))
            xs = rng.uniform(size=(n, 1))
            ys = rng.normal(size=n)
            delta = rng.normal(size=n)
            kernel = list(SmoothingKernel)[case % 4]
            h = float(rng.uniform(0.05, 1.0))
            base = Dataset(features=xs, labels=ys)
            pert = Dataset(features=xs, labels=ys + delta)
            p0, p1 = KSPredictor(base, kernel, h), KSPredictor(pert, kernel, h)
            queries = rng.uniform(size=(20, 1))
            gap = np.abs(p0.predict(queries) - p1.predict(queries))
            bound = p0.weights_many(queries) @ np.abs(delta)
            assert np.all(gap <= bound + 1e-12)


class TestBandwidthRule:
    @staticmethod
    def h(rule, n, d=1):
        return rule.value(Dataset(features=np.zeros((n, d)), labels=np.zeros(n)))

    def test_n_one(self):
        assert self.h(BandwidthRule(alpha=1.0), 1) == 1.0

    def test_thousand(self):
        assert self.h(BandwidthRule(alpha=1.0), 1000) == pytest.approx(0.1, rel=1e-12)

    def test_million_d2_alpha_half(self):
        assert self.h(BandwidthRule(alpha=0.5), 10**6, 2) == pytest.approx(
            0.01, rel=1e-12)

    def test_constant_scales(self):
        assert self.h(BandwidthRule(alpha=1.0, c=2.0), 1000) == pytest.approx(
            0.2, rel=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(ValueError, match="alpha"):
            BandwidthRule(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            BandwidthRule(alpha=1.5)

    def test_constant_positive(self):
        with pytest.raises(ValueError, match="c must be > 0"):
            BandwidthRule(c=0)

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            KSPredictor(train=make([0.0], [0.0]), bandwidth=0.0)
