import numpy as np
import pytest

from htlreg.data import Dataset, DomainTag, uniform_sampler
from htlreg.evaluation import (
    DegenerateLabelsError,
    StabilityBoundViolation,
    default_query_grid,
    excess_risk_mc,
    mc_sample,
    metric_report,
    rate_slope,
    stability_probe,
)
from htlreg.ridge import krr_fit, krr_stability_coeffs, rbf_kernel
from htlreg.smoothing import KSPredictor, SmoothingKernel


class Exact:
    """Predicts a fixed function of x."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, X):
        return self.fn(np.atleast_2d(np.asarray(X, float)))


def data_from(xs, ys):
    return Dataset(features=np.asarray(xs, float).reshape(-1, 1),
                   labels=np.asarray(ys, float))


class TestMse:
    def test_perfect_predictor(self):
        ds = data_from([0.1, 0.4, 0.9], [1.0, 2.0, 3.0])
        perfect = Exact(lambda X: np.array([1.0, 2.0, 3.0])[: len(X)])
        assert metric_report(perfect, ds).mse == 0.0

    def test_constant_zero(self):
        ds = data_from([0.0, 1.0], [1.0, -1.0])
        assert metric_report(Exact(lambda X: np.zeros(len(X))), ds).mse == 1.0

    def test_matches_hand_sum(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(size=12)
        ys = rng.normal(size=12)
        preds = rng.normal(size=12)
        ds = data_from(xs, ys)
        fixed = Exact(lambda X: preds[: len(X)])
        hand = sum((y - p) ** 2 for y, p in zip(ys, preds)) / 12
        assert metric_report(fixed, ds).mse == pytest.approx(hand, abs=1e-12)


class TestRSquared:
    def test_perfect_is_one(self):
        ds = data_from([0.1, 0.4, 0.9], [1.0, 2.0, 3.0])
        assert metric_report(Exact(lambda X: np.array([1.0, 2.0, 3.0])[: len(X)]),
                             ds).r_squared == 1.0

    def test_mean_predictor_is_zero(self):
        ds = data_from([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert metric_report(Exact(lambda X: np.full(len(X), 2.0)), ds).r_squared == 0.0

    def test_worse_than_mean_is_negative(self):
        # labels (0, 1, 2), predictions (2, 2, 2): ss_res = 5, ss_tot = 2
        ds = data_from([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])
        value = metric_report(Exact(lambda X: np.full(len(X), 2.0)), ds).r_squared
        assert value == pytest.approx(1.0 - 5.0 / 2.0)
        assert value < 0

    def test_degenerate_labels(self):
        ds = data_from([0.0, 1.0], [3.0, 3.0])
        with pytest.raises(DegenerateLabelsError):
            metric_report(Exact(lambda X: np.zeros(len(X))), ds)

    def test_metric_report_identities(self):
        rng = np.random.default_rng(1)
        ds = data_from(rng.uniform(size=9), rng.normal(size=9))
        pred = Exact(lambda X: np.zeros(len(X)))
        report = metric_report(pred, ds)
        ss_res = sum(y**2 for y in ds.labels)  # the predictions are all 0
        ss_tot = sum((y - ds.labels.mean()) ** 2 for y in ds.labels)
        assert report.mse == pytest.approx(ss_res / 9, abs=1e-15)
        assert report.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-15)


class TestExcessRisk:
    def test_zero_for_truth(self):
        truth = lambda X: X[:, 0] ** 2
        risk = excess_risk_mc(Exact(truth),
                              mc_sample(truth, uniform_sampler(1), 500, seed=0))
        assert risk == 0.0

    def test_constant_offset_is_one(self):
        truth = lambda X: X[:, 0]
        pred = Exact(lambda X: X[:, 0] + 1.0)
        risk = excess_risk_mc(pred, mc_sample(truth, uniform_sampler(1), 1000, seed=0))
        assert risk == pytest.approx(1.0, abs=1e-12)

    def test_linear_gap_expectation(self):
        # pred - truth = X on uniform[0,1]: E[X^2] = 1/3
        truth = lambda X: np.zeros(len(X))
        pred = Exact(lambda X: X[:, 0])
        n = 100_000
        risk = excess_risk_mc(pred, mc_sample(truth, uniform_sampler(1), n, seed=3))
        se = np.sqrt(np.var(np.random.default_rng(3).uniform(size=n) ** 2) / n)
        assert abs(risk - 1.0 / 3.0) < 3 * se

    def test_mc_sample_needs_a_point(self):
        with pytest.raises(ValueError, match="n_mc must be >= 1"):
            mc_sample(lambda X: X[:, 0], uniform_sampler(1), 0, seed=0)

    def test_deterministic(self):
        truth = lambda X: X[:, 0]
        pred = Exact(lambda X: X[:, 0] * 0.5)
        a = excess_risk_mc(pred, mc_sample(truth, uniform_sampler(1), 100, seed=7))
        b = excess_risk_mc(pred, mc_sample(truth, uniform_sampler(1), 100, seed=7))
        assert a == b


class TestRateSlope:
    def test_exact_inverse_law(self):
        points = [(n, 3.0 / n) for n in (10, 100, 1000)]
        assert rate_slope(points).slope == pytest.approx(-1.0, abs=1e-10)

    def test_exact_two_thirds_law(self):
        points = [(n, 0.5 * n ** (-2.0 / 3.0)) for n in (10, 100, 1000, 10000)]
        assert rate_slope(points).slope == pytest.approx(-2.0 / 3.0, abs=1e-10)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(11)
        ns = np.unique(np.geomspace(10, 10000, 20).astype(int))
        risks = 2.0 * ns ** (-0.8) * np.exp(rng.normal(0, 0.1, size=len(ns)))
        fit = rate_slope(list(zip(ns, risks)))
        assert abs(fit.slope - (-0.8)) < 0.15

    def test_validation(self):
        with pytest.raises(ValueError, match="3 points"):
            rate_slope([(10, 1.0), (20, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            rate_slope([(10, 1.0), (20, 0.5), (30, 0.0)])
        with pytest.raises(ValueError, match="distinct"):
            rate_slope([(10, 1.0), (10, 0.5), (30, 0.2)])


class TestStabilityProbe:
    def _base(self, n=25, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(features=rng.uniform(size=(n, 1)),
                       labels=rng.normal(size=n), domain_tag=DomainTag.TARGET)

    def test_zero_perturbation(self):
        base = self._base()
        grid = default_query_grid([0.0], [1.0])
        fit_fn = lambda ds: KSPredictor(ds, SmoothingKernel.EPANECHNIKOV, 0.2)
        coeffs = fit_fn(base).weights
        observed, bound = stability_probe(fit_fn, base, np.zeros(base.n),
                                          coeffs, grid)
        assert observed == 0.0 and bound == 0.0

    def test_ks_single_point_perturbation(self):
        base = self._base(seed=1)
        fit_fn = lambda ds: KSPredictor(ds, SmoothingKernel.TRUNCATED_GAUSSIAN, 0.15)
        weights = fit_fn(base).weights
        delta = np.zeros(base.n)
        delta[7] = 0.9
        grid = default_query_grid([0.0], [1.0])
        observed, bound = stability_probe(fit_fn, base, delta, weights, grid)
        assert observed <= bound

    def test_krr_constant_coefficients(self):
        base = self._base(seed=2)
        lam = 0.1
        fit_fn = lambda ds: krr_fit(ds, rbf_kernel(0.4), lam)
        coeffs = krr_stability_coeffs(fit_fn(base))
        rng = np.random.default_rng(3)
        delta = rng.normal(size=base.n) * 0.3
        grid = default_query_grid([0.0], [1.0])
        observed, bound = stability_probe(fit_fn, base, delta, coeffs, grid)
        assert observed <= bound

    def test_violation_raises(self):
        base = self._base(seed=4)

        class Unstable:
            def __init__(self, ds):
                self.mean = ds.labels.mean()

            def predict(self, X):
                return np.full(len(np.atleast_2d(X)), 1e6 * self.mean)

        delta = np.full(base.n, 0.1)
        grid = default_query_grid([0.0], [1.0])
        with pytest.raises(StabilityBoundViolation):
            stability_probe(Unstable, base, delta, np.full(base.n, 1e-6), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_perturbation_is_rejected(self, bad):
        base = self._base()
        delta = np.zeros(base.n)
        delta[3] = bad
        with pytest.raises(ValueError, match="finite"):
            stability_probe(lambda ds: KSPredictor(ds), base, delta,
                            np.zeros(base.n), default_query_grid([0.0], [1.0]))

    def test_perturbation_shape_checked(self):
        base = self._base()
        with pytest.raises(ValueError, match="shape"):
            stability_probe(lambda ds: KSPredictor(ds), base, np.zeros(3),
                            np.zeros(base.n), default_query_grid([0.0], [1.0]))


class TestQueryGrid:
    def test_one_dimensional_equispaced(self):
        grid = default_query_grid([0.0], [1.0], size=50)
        assert grid.shape == (50, 1)
        assert grid[0, 0] == 0.0 and grid[-1, 0] == 1.0
        steps = np.diff(grid[:, 0])
        np.testing.assert_allclose(steps, steps[0])

    def test_bounds_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            default_query_grid(np.zeros(2), np.ones(3))

    def test_multidimensional_seeded(self):
        a = default_query_grid(np.zeros(3), np.ones(3), seed=5, size=64)
        b = default_query_grid(np.zeros(3), np.ones(3), seed=5, size=64)
        assert a.shape == (64, 3)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
