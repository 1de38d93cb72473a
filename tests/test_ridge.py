import math
import re

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import pdist

from htlreg.data import Dataset
from htlreg.pipeline import LambdaRule
from htlreg.ridge import (
    ConditioningError,
    StabilityUndefinedError,
    gram,
    krr_fit,
    krr_stability_coeffs,
    linear_kernel,
    median_heuristic,
    polynomial_kernel,
    rbf_kernel,
    ridge_path,
)
from htlreg.smoothing import KSPredictor


def make(xs, ys):
    return Dataset(features=np.asarray(xs, float).reshape(len(ys), -1),
                   labels=np.asarray(ys, float))


class TestGram:
    def test_linear_dot_products(self):
        A = np.array([[1.0], [2.0]])
        np.testing.assert_allclose(gram(linear_kernel(), A, A), [[1, 2], [2, 4]])

    def test_rbf_unit_diagonal(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        K = gram(rbf_kernel(1.0), X, X)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)

    def test_polynomial_hand_value(self):
        K = gram(polynomial_kernel(2, 1.0), [[1.0]], [[2.0]])
        assert K[0, 0] == pytest.approx(9.0)

    def test_symmetry(self):
        X = np.random.default_rng(1).normal(size=(8, 2))
        for kernel in (rbf_kernel(0.7), linear_kernel(), polynomial_kernel(3, 0.5)):
            K = gram(kernel, X, X)
            np.testing.assert_allclose(K, K.T, atol=1e-12)

    def test_psd_spot_check(self):
        X = np.random.default_rng(2).normal(size=(10, 2))
        for kernel in (rbf_kernel(0.7), linear_kernel(), polynomial_kernel(2, 1.0)):
            K = gram(kernel, X, X)
            eigmin = np.linalg.eigvalsh(K).min()
            assert eigmin >= -1e-8 * np.trace(K)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            gram(linear_kernel(), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_unresolved_rbf_lengthscale(self):
        with pytest.raises(ValueError, match="lengthscale unresolved"):
            gram(rbf_kernel(None), np.zeros((2, 1)), np.zeros((3, 1)))

    def test_ridge_path_rejects_a_gram_matrix_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\) does not match 4"):
            ridge_path(np.eye(3), np.ones(4), (0.1,))


class TestFitPredict:
    def test_single_point_hand_solve(self):
        # (K + n*lam) c = y: (1 + 1) c = 2 -> c = 1; f(2) = K(2,1)*1 = 2
        p = krr_fit(make([1.0], [2.0]), linear_kernel(), lam=1.0)
        assert p.coefficients[0] == pytest.approx(1.0)
        assert p.predict_one([2.0]) == pytest.approx(2.0)

    def test_zero_lambda_interpolates(self):
        xs = np.array([0.05, 0.3, 0.55, 0.8, 0.95])
        ys = np.sin(3 * xs)
        p = krr_fit(make(xs, ys), rbf_kernel(0.3), lam=0.0)
        np.testing.assert_allclose(p.predict(xs.reshape(-1, 1)), ys, atol=1e-6)

    def test_huge_lambda_shrinks_to_zero(self):
        # |f(x)| <= |Y|_max * k * n / (n * lam), exact since eig(K + n*lam) >= n*lam
        rng = np.random.default_rng(4)
        n, lam = 8, 1e6
        xs = rng.uniform(size=n)
        ys = rng.uniform(-1, 1, size=n)
        p = krr_fit(make(xs, ys), rbf_kernel(0.5), lam=lam)
        preds = p.predict(xs.reshape(-1, 1))
        bound = np.abs(ys).max() * 1.0 * n / (n * lam)
        assert np.all(np.abs(preds) <= bound * (1 + 1e-9))

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            xs = rng.normal(size=(n, 2))
            ys = rng.normal(size=n)
            lam = float(rng.uniform(0.01, 1.0))
            kernel = rbf_kernel(float(rng.uniform(0.3, 2.0)))
            p = krr_fit(Dataset(features=xs, labels=ys), kernel, lam)
            # independent dense solve
            K = np.exp(-((xs[:, None, :] - xs[None, :, :]) ** 2).sum(-1)
                       / (2 * kernel.lengthscale**2))
            coef = np.linalg.solve(K + n * lam * np.eye(n), ys)
            q = rng.normal(size=(5, 2))
            kq = np.exp(-((q[:, None, :] - xs[None, :, :]) ** 2).sum(-1)
                        / (2 * kernel.lengthscale**2))
            np.testing.assert_allclose(p.predict(q), kq @ coef, atol=1e-9)

    def test_residual_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            ds = Dataset(features=rng.normal(size=(n, 1)), labels=rng.normal(size=n))
            lam = float(rng.uniform(0.0, 0.5))
            p = krr_fit(ds, rbf_kernel(0.5), lam)
            K = gram(p.kernel, ds.features, ds.features)
            resid = np.linalg.norm((K + n * lam * np.eye(n)) @ p.coefficients
                                   - ds.labels)
            # jitter-free fits satisfy this exactly; jittered ones still must
            # land within the contract for these well-separated samples
            assert resid <= 1e-6 * max(np.linalg.norm(ds.labels), 1.0)

    def test_representer_symmetry(self):
        rng = np.random.default_rng(7)
        ds = Dataset(features=rng.normal(size=(12, 2)), labels=rng.normal(size=12))
        p = krr_fit(ds, rbf_kernel(0.8), 0.1)
        perm = rng.permutation(12)
        ds_perm = Dataset(features=ds.features[perm], labels=ds.labels[perm])
        p_perm = krr_fit(ds_perm, rbf_kernel(0.8), 0.1)
        np.testing.assert_allclose(p_perm.coefficients, p.coefficients[perm],
                                   atol=1e-10)
        q = rng.normal(size=(10, 2))
        np.testing.assert_allclose(p.predict(q), p_perm.predict(q), atol=1e-10)

    def test_median_heuristic_default_lengthscale(self):
        rng = np.random.default_rng(8)
        ds = Dataset(features=rng.uniform(size=(20, 1)), labels=rng.normal(size=20))
        p = krr_fit(ds, rbf_kernel(None), 0.1)
        assert p.kernel.lengthscale == pytest.approx(median_heuristic(ds.features))

    @pytest.mark.parametrize("seed,shape,lam", [
        (8, (20, 1), 0.1), (9, (40, 8), 1e-3), (10, (15, 3), 0.0),
    ])
    def test_median_heuristic_fit_matches_two_pass_bitwise(self, seed, shape, lam):
        """One distance matrix serves the heuristic and the Gram matrix; the
        fit is the same bits as taking median_heuristic(X), then gram."""
        rng = np.random.default_rng(seed)
        ds = Dataset(features=rng.uniform(size=shape), labels=rng.normal(size=shape[0]))
        p = krr_fit(ds, rbf_kernel(None), lam)
        kernel = rbf_kernel(median_heuristic(ds.features))
        K = gram(kernel, ds.features, ds.features)
        expected = ridge_path(K, ds.labels, (lam,))[0]
        assert p.kernel == kernel
        assert np.array_equal(p.coefficients, expected)

    @pytest.mark.parametrize("X", [
        np.random.default_rng(11).normal(size=(9, 3)),   # 36 pairs: two middles
        np.random.default_rng(12).normal(size=(10, 2)),  # 45 pairs: one middle
        np.repeat(np.arange(6.0), 2).reshape(-1, 1),     # zero distances drop out
        np.ones((4, 2)),                                 # no positive distance
        np.zeros((1, 3)),
    ])
    def test_median_heuristic_is_the_median_positive_distance(self, X):
        d = pdist(X)
        d = d[d > 0]
        expected = float(np.median(d)) if d.size else 1.0
        assert median_heuristic(X) == expected

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            krr_fit(make([1.0], [1.0]), rbf_kernel(1.0), -0.1)

    def test_a_lengthscale_whose_square_overflows_fits_as_an_infinite_one(self):
        # 1e300 ** 2 passes the float range: the Gram matrix is all ones, as
        # an infinite lengthscale's is
        train = make([[0.0, 1.0], [2.0, 0.5], [3.0, -1.0]], [1.0, -2.0, 0.5])
        queries = [[0.0, 0.0], [1.0, 2.0]]
        huge = krr_fit(train, rbf_kernel(1e300), 0.1).predict(queries)
        infinite = krr_fit(train, rbf_kernel(math.inf), 0.1).predict(queries)
        assert huge.tobytes() == infinite.tobytes()

    @pytest.mark.parametrize("query", [[[math.nan, 0.5]], [[0.5, -math.inf]],
                                       [[0.1, 0.2, 0.3]]],
                             ids=["nan", "inf", "wrong_dim"])
    def test_a_bad_query_raises_as_a_smoother_does(self, query):
        train = make([[0.0, 1.0], [2.0, 0.5], [3.0, -1.0]], [1.0, -2.0, 0.5])
        with pytest.raises(ValueError) as smoother:
            KSPredictor(train, bandwidth=0.5).predict(query)
        with pytest.raises(ValueError, match=f"^{re.escape(str(smoother.value))}$"):
            krr_fit(train, rbf_kernel(1.0), 0.1).predict(query)


def reference_ridge_solve(K, y, lam):
    """One-lambda ridge solve through scipy's cho_factor/cho_solve with the
    jitter and residual contract of ridge_path, which must match it bitwise."""
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


class TestRidgePath:
    rng = np.random.default_rng(10)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    LAMS = (1e-4, 1e-2, 1.0)

    @pytest.mark.parametrize("kernel", [rbf_kernel(0.8), polynomial_kernel(2, 1.0)],
                             ids=["rbf", "polynomial"])
    def test_matches_cholesky_reference_bitwise(self, kernel):
        K = gram(kernel, self.X, self.X)
        path = ridge_path(K, self.y, self.LAMS)
        assert path.shape == (len(self.LAMS), 60)
        for lam, coef in zip(self.LAMS, path):
            expected = reference_ridge_solve(K, self.y, lam)
            assert np.array_equal(coef, expected)
            assert np.array_equal(ridge_path(K, self.y, (lam,))[0], expected)

    def test_zero_lambda_jitter_escalation_bitwise(self):
        # duplicated rows: K is singular, so lambda = 0 needs jitter
        X = np.vstack([self.X[:20]] * 2)
        y = np.concatenate([self.y[:20]] * 2)
        K = gram(rbf_kernel(0.8), X, X)
        with pytest.raises(LinAlgError):
            cho_factor(K, lower=True)
        expected = reference_ridge_solve(K, y, 0.0)
        assert np.array_equal(ridge_path(K, y, (0.0,))[0], expected)
        assert np.array_equal(ridge_path(K, y, (0.0, 0.1))[0], expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        K = gram(rbf_kernel(0.8), self.X, self.X)
        K[3, 5] = K[5, 3] = bad
        with pytest.raises(ValueError):
            ridge_path(K, self.y, self.LAMS)
        y = self.y.copy()
        y[7] = bad
        with pytest.raises(ValueError):
            ridge_path(np.eye(60), y, (0.1,))

    def test_unsolvable_system_raises_conditioning_error(self):
        # an indefinite K fails every jittered factorization; the path
        # stops at its first unsolvable lambda
        K = np.diag([1.0, -1.0, 1.0])
        y = np.ones(3)
        for lams in ((0.0,), (0.1, 0.0)):
            with pytest.raises(ConditioningError) as expected:
                reference_ridge_solve(K, y, lams[0])
            with pytest.raises(ConditioningError) as raised:
                ridge_path(K, y, lams)
            assert str(raised.value) == str(expected.value)


class TestStabilityCoeffs:
    def test_unit_values(self):
        ds = Dataset(features=np.linspace(0, 1, 10).reshape(-1, 1),
                     labels=np.zeros(10))
        p = krr_fit(ds, rbf_kernel(0.5), 0.1)
        np.testing.assert_allclose(krr_stability_coeffs(p), np.ones(10))

    def test_hundredth_values(self):
        ds = Dataset(features=np.linspace(0, 1, 100).reshape(-1, 1),
                     labels=np.zeros(100))
        p = krr_fit(ds, rbf_kernel(0.5), 1.0)
        np.testing.assert_allclose(krr_stability_coeffs(p), 0.01)

    def test_zero_lambda_undefined(self):
        ds = Dataset(features=np.array([[0.0], [1.0]]), labels=np.array([0.0, 1.0]))
        p = krr_fit(ds, rbf_kernel(0.5), 0.0)
        with pytest.raises(StabilityUndefinedError):
            krr_stability_coeffs(p)

    def test_label_perturbation_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(5, 30))
            xs = rng.uniform(size=(n, 1))
            ys = rng.normal(size=n)
            delta = rng.normal(size=n) * 0.5
            lam = float(rng.uniform(0.01, 1.0))
            p0 = krr_fit(Dataset(features=xs, labels=ys), rbf_kernel(0.4), lam)
            p1 = krr_fit(Dataset(features=xs, labels=ys + delta),
                         rbf_kernel(0.4), lam)
            grid = np.linspace(0, 1, 100).reshape(-1, 1)
            observed = np.abs(p0.predict(grid) - p1.predict(grid)).max()
            bound = krr_stability_coeffs(p0) @ np.abs(delta)
            assert observed <= bound * (1 + 1e-9)


class TestLambdaRule:
    @staticmethod
    def lam(rule, n):
        return rule.value(Dataset(features=np.zeros((n, 1)), labels=np.zeros(n)))

    def test_n_one(self):
        assert self.lam(LambdaRule(beta=2.0, p=0.5), 1) == 1.0

    def test_p_domain_error(self):
        with pytest.raises(ValueError, match="p must lie"):
            LambdaRule(beta=1.0, p=1.0)
        with pytest.raises(ValueError, match="p must lie"):
            LambdaRule(beta=1.0, p=0.0)

    def test_exponent_arithmetic(self):
        assert self.lam(LambdaRule(beta=1.5, p=0.5), 256) == pytest.approx(
            0.0625, rel=1e-12)

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            LambdaRule(beta=0.0, p=0.5)

    def test_constant_positive(self):
        with pytest.raises(ValueError, match="c must be > 0"):
            LambdaRule(c=0)
