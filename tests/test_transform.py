import math

import numpy as np
import pytest

from htlreg.data import SyntheticSpec, doppler_fn, kin_analog_spec, linear_w
from htlreg.transform import (
    AuxiliaryEstimator,
    InsufficientReplicatesError,
    QuantizedFamily,
    SingularityError,
    apply_H,
    estimate_sigma2,
    eval_G,
    inverse_G,
    loglinear,
    non_transfer,
    offset,
    scale,
)


class TestEvalG:
    def test_offset(self):
        assert eval_G(offset(1.0), 2.0, 3.0) == 5.0

    def test_scale(self):
        assert eval_G(scale(0.0), 2.0, 3.0) == 6.0

    def test_non_transfer_ignores_source(self):
        assert eval_G(non_transfer(), 999.0, 3.0) == 3.0

    def test_loglinear(self):
        assert eval_G(loglinear(2.0), 1.0, math.e) == pytest.approx(2.0)

    def test_loglinear_rejects_nonpositive_b(self):
        with pytest.raises(ValueError, match="b > 0"):
            eval_G(loglinear(1.0), 1.0, 0.0)


class TestInverseG:
    def test_offset(self):
        assert inverse_G(offset(1.0), 2.0, 5.0) == 3.0

    def test_scale(self):
        assert inverse_G(scale(0.0), 2.0, 6.0) == 3.0

    def test_scale_singularity_names_value(self):
        with pytest.raises(SingularityError, match="a \\+ alpha = 0"):
            inverse_G(scale(1.0), -1.0, 5.0)

    def test_loglinear_singularity(self):
        with pytest.raises(SingularityError, match="beta \\* a = 0"):
            inverse_G(loglinear(2.0), 0.0, 1.0)

    def test_round_trip_property(self):
        # G(a, G_a^{-1}(c)) = c and G_a^{-1}(G(a, b)) = b per family
        rng = np.random.default_rng(0)
        families = [
            (offset(1.7), lambda: (rng.uniform(-2, 2), rng.uniform(-2, 2))),
            (scale(0.3), lambda: (rng.uniform(0.1, 2), rng.uniform(-2, 2))),
            (non_transfer(), lambda: (rng.uniform(-2, 2), rng.uniform(-2, 2))),
            (loglinear(1.5), lambda: (rng.uniform(0.2, 2), rng.uniform(0.1, 3))),
        ]
        for tf, draw in families:
            for _ in range(1000):
                a, b = draw()
                c = eval_G(tf, a, b)
                assert inverse_G(tf, a, c) == pytest.approx(b, abs=1e-10)
                assert eval_G(tf, a, inverse_G(tf, a, c)) == pytest.approx(
                    c, abs=1e-10
                )


class TestTrueAuxiliary:
    """A synthetic truth's ``w`` is the auxiliary function of its pair:
    w(x) = G^{-1}_{f_so(x)}(f_ta(x))."""

    @pytest.mark.parametrize("spec, dim, anchor", [
        (SyntheticSpec(doppler_fn, offset(1.0), linear_w(slope=1.0)), 1, 0.5),
        (SyntheticSpec(doppler_fn, scale(0.0), linear_w(intercept=5.0)), 1, 5.0),
        (SyntheticSpec(doppler_fn, non_transfer(), linear_w(-2.0, 0.5)), 1, -0.5),
        (kin_analog_spec(), 8, None),
    ], ids=["offset_doppler", "scale_doppler", "non_transfer", "kin_analog"])
    def test_w_is_the_inverse_of_G_at_the_truths(self, spec, dim, anchor):
        X = np.random.default_rng(4).uniform(0.05, 0.95, size=(50, dim))
        w = inverse_G(spec.transformation, spec.source_fn(X), spec.target_fn(X))
        np.testing.assert_allclose(w, spec.w(X), rtol=0, atol=1e-9)
        if anchor is not None:
            assert spec.w(np.array([[0.5]]))[0] == anchor


class TestApplyH:
    def test_direct_offset(self):
        est = AuxiliaryEstimator(offset(1.0))
        assert apply_H(est, 1.0, 3.0) == 2.0

    def test_calibrated_zero_variance_equals_direct(self):
        est = AuxiliaryEstimator(loglinear(1.0), sigma2=0.0)
        assert apply_H(est, 1.0, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("beta", [1.5, -0.5])
    def test_zero_variance_is_the_inverse_bit_for_bit(self, beta):
        # signed |a| from 1e-300 to 1e300: past |a| = 1.3e154, a^2 overflows
        # and a 0 * a^2 correction term would be NaN
        magnitudes = np.logspace(-300, 300, 601)
        a = np.concatenate([magnitudes, -magnitudes])
        assert np.any(np.abs(a) > 1e154)
        y = np.resize([-2.0, -0.3, 0.0, 0.7, 3.0], a.size)
        tf = loglinear(beta)
        got = apply_H(AuxiliaryEstimator(tf, sigma2=0.0), a, y)
        want = inverse_G(tf, a, y)
        assert not np.any(np.isnan(got))
        assert got.tobytes() == want.tobytes()

    def test_calibrated_bias_correction(self):
        est = AuxiliaryEstimator(loglinear(1.0), sigma2=0.04)
        assert apply_H(est, 1.0, 0.0) == pytest.approx(math.exp(0.04), rel=1e-14)

    def test_calibration_with_zero_beta_a_names_the_value(self):
        est = AuxiliaryEstimator(loglinear(1.0), sigma2=0.04)
        with pytest.raises(SingularityError, match=r"beta \* a = 0 at a = 0$"):
            apply_H(est, np.array([0.5, 0.0, 2.0]), np.zeros(3))

    def test_loglinear_requires_sigma2(self):
        with pytest.raises(ValueError, match="sigma2 is required by loglinear"):
            AuxiliaryEstimator(loglinear(1.0))

    @pytest.mark.parametrize("tf", [offset(1.0), scale(0.0), non_transfer()],
                             ids=lambda tf: tf.family.value)
    def test_sigma2_only_for_loglinear(self, tf):
        with pytest.raises(ValueError, match="read by no other family"):
            AuxiliaryEstimator(tf, sigma2=0.0)

    def test_unbiasedness_monte_carlo(self):
        # E[H(f_so(x), f_ta(x) + eps)] = w(x) for families linear in b
        rng = np.random.default_rng(1)
        n = 100_000
        half_width = 0.3  # centered bounded noise, sd = hw/sqrt(3)
        for tf, a, w_true in [
            (offset(2.0), 1.3, 0.7),
            (scale(0.5), 1.1, -0.4),
            (non_transfer(), 9.9, 1.5),
        ]:
            f_ta = eval_G(tf, a, w_true)
            eps = rng.uniform(-half_width, half_width, size=n)
            labels = apply_H(AuxiliaryEstimator(tf), np.full(n, a), f_ta + eps)
            se = labels.std(ddof=1) / math.sqrt(n)
            assert abs(labels.mean() - w_true) < 4 * se + 1e-12

    def test_lipschitz_probe(self):
        # |H(a, y) - H(a', y)| <= L |a - a'| on the admissible box
        rng = np.random.default_rng(2)
        y_bound = 2.0
        cases = [
            # offset: dH/da = -alpha
            (offset(2.0), 2.0, lambda: rng.uniform(-1, 1)),
            # scale with |a + alpha| >= 0.1: |dH/da| <= y_bound / 0.1^2
            (scale(0.0), y_bound / 0.01, lambda: rng.uniform(0.1, 1.0)),
        ]
        for tf, L, draw_a in cases:
            est = AuxiliaryEstimator(tf)
            for _ in range(500):
                a1, a2 = draw_a(), draw_a()
                if a1 == a2:
                    continue
                y = rng.uniform(-y_bound, y_bound)
                ratio = abs(apply_H(est, a1, y) - apply_H(est, a2, y)) / abs(a1 - a2)
                assert ratio <= L * (1 + 1e-9)


class TestEstimateSigma2:
    def test_no_within_point_variation(self):
        assert estimate_sigma2([[1.0, 1.0], [2.0, 2.0]]) == 0.0

    def test_hand_worked_example(self):
        assert estimate_sigma2([[1.0, 3.0], [2.0, 4.0]]) == 2.0

    def test_singletons_rejected(self):
        with pytest.raises(InsufficientReplicatesError):
            estimate_sigma2([[5.0]])

    def test_singletons_ignored_in_mixed_input(self):
        assert estimate_sigma2([[7.0], [1.0, 3.0], [2.0, 4.0]]) == 2.0


class TestQuantizedFamily:
    def test_epsilon_and_alphas(self):
        fam = QuantizedFamily(L_alpha=1.0, K=2)
        np.testing.assert_allclose(np.diff(fam.alphas), 0.25)
        np.testing.assert_allclose(fam.alphas, [-0.5, -0.25, 0.0, 0.25, 0.5])

    def test_coarse_grid(self):
        fam = QuantizedFamily(L_alpha=2.0, K=1)
        np.testing.assert_allclose(fam.alphas, [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_zero_member_and_negation_symmetry(self, K):
        fam = QuantizedFamily(L_alpha=1.7, K=K)
        alphas = fam.alphas
        assert len(alphas) == 2 * K + 1
        assert 0.0 in alphas
        assert set(np.round(-alphas, 12)) == set(np.round(alphas, 12))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizedFamily(0.0, 2)
        with pytest.raises(ValueError):
            QuantizedFamily(1.0, 0)


def test_tie_break_key_is_the_distance_from_non_transfer():
    members = (non_transfer(), offset(-0.5), scale(2.0), loglinear(-1.5))
    assert [tf.tie_break_key for tf in members] == [0.0, 0.5, 2.0, 1.5]


def test_transformation_metadata_validation():
    with pytest.raises(ValueError, match="aux_bound_B"):
        offset(1.0, aux_bound_B=0.0)
    with pytest.raises(ValueError, match="beta != 0"):
        loglinear(0.0)
