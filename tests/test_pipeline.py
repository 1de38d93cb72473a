import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htlreg import smoothing
from htlreg.data import (
    Dataset,
    DomainTag,
    SyntheticSpec,
    generate_synthetic,
    linear_w,
    uniform_sampler,
)
from htlreg.pipeline import (
    BandwidthRule,
    FailedFit,
    KRRSpec,
    KSSpec,
    LambdaRule,
    MemoPredictor,
    construct_auxiliary,
    htl_fit,
    score_candidates,
    select_transformation,
)
from htlreg.ridge import (
    ConditioningError,
    KernelShape,
    RKHSKernel,
    linear_kernel,
    polynomial_kernel,
    rbf_kernel,
)
from htlreg.smoothing import KSPredictor, SmoothingKernel
from htlreg.transform import (
    AuxiliaryEstimator,
    QuantizedFamily,
    SingularityError,
    eval_G,
    loglinear,
    non_transfer,
    offset,
    scale,
)


class Constant:
    def __init__(self, value):
        self.value = value

    def predict(self, X):
        return np.full(len(np.atleast_2d(X)), self.value)


class Lookup:
    """Fixed per-row source predictions for small hand-built examples."""

    def __init__(self, values):
        self.values = np.asarray(values, float)

    def predict(self, X):
        return self.values[: len(np.atleast_2d(X))]


def target_data(xs, ys):
    return Dataset(features=np.asarray(xs, float).reshape(-1, 1),
                   labels=np.asarray(ys, float), domain_tag=DomainTag.TARGET)


class TestConstructAuxiliary:
    def test_offset_shifts_labels(self):
        aux, clipped = construct_auxiliary(
            target_data([0.1, 0.2], [3.0, 4.0]),
            Constant(1.0),
            AuxiliaryEstimator(offset(1.0)),
        )
        np.testing.assert_allclose(aux.labels, [2.0, 3.0])
        assert clipped == 0
        np.testing.assert_array_equal(
            aux.features, [[0.1], [0.2]]
        )

    def test_non_transfer_identity(self):
        target = target_data([0.1, 0.2], [3.0, 4.0])
        aux, clipped = construct_auxiliary(
            target, Constant(7.0), AuxiliaryEstimator(non_transfer())
        )
        np.testing.assert_array_equal(aux.labels, target.labels)
        np.testing.assert_array_equal(aux.features, target.features)
        assert clipped == 0

    def test_scale_divides(self):
        aux, _ = construct_auxiliary(
            target_data([0.1, 0.2], [6.0, 8.0]),
            Lookup([2.0, 4.0]),
            AuxiliaryEstimator(scale(0.0)),
        )
        np.testing.assert_allclose(aux.labels, [3.0, 2.0])

    def test_clipping_counted(self):
        aux, clipped = construct_auxiliary(
            target_data([0.1, 0.2, 0.3], [10.0, 0.5, -10.0]),
            Constant(0.0),
            AuxiliaryEstimator(offset(1.0, aux_bound_B=1.0)),
        )
        np.testing.assert_allclose(aux.labels, [1.0, 0.5, -1.0])
        assert clipped == 2

    def test_singular_row_named(self):
        with pytest.raises(SingularityError, match="row 1"):
            construct_auxiliary(
                target_data([0.1, 0.2], [1.0, 2.0]),
                Lookup([1.0, 0.0]),
                AuxiliaryEstimator(scale(0.0)),
            )

    def test_overflowing_label_names_row(self):
        # exp(y / (beta * a_hat)) = exp(5e6) overflows to inf
        target = target_data([0.1, 0.2, 0.3], [0.0, 5.0, 6.0])
        est = AuxiliaryEstimator(loglinear(1.0), sigma2=0.0)
        with pytest.raises(ValueError, match=r"row 1: .*a_hat = 1e-06, y = 5"):
            with np.errstate(over="ignore"):
                construct_auxiliary(target, Constant(1e-6), est)

    @pytest.mark.parametrize("sigma2", [0.0, 0.01])
    def test_overflowing_label_raises_without_warning(self, sigma2):
        target = target_data([0.1, 0.2, 0.3], [0.0, 5.0, 6.0])
        est = AuxiliaryEstimator(loglinear(1.0), sigma2=sigma2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"row 1: .*a_hat = 1e-06, y = 5"):
                construct_auxiliary(target, Constant(1e-6), est)

    def test_shares_the_target_features(self):
        target = target_data([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        aux, _ = construct_auxiliary(target, Constant(0.5),
                                     AuxiliaryEstimator(offset(1.0)))
        assert aux.features is target.features
        assert aux.domain_tag is DomainTag.TARGET
        assert aux.labels.tolist() == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize("tf, a_hat", [(offset(1e308), 1.0),
                                           (scale(0.0), 1e-300)])
    def test_a_label_beyond_float_range_raises_without_warning(self, tf, a_hat):
        target = target_data([0.1, 0.2], [0.0, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="row 1: auxiliary label -inf"):
                construct_auxiliary(target, Constant(a_hat), AuxiliaryEstimator(tf))

    def test_requires_target_tag(self):
        source = Dataset(features=[[0.1]], labels=[1.0],
                         domain_tag=DomainTag.SOURCE)
        with pytest.raises(ValueError, match="target"):
            construct_auxiliary(source, Constant(0.0),
                                AuxiliaryEstimator(offset(1.0)))


class TestSubroutineSpecs:
    def test_exactly_one_hyperparameter(self):
        with pytest.raises(ValueError):
            KSSpec(bandwidth=0.1, rule=BandwidthRule())
        with pytest.raises(ValueError):
            KSSpec()
        with pytest.raises(ValueError):
            KRRSpec(rbf_kernel(1.0), lam=0.1, rule=LambdaRule())
        with pytest.raises(ValueError):
            KRRSpec(rbf_kernel(1.0))

    def test_rules_resolve_against_training_size(self):
        ds = Dataset(features=np.linspace(0, 1, 1000).reshape(-1, 1),
                     labels=np.zeros(1000))
        spec = KSSpec(rule=BandwidthRule(alpha=1.0))
        assert spec.resolve_bandwidth(ds) == pytest.approx(0.1, rel=1e-12)
        kspec = KRRSpec(rbf_kernel(1.0), rule=LambdaRule(beta=1.5, p=0.5))
        ds256 = Dataset(features=np.linspace(0, 1, 256).reshape(-1, 1),
                        labels=np.zeros(256))
        assert kspec.resolve_lambda(ds256) == pytest.approx(0.0625, rel=1e-12)


    @pytest.mark.parametrize("build, inf_valid", [
        (lambda v: KSPredictor(Dataset(features=[[0.0]], labels=[0.0]),
                               bandwidth=v), True),
        (lambda v: RKHSKernel(KernelShape.RBF, lengthscale=v), True),
        (lambda v: RKHSKernel(KernelShape.POLYNOMIAL, offset=v), True),
        (lambda v: offset(1.0, aux_bound_B=v), True),
        (lambda v: SyntheticSpec(lambda X: X[:, 0], offset(1.0), lambda X: X[:, 0],
                                 noise_variance_source=v), True),
        (lambda v: SyntheticSpec(lambda X: X[:, 0], offset(1.0), lambda X: X[:, 0],
                                 noise_variance_target=v), True),
        (lambda v: AuxiliaryEstimator(loglinear(1.0), sigma2=v), True),
        # an infinite grid step L_alpha / (2K) made the alpha = 0 member NaN
        (lambda v: QuantizedFamily(L_alpha=v, K=2), False),
    ], ids=["ks_bandwidth", "rbf_lengthscale", "polynomial_offset", "aux_bound_B",
            "noise_variance_source", "noise_variance_target", "sigma2", "L_alpha"])
    def test_nan_parameter_rejected(self, build, inf_valid):
        if inf_valid:
            build(math.inf)
        else:
            with pytest.raises(ValueError, match="finite"):
                build(math.inf)
        with pytest.raises(ValueError):
            build(math.nan)


def _noiseless_linear_pair(n_so=200, n_ta=200):
    spec = SyntheticSpec(
        source_fn=lambda X: X[:, 0],
        transformation=offset(1.0),
        w=linear_w(intercept=1.0),
        input_sampler=uniform_sampler(1),
    )
    source = generate_synthetic(spec, n_so, DomainTag.SOURCE, seed=0)
    target = generate_synthetic(spec, n_ta, DomainTag.TARGET, seed=1)
    return spec, source, target


class TestHtlFit:
    def test_end_to_end_noiseless_offset(self):
        # f_so(x) = x, f_ta(x) = x + 1, offset(alpha=1): w(x) = 1 - ... = 1
        spec, source, target = _noiseless_linear_pair()
        tf = offset(1.0)
        p = htl_fit(KSSpec(bandwidth=0.05).fit(source), target,
                    AuxiliaryEstimator(tf), KSSpec(bandwidth=0.05))
        grid = np.linspace(0, 1, 101).reshape(-1, 1)
        err = np.abs(p.predict(grid) - spec.target_fn(grid))
        assert err.max() <= 0.05

    def test_non_transfer_reduces_to_direct_fit(self):
        spec, source, target = _noiseless_linear_pair(50, 60)
        tf = non_transfer()
        w_spec = KSSpec(kernel=SmoothingKernel.TRUNCATED_GAUSSIAN, bandwidth=0.15)
        p = htl_fit(KSSpec(bandwidth=0.1).fit(source), target,
                    AuxiliaryEstimator(tf), w_spec)
        direct = w_spec.fit(target)
        grid = np.linspace(0, 1, 64).reshape(-1, 1)
        np.testing.assert_allclose(p.predict(grid), direct.predict(grid),
                                   atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 2), n=st.integers(1, 15), data=st.data(),
           spec=st.builds(KSSpec, kernel=st.sampled_from(list(SmoothingKernel)),
                          bandwidth=st.floats(1e-3, 2.0))
           | st.builds(KRRSpec,
                       kernel=st.sampled_from([rbf_kernel(None), rbf_kernel(0.3),
                                               linear_kernel(),
                                               polynomial_kernel(2, 1.0)]),
                       lam=st.sampled_from([0.0, 1e-3, 0.1, 1.0])))
    def test_non_transfer_equals_only_target_bitwise(self, d, n, data, spec):
        # dyadic coordinates repeat, so Gram systems can be singular
        coord = st.integers(-8, 16).map(lambda k: k / 8) | st.floats(-1.0, 2.0)
        points = st.lists(st.lists(coord, min_size=d, max_size=d),
                          min_size=n, max_size=n)
        target = Dataset(features=np.array(data.draw(points)),
                         labels=np.array(data.draw(st.lists(st.floats(-5.0, 5.0),
                                                            min_size=n, max_size=n))),
                         domain_tag=DomainTag.TARGET)
        queries = np.vstack([target.features, np.array(data.draw(points))])
        a_hat = data.draw(st.floats(-3.0, 3.0))
        tf = non_transfer()
        htl = htl_fit(Constant(a_hat), target, AuxiliaryEstimator(tf), spec)
        assert np.array_equal(htl.predict(queries), spec.fit(target).predict(queries))

    def test_predict_composition_examples(self):
        p_off = htl_fit(Constant(2.0), target_data([0.0], [0.0]),
                        AuxiliaryEstimator(offset(1.0)), KSSpec(bandwidth=1.0))
        # w label = 0 - 2 = -2 everywhere -> G(2, -2) = 0; rebuild by hand:
        assert p_off.predict([0.5])[0] == eval_G(offset(1.0), 2.0, -2.0)

    def test_composition_identity_property(self):
        spec, source, target = _noiseless_linear_pair(40, 40)
        tf = offset(0.5)
        p = htl_fit(KSSpec(bandwidth=0.1).fit(source), target,
                    AuxiliaryEstimator(tf), KRRSpec(rbf_kernel(0.3), lam=0.01))
        X = np.random.default_rng(3).uniform(size=(25, 1))
        composed = eval_G(tf, p.f_so_hat.predict(X), p.w_hat.predict(X))
        np.testing.assert_array_equal(p.predict(X), composed)


def _selection_setup(seed, noise=0.0, true_alpha=1.0):
    spec = SyntheticSpec(
        source_fn=lambda X: np.sin(6 * X[:, 0]),
        transformation=offset(true_alpha),
        w=linear_w(slope=1.0),
        input_sampler=uniform_sampler(1),
        noise_variance_source=noise,
        noise_variance_target=noise,
    )
    source = generate_synthetic(spec, 800, DomainTag.SOURCE, seed=seed * 3 + 1)
    target = generate_synthetic(spec, 100, DomainTag.TARGET, seed=seed * 3 + 2)
    validation = generate_synthetic(spec, 50, DomainTag.VALIDATION,
                                    seed=seed * 3 + 3)
    return source, target, validation


class TestSelectTransformation:
    def test_single_candidate(self):
        source, target, validation = _selection_setup(0)
        result = select_transformation(
            KSSpec(bandwidth=0.02).fit(source), target, validation, [offset(1.0)],
            KSSpec(bandwidth=0.1),
        )
        assert result.chosen.alpha == 1.0
        assert len(result.per_candidate_validation_mse) == 1

    def test_prefers_true_offset_over_non_transfer(self):
        wins = 0
        for seed in range(5):
            source, target, validation = _selection_setup(seed)
            result = select_transformation(
                KSSpec(bandwidth=0.02).fit(source), target, validation,
                [offset(1.0), non_transfer()],
                KSSpec(bandwidth=0.1),
            )
            wins += result.chosen.family is offset(1.0).family
        assert wins == 5

    def test_argmin_dominance(self):
        source, target, validation = _selection_setup(1)
        result = select_transformation(
            KSSpec(bandwidth=0.02).fit(source), target, validation,
            [offset(a) for a in (-1.0, 0.0, 0.5, 1.0)],
            KSSpec(bandwidth=0.1),
        )
        chosen_mse = result.per_candidate_validation_mse[result.chosen_index][1]
        for _, candidate_mse in result.per_candidate_validation_mse:
            assert chosen_mse <= candidate_mse

    def test_irrelevant_source_never_beats_non_transfer(self):
        # the argmin's validation MSE is <= the non-transfer candidate's
        rng = np.random.default_rng(9)
        spec = SyntheticSpec(
            source_fn=lambda X: np.sin(37.0 * X[:, 0] ** 2),  # unrelated
            transformation=non_transfer(),
            w=linear_w(slope=1.0),
            input_sampler=uniform_sampler(1),
            noise_variance_target=0.01,
        )
        source = generate_synthetic(spec, 500, DomainTag.SOURCE, seed=10)
        target = generate_synthetic(spec, 60, DomainTag.TARGET, seed=11)
        validation = generate_synthetic(spec, 40, DomainTag.VALIDATION, seed=12)
        candidates = [offset(1.0), offset(0.5), non_transfer()]
        result = select_transformation(
            KSSpec(bandwidth=0.05).fit(source), target, validation, candidates,
            KSSpec(bandwidth=0.15),
        )
        mses = dict(result.per_candidate_validation_mse)
        chosen_mse = result.per_candidate_validation_mse[result.chosen_index][1]
        assert chosen_mse <= mses["non_transfer"]

    def test_tie_breaks_toward_non_transfer(self):
        # constant-zero truths make every offset candidate identical
        zero = lambda X: np.zeros(len(X))
        spec = SyntheticSpec(source_fn=zero, transformation=offset(1.0), w=zero,
                             input_sampler=uniform_sampler(1))
        source = generate_synthetic(spec, 50, DomainTag.SOURCE, seed=1)
        target = generate_synthetic(spec, 20, DomainTag.TARGET, seed=2)
        validation = generate_synthetic(spec, 10, DomainTag.VALIDATION, seed=3)
        result = select_transformation(
            KSSpec(bandwidth=0.1).fit(source), target, validation,
            [offset(1.0), offset(-0.5), offset(0.0)],
            KSSpec(bandwidth=0.1),
        )
        assert result.chosen.alpha == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), K=st.integers(1, 3), L_alpha=st.floats(0.1, 4.0),
           zero_source=st.booleans(),
           spec=st.builds(KSSpec, kernel=st.sampled_from(list(SmoothingKernel)),
                          bandwidth=st.floats(0.02, 1.0)))
    def test_chosen_mse_never_exceeds_alpha_zero(self, data, K, L_alpha,
                                                 zero_source, spec):
        # an all-zero source makes every member's predictions the same bits,
        # so the whole family ties and the tie-break decides
        def sample(tag, n, zero=False):
            xs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
            ys = [0.0] * n if zero else data.draw(
                st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
            return Dataset(features=np.reshape(xs, (-1, 1)), labels=ys,
                           domain_tag=tag)

        source = sample(DomainTag.SOURCE, data.draw(st.integers(1, 20)), zero_source)
        target = sample(DomainTag.TARGET, data.draw(st.integers(1, 15)))
        validation = sample(DomainTag.VALIDATION, data.draw(st.integers(1, 10)))
        family = QuantizedFamily(L_alpha=L_alpha, K=K)
        result = select_transformation(spec.fit(source), target, validation,
                                       family, spec)
        mses = [mse for _, mse in result.per_candidate_validation_mse]
        chosen_mse = mses[result.chosen_index]
        assert family.members[K].alpha == 0.0
        assert chosen_mse <= mses[K]
        tied = [abs(m.alpha) for m, mse in zip(family.members, mses)
                if mse == chosen_mse]
        assert abs(result.chosen.alpha) == min(tied)
        if zero_source:
            assert result.chosen.alpha == 0.0

    def test_candidates_share_one_smoother_pass(self, monkeypatch):
        # every member relabels the one target feature array with one spec,
        # so the 9 auxiliary stages predict the validation rows in one pass
        _, target, validation = _selection_setup(2)
        calls = []
        sorted_1d = smoothing.predict_sorted_1d

        def counting(xs, rows, ranks, queries, *args):
            calls.append((len(rows), queries.copy()))
            return sorted_1d(xs, rows, ranks, queries, *args)

        monkeypatch.setattr(smoothing, "predict_sorted_1d", counting)
        family = QuantizedFamily(2.0, 4)
        result = select_transformation(
            Constant(0.5), target, validation, family,
            KSSpec(SmoothingKernel.EPANECHNIKOV, bandwidth=0.1))
        assert len(result.per_candidate_validation_mse) == 9
        [(n_rows, queries)] = calls
        assert n_rows == 9
        assert queries.tobytes() == validation.features[:, 0].tobytes()

    def test_no_candidates_rejected(self):
        _, _, validation = _selection_setup(3)
        with pytest.raises(ValueError, match="no candidate transformations"):
            score_candidates(validation, [], [])

    def test_validation_tag_enforced(self):
        source, target, _ = _selection_setup(3)
        with pytest.raises(ValueError, match="validation"):
            select_transformation(KSSpec(bandwidth=0.1).fit(source), target,
                                  target, [offset(1.0)], KSSpec(bandwidth=0.1))


def validation_data(ys):
    return Dataset(features=np.linspace(0.0, 1.0, len(ys)).reshape(-1, 1),
                   labels=np.asarray(ys, float), domain_tag=DomainTag.VALIDATION)


class TestScoreCandidates:
    """``score_candidates`` scores each candidate's pipeline as given."""

    def test_ties_break_by_tie_break_key_then_by_index(self):
        # labels 0 and 2: a Constant(1) pipeline scores 1, a Constant(5) 17
        validation = validation_data([0.0, 2.0])
        candidates = [offset(2.0), offset(-0.5), offset(0.5), offset(0.0)]
        result = score_candidates(validation, candidates, [
            Constant(1.0), Constant(1.0), Constant(1.0), Constant(5.0)])
        assert result.per_candidate_validation_mse == (
            ("offset(alpha=2)", 1.0), ("offset(alpha=-0.5)", 1.0),
            ("offset(alpha=0.5)", 1.0), ("offset(alpha=0)", 17.0))
        assert result.chosen_index == 1 and result.chosen == offset(-0.5)
        # a lower MSE beats a smaller tie-break key
        result = score_candidates(validation, [offset(0.0), offset(2.0)],
                                  [Constant(3.0), Constant(1.0)])
        assert result.chosen_index == 1

    def test_a_failed_fit_raises_when_its_candidate_is_reached(self):
        reached = []

        class Recording(Constant):
            def predict(self, X):
                reached.append(self.value)
                return super().predict(X)

        validation = validation_data([0.0, 2.0])
        with pytest.raises(ConditioningError, match="the second fit"):
            score_candidates(
                validation, [offset(0.0), offset(1.0), offset(2.0), offset(3.0)],
                [Recording(0.0), FailedFit(ConditioningError("the second fit")),
                 Recording(2.0), FailedFit(ValueError("the fourth fit"))])
        assert reached == [0.0]

    def test_validation_tag_enforced(self):
        target = target_data([0.0, 1.0], [0.0, 2.0])
        with pytest.raises(ValueError, match="expected validation-domain data"):
            score_candidates(target, [offset(0.0)], [Constant(1.0)])

    def test_one_pipeline_per_candidate(self):
        with pytest.raises(ValueError):
            score_candidates(validation_data([0.0, 2.0]), [offset(0.0), offset(1.0)],
                             [Constant(1.0)])


def htl_loop_selection(f_so_hat, target, validation, candidates, w_spec):
    """The oracle: one ``htl_fit`` per candidate, in roster order. Returns
    the chosen index and the (label, validation MSE) rows."""
    rows = []
    for tf in candidates:
        pred = htl_fit(f_so_hat, target, AuxiliaryEstimator(tf), w_spec)
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = validation.labels - pred.predict(validation.features)
            mse = float(np.mean(residuals**2))
        if not math.isfinite(mse):
            raise ValueError(f"candidate {tf.label}: non-finite validation MSE {mse}")
        rows.append((tf.label, mse))
    best = min(range(len(candidates)),
               key=lambda i: (rows[i][1], candidates[i].tie_break_key, i))
    return best, tuple(rows)


W_SPECS = st.one_of(
    st.builds(KSSpec, kernel=st.sampled_from(list(SmoothingKernel)),
              bandwidth=st.floats(0.02, 1.0)),
    st.builds(KSSpec, kernel=st.sampled_from(list(SmoothingKernel)),
              rule=st.builds(BandwidthRule, c=st.floats(0.05, 2.0))),
    st.builds(KRRSpec, kernel=st.sampled_from([rbf_kernel(), rbf_kernel(0.3),
                                               linear_kernel()]),
              lam=st.floats(1e-3, 1.0)),
    st.builds(KRRSpec, kernel=st.just(rbf_kernel()),
              rule=st.builds(LambdaRule, c=st.floats(0.01, 1.0))),
)
ALPHAS = st.sampled_from([0.0, 0.5, -1.0]) | st.floats(-3.0, 3.0)
MEMBERS = st.one_of(
    st.builds(offset, ALPHAS),
    st.builds(scale, ALPHAS, st.sampled_from([math.inf, 2.0])),
    st.just(non_transfer()),
)


class TestSelectionMatchesPerCandidateFits:
    """``select_transformation``'s MSEs, choice and tie-break are those of
    one ``htl_fit`` per candidate scored in roster order, bit for bit, and
    so is its first error."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), w_spec=W_SPECS, dim=st.integers(1, 2),
           source_kind=st.sampled_from(["ks", "zero", "one"]),
           family=st.one_of(
               st.builds(QuantizedFamily, L_alpha=st.floats(0.1, 4.0),
                         K=st.integers(1, 4)),
               st.lists(MEMBERS, min_size=1, max_size=6)))
    def test_equals_one_htl_fit_per_candidate(self, data, w_spec, dim,
                                              source_kind, family):
        if isinstance(w_spec, KSSpec):
            dim = 1  # the windowed path; the dense path is covered below too
        grid = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)

        def sample(tag, n):
            X = data.draw(st.lists(st.lists(grid, min_size=dim, max_size=dim),
                                   min_size=n, max_size=n))
            ys = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
            return Dataset(features=X, labels=ys, domain_tag=tag)

        source = sample(DomainTag.SOURCE, data.draw(st.integers(1, 20)))
        target = sample(DomainTag.TARGET, data.draw(st.integers(1, 15)))
        validation = sample(DomainTag.VALIDATION, data.draw(st.integers(1, 10)))
        # a constant source makes offset members tie, and a zero one makes
        # scale(0) singular
        f_so_hat = {"ks": lambda: KSSpec(bandwidth=0.2).fit(source),
                    "zero": lambda: Constant(0.0),
                    "one": lambda: Constant(1.0)}[source_kind]()
        candidates = list(family.members if isinstance(family, QuantizedFamily)
                          else family)
        try:
            best, rows = htl_loop_selection(f_so_hat, target, validation,
                                            candidates, w_spec)
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                select_transformation(f_so_hat, target, validation, family, w_spec)
            return
        result = select_transformation(f_so_hat, target, validation, family, w_spec)
        assert result.chosen_index == best and result.chosen is candidates[best]
        assert [label for label, _ in result.per_candidate_validation_mse] == [
            label for label, _ in rows]
        got = np.array([mse for _, mse in result.per_candidate_validation_mse])
        assert got.tobytes() == np.array([mse for _, mse in rows]).tobytes()

    @pytest.mark.parametrize("step", [1, -1])
    def test_the_first_failing_candidate_in_roster_order_raises(self, step):
        # offset(1e308)'s auxiliary labels overflow its kernel sums into a
        # non-finite MSE, and scale(0) cannot invert the source's 0 on row 2
        target = target_data([0.0, 0.01, 0.02], [0.0, 0.0, 0.0])
        validation = Dataset(features=[[0.01]], labels=[0.0],
                             domain_tag=DomainTag.VALIDATION)
        f_so_hat = Lookup([1.0, 1.0, 0.0])
        family = [non_transfer(), offset(1e308), scale(0.0)][::step]
        w_spec = KSSpec(SmoothingKernel.BOXCAR, bandwidth=0.1)
        with pytest.raises(ValueError) as want:
            htl_loop_selection(f_so_hat, target, validation, family, w_spec)
        assert ("non-finite validation MSE" in str(want.value)) == (step == 1)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            select_transformation(f_so_hat, target, validation, family, w_spec)

    @pytest.mark.parametrize("loglinear_first", [True, False])
    def test_a_loglinear_candidate_is_rejected_in_roster_order(
            self, loglinear_first):
        # loglinear(1) has no sigma2 for its estimator, and offset(1e308)'s
        # validation MSE overflows: the error raised is the first candidate's
        target = target_data([0.0, 0.01, 0.02], [0.0, 0.0, 0.0])
        validation = Dataset(features=[[0.01]], labels=[0.0],
                             domain_tag=DomainTag.VALIDATION)
        f_so_hat = Lookup([1.0, 1.0, 0.0])
        failing = [loglinear(1.0), offset(1e308)]
        family = [non_transfer(), *failing[::1 if loglinear_first else -1]]
        w_spec = KSSpec(SmoothingKernel.BOXCAR, bandwidth=0.1)
        with pytest.raises(ValueError) as want:
            htl_loop_selection(f_so_hat, target, validation, family, w_spec)
        assert ("sigma2 is required" in str(want.value)) == loglinear_first
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            select_transformation(f_so_hat, target, validation, family, w_spec)

    @pytest.mark.parametrize("w_spec", [
        KSSpec(SmoothingKernel.GAUSSIAN, bandwidth=0.1),
        KSSpec(SmoothingKernel.EPANECHNIKOV, rule=BandwidthRule()),
        KRRSpec(rbf_kernel(), lam=0.01),
    ], ids=["ks_dense", "ks_rule", "krr"])
    def test_two_dimensional_features(self, w_spec):
        rng = np.random.default_rng(4)
        truth = lambda X: np.sin(4 * X[:, 0]) + X[:, 1]
        X = rng.uniform(size=(170, 2))
        source, target, validation = (
            Dataset(features=X[rows], labels=truth(X[rows]), domain_tag=tag)
            for rows, tag in ((slice(0, 100), DomainTag.SOURCE),
                              (slice(100, 140), DomainTag.TARGET),
                              (slice(140, None), DomainTag.VALIDATION)))
        f_so_hat = KSSpec(bandwidth=0.3).fit(source)
        family = [offset(1.0), scale(0.5, 5.0), non_transfer(), offset(1.0)]
        best, rows = htl_loop_selection(f_so_hat, target, validation, family, w_spec)
        result = select_transformation(f_so_hat, target, validation, family, w_spec)
        assert result.chosen_index == best
        assert result.per_candidate_validation_mse == rows
        assert rows[0] == rows[3] and best != 3  # a tie goes to the lower index


class TestFitSamples:
    @pytest.mark.parametrize("spec", [
        KSSpec(SmoothingKernel.EPANECHNIKOV, bandwidth=0.1),
        KSSpec(SmoothingKernel.GAUSSIAN, rule=BandwidthRule()),
        KRRSpec(rbf_kernel(), lam=0.01),
        KRRSpec(linear_kernel(), rule=LambdaRule()),
    ], ids=["ks_window", "ks_dense_rule", "krr_rbf", "krr_linear_rule"])
    def test_each_sample_is_its_own_fit(self, spec):
        rng = np.random.default_rng(6)
        train = target_data(rng.uniform(size=60), np.zeros(60))
        rows = rng.normal(size=(4, 60))
        X = rng.uniform(-0.2, 1.2, size=(30, 1))
        fits = spec.fit_samples([train.with_labels(labels) for labels in rows])
        assert len(fits) == 4
        for fit, labels in zip(fits, rows):
            want = spec.fit(target_data(train.features, labels)).predict(X)
            assert fit.predict(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [KSSpec(bandwidth=0.1),
                                      KRRSpec(rbf_kernel(), lam=0.01)],
                             ids=["ks", "krr"])
    @pytest.mark.parametrize("equal_copy", [False, True], ids=["none", "equal_copy"])
    def test_samples_must_share_one_feature_array(self, spec, equal_copy):
        # equal feature values in another array are not the one array
        train = target_data(np.linspace(0, 1, 5), np.zeros(5))
        samples = [train, target_data(train.features, np.ones(5))] if equal_copy else []
        with pytest.raises(ValueError, match="one or more samples sharing one "
                                             "feature array"):
            spec.fit_samples(samples)

    def test_a_ridge_sample_that_fails_raises_when_it_predicts_and_alone(
            self, monkeypatch):
        rng = np.random.default_rng(7)
        train = target_data(rng.uniform(size=20), np.zeros(20))
        rows = rng.normal(size=(3, 20))
        spec = KRRSpec(rbf_kernel(), lam=0.01)
        fit = KRRSpec.fit

        def failing_fit(self, data):
            if np.array_equal(data.labels, rows[1]):
                raise ConditioningError("row 1 failed")
            return fit(self, data)

        monkeypatch.setattr(KRRSpec, "fit", failing_fit)
        fits = spec.fit_samples([train.with_labels(labels) for labels in rows])
        X = rng.uniform(size=(5, 1))
        with pytest.raises(ConditioningError, match="row 1 failed"):
            fits[1].predict(X)
        for i in (0, 2):
            want = fit(spec, train.with_labels(rows[i])).predict(X)
            assert fits[i].predict(X).tobytes() == want.tobytes()


class Recording:
    """Answers through ``inner`` and keeps a copy of every query."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []

    def predict(self, X):
        self.queries.append(np.array(X))
        return self.inner.predict(X)


def distinct_queries(queries) -> bool:
    keys = [(q.shape, q.tobytes()) for q in queries]
    return len(set(keys)) == len(keys)


class TestMemoPredictor:
    def _source(self):
        source, _, _ = _selection_setup(0)
        return KSSpec(bandwidth=0.02).fit(source)

    def test_matches_the_inner_predictor_and_predicts_a_query_once(self):
        inner = self._source()
        recording = Recording(inner)
        memo = MemoPredictor(recording)
        X = np.random.default_rng(1).uniform(size=(40, 1))
        first = memo.predict(X)
        assert np.array_equal(first, inner.predict(X))
        assert memo.predict(X.copy()) is first
        assert memo.predict(X.tolist()) is first
        assert len(recording.queries) == 1

    def test_one_ulp_and_the_sign_of_a_zero_are_predicted_separately(self):
        recording = Recording(self._source())
        memo = MemoPredictor(recording)
        X = np.array([[0.0], [0.25], [0.5]])
        ulp = X.copy()
        ulp[1, 0] = np.nextafter(0.25, 1.0)
        signed = X.copy()
        signed[0, 0] = -0.0
        assert np.array_equal(signed, X)  # == cannot tell them apart
        for query in (X, ulp, signed, X, ulp, signed):
            memo.predict(query)
        assert len(recording.queries) == 3
        assert distinct_queries(recording.queries)

    def test_a_query_changed_after_a_call_is_predicted_afresh(self):
        inner = self._source()
        memo = MemoPredictor(inner)
        X = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
        before = memo.predict(X)
        X[3, 0] = 0.123
        after = memo.predict(X)
        assert np.array_equal(after, inner.predict(X))
        assert not np.array_equal(after, before)

    def test_stored_results_are_read_only(self):
        memo = MemoPredictor(Lookup([1.0, 2.0, 3.0]))
        result = memo.predict(np.zeros((3, 1)))
        assert not result.flags.writeable
        with pytest.raises(ValueError):
            result[0] = 0.0
        # a copy: the inner predictor's own array stays as it was
        assert not np.shares_memory(result, memo.inner.values)
        assert memo.inner.values.flags.writeable

    @pytest.mark.parametrize("family", [[offset(1.0)],
                                        QuantizedFamily(L_alpha=2.0, K=2),
                                        QuantizedFamily(L_alpha=2.0, K=4)])
    def test_selection_predicts_the_source_twice_for_any_family(self, family):
        source, target, validation = _selection_setup(2)
        inner = KSSpec(bandwidth=0.02).fit(source)
        recording = Recording(inner)
        result = select_transformation(recording, target, validation, family,
                                       KSSpec(bandwidth=0.1))
        assert len(recording.queries) == 2  # target rows, validation rows
        assert distinct_queries(recording.queries)
        assert result == select_transformation(inner, target, validation,
                                               family, KSSpec(bandwidth=0.1))


class TestErrorPropagation:
    def test_true_source_swap_bounded_by_stability_term(self):
        # swapping the estimated source stage for the truth moves the
        # pipeline's RMS error by at most L * sup|df_so| + L^2 * max_i|df_so|
        rng = np.random.default_rng(5)
        for seed in range(20):
            spec = SyntheticSpec(
                source_fn=lambda X: np.sin(5 * X[:, 0]),
                transformation=offset(1.0),
                w=linear_w(slope=1.0),
                input_sampler=uniform_sampler(1),
            )
            source = generate_synthetic(spec, 150, DomainTag.SOURCE, seed=seed)
            target = generate_synthetic(spec, 60, DomainTag.TARGET, seed=seed + 1000)
            tf = offset(1.0)
            est = AuxiliaryEstimator(tf)
            so_spec, w_spec = KSSpec(bandwidth=0.07), KSSpec(bandwidth=0.15)

            class Truth:
                def predict(self, X):
                    return spec.source_fn(np.atleast_2d(X))

            p_hat = htl_fit(so_spec.fit(source), target, est, w_spec)
            p_true = htl_fit(Truth(), target, est, w_spec)
            grid = rng.uniform(size=(200, 1))
            truth_vals = spec.target_fn(grid)
            rms_hat = np.sqrt(np.mean((p_hat.predict(grid) - truth_vals) ** 2))
            rms_true = np.sqrt(np.mean((p_true.predict(grid) - truth_vals) ** 2))
            df_grid = np.abs(p_hat.f_so_hat.predict(grid)
                             - spec.source_fn(grid)).max()
            df_train = np.abs(p_hat.f_so_hat.predict(target.features)
                              - spec.source_fn(target.features)).max()
            L = math.hypot(tf.alpha, 1.0)  # bounds dG and the |alpha| of dH/da
            bound = L * df_grid + L * L * df_train
            assert abs(rms_hat - rms_true) <= 2 * bound
