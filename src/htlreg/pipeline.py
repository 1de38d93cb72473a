"""The transfer pipeline: source fit, auxiliary construction, composition.

Given source data, target data, and a transformation G:

    1. fit f_so_hat on the source sample (``spec.fit(source)``),
    2. relabel the target sample with auxiliary labels
       W_i = H(f_so_hat(X_i), Y_i),
    3. fit w_hat on the relabeled sample,
    4. predict G(f_so_hat(x), w_hat(x)).

With the non-transfer G this reduces bit-for-bit to fitting the target
stage directly on the target sample. ``htl_fit`` runs steps 2-4 on a prefit
source stage. Selection over a finite roster of candidate transformations
scores each candidate's composed pipeline on the validation sample and
keeps the one with the lowest MSE (``score_candidates``).

Auxiliary samples relabel the same target features: only their labels
differ. Each subroutine spec's ``fit_samples`` fits samples that share one
feature array and returns one predictor per sample, with the bits of a fit
on that sample alone. Kernel smoothing computes the query sort, windows and
kernel values once per distinct query array for every sample and only the
label-weighted sums per sample (``smoothing.ks_predict_rows``); kernel
ridge fits sample by sample, and a sample whose solve fails fails alone.
``fit_target_stages`` fits target stages of equal specs this way and
composes the auxiliary ones with the source stage; the experiment runner
and ``select_transformation`` both call it, so a selection row scores the
pipelines that ``select_transformation`` would.

f_so_hat(x) does not depend on G, the target sample or the method, so a
``MemoPredictor`` around the source stage computes it once per distinct
query array: selection shares it across candidates, and the experiment
runner shares it per seed across every method and target size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Protocol, Sequence, Union

import numpy as np

from .data import Dataset, DomainTag
from .ridge import ConditioningError, RKHSKernel, KRRPredictor, krr_fit
from .smoothing import KSPredictor, SmoothingKernel, ks_predict_rows
from .transform import (
    AuxiliaryEstimator,
    QuantizedFamily,
    TransformationFunction,
    apply_H,
    eval_G,
)


class Predictor(Protocol):
    def predict(self, X) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class MemoPredictor:
    """``inner.predict`` computed once per distinct query array.

    A query with the shape and the bytes of an earlier one gets the stored
    result back. Bytes rather than ``==``, so queries that differ in one ulp
    or in the sign of a zero are predicted separately. The key is a copy of
    the query's bytes: a query array changed after a call is predicted
    afresh. Stored results are read-only. The memo keeps every distinct
    query for as long as the wrapper lives; the experiment runner keeps one
    per seed.
    """

    inner: Predictor
    _results: dict = field(default_factory=dict, init=False, repr=False)

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        key = (X.shape, X.tobytes())
        result = self._results.get(key)
        if result is None:
            result = np.array(self.inner.predict(X))
            result.flags.writeable = False
            self._results[key] = result
        return result


@dataclass(frozen=True)
class BandwidthRule:
    """The rate-driven bandwidth h = c * n^(-1/(2*alpha + d)).

    ``alpha`` is the assumed Holder smoothness exponent of the regression
    function, in (0, 1]. Only the order is principled, so the constant
    c > 0 is tuned per dataset.
    """

    alpha: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.c > 0:
            raise ValueError(f"c must be > 0, got {self.c}")

    def value(self, train: Dataset) -> float:
        """h for the n rows and d features of ``train``."""
        return self.c * float(train.n) ** (-1.0 / (2.0 * self.alpha + train.dim))


@dataclass(frozen=True)
class LambdaRule:
    """The rate-driven regularization lambda = c * n^(-1/(beta + p)).

    ``beta`` is the assumed approximation-error exponent (> 0) and ``p`` the
    assumed eigenvalue-decay exponent, in (0, 1). Neither is estimable from
    data here; callers supply them, with the constant c > 0.
    """

    beta: float = 1.0
    p: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not self.c > 0:
            raise ValueError(f"c must be > 0, got {self.c}")

    def value(self, train: Dataset) -> float:
        """lambda for the n rows of ``train``."""
        return self.c * float(train.n) ** (-1.0 / (self.beta + self.p))


@dataclass(frozen=True)
class KSSpec:
    """Kernel smoothing subroutine: fixed bandwidth xor a bandwidth rule."""

    kernel: SmoothingKernel = SmoothingKernel.TRUNCATED_GAUSSIAN
    bandwidth: float | None = None
    rule: BandwidthRule | None = None

    def __post_init__(self):
        if (self.bandwidth is None) == (self.rule is None):
            raise ValueError("exactly one of bandwidth or rule must be given")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth:g}")

    def resolve_bandwidth(self, train: Dataset) -> float:
        if self.bandwidth is not None:
            return self.bandwidth
        return self.rule.value(train)

    def fit(self, train: Dataset) -> KSPredictor:
        return KSPredictor(train, self.kernel, self.resolve_bandwidth(train))

    def fit_samples(self, samples: Sequence[Dataset]) -> list[Predictor]:
        """One smoother per sample of ``samples``, one or more on one feature
        array: predictor i predicts with the bits of ``self.fit(samples[i])``.
        The samples share one smoother pass per distinct query array
        (``smoothing.ks_predict_rows``)."""
        train = _one_feature_array(samples)[0]
        rows = np.array([s.labels for s in samples])
        shared = MemoPredictor(_KSRows(train, rows, self.kernel,
                                       self.resolve_bandwidth(train)))
        return [_RowView(shared, i) for i in range(len(rows))]


@dataclass(frozen=True, eq=False)
class _KSRows:
    """Smoothers on one sample's features, one per label row: each
    ``predict`` is one smoother pass for every row."""

    train: Dataset
    rows: np.ndarray
    kernel: SmoothingKernel
    bandwidth: float

    def predict(self, X) -> np.ndarray:
        [pred] = ks_predict_rows(self.train, self.rows, X, self.kernel,
                                 (self.bandwidth,))
        return pred


@dataclass(frozen=True)
class _RowView:
    """Row ``row`` of the (k, m) predictions of ``rows``."""

    rows: Predictor
    row: int

    def predict(self, X) -> np.ndarray:
        return self.rows.predict(X)[self.row]


@dataclass(frozen=True)
class KRRSpec:
    """Kernel ridge subroutine: fixed lambda xor a lambda rule."""

    kernel: RKHSKernel
    lam: float | None = None
    rule: LambdaRule | None = None

    def __post_init__(self):
        if (self.lam is None) == (self.rule is None):
            raise ValueError("exactly one of lam or rule must be given")
        if self.lam is not None and not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam:g}")

    def resolve_lambda(self, train: Dataset) -> float:
        if self.lam is not None:
            return self.lam
        return self.rule.value(train)

    def fit(self, train: Dataset) -> KRRPredictor:
        return krr_fit(train, self.kernel, self.resolve_lambda(train))

    def fit_samples(self, samples: Sequence[Dataset]) -> list[Predictor]:
        """``self.fit`` of each sample of ``samples``, one or more on one
        feature array, in order; a sample whose fit fails fails alone
        (``fit_or_fail``)."""
        return [fit_or_fail(partial(self.fit, s)) for s in _one_feature_array(samples)]


# What a fit or a score may raise on bad data or a bad setting; the run
# records it and goes on. Anything else is a defect and propagates.
FIT_ERRORS = (ValueError, ConditioningError)


@dataclass(frozen=True)
class FailedFit:
    """A fit that raised ``error``: predicting raises it again."""

    error: Exception

    def predict(self, X) -> np.ndarray:
        raise self.error


def fit_or_fail(fit: Callable[[], Predictor]) -> Predictor:
    """``fit()``, or a ``FailedFit`` of the ``FIT_ERRORS`` error it raises."""
    try:
        return fit()
    except FIT_ERRORS as exc:
        return FailedFit(exc)


def _one_feature_array(samples: Sequence[Dataset]) -> Sequence[Dataset]:
    """``samples``, checked to be one or more that share one feature array."""
    if not samples or any(s.features is not samples[0].features for s in samples):
        raise ValueError("expected one or more samples sharing one feature array")
    return samples


SubroutineSpec = Union[KSSpec, KRRSpec]


@dataclass(frozen=True)
class HTLPredictor:
    """Composition G(f_so_hat(x), w_hat(x)) of the two fitted stages."""

    f_so_hat: Predictor
    w_hat: Predictor
    transformation: TransformationFunction

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return eval_G(
            self.transformation, self.f_so_hat.predict(X), self.w_hat.predict(X)
        )


def construct_auxiliary(
    target: Dataset, f_so_hat: Predictor, est: AuxiliaryEstimator
) -> tuple[Dataset, int]:
    """Relabel the target sample with auxiliary labels.

    Features are the target's own array, shared; label i becomes
    H(f_so_hat(X_i), Y_i), clamped to +-aux_bound_B. Returns the relabeled
    dataset and the count of clamped rows. A singular inverse or a
    non-finite auxiliary label (an overflowing ``exp``, or an offset or
    scale too large for a float) raises with the offending row index, and
    numpy warns of no overflow on the way.
    """
    if target.domain_tag is not DomainTag.TARGET:
        raise ValueError(f"expected target-domain data, got {target.domain_tag}")
    a_hat = np.asarray(f_so_hat.predict(target.features), dtype=float)
    bound = est.transformation.aux_bound_B
    n_clipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            labels = np.asarray(apply_H(est, a_hat, target.labels), dtype=float)
        except ValueError as exc:
            # rerun row by row to name the offending row
            for i in range(target.n):
                try:
                    apply_H(est, a_hat[i], target.labels[i])
                except ValueError:
                    raise type(exc)(f"row {i}: {exc}") from exc
            raise
    if np.isfinite(bound):
        clipped = np.clip(labels, -bound, bound)
        n_clipped = int(np.sum(clipped != labels))
        labels = clipped
    bad = np.flatnonzero(~np.isfinite(labels))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"row {i}: auxiliary label {labels[i]} is not finite "
            f"(a_hat = {a_hat[i]:g}, y = {target.labels[i]:g})"
        )
    return target.with_labels(labels), n_clipped


def htl_fit(
    f_so_hat: Predictor,
    target: Dataset,
    est: AuxiliaryEstimator,
    w_spec: SubroutineSpec,
) -> HTLPredictor:
    """Relabel the target through the prefit source stage ``f_so_hat``, fit
    the auxiliary stage, and return the composed predictor."""
    aux, _ = construct_auxiliary(target, f_so_hat, est)
    return HTLPredictor(f_so_hat, w_spec.fit(aux), est.transformation)


def fit_target_stages(
    f_so_hat: Predictor,
    target: Dataset,
    estimators: Sequence[AuxiliaryEstimator | FailedFit | None],
    resolve: Callable[[Dataset], SubroutineSpec],
) -> list[Predictor]:
    """One fitted target stage per estimator, in order.

    ``None`` fits ``target`` itself and reads no source stage. An
    ``AuxiliaryEstimator`` fits its auxiliary sample with the spec
    ``resolve(aux)``, composed with ``f_so_hat`` as ``htl_fit`` composes it.
    Stages whose specs are equal share one ``spec.fit_samples``, each with
    the bits of its own fit. A stage whose sample, spec or fit fails is a
    ``FailedFit`` at its place; a ``FailedFit`` estimator is kept there.
    """
    stages = list(estimators)  # every place but a given FailedFit's is refit
    groups: dict[SubroutineSpec, list[tuple[int, Dataset]]] = {}
    for i, est in enumerate(estimators):
        if isinstance(est, FailedFit):
            continue
        try:
            train = (target if est is None
                     else construct_auxiliary(target, f_so_hat, est)[0])
            spec = resolve(train)
        except FIT_ERRORS as exc:
            stages[i] = FailedFit(exc)
            continue
        groups.setdefault(spec, []).append((i, train))
    for spec, members in groups.items():
        places, samples = zip(*members)
        for i, fit in zip(places, spec.fit_samples(samples)):
            stages[i] = fit
    return [stage if est is None or isinstance(stage, FailedFit)
            else HTLPredictor(f_so_hat, stage, est.transformation)
            for est, stage in zip(estimators, stages)]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of validation-risk selection over candidate transformations."""

    chosen: TransformationFunction
    chosen_index: int
    per_candidate_validation_mse: tuple[tuple[str, float], ...]


def score_candidates(
    validation: Dataset,
    candidates: Sequence[TransformationFunction],
    pipelines: Sequence[Predictor],
) -> SelectionResult:
    """Pick the candidate whose pipeline has the lowest validation MSE.

    Pipeline i is candidate i's composed predictor, such as its
    ``htl_fit``; pipelines that share a ``MemoPredictor`` source stage
    predict the validation rows through it once. Ties go to the candidate
    closest to non-transfer (smallest |alpha|), then to the lowest index.

    Pipelines are scored in order, a ``FailedFit`` raising when its
    candidate is reached, so the first error raised, a fit's or a score's,
    is the one a loop of ``htl_fit`` calls would hit. A candidate whose
    validation MSE is not finite raises ``ValueError`` naming it, and numpy
    warns of no overflow on the way.
    """
    if validation.domain_tag is not DomainTag.VALIDATION:
        raise ValueError(
            f"expected validation-domain data, got {validation.domain_tag}"
        )
    if not candidates:
        raise ValueError("no candidate transformations")
    rows: list[tuple[str, float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tf, pipeline in zip(candidates, pipelines, strict=True):
            pred = pipeline.predict(validation.features)
            mse = float(np.mean((validation.labels - pred) ** 2))
            if not math.isfinite(mse):
                raise ValueError(f"candidate {tf.label}: non-finite validation MSE {mse}")
            rows.append((tf.label, mse))
    best = min(
        range(len(candidates)),
        key=lambda i: (rows[i][1], candidates[i].tie_break_key, i),
    )
    return SelectionResult(
        chosen=candidates[best],
        chosen_index=best,
        per_candidate_validation_mse=tuple(rows),
    )


def select_transformation(
    f_so_hat: Predictor,
    target: Dataset,
    validation: Dataset,
    family: QuantizedFamily | Sequence[TransformationFunction],
    w_spec: SubroutineSpec,
) -> SelectionResult:
    """Pick the candidate whose ``htl_fit`` pipeline with ``w_spec`` has the
    lowest validation MSE (``score_candidates``).

    The pipelines come from one ``fit_target_stages`` call. Every candidate
    shares the prefit source stage ``f_so_hat`` (it does not depend on G),
    memoized, so it predicts the target and validation rows once, and
    relabels through its plain inverse, so a loglinear candidate, whose
    estimator needs sigma2, is rejected when it is scored.
    """
    candidates = list(family.members if isinstance(family, QuantizedFamily) else family)
    if not isinstance(f_so_hat, MemoPredictor):
        f_so_hat = MemoPredictor(f_so_hat)
    estimators = [fit_or_fail(partial(AuxiliaryEstimator, tf)) for tf in candidates]
    pipelines = fit_target_stages(f_so_hat, target, estimators, lambda _: w_spec)
    return score_candidates(validation, candidates, pipelines)
