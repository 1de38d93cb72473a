"""The transfer pipeline: source fit, auxiliary construction, composition.

Given source data, target data, and a transformation G:

    1. fit f_so_hat on the source sample (``spec.fit(source)``),
    2. relabel the target sample with auxiliary labels
       W_i = H(f_so_hat(X_i), Y_i),
    3. fit w_hat on the relabeled sample,
    4. predict G(f_so_hat(x), w_hat(x)).

With the non-transfer G this reduces bit-for-bit to fitting the target
stage directly on the target sample. ``htl_fit`` runs steps 2-4 on a prefit
source stage, and selection over a finite roster of candidate
transformations shares that prefit stage across candidates and keeps the
one with the lowest validation MSE.

Selection's candidates also share step 3's features and bandwidth or
lambda: only their auxiliary labels differ. Each subroutine spec's
``predict_rows`` predicts a stack of label rows over one sample, row i
with the bits of a fit on row i alone, so one call serves every candidate.
Kernel smoothing computes the query sort, windows and kernel values once
and only the label-weighted sums per row (``smoothing.ks_predict_rows``);
kernel ridge fits row by row.

f_so_hat(x) does not depend on G, the target sample or the method, so a
``MemoPredictor`` around the source stage computes it once per distinct
query array: selection shares it across candidates, and the experiment
runner shares it per seed across every method and target size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence, Union

import numpy as np

from .data import Dataset, DomainTag
from .ridge import RKHSKernel, KRRPredictor, krr_fit
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

    def predict_rows(self, train: Dataset, rows, X) -> np.ndarray:
        """(k, m) predictions at ``X``; row i has the bits of
        ``self.fit(train relabeled with rows[i]).predict(X)``. One smoother
        pass serves every row (``smoothing.ks_predict_rows``)."""
        [pred] = ks_predict_rows(train, _label_rows(train, rows), X, self.kernel,
                                 (self.resolve_bandwidth(train),))
        return pred


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

    def predict_rows(self, train: Dataset, rows, X) -> np.ndarray:
        """(k, m) predictions at ``X``; row i is
        ``self.fit(train relabeled with rows[i]).predict(X)``, one fit per
        row."""
        return np.array([self.fit(replace(train, labels=labels)).predict(X)
                         for labels in _label_rows(train, rows)])


def _label_rows(train: Dataset, rows) -> np.ndarray:
    """``rows`` as a C-ordered (k, n) float array of finite label rows, k >= 1,
    one label per row of ``train``."""
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or len(rows) < 1 or rows.shape[1] != train.n:
        raise ValueError(f"expected label rows of shape (k >= 1, {train.n}), "
                         f"got {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValueError("labels must be finite")
    return rows


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

    Features are unchanged; label i becomes H(f_so_hat(X_i), Y_i), clamped
    to +-aux_bound_B. Returns the relabeled dataset and the count of
    clamped rows. A singular inverse or a non-finite auxiliary label (an
    overflowing loglinear ``exp``) raises with the offending row index.
    """
    if target.domain_tag is not DomainTag.TARGET:
        raise ValueError(f"expected target-domain data, got {target.domain_tag}")
    a_hat = np.asarray(f_so_hat.predict(target.features), dtype=float)
    bound = est.transformation.aux_bound_B
    n_clipped = 0
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
    aux = Dataset(features=target.features, labels=labels,
                  domain_tag=DomainTag.TARGET)
    return aux, n_clipped


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


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of validation-risk selection over candidate transformations."""

    chosen: TransformationFunction
    chosen_index: int
    per_candidate_validation_mse: tuple[tuple[str, float], ...]


def select_transformation(
    f_so_hat: Predictor,
    target: Dataset,
    validation: Dataset,
    family: QuantizedFamily | Sequence[TransformationFunction],
    w_spec: SubroutineSpec,
) -> SelectionResult:
    """Pick the candidate whose pipeline has the lowest validation MSE.

    Every candidate shares the prefit source stage ``f_so_hat`` (it does not
    depend on G), and its predictions on the target and validation rows,
    and relabels through its plain inverse, so a loglinear candidate, whose
    estimator needs sigma2, is rejected. The candidates' auxiliary fits
    share the target features and differ only in their labels, so one
    ``w_spec.predict_rows`` call predicts every candidate's w_hat at the
    validation rows; each row, and so each MSE, has the bits of that
    candidate's own ``htl_fit``. Ties go to the candidate closest to
    non-transfer (smallest |alpha|), then to the lowest index.

    A candidate whose validation MSE is not finite raises ``ValueError``
    naming it, and numpy warns of no overflow on the way. A candidate whose
    auxiliary labels cannot be built raises ``construct_auxiliary``'s error
    once the candidates before it are scored, as a loop of ``htl_fit`` calls
    in roster order would.
    """
    if validation.domain_tag is not DomainTag.VALIDATION:
        raise ValueError(
            f"expected validation-domain data, got {validation.domain_tag}"
        )
    candidates = list(family.members if isinstance(family, QuantizedFamily) else family)
    if not candidates:
        raise ValueError("no candidate transformations")
    if not isinstance(f_so_hat, MemoPredictor):
        f_so_hat = MemoPredictor(f_so_hat)

    labels, failure = [], None
    rows: list[tuple[str, float]] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for tf in candidates:
            try:
                aux, _ = construct_auxiliary(target, f_so_hat, AuxiliaryEstimator(tf))
            except ValueError as exc:
                failure = exc
                break
            labels.append(aux.labels)
        if labels:
            X = validation.features
            a_hat = f_so_hat.predict(X)
            w_hats = w_spec.predict_rows(target, labels, X)
            for tf, w_hat in zip(candidates, w_hats):
                residuals = validation.labels - eval_G(tf, a_hat, w_hat)
                mse = float(np.mean(residuals**2))
                if not math.isfinite(mse):
                    raise ValueError(
                        f"candidate {tf.label}: non-finite validation MSE {mse}")
                rows.append((tf.label, mse))
    if failure is not None:
        raise failure

    best = min(
        range(len(candidates)),
        key=lambda i: (rows[i][1], candidates[i].tie_break_key, i),
    )
    return SelectionResult(
        chosen=candidates[best],
        chosen_index=best,
        per_candidate_validation_mse=tuple(rows),
    )
