"""Transformation functions relating source and target regressions.

A transformation G(a, b) maps a source regression value a and an auxiliary
value b to a target regression value, and is invertible in b given a. The
pair (source truth, target truth) then induces the auxiliary function

    w(x) = G^{-1}_{f_so(x)}(f_ta(x)),

which is what the transfer pipeline actually estimates from target data.
Families provided:

    offset(alpha):    G(a, b) = alpha * a + b
    scale(alpha):     G(a, b) = (a + alpha) * b
    non_transfer:     G(a, b) = b              (source plays no role)
    loglinear(beta):  G(a, b) = beta * a * ln(b), b > 0

Noisy target labels enter through an estimator H(a, y) whose mean over the
label noise is w(x), and the family picks H. For the families linear in b
(offset, scale, non_transfer) the plain inverse H(a, y) = G^{-1}_a(y) is
unbiased. loglinear with Gaussian noise of variance sigma2 uses the
calibrated estimator exp(y / (beta * a) + sigma2 * a^2), so it requires
sigma2; at sigma2 = 0 (noiseless labels) it is the plain inverse. Note the
calibration's correction term is sigma2 * a^2 by design; this differs from
the standard lognormal mean correction sigma2 / (2 * (beta * a)^2) and is
kept as-is deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class SingularityError(ValueError):
    """The inverse of G(a, .) is undefined at the given source value."""


class InsufficientReplicatesError(ValueError):
    """Variance estimation needs at least one point with >= 2 replicates."""


class Family(Enum):
    OFFSET = "offset"
    SCALE = "scale"
    NON_TRANSFER = "non_transfer"
    LOGLINEAR = "loglinear"


@dataclass(frozen=True)
class TransformationFunction:
    """One member of a transformation family. ``aux_bound_B`` bounds |w|
    and is the clamp applied to constructed auxiliary labels (math.inf
    disables clamping).
    """

    family: Family
    alpha: float = 0.0
    beta: float = 1.0
    aux_bound_B: float = math.inf

    def __post_init__(self):
        if not self.aux_bound_B > 0:
            raise ValueError("aux_bound_B must be positive")
        if self.family is Family.LOGLINEAR and self.beta == 0:
            raise ValueError("loglinear requires beta != 0")

    @property
    def label(self) -> str:
        if self.family is Family.OFFSET:
            return f"offset(alpha={self.alpha:g})"
        if self.family is Family.SCALE:
            return f"scale(alpha={self.alpha:g})"
        if self.family is Family.LOGLINEAR:
            return f"loglinear(beta={self.beta:g})"
        return "non_transfer"

    @property
    def tie_break_key(self) -> float:
        """Distance-from-non-transfer used to break selection ties."""
        if self.family is Family.NON_TRANSFER:
            return 0.0
        if self.family is Family.LOGLINEAR:
            return abs(self.beta)
        return abs(self.alpha)


def offset(alpha: float, aux_bound_B: float = math.inf) -> TransformationFunction:
    """G(a, b) = alpha * a + b."""
    return TransformationFunction(Family.OFFSET, alpha=alpha, aux_bound_B=aux_bound_B)


def scale(alpha: float, aux_bound_B: float = math.inf) -> TransformationFunction:
    """G(a, b) = (a + alpha) * b; sensible only where |a + alpha| stays
    clear of 0. The inverse errors only at exactly 0 and relies on
    ``aux_bound_B`` to clamp near-singular rows."""
    return TransformationFunction(Family.SCALE, alpha=alpha, aux_bound_B=aux_bound_B)


def non_transfer() -> TransformationFunction:
    """G(a, b) = b: plain regression on the target sample."""
    return TransformationFunction(Family.NON_TRANSFER)


def loglinear(beta: float, aux_bound_B: float = math.inf) -> TransformationFunction:
    """G(a, b) = beta * a * ln(b), defined for b > 0."""
    return TransformationFunction(Family.LOGLINEAR, beta=beta, aux_bound_B=aux_bound_B)


def eval_G(tf: TransformationFunction, a, b):
    """Evaluate G(a, b); accepts scalars or aligned arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if tf.family is Family.OFFSET:
        out = tf.alpha * a + b
    elif tf.family is Family.SCALE:
        out = (a + tf.alpha) * b
    elif tf.family is Family.NON_TRANSFER:
        out = np.broadcast_arrays(a, b)[1]
    else:
        if np.any(b <= 0):
            raise ValueError("loglinear G(a, b) requires b > 0")
        out = tf.beta * a * np.log(b)
    return float(out) if out.ndim == 0 else out


def inverse_G(tf: TransformationFunction, a, c):
    """The b with G(a, b) = c; raises SingularityError where undefined."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if tf.family is Family.OFFSET:
        out = c - tf.alpha * a
    elif tf.family is Family.SCALE:
        denom = a + tf.alpha
        if np.any(denom == 0.0):
            raise SingularityError(
                f"scale inverse undefined: a + alpha = 0 at a = "
                f"{_first_offender(a, denom == 0.0):g}"
            )
        out = c / denom
    elif tf.family is Family.NON_TRANSFER:
        out = np.broadcast_arrays(a, c)[1]
    else:
        denom = tf.beta * a
        if np.any(denom == 0.0):
            raise SingularityError(
                f"loglinear inverse undefined: beta * a = 0 at a = "
                f"{_first_offender(a, np.asarray(denom == 0.0)):g}"
            )
        # an overflow stays inf for the caller to report, without a warning
        with np.errstate(over="ignore"):
            out = np.exp(c / denom)
    return float(out) if out.ndim == 0 else out


def _first_offender(a: np.ndarray, mask: np.ndarray) -> float:
    return float(np.atleast_1d(a)[np.atleast_1d(mask)][0])


@dataclass(frozen=True)
class AuxiliaryEstimator:
    """Maps (source prediction, noisy target label) to an auxiliary label.

    The plain inverse G^{-1}_a(y) serves the families linear in b, which
    take no ``sigma2``. loglinear requires the label noise variance
    ``sigma2`` for its calibrated estimator; 0 declares noiseless labels.
    """

    transformation: TransformationFunction
    sigma2: float | None = None

    def __post_init__(self):
        tf = self.transformation
        if (tf.family is Family.LOGLINEAR) != (self.sigma2 is not None):
            raise ValueError(f"sigma2 is required by loglinear and read by no "
                             f"other family, got {self.sigma2} for {tf.label}")
        if self.sigma2 is not None and not self.sigma2 >= 0:
            raise ValueError("sigma2 must be >= 0")


def apply_H(est: AuxiliaryEstimator, a_hat, y):
    """Auxiliary label H(a_hat, y); vectorized over aligned arrays. The plain
    inverse unless loglinear's sigma2 > 0: at sigma2 = 0 the calibration's
    0 * a^2 term would be NaN once a^2 overflows."""
    tf = est.transformation
    if not est.sigma2:
        return inverse_G(tf, a_hat, y)
    a_hat = np.asarray(a_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = tf.beta * a_hat
    if np.any(denom == 0.0):
        raise SingularityError(
            f"loglinear calibration undefined: beta * a = 0 at a = "
            f"{_first_offender(a_hat, np.asarray(denom == 0.0)):g}"
        )
    with np.errstate(over="ignore"):
        out = np.exp(y / denom + est.sigma2 * a_hat**2)
    return float(out) if out.ndim == 0 else out


def estimate_sigma2(replicates) -> float:
    """Pooled within-point variance from replicated labels.

    ``replicates`` is one list of labels per input point; points with a
    single replicate contribute to neither sum.
    """
    num = 0.0
    denom = 0
    for group in replicates:
        ys = np.asarray(group, dtype=float)
        if ys.size < 2:
            continue
        num += float(np.sum((ys - ys.mean()) ** 2))
        denom += ys.size - 1
    if denom == 0:
        raise InsufficientReplicatesError(
            "need at least one input point with >= 2 replicated labels"
        )
    return num / denom


@dataclass(frozen=True)
class QuantizedFamily:
    """A symmetric grid over offset transformations for selection by
    validation risk.

    Members have alpha = k * epsilon for k = -K..K with epsilon =
    L_alpha / (2K), so the grid spans [-L_alpha/2, L_alpha/2] (half the
    declared |alpha| <= L_alpha class; by construction) and always contains
    alpha = 0, the non-transfer-equivalent member.
    """

    L_alpha: float
    K: int
    members: tuple[TransformationFunction, ...] = field(init=False)

    def __post_init__(self):
        if not self.L_alpha > 0:
            raise ValueError("L_alpha must be positive")
        if math.isinf(self.L_alpha):  # the grid step L_alpha / (2K) must be finite
            raise ValueError("L_alpha must be finite")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        eps = self.L_alpha / (2 * self.K)
        members = tuple(offset(k * eps) for k in range(-self.K, self.K + 1))
        object.__setattr__(self, "members", members)

    @property
    def alphas(self) -> np.ndarray:
        return np.array([m.alpha for m in self.members])
