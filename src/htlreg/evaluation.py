"""Metrics, Monte Carlo excess risk, rate slopes, and stability probes.

Everything here is a pure function of immutable inputs. Excess risk against
a known truth is measured as E[(f_hat(X) - f_ta(X))^2]: with label noise
this equals the true risk minus its irreducible floor, and the noiseless
form keeps desk-scale rate sweeps low-variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, InputSampler, TruthFn
from .pipeline import Predictor


class DegenerateLabelsError(ValueError):
    """R-squared is undefined when every evaluation label is identical."""


class StabilityBoundViolation(RuntimeError):
    """A perturbation probe observed a change exceeding its stated bound."""


@dataclass(frozen=True)
class MetricReport:
    mse: float
    r_squared: float


def metric_report(pred: Predictor, data: Dataset) -> MetricReport:
    """Mean squared error and R-squared, 1 - SS_res / SS_tot about the
    evaluation-set label mean, of ``pred`` on ``data``.

    R-squared is negative when ``pred`` predicts unseen samples worse than
    the mean would.
    """
    residuals = data.labels - pred.predict(data.features)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((data.labels - data.labels.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateLabelsError("all evaluation labels identical")
    return MetricReport(mse=ss_res / data.n, r_squared=1.0 - ss_res / ss_tot)


def mc_sample(truth: TruthFn, sampler: InputSampler, n_mc: int, seed: int) -> Dataset:
    """A seeded Monte Carlo sample of ``n_mc`` inputs, labelled by the
    noiseless ``truth``; ``excess_risk_mc`` scores any number of predictors
    on it."""
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    X = sampler(np.random.default_rng(seed), n_mc)
    return Dataset(features=X, labels=truth(X))


def excess_risk_mc(pred: Predictor, sample: Dataset) -> float:
    """Monte Carlo estimate of E[(pred(X) - truth(X))^2] on a ``mc_sample``."""
    diff = np.asarray(pred.predict(sample.features)) - sample.labels
    return float(np.mean(diff**2))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(risk) on ln(n)."""

    points: tuple[tuple[int, float], ...]
    slope: float
    intercept: float


def rate_slope(points: Sequence[tuple[int, float]]) -> RateFit:
    points = [(int(n), float(r)) for n, r in points]
    if len(points) < 3:
        raise ValueError("rate fit needs at least 3 points")
    ns = np.array([p[0] for p in points], dtype=float)
    risks = np.array([p[1] for p in points])
    if np.any(risks <= 0):
        raise ValueError("risks must be positive for a log-log fit")
    if len(set(ns)) != len(ns):
        raise ValueError("sample sizes must be distinct")
    slope, intercept = np.polyfit(np.log(ns), np.log(risks), deg=1)
    return RateFit(points=tuple(points), slope=float(slope), intercept=float(intercept))


BoundCoeffs = Callable[[np.ndarray], np.ndarray]  # query point -> (n,) coefficients


def stability_probe(
    fit_fn: Callable[[Dataset], Predictor],
    base: Dataset,
    perturbation: np.ndarray,
    bound_coeffs: np.ndarray | BoundCoeffs,
    query_grid: np.ndarray,
    rtol: float = 1e-9,
) -> tuple[float, float]:
    """Check a label-perturbation bound |f(x) - f~(x)| <= sum_i c_i |delta_i|.

    Fits on ``base`` and on a copy with ``perturbation`` added to the
    labels, then compares the prediction gap with the bound on every grid
    point. ``bound_coeffs`` is either a constant coefficient vector or a
    per-query callable (kernel smoothing uses its weights at x). Returns
    (observed_sup, bound), where bound is the largest per-query bound;
    raises StabilityBoundViolation if any grid point exceeds its bound.
    """
    perturbation = np.asarray(perturbation, dtype=float)
    if perturbation.shape != (base.n,):
        raise ValueError(f"perturbation must have shape ({base.n},)")
    query_grid = np.atleast_2d(np.asarray(query_grid, dtype=float))
    perturbed = base.with_labels(base.labels + perturbation)
    f_base = fit_fn(base)
    f_pert = fit_fn(perturbed)
    gaps = np.abs(np.asarray(f_base.predict(query_grid)) -
                  np.asarray(f_pert.predict(query_grid)))
    abs_delta = np.abs(perturbation)
    if callable(bound_coeffs):
        bounds = np.array(
            [float(np.asarray(bound_coeffs(x)) @ abs_delta) for x in query_grid]
        )
    else:
        coeffs = np.asarray(bound_coeffs, dtype=float)
        bounds = np.full(len(query_grid), float(coeffs @ abs_delta))
    slack = rtol * np.maximum(bounds, 1.0)
    if np.any(gaps > bounds + slack):
        worst = int(np.argmax(gaps - bounds))
        raise StabilityBoundViolation(
            f"observed change {gaps[worst]:g} exceeds bound {bounds[worst]:g} "
            f"at grid point {query_grid[worst]}"
        )
    return float(gaps.max()), float(bounds.max())


def default_query_grid(
    low: np.ndarray, high: np.ndarray, seed: int = 0, size: int = 200
) -> np.ndarray:
    """Equispaced grid on [low, high] for d=1; seeded uniform points for d>1."""
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    if low.shape != high.shape:
        raise ValueError("low and high must have the same shape")
    d = low.shape[0]
    if d == 1:
        return np.linspace(low[0], high[0], size).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(size, d))
