"""Algorithm 1 run literally: a reference for ``experiment.run_experiment``.

``reference_run(config)`` draws every seed's samples from the runner's
``child_seed`` streams and fits every method of every cell from scratch,
with none of the runner's sharing:

- one ``spec.fit`` per method and stage, the source stage refit for each
  method that needs it;
- k-fold CV as one ``spec.fit(train.without(rows))`` per fold and
  candidate, scored in fold order;
- no memoized predictors, no shared target-stage fits, no label-row fits
  and no one-pass fold predictions;
- a selection member is the whole pipeline of an HTL method of its
  transformation: its auxiliary sample, its own target-stage CV, its fit.

It returns the runner's ``rows`` and ``errors`` and, for a selection run,
each seed's (label, validation MSE) per candidate.
"""

from __future__ import annotations

import math

import numpy as np

from htlreg.data import Dataset, DomainTag, generate_synthetic, subsample
from htlreg.evaluation import excess_risk_mc, mc_sample, metric_report
from htlreg.experiment import (
    _CV_SOURCE,
    _CV_TARGET,
    _EXCESS,
    _RATE_BASE,
    _SOURCE,
    _TARGET,
    _TEST,
    _VALIDATION,
    ExperimentConfig,
    MethodConfig,
    child_seed,
    cv_folds_indices,
)
from htlreg.pipeline import HTLPredictor, construct_auxiliary
from htlreg.ridge import ConditioningError
from htlreg.transform import AuxiliaryEstimator

METHOD_ERRORS = (ValueError, ConditioningError)


def resolve(method: MethodConfig, train: Dataset, seed: int):
    """The lone candidate, or the one with the lowest mean fold MSE, the
    first on ties."""
    if len(method.candidates) == 1:
        return method.candidates[0]
    parts = cv_folds_indices(train.n, method.cv_folds, seed)
    scores = []
    for spec in method.candidates:
        total = 0.0
        for rows in parts:
            pred = spec.fit(train.without(rows)).predict(train.features[rows])
            total += float(np.mean((train.labels[rows] - pred) ** 2))
        scores.append(total / len(parts))
    return method.candidates[int(np.argmin(scores))]


def fit(method: MethodConfig, train: Dataset, seed: int):
    return resolve(method, train, seed).fit(train)


def htl(config: ExperimentConfig, source: Dataset, target: Dataset,
        est: AuxiliaryEstimator, seed: int) -> HTLPredictor:
    f_so_hat = fit(config.source_method, source, child_seed(seed, _CV_SOURCE))
    aux, _ = construct_auxiliary(target, f_so_hat, est)
    w_hat = fit(config.target_method, aux, child_seed(seed, _CV_TARGET))
    return HTLPredictor(f_so_hat, w_hat, est.transformation)


def cells(config: ExperimentConfig, seed: int):
    """(n_ta label, source, target, test, validation) per cell of a seed."""
    if config.samples is not None:  # csv_transfer
        source, target = config.samples
        if config.n_so < source.n:
            source = subsample(source, config.n_so, child_seed(seed, _SOURCE))
        perm = np.random.default_rng(child_seed(seed, _TARGET)).permutation(target.n)

        def rows(idx):
            return Dataset(features=target.features[idx], labels=target.labels[idx],
                           domain_tag=DomainTag.TARGET)

        test = rows(perm[max(config.n_ta_sizes):])
        return [(n, source, rows(perm[:n]), test, None) for n in config.n_ta_sizes]

    def draw(n, tag, stream):
        if n is None:
            return None
        return generate_synthetic(config.synthetic, n, tag, child_seed(seed, stream))

    sweep = config.experiment_kind == "rate_sweep"
    source = draw(config.n_so, DomainTag.SOURCE, _SOURCE)
    test = draw(config.n_test, DomainTag.TARGET, _TEST)
    validation = draw(config.n_val, DomainTag.VALIDATION, _VALIDATION)
    return [(n if sweep else None, source,
             draw(n, DomainTag.TARGET, _RATE_BASE + k if sweep else _TARGET),
             test, validation)
            for k, n in enumerate(config.n_ta_sizes)]


def reference_run(config: ExperimentConfig):
    """(rows, errors, selections) of the config's run, fit literally."""
    rows, errors, selections = [], [], []
    truth = config.synthetic
    for seed in config.seeds:
        sample = None if truth is None else mc_sample(
            truth.target_fn, truth.input_sampler, 2000, child_seed(seed, _EXCESS))
        for n_ta, source, target, test, validation in cells(config, seed):
            methods = [(b, b) for b in config.baselines]
            methods += [(f"htl_{e.transformation.label}", e)
                        for e in config.transformations]
            if config.selection_family is not None:
                methods.append((None, config.selection_family))
            for name, item in methods:
                cell = {"method": name, "n_ta": n_ta, "seed": seed}
                cell = {k: v for k, v in cell.items() if v is not None}
                try:
                    if name is None:
                        scored = select(config, source, target, validation,
                                        item.members, seed)
                        selections.append(scored)
                        best = min(range(len(scored)), key=lambda i: (
                            scored[i][1], item.members[i].tie_break_key, i))
                        chosen = item.members[best]
                        rows.append({**cell, "chosen": chosen.label,
                                     "chosen_alpha": chosen.alpha,
                                     "chosen_validation_mse": scored[best][1]})
                        continue
                    if name == "only_source":
                        pred = fit(config.source_method, source,
                                   child_seed(seed, _CV_SOURCE))
                    elif name == "only_target":
                        pred = fit(config.target_method, target,
                                   child_seed(seed, _CV_TARGET))
                    elif name == "combined":
                        pooled = Dataset(
                            features=np.vstack([source.features, target.features]),
                            labels=np.concatenate([source.labels, target.labels]))
                        pred = fit(config.target_method, pooled,
                                   child_seed(seed, _CV_TARGET))
                    else:
                        pred = htl(config, source, target, item, seed)
                    scores = {}
                    if test is not None:
                        report = metric_report(pred, test)
                        scores.update(mse=report.mse, r_squared=report.r_squared)
                    if sample is not None:
                        scores["excess_risk"] = excess_risk_mc(pred, sample)
                    if not all(math.isfinite(v) for v in scores.values()):
                        raise ValueError(f"non-finite metric in {scores}")
                    rows.append({**cell, **scores})
                except METHOD_ERRORS as exc:
                    errors.append({**cell, "error": str(exc),
                                   "type": type(exc).__name__})
    return rows, errors, selections


def select(config, source, target, validation, members, seed):
    """(label, validation MSE) per member, each member's pipeline fit and
    scored in roster order."""
    scored = []
    for tf in members:
        pred = htl(config, source, target, AuxiliaryEstimator(tf), seed)
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = validation.labels - pred.predict(validation.features)
            mse = float(np.mean(residuals ** 2))
        if not math.isfinite(mse):
            raise ValueError(f"candidate {tf.label}: non-finite validation MSE {mse}")
        scored.append((tf.label, mse))
    return tuple(scored)
