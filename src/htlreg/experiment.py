"""Config-driven experiment harness: parse, run, report.

Configs are JSON (schema in the README). A run regenerates data per seed,
fits every configured method, and writes three artifacts to the output
directory: ``report.json`` (full results), ``per_seed.csv`` (one row per
(method, seed[, n_ta])), and ``plot_series.csv`` (plot-ready curves).
Reports carry no timestamps, aggregate in deterministic (method, seed)
order, and serialize with sorted keys, so identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .data import (
    CsvError,
    Dataset,
    DomainTag,
    SyntheticSpec,
    doppler_fn,
    generate_synthetic,
    linear_w,
    load_csv,
    subsample,
)
from .evaluation import excess_risk_mc, mc_sample, metric_report, rate_slope
from .pipeline import (
    FIT_ERRORS,
    BandwidthRule,
    KRRSpec,
    KSSpec,
    LambdaRule,
    MemoPredictor,
    Predictor,
    SelectionResult,
    SubroutineSpec,
    fit_or_fail,
    fit_target_stages,
    score_candidates,
)
from .ridge import KernelShape, RKHSKernel, krr_path, predict_path
from .smoothing import SmoothingKernel, ks_cv_predict, ks_predict
from .transform import (
    AuxiliaryEstimator,
    QuantizedFamily,
    loglinear,
    non_transfer,
    offset,
    scale,
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad key."""


BUILTIN_BASELINES = ("only_target", "only_source", "combined")


def child_seed(seed: int, stream: int) -> int:
    """Deterministic per-purpose substream seed for a user-facing seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


# substream ids
_SOURCE, _TARGET, _VALIDATION, _TEST, _CV_SOURCE, _CV_TARGET, _EXCESS = range(7)
_RATE_BASE = 100  # + index of n_ta in the sweep grid


# ---------------------------------------------------------------------------
# configuration
#
# The parser builds the pipeline's own objects; their constructors hold the
# validity rules, and _section reports what they reject as a ConfigError.


@dataclass(frozen=True)
class MethodConfig:
    """One subroutine stage: its candidate specs. A fixed value or a rule is
    one candidate; two or more are resolved by k-fold CV."""

    candidates: tuple[SubroutineSpec, ...]
    cv_folds: int = 10

    def __post_init__(self):
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be at least 2, got {self.cv_folds}")

    def resolve(self, train: Dataset, seed: int) -> SubroutineSpec:
        """The lone candidate, or the CV winner on ``train``."""
        if len(self.candidates) == 1:
            return self.candidates[0]
        best, _ = grid_search_cv(train, self.candidates, self.cv_folds, seed)
        return best

    def fit(self, train: Dataset, seed: int) -> Predictor:
        """The resolved candidate fit on ``train``."""
        return self.resolve(train, seed).fit(train)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_kind: str
    data: dict  # CSV paths resolved against the config's directory
    synthetic: SyntheticSpec | None  # the truth; None for CSV data
    # the loaded (source, target) CSV samples; None for synthetic data
    samples: tuple[Dataset, Dataset] | None = field(repr=False, compare=False)
    n_so: int  # for CSV data, the source rows each seed draws
    n_ta_sizes: tuple[int, ...]  # one per cell of a seed
    n_val: int | None  # None: a seed draws no validation sample
    n_test: int | None  # None: a seed draws no test sample
    source_method: MethodConfig
    target_method: MethodConfig
    baselines: tuple[str, ...]
    transformations: tuple[AuxiliaryEstimator, ...]
    selection_family: QuantizedFamily | None
    seeds: tuple[int, ...]
    output_dir: Path
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def n_ta(self) -> int:
        """The first target sample size; ``bench/run.py`` reads it."""
        return self.n_ta_sizes[0]


@contextmanager
def _section(where: str):
    """Report a constructor's TypeError or ValueError as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


_REQUIRED = object()
_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", list: "a list", dict: "an object"}


def _read(section, key, where: str, kind: type, default=_REQUIRED):
    """``section[key]``, named ``where``, as the JSON ``kind``: ``int`` takes
    JSON integers and integral floats such as 100.0, ``float`` any finite
    JSON number, and ``bool``, ``str``, ``list`` and ``dict`` their own
    values. JSON parsing accepts NaN, Infinity and overflowing literals such
    as 1e999; no key takes one. A missing key gives ``default``; without
    one, and for a value of another kind, the result is a ConfigError."""
    try:
        value = section[key]
    except KeyError:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {where}") from None
        return default
    if kind not in (int, float):
        if isinstance(value, kind):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind is float and abs(value) <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")


def _items(values: list, where: str, kind: type) -> list:
    """A JSON list's items as ``kind``, each named by its index."""
    return [_read(values, i, f"{where}[{i}]", kind) for i in range(len(values))]


def _check_keys(cfg: dict, allowed, where: str, owner: str | None = None) -> None:
    """Reject a key outside ``allowed``, the keys ``owner`` reads if given."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown and owner is not None:
        raise ConfigError(f"{where}.{unknown[0]}: not a key of {owner}")
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


def _numbers(section: dict, allowed, where: str, integers=()) -> dict:
    """A config object of numbers under the ``allowed`` keys, each read by
    type and named by its key: ``integers`` as ints, the others as reals."""
    _check_keys(section, allowed, where)
    return {k: _read(section, k, f"{where}.{k}", int if k in integers else float)
            for k in section}


def _distinct(values: Sequence, what: str, where: str) -> None:
    """Reject the first value of ``values`` that repeats an earlier one."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{where}: {what} {repeated[0]} appears more than once "
                          f"in {list(values)!r}")


def parse_seeds(values: list, where: str) -> tuple[int, ...]:
    """Seeds as a nonempty tuple of distinct nonnegative ints."""
    seeds = tuple(_items(values, where, int))
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"{where}: seeds must be a nonempty list of nonnegative "
                          f"ints, got {values!r}")
    _distinct(seeds, "seed", where)
    return seeds


# the top-level keys of every kind; a selection run adds "selection_family",
# any other kind "transformations"
_TOP_KEYS = ("experiment_kind", "data", "sizes", "methods", "seeds", "output_dir")
# experiment kind -> keys of its data section
_DATA_KEYS = {
    "synthetic": ("noise_variance", "truth"),
    "csv_transfer": ("source_csv", "target_csv", "label_column", "n_ta"),
    "rate_sweep": ("noise_variance", "truth", "n_ta_grid"),
    "selection": ("noise_variance", "truth"),
}
EXPERIMENT_KINDS = tuple(_DATA_KEYS)
# experiment kind -> the sample sizes its seeds draw
_SIZE_KEYS = {
    "synthetic": ("n_so", "n_ta", "n_test"),
    "csv_transfer": ("n_so",),
    "rate_sweep": ("n_so",),
    "selection": ("n_so", "n_ta", "n_val"),
}
# method -> (spec type, hyperparameter key, its spec field, rule type)
_SUBROUTINES = {"ks": (KSSpec, "bandwidth", "bandwidth", BandwidthRule),
                "krr": (KRRSpec, "lambda", "lam", LambdaRule)}
# KRR kernel shape -> the keys its section may set besides "shape"
_RKHS_KEYS = {KernelShape.RBF: ("lengthscale",), KernelShape.LINEAR: (),
              KernelShape.POLYNOMIAL: ("degree", "offset")}
# transformation family -> (factory, {key its section may set: default});
# sigma2 goes to the loglinear estimator, every other key to the factory
_FAMILIES = {"offset": (offset, {"alpha": _REQUIRED, "aux_bound_B": math.inf}),
             "scale": (scale, {"alpha": _REQUIRED, "aux_bound_B": math.inf}),
             "non_transfer": (non_transfer, {}),
             "loglinear": (loglinear, {"beta": _REQUIRED, "sigma2": _REQUIRED,
                                       "aux_bound_B": math.inf})}


def _parse_kernel(method: str, raw: dict, where: str):
    if method == "ks":
        name = _read(raw, "kernel", where, str, "truncated_gaussian")
        names = [k.value for k in SmoothingKernel]
        if name not in names:
            raise ConfigError(f"{where}: expected one of "
                              f"{', '.join(map(repr, names))}, got {name!r}")
        return SmoothingKernel(name)
    params = dict(_read(raw, "kernel", where, dict, {}))
    shape = params.pop("shape", "rbf")
    if shape not in [s.value for s in KernelShape]:
        raise ConfigError(f"{where}.shape: expected 'rbf', 'linear' or "
                          f"'polynomial', got {shape!r}")
    shape = KernelShape(shape)
    return RKHSKernel(shape, **_numbers(params, _RKHS_KEYS[shape], where,
                                        integers=("degree",)))


def parse_method(raw: dict, where: str) -> MethodConfig:
    """A subroutine section. Its one hyperparameter key, ``bandwidth`` for
    ``ks`` and ``lambda`` for ``krr``, says by its JSON shape how the value
    is chosen: a number is fixed, a list of numbers is a grid that
    ``cv_folds``-fold CV resolves (a one-number list is that number), and an
    object is the rate rule's parameters."""
    method = _read(raw, "method", f"{where}.method", str)
    if method not in _SUBROUTINES:
        raise ConfigError(f"{where}.method: expected 'ks' or 'krr', got {method!r}")
    spec_type, key, field_name, rule_type = _SUBROUTINES[method]
    _check_keys(raw, ("method", "kernel", "cv_folds", key), where)
    name = f"{where}.{key}"
    value = _read(raw, key, name, object)  # its JSON shape picks the form
    if isinstance(value, (bool, str)) or value is None:
        raise ConfigError(f"{name}: expected a number, a list of numbers or a "
                          f"rule object, got {value!r}")
    if "cv_folds" in raw and not isinstance(value, list):
        raise ConfigError(f"{where}.cv_folds: only a list of {key} values is "
                          f"cross-validated, got {value!r}")
    with _section(f"{where}.kernel"):
        kernel = _parse_kernel(method, raw, f"{where}.kernel")
    with _section(name):
        if isinstance(value, dict):
            rule = _numbers(value, [f.name for f in fields(rule_type)], name)
            candidates = (spec_type(kernel, rule=rule_type(**rule)),)
        else:
            values = (_items(value, name, float) if isinstance(value, list)
                      else [_read(raw, key, name, float)])
            if not values:
                raise ConfigError(f"{name}: expected at least one value")
            candidates = tuple(spec_type(kernel, **{field_name: v}) for v in values)
    with _section(where):
        return MethodConfig(candidates,
                            _read(raw, "cv_folds", f"{where}.cv_folds", int, 10))


def parse_transformation(raw: dict, where: str) -> AuxiliaryEstimator:
    family = _read(raw, "family", f"{where}.family", str)
    if family not in _FAMILIES:
        raise ConfigError(f"{where}.family: unknown family {family!r}")
    make, keys = _FAMILIES[family]
    _check_keys(raw, ("family", *keys), where, f"the {family!r} family")
    params = {k: _read(raw, k, f"{where}.{k}", float, default)
              for k, default in keys.items()}
    sigma2 = params.pop("sigma2", None)
    with _section(where):
        return AuxiliaryEstimator(make(**params), sigma2)


def synthetic_spec(data: dict, tested: bool = False) -> SyntheticSpec:
    """The truth of a synthetic data section: a doppler source f_so and the
    target G(f_so, w) that ``data.truth`` names, an offset or scale
    transformation G and the line w(x) = slope * x + intercept, both 0
    unless given. Both domains' labels have the noise variance
    ``data.noise_variance``. A ``tested`` run scores r_squared on a test
    sample, so it rejects a constant target with no noise."""
    where = "config.data.truth"
    truth = _read(data, "truth", where, dict)
    _check_keys(truth, ("transformation", "w"), where)
    section = _read(truth, "transformation", f"{where}.transformation", dict)
    family = _read(section, "family", f"{where}.transformation.family", str)
    if family not in ("offset", "scale"):
        raise ConfigError(f"{where}.transformation.family: expected 'offset' or "
                          f"'scale', got {family!r}")
    _check_keys(section, ("family", "alpha"), f"{where}.transformation",
                f"a truth's {family!r} family")
    alpha = _read(section, "alpha", f"{where}.transformation.alpha", float)
    w = _numbers(_read(truth, "w", f"{where}.w", dict), ("slope", "intercept"),
                 f"{where}.w")
    noise = _read(data, "noise_variance", "config.data.noise_variance", float, 0.01)
    if tested and noise == 0 and w.get("slope", 0) == 0 and (
            alpha == 0 if family == "offset" else w.get("intercept", 0) == 0):
        raise ConfigError(f"{where}: a constant target with noise_variance 0 gives "
                          f"every test row one label, and r_squared needs 2 or more")
    return SyntheticSpec(doppler_fn, _FAMILIES[family][0](alpha), linear_w(**w),
                         noise_variance_source=noise, noise_variance_target=noise)


def _size(n: int, where: str) -> int:
    """A sample size ``n``, which must be positive."""
    if n < 1:
        raise ConfigError(f"{where}: expected a positive sample size, got {n}")
    return n


def _target_sizes(kind: str, data: dict, n_ta: int | None) -> tuple[str, list[int]]:
    """The key that sets a run's target sample sizes, and the sizes, which
    must be distinct: a rate sweep's list of at least 3 in ``n_ta_grid``, a
    CSV run's list in ``n_ta``, and any other kind's one ``sizes.n_ta``."""
    if kind not in ("rate_sweep", "csv_transfer"):
        return "config.sizes.n_ta", [n_ta]
    name = "n_ta_grid" if kind == "rate_sweep" else "n_ta"
    key = f"config.data.{name}"
    values = _read(data, name, key, list)
    sizes = [_size(n, f"{key}[{i}]") for i, n in enumerate(_items(values, key, int))]
    least = 3 if kind == "rate_sweep" else 1
    if len(sizes) < least:
        raise ConfigError(f"{key}: expected {least} or more sizes, got {values!r}")
    _distinct(sizes, "size", key)
    return key, sizes


def _load_csvs(data: dict, base_dir: Path | None) -> tuple[Dataset, Dataset]:
    """The (source, target) samples of a CSV run's data section, whose
    relative paths it resolves against ``base_dir`` in place."""
    label = _read(data, "label_column", "config.data.label_column", str, "y")
    samples = []
    for key in ("source_csv", "target_csv"):
        path = Path(_read(data, key, f"config.data.{key}", str))
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
            data[key] = str(path)
        if not path.exists():
            raise ConfigError(f"config.data.{key}: no such file: {path}")
        try:
            samples.append(load_csv(path, label))
        except CsvError as exc:
            raise ConfigError(f"config.data.{key}: {exc}") from None
    source, target = samples
    if target.dim != source.dim:
        raise ConfigError(f"config.data.target_csv: {target.dim} feature columns "
                          f"differ from the source CSV's {source.dim}")
    return replace(source, domain_tag=DomainTag.SOURCE), target


def _check_fold_sizes(method: MethodConfig, n: int, where: str) -> None:
    """Reject a sample of ``n`` rows too small for the stage's CV folds; a
    lone candidate is never cross-validated."""
    if len(method.candidates) > 1 and n < method.cv_folds:
        raise ConfigError(f"{where}.cv_folds: {method.cv_folds} folds need a "
                          f"sample of at least {method.cv_folds} rows, got {n}")


def parse_config(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """A checked config. A CSV run's files are loaded here, and relative
    paths in it resolve against ``base_dir``."""
    _read({"config": raw}, "config", "config", dict)
    kind = _read(raw, "experiment_kind", "config.experiment_kind", str)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"config.experiment_kind: {kind!r} not one of {EXPERIMENT_KINDS}"
        )
    # a selection run is its family alone; the other kinds take no family
    selection = kind == "selection"
    run = f"a {kind!r} run"
    _check_keys(raw, _TOP_KEYS + (("selection_family",) if selection
                                  else ("transformations",)), "config", run)
    data = dict(_read(raw, "data", "config.data", dict))
    _check_keys(data, _DATA_KEYS[kind], "config.data", run)
    sizes = _read(raw, "sizes", "config.sizes", dict, {})
    _check_keys(sizes, _SIZE_KEYS[kind], "config.sizes", run)
    # a csv_transfer run without n_so takes every source row
    size = {key: _read(sizes, key, f"config.sizes.{key}", int,
                       None if kind == "csv_transfer"
                       else 1000 if key == "n_test" else _REQUIRED)
            for key in _SIZE_KEYS[kind]}
    for key, n in size.items():
        if n is not None:
            _size(n, f"config.sizes.{key}")
    if size.get("n_test") == 1:
        raise ConfigError("config.sizes.n_test: r_squared needs 2 or more test "
                          "rows, got 1")
    n_so = size["n_so"]
    with _section("config.data"):
        synthetic = None if kind == "csv_transfer" else synthetic_spec(
            data, tested=size.get("n_test") is not None)
        ta_key, n_ta_values = _target_sizes(kind, data, size.get("n_ta"))
    methods = _read(raw, "methods", "config.methods", dict)
    _check_keys(methods, ("source", "target") + (() if selection else ("baselines",)),
                "config.methods", run)
    source_method, target_method = (
        parse_method(_read(methods, stage, f"config.methods.{stage}", dict),
                     f"config.methods.{stage}") for stage in ("source", "target"))
    _check_fold_sizes(target_method, min(n_ta_values), "config.methods.target")
    baselines = () if selection else tuple(_read(
        methods, "baselines", "config.methods.baselines", list, ["only_target"]))
    for b in baselines:
        if b not in BUILTIN_BASELINES:
            raise ConfigError(
                f"config.methods.baselines: unknown baseline {b!r} "
                f"(built-ins: {BUILTIN_BASELINES})"
            )
    _distinct(baselines, "baseline", "config.methods.baselines")
    transformations = ()
    for i, t in enumerate(_items(_read(raw, "transformations",
                                       "config.transformations", list, []),
                                 "config.transformations", dict)):
        where = f"config.transformations[{i}]"
        transformations += (parse_transformation(t, where),)
        _distinct([f"htl_{est.transformation.label}" for est in transformations],
                  "method", where)
    if not (selection or baselines or transformations):
        raise ConfigError("config.methods.baselines: a run needs at least one "
                          "method, got no baselines and no transformations")
    selection_family = None
    if selection:
        family = _numbers(_read(raw, "selection_family", "config.selection_family",
                                dict),
                          ("L_alpha", "K"), "config.selection_family", integers=("K",))
        with _section("config.selection_family"):
            selection_family = QuantizedFamily(**family)
    seeds = parse_seeds(_read(raw, "seeds", "config.seeds", list), "config.seeds")
    output_dir = Path(_read(raw, "output_dir", "config.output_dir", str,
                            "htlreg_out"))
    if base_dir is not None and not output_dir.is_absolute():
        output_dir = base_dir / output_dir
    samples = None
    if kind == "csv_transfer":
        samples = source, target = _load_csvs(data, base_dir)
        n_so = source.n if n_so is None else n_so
        if n_so > source.n:
            raise ConfigError(f"config.sizes.n_so: {n_so} rows exceed the "
                              f"{source.n} of the source CSV")
        largest = max(n_ta_values)
        if target.n - largest < 2:
            raise ConfigError(f"{ta_key}: largest size {largest} leaves "
                              f"{max(target.n - largest, 0)} of the {target.n} "
                              f"target rows to test, and r_squared needs 2 or more")
    _check_fold_sizes(source_method, n_so, "config.methods.source")
    return ExperimentConfig(
        experiment_kind=kind,
        data=data,
        synthetic=synthetic,
        samples=samples,
        n_so=n_so,
        n_ta_sizes=tuple(n_ta_values),
        n_val=size.get("n_val"),
        n_test=size.get("n_test"),
        source_method=source_method,
        target_method=target_method,
        baselines=baselines,
        transformations=transformations,
        selection_family=selection_family,
        seeds=seeds,
        output_dir=output_dir,
        raw=raw,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        # a byte-order mark is dropped after decoding: an error's offset counts it
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:  # no such file, a directory, or no read permission
        raise ConfigError(f"{path}: cannot read the config: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    return parse_config(raw, base_dir=path.parent)


# ---------------------------------------------------------------------------
# cross-validation grid search


def cv_folds_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """A seeded disjoint, exhaustive partition of range(n) into folds parts."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError(f"cannot split {n} rows into {folds} folds")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), folds)


def grid_search_cv(
    data: Dataset,
    candidates: Sequence[SubroutineSpec],
    folds: int,
    seed: int,
) -> tuple[SubroutineSpec, list[float]]:
    """Pick the candidate with the lowest mean across-fold validation MSE.

    Ties go to the first candidate in declared order. Returns the winner
    and the per-candidate mean CV errors.

    ``_fold_predictions`` picks each grid's CV path in one place. A grid
    that varies only the bandwidth of one compact-support kernel, on a 1-D
    sample, predicts every fold through ``ks_cv_predict``: one pass per
    bandwidth over the sample's cached sort, each row predicted from the
    rows outside its fold. Whatever a fit on one fold computes once per
    call is computed per fold there, so every prediction, and so every
    score, has the bits of fitting the fold alone. Every other grid fits
    each fold on ``data.without(test_idx)`` in one loop: a bandwidth grid
    through ``ks_predict`` with every bandwidth, a grid that varies only
    one kernel's lambda through ``krr_path`` (the same predictions, bit for
    bit, as fitting each candidate), and any other grid by fitting each
    candidate. A 1-D fold that is fit on its own sorts its own sample
    (``Dataset.sorted_1d``).
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("empty candidate grid")
    parts = cv_folds_indices(data.n, folds, seed)
    scores = np.zeros(len(candidates))
    for test_idx, preds in zip(parts, _fold_predictions(data, candidates, parts)):
        y_test = data.labels[test_idx]
        for j, pred in enumerate(preds):
            scores[j] += float(np.mean((y_test - pred) ** 2))
    scores /= len(parts)
    best = int(np.argmin(scores))
    return candidates[best], [float(s) for s in scores]


def _fold_predictions(data: Dataset, candidates,
                      parts) -> Iterable[list[np.ndarray]]:
    """Per part, every candidate's predictions at its rows when fit on the
    other rows: the one place that picks a grid's CV path."""
    kernel = candidates[0].kernel
    one_kernel = all(c.kernel == kernel for c in candidates)
    bandwidths = [c.bandwidth if isinstance(c, KSSpec) else None for c in candidates]
    lams = [c.lam if isinstance(c, KRRSpec) else None for c in candidates]
    if one_kernel and None not in bandwidths and data.dim == 1 and kernel.compact:
        preds = ks_cv_predict(data, parts, kernel, bandwidths)
        return ([pred[rows] for pred in preds] for rows in parts)

    def fit(train: Dataset, X: np.ndarray) -> list[np.ndarray]:
        if one_kernel and None not in bandwidths:
            return ks_predict(train, X, kernel, bandwidths)
        if one_kernel and None not in lams:
            return predict_path(krr_path(train, kernel, lams), X)
        return [c.fit(train).predict(X) for c in candidates]
    return (fit(data.without(rows), data.features[rows]) for rows in parts)


# ---------------------------------------------------------------------------
# experiment execution


@dataclass
class SeedData:
    source: Dataset
    target: Dataset
    test: Dataset | None  # None: rows are scored by excess risk alone
    validation: Dataset | None


def _synthetic_cells(config: ExperimentConfig, seed: int) -> list[tuple]:
    """One seed's (n_ta, SeedData) cells, each sample from its own substream.

    A rate sweep has a cell per target size, labelled by it. Any other kind
    has one unlabelled cell. A seed draws a test sample when the config sets
    ``n_test`` and a validation sample when it sets ``n_val``.
    """
    def draw(n: int | None, tag: DomainTag, stream: int) -> Dataset | None:
        if n is None:
            return None
        return generate_synthetic(config.synthetic, n, tag, child_seed(seed, stream))

    sweep = config.experiment_kind == "rate_sweep"
    source = draw(config.n_so, DomainTag.SOURCE, _SOURCE)
    test = draw(config.n_test, DomainTag.TARGET, _TEST)
    validation = draw(config.n_val, DomainTag.VALIDATION, _VALIDATION)
    cells = []
    for k, n_ta in enumerate(config.n_ta_sizes):
        target = draw(n_ta, DomainTag.TARGET, _RATE_BASE + k if sweep else _TARGET)
        cells.append((n_ta if sweep else None,
                      SeedData(source, target, test, validation)))
    return cells


def _csv_cells(config: ExperimentConfig, seed: int) -> list[tuple]:
    """One seed's (n_ta, SeedData) cells from the loaded CSVs: subsample the
    source and permute the target rows; a cell trains on the first n_ta
    rows, and every cell tests on the rows past the largest n_ta."""
    source, target = config.samples
    if config.n_so < source.n:
        source = subsample(source, config.n_so, child_seed(seed, _SOURCE))
    perm = np.random.default_rng(child_seed(seed, _TARGET)).permutation(target.n)

    test = target.take(perm[max(config.n_ta_sizes):])
    return [(n_ta, SeedData(source, target.take(perm[:n_ta]), test, None))
            for n_ta in config.n_ta_sizes]


def _pooled(data: SeedData) -> Dataset:
    return Dataset(
        features=np.vstack([data.source.features, data.target.features]),
        labels=np.concatenate([data.source.labels, data.target.labels]),
        domain_tag=DomainTag.TARGET,
    )


def _method_names(config: ExperimentConfig) -> list[str]:
    """A cell's method rows in order: the baselines, then an HTL method per
    transformation. A selection run has none: its rows carry no method."""
    return [*config.baselines,
            *(f"htl_{est.transformation.label}" for est in config.transformations)]


def _score(pred: Predictor, data: SeedData,
           sample: Callable[[], Dataset] | None) -> dict[str, float]:
    """mse and r_squared on the test set, excess risk on the seed's Monte
    Carlo ``sample`` of the truth."""
    scores = {}
    if data.test is not None:
        report = metric_report(pred, data.test)
        scores.update(mse=report.mse, r_squared=report.r_squared)
    if sample is not None:
        scores["excess_risk"] = excess_risk_mc(pred, sample())
    if not all(math.isfinite(v) for v in scores.values()):
        raise ValueError(f"non-finite metric in {scores}")
    return scores


def _error(where: dict, exc: Exception) -> dict:
    """An ``errors`` entry: where it happened, the message and its type."""
    return {**where, "error": str(exc), "type": type(exc).__name__}


@dataclass(eq=False)
class _FitOnUse:
    """``fit()``, made on the first predict; a fit that raises is a
    ``FailedFit`` (``fit_or_fail``), so each predict raises its error."""

    fit: Callable[[], Predictor]

    @cached_property
    def fitted(self) -> Predictor:
        return fit_or_fail(self.fit)

    def predict(self, X) -> np.ndarray:
        return self.fitted.predict(X)


def _run_cells(config: ExperimentConfig,
               make_cells: Callable[[ExperimentConfig, int], list[tuple]]):
    """Score every method on each (n_ta, SeedData) cell of each seed.

    A cell's predictors come from one table (``_cell_predictors``): a
    method row scores its entry, and a selection row the members' entries.
    A seed's cells share one source stage f_so_hat, fit on its first
    predict, so a seed whose methods never read the source never fits it,
    and a ``MemoPredictor`` around it predicts once per distinct query
    array of the seed. A source fit that fails is a ``FailedFit``, so its
    error is recorded against every method that predicts through it. A
    synthetic seed draws its Monte Carlo sample and the truth on it once,
    on first use. Returns the rows, the failures, the first cell's scored
    predictors, and the selection results in row order.
    """
    rows: list[dict] = []
    errors: list[dict] = []
    selections: list[SelectionResult] = []
    first = None
    names = _method_names(config)
    family = config.selection_family
    truth = config.synthetic
    for seed in config.seeds:
        cells = make_cells(config, seed)
        f_so_hat = MemoPredictor(_FitOnUse(partial(
            config.source_method.fit, cells[0][1].source, child_seed(seed, _CV_SOURCE))))
        cv_seed = child_seed(seed, _CV_TARGET)
        sample = None if truth is None else cache(partial(
            mc_sample, truth.target_fn, truth.input_sampler, 2000,
            child_seed(seed, _EXCESS)))
        for n_ta, data in cells:
            preds = _cell_predictors(config, data, f_so_hat, cv_seed)
            cell = {"n_ta": n_ta, "seed": seed} if n_ta is not None else {"seed": seed}
            scored: dict[str, Predictor] = {}
            for name in names:
                try:
                    rows.append({"method": name, **cell,
                                 **_score(preds[name], data, sample)})
                    scored[name] = preds[name]  # plotted only once it has scored
                except FIT_ERRORS as exc:  # recorded, run continues
                    errors.append(_error({"method": name, **cell}, exc))
            if family is not None:
                try:
                    result = score_candidates(data.validation, family.members,
                                              [preds[tf.label] for tf in family.members])
                except FIT_ERRORS as exc:
                    errors.append(_error(cell, exc))
                else:
                    selections.append(result)
                    _, chosen_mse = result.per_candidate_validation_mse[
                        result.chosen_index]
                    rows.append({**cell, "chosen": result.chosen.label,
                                 "chosen_alpha": result.chosen.alpha,
                                 "chosen_validation_mse": chosen_mse})
            if first is None:
                first = scored
    return rows, errors, first, selections


def _cell_predictors(config: ExperimentConfig, data: SeedData, f_so_hat: Predictor,
                     cv_seed: int) -> dict[str, Predictor]:
    """A cell's predictor per method, by name, and per selection member,
    by its label.

    ``only_source`` is ``f_so_hat``; ``combined`` is fit on the pooled
    sample on its first predict, at its own row. The other target stages
    come from one ``fit_target_stages`` call: ``only_target``'s fit on the
    target sample, and each HTL method's and member's on its auxiliary
    sample, composed with ``f_so_hat``, so a member is the pipeline an HTL
    method of its transformation fits. Stages whose specs are equal share
    one fit, and a stage that fails raises its error when it predicts.
    """
    preds: dict[str, Predictor] = {"only_source": f_so_hat, "combined": _FitOnUse(
        lambda: config.target_method.fit(_pooled(data), cv_seed))}
    estimators = {"only_target": None} if "only_target" in config.baselines else {}
    estimators.update((f"htl_{est.transformation.label}", est)
                      for est in config.transformations)
    if config.selection_family is not None:
        estimators.update((tf.label, AuxiliaryEstimator(tf))
                          for tf in config.selection_family.members)
    preds.update(zip(estimators, fit_target_stages(
        f_so_hat, data.target, list(estimators.values()),
        partial(config.target_method.resolve, seed=cv_seed))))
    return preds


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every configured (method, seed) cell and write the report artifacts.

    Returns the report dict; ``report["errors"]`` is nonempty when some
    method failed (the run itself continues).
    """
    report = _run_report(config)
    report["experiment_kind"] = config.experiment_kind
    report["toolkit_version"] = __version__
    report["config"] = {**config.raw, "seeds": list(config.seeds)}
    _write_artifacts(config, report)
    return report


def _run_report(config: ExperimentConfig) -> dict:
    """Every kind: one cell loop, then a summary per kind."""
    kind = config.experiment_kind
    rows, errors, first, selections = _run_cells(
        config, _csv_cells if kind == "csv_transfer" else _synthetic_cells)
    if kind == "selection":  # mean validation MSE per candidate, choice counts
        family = config.selection_family
        mses: dict[str, list[float]] = {m.label: [] for m in family.members}
        for result in selections:
            for label, value in result.per_candidate_validation_mse:
                mses[label].append(value)
        counts = Counter(row["chosen"] for row in rows)
        return {"rows": rows, "errors": errors,
                "plot_series": [{"candidate": label, "mean_validation_mse":
                                 float(np.mean(vals)) if vals else None}
                                for label, vals in mses.items()],
                "aggregates": [{"chosen": k, "count": v}
                               for k, v in sorted(counts.items())],
                "candidate_alphas": [float(a) for a in family.alphas]}
    metrics = ("mse", "r_squared", "excess_risk")
    if kind == "synthetic":
        return {"rows": rows, "aggregates": _aggregate(rows, ("method",), metrics),
                "errors": errors,
                "plot_series": _prediction_series(config.synthetic, first)}
    agg = _aggregate(rows, ("method", "n_ta"), metrics)
    plotted = "mean_excess_risk" if kind == "rate_sweep" else "mean_mse"
    report = {"rows": rows, "aggregates": agg, "errors": errors,
              "plot_series": [{"n_ta": a["n_ta"], "method": a["method"],
                               plotted: a.get(plotted)} for a in agg]}
    if kind == "rate_sweep":
        report["rate_fits"] = {}
        for name in _method_names(config):
            points = [(a["n_ta"], a["mean_excess_risk"]) for a in agg
                      if a["method"] == name
                      and a.get("mean_excess_risk") is not None]
            if len(points) < 3:
                continue
            try:
                fit = rate_slope(points)
            except ValueError as exc:  # e.g. a zero risk has no logarithm
                errors.append(_error({"method": name, "stage": "rate_fit"}, exc))
            else:
                report["rate_fits"][name] = {
                    "slope": fit.slope, "intercept": fit.intercept,
                    "points": [[int(n), r] for n, r in fit.points]}
    return report


def _aggregate(rows: list[dict], keys: tuple[str, ...], value_fields) -> list[dict]:
    """Mean and sample standard deviation per key group, in first-seen order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row.get(k) for k in keys), []).append(row)
    out = []
    for key, member_rows in groups.items():
        agg = dict(zip(keys, key))
        agg["n_rows"] = len(member_rows)
        for field_name in value_fields:
            values = [r[field_name] for r in member_rows if field_name in r]
            if not values:
                continue
            arr = np.asarray(values, dtype=float)
            agg[f"mean_{field_name}"] = float(arr.mean())
            agg[f"std_{field_name}"] = (
                float(arr.std(ddof=1)) if len(arr) > 1 else None
            )
        out.append(agg)
    return out


def _prediction_series(truth: SyntheticSpec,
                       predictors: dict[str, Predictor]) -> list[dict]:
    """Per-method predictions on the 1-D doppler's x grid (first seed), for
    plotting."""
    grid = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
    series = {"x": grid[:, 0], "truth": np.asarray(truth.target_fn(grid))}
    for name, pred in predictors.items():
        series[name] = np.asarray(pred.predict(grid))
    names = list(series)
    return [
        {name: float(series[name][i]) for name in names}
        for i in range(len(grid))
    ]


# ---------------------------------------------------------------------------
# artifacts


def _write_artifacts(config: ExperimentConfig, report: dict) -> None:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    _write_csv(out / "per_seed.csv", report.get("rows", []))
    _write_csv(out / "plot_series.csv", report.get("plot_series", []))


def _write_csv(path: Path, rows: list[dict]) -> None:
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        if not rows:
            fh.write("\n")
            return
        fields = list(dict.fromkeys(key for row in rows for key in row))
        writer = _csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            # a float as repr, the shortest string that reads back to its bits
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
