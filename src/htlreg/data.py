"""Datasets, synthetic benchmark generation, CSV ingestion, subsampling,
and the pairwise squared distances the kernel subroutines share.

All randomness flows through ``numpy.random.default_rng`` (PCG64). Every
randomized operation takes an explicit 64-bit seed and is a pure function of
(inputs, seed), so generated data is bit-identical across runs on the same
platform.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .transform import TransformationFunction, eval_G, offset


class DomainTag(Enum):
    SOURCE = "source"
    TARGET = "target"
    VALIDATION = "validation"


class CsvError(ValueError):
    """Malformed CSV input: ragged rows, non-numeric cells, bad label column."""


@dataclass(frozen=True)
class Dataset:
    """An immutable regression sample of finite features (n, d) and labels
    (n,).

    Immutable apart from the stable ascending order of the first feature
    column, ``sorted_1d``, cached on first use (recomputing it is harmless).
    """

    features: np.ndarray
    labels: np.ndarray
    domain_tag: DomainTag = DomainTag.TARGET

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels, dtype=float).ravel()
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature rows ({features.shape[0]}) != labels ({labels.shape[0]})"
            )
        if features.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        if not (np.isfinite(features).all() and np.isfinite(labels).all()):
            raise ValueError("features and labels must be finite")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def sorted_1d(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first feature column in stable ascending order, with the
        labels and the row indices in the same order.

        The default sort is tried first. A column without equal values has
        exactly one ascending order, so its result is the stable order; only
        a column with ties, -0.0 and 0.0 among them, is sorted again stably.
        """
        column = self.features[:, 0]
        order = np.argsort(column)
        xs = column[order]
        if (xs[1:] == xs[:-1]).any():
            order = np.argsort(column, kind="stable")
            xs = column[order]
        return xs, self.labels[order], order

    def with_labels(self, labels) -> Dataset:
        """The sample with ``labels``, one finite label per row, in place of
        its own. The features, already checked, are this sample's own
        read-only array, shared and not checked again."""
        labels = np.asarray(labels, dtype=float).ravel()
        if labels.shape != (self.n,) or not np.isfinite(labels).all():
            raise ValueError(f"labels must be {self.n} finite values, one per row")
        return self._checked(self.features, labels)

    def take(self, rows) -> Dataset:
        """The sample's ``rows``, one or more, in that order, with this
        sample's domain tag; their values are not checked again."""
        features, labels = self.features[rows], self.labels[rows]
        if labels.ndim != 1 or len(labels) < 1:
            raise ValueError("take needs one or more row indices")
        return self._checked(features, labels)

    def without(self, rows: np.ndarray) -> Dataset:
        """The sample less ``rows``, the rest in row order, with this
        sample's domain tag: a CV fold's training sample."""
        return self.take(np.delete(np.arange(self.n), rows))

    def _checked(self, features: np.ndarray, labels: np.ndarray) -> Dataset:
        """This sample's domain tag on arrays that have passed its checks,
        made read-only and not checked again."""
        features.setflags(write=False)
        labels.setflags(write=False)
        sample = object.__new__(Dataset)  # its frozen fields set in its __dict__
        vars(sample).update(features=features, labels=labels, domain_tag=self.domain_tag)
        return sample


def as_queries(X, dim: int) -> np.ndarray:
    """``X`` as a 2-D float array of finite queries of ``dim`` features: the
    one query check of every fitted predictor."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != dim:
        raise ValueError(f"query dim {X.shape[1]} != training dim {dim}")
    if not np.isfinite(X).all():
        raise ValueError("queries must be finite")
    return X


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A (m, d) and B (n, d).

    scipy is imported here, on first use, so a run that never needs a dense
    distance matrix (1-D compact-kernel smoothing) never loads it.
    """
    from scipy.spatial.distance import cdist

    return cdist(A, B, metric="sqeuclidean")


# Truth functions map a feature matrix (n, d) to labels (n,).
TruthFn = Callable[[np.ndarray], np.ndarray]
# Samplers map (rng, n) to a feature matrix (n, d).
InputSampler = Callable[[np.random.Generator, int], np.ndarray]


def uniform_sampler(dim: int, low: float = 0.0, high: float = 1.0) -> InputSampler:
    """I.i.d. uniform draws on [low, high]^dim (the default input law)."""

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(low, high, size=(n, dim))

    return sample


@dataclass(frozen=True)
class SyntheticSpec:
    """A source truth f_so and a target truth G(f_so, w), for a
    transformation G and a true auxiliary function w, with Gaussian label
    noise."""

    source_fn: TruthFn
    transformation: TransformationFunction
    w: TruthFn
    input_sampler: InputSampler = field(default_factory=lambda: uniform_sampler(1))
    noise_variance_source: float = 0.0
    noise_variance_target: float = 0.0

    def __post_init__(self):
        if not (self.noise_variance_source >= 0 and self.noise_variance_target >= 0):
            raise ValueError("noise variances must be nonnegative")

    def target_fn(self, X: np.ndarray) -> np.ndarray:
        """f_ta(X) = G(f_so(X), w(X))."""
        return eval_G(self.transformation, self.source_fn(X), self.w(X))

    def truth(self, tag: DomainTag) -> TruthFn:
        return self.source_fn if tag is DomainTag.SOURCE else self.target_fn

    def noise_variance(self, tag: DomainTag) -> float:
        if tag is DomainTag.SOURCE:
            return self.noise_variance_source
        return self.noise_variance_target


def doppler(x):
    """The Doppler benchmark curve sqrt(x(1-x)) * sin(2.1*pi / (x + 0.05)).

    Defined on [0, 1]; rough near 0, where the oscillation period shrinks
    like (x + 0.05)^2. Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("doppler is defined on [0, 1]")
    out = np.sqrt(x * (1.0 - x)) * np.sin(2.1 * np.pi / (x + 0.05))
    return float(out) if out.ndim == 0 else out


def doppler_fn(X: np.ndarray) -> np.ndarray:
    """Doppler as a truth function of a 1-d feature matrix."""
    return doppler(np.asarray(X)[:, 0])


def linear_w(slope: float = 0.0, intercept: float = 0.0) -> TruthFn:
    """w(x) = slope * x + intercept on the first feature."""
    return lambda X: slope * np.asarray(X)[:, 0] + intercept


def kin_analog_spec(
    noise_variance_source: float = 0.001, noise_variance_target: float = 0.01
) -> SyntheticSpec:
    """An 8-dimensional stand-in for the robot-arm transfer benchmarks: a
    smooth, low-noise source and a rougher, noisier target, offset(1) from it
    by w(x) = 0.5 sin(4 pi x_1) x_2."""
    weights = np.array([0.35, -0.2, 0.15, 0.1, -0.25, 0.2, 0.05, -0.1])

    def f_so(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ weights + 0.25 * np.sin(2.0 * np.pi * X[:, 0])

    def w(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return 0.5 * np.sin(4.0 * np.pi * X[:, 1]) * X[:, 2]

    return SyntheticSpec(f_so, offset(1.0), w, uniform_sampler(8),
                         noise_variance_source, noise_variance_target)


def generate_synthetic(
    spec: SyntheticSpec, n: int, domain_tag: DomainTag, seed: int
) -> Dataset:
    """Draw n i.i.d. inputs and noisy labels for the tagged domain.

    Validation data is drawn from the target domain's law. Identical seeds
    give bit-identical datasets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    X = spec.input_sampler(rng, n)
    truth = spec.truth(domain_tag)
    sigma2 = spec.noise_variance(domain_tag)
    labels = np.asarray(truth(X), dtype=float).ravel()
    if sigma2 > 0:
        labels = labels + rng.normal(0.0, math.sqrt(sigma2), size=n)
    return Dataset(features=X, labels=labels, domain_tag=domain_tag)


def load_csv(path, label_column: str) -> Dataset:
    """Load a numeric CSV (one header line, comma-delimited) as a Dataset.

    ``label_column`` names the label's header; the remaining columns become
    features in file order. Blank rows are skipped. Raises
    FileNotFoundError for a missing file and CsvError for a file that is not
    UTF-8 text (naming the byte) or for structural problems (naming the
    offending row/column).
    """
    path = Path(path)
    try:  # a byte-order mark is dropped after decoding: an error's offset counts it
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise CsvError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                       f"{exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise CsvError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in header]
    if label_column not in header:
        raise CsvError(f"{path}: label column {label_column!r} not in header {header}")
    label_idx = header.index(label_column)
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvError(
                f"{path}: row at line {lineno} has {len(row)} cells, "
                f"expected {len(header)}"
            )
        parsed = []
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvError(
                    f"{path}: non-numeric cell {cell!r} at line {lineno}, "
                    f"column {header[col]!r}"
                ) from None
            if not math.isfinite(value):
                raise CsvError(
                    f"{path}: non-finite value {cell!r} at line {lineno}, "
                    f"column {header[col]!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise CsvError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    labels = table[:, label_idx]
    features = np.delete(table, label_idx, axis=1)
    if features.shape[1] == 0:
        raise CsvError(f"{path}: no feature columns besides the label")
    return Dataset(features=features, labels=labels, domain_tag=DomainTag.TARGET)


def save_csv(data: Dataset, path, label_name: str = "y") -> None:
    """Write a Dataset as a numeric CSV (features x0..x{d-1}, then the label)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(data.dim)] + [label_name])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])


def subsample(data: Dataset, n: int, seed: int) -> Dataset:
    """A uniform random subset of n rows, without replacement."""
    if not 1 <= n <= data.n:
        raise ValueError(f"cannot take {n} rows from {data.n}")
    rng = np.random.default_rng(seed)
    return data.take(rng.choice(data.n, size=n, replace=False))
