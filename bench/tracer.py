"""Span tracer that wraps htlreg's public functions from outside the package.

``Tracer.install`` replaces each traced function on every htlreg module
namespace that binds it (``grid_search_cv`` is called through
``experiment``'s globals, ``krr_fit`` through ``pipeline``'s, ``gram`` through
both ``ridge`` and ``experiment``) and each traced ``predict`` method on its
class. ``Tracer.uninstall`` puts the originals back and reports whether any
wrapper is left behind.

Each call records a span ``[name, start, end, parent, op, child_s]`` in memory;
a span's self time is its duration minus ``child_s``, the time its child spans
cover. Work counts come from argument shapes: ``pairs`` (query rows x
training rows) for kernel-smoothing predicts and ``entries`` (rows x cols) for
Gram matrices. A call *repeats* when a call with the same array bytes and
hyperparameters was already made in the same op.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.digest()


def _ks_predict_work(args):
    self, X = args["self"], np.atleast_2d(np.asarray(args["X"], dtype=float))
    train = self.train
    key = _digest(X, train.features, train.labels, self.kernel, self.bandwidth)
    return X.shape[0] * train.n, key


def _grid_cv_work(args):
    data = args["data"]
    key = _digest(data.features, data.labels, list(args["candidates"]),
                  args["folds"], args["seed"])
    return None, key


def _gram_work(args):
    rows = np.atleast_2d(np.asarray(args["A"])).shape[0]
    cols = np.atleast_2d(np.asarray(args["B"])).shape[0]
    return rows * cols, None


# (module, qualified name, per-call work function, reported metric suffixes).
# The suffixes are the layer metrics the benchmark prints for that span.
LAYERS = (
    ("cli", "main", None, ("self_s",)),
    ("experiment", "run_experiment", None, ("self_s",)),
    ("experiment", "grid_search_cv", _grid_cv_work,
     ("self_s", "calls", "repeat_frac")),
    ("smoothing", "KSPredictor.predict", _ks_predict_work,
     ("self_s", "calls", "pairs", "repeat_pair_frac")),
    ("ridge", "gram", _gram_work, ("self_s", "entries")),
    ("ridge", "median_heuristic", None, ("self_s", "calls")),
    ("ridge", "krr_fit", None, ("self_s", "calls")),
    ("ridge", "KRRPredictor.predict", None, ("self_s",)),
    ("pipeline", "construct_auxiliary", None, ("total_s", "calls")),
    ("pipeline", "htl_fit", None, ("total_s",)),
    ("pipeline", "select_transformation", None, ("total_s",)),
    ("evaluation", "excess_risk_mc", None, ("total_s",)),
    ("evaluation", "metric_report", None, ("total_s",)),
    ("data", "generate_synthetic", None, ("self_s",)),
    ("data", "load_csv", None, ("self_s",)),
)


PACKAGE = "htlreg"


class Tracer:
    """Records spans and work counts for calls into htlreg while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # op -> span name -> [calls, work, repeat calls, repeat work]
        self.counts: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
        self._seen: dict = defaultdict(set)

    # -- installation ---------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for module, qualname, work, _ in LAYERS:
            home = importlib.import_module(f"{PACKAGE}.{module}")
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, work))
                continue
            orig = getattr(home, qualname)
            wrapper = self._wrap(name, orig, work)
            for mod in modules:
                if vars(mod).get(qualname) is orig:
                    self._restore.append((mod, qualname, orig))
                    setattr(mod, qualname, wrapper)

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper remains anywhere."""
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        for mod in self._modules():
            for value in list(vars(mod).values()):
                if getattr(value, "_bench_traced", False):
                    return False
                if inspect.isclass(value) and any(
                        getattr(v, "_bench_traced", False)
                        for v in vars(value).values()):
                    return False
        return True

    def _wrap(self, name, fn, work):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            units, key = (0, None) if work is None else work(
                signature.bind(*args, **kwargs).arguments)
            self._count(name, units, key)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    self.spans[parent][5] += end - start

        wrapper._bench_traced = True
        return wrapper

    def _count(self, name, units, key) -> None:
        units = units or 0
        row = self.counts[self.op][name]
        row[0] += 1
        row[1] += units
        if key is not None:
            seen = self._seen[self.op]
            if (name, key) in seen:
                row[2] += 1
                row[3] += units
            seen.add((name, key))

    # -- results --------------------------------------------------------

    def op_counts(self, op) -> dict:
        """Exact work counts of one op, for comparing two traced runs."""
        return {name: tuple(row) for name, row in sorted(self.counts[op].items())}

    def layer_metrics(self, ops) -> dict[str, float]:
        """Per-op means of every layer metric in LAYERS over the given ops."""
        ops = set(ops)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for name, start, end, _, op, child_s in self.spans:
            if op in ops:
                total_s[name] += end - start
                self_s[name] += end - start - child_s
        counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for op in ops:
            for name, row in self.counts[op].items():
                counts[name] = [a + b for a, b in zip(counts[name], row)]
        n = len(ops)
        out = {}
        for module, qualname, _, suffixes in LAYERS:
            name = f"{module}.{qualname}"
            calls, units, repeat_calls, repeat_units = counts[name]
            values = {
                "self_s": self_s[name] / n,
                "total_s": total_s[name] / n,
                "calls": calls / n,
                "pairs": units / n,
                "entries": units / n,
                "repeat_frac": repeat_calls / calls if calls else 0.0,
                "repeat_pair_frac": repeat_units / units if units else 0.0,
            }
            for suffix in suffixes:
                out[f"{name}.{suffix}"] = values[suffix]
        return out

    def span_table(self) -> dict:
        t0 = min((s[1] for s in self.spans), default=0.0)
        return {
            "columns": ["name", "start_s", "end_s", "parent", "op", "self_s"],
            "spans": [[name, start - t0, end - t0, parent, op,
                       end - start - child_s]
                      for name, start, end, parent, op, child_s in self.spans],
        }
