"""The benchmark's hooks into the package (``bench/tracer.py`` and
``bench/run.py``).

``bench/run.py --trace 1`` wraps each ``(module, qualname)`` of the tracer's
``LAYERS`` and binds each call's arguments to read its work counts by name.
A refactor that renames a traced function, moves a traced method off its
class or renames an argument a work function reads would break the traced
run; these tests catch it without running the benchmark. So does a config or
CLI change that breaks a workload's verb, the config keys ``bench/run.py``
reads, or the rows ``bench/reference.json`` records: one op per workload is
run and checked as the benchmark checks it.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    """``bench/<name>.py`` as a module; ``run.py`` pins the BLAS threads in
    ``os.environ`` when loaded, and the environment is put back after."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


LAYERS = load_bench_module("tracer").LAYERS
RUN = load_bench_module("run")


def traced(module: str, qualname: str):
    """The function the tracer wraps: a module attribute, or a method
    defined on its class itself, as ``Tracer.install`` looks them up."""
    home = importlib.import_module(f"htlreg.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return vars(getattr(home, cls_name))[attr]
    return getattr(home, qualname)


def read_arguments(work) -> set[str]:
    """The names a work function reads from its bound ``args`` mapping."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(work)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)}


@pytest.mark.parametrize("module, qualname, work", [layer[:3] for layer in LAYERS],
                         ids=[f"{layer[0]}.{layer[1]}" for layer in LAYERS])
def test_each_traced_name_resolves_and_takes_the_arguments_its_work_reads(
        module, qualname, work):
    fn = traced(module, qualname)
    assert callable(fn)
    if work is not None:
        names = read_arguments(work)
        assert names and names <= set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("name", list(RUN.WORKLOADS))
def test_one_op_of_each_workload_matches_its_recorded_rows(name, tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # prepare puts src/ first
    prep = RUN.prepare(name, 0, tmp_path)
    seed = RUN.exp_seed_of(prep, 0, 0)
    result = RUN.run_op(prep, RUN.WORKLOADS[name].verb, seed, tmp_path / "op")
    reference = RUN.reference_rows(name, 0)
    assert str(seed) in reference
    assert RUN.op_problems(result, prep, seed, reference) == []
