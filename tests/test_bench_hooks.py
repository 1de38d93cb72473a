"""The benchmark's hooks into the package (``bench/tracer.py``).

``bench/run.py --trace 1`` wraps each ``(module, qualname)`` of the tracer's
``LAYERS`` and binds each call's arguments to read its work counts by name.
A refactor that renames a traced function, moves a traced method off its
class or renames an argument a work function reads would break the traced
run; these tests catch it without running the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


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
