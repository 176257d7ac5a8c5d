"""Names the package binds: its submodules and the layers the benchmark wraps."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import lqdec

RUN_PY = Path(__file__).resolve().parent.parent / "lqbench" / "run.py"


def test_submodule_names_bind_the_submodules():
    # a re-exported function named like its module used to hide it, so an
    # attribute patched on `m` below reached no caller
    import lqdec.factorize as m
    assert m is sys.modules["lqdec.factorize"]
    for info in pkgutil.iter_modules(lqdec.__path__):
        module = importlib.import_module("lqdec." + info.name)
        assert getattr(lqdec, info.name) is module, info.name


def traced_bindings():
    """The (module, attribute, span) rows of run.py's TRACED, read without importing it."""
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} assigns no TRACED")


def test_traced_bindings_resolve():
    # the traced benchmark run replaces each lqdec.<module>.<attr>; a name a
    # refactor unbinds would make that run fail or time nothing
    rows = traced_bindings()
    assert rows
    for module_name, attr, _ in rows:
        module = importlib.import_module("lqdec." + module_name)
        assert callable(getattr(module, attr, None)), f"lqdec.{module_name}.{attr}"


def test_all_names_resolve():
    # a name dropped from the package's imports but left in __all__ would
    # only fail on `from lqdec import *`
    missing = [name for name in lqdec.__all__ if not hasattr(lqdec, name)]
    assert not missing
