"""Every exported name resolves: each module's ``__all__``, the package and
the names the benchmark's tracer wraps; no module of the package imports
scipy, mpmath or dataclasses, and none imports numpy when it loads."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import stable_stein

MODULES = ("bounds", "density", "kernels", "sampling", "special")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"stable_stein.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_namespace_resolves():
    # the names the package docstring lists as its public surface
    named = re.findall(r"``(\w+)``", stable_stein.__doc__)
    assert named and [attr for attr in named if not hasattr(stable_stein, attr)] == []
    # a re-export is the module's own object, not a stale copy
    for name in MODULES:
        module = importlib.import_module(f"stable_stein.{name}")
        for attr in module.__all__:
            if hasattr(stable_stein, attr):
                assert getattr(stable_stein, attr) is getattr(module, attr)


def _package_imports(load_time_only=False):
    """(file:line, module) for each import statement under the package; with
    ``load_time_only``, only those that run when the module loads, that is,
    all but the ones inside a function body."""
    src = Path(stable_stein.__file__).parent
    paths = sorted(src.glob("*.py"))
    assert len(paths) >= 9
    found = []
    for path in paths:
        stack = [ast.parse(path.read_text(), filename=str(path))]
        while stack:
            node = stack.pop()
            if load_time_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [(f"{path.name}:{node.lineno}", name) for name in names]
    return found


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: the fresh-interpreter start-up tests
    # run the commands, this catches an import on a path they do not reach
    assert [where for where, name in _package_imports()
            if name.split(".")[0] == "scipy"] == []


def test_no_module_imports_mpmath():
    # mpmath is the 50-digit oracle of the tests only (tests/highprec.py):
    # numpy is the one runtime dependency
    assert [where for where, name in _package_imports()
            if name.split(".")[0] == "mpmath"] == []


def test_no_module_imports_numpy_when_it_loads():
    # numpy is imported on first use, inside the functions that need arrays,
    # so the scalar commands start without it (TestNumpyOnFirstUse in
    # tests/test_cli.py); a module-level import would undo that for all
    assert [where for where, name in _package_imports(load_time_only=True)
            if name.split(".")[0] == "numpy"] == []


def test_no_module_imports_dataclasses():
    # the records are ``_record.Record`` classes: dataclasses would load
    # inspect, ast and dis and exec each class's methods on every start
    # (TestNumpyOnFirstUse.test_start_loads_neither_dataclasses_nor_inspect);
    # inside a function too, since nothing in the package needs it
    assert [where for where, name in _package_imports()
            if name == "dataclasses"] == []


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark's tracer wraps names of the package by module attribute;
    # a simplification that deletes or renames one breaks it here, in Tier-1
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    bindings = tracing._bindings()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in bindings if not hasattr(owner, attr)]
    assert missing == []
    before = [getattr(owner, attr) for owner, attr, _, _ in bindings]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr, _, _), fn in zip(bindings, before))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in bindings] == before
