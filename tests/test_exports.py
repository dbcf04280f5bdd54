"""Every exported name resolves: each module's ``__all__``, the package and
the names the benchmark's tracer wraps; and no module of the package
imports scipy."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import stable_stein

MODULES = ("bounds", "density", "highprec", "kernels", "sampling", "special")


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


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: the fresh-interpreter start-up tests
    # run the commands, this catches an import on a path they do not reach
    src = Path(stable_stein.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert len(list(src.glob("*.py"))) >= 10 and found == []


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
