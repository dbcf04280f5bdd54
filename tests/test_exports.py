"""Every exported name resolves: each module's ``__all__`` and the package."""

import importlib
import re

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
