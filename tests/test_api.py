"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import dihedral

MODULES = sorted(m.name for m in pkgutil.iter_modules(dihedral.__path__)
                 if not m.name.startswith("_"))


def test_package_all_resolves():
    missing = [n for n in dihedral.__all__ if not hasattr(dihedral, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"dihedral.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
