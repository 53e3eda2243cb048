"""Public surface: every exported name exists, so no stale export survives a deletion."""

import importlib
import pkgutil

import pytest

import collapsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(collapsim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"collapsim.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"collapsim.{module}.__all__ names missing objects: {missing}"
