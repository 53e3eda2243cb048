"""Public surface: every exported name exists, so no stale export survives a deletion.

The benchmark's tracer names functions too; they must exist as well.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import collapsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(collapsim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"collapsim.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"collapsim.{module}.__all__ names missing objects: {missing}"


def _bench_tracer():
    """bench/tracer.py, loaded by path and read only: its install() is never called."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("collapsim_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    # the benchmark wraps these by name; a rename or deletion fails here first
    tracer = _bench_tracer()
    wanted = [(layer, name) for layer, names in tracer.TRACED.items() for name in names]
    missing = [
        f"{layer}.{name}"
        for layer, name in [*wanted, *tracer.ENTRIES]
        if not callable(getattr(importlib.import_module(f"collapsim.{layer}"), name, None))
    ]
    assert wanted and not missing, f"bench/tracer.py traces missing functions: {missing}"
