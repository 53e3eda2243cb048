"""Public surface: every exported name exists, so no stale export survives a deletion.

The benchmark's tracer names functions too; they must exist as well, and the
calls the benchmark makes must still bind to their signatures.
"""

import ast
import importlib
import inspect
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



def test_tracer_blind_spots_are_known():
    # install() spans a traced function only where another collapsim module binds it (or at a bench
    # entry), so one called only inside its own module never gets a span and its layer reads low.
    # The noise samplers must stay bound outside noise, or every noise.* metric reads 0.
    tracer = _bench_tracer()
    mods = {m: importlib.import_module(f"collapsim.{m}") for m in tracer.MODULES}
    blind = {
        f"{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if (layer, name) not in tracer.ENTRIES
        and not any(where != layer and getattr(mod, name, None) is getattr(mods[layer], name)
                    for where, mod in mods.items())
    }
    assert blind == {"kernels.kernel_eval"}  # cli binds classify_outcomes: each chunk classifies its own rows


def test_one_pointwise_kernel_value():
    # the tracer spans D under both names; they stay one function, so D has one definition
    from collapsim import kernels

    assert kernels.eval_zero_extended is kernels.kernel_eval


def _bench_calls():
    """Every call in bench/child.py and bench/workloads.py to a name imported from collapsim, as
    (site, module, function, number of positional arguments, keyword names).  A starred
    argument must name a tuple literal assigned in the same file, so its length is known."""
    calls = []
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        tuples = {
            target.id: len(node.value.elts)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        imported = {}  # local name -> (collapsim module, attribute or None for a module)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "collapsim":
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "collapsim" and alias.name in MODULES:
                        imported[local] = (alias.name, None)
                    else:
                        imported[local] = (node.module, alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and imported.get(func.id, (None, None))[1]:
                module, name = imported[func.id]
            elif (
                isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in imported and imported[func.value.id][1] is None
            ):
                module, name = f"collapsim.{imported[func.value.id][0]}", func.attr
            else:
                continue
            positional = sum(
                tuples[arg.value.id] if isinstance(arg, ast.Starred) else 1 for arg in node.args
            )
            keywords = tuple(kw.arg for kw in node.keywords)
            assert None not in keywords, f"{path.name}:{node.lineno}: ** arguments cannot be checked"
            calls.append((f"{path.name}:{node.lineno}:{node.col_offset}", module, name, positional, keywords))
    return sorted(calls)


BENCH_CALLS = _bench_calls()


def test_bench_calls_found():
    # the calls the benchmark's library workload and worker-pool probe make
    found = {(name, positional, keywords) for _, _, name, positional, keywords in BENCH_CALLS}
    assert {
        ("simulate_ensemble", 6, ("checkpoints", "workers")),
        ("simulate_ensemble", 6, ("h0", "checkpoints")),
        ("kernel_from_config", 1, ()),
        ("ensemble_to_density", 2, ()),
        ("evolve_lindblad_csl", 5, ("checkpoints",)),
    } <= found


@pytest.mark.parametrize("site, module, name, positional, keywords", BENCH_CALLS, ids=[c[0] for c in BENCH_CALLS])
def test_bench_calls_still_bind(site, module, name, positional, keywords):
    # a dropped or renamed argument fails here, not first in a traced benchmark run
    fn = getattr(importlib.import_module(module), name)
    inspect.signature(fn).bind(*range(positional), **dict.fromkeys(keywords))
