"""End-to-end CLI behavior: validation, artifacts, determinism, exit codes."""

import contextlib
import copy
import csv
import io
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from collapsim import cli, dynamics
from collapsim.cli import _DUMP_BLOCK, _ROW_BLOCK, _SCHEMA, _as_int, _plan, _run_trajectories, _write_csv, main
from collapsim.dynamics import simulate_ensemble
from collapsim.errors import ConfigError, ZeroNorm
from collapsim.fncheck import fn_validate
from collapsim.hilbert import DensityMatrix, pure_density
from collapsim.kernels import (
    KernelFamily,
    exponential_kernel,
    kernel_cumulative,
    kernel_double_integral,
    kernel_eval,
)
from collapsim.macrobody import MacroBody, com_offdiag_decay, macro_damping_rate
from collapsim.master import evolve_colored_master, evolve_lindblad_csl
from collapsim.noise import (
    build_covariance,
    checkpoint_indices,
    sample_paths,
    sample_white_increments,
)
from collapsim.reduction import UNDECIDED, born_frequencies, classify_outcomes

from conftest import forks_at


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def traj_config(n=200, seed=11, workers=1, extra=None):
    cfg = {
        "task": "trajectories",
        "system": {
            "dimension": 2,
            "eigenvalues": [[1.0, -1.0]],
            "initial_amplitudes": [0.6, 0.8],
        },
        "kernel": {"family": "exponential", "gamma": 1.0, "tau": 0.25},
        "grid": {"t0": 0.0, "t1": 1.65, "steps": 330},
        "ensemble": {
            "trajectories": n,
            "master_seed": seed,
            "workers": workers,
            "checkpoints": 4,
        },
        "reduction": {"threshold": 0.9},
    }
    if extra:
        cfg.update(extra)
    return cfg


def test_kernel_diag_matches_closed_forms(tmp_path):
    cfg = {
        "task": "kernel-diag",
        "kernel": {"family": "exponential", "gamma": 1.0, "tau": 1.0},
        "grid": {"t0": 0.0, "t1": 3.0, "steps": 6},
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "kernel_diag.csv")
    assert header == ["t", "lag", "D", "G", "f"]
    k = exponential_kernel(1.0, 1.0)
    for row in rows:
        t = float(row[0])
        assert float(row[2]) == pytest.approx(kernel_eval(k, t, 0.0), rel=1e-12)
        assert float(row[3]) == pytest.approx(kernel_cumulative(k, t, 0.0), rel=1e-12)
        assert float(row[4]) == pytest.approx(
            kernel_double_integral(k, t, 0.0), rel=1e-12, abs=1e-15
        )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["artifacts"] == ["kernel_diag.csv"]


def test_kernel_diag_white_has_no_pointwise_column(tmp_path):
    cfg = {
        "task": "kernel-diag",
        "kernel": {"family": "white", "gamma": 2.0},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 2},
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "kernel_diag.csv")
    assert all(math.isnan(float(r[2])) for r in rows)
    assert [float(r[3]) for r in rows] == [0.5, 0.5, 0.5]


def test_zero_trajectories_is_validation_error(tmp_path):
    cfg = traj_config(n=0)
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_unknown_keys_rejected(tmp_path):
    cfg = traj_config()
    cfg["grid"]["dt"] = 0.1
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    cfg = traj_config(extra={"plotting": True})
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_dump_paths_must_be_a_boolean(tmp_path, capsys):
    for value in ("false", "true", 0, 1, None):
        cfg = traj_config()
        cfg["ensemble"]["dump_paths"] = value
        out = tmp_path / "o"
        code = main(["--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert code == 2
        assert "ensemble.dump_paths" in capsys.readouterr().err
        assert not (out / "paths.csv").exists()


def test_integral_float_is_the_integer_it_spells(tmp_path):
    outs = []
    for name, n in (("int", 200), ("float", 2e2)):
        outs.append(tmp_path / name)
        cfg = traj_config(n=n)
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(outs[-1])]) == 0
    for artifact in ("trajectories.csv", "statistics.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)


@given(_JSON_SCALARS)
def test_as_int_accepts_exactly_the_integral_numbers(value):
    integral = (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and math.isfinite(value) and math.floor(value) == value
    )
    if integral:
        got = _as_int(value, "key")
        assert type(got) is int and got == value
    else:
        with pytest.raises(ConfigError, match="key must be an integer"):
            _as_int(value, "key")


_INTEGER_KEYS = [
    ("system", "dimension"),
    ("grid", "steps"),
    ("ensemble", "trajectories"),
    ("ensemble", "master_seed"),
    ("ensemble", "workers"),
    ("ensemble", "checkpoints"),
]
_NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.floats().filter(lambda v: not v.is_integer()),
    st.text(max_size=8),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_INTEGER_KEYS), _NOT_INTEGERS)
def test_integer_keys_reject_non_integers(tmp_path, capsys, where, value):
    block, key = where
    cfg = traj_config()
    cfg[block][key] = value
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{block}.{key} must be an integer" in capsys.readouterr().err


def macro_config():
    return {
        "task": "macro-rate",
        "macro": {
            "body": {"lattice_sites": 2, "spacing_cm": 1.2e-4},
            "displacements": [1.0e-4],
            "times": [1.0e-6],
        },
    }


def white_diag_config():
    return {
        "task": "kernel-diag",
        "kernel": {"family": "white", "gamma": 1.0},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 4},
    }


def fn_config():
    return {
        "task": "fn-check",
        "kernel": {"family": "exponential", "gamma": 1.0, "tau": 0.3},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 50},
        "ensemble": {"trajectories": 500, "master_seed": 5},
    }


def gaussian_traj_config():
    return with_value(traj_config(), "kernel.family", "gaussian")


def with_value(cfg, where, value):
    """A copy of ``cfg`` with the dotted key ``where`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    *blocks, key = where.split(".")
    block = cfg
    for name in blocks:
        block = block.setdefault(name, {})
    block[key] = value
    return cfg


def run_bad(tmp_path, cfg, flags=()):
    """Run ``cfg`` with the command-line ``flags``; return the exit code and whether the --out directory exists."""
    out = tmp_path / "o"
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(out), *flags])
    return code, out.exists()


# a command-line override -> the key whose bound it holds
_FLAG_KEYS = {"--seed": "ensemble.master_seed", "--workers": "ensemble.workers"}


@pytest.mark.parametrize(
    "base, where, value",
    [
        (traj_config, "system.dimension", 3),
        (traj_config, "grid.steps", 0),
        (traj_config, "ensemble.trajectories", 0),
        (traj_config, "reduction.min_decided", -0.5),
        (traj_config, "reduction.threshold", 0.3),
        (traj_config, "reduction.min_decided", 1.5),
        (fn_config, "ensemble.trajectories", 1),
        (macro_config, "macro.lambda", -1.0),
    ],
)
def test_config_error_writes_nothing(tmp_path, base, where, value):
    code, wrote = run_bad(tmp_path, with_value(base(), where, value))
    assert code == 2
    assert not wrote


def test_workers_override_is_bounded(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["--config", write_config(tmp_path, traj_config()), "--out", str(out), "--workers", "0"])
    assert code == 2
    assert "ensemble.workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


_FLOAT_KEYS = [
    (traj_config, "grid.t0"),
    (traj_config, "grid.t1"),
    (traj_config, "kernel.gamma"),
    (traj_config, "kernel.tau"),
    (traj_config, "reduction.threshold"),
    (traj_config, "reduction.min_decided"),
    (macro_config, "macro.alpha"),
    (macro_config, "macro.lambda"),
    (macro_config, "macro.beta"),
    (macro_config, "macro.t0"),
    (macro_config, "macro.body.spacing_cm"),
]
_NOT_FLOATS = st.one_of(
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FLOAT_KEYS), _NOT_FLOATS)
def test_float_keys_reject_non_numbers(tmp_path, capsys, case, value):
    base, where = case
    code, wrote = run_bad(tmp_path, with_value(base(), where, value))
    assert code == 2
    assert f"{where} must be a finite number" in capsys.readouterr().err
    assert not wrote


@pytest.mark.parametrize(
    "base, where, value",
    [
        (traj_config, "kernel.tau", "abc"),
        (traj_config, "kernel.gamma", [1]),
        (traj_config, "reduction.threshold", "x"),
        (traj_config, "system.initial_amplitudes", 5),
        (traj_config, "system.initial_amplitudes", [[1, "a"], 1]),
        (traj_config, "system.initial_amplitudes", [True, 1]),
        (traj_config, "system.eigenvalues", "ab"),
        (traj_config, "system.hamiltonian", 3),
        (traj_config, "ensemble", 3),
        (traj_config, "reduction.min_decided", -1),
        (traj_config, "functionals", ["constant", 4]),
        (macro_config, "macro.times", 5),
        (macro_config, "macro.times", ["a"]),
        (macro_config, "macro.body.lattice_sites", -3),
        (macro_config, "macro.body", None),
        (traj_config, "kernel.family", "Exponential"),
        (white_diag_config, "kernel.tau", -5.0),
        (white_diag_config, "kernel.table_path", "nope.csv"),
        (traj_config, "kernel.table_path", "nope.csv"),
        (traj_config, "system.initial_amplitudes", [0.0, 0.0]),
        (traj_config, "system.initial_amplitudes", [1.0, 0.0, 0.0]),
        (traj_config, "system.hamiltonian", [[0.0, 0.0], [0.0]]),
        (traj_config, "system.hamiltonian", [[0.0, 1.0], [0.0, 0.0]]),
        (macro_config, "macro.times", [1.0e-6, -1.0]),
        (traj_config, "reduction.min_decided", 1.5),
        (traj_config, "kernel.gamma", 0),
        (traj_config, "kernel.tau", 0),
        (macro_config, "macro.alpha", 0),
        (macro_config, "macro.beta", -1),
        (traj_config, "grid.t1", 0.0),
        (traj_config, "system.eigenvalues", []),
        (gaussian_traj_config, "kernel.tau", None),
        # a command-line override holds its ensemble key's bound in a task that reads no ensemble block too
        (white_diag_config, "--seed", -7),
        (white_diag_config, "--workers", -3),
        (macro_config, "--seed", 99999999999999999999999),
        (macro_config, "--workers", 0),
    ],
)
def test_malformed_values_exit_2_naming_the_key(tmp_path, capsys, base, where, value):
    if where in _FLAG_KEYS:
        code, wrote = run_bad(tmp_path, base(), [where, str(value)])
        where = _FLAG_KEYS[where]
    else:
        code, wrote = run_bad(tmp_path, with_value(base(), where, value))
    assert code == 2
    assert where in capsys.readouterr().err
    assert not wrote


_WRONG_TYPE = {"int": True, "float": "1.0", "bool": 0, "str": 1.5, "object": []}


@pytest.mark.parametrize(
    "block, key",
    [(block, key) for block, keys in _SCHEMA.items() for key in keys],
)
def test_every_schema_key_rejects_a_wrong_type(tmp_path, capsys, block, key):
    kind = _SCHEMA[block][key][0]
    value = {"a": 1} if isinstance(kind, (list, tuple)) else _WRONG_TYPE[kind]
    where = key if block == "config" else f"{block}.{key}"
    base = macro_config if block.startswith("macro") else traj_config
    code, wrote = run_bad(tmp_path, with_value(base(), where, value))
    assert code == 2
    assert f"{where} must be" in capsys.readouterr().err
    assert not wrote


def test_readme_example_and_keys_match_schema():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    (example,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    _, ens, runner, _ = _plan(json.loads(example), base_dir=".")
    assert runner is _run_trajectories and ens["trajectories"] == 10000
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in readme.splitlines() if line.startswith("| ")]
    for block, keys in _SCHEMA.items():
        label = "top level" if block == "config" else f"`{block}`"
        for key, (_, _, bound) in keys.items():
            (row,) = [r for r in rows if r[0] == label and f"`{key}`" in r[1].split(", ")]
            assert row[4] == (bound or ""), (block, key, row[4])  # the bound column states the interval as is


def test_missing_config_and_bad_json(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_noncommuting_colored_rejected(tmp_path, capsys):
    cfg = traj_config()
    cfg["system"]["hamiltonian"] = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "system.hamiltonian" in err
    assert "drop H0 or make it commute with the eigenvalue table" in err
    assert not (tmp_path / "o").exists()  # decided by the config alone, so nothing is written


def test_rerun_and_worker_count_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, traj_config(n=300))
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert main(["--config", cfg_path, "--out", str(out), "--workers", workers]) == 0
        outs.append(out)
    ref_traj = (outs[0] / "trajectories.csv").read_bytes()
    ref_stat = (outs[0] / "statistics.csv").read_bytes()
    for out in outs[1:]:
        assert (out / "trajectories.csv").read_bytes() == ref_traj
        assert (out / "statistics.csv").read_bytes() == ref_stat
    # the manifest records the worker count the run used, not the one asked for
    assert json.loads((outs[2] / "manifest.json").read_text())["workers"] == 1


def test_seed_override_changes_results(tmp_path):
    cfg = {
        "task": "fn-check",
        "kernel": {"family": "exponential", "gamma": 1.0, "tau": 0.3},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 50},
        "ensemble": {"trajectories": 500, "master_seed": 5},
    }
    cfg_path = write_config(tmp_path, cfg)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["--config", cfg_path, "--out", str(a)]) == 0
    assert main(["--config", cfg_path, "--out", str(b), "--seed", "999"]) == 0
    assert main(["--config", cfg_path, "--out", str(c), "--seed", "999"]) == 0
    assert (a / "fncheck.csv").read_bytes() != (b / "fncheck.csv").read_bytes()
    assert (b / "fncheck.csv").read_bytes() == (c / "fncheck.csv").read_bytes()


def test_manifest_seed_comes_from_a_checked_ensemble_block(tmp_path):
    # a task that reads no ensemble block records no seed, whatever its config or --seed says
    diag = with_value(white_diag_config(), "ensemble", {"master_seed": "abc"})
    cases = [(diag, [], None), (diag, ["--seed", "5"], None), (fn_config(), ["--seed", "999"], 999)]
    for i, (cfg, flags, seed) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main(["--config", write_config(tmp_path, cfg), "--out", str(out), *flags]) == 0
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == seed


def test_numerical_failure_leaves_started_manifest(tmp_path):
    # non-PSD tabulated kernel: validation passes, factorization fails (exit 3)
    table = tmp_path / "zigzag.csv"
    table.write_text("0.0,1.0\n0.5,-0.9\n1.0,0.8\n")
    cfg = traj_config()
    cfg["kernel"] = {"family": "tabulated", "gamma": 1.0, "table_path": str(table)}
    out = tmp_path / "out"
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "started"
    assert not (out / "trajectories.csv").exists()


def test_trajectories_artifacts_well_formed(tmp_path):
    out = tmp_path / "out"
    cfg = traj_config(n=150)
    cfg["ensemble"]["dump_paths"] = True
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "trajectories.csv")
    assert header == ["trajectory", "t", "log_weight", "p_1", "p_2", "dominant_outcome"]
    assert len(rows) == 150 * 4
    probs = np.array([[float(r[3]), float(r[4])] for r in rows])
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    header, rows = read_csv(out / "statistics.csv")
    assert header == ["outcome", "born_weight", "cooked_frequency", "stderr", "n_eff", "undecided_fraction"]
    freqs = {r[0]: float(r[2]) for r in rows}
    assert freqs["(1.0)"] + freqs["(-1.0)"] == pytest.approx(1.0)
    header, rows = read_csv(out / "paths.csv")
    assert header == ["trajectory", "k", "t_k", "w_1", "x_1"]
    assert len(rows) == 150 * 331  # node-kind paths: one row per node
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["trajectories.csv", "statistics.csv", "paths.csv"]


@pytest.mark.parametrize("kernel", [{"family": "white", "gamma": 0.7}, traj_config()["kernel"]])
def test_dump_paths_draws_one_block_at_a_time(tmp_path, monkeypatch, kernel):
    # paths.csv streams, and so does the sampling behind it: no draw is larger than a block.
    # The samplers are bound where the one noise owner calls them, for the ensemble and the dump.
    asked = []
    for name in ("sample_paths", "sample_white_increments"):
        sampler = getattr(dynamics, name)

        def recording(*args, _sampler=sampler, **kwargs):
            asked.append(inspect.signature(_sampler).bind(*args, **kwargs).arguments["n"])
            return _sampler(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, recording)
    cfg = traj_config(n=150, extra={"kernel": kernel, "reduction": {"threshold": 0.9, "min_decided": 0.0}})
    cfg["ensemble"]["dump_paths"] = True
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    ensemble, *dump = asked
    assert ensemble == 150 and max(dump) <= _DUMP_BLOCK and sum(dump) == 150  # [150, 64, 64, 22]


def test_master_task_density(tmp_path):
    cfg = {
        "task": "master",
        "system": {
            "dimension": 2,
            "eigenvalues": [[1.0, -1.0]],
            "initial_amplitudes": [0.6, 0.8],
        },
        "kernel": {"family": "white", "gamma": 0.5},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 500},
        "ensemble": {"trajectories": 1, "master_seed": 0, "checkpoints": 6},
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "density.csv")
    assert header == ["t", "i", "j", "re", "im", "stderr_re", "stderr_im"]
    offdiag = {float(r[0]): float(r[3]) for r in rows if r[1] == "0" and r[2] == "1"}
    for t, val in offdiag.items():
        assert val == pytest.approx(0.48 * math.exp(-2.0 * 0.5 * t), rel=1e-6)


def test_master_colored_with_hamiltonian_rejected(tmp_path):
    cfg = {
        "task": "master",
        "system": {
            "dimension": 2,
            "eigenvalues": [[1.0, -1.0]],
            "hamiltonian": [[[0.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.3, 0.0]]],
            "initial_amplitudes": [0.6, 0.8],
        },
        "kernel": {"family": "gaussian", "gamma": 1.0, "tau": 0.2},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 100},
    }
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2


def test_fn_check_task(tmp_path):
    cfg = {
        "task": "fn-check",
        "kernel": {"family": "gaussian", "gamma": 0.8, "tau": 0.4},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 100},
        "ensemble": {"trajectories": 4000, "master_seed": 5},
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "fncheck.csv")
    assert header == ["kernel", "functional", "lhs", "rhs", "stderr", "sigmas"]
    assert [r[1] for r in rows] == ["constant", "linear_x", "exp_x"]
    assert all(float(r[5]) <= 5.0 for r in rows)


def test_macro_rate_task(tmp_path):
    cfg = {
        "task": "macro-rate",
        "macro": {
            "body": {"lattice_sites": 2, "spacing_cm": 1.2e-4},
            "displacements": [1.0e-4, 2.0e-4],
            "times": [1.0e-12, 1.0e-6],
        },
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "macro_rate.csv")
    assert header == ["dQ", "t", "Gamma", "decay_factor"]
    assert len(rows) == 4
    for r in rows:
        assert float(r[2]) >= 0.0
        assert 0.0 < float(r[3]) <= 1.0


def test_env_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLAPSIM_OUT", str(tmp_path / "root"))
    cfg = {
        "task": "kernel-diag",
        "kernel": {"family": "white", "gamma": 1.0},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 2},
        "output": {"directory": "diag-run"},
    }
    assert main(["--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "root" / "diag-run" / "kernel_diag.csv").exists()
    # without an explicit directory the task name is used
    cfg.pop("output")
    assert main(["--config", write_config(tmp_path, cfg, "c2.json")]) == 0
    assert (tmp_path / "root" / "kernel-diag" / "kernel_diag.csv").exists()


def test_malformed_kernel_table_exits_2_writing_nothing(tmp_path, capsys):
    # a text row after the header, then a three-column and a one-column row
    (tmp_path / "table.csv").write_text("lag,D\nfoo,bar\n1,2,3\n0,1\n0.5\n1.0,0.2\n")
    cfg = {
        "task": "kernel-diag",
        "kernel": {"family": "tabulated", "gamma": 1.0, "table_path": "table.csv"},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 4},
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "table.csv line 2" in capsys.readouterr().err
    assert not out.exists()


def test_tabulated_kernel_path_relative_to_config(tmp_path):
    # the grid runs past the table's last lag, where D is zero
    (tmp_path / "tent.csv").write_text("0.0,1.0\n0.5,0.5\n1.0,0.2\n")
    cfg = {
        "task": "kernel-diag",
        "kernel": {"family": "tabulated", "gamma": 1.0, "table_path": "tent.csv"},
        "grid": {"t0": 0.0, "t1": 2.0, "steps": 8},
    }
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "kernel_diag.csv")
    assert float(rows[1][2]) == pytest.approx(0.75)  # D at lag 0.25
    assert float(rows[4][2]) == pytest.approx(0.2)  # D at the last lag, 1.0
    assert [float(r[2]) for r in rows[5:]] == [0.0] * 4


def _reference_csv(path, header, rows):
    """The per-row writer the columnar one replaced: repr(float(v)) for floats, str(v) otherwise."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row])


def _reference_artifacts(task, args, out):
    """Every CSV of ``task``, built row by row from the library calls the CLI makes."""
    if task == "trajectories":
        (aset, psi0, h0), grid, kernel, ens, red = args
        n, seed = ens["trajectories"], ens["master_seed"]
        res = simulate_ensemble(aset, psi0, grid, kernel, n, seed, h0=h0,
                                checkpoints=checkpoint_indices(grid, ens["checkpoints"]))
        labels = {g: grp.label for g, grp in enumerate(aset.outcome_groups())}
        labels[UNDECIDED] = "undecided"
        dominant = classify_outcomes(res, aset, red["threshold"])
        rows = [(i, t, res.log_weights[i, j], *(np.abs(res.amps[i, j]) ** 2), labels[int(dominant[i, j])])
                for i in range(n) for j, t in enumerate(res.times)]
        p_cols = [f"p_{a + 1}" for a in range(res.dim)]
        _reference_csv(out / "trajectories.csv", ["trajectory", "t", "log_weight", *p_cols, "dominant_outcome"], rows)
        rep = born_frequencies(res, aset, psi0, red["threshold"], min_decided=red["min_decided"])
        rows = [(lbl, rep.born[g], rep.frequency[g], rep.stderr[g], rep.n_eff, rep.undecided_fraction)
                for g, lbl in enumerate(rep.labels)]
        _reference_csv(out / "statistics.csv", ["outcome", "born_weight", "cooked_frequency", "stderr", "n_eff",
                                                "undecided_fraction"], rows)
        m = aset.num_ops
        if kernel.family is KernelFamily.WHITE:
            batch = sample_white_increments(grid, kernel.gamma, m, n, seed)
        else:
            batch = sample_paths(build_covariance(grid, kernel), m, n, seed)
        rows = [(i, k, grid.nodes()[k], *batch.w[i, :, k], *batch.x[i, :, k])
                for i in range(n) for k in range(batch.w.shape[2])]
        names = [f"w_{i + 1}" for i in range(m)] + [f"x_{i + 1}" for i in range(m)]
        _reference_csv(out / "paths.csv", ["trajectory", "k", "t_k", *names], rows)
    elif task == "master":
        (aset, psi0, h0), grid, kernel, ncp = args
        rho0, cp = DensityMatrix(pure_density(psi0)), checkpoint_indices(grid, ncp)
        if kernel.family is KernelFamily.WHITE:
            path = evolve_lindblad_csl(h0, aset, rho0, grid, kernel.gamma, checkpoints=cp)
        else:
            path = evolve_colored_master(aset, rho0, grid, kernel, checkpoints=cp)
        rows = [(t, a, b, path.rhos[j, a, b].real, path.rhos[j, a, b].imag, 0.0, 0.0)
                for j, t in enumerate(path.times) for a in range(rho0.dim) for b in range(rho0.dim)]
        _reference_csv(out / "density.csv", ["t", "i", "j", "re", "im", "stderr_re", "stderr_im"], rows)
    elif task == "kernel-diag":
        kernel, grid = args
        rows = [(t, t - grid.t0,
                 math.nan if kernel.family is KernelFamily.WHITE else kernel_eval(kernel, float(t), grid.t0),
                 kernel_cumulative(kernel, float(t), grid.t0), kernel_double_integral(kernel, float(t), grid.t0))
                for t in grid.nodes()]
        _reference_csv(out / "kernel_diag.csv", ["t", "lag", "D", "G", "f"], rows)
    elif task == "fn-check":
        kernel, grid, ens, functionals = args
        reps = [fn_validate(kernel, fn, grid, ens["trajectories"], ens["master_seed"]) for fn in functionals]
        rows = [(r.kernel_family, r.functional, r.lhs, r.rhs, r.diff_stderr, r.sigmas) for r in reps]
        _reference_csv(out / "fncheck.csv", ["kernel", "functional", "lhs", "rhs", "stderr", "sigmas"], rows)
    else:
        params, body, displacements, times = args
        origin = np.zeros(3)
        rows = [(dq, t, macro_damping_rate(body, [dq, 0.0, 0.0], origin, t, params),
                 com_offdiag_decay(body, [dq, 0.0, 0.0], origin, [t], params)[0])
                for dq in displacements for t in times]
        _reference_csv(out / "macro_rate.csv", ["dQ", "t", "Gamma", "decay_factor"], rows)


_WRITER_CASES = {
    "colored-trajectories": traj_config(n=70, seed=4, workers=2, extra={
        "system": {"dimension": 3, "eigenvalues": [[1.0, 0.0, -1.0], [0.5, 0.5, 0.0]],
                   "initial_amplitudes": [0.6, [0.0, 0.6], 0.5]},
        "kernel": {"family": "gaussian", "gamma": 0.9, "tau": 0.3},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 20},
        "reduction": {"threshold": 0.9, "min_decided": 0.0},
    }),
    "white-trajectories": traj_config(n=70, seed=4, extra={
        "system": {"dimension": 2, "eigenvalues": [[1.0, -1.0]], "initial_amplitudes": [0.6, 0.8],
                   "hamiltonian": [[0.0, [0.2, 0.1]], [[0.2, -0.1], 0.3]]},
        "kernel": {"family": "white", "gamma": 0.7},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 20},
        "reduction": {"threshold": 0.9, "min_decided": 0.0},
    }),
    "white-master": {"task": "master", "system": traj_config()["system"], "kernel": {"family": "white", "gamma": 0.7},
                     "grid": {"t0": 0.0, "t1": 1.0, "steps": 40}, "ensemble": {"checkpoints": 5}},
    "colored-master": {"task": "master", "system": traj_config()["system"],
                       "kernel": {"family": "exponential", "gamma": 0.7, "tau": 0.2},
                       "grid": {"t0": 0.0, "t1": 1.0, "steps": 40}, "ensemble": {"checkpoints": 5}},
    "white-kernel-diag": {"task": "kernel-diag", "kernel": {"family": "white", "gamma": 0.7},
                          "grid": {"t0": 0.0, "t1": 1.0, "steps": 10}},
    "gaussian-kernel-diag": {"task": "kernel-diag", "kernel": {"family": "gaussian", "gamma": 0.7, "tau": 0.2},
                             "grid": {"t0": 0.0, "t1": 1.0, "steps": 10}},
    "fn-check": {"task": "fn-check", "kernel": {"family": "exponential", "gamma": 0.8, "tau": 0.4},
                 "grid": {"t0": 0.0, "t1": 1.0, "steps": 50}, "ensemble": {"trajectories": 300, "master_seed": 5}},
    "macro-rate": {"task": "macro-rate", "macro": {"body": {"lattice_sites": 5, "spacing_cm": 2e-5},
                   "displacements": [0.0, 1e-9, 3e-5], "times": [0.0, 1e-13, 1e12]}},
    # past the writer's row blocks: trajectories.csv has 400 x 11 = 4,400 rows, and each
    # 64-trajectory block of paths.csv 64 x 101 = 6,464 rows; both end mid-block
    "row-block-edges": traj_config(n=400, seed=6, extra={
        "kernel": {"family": "exponential", "gamma": 1.0, "tau": 0.25},
        "grid": {"t0": 0.0, "t1": 1.0, "steps": 100},
        "ensemble": {"trajectories": 400, "master_seed": 6, "checkpoints": 11},
        "reduction": {"threshold": 0.9, "min_decided": 0.0},
    }),
}


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_columnar_csvs_match_a_per_row_reference_writer(tmp_path, case):
    cfg = copy.deepcopy(_WRITER_CASES[case])
    if cfg["task"] == "trajectories":
        cfg["ensemble"]["dump_paths"] = True
    path = write_config(tmp_path, cfg)
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["--config", path, "--out", str(out)]) == 0
    ref.mkdir()
    top, _, _, args = _plan(cfg, str(tmp_path))
    _reference_artifacts(top["task"], args, ref)
    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == sorted(p.name for p in ref.glob("*.csv"))
    for name in written:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *manifest["artifacts"]])


_ONE_BLOCK_ROWS = (2 * _ROW_BLOCK - 1, 2 * _ROW_BLOCK, 2 * _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5)
_AWKWARD_TEXT = st.text(alphabet=list('ab (.)-é,"\n\r'), max_size=6)
_AWKWARD_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]), st.floats())


class _Unpicklable:
    """A cell that only ``str`` can write: its lambda stops a pickle, so a writer must not pickle columns."""

    def __init__(self, text):
        self.text = lambda: text

    def __str__(self):
        return self.text()


_AWKWARD_COLUMNS = st.one_of(
    st.lists(_AWKWARD_FLOATS, min_size=1, max_size=8).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), min_size=1, max_size=8).map(np.array),
    st.lists(st.one_of(_AWKWARD_TEXT, _AWKWARD_FLOATS.map(np.float64), st.integers(-9, 9).map(np.int64),
                       st.booleans(), _AWKWARD_FLOATS), min_size=1, max_size=8),
    st.lists(_AWKWARD_TEXT.map(_Unpicklable), min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(_AWKWARD_TEXT, min_size=2, max_size=4),
    pools=st.lists(_AWKWARD_COLUMNS, min_size=4, max_size=4),
    rows=st.sampled_from([0, 1, 5, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, *_ONE_BLOCK_ROWS]),
)
@example(header=["a", "b"], pools=[[_Unpicklable('x,"')], np.array([1.5]), [0], [0]], rows=2 * _ROW_BLOCK)
def test_row_block_writer_matches_csv_writer(tmp_path, monkeypatch, header, pools, rows):
    # each column repeats its drawn cells to the row count, as an ndarray or a list; the sizes
    # around 2 * _ROW_BLOCK are one block, which is formatted in a pool of forked processes, here up to three
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    columns = [np.resize(pool, rows) if isinstance(pool, np.ndarray) else (pool * rows)[:rows]
               for pool in pools[: len(header)]]
    copies = 1 if rows in _ONE_BLOCK_ROWS else 2
    _write_csv(tmp_path / "new.csv", header, [columns] * copies)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for _ in range(copies):
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _fused_pass_configs():
    """A README-shaped colored config and a white one, each of three chunks (the last of five rows), and a
    smaller white one; the first two lie above a cut of 2^17 trajectory-steps, the third below it.  A
    trajectory's work is its steps and ``cli._ROW_STEPS`` for each of its rows."""
    n = 2 * dynamics.CHUNK + 5
    white = {"kernel": {"family": "white", "gamma": 1.0}, "grid": {"t0": 0.0, "t1": 0.5, "steps": 100},
             "reduction": {"threshold": 0.9, "min_decided": 0.0}}
    colored = traj_config(n=n)
    colored["ensemble"]["checkpoints"] = 11
    assert n * (100 + 4 * cli._ROW_STEPS) > 1 << 17 > 300 * (100 + 4 * cli._ROW_STEPS)
    return {"colored": colored, "white": traj_config(n=n, extra=white), "below": traj_config(n=300, extra=white)}


def test_forked_writer_bytes_do_not_depend_on_the_core_count(tmp_path, monkeypatch):
    # a long ensemble is drawn, solved, classified and formatted in one forked pass, one contiguous share
    # of its chunks per usable core; every CSV has the bytes of the serial run
    monkeypatch.setattr(dynamics, "FORK_WORK", 1 << 17)
    for case, cfg in _fused_pass_configs().items():
        cfg_path = write_config(tmp_path, cfg, f"{case}.json")
        outs = {}
        for cores in (1, 2, 3):
            forks = forks_at(monkeypatch, cores)
            outs[cores] = tmp_path / f"{case}{cores}"
            threads = threading.active_count()
            assert main(["--config", cfg_path, "--out", str(outs[cores])]) == 0
            assert len(forks) == (0 if cores == 1 or case == "below" else cores), case  # three chunks
            assert threading.active_count() == threads
        for name in ("trajectories.csv", "statistics.csv"):
            assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes() == (outs[3] / name).read_bytes()
    rows = (tmp_path / "colored1" / "trajectories.csv").read_bytes().count(b"\n")
    assert rows == 1 + (2 * dynamics.CHUNK + 5) * 11


@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_failing_formatter_child_fails_the_run(tmp_path, monkeypatch, failure):
    monkeypatch.setattr(dynamics, "FORK_WORK", 1 << 17)
    cfg = _fused_pass_configs()["colored"]
    out = tmp_path / "out"
    forks = forks_at(monkeypatch, 2)
    parent, text_blocks = os.getpid(), cli._text_blocks

    def failing_in_child(columns):
        if os.getpid() != parent:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ZeroNorm("trajectory norm fails in a share")
        return text_blocks(columns)

    monkeypatch.setattr(cli, "_text_blocks", failing_in_child)
    with open(tmp_path / "probe", "w") as probe:
        probe.write("written once\n")  # left in this process's buffer: a child that flushed it would repeat it
        if failure == "raise":
            assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        else:
            with pytest.raises(BrokenProcessPool):
                cli.run(write_config(tmp_path, cfg), str(out))
    assert (tmp_path / "probe").read_text() == "written once\n"
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert json.loads((out / "manifest.json").read_text())["status"] == "started"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]  # no text is written before the statistics pass


def test_dump_paths_reuses_the_ensemble_factor(tmp_path, monkeypatch):
    # paths.csv draws from the Cholesky factor the ensemble built
    built, build = [], dynamics.build_covariance

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(dynamics, "build_covariance", counting)
    cfg = traj_config(n=150)
    cfg["ensemble"]["dump_paths"] = True
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1


def test_trajectories_run_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 7 ms inside a timed run; no step of a trajectories run needs it
    cfg_path = write_config(tmp_path, traj_config(n=50))
    probe = ("import sys; from collapsim import cli; "
             f"assert cli.main(['--config', {cfg_path!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
             "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_white_ensemble_pool_through_the_cli(tmp_path, monkeypatch, capsys):
    # a long white ensemble is stepped in forked processes; criterion 11 covers colored ensembles only
    monkeypatch.setattr(dynamics, "FORK_WORK", 1)  # this two-chunk one too
    cfg = traj_config(n=dynamics.CHUNK + 5, extra={"kernel": {"family": "white", "gamma": 1.0}})
    cfg_path = write_config(tmp_path, cfg)
    for cores in (1, 2):
        forks = forks_at(monkeypatch, cores)
        assert main(["--config", cfg_path, "--out", str(tmp_path / f"cores{cores}")]) == 0
        assert len(forks) == (0 if cores == 1 else 2)  # one pass draws, steps and formats both chunks
    for name in ("trajectories.csv", "statistics.csv"):
        assert (tmp_path / "cores1" / name).read_bytes() == (tmp_path / "cores2" / name).read_bytes(), name

    parent, stepped = os.getpid(), dynamics._stepped_chunk

    def failing_in_child(*args):
        if os.getpid() != parent:
            raise ZeroNorm("trajectory norm fails in a worker")
        return stepped(*args)

    monkeypatch.setattr(dynamics, "_stepped_chunk", failing_in_child)
    out = tmp_path / "failed"  # still at two patched cores
    assert main(["--config", cfg_path, "--out", str(out)]) == 3
    assert "trajectory norm fails in a worker" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "started"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_no_decided_trajectory_exits_3(tmp_path, capsys):
    # min_decided 0 lets the decided check pass; an empty decided set still has no statistics
    cfg = traj_config(n=50, extra={"kernel": {"family": "white", "gamma": 1e-3},
                                   "reduction": {"threshold": 0.99, "min_decided": 0.0}})
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "decided fraction 0.000 is zero" in err and "Traceback" not in err
    assert json.loads((out / "manifest.json").read_text())["status"] == "started"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]  # a numerical failure leaves no result file


def test_non_finite_amplitudes_exit_3_at_the_solver(tmp_path, capsys):
    # eigenvalues +-1e200 overflow the white exponent to NaN amplitudes; the
    # solver's norm guard stops the run, not a statistic computed later
    cfg = traj_config(n=50, extra={"kernel": {"family": "white", "gamma": 1.0}})
    cfg["system"]["eigenvalues"] = [[1e200, -1e200]]
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "trajectory norm is zero or not finite" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_trajectories_run_classifies_once(tmp_path, monkeypatch):
    # each chunk classifies its rows at every checkpoint for trajectories.csv, and born_frequencies
    # classifies the last checkpoint once more from the amplitudes the chunks hand back
    from collapsim import reduction

    rows, original = [], reduction.classify_outcomes

    def counted(result, *args, **kwargs):
        rows.append(result.amps.shape[0] * result.amps.shape[1])
        return original(result, *args, **kwargs)

    for module in (reduction, cli):  # a module that imported the name holds its own binding
        monkeypatch.setattr(module, "classify_outcomes", counted, raising=False)
    forks_at(monkeypatch, 1)
    n = dynamics.CHUNK + 5  # two chunks
    cfg = traj_config(n=n)
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    assert rows == [dynamics.CHUNK * 4, 5 * 4, n]  # 4 checkpoints


def master_config():
    return {"task": "master", "system": traj_config()["system"], "kernel": {"family": "white", "gamma": 1.0},
            "grid": {"t0": 0.0, "t1": 1.0, "steps": 40}, "ensemble": {"checkpoints": 5}}


def _required_keys(base):
    """The dotted required keys of every block that planning ``base()`` reads with its required keys enforced
    (``master`` reads ``ensemble`` with every key optional), from ``_SCHEMA``."""
    read, block = [], cli._block

    def spy(raw, name, required=True):
        if required:
            read.append(name)
        return block(raw, name, required)

    cli._block = spy
    try:
        _plan(base(), base_dir=".")
    finally:
        cli._block = block
    return [key if name == "config" else f"{name}.{key}" for name in read
            for key, (_, default, _) in _SCHEMA[name].items() if default is cli._REQUIRED]


def without(cfg, where):
    """A copy of ``cfg`` without the dotted key ``where``."""
    cfg = copy.deepcopy(cfg)
    *blocks, key = where.split(".")
    block = cfg
    for name in blocks:
        block = block[name]
    del block[key]
    return cfg


_TASK_CONFIGS = (traj_config, master_config, fn_config, macro_config, white_diag_config)


@pytest.mark.parametrize("base, where", [(base, where) for base in _TASK_CONFIGS for where in _required_keys(base)])
def test_missing_required_key_exits_2_naming_it(tmp_path, capsys, base, where):
    assert sorted(config()["task"] for config in _TASK_CONFIGS) == sorted(cli.TASKS)
    code, wrote = run_bad(tmp_path, without(base(), where))
    assert code == 2 and not wrote
    assert f"missing required key {where}" in capsys.readouterr().err


@pytest.mark.parametrize("where, value, least", [
    ("kernel", {"family": "white", "gamma": 60.0}, "480"),
    ("kernel", {"family": "gaussian", "gamma": 200.0, "tau": 0.05}, "1600"),
    ("system.hamiltonian", [[0.0, 60.0], [60.0, 0.0]], "488"),
    ("system.eigenvalues", [[1e200, -1e200]], "inf"),  # the gaps overflow, so no step count passes
])
def test_unstable_master_step_exits_2_naming_the_least_steps(tmp_path, capsys, where, value, least):
    # each exited 0 before the step rule, its coherences blown up or NaN
    code, wrote = run_bad(tmp_path, with_value(master_config(), where, value))
    assert code == 2 and not wrote
    err = capsys.readouterr().err
    if least == "inf":
        assert "system.eigenvalues has gaps" in err and "grid.steps" not in err
    else:
        assert "grid.steps gives a master-equation step margin" in err and f"passes is {least}\n" in err


def test_malformed_body_rows_exit_2_naming_the_line(tmp_path, capsys):
    # only the first non-empty row may be a header; a bad row after it is an
    # error, even before the first good row
    (tmp_path / "body.csv").write_text("i,qx,qy,qz\nfirst,a,b,c\n1,2,3\n4,5\n0,0.0,0.0,0.0\n1,1e-5,0.0,0.0\n")
    cfg = {"task": "macro-rate", "macro": {"body": {"csv": "body.csv"}, "displacements": [1e-5], "times": [1.0]}}
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()
    # the line number counts blank lines; a header, blank lines and good rows load
    (tmp_path / "gap.csv").write_text("i,qx,qy,qz\n\n1,2,3\n0,0,0,0\n")
    with pytest.raises(ConfigError, match="line 3"):
        MacroBody.from_csv(tmp_path / "gap.csv")
    (tmp_path / "ok.csv").write_text("\ni,qx,qy,qz\n\n0,0,0,0\n1,1e-5,0,0\n")
    assert MacroBody.from_csv(tmp_path / "ok.csv").num_constituents == 2


# Whole configs for every task, each key drawn by its _SCHEMA kind.  Up to three keys
# leave their typical value: a float then takes 0, a negative, 5e-324, 1e-300 or
# 1e300, and an int or a list length a small value; sizes stay small.
_TYPICAL = {
    "system.dimension": 2, "system.eigenvalues": 0.5, "system.initial_amplitudes": 0.6, "system.hamiltonian": 0.5,
    "kernel.gamma": 1.0, "kernel.tau": 0.25, "grid.t0": 0.0, "grid.t1": 1.5, "grid.steps": 40,
    "ensemble.trajectories": 64, "ensemble.master_seed": 7, "ensemble.workers": 1, "ensemble.checkpoints": 4,
    "reduction.threshold": 0.6, "reduction.min_decided": 0.2, "macro.alpha": 1e10, "macro.lambda": 1e-16,
    "macro.beta": 1.0, "macro.t0": 0.0, "macro.displacements": 1e-4, "macro.times": 1e-6,
    "macro.body.lattice_sites": 4, "macro.body.spacing_cm": 1.2e-4,
}
_ODD_INTS = {
    "system.dimension": st.integers(0, 3), "grid.steps": st.integers(-1, 64),
    "ensemble.trajectories": st.integers(-1, 64), "ensemble.master_seed": st.sampled_from([-1, 0, 2**64 - 1, 2**64]),
    "ensemble.workers": st.integers(0, 2), "ensemble.checkpoints": st.integers(1, 8),
    "macro.body.lattice_sites": st.integers(0, 16),
}
_FILES = {"kernel.table_path": ("table.csv", "lag,D\n0,1.0\n0.5,0.5\n1.0,0.0\n"),
          "macro.body.csv": ("body.csv", "i,qx,qy,qz\n0,0,0,0\n1,1e-5,0,0\n"), "output.directory": ("run", None)}
_NAMED_KEYS = [key if block == "config" else f"{block}.{key}" for block, keys in _SCHEMA.items()
               for key, (kind, _, _) in keys.items() if block != "config" or kind != "object"]  # not a bare block


@st.composite
def whole_configs(draw):
    """A config with every block.  tau and table_path appear with the families that read them,
    other optional keys at random; the system block's lists are ``dimension`` long."""
    odd = draw(st.sets(st.sampled_from(sorted(_TYPICAL) + ["functionals"]), max_size=3))
    dim = draw(_ODD_INTS["system.dimension"]) if "system.dimension" in odd else 2  # drawn first: lists follow it

    def number(where, i=0):
        typical = _TYPICAL[where] * (i + 1)  # list entries differ
        if where not in odd:
            return typical
        return draw(st.sampled_from([typical, 0.0, -abs(typical) or -1.0, 5e-324, 1e-300, 1e300]))

    def value(where, kind, i=0):
        if isinstance(kind, tuple):
            return draw(st.sampled_from(kind))
        if isinstance(kind, list):
            if where == "system.hamiltonian":  # diagonal, so Hermitian and commuting
                return [[number(where) if r == c else 0.0 for c in range(dim)] for r in range(dim)]
            length = {"system.eigenvalues": 1, "system.initial_amplitudes": dim, "functionals": 3}.get(where, 2)
            if where in odd and where != "system.initial_amplitudes":
                length = draw(st.integers(0, 3))
            if kind[0] == ["float"]:  # the eigenvalue table: rows of dimension numbers
                return [[number(where, c) for c in range(dim)] for _ in range(length)]
            return [value(where, kind[0], j) for j in range(length)]
        if kind == "int":
            return dim if where == "system.dimension" else draw(_ODD_INTS[where]) if where in odd else _TYPICAL[where]
        if kind == "float":
            return number(where, i)
        if kind == "complex":
            return number(where, i) if draw(st.booleans()) else [number(where, i), number(where, i)]
        if kind == "bool":
            return draw(st.booleans())
        if kind == "str":
            return _FILES[where][0]
        return block(where)

    def block(name):
        prefix = "" if name == "config" else name + "."
        return {key: value(prefix + key, kind) for key, (kind, default, _) in _SCHEMA[name].items()
                if default is cli._REQUIRED or default == {} or draw(st.booleans())}

    cfg = block("config")
    kernel = cfg["kernel"] = {key: cfg["kernel"][key] for key in ("family", "gamma")}
    if kernel["family"] in ("gaussian", "exponential"):
        kernel["tau"] = number("kernel.tau")
    if kernel["family"] == "tabulated":
        kernel["table_path"] = _FILES["kernel.table_path"][0]
    return cfg


def _gaussian(cfg):
    return with_value(cfg, "kernel", {"family": "gaussian", "gamma": 1.0, "tau": 0.3})


_PINNED = [  # each exited 2 without naming its key, exited 1, or warned
    with_value(traj_config(), "kernel.gamma", 0), with_value(traj_config(), "kernel.tau", 0),
    with_value(macro_config(), "macro.alpha", 0), with_value(macro_config(), "macro.beta", -1),
    with_value(traj_config(), "grid.t1", 0.0), with_value(traj_config(), "system.eigenvalues", []),
    with_value(traj_config(), "kernel", {"family": "gaussian", "gamma": 1.0}),
    with_value(master_config(), "system.eigenvalues", [[1e200, -1e200]]),
    with_value(with_value(traj_config(n=50), "kernel", {"family": "white", "gamma": 1.0}), "system.eigenvalues",
               [[1e200, -1e200]]),
    *(with_value(_gaussian(white_diag_config()), "kernel.tau", tau) for tau in (1e-300, 5e-324)),
    with_value(white_diag_config(), "grid.t1", 1e300), with_value(_gaussian(white_diag_config()), "grid.t1", 1e300),
    with_value(_gaussian(white_diag_config()), "grid.t0", -1e300),
    with_value(traj_config(n=50), "kernel.tau", 5e-324),
    with_value(fn_config(), "kernel.gamma", 1e300), with_value(_gaussian(fn_config()), "kernel.tau", 1e-300),
    with_value(fn_config(), "grid.t1", 1e300),
    *(with_value(macro_config(), "macro.displacements", [x]) for x in (1e300, -1e300)),
    *(with_value(macro_config(), "macro.body.spacing_cm", x) for x in (1e300, -1e300)),
    with_value(traj_config(), "ensemble.master_seed", 2**64), with_value(fn_config(), "functionals", []),
    with_value(macro_config(), "macro.times", []), with_value(macro_config(), "macro.displacements", []),
    with_value(with_value(macro_config(), "macro.alpha", 1e300), "macro.times", [0.0]),  # c^2 alpha overflows
    with_value(with_value(macro_config(), "macro.beta", 1.0), "macro.times", [1e300]),
]


def _finite_cells(path, white):
    """False if a cell of the CSV at ``path`` reads as a non-finite number, but a white kernel's D column."""
    header, rows = read_csv(path)
    skip = header.index("D") if white and path.name == "kernel_diag.csv" else None
    for row in rows:
        for i, cell in enumerate(row):
            try:
                number = float(cell)
            except ValueError:  # an outcome label
                continue
            if i != skip and not math.isfinite(number):
                return False
    return True


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cfg=whole_configs())
def test_every_whole_config_exits_0_2_or_3(tmp_path_factory, cfg):
    # exit 2 names its key and writes nothing, exit 3 leaves the started manifest, exit 0 writes
    # finite numbers, and no RuntimeWarning escapes; the pinned configs below each failed once
    run_dir = tmp_path_factory.mktemp("whole")
    for name, text in _FILES.values():
        if text is not None:
            (run_dir / name).write_text(text)
    out, err = run_dir / "out", io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["--config", write_config(run_dir, cfg), "--out", str(out)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 2, 3), err.getvalue()
    if code == 2:
        assert not out.exists()
        assert any(where in err.getvalue() for where in _NAMED_KEYS) or " line " in err.getvalue(), err.getvalue()
        return
    manifest = json.loads((out / "manifest.json").read_text())
    if code == 3:
        assert manifest["status"] == "started" and os.listdir(out) == ["manifest.json"]
        return
    assert manifest["status"] == "complete"
    white = cfg.get("kernel", {}).get("family") == "white"
    assert all(_finite_cells(out / name, white) for name in manifest["artifacts"]), manifest["artifacts"]


for _cfg in _PINNED:
    test_every_whole_config_exits_0_2_or_3 = example(cfg=_cfg)(test_every_whole_config_exits_0_2_or_3)
