"""End-to-end CLI behavior: validation, artifacts, determinism, exit codes."""

import copy
import csv
import inspect
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapsim import cli
from collapsim.cli import _DUMP_BLOCK, _ROW_BLOCK, _SCHEMA, _as_int, _plan, _run_trajectories, _write_csv, main
from collapsim.dynamics import simulate_ensemble
from collapsim.errors import ConfigError
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


def with_value(cfg, where, value):
    """A copy of ``cfg`` with the dotted key ``where`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    *blocks, key = where.split(".")
    block = cfg
    for name in blocks:
        block = block.setdefault(name, {})
    block[key] = value
    return cfg


def run_bad(tmp_path, cfg):
    """Run ``cfg``; return the exit code and whether the --out directory exists."""
    out = tmp_path / "o"
    code = main(["--config", write_config(tmp_path, cfg), "--out", str(out)])
    return code, out.exists()


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
    ],
)
def test_malformed_values_exit_2_naming_the_key(tmp_path, capsys, base, where, value):
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
    missing = [
        f"{block}.{key}" for block, keys in _SCHEMA.items() for key in keys if f"`{key}`" not in readme
    ]
    assert not missing


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
    # paths.csv streams, and so does the sampling behind it: no draw is larger than a block
    asked = []
    for name in ("sample_paths", "sample_white_increments"):
        sampler = getattr(cli, name)

        def recording(*args, _sampler=sampler, **kwargs):
            asked.append(inspect.signature(_sampler).bind(*args, **kwargs).arguments["n"])
            return _sampler(*args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    cfg = traj_config(n=150, extra={"kernel": kernel, "reduction": {"threshold": 0.9, "min_decided": 0.0}})
    cfg["ensemble"]["dump_paths"] = True
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    assert max(asked) <= _DUMP_BLOCK and sum(asked) == 150


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


_AWKWARD_TEXT = st.text(alphabet=list('ab (.)-é,"\n\r'), max_size=6)
_AWKWARD_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]), st.floats())
_AWKWARD_COLUMNS = st.one_of(
    st.lists(_AWKWARD_FLOATS, min_size=1, max_size=8).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), min_size=1, max_size=8).map(np.array),
    st.lists(st.one_of(_AWKWARD_TEXT, _AWKWARD_FLOATS.map(np.float64), st.integers(-9, 9).map(np.int64),
                       st.booleans(), _AWKWARD_FLOATS), min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(_AWKWARD_TEXT, min_size=2, max_size=4),
    pools=st.lists(_AWKWARD_COLUMNS, min_size=4, max_size=4),
    rows=st.sampled_from([0, 1, 5, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]),
)
def test_row_block_writer_matches_csv_writer(tmp_path, header, pools, rows):
    # each column repeats its drawn cells to the row count, as an ndarray or a list
    columns = [np.resize(pool, rows) if isinstance(pool, np.ndarray) else (pool * rows)[:rows]
               for pool in pools[: len(header)]]
    _write_csv(tmp_path / "new.csv", header, [columns, columns])
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for _ in range(2):
            writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
    # born_frequencies classifies every checkpoint and hands the labels on to trajectories.csv
    from collapsim import reduction

    calls, original = [], reduction.classify_outcomes

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (reduction, cli):  # a module that imported the name holds its own binding
        monkeypatch.setattr(module, "classify_outcomes", counted, raising=False)
    assert main(["--config", write_config(tmp_path, traj_config()), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def master_config():
    return {"task": "master", "system": traj_config()["system"], "kernel": {"family": "white", "gamma": 1.0},
            "grid": {"t0": 0.0, "t1": 1.0, "steps": 40}, "ensemble": {"checkpoints": 5}}


@pytest.mark.parametrize("where, value, least", [
    ("kernel", {"family": "white", "gamma": 60.0}, "480"),
    ("kernel", {"family": "gaussian", "gamma": 200.0, "tau": 0.05}, "1600"),
    ("system.hamiltonian", [[0.0, 60.0], [60.0, 0.0]], "488"),
    ("system.eigenvalues", [[1e200, -1e200]], "inf"),  # the gaps overflow
])
def test_unstable_master_step_exits_2_naming_the_least_steps(tmp_path, capsys, where, value, least):
    # each exited 0 before the step rule, its coherences blown up or NaN
    code, wrote = run_bad(tmp_path, with_value(master_config(), where, value))
    assert code == 2 and not wrote
    err = capsys.readouterr().err
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
