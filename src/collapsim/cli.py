"""Configuration-driven command line entry point.

One config file = one experiment.  The config is schema-validated before any
computation (unknown keys are rejected), a manifest is written before any
result file so partial runs are detectable, and every artifact is a CSV with
a fixed documented header.  Identical config + seed gives byte-identical
CSVs regardless of worker count.

Exit status: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import CollapsimError, ConfigError
from .hilbert import CommutingSet, DensityMatrix, pure_density
from .kernels import (
    KernelFamily,
    kernel_cumulative,
    kernel_double_integral,
    kernel_eval,
    kernel_from_config,
)
from .macrobody import MacroBody, MacroParams, com_offdiag_decay, macro_damping_rate
from .master import evolve_colored_master, evolve_lindblad_csl
from .noise import TimeGrid, checkpoint_indices, sample_paths, sample_white_increments, build_covariance
from .dynamics import simulate_ensemble
from .fncheck import FN_FUNCTIONALS, fn_validate
from .reduction import UNDECIDED, born_frequencies, classify_outcomes

TASKS = ("trajectories", "master", "fn-check", "macro-rate", "kernel-diag")

_TOP_KEYS = {"task", "system", "kernel", "grid", "ensemble", "reduction", "functionals", "macro", "output"}
_SYSTEM_KEYS = {"dimension", "eigenvalues", "hamiltonian", "initial_amplitudes"}
_KERNEL_KEYS = {"family", "gamma", "tau", "table_path"}
_GRID_KEYS = {"t0", "t1", "steps"}
_ENSEMBLE_KEYS = {"trajectories", "master_seed", "workers", "checkpoints", "dump_paths"}
_REDUCTION_KEYS = {"threshold", "min_decided"}
_OUTPUT_KEYS = {"directory"}
_MACRO_KEYS = {"alpha", "lambda", "beta", "t0", "body", "displacements", "times"}
_BODY_KEYS = {"lattice_sites", "spacing_cm", "csv"}


def _reject_unknown(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _need(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return block[key]


def _as_int(value, where: str) -> int:
    """An integer config value: an int or an integral float such as 1e4, never a bool."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_complex_entry(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v, 0.0)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"{where}: numbers or [re, im] pairs expected, got {v!r}")


def _parse_system(block: dict):
    _reject_unknown(block, _SYSTEM_KEYS, "system")
    d = _as_int(_need(block, "dimension", "system"), "system.dimension")
    if d < 1:
        raise ConfigError("system.dimension must be >= 1")
    table = np.asarray(_need(block, "eigenvalues", "system"), dtype=float)
    table = np.atleast_2d(table)
    if table.shape[1] != d:
        raise ConfigError(f"eigenvalue rows must have length {d}, got {table.shape}")
    aset = CommutingSet(table)
    amps = _need(block, "initial_amplitudes", "system")
    if len(amps) != d:
        raise ConfigError(f"initial_amplitudes must have length {d}")
    psi0 = np.array([_as_complex_entry(v, "initial_amplitudes") for v in amps])
    nrm = np.linalg.norm(psi0)
    if nrm == 0.0:
        raise ConfigError("initial state must be nonzero")
    psi0 = psi0 / nrm
    h0 = None
    if block.get("hamiltonian") is not None:
        rows = block["hamiltonian"]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ConfigError(f"hamiltonian must be {d}x{d}")
        h0 = np.array(
            [[_as_complex_entry(v, "hamiltonian") for v in row] for row in rows]
        )
        if np.max(np.abs(h0 - h0.conj().T)) > 1.0e-12:
            raise ConfigError("hamiltonian must be Hermitian")
    return aset, psi0, h0


def _parse_grid(block: dict) -> TimeGrid:
    _reject_unknown(block, _GRID_KEYS, "grid")
    return TimeGrid(
        float(_need(block, "t0", "grid")),
        float(_need(block, "t1", "grid")),
        _as_int(_need(block, "steps", "grid"), "grid.steps"),
    )


def _parse_ensemble(block: dict, seed_override, workers_override):
    _reject_unknown(block, _ENSEMBLE_KEYS, "ensemble")
    n = _as_int(_need(block, "trajectories", "ensemble"), "ensemble.trajectories")
    if n < 1:
        raise ConfigError("ensemble.trajectories must be >= 1")
    seed = seed_override if seed_override is not None else block.get("master_seed")
    if seed is None:
        raise ConfigError("ensemble.master_seed is required (or pass --seed)")
    seed = _as_int(seed, "ensemble.master_seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("master_seed must fit in an unsigned 64-bit integer")
    workers = workers_override
    if workers is None:
        workers = _as_int(block.get("workers", 1), "ensemble.workers")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    checkpoints = _as_int(block.get("checkpoints", 50), "ensemble.checkpoints")
    if checkpoints < 2:
        raise ConfigError("checkpoints must be >= 2")
    dump_paths = block.get("dump_paths", False)
    if not isinstance(dump_paths, bool):
        raise ConfigError(f"ensemble.dump_paths must be true or false, got {dump_paths!r}")
    return n, seed, workers, checkpoints, dump_paths


def _fmt(x) -> str:
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out_dir, payload):
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# task runners (each returns the list of artifact filenames it wrote)


def _run_kernel_diag(cfg, out_dir, kernel, base_dir):
    grid = _parse_grid(_need(cfg, "grid", "config"))
    rows = []
    for t in grid.nodes():
        lag = float(t - grid.t0)
        if kernel.family is KernelFamily.WHITE:
            d_val = math.nan
        else:
            d_val = kernel_eval(kernel, float(t), grid.t0)
        rows.append(
            (
                float(t),
                lag,
                d_val,
                kernel_cumulative(kernel, float(t), grid.t0),
                kernel_double_integral(kernel, float(t), grid.t0),
            )
        )
    _write_csv(os.path.join(out_dir, "kernel_diag.csv"), ["t", "lag", "D", "G", "f"], rows)
    return ["kernel_diag.csv"]


def _dump_paths(out_dir, grid, kernel, m, n, seed):
    print(
        f"collapsim: dumping {n} noise paths ({grid.num_nodes} nodes each); "
        "this can be a large file",
        file=sys.stderr,
    )
    if kernel.family is KernelFamily.WHITE:
        paths = sample_white_increments(grid, kernel.gamma, m, n, seed)
    else:
        paths = sample_paths(build_covariance(grid, kernel), m, n, seed)
    header = (
        ["trajectory", "k", "t_k"]
        + [f"w_{i + 1}" for i in range(m)]
        + [f"x_{i + 1}" for i in range(m)]
    )
    nodes = grid.nodes()
    rows = []
    for p in paths:
        for k in range(p.w.shape[1]):
            rows.append(
                (p.index, k, float(nodes[k]), *p.w[:, k].tolist(), *p.x[:, k].tolist())
            )
    _write_csv(os.path.join(out_dir, "paths.csv"), header, rows)
    return ["paths.csv"]


def _run_trajectories(cfg, out_dir, kernel, seed_override, workers_override):
    aset, psi0, h0 = _parse_system(_need(cfg, "system", "config"))
    grid = _parse_grid(_need(cfg, "grid", "config"))
    n, seed, workers, ncp, dump_paths = _parse_ensemble(
        _need(cfg, "ensemble", "config"), seed_override, workers_override
    )
    red = cfg.get("reduction", {})
    _reject_unknown(red, _REDUCTION_KEYS, "reduction")
    threshold = float(red.get("threshold", 0.99))
    min_decided = float(red.get("min_decided", 0.95))

    result = simulate_ensemble(
        aset, psi0, grid, kernel, n, seed,
        h0=h0, method="auto", checkpoints=checkpoint_indices(grid, ncp), workers=workers,
    )
    groups = aset.outcome_groups()
    labels = {g: grp.label for g, grp in enumerate(groups)}
    labels[UNDECIDED] = "undecided"
    per_cp = np.stack(
        [classify_outcomes(result, aset, threshold, checkpoint=j) for j in range(len(result.times))],
        axis=1,
    )

    header = (
        ["trajectory", "t", "weight"]
        + [f"p_{a + 1}" for a in range(result.dim)]
        + ["dominant_outcome"]
    )
    rows = []
    for i in range(result.n):
        for j, t in enumerate(result.times):
            probs = np.abs(result.amps[i, j]) ** 2
            rows.append(
                (
                    i,
                    float(t),
                    math.exp(min(result.log_weights[i, j], 709.0)),
                    *probs.tolist(),
                    labels[int(per_cp[i, j])],
                )
            )
    _write_csv(os.path.join(out_dir, "trajectories.csv"), header, rows)
    artifacts = ["trajectories.csv"]

    report = born_frequencies(result, aset, psi0, threshold, min_decided=min_decided)
    stat_rows = [
        (lbl, report.born[g], report.frequency[g], report.stderr[g], report.n_eff, report.undecided_fraction)
        for g, lbl in enumerate(report.labels)
    ]
    _write_csv(
        os.path.join(out_dir, "statistics.csv"),
        ["outcome", "born_weight", "cooked_frequency", "stderr", "n_eff", "undecided_fraction"],
        stat_rows,
    )
    artifacts.append("statistics.csv")
    if dump_paths:
        artifacts += _dump_paths(out_dir, grid, kernel, aset.num_ops, n, seed)
    return artifacts


def _run_master(cfg, out_dir, kernel):
    aset, psi0, h0 = _parse_system(_need(cfg, "system", "config"))
    grid = _parse_grid(_need(cfg, "grid", "config"))
    ncp = 50
    if "ensemble" in cfg:
        _reject_unknown(cfg["ensemble"], _ENSEMBLE_KEYS, "ensemble")
        ncp = _as_int(cfg["ensemble"].get("checkpoints", 50), "ensemble.checkpoints")
    rho0 = DensityMatrix(pure_density(psi0))
    cp = checkpoint_indices(grid, ncp)
    if kernel.family is KernelFamily.WHITE:
        path = evolve_lindblad_csl(h0, aset, rho0, grid, kernel.gamma, checkpoints=cp)
    else:
        if h0 is not None and np.max(np.abs(h0)) > 0.0:
            raise ConfigError("the colored master equation is defined with H0 absent")
        path = evolve_colored_master(aset, rho0, grid, kernel, checkpoints=cp)
    rows = []
    for j, t in enumerate(path.times):
        for a in range(rho0.dim):
            for b in range(rho0.dim):
                rows.append(
                    (float(t), a, b, path.rhos[j, a, b].real, path.rhos[j, a, b].imag, 0.0, 0.0)
                )
    _write_csv(
        os.path.join(out_dir, "density.csv"),
        ["t", "i", "j", "re", "im", "stderr_re", "stderr_im"],
        rows,
    )
    return ["density.csv"]


def _run_fn_check(cfg, out_dir, kernel, seed_override, workers_override):
    grid = _parse_grid(_need(cfg, "grid", "config"))
    n, seed, workers, _, _ = _parse_ensemble(
        _need(cfg, "ensemble", "config"), seed_override, workers_override
    )
    functionals = cfg.get("functionals", list(FN_FUNCTIONALS))
    if not isinstance(functionals, list) or not functionals:
        raise ConfigError("functionals must be a non-empty list")
    rows = []
    for fn in functionals:
        rep = fn_validate(kernel, str(fn), grid, n, seed)
        rows.append((rep.kernel_family, rep.functional, rep.lhs, rep.rhs, rep.diff_stderr, rep.sigmas))
    _write_csv(
        os.path.join(out_dir, "fncheck.csv"),
        ["kernel", "functional", "lhs", "rhs", "stderr", "sigmas"],
        rows,
    )
    return ["fncheck.csv"]


def _run_macro_rate(cfg, out_dir, base_dir):
    block = _need(cfg, "macro", "config")
    _reject_unknown(block, _MACRO_KEYS, "macro")
    params = MacroParams(
        alpha=float(block.get("alpha", MacroParams().alpha)),
        lam=float(block.get("lambda", MacroParams().lam)),
        beta=float(block["beta"]) if block.get("beta") is not None else None,
        t0=float(block.get("t0", 0.0)),
    )
    body_block = _need(block, "body", "macro")
    _reject_unknown(body_block, _BODY_KEYS, "macro.body")
    if "csv" in body_block:
        path = body_block["csv"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        body = MacroBody.from_csv(path)
    else:
        body = MacroBody.lattice(
            _as_int(_need(body_block, "lattice_sites", "macro.body"), "macro.body.lattice_sites"),
            float(_need(body_block, "spacing_cm", "macro.body")),
        )
    displacements = [float(v) for v in _need(block, "displacements", "macro")]
    times = [float(v) for v in _need(block, "times", "macro")]
    if not displacements or not times:
        raise ConfigError("macro.displacements and macro.times must be non-empty")
    origin = np.zeros(3)
    rows = []
    for dq in displacements:
        q1 = np.array([dq, 0.0, 0.0])
        decay = com_offdiag_decay(body, q1, origin, times, params)
        for t, dec in zip(times, decay):
            rows.append((dq, t, macro_damping_rate(body, q1, origin, t, params), float(dec)))
    _write_csv(
        os.path.join(out_dir, "macro_rate.csv"),
        ["dQ", "t", "Gamma", "decay_factor"],
        rows,
    )
    return ["macro_rate.csv"]


# ---------------------------------------------------------------------------


def _resolve_out_dir(args_out, cfg, task) -> str:
    if args_out:
        return args_out
    root = os.environ.get("COLLAPSIM_OUT", os.path.join(os.getcwd(), "collapsim_out"))
    directory = cfg.get("output", {}).get("directory")
    if directory:
        return directory if os.path.isabs(directory) else os.path.join(root, directory)
    return os.path.join(root, task)


def run(config_path: str, out_dir=None, workers=None, seed=None) -> int:
    with open(config_path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _reject_unknown(cfg, _TOP_KEYS, "config")
    task = _need(cfg, "task", "config")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; pick from {TASKS}")
    if "output" in cfg:
        _reject_unknown(cfg["output"], _OUTPUT_KEYS, "output")

    base_dir = os.path.dirname(os.path.abspath(config_path))
    kernel = None
    if task in ("trajectories", "master", "fn-check", "kernel-diag"):
        kernel_block = _need(cfg, "kernel", "config")
        _reject_unknown(kernel_block, _KERNEL_KEYS, "kernel")
        kernel = kernel_from_config(kernel_block, base_dir=base_dir)

    out = _resolve_out_dir(out_dir, cfg, task)
    os.makedirs(out, exist_ok=True)

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "task": task,
        "status": "started",
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "master_seed": seed if seed is not None else cfg.get("ensemble", {}).get("master_seed"),
        "workers": workers if workers is not None else cfg.get("ensemble", {}).get("workers", 1),
        "versions": {
            "collapsim": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "artifacts": [],
    }
    _write_manifest(out, manifest)

    if task == "kernel-diag":
        artifacts = _run_kernel_diag(cfg, out, kernel, base_dir)
    elif task == "trajectories":
        artifacts = _run_trajectories(cfg, out, kernel, seed, workers)
    elif task == "master":
        artifacts = _run_master(cfg, out, kernel)
    elif task == "fn-check":
        artifacts = _run_fn_check(cfg, out, kernel, seed, workers)
    else:
        artifacts = _run_macro_rate(cfg, out, base_dir)

    manifest["status"] = "complete"
    manifest["artifacts"] = artifacts
    _write_manifest(out, manifest)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="collapsim",
        description="Run a collapse-trajectory experiment from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, default=None, help="worker count override")
    parser.add_argument("--seed", type=int, default=None, help="master seed override (u64)")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.out, args.workers, args.seed)
    except CollapsimError as exc:
        print(f"collapsim: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"collapsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
