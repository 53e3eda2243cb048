"""Configuration-driven command line entry point.

One config file = one experiment.  Every block the task reads is checked
against one schema (unknown keys are rejected), and by the library's own rule
functions, before anything is written; a manifest is written before any
result file so partial runs are detectable, and every artifact is a CSV with
a fixed documented header.  Task runners return their artifacts and ``run``
alone writes them: only the streamed paths.csv is computed as it is written,
so a numerical failure anywhere else leaves only the started manifest.
Identical config + seed gives byte-identical CSVs on one host and build (README says what else they depend on).
``ensemble.workers`` and ``--workers`` are validated and change nothing: a long
``trajectories`` ensemble is drawn, solved, classified and formatted in one pass
of forked processes on every usable core whatever they say, with the same bytes,
and its text is written only after its statistics pass; a short one runs here.
The text is csv.writer's, built in numpy byte matrices by ``_csvtext``: floats
take repr's shortest digits (Ryu, over whole columns), integers their digits,
and every other cell ``str``.

Exit status: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._csvtext import block_text, cells
from .errors import CollapsimError, ConfigError
from .hilbert import CommutingSet, DensityMatrix, initial_state, pure_density, require_commuting, validate_hamiltonian
from .kernels import KernelFamily, eval_zero_extended, kernel_cumulative, kernel_double_integral, kernel_from_config
from .macrobody import (DEFAULT_ALPHA, DEFAULT_LAMBDA, MacroBody, MacroParams, com_offdiag_decay, macro_damping_rate,
                        require_after_t0, require_beta)
from .master import evolve_colored_master, evolve_lindblad_csl, require_finite_gaps, require_stable_step
from .noise import TimeGrid, checkpoint_indices, require_t1_after_t0
from .dynamics import EnsembleResult, _solved_chunks, ensemble_noise
from .fncheck import FN_FUNCTIONALS, fn_validate, require_samples
from .reduction import born_frequencies, classify_outcomes, require_min_decided, require_threshold

TASKS = ("trajectories", "master", "fn-check", "macro-rate", "kernel-diag")

_REQUIRED = object()  # schema default of a key that must be given
_BLOCK = ("object", {}, None)
_DUMP_BLOCK = 64  # trajectories per block of paths.csv, so a large dump streams
_ROW_BLOCK = 4096  # CSV rows formatted and written at a time
_ROW_STEPS = 30  # a trajectories.csv row counts as 30 trajectory-steps of the draw in the fork cut (BENCH_29.json)

# block -> key -> (JSON type, default or _REQUIRED, interval or None).
# A one-element list [k] is a list of k, a tuple lists the allowed values, and
# "complex" is a number or an [re, im] pair.  An interval such as "(0, inf)"
# or "[0, 2^64)" bounds a number, or the length of a list.  This table is the
# only place that names a config key's type, default or bound.
_SCHEMA = {
    "config": {
        "task": (TASKS, _REQUIRED, None),
        **dict.fromkeys(("system", "kernel", "grid", "ensemble", "reduction", "macro", "output"), _BLOCK),
        "functionals": ([FN_FUNCTIONALS], FN_FUNCTIONALS, "[1, inf)"),
    },
    "system": {
        "dimension": ("int", _REQUIRED, "[1, inf)"),
        "eigenvalues": ([["float"]], _REQUIRED, "[1, inf)"),
        "initial_amplitudes": (["complex"], _REQUIRED, None),
        "hamiltonian": ([["complex"]], None, None),
    },
    "kernel": {
        "family": (tuple(f.value for f in KernelFamily), _REQUIRED, None), "gamma": ("float", _REQUIRED, "(0, inf)"),
        "tau": ("float", None, "(0, inf)"), "table_path": ("str", None, None),
    },
    "grid": {"t0": ("float", _REQUIRED, None), "t1": ("float", _REQUIRED, None),
             "steps": ("int", _REQUIRED, "[1, inf)")},
    "ensemble": {
        "trajectories": ("int", _REQUIRED, "[1, inf)"), "master_seed": ("int", _REQUIRED, "[0, 2^64)"),
        "workers": ("int", 1, "[1, inf)"), "checkpoints": ("int", 50, "[2, inf)"), "dump_paths": ("bool", False, None),
    },
    "reduction": {"threshold": ("float", 0.99, None), "min_decided": ("float", 0.95, None)},
    "output": {"directory": ("str", None, None)},
    "macro": {
        "alpha": ("float", DEFAULT_ALPHA, "(0, inf)"), "lambda": ("float", DEFAULT_LAMBDA, "(0, inf)"),
        "beta": ("float", None, "(0, inf)"), "t0": ("float", 0.0, None), "body": ("object", _REQUIRED, None),
        "displacements": (["float"], _REQUIRED, "[1, inf)"), "times": (["float"], _REQUIRED, "[1, inf)"),
    },
    "macro.body": {"lattice_sites": ("int", None, "[1, inf)"), "spacing_cm": ("float", None, None),
                   "csv": ("str", None, None)},
}
_JSON_TYPES = {"bool": (bool, "true or false"), "str": (str, "a string"), "object": (dict, "an object")}


def _as_int(value, where: str) -> int:
    """An integer config value: an int or an integral float such as 1e4, never a bool."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _check(value, kind, where: str):
    """``value`` as the schema type ``kind``, or a ConfigError naming ``where``.

    Ints take integral floats, floats take ints and must be finite, and a bool
    is only ever a bool.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_check(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{where} must be one of {kind}, got {value!r}")
        return value
    if kind == "int":
        return _as_int(value, where)
    if kind == "complex" and isinstance(value, list) and len(value) == 2:
        return complex(_check(value[0], "float", where), _check(value[1], "float", where))
    if kind in ("float", "complex"):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max):
            pair = "" if kind == "float" else " or an [re, im] pair"
            raise ConfigError(f"{where} must be a finite number{pair}, got {value!r}")
        return float(value)
    pytype, name = _JSON_TYPES[kind]
    if not isinstance(value, pytype):
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    return value


def _bound(value, interval: str, where: str) -> None:
    """A ConfigError naming ``where`` unless ``value``, or a list's length, lies in ``interval``, whose
    ends are numbers, "inf" or powers such as "2^64"; with an infinite upper end "[1, inf)" reads ">= 1"."""
    size, what = (len(value), where + " length") if isinstance(value, list) else (value, where)
    low, high = interval[1:-1].split(", ")
    lo, hi = (float(base) ** int(power or 1) for base, _, power in (low.partition("^"), high.partition("^")))
    if not ((size >= lo if interval[0] == "[" else size > lo) and (size <= hi if interval[-1] == "]" else size < hi)):
        rule = f"in {interval}" if hi < math.inf else (">= " if interval[0] == "[" else "> ") + low
        raise ConfigError(f"{what} must be {rule}, got {size!r}")


def _block(raw, name: str, required: bool = True) -> dict:
    """Config block ``name`` checked against ``_SCHEMA[name]``.

    Unknown and missing keys are rejected, every value is typed and bounded,
    and absent keys take their defaults.  ``null`` counts as absent only for
    keys whose default is None.  With ``required=False`` a missing required
    key reads as None.
    """
    schema = _SCHEMA[name]
    prefix = "" if name == "config" else name + "."
    _check(raw, "object", name)
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) {[prefix + k for k in unknown]}")
    out = {}
    for key, (kind, default, interval) in schema.items():
        where = prefix + key
        if raw.get(key) is None and (key not in raw or default is None):
            if default is _REQUIRED and required:
                raise ConfigError(f"missing required key {where}")
            out[key] = None if default is _REQUIRED else default
            continue
        out[key] = _check(raw[key], kind, where)
        if interval is not None:
            _bound(out[key], interval, where)
    return out


def _parse_system(raw):
    system = _block(raw, "system")
    d, rows, amps, h0 = (system[k] for k in ("dimension", "eigenvalues", "initial_amplitudes", "hamiltonian"))
    if any(len(row) != d for row in rows):
        raise ConfigError(f"system.eigenvalues rows must have length {d}")
    aset = CommutingSet(rows)
    psi0 = initial_state(amps, d, "system.initial_amplitudes")
    if h0 is not None:
        h0 = validate_hamiltonian(h0, d, "system.hamiltonian")
    return aset, psi0, h0


def _parse_macro(raw, base_dir):
    macro = _block(raw, "macro")
    beta = require_beta(macro["alpha"], macro["beta"], "macro.beta")
    params = MacroParams(alpha=macro["alpha"], lam=macro["lambda"], beta=beta, t0=macro["t0"])
    body = _block(macro["body"], "macro.body")
    if body["csv"] is not None:
        try:
            body = MacroBody.from_csv(os.path.join(base_dir, body["csv"]))
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, or not UTF-8
            raise ConfigError(f"macro.body.csv {body['csv']!r} cannot be read: {exc}") from exc
    elif body["lattice_sites"] is None or body["spacing_cm"] is None:
        raise ConfigError("macro.body needs csv, or lattice_sites and spacing_cm")
    else:
        body = MacroBody.lattice(body["lattice_sites"], body["spacing_cm"])
    require_after_t0(macro["times"], params.t0, "macro.times")
    return params, body, macro["displacements"], macro["times"]


def _text_blocks(columns):
    """The rows of equal-length ``columns`` (arrays, lists or ``cells``) as CSV text, ``_ROW_BLOCK`` rows
    at a time, so memory does not grow with the row count; each block's text depends on its rows alone."""
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        yield block_text([col[lo : lo + _ROW_BLOCK] for col in columns])


def _write_csv(path, header, blocks):
    """Write ``header``, then each block: CSV text already formatted, or equal-length columns formatted
    by ``_text_blocks``.  Several blocks let a file stream.  The bytes are csv.writer's for rows of two
    or more cells."""
    with open(path, "w", newline="") as fh:
        fh.write(block_text([[name] for name in header]))
        for block in blocks:
            fh.writelines([block] if isinstance(block, str) else _text_blocks(block))


def _write_manifest(out_dir, payload):
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# task runners: each returns its artifacts as (file name, header, column blocks),
# and ``run`` writes them; a streamed file's blocks are drawn as it is written


def _run_kernel_diag(kernel, grid):
    ts = grid.nodes().tolist()
    white = kernel.family is KernelFamily.WHITE
    columns = [
        grid.nodes(),
        grid.nodes() - grid.t0,
        [math.nan if white else eval_zero_extended(kernel, t, grid.t0) for t in ts],
        [kernel_cumulative(kernel, t, grid.t0) for t in ts],
        [kernel_double_integral(kernel, t, grid.t0) for t in ts],
    ]
    return [("kernel_diag.csv", ["t", "lag", "D", "G", "f"], [columns])]


def _dump_paths(grid, kernel, m, n, seed, factor):
    print(f"collapsim: dumping {n} noise paths ({grid.num_nodes} nodes each); this can be a large file",
          file=sys.stderr)
    header = ["trajectory", "k", "t_k", *(f"w_{i + 1}" for i in range(m)), *(f"x_{i + 1}" for i in range(m))]
    t_cells = cells(grid.nodes())  # each node time formatted once

    def block(batch):  # each block's paths are drawn as it is written, so memory stays bounded in n
        count = batch.w.shape[-1]  # one row per step for white noise, per node otherwise
        w = batch.w.transpose(1, 0, 2).reshape(m, -1)
        x = batch.x[:, :, :count].transpose(1, 0, 2).reshape(m, -1)
        ks = np.tile(np.arange(count), len(batch))
        index = np.repeat(np.arange(batch.index, batch.index + len(batch)), count)
        return [index, ks, t_cells.take(ks, axis=0), *w, *x]

    return "paths.csv", header, ensemble_noise(grid, kernel, m, n, seed, _DUMP_BLOCK, task=block, _factor=factor)


def _run_trajectories(system, grid, kernel, ens, red):
    aset, psi0, h0 = system
    n, seed, d = ens["trajectories"], ens["master_seed"], aset.dim
    cp = checkpoint_indices(grid, ens["checkpoints"])
    t_cells = cells(grid.nodes()[cp])  # each checkpoint time and label is formatted once, then picked per row
    labels = cells([*(g.label for g in aset.outcome_groups()), "undecided"])

    def rows_text(rows):  # a chunk's rows of trajectories.csv as text, and their last checkpoint
        columns = [
            cells(np.arange(rows.index, rows.index + rows.n)).take(np.repeat(np.arange(rows.n), len(cp)), axis=0),
            t_cells.take(np.tile(np.arange(len(cp)), rows.n), axis=0),
            rows.log_weights.ravel(),
            *(np.abs(rows.amps) ** 2).reshape(-1, d).T,
            labels.take(classify_outcomes(rows, aset, red["threshold"]).ravel(), axis=0),  # UNDECIDED (-1): the last
        ]
        return "".join(_text_blocks(columns)), rows.log_weights[:, -1], rows.amps[:, -1]

    # each chunk is solved, classified and formatted where it is drawn, in forked processes for a long ensemble
    method, times, factor, chunks = _solved_chunks(rows_text, aset, psi0, grid, kernel, n, seed, h0, "auto", cp,
                                                   task_steps=len(cp) * _ROW_STEPS)
    texts, logw, amps = zip(*chunks)
    last = EnsembleResult(grid, times[-1:], np.concatenate(amps)[:, None], np.concatenate(logw)[:, None], None,
                          method, 0)  # the statistics read the last checkpoint's weights and amplitudes, not x
    report = born_frequencies(last, aset, psi0, red["threshold"], min_decided=red["min_decided"])
    header = ["trajectory", "t", "log_weight", *(f"p_{a + 1}" for a in range(d)), "dominant_outcome"]
    stat_columns = [
        report.labels, report.born, report.frequency, report.stderr,
        np.full(len(report.labels), report.n_eff), np.full(len(report.labels), report.undecided_fraction),
    ]
    stat_header = ["outcome", "born_weight", "cooked_frequency", "stderr", "n_eff", "undecided_fraction"]
    artifacts = [("trajectories.csv", header, texts), ("statistics.csv", stat_header, [stat_columns])]
    if ens["dump_paths"]:
        artifacts.append(_dump_paths(grid, kernel, aset.num_ops, n, seed, factor))
    return artifacts


def _run_master(system, grid, kernel, ncp):
    aset, psi0, h0 = system
    rho0 = DensityMatrix(pure_density(psi0))
    cp = checkpoint_indices(grid, ncp)
    if kernel.family is KernelFamily.WHITE:
        path = evolve_lindblad_csl(h0, aset, rho0, grid, kernel.gamma, checkpoints=cp)
    else:
        path = evolve_colored_master(aset, rho0, grid, kernel, checkpoints=cp)
    d, ncp = rho0.dim, len(path.times)
    zeros = np.zeros(ncp * d * d)
    columns = [
        np.repeat(path.times, d * d),
        np.tile(np.repeat(np.arange(d), d), ncp),
        np.tile(np.arange(d), d * ncp),
        path.rhos.real.ravel(),
        path.rhos.imag.ravel(),
        zeros,
        zeros,
    ]
    return [("density.csv", ["t", "i", "j", "re", "im", "stderr_re", "stderr_im"], [columns])]


def _run_fn_check(kernel, grid, ens, functionals):
    reports = [fn_validate(kernel, fn, grid, ens["trajectories"], ens["master_seed"]) for fn in functionals]
    fields = ("kernel_family", "functional", "lhs", "rhs", "diff_stderr", "sigmas")
    header = ["kernel", "functional", "lhs", "rhs", "stderr", "sigmas"]
    return [("fncheck.csv", header, [[[getattr(rep, f) for rep in reports] for f in fields]])]


def _run_macro_rate(params, body, displacements, times):
    def rows(dq):  # one displacement's rows, whose decay and rate share one pair bracket
        q1, origin = np.array([dq, 0.0, 0.0]), np.zeros(3)
        decay = com_offdiag_decay(body, q1, origin, times, params)
        return [np.full(len(times), dq), times, macro_damping_rate(body, q1, origin, times, params), decay]

    columns = [np.concatenate(column) for column in zip(*map(rows, displacements))]  # all rows before any write
    return [("macro_rate.csv", ["dQ", "t", "Gamma", "decay_factor"], [columns])]


# ---------------------------------------------------------------------------


def _plan(cfg, base_dir, seed=None, workers=None):
    """Validate every block the task reads; nothing is computed or written.

    Returns the top-level block, the ensemble block (checked, with the
    ``--seed``/``--workers`` overrides applied, where the task reads it, else
    a null seed), the task runner and its arguments.  The overrides hold the
    ensemble bounds for every task.
    """
    top = _block(cfg, "config")
    task = top["task"]
    overrides = {k: v for k, v in (("master_seed", seed), ("workers", workers)) if v is not None}
    _block(overrides, "ensemble", required=False)
    ens = {"master_seed": None}
    if task in ("trajectories", "master", "fn-check"):
        ens = _block({**top["ensemble"], **overrides}, "ensemble", required=task != "master")
        if task == "fn-check":
            require_samples(ens["trajectories"], "ensemble.trajectories")
    if task == "macro-rate":
        return top, ens, _run_macro_rate, _parse_macro(top["macro"], base_dir)
    kernel = kernel_from_config(_block(top["kernel"], "kernel"), base_dir=base_dir)
    grid = _block(top["grid"], "grid")
    require_t1_after_t0(grid["t0"], grid["t1"], grid["steps"], "grid.t1")
    grid = TimeGrid(**grid)
    if task == "kernel-diag":
        return top, ens, _run_kernel_diag, (kernel, grid)
    if task == "fn-check":
        return top, ens, _run_fn_check, (kernel, grid, ens, top["functionals"])
    system = _parse_system(top["system"])
    if task == "master":
        if kernel.family is not KernelFamily.WHITE and system[2] is not None and np.any(system[2]):
            raise ConfigError("system.hamiltonian must be absent or zero: the colored master equation has no H0")
        require_finite_gaps(system[0], "system.eigenvalues")
        # the rate of both master equations is gamma G(t), and G = 1/2 for white noise
        require_stable_step(system[2], system[0], grid,
                            lambda t: kernel.gamma * kernel_cumulative(kernel, t, grid.t0), "grid.steps")
        return top, ens, _run_master, (system, grid, kernel, ens["checkpoints"])
    if kernel.family is not KernelFamily.WHITE and system[2] is not None:
        require_commuting(system[2], system[0], "system.hamiltonian")
    red = _block(top["reduction"], "reduction")
    require_threshold(red["threshold"], "reduction.threshold")
    require_min_decided(red["min_decided"], "reduction.min_decided")
    return top, ens, _run_trajectories, (system, grid, kernel, ens, red)


def run(config_path: str, out_dir=None, workers=None, seed=None) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8, or not JSON
        raise ConfigError(f"--config {config_path!r} is not a readable JSON file: {exc}") from exc
    top, ens, runner, args = _plan(cfg, os.path.dirname(os.path.abspath(config_path)), seed, workers)
    directory = _block(top["output"], "output")["directory"]
    if not out_dir:
        root = os.environ.get("COLLAPSIM_OUT", os.path.join(os.getcwd(), "collapsim_out"))
        out_dir = os.path.join(root, directory or top["task"])
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file in its place, or a path that cannot be made
        raise ConfigError(f"--out or output.directory {out_dir!r} cannot be made a directory: {exc}") from exc

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "task": top["task"],
        "status": "started",
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "master_seed": ens["master_seed"],
        "workers": 1,  # ensemble.workers changes nothing; the forked processes on the usable cores change no byte
        "versions": {"collapsim": __version__, "numpy": np.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "artifacts": [],
    }
    _write_manifest(out_dir, manifest)
    for name, header, blocks in runner(*args):
        _write_csv(os.path.join(out_dir, name), header, blocks)
        manifest["artifacts"].append(name)
    manifest["status"] = "complete"
    _write_manifest(out_dir, manifest)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collapsim",
                                     description="Run a collapse-trajectory experiment from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--workers", type=int, default=None, help="validated like ensemble.workers; changes nothing")
    parser.add_argument("--seed", type=int, default=None, help="master seed override (u64)")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.out, args.workers, args.seed)
    except (CollapsimError, MemoryError) as exc:  # running out of memory is a numerical failure
        print(f"collapsim: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
