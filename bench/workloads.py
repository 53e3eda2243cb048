"""The benchmark's two workloads, made of four tasks: inputs from a seed, the timed entry call, the output check.

Each task is one user-visible experiment, run in a fresh process.  The
``cli-tasks`` workload runs the three CLI experiments one after the other,
as a user would type them; ``decohere-white-d6`` is one library pipeline.
A task's ``make_inputs`` runs in the set-up child, in a directory of its
own.  ``prepare`` runs in the run child and returns the entry call, which
is all that is timed, and a ``finish`` step that stores what a library call
returned.  ``check`` runs in the benchmark's own process against the files
the run left behind.  The checks are the physics each task reproduces; they
use closed forms written out here, never values computed by collapsim
itself, except where the task's own reference integrator is the oracle
(``decohere-white-d6``).

The seed reaches the program only as ``master_seed``.  The
``macro-amplify`` task has no random numbers, so there the seed picks the
displacements.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

SPEED_OF_LIGHT_CM_S = 2.99792458e10

# A shared 2-core host swings between faster and slower states that last
# tens of seconds, so each run is made long (6-8 s there) to average over
# them; a 55 s measurement takes its median over 6-8 runs.  born-colored is
# the README's size.
BORN_N = 10_000
DECOHERE_N = 10_000
FN_N = 16_000
MACRO_SITES = 420
MACRO_DISPLACEMENTS = 8
MACRO_ALPHA = 1.0e10  # cm^-2, so sigma = 1e-5 cm
MACRO_LAMBDA = 1.0e-16  # s^-1
MACRO_TIMES = [1e-16, 2e-16, 5e-16, 1e-15, 1e-13, 1e12, 3e12, 1e13, 3e13, 1e14]

SIGMA_TOL = 5.0


@dataclass
class Checked:
    """Outcome of one output check: verdict, reason, output digest, exact counts."""

    ok: bool
    detail: str
    digest: str
    counts: dict


@dataclass(frozen=True)
class Task:
    """One entry call, made in a fresh process."""

    name: str
    make_inputs: Callable[[int, str], None]
    prepare: Callable[[str, str], tuple]
    check: Callable[[str, str], Checked]


@dataclass(frozen=True)
class Workload:
    """One workload: its tasks, run in order; BENCHMARK.json says why each was chosen."""

    name: str
    work: int  # items per run for work_per_s: CLI commands or trajectories
    tasks: tuple[Task, ...]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest_files(out_dir, names):
    """sha256 over the named files in order, with their names; also their total size."""
    h = hashlib.sha256()
    size = 0
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _prepare_cli(inputs, out):
    from collapsim import cli

    argv = ["--config", os.path.join(inputs, "config.json"), "--out", out]

    def entry():
        code = cli.main(argv)  # an attribute lookup per call, so a tracer's wrapper is seen
        if code != 0:
            raise SystemExit(code)

    return entry, None


# ---------------------------------------------------------------------------
# born-colored: the README experiment through the CLI


BORN_AMPS = [0.6, 0.8]


def _born_inputs(seed, inputs):
    _write_json(
        os.path.join(inputs, "config.json"),
        {
            "task": "trajectories",
            "system": {"dimension": 2, "eigenvalues": [[1.0, -1.0]], "initial_amplitudes": BORN_AMPS},
            "kernel": {"family": "exponential", "gamma": 1.0, "tau": 0.25},
            "grid": {"t0": 0.0, "t1": 1.65, "steps": 330},
            "ensemble": {"trajectories": BORN_N, "master_seed": seed, "workers": 1, "checkpoints": 11},
            "reduction": {"threshold": 0.9, "min_decided": 0.95},
        },
    )


def _born_check(inputs, out):
    digest, size = _digest_files(out, ["statistics.csv", "trajectories.csv"])
    with open(os.path.join(out, "trajectories.csv"), "rb") as fh:
        lines = fh.read().count(b"\n")
    norm = sum(a * a for a in BORN_AMPS)
    born = [a * a / norm for a in BORN_AMPS]
    rows = _csv_rows(os.path.join(out, "statistics.csv"))
    worst = 0.0
    ok = len(rows) == 2 and lines == 1 + BORN_N * 11
    for row, want in zip(rows, born):
        ok = ok and abs(float(row["born_weight"]) - want) <= 1e-12
        worst = max(worst, abs(float(row["cooked_frequency"]) - want) / float(row["stderr"]))
    ok = ok and worst <= SIGMA_TOL
    n_eff = float(rows[0]["n_eff"]) if rows else 0.0
    detail = f"worst {worst:.2f} sigma (tol {SIGMA_TOL}); n_eff {n_eff:.1f}; {lines} csv lines"
    return Checked(ok, detail, digest, {"cli.csv_bytes": size})


# ---------------------------------------------------------------------------
# decohere-white-d6: library pipeline, Trotter ensemble -> density -> Lindblad


DECOHERE = {"gamma": 0.5, "dim": 6, "hop": 0.3, "t1": 1.0, "steps": 200, "checkpoints": 50}


def _decohere_inputs(seed, inputs):
    _write_json(os.path.join(inputs, "spec.json"), dict(DECOHERE, n=DECOHERE_N, master_seed=seed))


def _decohere_problem(spec):
    import numpy as np
    from collapsim import CommutingSet, TimeGrid, white_kernel
    from collapsim.noise import checkpoint_indices

    d = spec["dim"]
    h0 = np.zeros((d, d), dtype=complex)
    idx = np.arange(d - 1)
    h0[idx, idx + 1] = h0[idx + 1, idx] = spec["hop"]
    grid = TimeGrid(0.0, spec["t1"], spec["steps"])
    return dict(
        aset=CommutingSet([np.linspace(-1.0, 1.0, d)]),
        psi0=np.full(d, 1.0 / math.sqrt(d), dtype=complex),
        h0=h0,
        grid=grid,
        kernel=white_kernel(spec["gamma"]),
        cp=checkpoint_indices(grid, spec["checkpoints"]),
    )


def _decohere_pipeline(p, n, seed):
    from collapsim import dynamics, master
    from collapsim.hilbert import DensityMatrix, pure_density

    res = dynamics.simulate_ensemble(
        p["aset"], p["psi0"], p["grid"], p["kernel"], n, seed, h0=p["h0"], checkpoints=p["cp"]
    )
    est = master.ensemble_to_density(res, "raw")
    ref = master.evolve_lindblad_csl(
        p["h0"], p["aset"], DensityMatrix(pure_density(p["psi0"])), p["grid"], p["kernel"].gamma,
        checkpoints=p["cp"],
    )
    return est, ref


def _prepare_decohere(inputs, out):
    import numpy as np

    spec = _read_json(os.path.join(inputs, "spec.json"))
    p = _decohere_problem(spec)
    # a library user imports once and calls many times: warm the code paths on 2 trajectories
    _decohere_pipeline(p, 2, spec["master_seed"])

    def finish(result):
        est, ref = result
        os.makedirs(out, exist_ok=True)
        np.savez(
            os.path.join(out, "density.npz"),
            rhos=est.rhos, stderr_re=est.stderr_re, stderr_im=est.stderr_im, ref=ref.rhos,
        )

    return (lambda: _decohere_pipeline(p, spec["n"], spec["master_seed"])), finish


def _decohere_check(inputs, out):
    import numpy as np

    with np.load(os.path.join(out, "density.npz")) as z:
        rhos, se_re, se_im, ref = z["rhos"], z["stderr_re"], z["stderr_im"], z["ref"]
    d, ncp = DECOHERE["dim"], DECOHERE["checkpoints"]
    ok = rhos.shape == ref.shape == (ncp, d, d)
    # 1e-8 floor: deterministic entries carry a zero batch error
    sig = np.abs(rhos - ref) / (np.hypot(se_re, se_im) + 1e-8)
    worst = float(np.max(sig)) if ok else math.inf
    ok = bool(ok and worst <= SIGMA_TOL and abs(np.trace(ref[-1]).real - 1.0) <= 1e-8)
    digest = hashlib.sha256(np.ascontiguousarray(rhos).tobytes()).hexdigest()
    return Checked(ok, f"worst entry {worst:.2f} sigma (tol {SIGMA_TOL})", digest, {})


# ---------------------------------------------------------------------------
# fn-identity: Furutsu-Novikov check through the CLI, one Gaussian kernel


FN_FUNCTIONAL_NAMES = ["constant", "linear_x", "exp_x"]


def _fn_inputs(seed, inputs):
    _write_json(
        os.path.join(inputs, "config.json"),
        {
            "task": "fn-check",
            "kernel": {"family": "gaussian", "gamma": 0.8, "tau": 0.4},
            "grid": {"t0": 0.0, "t1": 1.0, "steps": 200},
            "ensemble": {"trajectories": FN_N, "master_seed": seed, "workers": 1},
            "functionals": FN_FUNCTIONAL_NAMES,
        },
    )


def _fn_check(inputs, out):
    digest, size = _digest_files(out, ["fncheck.csv"])
    rows = _csv_rows(os.path.join(out, "fncheck.csv"))
    sig = [float(r["sigmas"]) for r in rows]
    ok = [r["functional"] for r in rows] == FN_FUNCTIONAL_NAMES and max(sig) <= SIGMA_TOL
    return Checked(ok, f"worst {max(sig):.2f} sigma (tol {SIGMA_TOL})", digest, {"cli.csv_bytes": size})


# ---------------------------------------------------------------------------
# macro-amplify: centre-of-mass damping rate of a lattice body


def _macro_displacements(seed):
    """Displacements (20k + u) sigma with u in [8, 12]: at least 8 sigma from every lattice multiple."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sigma = 1.0 / math.sqrt(MACRO_ALPHA)
    k = rng.choice(MACRO_SITES, MACRO_DISPLACEMENTS, replace=False)
    u = rng.uniform(8.0, 12.0, MACRO_DISPLACEMENTS)
    return sorted(float((20.0 * ki + ui) * sigma) for ki, ui in zip(k, u))


def _macro_inputs(seed, inputs):
    sigma = 1.0 / math.sqrt(MACRO_ALPHA)
    _write_json(
        os.path.join(inputs, "config.json"),
        {
            "task": "macro-rate",
            "macro": {
                "alpha": MACRO_ALPHA,
                "lambda": MACRO_LAMBDA,
                "body": {"lattice_sites": MACRO_SITES, "spacing_cm": 20.0 * sigma},
                "displacements": _macro_displacements(seed),
                "times": MACRO_TIMES,
            },
        },
    )


def _macro_check(inputs, out):
    digest, size = _digest_files(out, ["macro_rate.csv"])
    rows = _csv_rows(os.path.join(out, "macro_rate.csv"))
    sqrt_beta = SPEED_OF_LIGHT_CM_S * math.sqrt(MACRO_ALPHA)
    worst = 0.0
    for r in rows:
        want = MACRO_LAMBDA * MACRO_SITES * math.erf(0.5 * sqrt_beta * float(r["t"]))
        worst = max(worst, abs(float(r["Gamma"]) - want) / want)
    ok = len(rows) == MACRO_DISPLACEMENTS * len(MACRO_TIMES) and worst <= 1e-6
    return Checked(ok, f"linear-in-N worst rel {worst:.2e} (tol 1e-6)", digest, {"cli.csv_bytes": size})


TASKS = {
    t.name: t
    for t in (
        Task("born-colored", _born_inputs, _prepare_cli, _born_check),
        Task("fn-identity", _fn_inputs, _prepare_cli, _fn_check),
        Task("macro-amplify", _macro_inputs, _prepare_cli, _macro_check),
        Task("decohere-white-d6", _decohere_inputs, _prepare_decohere, _decohere_check),
    )
}
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-tasks", 3, tuple(TASKS[n] for n in ("born-colored", "fn-identity", "macro-amplify"))),
        Workload("decohere-white-d6", DECOHERE_N, (TASKS["decohere-white-d6"],)),
    )
}
