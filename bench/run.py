"""End-to-end benchmark of collapsim: two workloads, each task run in its own process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

The workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the root
names them and the metrics, with their units.  Run from a checkout that
holds ``src/collapsim``; the benchmark puts ``src`` on the children's
``PYTHONPATH`` and touches no setting of the machine (BLAS threads are as
found).

Set-up: a fresh process imports collapsim and writes the workload's inputs.
Then, for ``--seconds``, the workload runs again and again; without
tracing, set-up is timed once more after each run, into a spare directory,
and ``setup_s`` is the median wall time of all set-ups.  A run makes each
of the workload's tasks in a fresh process that times one entry call:
``cli.main`` for the three CLI tasks of ``cli-tasks``, the ensemble ->
density -> integrator pipeline after a 2-trajectory warm-up for
``decohere-white-d6``.  A run's time is the sum of its tasks' times and
its memory their peak.  After each
task the benchmark checks the output against the physics, hashes it and
deletes it.  All runs of one invocation use the same seed, so their
digests must agree.

With ``--trace 1`` untraced and traced runs alternate; the traced ones wrap
each layer's public functions (``tracer.py``) and report per-layer medians,
summed over a run's tasks, plus the tracing overhead and, on the
born-colored task, the worker-pool speed-up.  A layer a workload does not
reach reads 0 there.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every sample, digest and the
machine record go to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HARD_LIMIT_S = 160  # a workload's children are killed past this, so one invocation ends within 180 s


def _fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _child(args, kill_at):
    """Run child.py with args, killing it at perf_counter() kill_at; returns (code, stdout, stderr, wall s)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=max(1.0, kill_at - t0),
        )
    except subprocess.TimeoutExpired:
        return -1, "", "timed out", time.perf_counter() - t0
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, read through its own getter (None if not found)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "openblas_threads": _openblas_threads(),
    }


def _add(into, more):
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


class Runs:
    """The runs of one invocation: samples, check verdicts and digests."""

    def __init__(self, wl, inputs, work, kill_at):
        self.wl, self.inputs, self.work, self.kill_at = wl, inputs, work, kill_at
        self.attempted = 0
        self.failures = []
        self.samples = {"0": [], "1": []}  # by trace flag: reports of the runs that completed
        self.digests = {}  # digest -> number of runs that gave it
        self.details = []

    def one(self, trace):
        """Make one run: every task in order."""
        self.attempted += 1
        report = {"run_s": 0.0, "peak_mem_mb": 0.0, "tasks": {}, "layers": {}, "counts": {}}
        digests, details, ok = [], [], True
        for task in self.wl.tasks:
            out = str(self.work / "run")
            shutil.rmtree(out, ignore_errors=True)
            code, stdout, stderr, _ = _child(
                ["run", task.name, os.path.join(self.inputs, task.name), out, trace], self.kill_at
            )
            try:
                if code != 0:
                    raise RuntimeError(f"exit {code}: {stderr.strip()[-400:]}")
                got = json.loads(stdout.strip().splitlines()[-1])
                checked = task.check(os.path.join(self.inputs, task.name), out)
            except (RuntimeError, OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
                self.failures.append(f"trace {trace}: {task.name}: {exc}")
                return
            finally:
                shutil.rmtree(out, ignore_errors=True)
            report["run_s"] += got["run_s"]
            report["peak_mem_mb"] = max(report["peak_mem_mb"], got["peak_mem_mb"])
            report["tasks"][task.name] = got["run_s"]
            _add(report["layers"], got.get("layers", {}))
            _add(report["counts"], checked.counts)
            digests.append(checked.digest)
            details.append(f"{task.name}: {checked.detail}")
            if not checked.ok:
                ok = False
                self.failures.append(f"trace {trace}: {task.name}: check failed: {checked.detail}")
        digest = hashlib.sha256(" ".join(digests).encode()).hexdigest()
        self.digests[digest] = self.digests.get(digest, 0) + 1
        self.details.extend(details)
        report.update(digest=digest, ok=ok)
        self.samples[trace].append(report)

    def failed(self):
        # every run whose digest differs from the most common one broke determinism
        odd = sum(self.digests.values()) - max(self.digests.values(), default=0)
        return len(self.failures) + odd


def _loop(runs, seconds, traces, between):
    """Cycle through the trace flags, calling between() after each run,
    until the next run would end past the deadline."""
    deadline = time.perf_counter() + seconds
    walls = []
    i = 0
    while i < len(traces) or time.perf_counter() + statistics.median(walls) <= deadline:
        t0 = time.perf_counter()
        runs.one(traces[i % len(traces)])
        between()
        walls.append(time.perf_counter() - t0)
        i += 1


def _setup(name, seed, inputs, kill_at):
    """Time one set-up child that writes the workload's inputs to inputs."""
    code, _, stderr, wall = _child(["setup", name, str(seed), inputs], kill_at)
    if code != 0:
        _fail(f"{name}: set-up failed (exit {code}): {stderr.strip()[-400:]}")
    return wall


def _median(reports, key):
    return statistics.median(r[key] for r in reports)


def _layer_metrics(report, speedup):
    lay = dict(report["layers"])
    csv_bytes = report["counts"].get("cli.csv_bytes", 0)
    return {
        "noise.covariance.s": lay["noise.covariance.s"],
        "noise.covariance.calls": lay["noise.covariance.calls"],
        "noise.sample.s": lay["noise.sample.s"],
        "noise.paths_drawn": lay["noise.paths_drawn"],
        "noise.us_per_path": 1e6 * lay["noise.sample.s"] / lay["noise.paths_drawn"] if lay["noise.paths_drawn"] else 0.0,
        "noise.draws_per_used_path": lay["noise.paths_drawn"] / lay["noise.paths_used"] if lay["noise.paths_used"] else 0.0,
        "dynamics.self_s": lay["dynamics.self_s"],
        "dynamics.traj_per_s": lay["dynamics.trajectories"] / lay["dynamics.self_s"] if lay["dynamics.trajectories"] else 0.0,
        "dynamics.thread_speedup": speedup,
        "master.density_est.s": lay["master.density_est.s"],
        "master.density_entries": lay["master.density_entries"],
        "master.integrator.s": lay["master.integrator.s"],
        "cli.self_s": lay["cli.self_s"],
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": csv_bytes / 1e6 / lay["cli.self_s"] if csv_bytes else 0.0,
        "fncheck.self_s": lay["fncheck.self_s"],
        "macrobody.s": lay["macrobody.s"],
        "macrobody.rate_calls": lay["macrobody.rate_calls"],
        "macrobody.pair_terms": lay["macrobody.pair_terms"],
        "reduction.s": lay["reduction.s"],
        "reduction.n_eff": lay["reduction.n_eff"],
        "kernels.calls": lay["kernels.calls"],
        "kernels.self_s": lay["kernels.self_s"],
    }


def bench_workload(name, seed, seconds, trace, units):
    kill_at = time.perf_counter() + HARD_LIMIT_S
    wl = workloads.WORKLOADS[name]
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = str(work / "inputs")

    setup = [_setup(name, seed, inputs, kill_at)]

    # The host drifts between a fast and a slow state over tens of seconds, so
    # set-up is timed again after every untraced run, into a spare directory
    # the runs do not read, and setup_s is the median over the whole measurement.
    def again():
        if trace == "0":
            setup.append(_setup(name, seed, str(work / "spare-inputs"), kill_at))

    runs = Runs(wl, inputs, work, kill_at)
    _loop(runs, seconds, ["0"] if trace == "0" else ["0", "1"], again)
    plain, traced = runs.samples["0"], runs.samples["1"]
    if not plain or (trace == "1" and not traced):
        _fail(f"{name}: no run completed: {runs.failures[:3]}")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_s": setup, "attempted": runs.attempted, "failed": runs.failed(),
              "failures": runs.failures, "checks": runs.details,
              "digests": runs.digests, "samples": runs.samples}
    record["task_run_s"] = {t.name: statistics.median(r["tasks"][t.name] for r in plain) for t in wl.tasks}
    if trace == "0":
        run_s = _median(plain, "run_s")
        metrics = {
            "run_s": run_s,
            "work_per_s": wl.work / run_s,
            "setup_s": statistics.median(setup),
            "peak_mem_mb": _median(plain, "peak_mem_mb"),
        }
    else:
        speedup = 0.0
        if "born-colored" in (t.name for t in wl.tasks):
            code, stdout, stderr, _ = _child(["speedup", os.path.join(inputs, "born-colored")], kill_at)
            if code != 0:
                _fail(f"speed-up child failed (exit {code}): {stderr.strip()[-400:]}")
            record["speedup"] = json.loads(stdout.strip().splitlines()[-1])
            speedup = record["speedup"]["speedup"]
        per_run = [_layer_metrics(r, speedup) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics["trace.overhead_s"] = _median(traced, "run_s") - _median(plain, "run_s")
    missing = set(units) - set(metrics)
    if missing:
        _fail(f"metrics {sorted(missing)} are in BENCHMARK.json but not measured")
    record["metrics"] = metrics
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "collapsim" / "__init__.py").is_file():
        _fail(f"no collapsim sources under {ROOT / 'src'}; run from a checkout of the repository")
    if not 0 <= args.seed < 2**64:
        _fail("--seed must fit in an unsigned 64-bit integer")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        rec = bench_workload(name, args.seed, args.seconds, args.trace, units)
        rec["machine"] = machine
        with open(OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
        print(f"{name}: {rec['attempted']} runs, {rec['failed']} failed; digests {rec['digests']}")
        for task, value in rec["task_run_s"].items():
            print(f"{name}: task {task} median run_s {value:.4f} s")
        for detail in sorted(set(rec["checks"])):
            print(f"{name}: check {detail}")
        for fail in rec["failures"]:
            print(f"{name}: FAILED {fail}")
        result["attempted"] += rec["attempted"]
        result["failed"] += rec["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            value = rec["metrics"][metric]
            print(f"{name}: {metric} = {value:.6g} {unit}")
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
