"""One process of the benchmark: make a workload's inputs, run one task, or time the worker pool.

    child.py setup   WORKLOAD SEED INPUTS
    child.py run     TASK TASK_INPUTS OUT TRACE
    child.py speedup BORN_INPUTS

``setup`` writes each task's inputs to INPUTS/<task>.  ``run`` prints one
JSON line: the wall time of the entry call, the peak resident memory of
this process and, with TRACE 1, the per-layer spans.
``speedup`` times ``simulate_ensemble`` on the born-colored ensemble at one
and at two workers (never more than the cores) and prints their ratio.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import workloads


def _setup(name, seed, inputs):
    import collapsim  # noqa: F401  (importing collapsim is part of set-up)

    for task in workloads.WORKLOADS[name].tasks:
        where = os.path.join(inputs, task.name)
        os.makedirs(where, exist_ok=True)
        task.make_inputs(int(seed), where)


def _run(name, inputs, out, trace):
    entry, finish = workloads.TASKS[name].prepare(inputs, out)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    result = entry()
    run_s = time.perf_counter() - t0
    if finish is not None:
        finish(result)
    report = {"run_s": run_s, "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report))


def _speedup(inputs, repeats=3):
    import numpy as np
    from collapsim import CommutingSet, TimeGrid, simulate_ensemble
    from collapsim.kernels import kernel_from_config
    from collapsim.noise import checkpoint_indices

    with open(os.path.join(inputs, "config.json")) as fh:
        cfg = json.load(fh)
    grid = TimeGrid(cfg["grid"]["t0"], cfg["grid"]["t1"], cfg["grid"]["steps"])
    ens = cfg["ensemble"]
    args = (
        CommutingSet(cfg["system"]["eigenvalues"]),
        np.asarray(cfg["system"]["initial_amplitudes"], dtype=float),
        grid,
        kernel_from_config(cfg["kernel"]),
        ens["trajectories"],
        ens["master_seed"],
    )
    cp = checkpoint_indices(grid, ens["checkpoints"])
    pool = min(2, len(os.sched_getaffinity(0)))
    times = {1: [], pool: []}
    for _ in range(repeats):
        for workers in times:
            t0 = time.perf_counter()
            simulate_ensemble(*args, checkpoints=cp, workers=workers)
            times[workers].append(time.perf_counter() - t0)
    print(json.dumps({
        "workers": pool,
        "speedup": statistics.median(times[1]) / statistics.median(times[pool]),
    }))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    {"setup": _setup, "run": _run, "speedup": _speedup}[mode](*rest)
