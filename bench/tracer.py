"""Spans around the calls into each collapsim layer, recorded from outside the package.

``Tracer.install`` replaces each traced public function at the names its
callers bind: every binding of it in another collapsim module (for example
``collapsim.cli.simulate_ensemble`` or ``collapsim.fncheck.build_covariance``)
and, for the functions the benchmark itself calls, the binding in the
function's own module (``collapsim.cli.main``).  Calls a module makes to its
own functions are not split out and count as that function's self time.

Spans live in a list in memory; a child span records its parent, and a
layer's self time is its spans' durations minus their direct children's.
Recording assumes one thread: the traced runs use ``workers`` 1.
"""

from __future__ import annotations

import importlib
import time

# Layer -> public functions that get a span.  hilbert gets none: its calls are
# O(d^2) once per run.  noise.fsum_ordered is left out on purpose: the density
# estimator calls it ~1e5 times per run, so a span there would cost more than
# the work it measures.
TRACED = {
    "kernels": (
        "kernel_from_config", "kernel_eval", "eval_zero_extended",
        "kernel_cumulative", "kernel_double_integral",
    ),
    "noise": ("build_covariance", "sample_paths", "sample_white_increments"),
    "dynamics": ("simulate_ensemble",),
    "master": ("ensemble_to_density", "evolve_lindblad_csl", "evolve_colored_master"),
    "reduction": ("born_frequencies", "classify_outcomes"),
    "fncheck": ("fn_validate",),
    "macrobody": ("macro_damping_rate", "com_offdiag_decay"),
    "cli": ("main",),
}
# functions the benchmark calls directly, wrapped in their own module
ENTRIES = (
    ("cli", "main"),
    ("dynamics", "simulate_ensemble"),
    ("master", "ensemble_to_density"),
    ("master", "evolve_lindblad_csl"),
)
MODULES = ("kernels", "noise", "hilbert", "dynamics", "master", "reduction", "fncheck", "macrobody", "cli")


def _paths_info(args, kwargs, result):
    return {"paths": len(result), "seed": result[0].master_seed, "first": result[0].index}


def _pair_terms(args, kwargs, result):
    body, q1, q2 = args[:3]
    distinct = any(float(a) != float(b) for a, b in zip(q1, q2))
    return {"pair_terms": body.num_constituents ** 2 if distinct else 0}


# what each span keeps of its call, computed after the span has ended
INFO = {
    "noise.sample_paths": _paths_info,
    "noise.sample_white_increments": _paths_info,
    "dynamics.simulate_ensemble": lambda a, k, r: {"trajectories": r.n},
    "master.ensemble_to_density": lambda a, k, r: {"entries": int(r.rhos.size)},
    "reduction.born_frequencies": lambda a, k, r: {"n_eff": float(r.n_eff)},
    "macrobody.macro_damping_rate": _pair_terms,
    "macrobody.com_offdiag_decay": _pair_terms,
}


class Tracer:
    """Collects spans as [name, parent index, start, end, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        info = INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"collapsim.{m}") for m in MODULES}
        for layer, names in TRACED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for where, mod in mods.items():
                    if getattr(mod, fname, None) is fn and (where != layer or (layer, fname) in ENTRIES):
                        setattr(mod, fname, wrapped)

    def layer_metrics(self) -> dict:
        """Per-layer times and counts from the recorded spans (no derived rates)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        total, self_time, calls = {}, {}, {}
        for (name, _, t0, t1, _), kids in zip(self.spans, child_time):
            layer = name.split(".")[0]
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_time[layer] = self_time.get(layer, 0.0) + (t1 - t0 - kids)
            calls[name] = calls.get(name, 0) + 1

        def info_sum(name, key):
            return sum(s[4][key] for s in self.spans if s[0] == name)

        def tot(*names):
            return sum(total.get(n, 0.0) for n in names)

        draws = [s[4] for s in self.spans if s[0] in ("noise.sample_paths", "noise.sample_white_increments")]
        used = set()
        for d in draws:
            used.update((d["seed"], i) for i in range(d["first"], d["first"] + d["paths"]))
        born = [s[4]["n_eff"] for s in self.spans if s[0] == "reduction.born_frequencies"]
        return {
            "noise.covariance.s": tot("noise.build_covariance"),
            "noise.covariance.calls": calls.get("noise.build_covariance", 0),
            "noise.sample.s": tot("noise.sample_paths", "noise.sample_white_increments"),
            "noise.paths_drawn": sum(d["paths"] for d in draws),
            "noise.paths_used": len(used),
            "dynamics.self_s": self_time.get("dynamics", 0.0),
            "dynamics.trajectories": info_sum("dynamics.simulate_ensemble", "trajectories"),
            "master.density_est.s": tot("master.ensemble_to_density"),
            "master.density_entries": info_sum("master.ensemble_to_density", "entries"),
            "master.integrator.s": tot("master.evolve_lindblad_csl", "master.evolve_colored_master"),
            "cli.self_s": self_time.get("cli", 0.0),
            "fncheck.self_s": self_time.get("fncheck", 0.0),
            "macrobody.s": tot(*(f"macrobody.{f}" for f in TRACED["macrobody"])),
            "macrobody.rate_calls": calls.get("macrobody.macro_damping_rate", 0),
            "macrobody.pair_terms": info_sum("macrobody.macro_damping_rate", "pair_terms")
            + info_sum("macrobody.com_offdiag_decay", "pair_terms"),
            "reduction.s": tot(*(f"reduction.{f}" for f in TRACED["reduction"])),
            "reduction.n_eff": born[-1] if born else 0.0,
            "kernels.calls": sum(c for n, c in calls.items() if n.startswith("kernels.")),
            "kernels.self_s": self_time.get("kernels", 0.0),
        }
