"""Spans at pilotwave's public boundaries, recorded from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper in
every pilotwave module namespace that binds it (`bohmian` and `ensembles`
import `evaluate_wavefunction` by name, and every integrating module binds
its own `solve_ivp`), and each CSV writer method on its class.  Spans are
kept in memory as (name, start, end, parent) and written out by `dump()`;
the per-layer metrics are aggregated from them.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped in every namespace that binds them
FUNCTIONS = {
    "quantum": ("evaluate_wavefunction", "wavefield_sample"),
    "bohmian": ("integrate_bohmian", "bohmian_lyapunov"),
    "ensembles": ("sample_quantum_equilibrium", "evolve_ensemble", "equivariance_l1"),
    "classical": ("integrate_classical", "lyapunov_exponent", "poincare_section",
                  "coverage_fraction"),
    "orbits": ("find_closed_orbits",),
    "semiclassical": ("van_vleck_1d",),
    "spectra": ("recurrence_spectrum", "trace_formula_density"),
    "runner": ("run_scenario",),
}
# (module, class) whose to_csv is the CSV export layer
CSV_WRITERS = (("classical", "Trajectory"), ("bohmian", "BohmianTrajectory"),
               ("ensembles", "Ensemble"), ("spectra", "LevelDensity"),
               ("spectra", "RecurrenceSpectrum"))
# modules that integrate with scipy's solve_ivp, each under its own name
INTEGRATING = ("bohmian", "ensembles", "classical", "orbits", "semiclassical")


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        # spans as parallel lists of atoms, so the garbage collector has
        # nothing to traverse however many spans a run records
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.busy = defaultdict(float)      # span name -> total duration
        self.self_time = defaultdict(float)  # span name -> duration minus children
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)    # named counters read at boundaries
        self._restore: list[tuple] = []

    # -- spans ----------------------------------------------------------
    def _enter(self, name: str) -> int:
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        index = len(self.starts) - 1
        self._stack.append(index)
        self._child_time.append(0.0)
        return index

    def _exit(self, index: int) -> float:
        end = self.ends[index] = time.perf_counter()
        self._stack.pop()
        children = self._child_time.pop()
        duration = end - self.starts[index]
        if self._child_time:
            self._child_time[-1] += duration
        name = self.names[index]
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - children
        return duration

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(index)
            if after is not None:
                after(self, name, duration, args, kwargs, result)
            return result
        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from pilotwave import runner  # noqa: F401  (loads every traced module)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pilotwave" or name.startswith("pilotwave.")}
        for owner, names in FUNCTIONS.items():
            home = modules[f"pilotwave.{owner}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{owner}.{fname}", original, _AFTER.get(fname))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for owner in INTEGRATING:
            mod = modules[f"pilotwave.{owner}"]
            self._patch(mod, "solve_ivp",
                        self._wrap(f"integrate.{owner}", mod.solve_ivp, _after_integrate))
        for owner, cls_name in CSV_WRITERS:
            cls = getattr(modules[f"pilotwave.{owner}"], cls_name)
            self._patch(cls, "to_csv", self._wrap("runner.to_csv", cls.to_csv, _after_csv))

    def _patch(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as name,start_s,end_s,parent (rows in start order)."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                name, start, end, parent = row
                fh.write(f"{name},{start - base:.9f},{end - base:.9f},{parent}\n")

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, totals divided by the number of traced rounds."""
        c, busy, calls = self.counts, self.busy, self.calls
        per = 1.0 / rounds
        integrate = [f"integrate.{m}" for m in INTEGRATING]
        nfev = sum(c[f"{name}.nfev"] for name in integrate)
        integrate_self = sum(self.self_time[name] for name in integrate)
        out = {
            "quantum.eval_calls": calls["quantum.evaluate_wavefunction"] * per,
            "quantum.eval_points": c["eval_points"] * per,
            "quantum.eval_s": busy["quantum.evaluate_wavefunction"] * per,
            "quantum.scalar_us_per_call": _ratio(c["scalar_s"], c["scalar_calls"]) * 1e6,
            "quantum.batch_ns_per_point_term": _ratio(c["batch_s"], c["batch_point_terms"]) * 1e9,
            "quantum.sample_calls": calls["quantum.wavefield_sample"] * per,
            "quantum.sample_s": busy["quantum.wavefield_sample"] * per,
            "integrate.calls": sum(calls[name] for name in integrate) * per,
            "integrate.nfev": nfev * per,
            "integrate.self_s": integrate_self * per,
            "integrate.self_us_per_nfev": _ratio(integrate_self, nfev) * 1e6,
        }
        for name in integrate:
            out[f"{name}.nfev"] = c[f"{name}.nfev"] * per
        out.update({
            "bohmian.trajectory_s": busy["bohmian.integrate_bohmian"] * per,
            "bohmian.trajectory_samples": c["trajectory_samples"] * per,
            "bohmian.lyapunov_s": busy["bohmian.bohmian_lyapunov"] * per,
            "ensembles.sample_s": busy["ensembles.sample_quantum_equilibrium"] * per,
            "ensembles.evolve_s": busy["ensembles.evolve_ensemble"] * per,
            "ensembles.l1_s": busy["ensembles.equivariance_l1"] * per,
            "classical.integrate_s": busy["classical.integrate_classical"] * per,
            "classical.lyapunov_s": busy["classical.lyapunov_exponent"] * per,
            "classical.section_s": busy["classical.poincare_section"] * per,
            "classical.coverage_s": busy["classical.coverage_fraction"] * per,
            "orbits.search_s": busy["orbits.find_closed_orbits"] * per,
            "orbits.found": c["orbits_found"] * per,
            "semiclassical.van_vleck_s": busy["semiclassical.van_vleck_1d"] * per,
            "spectra.recurrence_s": busy["spectra.recurrence_spectrum"] * per,
            "spectra.trace_s": busy["spectra.trace_formula_density"] * per,
            "runner.csv_s": busy["runner.to_csv"] * per,
            "runner.csv_mb_per_s": _ratio(c["csv_bytes"], busy["runner.to_csv"]) / 1e6,
            "runner.self_s": self.self_time["runner.run_scenario"] * per,
        })
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _after_eval(tracer, name, duration, args, kwargs, result):
    sup = args[0]
    x = args[1] if len(args) > 1 else kwargs["x"]
    points = max(1, np.size(x) // sup.system.dimension)
    tracer.counts["eval_points"] += points
    if points == 1:
        tracer.counts["scalar_calls"] += 1
        tracer.counts["scalar_s"] += duration
    else:
        tracer.counts["batch_point_terms"] += points * len(sup.terms)
        tracer.counts["batch_s"] += duration


def _after_integrate(tracer, name, duration, args, kwargs, result):
    tracer.counts[f"{name}.nfev"] += result.nfev


def _after_bohmian(tracer, name, duration, args, kwargs, result):
    tracer.counts["trajectory_samples"] += result.times.size


def _after_orbits(tracer, name, duration, args, kwargs, result):
    tracer.counts["orbits_found"] += len(result[0])


def _after_csv(tracer, name, duration, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["csv_bytes"] += os.path.getsize(path)


_AFTER = {
    "evaluate_wavefunction": _after_eval,
    "integrate_bohmian": _after_bohmian,
    "find_closed_orbits": _after_orbits,
}
