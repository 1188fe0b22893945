"""Scenario execution, run manifests and comparison reports."""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bohmian import bohmian_lyapunov, integrate_bohmian
from .classical import (
    SectionPlane,
    accessible_boundary,
    integrate_classical,
    launch_from_nucleus,
    lyapunov_exponent,
    poincare_section,
)
from .config import Scenario, build_state, build_system, load_scenario
from .csvio import write_csv
from .ensembles import equivariance_l1, evolve_ensemble, sample_quantum_equilibrium
from .errors import ConfigError
from .orbits import solvable_orbit
from .quantum import Superposition
from .spectra import (
    box_orbit_family,
    harmonic_orbit_family,
    match_peaks_to_orbits,
    recurrence_spectrum,
    trace_formula_density,
)
from .systems import DiamagneticSystem

__all__ = ["RunManifest", "run_scenario", "compare_report", "scenario_hash"]


@dataclass
class RunManifest:
    """What a scenario run produced: hash, version, timing, file checksums."""

    scenario_hash: str
    tool_version: str
    wall_time_s: float
    output_dir: str
    files: list

    def to_dict(self) -> dict:
        return {
            "scenario_hash": self.scenario_hash,
            "tool_version": self.tool_version,
            "wall_time_s": self.wall_time_s,
            "output_dir": self.output_dir,
            "files": self.files,
        }


def scenario_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _boundary_csv(path: Path, epsilon: float) -> None:
    rho, z = accessible_boundary(epsilon).T
    # mirror half for a closed curve in the (rho, z) half plane convention
    write_csv(path, ["q1", "q2"], [np.concatenate([rho, -rho[::-1]]),
                                   np.concatenate([z, z[::-1]])])


def _run_classical(scn: Scenario, out: Path) -> list[Path]:
    system = build_system(scn.system)
    if not isinstance(system, DiamagneticSystem):
        raise ConfigError("system", "classical scenarios run the diamagnetic system")
    run = scn.run
    section = run["section"] and SectionPlane(**run["section"])  # a bad plane fails before the run
    out.mkdir(parents=True, exist_ok=True)
    initial = launch_from_nucleus(run["launch_angle"])
    traj = integrate_classical(system, initial, run["duration"], tol=run["tol"])
    files = []
    traj.to_csv(out / "trajectory.csv")
    files.append(out / "trajectory.csv")
    if system.epsilon < 0:
        _boundary_csv(out / "boundary.csv", system.epsilon)
        files.append(out / "boundary.csv")
    diagnostics = {
        "kind": "classical",
        "epsilon": system.epsilon,
        "invariant_drift": traj.drift,
        "samples": int(traj.times.size),
    }
    if run["lyapunov"] is not None:
        ly = run["lyapunov"]
        diag = lyapunov_exponent(system, initial, ly["horizon"])
        diagnostics["lyapunov"] = diag.lyapunov_estimate
        diagnostics["lyapunov_horizon"] = diag.horizon
        diagnostics["coverage"] = diag.coverage_fraction
    if section is not None:
        pts = poincare_section(traj, section)
        write_csv(out / "section.csv", ["q", "p"], pts.T)
        files.append(out / "section.csv")
        diagnostics["section_points"] = int(pts.shape[0])
    _write_json(out / "diagnostics.json", diagnostics)
    files.append(out / "diagnostics.json")
    return files


def _run_bohmian(scn: Scenario, out: Path) -> list[Path]:
    sup = build_state(scn.state)
    out.mkdir(parents=True, exist_ok=True)
    run = scn.run
    traj = integrate_bohmian(sup, run["x0"], (run["t0"], run["t1"]), tol=run["tol"])
    traj.to_csv(out / "trajectory.csv")
    files = [out / "trajectory.csv"]
    diagnostics = {
        "kind": "bohmian",
        "complete": traj.complete,
        "samples": int(traj.times.size),
        "node_encounters": traj.node_encounters,
        "wall_breaches": [],  # kept for readers: box walls are nodes, the node guard fires first
    }
    if run["lyapunov"] is not None:
        ly = run["lyapunov"]
        est = bohmian_lyapunov(sup, run["x0"], ly["horizon"], t0=run["t0"])
        diagnostics["lyapunov"] = est.value
        diagnostics["lyapunov_horizon"] = est.horizon
        diagnostics["lyapunov_partial"] = est.partial
    _write_json(out / "diagnostics.json", diagnostics)
    files.append(out / "diagnostics.json")
    return files


def _run_ensemble(scn: Scenario, out: Path) -> list[Path]:
    sup = build_state(scn.state)
    out.mkdir(parents=True, exist_ok=True)
    run = scn.run
    ens0 = sample_quantum_equilibrium(sup, run["t0"], run["n"], run["seed"])
    ens0.to_csv(out / "ensemble_t0.csv")
    evo = evolve_ensemble(ens0, sup, run["t1"], tol=run["tol"])
    evo.ensemble.to_csv(out / "ensemble_t1.csv")
    _write_json(out / "node_reports.json", evo.node_reports)
    metrics = {
        "kind": "ensemble",
        "n": run["n"],
        "seed": run["seed"],
        "l1_t0": equivariance_l1(ens0, sup, bins=run["bins"]),
        "l1_t1": equivariance_l1(evo.ensemble, sup, bins=run["bins"]),
        "node_reports": len(evo.node_reports),
    }
    _write_json(out / "metrics.json", metrics)
    return [out / "ensemble_t0.csv", out / "ensemble_t1.csv",
            out / "node_reports.json", out / "metrics.json"]


def _state_orbit(sup: Superposition, energy_override):
    system = sup.system
    if energy_override is not None:
        energy = energy_override
    else:
        weights = np.abs(sup.coefficients) ** 2
        energy = float(weights @ sup.energies)
    return solvable_orbit(system, energy)


def _run_recurrence(scn: Scenario, out: Path) -> list[Path]:
    sup = build_state(scn.state)
    out.mkdir(parents=True, exist_ok=True)
    run = scn.run
    times = np.linspace(0.0, run["t_max"], run["samples"])
    spec = recurrence_spectrum(sup, times)
    spec.to_csv(out / "recurrence.csv")
    files = [out / "recurrence.csv"]
    payload = {"kind": "recurrence",
               "peaks": [{"t": t, "height": h} for t, h in spec.peaks]}
    if sup.system.dimension == 1 and sup.system.kind in ("harmonic", "box"):
        orbit = _state_orbit(sup, run["orbit_energy"])
        tol = run["match_tol"] if run["match_tol"] else 2.0 * (times[1] - times[0])
        assoc = match_peaks_to_orbits(spec, [orbit], tol)
        payload["orbit_period"] = orbit.period
        payload["associations"] = [
            {k: (None if isinstance(v, float) and math.isinf(v) else v)
             for k, v in a.items()} for a in assoc
        ]
    _write_json(out / "peaks.json", payload)
    files.append(out / "peaks.json")
    return files


def _run_trace(scn: Scenario, out: Path) -> list[Path]:
    system = build_system(scn.system)
    run = scn.run
    if not hasattr(system, "kind"):
        raise ConfigError("system", "trace scenarios need a solvable system")
    out.mkdir(parents=True, exist_ok=True)
    if system.dimension == 1 and system.kind == "harmonic":
        families = [harmonic_orbit_family(system)]
    elif system.dimension == 1 and system.kind == "box":
        families = [box_orbit_family(system)]
    else:
        families = []  # mean density only (e.g. 2D box)
    grid = np.linspace(run["e_min"], run["e_max"], run["n_grid"])
    density = trace_formula_density(system, families, grid, run["repetitions"], run["gamma"])
    density.to_csv(out / "density.csv")
    _write_json(out / "peaks.json", {
        "kind": "trace",
        "families": len(families),
        # ripples of a level sum below roundoff of its peaks are not maxima
        "maxima": [{"E": e, "density": d} for e, d in
                   density.local_maxima(floor=1e-9 * float(np.max(density.total)))],
    })
    return [out / "density.csv", out / "peaks.json"]


_RUNNERS = {
    "classical": _run_classical,
    "bohmian": _run_bohmian,
    "ensemble": _run_ensemble,
    "recurrence": _run_recurrence,
    "trace": _run_trace,
}


def run_scenario(config_path, out_dir=None) -> RunManifest:
    """Validate and execute one scenario; write outputs and manifest.json.

    Identical configs produce identical data-file checksums; the manifest
    records them.  Each kind builds its system or state before it creates
    the output directory, so a configuration error leaves none behind.
    """
    scn = load_scenario(config_path)
    out = Path(out_dir) if out_dir else Path(scn.output_dir or scn.name)
    start = time.perf_counter()
    if scn.kind == "compare":
        report = compare_report([Path(p) for p in scn.run["inputs"]],
                                classical_threshold=scn.run["classical_chaos_threshold"],
                                bohmian_threshold=scn.run["bohmian_chaos_threshold"], base=out)
        produced = write_report(report, out)
    else:
        produced = _RUNNERS[scn.kind](scn, out)
    wall = time.perf_counter() - start
    manifest = RunManifest(
        scenario_hash=scenario_hash(scn.raw),
        tool_version=__version__,
        wall_time_s=wall,
        output_dir=str(out),
        files=[{"path": p.name, "sha256": _sha256(p)} for p in produced],
    )
    _write_json(out / "manifest.json", manifest.to_dict())
    return manifest


def _load_diagnostics(manifest_path: Path) -> dict:
    mdir = manifest_path.parent if manifest_path.is_file() else manifest_path
    mfile = mdir / "manifest.json" if not manifest_path.name.endswith(".json") else manifest_path
    if mfile.is_dir():
        mfile = mfile / "manifest.json"
    if not mfile.exists():
        raise ConfigError(str(manifest_path), "manifest.json not found")
    with open(mfile, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    ddir = mfile.parent
    diag_path = ddir / "diagnostics.json"
    metrics_path = ddir / "metrics.json"
    entry = {"manifest": str(mfile), "scenario_hash": manifest.get("scenario_hash")}
    if diag_path.exists():
        with open(diag_path, "r", encoding="utf-8") as fh:
            entry.update(json.load(fh))
    elif metrics_path.exists():
        with open(metrics_path, "r", encoding="utf-8") as fh:
            entry.update(json.load(fh))
    else:
        raise ConfigError(str(manifest_path), "scenario outputs carry no diagnostics")
    return entry


def compare_report(manifests, classical_threshold: float = 0.05,
                   bohmian_threshold: float = 0.02, base=None) -> dict:
    """Side-by-side dynamical summary of completed scenarios.

    For classical/Bohmian pairs the report states whether the regimes agree
    or exhibit the regular-vs-chaotic mismatch; matching-kind pairs also get
    numeric deltas.  A single scenario degenerates to a one-column summary.
    Manifest paths are written relative to `base`, the report's directory,
    if given (a copied tree then writes the same report), else as given.
    """
    entries = [_load_diagnostics(Path(m)) for m in manifests]
    rows = []
    for e in entries:
        lam = e.get("lyapunov")
        row = {
            "manifest": e["manifest"] if base is None else
            os.path.relpath(Path(e["manifest"]).resolve(), Path(base).resolve()),
            "kind": e.get("kind", "unknown"),
            "lyapunov": lam,
            "coverage": e.get("coverage"),
            "l1_t1": e.get("l1_t1"),
        }
        if lam is not None:
            threshold = classical_threshold if row["kind"] == "classical" else bohmian_threshold
            row["regime"] = "chaotic" if lam > threshold else "regular"
        rows.append(row)

    flags = []
    deltas = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            pair = {"classical", "bohmian"}
            if {a["kind"], b["kind"]} == pair and "regime" in a and "regime" in b:
                ca = a if a["kind"] == "classical" else b
                bo = b if a["kind"] == "classical" else a
                if ca["regime"] == "regular" and bo["regime"] == "chaotic":
                    flags.append("mismatch: classical regular, Bohmian chaotic")
                elif ca["regime"] == "chaotic" and bo["regime"] == "regular":
                    flags.append("mismatch: classical chaotic, Bohmian regular")
                else:
                    flags.append("regimes agree")
            if a["kind"] == b["kind"]:
                delta = {
                    "pair": (i, j),
                    "lyapunov_delta": _delta(a["lyapunov"], b["lyapunov"]),
                    "coverage_delta": _delta(a["coverage"], b["coverage"]),
                }
                deltas.append(delta)
    return {
        "scenarios": rows,
        "mismatch_flags": flags,
        "deltas": deltas,
        "thresholds": {"classical": classical_threshold, "bohmian": bohmian_threshold},
    }


def _delta(a, b):
    if a is None or b is None:
        return None
    return abs(a - b)


def write_report(report: dict, out: Path) -> list[Path]:
    """Write a compare report to out/report.json and out/report.txt; returns both paths."""
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(render_report_text(report))
    return [out / "report.json", out / "report.txt"]


def render_report_text(report: dict) -> str:
    lines = ["scenario comparison", "==================", ""]
    header = f"{'kind':<12}{'lyapunov':>14}{'coverage':>12}{'regime':>10}  manifest"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["scenarios"]:
        lam = "-" if row["lyapunov"] is None else f"{row['lyapunov']:.6f}"
        cov = "-" if row["coverage"] is None else f"{row['coverage']:.4f}"
        reg = row.get("regime", "-")
        lines.append(f"{row['kind']:<12}{lam:>14}{cov:>12}{reg:>10}  {row['manifest']}")
    lines.append("")
    for f in report["mismatch_flags"]:
        lines.append(f"flag: {f}")
    for d in report["deltas"]:
        lines.append(f"pair {d['pair']}: lyapunov delta {d['lyapunov_delta']}, "
                     f"coverage delta {d['coverage_delta']}")
    if not report["mismatch_flags"] and not report["deltas"]:
        lines.append("single scenario: no comparisons")
    lines.append("")
    return "\n".join(lines)
