"""The three benchmark workloads: inputs, operations and output checks.

A workload is built once per process from its seed (the set-up), then runs
whole rounds of the same operations.  An operation is one scenario run or
one library call; it fails if it raises or if its outputs fail their check.
Every check rests on a closed form, on a property the exact dynamics must
have, or on a reference computed apart from pilotwave (oracles.py,
references.json); each states its margin next to it.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import oracles
from pilotwave import orbits, runner, semiclassical, systems

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# criterion-8 state: 2D anisotropic oscillator, chaotic guidance flow
ANISO_OMEGAS = (1.0, math.sqrt(2.0))
ANISO_TERMS = [(1.0, (0, 0)), (0.9, (2, 0)), (0.8j, (1, 1)), (0.7, (0, 2))]
ANISO_X0 = (-0.4, -0.8)
# every size below is smaller than the acceptance criteria's, so that a
# round takes a few seconds and a run holds many (README.md, "Why short rounds")
ANISO_T0, ANISO_T1, ANISO_HORIZON = 1.0, 11.0, 10.0
# the members' ensemble draws with one of these sampler seeds (seed mod 4);
# references.json holds the reference transport of each
MEMBERS_N = 16
MEMBERS_SEEDS = (101, 202, 303, 404)
MEMBERS_T0, MEMBERS_T1 = 0.0, 1.0

# two-mode box |c2/c1| = 0.4: no interior node forms
BOX_LENGTH = 1.0
BOX_C = (1.0 / math.sqrt(1.16), 0.4 / math.sqrt(1.16))
BOX_BEATS = 1
BOX_N, BOX_BINS = 100_000, 50

EPSILONS = (-1.0, -0.15)
LAUNCH_ANGLE = 0.7
VV_OMEGA = 1.3
# omega t stays 0.39 short of the caustic at pi: closer to it van_vleck_1d's
# momentum scan can miss the one classical path (see CHANGES.md)
VV_MAX_PHASE = math.pi - 0.3 * VV_OMEGA
VV_CALLS = 10              # van Vleck calls per system
# at horizon 120 the eps = -1 estimate (0.027) stays clear of compare's 0.05
CLASSICAL_DURATION, CLASSICAL_HORIZON = 50.0, 120.0
ORBIT_ANGLES = 12          # a multiple of 4, so the grid holds theta = pi/4
POISSON_NBAR, POISSON_TERMS = 8.0, 30

# check margins: about 3x the error measured at the workload's own
# tolerances, so that a looser integrator fails them.  FIELD_RTOL checks
# roundoff only: it leaves room for reordered sums, not for lower precision.
FIELD_RTOL = 1e-12         # CSV v, rho against the closed-form field; measured 4.4e-15
TRAJ_ATOL = 4.5e-8         # trajectory against the DOP853 reference; measured 1.5e-8
LYAPUNOV_RTOL = 1e-4       # Lyapunov value against the reference pair; measured 3.0e-5
MEMBER_ATOL = 3e-5         # final positions at tol 1e-6; measured 1.4e-8 to 1.1e-5 over the 4 seeds
QUANTILE_ATOL = 9e-6       # |F_t1(x1) - F_t0(x0)| at tol 1e-6; worst member 2.7e-6 to 2.9e-6 over seeds
L1_MARGIN = 0.01           # over the multinomial mean, about 5 standard deviations
L1_AGREE = 1e-6            # pilotwave's L1 against the one computed here
DRIFT_MAX = 3e-9           # classical pseudo-energy drift at run tol 1e-10; measured 1.0e-9
REGION_MARGIN = 1e-6       # accessible-region and section-shell slack
ORBIT_RTOL = 1.5e-11       # symmetric orbits against their oracles; measured 4.7e-12
CLOSURE_TOL = 1e-8         # find_closed_orbits' default closure_tol
KERNEL_RTOL = 1e-10        # van Vleck against the exact kernels (acceptance criterion 9)
TRACE_FLOOR = 0.5          # trace maxima above this density are level peaks


class CheckFailed(Exception):
    """An operation's outputs failed their check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cols = np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))
    return {name: cols[:, i] for i, name in enumerate(rows[0])}


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def state_doc(kind: str, scales, terms) -> dict:
    """Scenario `state` block with coefficients normalized to unit norm."""
    system = {"kind": kind, "dimension": len(scales)}
    system["omegas" if kind == "harmonic" else "lengths"] = list(scales)
    norm = math.sqrt(sum(abs(c) ** 2 for c, _ in terms))
    return {"system": system,
            "terms": [{"c_re": complex(c).real / norm, "c_im": complex(c).imag / norm,
                       "n": list(n)} for c, n in terms]}


class Operation:
    """One timed call into pilotwave plus the check of what it produced."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    """Base: a fixed list of operations over inputs written at set-up."""

    name = ""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        self.operations: list[Operation] = []
        self.stats: dict = {}

    def scenario(self, name: str, doc: dict) -> Operation:
        """Write a scenario file; the operation runs it into out/<name>/."""
        path = self.out / f"{name}.json"
        _write_json(path, {"schema": 1, "name": name, **doc})
        run_dir = self.out / name
        return Operation(name, lambda: runner.run_scenario(path, run_dir),
                         lambda result: getattr(self, f"check_{doc['kind']}")(run_dir))


class BohmianPointwise(Workload):
    """Criterion-8 state: one trajectory with its Lyapunov pair, 16 members."""

    name = "bohmian-pointwise"

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        state = state_doc("harmonic", ANISO_OMEGAS, ANISO_TERMS)
        self.field = oracles.Wavefield("harmonic", ANISO_OMEGAS, ANISO_TERMS)
        self.ensemble_seed = MEMBERS_SEEDS[seed % len(MEMBERS_SEEDS)]
        self.operations = [
            self.scenario("trajectory", {
                "kind": "bohmian", "state": state,
                "run": {"x0": list(ANISO_X0), "t0": ANISO_T0, "t1": ANISO_T1,
                        "lyapunov": {"horizon": ANISO_HORIZON}}}),
            self.scenario("members", {
                "kind": "ensemble", "state": state,
                "run": {"n": MEMBERS_N, "seed": self.ensemble_seed,
                        "t0": MEMBERS_T0, "t1": MEMBERS_T1}}),
        ]

    def check_bohmian(self, run_dir: Path) -> None:
        ref = _read_json(REFERENCES)["bohmian"]
        diag = _read_json(run_dir / "diagnostics.json")
        _require(diag["complete"] and not diag["lyapunov_partial"], "run stopped early")
        _require(not diag["node_encounters"], f"node encounters {diag['node_encounters']}")
        _require(not diag["wall_breaches"], f"wall breaches {diag['wall_breaches']}")
        rel = abs(diag["lyapunov"] / ref["lyapunov"] - 1.0)
        _require(rel <= LYAPUNOV_RTOL,
                 f"Lyapunov {diag['lyapunov']!r} vs reference {ref['lyapunov']!r}")

        rows = _read_csv(run_dir / "trajectory.csv")
        t = rows["t"]
        x = np.stack([rows["x1"], rows["x2"]], axis=-1)
        _require(t[0] == ANISO_T0 and abs(t[-1] - ANISO_T1) < 1e-9, "time span")
        v = self.field.velocity(x, t)
        rho = self.field.amplitude(x, t)
        err_v = np.max(np.abs(v - np.stack([rows["v1"], rows["v2"]], axis=-1)), axis=-1)
        _require(bool(np.all(err_v <= FIELD_RTOL * (1.0 + np.max(np.abs(v), axis=-1)))),
                 f"v off the closed-form field by up to {np.max(err_v):.2e}")
        err_rho = np.abs(rows["rho"] - rho)
        _require(bool(np.all(err_rho <= FIELD_RTOL * rho)),
                 f"rho off the closed-form field by up to {np.max(err_rho / rho):.2e} relative")

        grid = np.asarray(ref["times"])
        pos = np.asarray(ref["positions"])
        ref_x = reference_positions(self.field, grid, pos, t)
        err = float(np.max(np.abs(ref_x - x)))
        _require(err <= TRAJ_ATOL, f"trajectory off the reference by {err:.2e}")

    def check_ensemble(self, run_dir: Path) -> None:
        ref = _read_json(REFERENCES)["members"][str(self.ensemble_seed)]
        x0 = _read_csv(run_dir / "ensemble_t0.csv")
        x1 = _read_csv(run_dir / "ensemble_t1.csv")
        start = np.stack([x0["x1"], x0["x2"]], axis=-1)
        end = np.stack([x1["x1"], x1["x2"]], axis=-1)
        _require(np.array_equal(start, np.asarray(ref["initial"])),
                 "sampler draws differ from the stored start points; "
                 "regenerate references.json")
        err = float(np.max(np.abs(end - np.asarray(ref["final"]))))
        _require(err <= MEMBER_ATOL, f"final positions off the reference by {err:.2e}")
        _require(_read_json(run_dir / "node_reports.json") == [], "node reports")


def reference_positions(field, grid, positions, t):
    """The stored reference trajectory at times t.

    Each time is reached from the stored state at the grid time just below
    it by DOP853 at 1e-12 on the closed-form field; all of them advance
    together over a unit pseudo-time s, with t = t_k + s (t - t_k).
    """
    k = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.size - 1)
    start, span = grid[k], t - grid[k]

    def rhs(s, y):
        return (span[:, None] * field.velocity(y.reshape(-1, 2), start + s * span)).reshape(-1)

    res = solve_ivp(rhs, (0.0, 1.0), positions[k].reshape(-1), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not res.success:
        raise RuntimeError(res.message)
    return res.y[:, -1].reshape(-1, 2)


class EnsembleBatch(Workload):
    """10^5 members of the two-mode box over one beat period."""

    name = "ensemble-batch"

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        beat = 2.0 * math.pi / (1.5 * (math.pi / BOX_LENGTH) ** 2)
        self.t1 = BOX_BEATS * beat
        state = state_doc("box", (BOX_LENGTH,), [(BOX_C[0], (1,)), (BOX_C[1], (2,))])
        self.operations = [self.scenario("transport", {
            "kind": "ensemble", "state": state,
            "run": {"n": BOX_N, "seed": seed, "t0": 0.0, "t1": self.t1, "bins": BOX_BINS}})]

    def _cdf(self, x, t):
        return oracles.two_mode_box_cdf(BOX_C[0], BOX_C[1], BOX_LENGTH, x, t)

    def check_ensemble(self, run_dir: Path) -> None:
        x0 = _read_csv(run_dir / "ensemble_t0.csv")["x1"]
        x1 = _read_csv(run_dir / "ensemble_t1.csv")["x1"]
        _require(x0.size == BOX_N and x1.size == BOX_N, "member count")
        _require(bool(np.all((x1 >= 0.0) & (x1 <= BOX_LENGTH))), "member left [0, L]")
        order = np.argsort(x0, kind="stable")
        _require(bool(np.all(np.diff(x1[order]) >= 0.0)), "members changed order")
        _require(_read_json(run_dir / "node_reports.json") == [], "node reports")

        err = np.abs(self._cdf(x1, self.t1) - self._cdf(x0, 0.0))
        self.stats["worst_quantile_err"] = float(np.max(err))
        _require(float(np.max(err)) <= QUANTILE_ATOL,
                 f"quantile map off by {np.max(err):.2e} (median {np.median(err):.2e})")

        metrics = _read_json(run_dir / "metrics.json")
        edges = np.linspace(0.0, BOX_LENGTH, BOX_BINS + 1)
        for label, x, t in (("l1_t0", x0, 0.0), ("l1_t1", x1, self.t1)):
            p = np.diff(self._cdf(edges, t))
            counts, _ = np.histogram(x, bins=edges)
            l1 = float(np.sum(np.abs(counts / BOX_N - p)))
            limit = oracles.multinomial_l1_mean(p, BOX_N) + L1_MARGIN
            _require(l1 <= limit, f"{label} {l1:.4f} above {limit:.4f}")
            _require(abs(metrics[label] - l1) <= L1_AGREE,
                     f"reported {label} {metrics[label]!r} vs {l1!r}")


class ClassicalOrbits(Workload):
    """Regular and chaotic diamagnetic Kepler, orbits, kernels and spectra."""

    name = "classical-orbits"

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        ops = []
        for eps in EPSILONS:
            ops.append(self.scenario(f"classical{eps:+g}", {
                "kind": "classical", "system": {"kind": "diamagnetic", "epsilon": eps},
                "run": {"launch_angle": LAUNCH_ANGLE, "duration": CLASSICAL_DURATION,
                        "lyapunov": {"horizon": CLASSICAL_HORIZON},
                        "section": {"index": 1, "value": 0.0, "direction": 1}}}))
        ops.append(self.scenario("compare", {"kind": "compare", "run": {
            "inputs": [str(self.out / f"classical{eps:+g}") for eps in EPSILONS]}}))
        for eps in EPSILONS:
            system = systems.DiamagneticSystem.scaled(eps)
            ops.append(Operation(
                f"closed-orbits{eps:+g}",
                lambda system=system: orbits.find_closed_orbits(
                    system, n_angles=ORBIT_ANGLES, closure_tol=CLOSURE_TOL),
                lambda result, eps=eps: self.check_orbits(result, eps)))
        rng = np.random.default_rng(seed)
        free, osc = systems.free_particle(), systems.harmonic(VV_OMEGA)
        for i in range(VV_CALLS):
            x1, x2 = rng.uniform(-2.0, 2.0, 2)
            dt = rng.uniform(0.1, 2.5)
            ops.append(self.kernel_op(f"van-vleck-free{i}", free, x1, x2, dt,
                                      oracles.free_kernel(x1, x2, dt)))
        for i in range(VV_CALLS):
            x1, x2 = rng.uniform(-1.8, 1.8, 2)
            dt = rng.uniform(0.1, VV_MAX_PHASE / VV_OMEGA)
            ops.append(self.kernel_op(f"van-vleck-osc{i}", osc, x1, x2, dt,
                                      oracles.mehler_kernel(VV_OMEGA, x1, x2, dt)))
        ns = range(POISSON_TERMS)
        weights = [math.exp(0.5 * (n * math.log(POISSON_NBAR) - POISSON_NBAR - math.lgamma(n + 1.0)))
                   for n in ns]
        ops.append(self.scenario("recurrence", {
            "kind": "recurrence",
            "state": state_doc("harmonic", (1.0,), [(w, (n,)) for n, w in zip(ns, weights)]),
            "run": {"t_max": 20.0, "samples": 4001}}))
        self.trace_grid = (0.05, 5.5, 4001)
        ops.append(self.scenario("trace", {
            "kind": "trace", "system": {"kind": "harmonic", "omegas": [1.0]},
            "run": {"e_min": self.trace_grid[0], "e_max": self.trace_grid[1],
                    "n_grid": self.trace_grid[2], "repetitions": 50, "gamma": 0.03}}))
        self.operations = ops

    def kernel_op(self, name, system, x1, x2, dt, exact) -> Operation:
        def check(result):
            _require(result.contributing_paths == 1, f"{result.contributing_paths} paths")
            rel = abs(result.value - exact) / abs(exact)
            _require(rel <= KERNEL_RTOL, f"kernel off by {rel:.2e} relative")
        return Operation(name, lambda: semiclassical.van_vleck_1d(system, x1, x2, dt), check)

    def check_classical(self, run_dir: Path) -> None:
        diag = _read_json(run_dir / "diagnostics.json")
        eps = diag["epsilon"]
        _require(diag["invariant_drift"] <= DRIFT_MAX, f"drift {diag['invariant_drift']:.2e}")
        rows = _read_csv(run_dir / "trajectory.csv")
        inside = oracles.accessible(eps, rows["q1"], rows["q2"], REGION_MARGIN)
        _require(bool(np.all(inside)), f"{int(np.sum(~inside))} samples outside the region")
        sec = _read_csv(run_dir / "section.csv")
        _require(sec["q"].size == diag["section_points"] > 0, "section point count")
        shell = sec["p"] ** 2 + 2.0 * abs(eps) * sec["q"] ** 2
        _require(float(np.max(shell)) <= 4.0 + REGION_MARGIN,
                 f"section point off the shell: {np.max(shell)!r}")

    def check_compare(self, run_dir: Path) -> None:
        rows = _read_json(run_dir / "report.json")["scenarios"]
        regimes = [row.get("regime") for row in rows]
        _require(regimes == ["regular", "chaotic"], f"regimes {regimes}")

    def check_orbits(self, result, eps: float) -> None:
        found, _ = result
        for theta, oracle in ((0.0, oracles.axis_orbit(eps)),
                              (math.pi / 4.0, oracles.perpendicular_orbit(eps))):
            hits = [o for o in found if abs(o.launch_angle - theta) < 1e-12]
            _require(len(hits) == 1, f"eps={eps}: {len(hits)} orbits at angle {theta:.4f}")
            orbit = hits[0]
            for key in ("period", "action", "tau_period"):
                rel = abs(getattr(orbit, key) / oracle[key] - 1.0)
                _require(rel <= ORBIT_RTOL, f"eps={eps} angle {theta:.4f}: {key} off by {rel:.1e}")
            _require(orbit.closure_residual <= CLOSURE_TOL,
                     f"closure residual {orbit.closure_residual:.1e}")

    def check_recurrence(self, run_dir: Path) -> None:
        peaks = _read_json(run_dir / "peaks.json")["peaks"]
        rows = _read_csv(run_dir / "recurrence.csv")
        spacing = rows["t"][1] - rows["t"][0]
        period = 2.0 * math.pi  # omega = 1
        ks = [round(p["t"] / period) for p in peaks]
        _require(ks == list(range(1, int(rows["t"][-1] / period) + 1)), f"peak orders {ks}")
        worst = max(abs(p["t"] - k * period) for p, k in zip(peaks, ks))
        _require(worst <= spacing, f"peak off k 2 pi/omega by {worst:.2e}")

    def check_trace(self, run_dir: Path) -> None:
        lo, hi, n = self.trace_grid
        spacing = (hi - lo) / (n - 1)
        maxima = [m["E"] for m in _read_json(run_dir / "peaks.json")["maxima"]
                  if m["density"] > TRACE_FLOOR]
        levels = [k + 0.5 for k in range(int(hi)) if lo < k + 0.5 < hi]
        _require(len(maxima) == len(levels), f"{len(maxima)} maxima for {len(levels)} levels")
        worst = max(abs(e - lv) for e, lv in zip(maxima, levels))
        _require(worst <= spacing, f"maximum off n + 1/2 by {worst:.2e}")


WORKLOADS = {w.name: w for w in (BohmianPointwise, EnsembleBatch, ClassicalOrbits)}
