"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Thresholds that the criteria leave to calibration were
measured once on this implementation and are frozen here.
"""

import math
import time

import numpy as np
import oracles
from conftest import VORTEX_PAIR_RADIUS, ngon

from pilotwave import bohmian as bm
from pilotwave import classical as cl
from pilotwave import ensembles as en
from pilotwave import orbits as ob
from pilotwave import quantum as qm
from pilotwave import semiclassical as sc
from pilotwave import spectra as sp
from pilotwave import systems as sy


def _report(number, label, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number:2d} ({label}): {detail} "
          f"[{time.perf_counter() - t0:.1f}s]")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_classical_regime_split():
    t0 = time.perf_counter()
    angles = np.linspace(0.1, 1.45, 10)
    lam = {}
    for eps in (-0.15, -1.0):
        system = sy.DiamagneticSystem.scaled(eps)
        lam[eps] = np.array([
            cl.lyapunov_exponent(system, cl.launch_from_nucleus(th), 250.0,
                                 tol=1e-8).lyapunov_estimate
            for th in angles
        ])
    all_positive = bool(np.all(lam[-0.15] > 0.0))
    ratio = float(np.mean(lam[-0.15]) / np.mean(lam[-1.0]))
    ok = all_positive and ratio >= 10.0
    _report(1, "regime split", ok,
            f"chaotic mean {np.mean(lam[-0.15]):.3f} (min {np.min(lam[-0.15]):.3f}), "
            f"regular mean {np.mean(lam[-1.0]):.4f}, ratio {ratio:.1f}x", t0)


def test_criterion_02_coverage_contrast():
    t0 = time.perf_counter()

    def coverage(eps):
        system = sy.DiamagneticSystem.scaled(eps)
        traj = cl.integrate_classical(system, cl.launch_from_nucleus(0.7), 600.0, tol=1e-9)
        tt = np.arange(0.0, 600.0, 0.05)
        pts = cl.regularized_to_physical(traj.at(tt)[:, :4])[:, :2]
        return cl.coverage_fraction(pts, eps)

    chaotic, regular = coverage(-0.15), coverage(-1.0)
    ok = chaotic >= 2.0 * regular and chaotic > 0.5
    _report(2, "coverage contrast", ok,
            f"chaotic {chaotic:.3f} vs regular {regular:.3f} "
            f"(ratio {chaotic / regular:.2f}x)", t0)


def test_criterion_03_closed_orbits():
    t0 = time.perf_counter()
    details = []
    ok = True
    for eps in (-1.0, -0.15):
        system = sy.DiamagneticSystem.scaled(eps)
        orbits, _ = ob.find_closed_orbits(system, n_angles=30, tau_max=6.5)
        for theta in (0.0, math.pi / 4.0):
            hits = [o for o in orbits if abs(o.launch_angle - theta) < 1e-9]
            if not hits:
                ok = False
                details.append(f"eps={eps}: no orbit at {theta:.3f}")
                continue
            orbit = hits[0]
            delta = 1e-5
            plus = ob.continue_orbit(sy.DiamagneticSystem.scaled(eps + delta), orbit)
            minus = ob.continue_orbit(sy.DiamagneticSystem.scaled(eps - delta), orbit)
            ds_de = (plus.action - minus.action) / (2.0 * delta)
            rel = abs(ds_de / orbit.period - 1.0)
            ok = ok and orbit.closure_residual < 1e-6 and rel < 1e-3
            details.append(f"eps={eps} th={theta:.3f}: resid {orbit.closure_residual:.1e}, "
                           f"dS/dE rel {rel:.1e}")
    _report(3, "closed orbits", ok, "; ".join(details), t0)


def test_criterion_04_bohmian_rest_in_eigenstates(box1d, ho1d, box2d):
    t0 = time.perf_counter()
    cases = [
        (qm.Superposition.of(box1d, [(1.0, 3)]), 1),
        (qm.Superposition.of(ho1d, [(1.0, 2)]), 1),
        (qm.Superposition.of(box2d, [(1.0, (2, 3))]), 2),
    ]
    rng = np.random.default_rng(2026)
    worst = 0.0
    for sup, d in cases:
        lo, hi = qm.effective_domain(sup)
        scale = qm.amplitude_scale(sup)
        drawn = 0
        while drawn < 20:
            x0 = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
            psi, _, _ = qm.evaluate_wavefunction(sup, x0 if d == 2 else float(x0[0]), 0.0)
            if abs(psi) < 0.1 * scale:
                continue  # keep starts away from nodal manifolds
            drawn += 1
            traj = bm.integrate_bohmian(sup, x0, (0.0, 1000.0), tol=1e-8)
            drift = float(np.max(np.linalg.norm(
                np.atleast_2d(traj.positions.T).T - x0[None, :], axis=1)))
            worst = max(worst, drift)
    ok = worst < 1e-10
    _report(4, "eigenstate rest", ok, f"max drift {worst:.2e} over 10^3 time units", t0)


def test_criterion_05_equivariance(two_mode_box):
    t0 = time.perf_counter()
    sup = two_mode_box
    t_beat = 2.0 * math.pi / (sup.energies[1] - sup.energies[0])
    ens = en.sample_quantum_equilibrium(sup, 0.0, 100_000, seed=20260810)
    evo = en.evolve_ensemble(ens, sup, 5.0 * t_beat, tol=1e-6)
    l1 = en.equivariance_l1(evo.ensemble, sup, bins=50)
    ok = l1 < 0.02 and not evo.node_reports
    _report(5, "equivariance", ok,
            f"L1 {l1:.4f} after 5 beat periods at N=10^5", t0)


def test_criterion_06_guidance_newton_consistency(two_mode_box_complex):
    t0 = time.perf_counter()
    traj = bm.integrate_bohmian(two_mode_box_complex, [0.37], (0.0, 0.8), tol=1e-12)
    residual = bm.newtonian_residual(traj, two_mode_box_complex, n_samples=4001)
    ok = residual < 1e-4
    _report(6, "guidance vs Newton", ok, f"max residual {residual:.2e}", t0)


def test_criterion_07_circulation_quantization(vortex_plus, vortex_pair, ho2d_iso):
    t0 = time.perf_counter()
    ground = qm.Superposition.of(ho2d_iso, [(1.0, (0, 0))])
    tc = 0.3
    r0 = VORTEX_PAIR_RADIUS
    node1 = (r0 * math.cos(math.pi / 2.0 + tc), r0 * math.sin(math.pi / 2.0 + tc))
    cases = [
        (vortex_plus, ngon((0.0, 0.0), 0.6, 8), 0.0, 1),
        (vortex_plus, ngon((0.0, 0.0), 1.4, 16), 0.7, 1),
        (vortex_plus, ngon((1.8, 0.0), 0.4), 0.0, 0),
        (vortex_plus, ngon((0.0, 0.0), 0.8)[::-1].copy(), 0.2, -1),
        (vortex_pair, ngon((0.0, 0.0), 1.9, 16), tc, 2),
        (vortex_pair, ngon(node1, 0.3), tc, 1),
        (vortex_pair, ngon((2.3, 0.0), 0.35), tc, 0),
        (vortex_pair, ngon((0.0, 0.0), 1.9, 16)[::-1].copy(), tc, -2),
        (ground, ngon((0.0, 0.0), 1.0), 0.0, 0),
        (ground, ngon((0.5, -0.4), 0.7, 10), 1.1, 0),
    ]
    quantum = 2.0 * math.pi
    worst = 0.0
    windings_ok = True
    for sup, loop, t, expected in cases:
        res = bm.circulation(sup, loop, t)
        windings_ok = windings_ok and res.winding == expected
        worst = max(worst, res.residual / quantum)
    ok = windings_ok and worst <= 1e-6
    _report(7, "circulation quantization", ok,
            f"10 loops, worst residual {worst:.2e} x (2 pi hbar/m)", t0)


def test_criterion_08_bohmian_chaos_in_integrable_system(chaotic_aniso_state, ho2d_aniso):
    t0 = time.perf_counter()
    bohm = bm.bohmian_lyapunov(chaotic_aniso_state, [-0.4, -0.8], horizon=250.0,
                               tol=1e-8, t0=1.0)
    classical = cl.lyapunov_exponent(ho2d_aniso, sy.PhaseState((0.9, 0.4), (0.2, -0.3)),
                                     horizon=200.0, tol=1e-10)
    ok = bohm.value > 0.02 and abs(classical.lyapunov_estimate) < 0.01
    _report(8, "Bohmian chaos, classical order", ok,
            f"Bohmian lambda {bohm.value:.3f} vs classical "
            f"{classical.lyapunov_estimate:.2e}", t0)


def test_criterion_09_van_vleck_exactness():
    t0 = time.perf_counter()
    free = sy.free_particle()
    ho = sy.harmonic(1.3)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        x1, x2 = rng.uniform(-2.0, 2.0, 2)
        dt = rng.uniform(0.1, 2.5)
        k = sc.van_vleck_1d(free, x1, x2, dt)
        exact = oracles.exact_propagator_1d(free, x1, x2, dt)
        worst = max(worst, abs(k.value - exact) / abs(exact))
    for _ in range(50):
        x1, x2 = rng.uniform(-1.8, 1.8, 2)
        dt = rng.uniform(0.1, math.pi / 1.3 - 0.05)
        k = sc.van_vleck_1d(ho, x1, x2, dt)
        exact = oracles.exact_propagator_1d(ho, x1, x2, dt)
        worst = max(worst, abs(k.value - exact) / abs(exact))
    ok = worst < 1e-10
    _report(9, "van Vleck exactness", ok,
            f"worst relative error {worst:.2e} over 100 triples", t0)


def test_criterion_10_trace_formula(ho1d, box2d):
    t0 = time.perf_counter()
    fam = sp.harmonic_orbit_family(ho1d)
    grid = np.linspace(0.05, 5.5, 4001)
    density = sp.trace_formula_density(ho1d, [fam], grid, repetitions=50, gamma=0.03)
    peaks = [e for e, _ in density.local_maxima(floor=0.5)]
    peak_ok = len(peaks) >= 5 and all(
        abs(peaks[n] - (n + 0.5)) < 0.01 for n in range(5))

    levels = oracles.exact_levels(box2d, 1800)
    # high 200-level window: the Weyl perimeter deficit is below the gate there
    slope = float(np.polyfit(levels[1600:1800], np.arange(1601, 1801) - 0.5, 1)[0])
    dbar = sp.mean_level_density(box2d, 1.0)
    slope_rel = abs(slope / dbar - 1.0)
    ok = peak_ok and slope_rel < 0.02
    _report(10, "trace formula", ok,
            f"oscillator peaks at n+1/2 (worst "
            f"{max(abs(peaks[n] - (n + 0.5)) for n in range(5)):.4f}), "
            f"box staircase slope dev {slope_rel:.4f}", t0)


def test_criterion_11_recurrence_orbit_matching(ho1d):
    t0 = time.perf_counter()
    nbar = 8.0
    ns = np.arange(0, 30)
    logw = -nbar + ns * math.log(nbar) - np.array([math.lgamma(n + 1.0) for n in ns])
    sup = qm.Superposition.of(ho1d, [(float(c), int(n))
                                     for c, n in zip(np.exp(0.5 * logw), ns)])
    grid = np.linspace(0.0, 20.0, 4001)
    spec = sp.recurrence_spectrum(sup, grid)
    fam = sp.harmonic_orbit_family(ho1d)
    period = float(fam.period(float(np.abs(sup.coefficients) ** 2 @ sup.energies)))
    spacing = grid[1] - grid[0]
    assoc = sp.match_peaks_to_orbits(spec, [period], tol=spacing)
    matched = [a for a in assoc if a["orbit"] is not None]
    ok = (len(matched) >= 3
          and [a["repetition"] for a in matched[:3]] == [1, 2, 3]
          and all(a["delta_t"] < spacing for a in matched[:3]))
    detail = ", ".join(f"k={a['repetition']} dt={a['delta_t']:.1e}" for a in matched[:3])
    _report(11, "recurrence-orbit matching", ok, detail, t0)


def test_criterion_12_wavefield_residuals(two_mode_box_complex, vortex_plus,
                                          chaotic_aniso_state):
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_hj = worst_ct = 0.0
    for sup in (two_mode_box_complex, vortex_plus, chaotic_aniso_state):
        d = sup.system.dimension
        m = sup.system.constants.mass
        lo, hi = qm.effective_domain(sup)
        scale = qm.amplitude_scale(sup)
        dt = 3e-7  # sigma swings fast when a vortex passes near a sample
        n_done = 0
        while n_done < 1000:
            x = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            t = rng.uniform(0.0, 3.0)
            xq = x if d == 2 else float(x[0])
            s = qm.wavefield_sample(sup, xq, t)
            if s.rho < 0.05 * scale:
                continue  # non-node samples only
            n_done += 1
            pp, _, _ = qm.evaluate_wavefunction(sup, xq, t + dt)
            pm, _, _ = qm.evaluate_wavefunction(sup, xq, t - dt)
            dsigma_dt = np.angle(complex(pp) / complex(pm)) / (2.0 * dt)
            hj = dsigma_dt + float(s.grad_sigma @ s.grad_sigma) / (2.0 * m) + s.Q \
                + float(sup.system.potential(np.asarray(xq)))
            worst_hj = max(worst_hj, abs(hj))
            drho2_dt = (abs(complex(pp)) ** 2 - abs(complex(pm)) ** 2) / (2.0 * dt)
            psi, _, lap = qm.evaluate_wavefunction(sup, xq, t)
            div_j = np.imag(np.conjugate(complex(psi)) * complex(lap)) / m
            worst_ct = max(worst_ct, abs(drho2_dt + div_j))
    ok = worst_hj < 1e-6 and worst_ct < 1e-6
    _report(12, "wavefield residuals", ok,
            f"HJ {worst_hj:.2e}, continuity {worst_ct:.2e} "
            f"at 10^3 samples per state", t0)
