"""Closed-orbit search for the diamagnetic Kepler problem and orbit invariants.

Orbits are launched at the nucleus and shot over the regularized momentum
angle; a return to the nucleus shows up as a zero of the signed miss
L = mu p_nu - nu p_mu at a close approach, so bisection in the launch angle
between sign changes pins the closure.  The axis-parallel (theta = 0) and
axis-perpendicular (theta = pi/4) orbits are closed by symmetry and are
seeded directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .classical import _flow, _tangent, integrate_classical, launch_from_nucleus
from .errors import DomainError, IntegrationError
from .integrate import solve_ivp
from .systems import DiamagneticSystem, PhaseState, SolvableSystem

__all__ = [
    "ClosedOrbit",
    "find_closed_orbits",
    "orbit_invariants",
    "continue_orbit",
    "solvable_orbit",
    "orbits_to_json",
]


@dataclass
class ClosedOrbit:
    """A trajectory closed at the nucleus with its classical invariants.

    `period` is the scaled physical time of one closure, `tau_period` the
    rescaled integration time, `action` the reduced action over one closure.
    The monodromy trace is that of the full linearized return map (for the
    two-dof system it includes the two marginal flow directions).
    """

    launch_angle: float
    period: float
    tau_period: float
    action: float
    monodromy_trace: float
    phase_index: int
    closure_residual: float
    times: np.ndarray
    path: np.ndarray  # (n, 4) regularized samples
    system: object = None


def _close_approaches(system, theta, tau_max, tol, capture_radius, tau_min=0.05):
    """Integrate one launch and list close approaches (tau, R, miss L)."""
    def radial_min(t, y):
        # d(R^2)/dtau / 2 crosses zero upward at a closest approach
        return y[0] * y[2] + y[1] * y[3]

    radial_min.direction = 1.0
    y0 = launch_from_nucleus(theta).as_array()
    res = solve_ivp(lambda t, y: _flow(y, system.epsilon), (0.0, tau_max), y0,
                    rtol=tol, atol=tol, events=[radial_min])
    out = []
    for te, ye in zip(res.t_events[0], res.y_events[0]):
        if te < tau_min:
            continue
        r = math.hypot(ye[0], ye[1])
        if r < capture_radius:
            miss = ye[0] * ye[3] - ye[1] * ye[2]
            out.append((float(te), r, float(miss)))
    return out


def _nearest_approach(system, theta, tau_ref, tau_max, tol, capture_radius, window):
    """The close approach (tau, R, miss L) of one launch nearest tau_ref within `window`."""
    near = [a for a in _close_approaches(system, theta, tau_max, tol, capture_radius)
            if abs(a[0] - tau_ref) < window]
    return min(near, key=lambda a: abs(a[0] - tau_ref)) if near else None


def _build_orbit(system, theta, tau_period, tol, n_samples=2001):
    """Assemble a ClosedOrbit by re-integrating with quadratures attached."""
    from .classical import _integrate_diamagnetic

    y0 = launch_from_nucleus(theta).as_array()
    t_eval = np.linspace(0.0, tau_period, n_samples)
    res = _integrate_diamagnetic(system, y0, tau_period, tol, np.inf, t_eval=t_eval)
    path = res.y[:4].T
    residual = math.hypot(path[-1, 0], path[-1, 1])
    period = float(res.y[4, -1])
    action = float(res.y[5, -1])
    trace, index = _monodromy(system, y0, tau_period, tol)
    return ClosedOrbit(
        launch_angle=theta,
        period=period,
        tau_period=tau_period,
        action=action,
        monodromy_trace=trace,
        phase_index=index,
        closure_residual=residual,
        times=res.t,
        path=path,
        system=system,
    )


def _monodromy(system, y0, tau_period, tol, n_check=2000):
    """Linearized flow over one closure; trace and conjugate-point count.

    Conjugate points are sign changes of det(dq/dp0) strictly inside the
    interval; the refocusing zero at the endpoint itself is not counted.
    The monodromy matrix M is carried by columns: z[4 + 4 j + i] = M[i][j].
    """
    eps = system.epsilon

    def rhs(t, z):
        return [*_flow(z, eps), *_tangent(z, eps, z[4:])]

    z0 = np.concatenate([y0, np.eye(4).reshape(-1)])
    t_eval = np.linspace(0.0, tau_period, n_check)
    res = solve_ivp(rhs, (0.0, tau_period), z0, rtol=tol, atol=tol, t_eval=t_eval)
    m_final = res.y[4:, -1].reshape(4, 4).T
    # det of the position-vs-initial-momentum block [[M02, M03], [M12, M13]] along the way
    dets = res.y[4 + 8] * res.y[4 + 13] - res.y[4 + 12] * res.y[4 + 9]
    interior = dets[1:-1]
    signs = np.sign(interior[np.abs(interior) > 1e-13])
    flips = int(np.sum(signs[:-1] * signs[1:] < 0))
    return float(np.trace(m_final)), flips


def find_closed_orbits(
    system: DiamagneticSystem,
    n_angles: int = 90,
    closure_tol: float = 1e-8,
    tau_max: float = 6.0,
    capture_radius: float = 0.8,
    tol: float = 1e-11,
    match_window: float = 0.35,
):
    """Shooting search over launch angles in [0, pi/2] for nucleus closures.

    Returns (orbits, diagnostics): orbits deduplicated by launch angle and
    period, diagnostics listing brackets that failed to converge.  Orbits
    whose period is an integer repetition of another orbit at the same
    launch angle are dropped.
    """
    if system.epsilon >= 0:
        raise DomainError("closed-orbit search needs a bound regime (epsilon < 0)")
    angles = np.linspace(0.0, math.pi / 2.0, n_angles + 1)
    grid_step = angles[1] - angles[0]
    scan = {th: _close_approaches(system, th, tau_max, tol, capture_radius)
            for th in angles}

    found = []  # (theta, tau_period)
    diagnostics = []

    # symmetric seeds: exact closures on the axis and in the z = 0 plane
    for th in (0.0, math.pi / 4.0):
        found += [(th, tau_e) for tau_e, r_e, _ in scan.get(th, []) if r_e <= closure_tol]

    def tracked_miss(theta, tau_ref):
        return _nearest_approach(system, theta, tau_ref, tau_max, tol, capture_radius,
                                 match_window)

    for th_a, th_b in zip(angles[:-1], angles[1:]):
        for tau_a, r_a, miss_a in scan[th_a]:
            match = [m for m in scan[th_b] if abs(m[0] - tau_a) < match_window]
            if not match:
                continue
            tau_b, r_b, miss_b = min(match, key=lambda m: abs(m[0] - tau_a))
            if miss_a == 0.0 or miss_b == 0.0 or miss_a * miss_b > 0:
                continue

            tau_track = {"tau": 0.5 * (tau_a + tau_b)}

            def f(theta):
                m = tracked_miss(theta, tau_track["tau"])
                if m is None:
                    raise IntegrationError("lost the tracked close approach")
                tau_track["tau"] = m[0]
                return m[2]

            try:
                theta_star = brentq(f, th_a, th_b, xtol=1e-13)
            except (ValueError, IntegrationError) as exc:
                diagnostics.append({"bracket": (float(th_a), float(th_b)),
                                    "tau": float(tau_a), "reason": str(exc)})
                continue
            tau_star, resid, _ = tracked_miss(theta_star, tau_track["tau"]) or (0.0, math.inf, 0.0)
            if resid <= closure_tol:
                found.append((theta_star, tau_star))
            else:
                diagnostics.append({"bracket": (float(th_a), float(th_b)),
                                    "tau": float(tau_a),
                                    "reason": f"residual {resid:.2e} above tolerance"})

    # deduplicate: same angle within the grid step and same period within 1e-4
    orbits = []
    for theta, tau_p in sorted(found, key=lambda x: (x[1], x[0])):
        orb = _build_orbit(system, theta, tau_p, tol)
        duplicate = False
        for kept in orbits:
            if abs(kept.launch_angle - orb.launch_angle) < grid_step:
                if abs(kept.period - orb.period) <= 1e-4:
                    duplicate = True
                    if orb.closure_residual < kept.closure_residual:
                        orbits[orbits.index(kept)] = orb
                    break
                ratio = orb.period / kept.period
                if abs(ratio - round(ratio)) < 1e-6 and round(ratio) >= 2:
                    duplicate = True  # repetition of a shorter closure
                    break
        if not duplicate:
            orbits.append(orb)
    orbits.sort(key=lambda o: (o.period, o.launch_angle))
    return orbits, diagnostics


def continue_orbit(system: DiamagneticSystem, orbit: ClosedOrbit,
                   closure_tol: float = 1e-8, tol: float = 1e-11) -> ClosedOrbit:
    """Re-find `orbit` at a nearby scaled energy (same closure branch).

    Symmetric orbits keep their launch angle; generic orbits are re-shot with
    a small bracket around the previous angle.
    """
    th0 = orbit.launch_angle

    def closure(theta, tau_ref):
        return _nearest_approach(system, theta, tau_ref, orbit.tau_period * 1.3, tol, 0.5, 0.35)

    symmetric = min(abs(th0 - 0.0), abs(th0 - math.pi / 4.0), abs(th0 - math.pi / 2.0)) < 1e-12

    def residual_free_theta():
        span = 0.02
        tau_track = {"tau": orbit.tau_period}

        def f(theta):
            best = closure(theta, tau_track["tau"])
            if best is None:
                raise IntegrationError("lost the closure during continuation")
            tau_track["tau"] = best[0]
            return best[2]

        a, b = th0 - span, th0 + span
        fa, fb = f(a), f(b)
        if fa * fb > 0:
            raise IntegrationError("continuation bracket does not straddle closure")
        return brentq(f, a, b, xtol=1e-13), tau_track["tau"]

    if symmetric:
        theta, tau_ref = th0, orbit.tau_period
    else:
        theta, tau_ref = residual_free_theta()
    tau_star, resid, _ = closure(theta, tau_ref) or (0.0, math.inf, 0.0)
    if resid > closure_tol:
        raise IntegrationError(f"continuation closure residual {resid:.2e}")
    return _build_orbit(system, theta, tau_star, tol)


def orbit_invariants(orbit: ClosedOrbit, system=None):
    """(action, period, monodromy trace, conjugate points) of a closed orbit.

    The action is recomputed as the quadrature of p . dq over the stored path
    samples (composite Simpson), independent of the integrator's running
    quadrature; the monodromy comes from the linearized flow over one period.
    """
    system = system or orbit.system
    path = orbit.path
    if path.shape[0] < 5 or orbit.tau_period <= 0:
        raise DomainError("degenerate orbit")
    # p . dq/dtau = p_mu^2 + p_nu^2 for the regularized flow
    integrand = path[:, 2] ** 2 + path[:, 3] ** 2
    action = _simpson(integrand, orbit.times)
    trace, index = _monodromy(system, path[0], orbit.tau_period, 1e-11)
    return action, orbit.period, trace, index


def _simpson(y, x):
    from scipy.integrate import simpson

    return float(simpson(y, x=x))


def solvable_orbit(system: SolvableSystem, energy: float, tol: float = 1e-11) -> ClosedOrbit:
    """Periodic orbit of a 1D solvable system at the given energy.

    Harmonic: one libration period starting at the right turning point.
    Box: one wall-to-wall round trip from the left wall.  Both reuse the
    ClosedOrbit container (launch angle 0, physical time = rescaled time).
    """
    if system.dimension != 1:
        raise DomainError("solvable_orbit covers 1D systems")
    if system.kind not in ("harmonic", "box"):
        raise DomainError("free particle has no periodic orbit")
    if energy <= 0:
        raise DomainError(f"{system.kind} orbit needs positive energy")
    m = system.constants.mass
    if system.kind == "harmonic":
        w = system.omegas[0]
        start = PhaseState((math.sqrt(2.0 * energy / (m * w * w)),), (0.0,))
        period = 2.0 * math.pi / w
    else:
        p = math.sqrt(2.0 * m * energy)
        start = PhaseState((0.0,), (p,))
        period = 2.0 * system.lengths[0] * m / p
    traj = integrate_classical(system, start, period, tol=tol)
    tt = np.linspace(0.0, period, 2001)
    samples = traj.at(tt)
    path = np.stack([samples[:, 0], np.zeros_like(tt), samples[:, 1],
                     np.zeros_like(tt)], axis=-1)
    action = _simpson(samples[:, 1] ** 2 / m, tt)
    # variational flow over a full period is the identity
    return ClosedOrbit(0.0, period, period, action, 2.0, 2, 0.0, tt, path, system)


def orbits_to_json(orbits, path=None):
    """Spec export: orbit catalog as a JSON array."""
    data = [
        {
            "launch_angle": o.launch_angle,
            "period": o.period,
            "action": o.action,
            "monodromy_trace": o.monodromy_trace,
            "phase_index": o.phase_index,
            "closure_residual": o.closure_residual,
        }
        for o in orbits
    ]
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
    return data
