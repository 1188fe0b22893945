"""Closed-orbit search for the diamagnetic Kepler problem and orbit invariants.

Orbits are launched at the nucleus and shot over the regularized momentum
angle; a return to the nucleus shows up as a zero of the signed miss
L = mu p_nu - nu p_mu at a close approach, so bisection in the launch angle
between sign changes pins the closure.  The axis-parallel (theta = 0) and
axis-perpendicular (theta = pi/4) orbits are closed by symmetry and are
seeded directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from .classical import _diamagnetic_rhs, _flow, _tangent, integrate_classical, launch_from_nucleus
from .errors import DomainError, IntegrationError
from .integrate import solve_ivp
from .systems import DiamagneticSystem, PhaseState, SolvableSystem

__all__ = [
    "ClosedOrbit",
    "find_closed_orbits",
    "orbit_invariants",
    "continue_orbit",
    "solvable_orbit",
]

CLOSURE_TOL = 1e-8  # how close to the nucleus a closure must return
TOL = 1e-11  # DOP853 tolerance of every launch and orbit run
CAPTURE_RADIUS = 0.8  # the search's close approaches lie within this of the nucleus
MATCH_WINDOW = 0.35  # close approaches of neighbouring launches match within this in tau
TAU_MIN = 0.05  # close approaches before this are the launch itself


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


def _close_approaches(system, theta, tau_max, capture_radius):
    """Integrate one launch and list close approaches (tau, R, miss L)."""
    def radial_min(t, y):
        # d(R^2)/dtau / 2 crosses zero upward at a closest approach
        return y[0] * y[2] + y[1] * y[3]

    radial_min.direction = 1.0
    y0 = launch_from_nucleus(theta).as_array()
    res = solve_ivp(lambda t, y: _flow(y, system.epsilon), (0.0, tau_max), y0,
                    rtol=TOL, atol=TOL, events=radial_min)
    out = []
    for te, ye in zip(res.t_events[0], res.y_events[0]):
        if te < TAU_MIN:
            continue
        r = math.hypot(ye[0], ye[1])
        if r < capture_radius:
            miss = ye[0] * ye[3] - ye[1] * ye[2]
            out.append((float(te), r, float(miss)))
    return out


def _closure(launch, bracket, tau_ref, closure_tol):
    """(theta, tau, residual R) of the closure in `bracket` near tau_ref.

    launch(theta) lists the close approaches of one launch.  Each launch
    follows the close approach within MATCH_WINDOW of the last one followed,
    and brentq pins the launch angle at which its signed miss L vanishes; a
    bracket (theta, theta) only follows theta.  IntegrationError when the
    approach is lost, when L has one sign on the bracket, or when the
    closure misses the nucleus by more than closure_tol.
    """
    def approach(theta):
        nonlocal tau_ref
        near = [a for a in launch(theta) if abs(a[0] - tau_ref) < MATCH_WINDOW]
        if not near:
            raise IntegrationError("lost the tracked close approach")
        best = min(near, key=lambda a: abs(a[0] - tau_ref))
        tau_ref = best[0]
        return best

    theta = bracket[0]
    if bracket[1] != theta:
        try:
            theta = brentq(lambda th: approach(th)[2], *bracket, xtol=1e-13)
        except ValueError as exc:
            raise IntegrationError(f"closure bracket does not straddle: {exc}") from exc
    tau, resid, _ = approach(theta)
    if resid > closure_tol:
        raise IntegrationError(f"closure residual {resid:.2e} above tolerance")
    return theta, tau, resid


def _build_orbit(system, theta, tau_period):
    """A ClosedOrbit from one DOP853 run over one closure.

    The run carries the path, the physical-time and action quadratures and
    the monodromy matrix M by columns, z[6 + 4 j + i] = M[i][j].  Conjugate
    points are sign changes of det(dq/dp0) strictly inside the run; the
    refocusing zero at the endpoint itself is not counted.
    """
    eps = system.epsilon
    flow = _diamagnetic_rhs(eps)

    def rhs(t, z):
        return (*flow(t, z), *_tangent(z, eps, z[6:]))

    z0 = np.concatenate([launch_from_nucleus(theta).as_array(), [0.0, 0.0], np.eye(4).ravel()])
    res = solve_ivp(rhs, (0.0, tau_period), z0, rtol=TOL, atol=TOL,
                    t_eval=np.linspace(0.0, tau_period, 2001))
    path, m = res.y[:4].T, res.y[6:]
    # det of the position-vs-initial-momentum block [[M02, M03], [M12, M13]] along the run
    interior = (m[8] * m[13] - m[12] * m[9])[1:-1]
    signs = np.sign(interior[np.abs(interior) > 1e-13])
    return ClosedOrbit(
        launch_angle=theta,
        period=float(res.y[4, -1]),
        tau_period=tau_period,
        action=float(res.y[5, -1]),
        monodromy_trace=float(np.trace(m[:, -1].reshape(4, 4))),
        phase_index=int(np.sum(signs[:-1] * signs[1:] < 0)),
        closure_residual=math.hypot(path[-1, 0], path[-1, 1]),
        times=res.t,
        path=path,
        system=system,
    )


def find_closed_orbits(
    system: DiamagneticSystem,
    n_angles: int = 90,
    closure_tol: float = CLOSURE_TOL,
    tau_max: float = 6.0,
):
    """Shooting search over launch angles in [0, pi/2] for nucleus closures.

    Returns (orbits, diagnostics): diagnostics list the brackets that failed
    to converge.  Closures are deduplicated before any orbit is built: one
    with the angle of a kept closure within the grid step and its tau within
    1e-4 is the same orbit, and the one closer to the nucleus stays; one
    whose tau is an integer multiple (2 or more) of such a closure's is a
    repetition of it and is dropped.
    """
    if system.epsilon >= 0:
        raise DomainError("closed-orbit search needs a bound regime (epsilon < 0)")
    angles = np.linspace(0.0, math.pi / 2.0, n_angles + 1)
    grid_step = angles[1] - angles[0]
    scan = {th: _close_approaches(system, th, tau_max, CAPTURE_RADIUS)
            for th in angles}

    found = []  # (theta, tau_period, residual)
    diagnostics = []

    # symmetric seeds: exact closures on the axis and in the z = 0 plane
    for th in (0.0, math.pi / 4.0):
        found += [(th, tau_e, r_e) for tau_e, r_e, _ in scan.get(th, []) if r_e <= closure_tol]

    def launch(theta):  # brentq starts at the bracket ends, which the scan launched
        return scan[theta] if theta in scan else _close_approaches(
            system, theta, tau_max, CAPTURE_RADIUS)

    for th_a, th_b in zip(angles[:-1], angles[1:]):
        for tau_a, r_a, miss_a in scan[th_a]:
            match = [m for m in scan[th_b] if abs(m[0] - tau_a) < MATCH_WINDOW]
            if not match:
                continue
            tau_b, r_b, miss_b = min(match, key=lambda m: abs(m[0] - tau_a))
            if miss_a == 0.0 or miss_b == 0.0 or miss_a * miss_b > 0:
                continue
            try:
                found.append(_closure(launch, (th_a, th_b), 0.5 * (tau_a + tau_b),
                                      closure_tol))
            except IntegrationError as exc:
                diagnostics.append({"bracket": (float(th_a), float(th_b)),
                                    "tau": float(tau_a), "reason": str(exc)})

    kept = []
    for theta, tau, resid in sorted(found, key=lambda x: (x[1], x[0])):
        for n, (theta_k, tau_k, resid_k) in enumerate(kept):
            if abs(theta_k - theta) < grid_step:
                if abs(tau_k - tau) <= 1e-4:  # the same orbit
                    if resid < resid_k:
                        kept[n] = (theta, tau, resid)
                    break
                ratio = tau / tau_k
                if abs(ratio - round(ratio)) < 1e-6 and round(ratio) >= 2:
                    break  # a repetition of the shorter closure
        else:
            kept.append((theta, tau, resid))
    orbits = [_build_orbit(system, theta, tau) for theta, tau, _ in kept]
    orbits.sort(key=lambda o: (o.period, o.launch_angle))
    return orbits, diagnostics


def continue_orbit(system: DiamagneticSystem, orbit: ClosedOrbit) -> ClosedOrbit:
    """Re-find `orbit` at a nearby scaled energy (same closure branch).

    Symmetric orbits keep their launch angle; generic orbits are re-shot with
    a small bracket around the previous angle.
    """
    th0 = orbit.launch_angle
    symmetric = min(abs(th0 - 0.0), abs(th0 - math.pi / 4.0), abs(th0 - math.pi / 2.0)) < 1e-12
    span = 0.0 if symmetric else 0.02
    theta, tau, _ = _closure(
        lambda th: _close_approaches(system, th, orbit.tau_period * 1.3, 0.5),
        (th0 - span, th0 + span), orbit.tau_period, CLOSURE_TOL)
    return _build_orbit(system, theta, tau)


def orbit_invariants(orbit: ClosedOrbit):
    """(action, period, monodromy trace, conjugate points) of a closed orbit.

    The action is recomputed as the quadrature of p . dq over the stored path
    samples (composite Simpson), independent of the integrator's running
    quadrature; the monodromy trace and conjugate points are those of the
    orbit's run, which carried the linearized flow over one period.
    """
    path = orbit.path
    if path.shape[0] < 5 or orbit.tau_period <= 0:
        raise DomainError("degenerate orbit")
    # p . dq/dtau = p_mu^2 + p_nu^2 for the regularized flow
    action = float(simpson(path[:, 2] ** 2 + path[:, 3] ** 2, x=orbit.times))
    return action, orbit.period, orbit.monodromy_trace, orbit.phase_index


def solvable_orbit(system: SolvableSystem, energy: float) -> ClosedOrbit:
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
    traj = integrate_classical(system, start, period, tol=TOL)
    tt = np.linspace(0.0, period, 2001)
    samples = traj.at(tt)
    path = np.stack([samples[:, 0], np.zeros_like(tt), samples[:, 1],
                     np.zeros_like(tt)], axis=-1)
    action = float(simpson(samples[:, 1] ** 2 / m, x=tt))
    # variational flow over a full period is the identity
    return ClosedOrbit(0.0, period, period, action, 2.0, 2, 0.0, tt, path, system)
