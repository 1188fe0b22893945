"""Guidance-law trajectories, their diagnostics, and vortex circulation.

The particle velocity is the phase gradient of the pilot wave divided by the
mass.  Integration uses DOP853 (`pilotwave.integrate`) with a node guard: a
step that would cross below the node amplitude threshold terminates the run
and the partial trajectory is returned with the encounter recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import mul

import numpy as np
from scipy.integrate import quad

from .classical import _tangent_rhs
from .csvio import write_csv
from .errors import DomainError, NodeSingularityError, PilotwaveError
from .integrate import DenseOutput, solve_ivp
from .quantum import (
    _ARRAY,
    _SCALAR,
    NODE_THRESHOLD_FACTOR,
    Superposition,
    _map_chunks,
    _polar,
    _term_sum,
    amplitude_scale,
    evaluate_wavefunction,
    phase_gradient,
    wavefield_sample,
)

__all__ = [
    "velocity_field",
    "probability_current",
    "BohmianTrajectory",
    "integrate_bohmian",
    "newtonian_residual",
    "LyapunovEstimate",
    "bohmian_lyapunov",
    "CirculationResult",
    "circulation",
]

# loops must keep this much amplitude margin above the node threshold
CIRCULATION_GUARD_FACTOR = 1e-7


def _guidance(sup: Superposition, x, t):
    """(v, |psi|) at points x of shape (D,) or (N, D), with no node guard.

    t is one time or one per point.  Box points are evaluated 1e-12 L inside
    the walls (`_held_inside`): trial stages of a step may poke just outside,
    and the exact flow cannot leave the domain.  One point (shape (D,)) goes
    through `_point_guidance` in Python floats; N points through
    `_guidance_block`, `CHUNK` points at a time.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        v, amp = _point_guidance(sup, x.tolist(), float(t))
        return np.array(v), amp
    return _map_chunks(partial(_guidance_block, sup), x, t, (np.empty(x.shape), np.empty(len(x))))


def _guidance_block(sup: Superposition, x, t, v, amp):
    """v and |psi| at the rows of x (one point each), box rows held inside, written into v and amp."""
    system = sup.system
    p = _held_inside(system, x.T)
    d = system.dimension
    psi, grad, _ = evaluate_wavefunction(sup, p[0] if d == 1 else np.transpose(p), t)
    np.divide(phase_gradient(psi, grad[:, None] if d == 1 else grad, system.constants.hbar),
              system.constants.mass, out=v)
    np.abs(psi, out=amp)


def _held_inside(system, p):
    """D floats or D arrays p, box coordinates held 1e-12 L inside the walls."""
    if system.kind != "box":
        return p
    pad = 1e-12 * max(system.lengths)
    if isinstance(p[0], np.ndarray):  # np.clip is slow
        return [np.minimum(np.maximum(xi, pad), L - pad) for xi, L in zip(p, system.lengths)]
    return [min(max(xi, pad), L - pad) for xi, L in zip(p, system.lengths)]


def _point_guidance(sup: Superposition, p, t: float):
    """(v as a list, |psi|) at one point p of D floats at a float time, box points held
    as in `_guidance`.

    psi and its gradient come from `_term_sum` in Python floats, and
    `phase_gradient` / m is formed in them: one point is too small for numpy.
    """
    system = sup.system
    psi, gx, gy, _, _, _ = _term_sum(sup, _held_inside(system, p), t, 1)
    hbar, m = system.constants.hbar, system.constants.mass
    amp = abs(psi)
    rho2 = amp * amp
    if rho2 == 0.0:  # exact node or underflow: the array formula's nan/inf
        return (phase_gradient(psi, np.array([gx, gy][:system.dimension]), hbar) / m).tolist(), amp
    conj = psi.conjugate()
    vx = hbar * (conj * gx).imag / rho2 / m
    return ([vx, hbar * (conj * gy).imag / rho2 / m] if system.dimension == 2 else [vx]), amp


def _point_amplitude(sup: Superposition, p, t: float) -> float:
    """|psi| at one point p of D floats (an array of shape (D,) in an event's root
    search) at a float time, box points held as in `_guidance`."""
    if not isinstance(p, list):
        p = p.tolist()
    return abs(_term_sum(sup, _held_inside(sup.system, p), t, 0)[0])


def _guidance_rhs(sup: Superposition, t, y):
    """dx/dt = v(x, t) in component style: y a list of D floats while stepping,
    an array of shape (D, M) with one time per column in the dense rebuild."""
    if isinstance(y, list):
        return _point_guidance(sup, y, t)[0]
    return _guidance(sup, y.T, t)[0].T


def _guidance_jacobian(sup: Superposition, p, t):
    """(v, dv/dx rows) at one point or at M points, box points held as in `_guidance`.

    p holds D floats or D arrays of M coordinates (t one time or one per
    point), and so does each entry of the result.  With a = grad psi / psi,
    v = (hbar/m) Im a and dv_i/dx_j = (hbar/m) Im(H_ij / psi - a_i a_j), H
    the Hessian of psi.
    """
    system = sup.system
    lib = _ARRAY if isinstance(p[0], np.ndarray) else _SCALAR
    psi, gx, gy, hxx, hxy, hyy = _term_sum(sup, _held_inside(system, p), t, 2, lib)
    q = system.constants.hbar / system.constants.mass
    inv = 1.0 / psi
    ax, ay = gx * inv, gy * inv
    v = [q * ax.imag, q * ay.imag]
    jac = [[q * (hxx * inv - ax * ax).imag, q * (hxy * inv - ax * ay).imag],
           [q * (hxy * inv - ay * ax).imag, q * (hyy * inv - ay * ay).imag]]
    return (v, jac) if system.dimension == 2 else (v[:1], [jac[0][:1]])


def _sampled_fields(sup: Superposition, x, t):
    """(rho, Q, grad sigma, bad) at points x of shape (N, D), one time each.

    bad marks exact nodes and overflow, where the polar fields are undefined.
    """
    d = sup.system.dimension
    psi, grad, lap = evaluate_wavefunction(sup, x[:, 0] if d == 1 else x, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho, _, grad_sigma, q = _polar(psi, grad[:, None] if d == 1 else grad, lap,
                                       sup.system.constants)
    bad = (rho == 0.0) | ~np.isfinite(q) | ~np.all(np.isfinite(grad_sigma), axis=-1)
    return rho, q, grad_sigma, bad


def velocity_field(sup: Superposition, x, t: float):
    """Bohmian velocity v = grad(sigma)/m at one point.

    Raises NodeSingularityError within the node guard band.  Returns a float
    for 1D systems and a length-2 array for 2D systems.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    sample = wavefield_sample(sup, xa[0] if sup.system.dimension == 1 else xa, t)
    if sample.node_flag:
        raise NodeSingularityError(x, t, sample.rho)
    v = sample.grad_sigma / sup.system.constants.mass
    return float(v[0]) if sup.system.dimension == 1 else v


def probability_current(sup: Superposition, x, t: float):
    """Probability current j = hbar Im(psi* grad psi)/m, independent of v.

    Computed directly from psi and its gradient so it can serve as an oracle
    for the velocity-current identity j = rho^2 v.
    """
    hbar, m = sup.system.constants.hbar, sup.system.constants.mass
    psi, grad, _ = evaluate_wavefunction(sup, x, t)
    j = hbar * np.imag(np.conjugate(psi) * np.atleast_1d(grad)) / m
    return float(j[0]) if sup.system.dimension == 1 else j


@dataclass
class BohmianTrajectory:
    """Sampled guidance-law trajectory with per-sample hydrodynamic fields."""

    times: np.ndarray
    positions: np.ndarray  # (N,) in 1D, (N, 2) in 2D
    velocities: np.ndarray
    Q: np.ndarray
    rho: np.ndarray
    x0: np.ndarray
    superposition: Superposition
    node_encounters: list = field(default_factory=list)
    complete: bool = True
    _dense: DenseOutput | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.superposition.system.dimension

    def at(self, t) -> np.ndarray:
        """Positions at times t from the run's dense output (DomainError over 1e-12 outside)."""
        out = self._dense(np.atleast_1d(t))
        return out.T if self.dimension == 2 else out[0]

    def to_csv(self, path) -> None:
        d = self.dimension
        header = (
            ["t"] + [f"x{i+1}" for i in range(d)] + [f"v{i+1}" for i in range(d)] + ["Q", "rho"]
        )
        write_csv(path, header, [self.times, *np.atleast_2d(self.positions.T),
                                 *np.atleast_2d(self.velocities.T), self.Q, self.rho])


def _node_threshold(sup: Superposition) -> float:
    return NODE_THRESHOLD_FACTOR * amplitude_scale(sup)


def integrate_bohmian(sup: Superposition, x0, t_span, tol: float = 1e-9) -> BohmianTrajectory:
    """Integrate dx/dt = v(x, t) from x0 over t_span with DOP853.

    Halts with a partial trajectory when the node guard band is entered.
    Every box wall is a node of every box state, so the guard also ends a
    run that heads for a wall before it can leave the box.
    """
    system = sup.system
    d = system.dimension
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not system.in_domain(x0):
        raise DomainError(f"x0 {x0} outside domain")
    threshold = _node_threshold(sup)

    amp0 = float(_guidance(sup, x0, t0)[1])
    if amp0 <= threshold:
        raise NodeSingularityError(x0, t0, amp0, "x0 inside node guard band")

    def node_event(t, y):
        return _point_amplitude(sup, y, t) - threshold

    node_event.terminal = True
    span = abs(t1 - t0)
    res = solve_ivp(partial(_guidance_rhs, sup), (t0, t1), x0, rtol=tol, atol=tol,
                    dense_output=True, events=node_event,
                    max_step=span / 32 if span > 0 else np.inf)
    node_encounters = [{"t": float(t), "x": y.tolist(), "rho": float(_guidance(sup, y, t)[1])}
                       for t, y in zip(res.t_events[0], res.y_events[0])]
    times, positions = res.t, res.y.T
    rho, qv, grad_sigma, bad = _sampled_fields(sup, positions, times)
    velocities = grad_sigma / system.constants.mass
    velocities[bad], qv[bad], rho[bad] = np.nan, np.nan, 0.0  # exact node or overflow
    return BohmianTrajectory(
        times=times, positions=positions if d == 2 else positions[:, 0],
        velocities=velocities if d == 2 else velocities[:, 0], Q=qv, rho=rho, x0=x0,
        superposition=sup, node_encounters=node_encounters, complete=not node_encounters,
        _dense=res.sol)


def newtonian_residual(traj: BohmianTrajectory, sup: Superposition,
                       n_samples: int = 2001, grad_step: float = 1e-5) -> float:
    """Max |m d2x/dt2 + grad(V + Q)| along the trajectory.

    Acceleration comes from a fourth-order five-point second difference of
    the dense trajectory on a uniform grid; the force is evaluated from the
    analytic wavefield, with grad Q by central difference of the analytic Q.
    """
    if traj.times.size < 3:
        raise DomainError("need at least 3 samples for second differences")
    system = sup.system
    d = system.dimension
    m = system.constants.mass
    t0, t1 = traj.times[0], traj.times[-1]
    tt = np.linspace(t0, t1, n_samples)
    dt = tt[1] - tt[0]
    xx = traj.at(tt)
    xx2 = xx[:, None] if d == 1 else xx

    # five-point second derivative, O(dt^4)
    acc = (
        -xx2[:-4] + 16.0 * xx2[1:-3] - 30.0 * xx2[2:-2] + 16.0 * xx2[3:-1] - xx2[4:]
    ) / (12.0 * dt**2)

    # Q at x +- grad_step along each axis: stencil (sample, sign, axis, D)
    x = xx2[2:-2]
    steps = grad_step * np.eye(d)
    stencil = np.stack([x[:, None, :] + steps, x[:, None, :] - steps], axis=1)
    fields = _sampled_fields(sup, stencil.reshape(-1, d), np.repeat(tt[2:-2], 2 * d))
    rho, q, _, bad = (a.reshape(stencil.shape[:-1] + a.shape[1:]) for a in fields)
    if np.any(bad):
        k = np.argwhere(bad)[0]
        raise NodeSingularityError(stencil[tuple(k)], tt[2 + k[0]], float(rho[tuple(k)]),
                                   "newtonian residual stencil touches a node")
    gq = (q[:, 0] - q[:, 1]) / (2.0 * grad_step)
    gv = system.potential_gradient(x if d == 2 else x[:, 0]).reshape(-1, d)
    return float(np.max(np.abs(m * acc + (gv + gq)), initial=0.0))


@dataclass(frozen=True)
class LyapunovEstimate:
    """Finite-time Lyapunov estimate of the guidance flow.

    `value` is the mean log growth rate of a tangent vector over `horizon`,
    the time actually integrated; `partial` marks a run the node guard ended
    before the requested horizon.
    """

    value: float
    horizon: float
    partial: bool = False


def bohmian_lyapunov(
    sup: Superposition,
    x0,
    horizon: float,
    tol: float = 1e-9,
    t0: float = 0.0,
) -> LyapunovEstimate:
    """Largest finite-time Lyapunov exponent of the guidance flow at x0.

    One DOP853 run carries the position, a unit tangent vector and its
    accumulated log growth (`classical._tangent_rhs`), with the guidance
    Jacobian from the Hessian of psi (`_guidance_jacobian`).  A node halt
    yields a partial estimate with the flag set; its time comes from the
    run's dense output, rebuilt with one column per time.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    threshold = _node_threshold(sup)

    def field(t, x, u):
        v, jac = _guidance_jacobian(sup, x, t)
        return v, [sum(map(mul, row, u)) for row in jac]

    def node_event(t, z):
        return _point_amplitude(sup, z[:d], t) - threshold

    node_event.terminal = True
    z0 = np.concatenate([x0, np.full(d, 1.0 / math.sqrt(d)), [0.0]])
    res = solve_ivp(_tangent_rhs(d, field), (t0, t0 + horizon), z0, rtol=tol, atol=tol,
                    events=node_event)
    elapsed = float(res.t[-1]) - t0
    value = float(res.y[-1, -1]) / elapsed if elapsed > 0 else 0.0
    return LyapunovEstimate(value, elapsed, res.status == 1)


@dataclass(frozen=True)
class CirculationResult:
    """Loop integral of the velocity field and its winding number."""

    loop: np.ndarray
    raw_integral: float
    winding: int
    residual: float


def circulation(sup: Superposition, loop, t: float,
                quantum_tol: float = 1e-6) -> CirculationResult:
    """Circulation of the Bohmian velocity around a closed polygon.

    The integral is computed edge by edge with adaptive quadrature and must
    come out an integer multiple of 2 pi hbar / m within `quantum_tol`
    relative (single-valuedness of psi); a violation raises.
    """
    system = sup.system
    if system.dimension != 2:
        raise DomainError("circulation requires a 2D system")
    hbar, m = system.constants.hbar, system.constants.mass
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 2 or loop.shape[1] != 2 or loop.shape[0] < 3:
        raise DomainError("loop must be a polygon of at least 3 vertices")
    if not np.allclose(loop[0], loop[-1]):
        loop = np.vstack([loop, loop[0]])

    guard = CIRCULATION_GUARD_FACTOR * amplitude_scale(sup)
    for a, b in zip(loop[:-1], loop[1:]):
        ss = np.linspace(0.0, 1.0, 64)
        pts = a[None, :] + ss[:, None] * (b - a)[None, :]
        amp = np.abs(evaluate_wavefunction(sup, pts, t)[0])
        if np.min(amp) < guard:
            raise NodeSingularityError(pts[np.argmin(amp)], t, float(np.min(amp)),
                                       "loop intersects node guard band; reroute failed")

    total = 0.0
    for a, b in zip(loop[:-1], loop[1:]):
        dl = b - a

        def integrand(s, a=a, dl=dl):
            v = _guidance(sup, a + s * dl, t)[0]
            return float(v @ dl)

        val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val

    quantum = 2.0 * math.pi * hbar / m
    winding = int(round(total / quantum))
    residual = abs(total - winding * quantum)
    if residual > quantum_tol * quantum:
        raise PilotwaveError(
            f"circulation {total!r} not quantized: residual {residual:.3e} "
            f"exceeds {quantum_tol:.1e} x 2 pi hbar/m"
        )
    return CirculationResult(loop, total, winding, residual)
