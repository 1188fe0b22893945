"""Classical Hamiltonian dynamics: diamagnetic Kepler and solvable systems.

The diamagnetic Kepler problem (hydrogenic electron in a uniform magnetic
field, zero angular momentum about the field axis) is integrated in scaled
semiparabolic coordinates (mu, nu) with mu^2 = r + z, nu^2 = r - z and a
rescaled time dt = (mu^2 + nu^2) dtau.  This removes the Coulomb
singularity: the motion is generated by the smooth pseudo-Hamiltonian

    h = (p_mu^2 + p_nu^2)/2 - eps (mu^2 + nu^2) + (1/8) mu^2 nu^2 (mu^2 + nu^2)

on the fixed shell h = 2, with the scaled energy eps as a parameter.
Trajectories launched at the nucleus carry |p| = 2 there, so a launch is a
single angle in the (p_mu, p_nu) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, truediv

import numpy as np
from scipy.optimize.elementwise import find_root

from .csvio import write_csv
from .errors import DomainError
from .integrate import DenseOutput, solve_ivp
from .systems import DiamagneticSystem, PhaseState, SolvableSystem

__all__ = [
    "PSEUDO_ENERGY",
    "regularized_hamiltonian",
    "regularized_to_physical",
    "launch_from_nucleus",
    "Trajectory",
    "integrate_classical",
    "accessible_boundary",
    "in_accessible_region",
    "coverage_fraction",
    "ChaosDiagnostics",
    "lyapunov_exponent",
    "SectionPlane",
    "poincare_section",
]

PSEUDO_ENERGY = 2.0
SHELL_TOL = 1e-6  # how far off the shell h = 2 a diamagnetic run may start


def regularized_hamiltonian(y, epsilon: float):
    """Pseudo-Hamiltonian h(mu, nu, p_mu, p_nu); the dynamics lives on h = 2."""
    mu, nu, pmu, pnu = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    r2 = mu * mu + nu * nu
    return 0.5 * (pmu * pmu + pnu * pnu) - epsilon * r2 + 0.125 * mu * mu * nu * nu * r2


def _flow_jacobian(y, eps):
    """(mu', nu', p_mu', p_nu', a, b, c): the regularized flow at y = (mu, nu, p_mu, p_nu)
    and its Jacobian, rows (0, 0, 1, 0), (0, 0, 0, 1), (a, b, 0, 0) and (b, c, 0, 0); the
    kernel of every diamagnetic right-hand side.  Components past the fourth are ignored."""
    mu, nu = y[0], y[1]
    mu2, nu2 = mu * mu, nu * nu
    return (y[2], y[3],
            2.0 * eps * mu - 0.25 * mu * nu2 * (2.0 * mu2 + nu2),
            2.0 * eps * nu - 0.25 * nu * mu2 * (2.0 * nu2 + mu2),
            2.0 * eps - 0.25 * nu2 * (6.0 * mu2 + nu2),
            -mu * nu * (mu2 + nu2),
            2.0 * eps - 0.25 * mu2 * (6.0 * nu2 + mu2))


def regularized_to_physical(y):
    """Map regularized samples (..., 4) to scaled physical (rho, z, p_rho, p_z).

    rho keeps the sign of mu*nu (the double cover of the half plane); momenta
    are undefined at the nucleus and come out nan there.
    """
    y = np.asarray(y, dtype=float)
    mu, nu, pmu, pnu = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    r2 = mu * mu + nu * nu
    with np.errstate(divide="ignore", invalid="ignore"):
        p_rho = (nu * pmu + mu * pnu) / r2
        p_z = (mu * pmu - nu * pnu) / r2
    rho = mu * nu
    z = 0.5 * (mu * mu - nu * nu)
    return np.stack([rho, z, p_rho, p_z], axis=-1)


def launch_from_nucleus(theta: float) -> PhaseState:
    """On-shell launch at the nucleus with regularized momentum angle theta.

    theta = 0 launches along the field axis (+z), theta = pi/4 launches in
    the plane perpendicular to the field axis.
    """
    return PhaseState((0.0, 0.0), (2.0 * math.cos(theta), 2.0 * math.sin(theta)))


@dataclass
class Trajectory:
    """Sampled classical trajectory with the dense output of its one run.

    For the diamagnetic system `times` is the rescaled integration time,
    `physical_time` the accumulated scaled physical time and `action` the
    accumulated reduced action; states are regularized.  For solvable
    systems `times` is physical time, states are (q, p) and the extra
    channels are None.
    """

    system: object
    times: np.ndarray
    states: np.ndarray
    invariant: np.ndarray
    physical_time: np.ndarray | None = None
    action: np.ndarray | None = None
    _dense: DenseOutput | None = field(default=None, repr=False)

    @property
    def drift(self) -> float:
        return float(np.max(np.abs(self.invariant - self.invariant[0])))

    def at(self, t) -> np.ndarray:
        """States at times t, shape (n, dim); DomainError more than 1e-12 outside the run."""
        return _fold(self.system, self._dense(np.atleast_1d(t)).T)

    def physical_coords(self) -> np.ndarray:
        """Diamagnetic only: (rho, z, p_rho, p_z) samples."""
        if not isinstance(self.system, DiamagneticSystem):
            raise DomainError("physical_coords applies to diamagnetic trajectories")
        return regularized_to_physical(self.states)

    def tau_at_physical_time(self, t_phys) -> np.ndarray:
        """Invert the accumulated physical-time channel on the dense output.

        The channel is strictly monotone (dt = 2r dtau), increasing on a
        forward run and decreasing on a backward one: each time in its range
        has one rescaled time, all found in one root solve.
        """
        if self.physical_time is None:
            raise DomainError("trajectory carries no physical-time channel")
        t_phys = np.atleast_1d(np.asarray(t_phys, dtype=float))
        pt = self.physical_time
        sign = 1.0 if pt[-1] >= pt[0] else -1.0
        key, wanted = sign * pt, sign * t_phys  # both increasing along the run
        if np.any((wanted < key[0]) | (wanted > key[-1])):
            raise DomainError(f"physical times outside the run's [{pt[0]}, {pt[-1]}]")
        k = np.clip(np.searchsorted(key, wanted), 1, pt.size - 1)
        return _roots(lambda tau, tp: self.at(tau)[:, 4] - tp,
                      self.times[k - 1], self.times[k], t_phys)

    def to_csv(self, path) -> None:
        """Spec export: t,q1,q2,p1,p2,invariant_drift.

        Diamagnetic rows use scaled physical time and coordinates; 1D
        systems pad the second component with zeros.
        """
        if isinstance(self.system, DiamagneticSystem):
            t = self.physical_time
            # the launch sample at the nucleus has undefined momenta
            qp = list(np.nan_to_num(self.physical_coords(), nan=0.0).T)
        else:
            t = self.times
            qp = list(self.states.T)
            if len(qp) == 2:  # 1D: pad to two configuration dof
                qp = [qp[0], np.zeros(len(t)), qp[1], np.zeros(len(t))]
        drift = np.abs(self.invariant - self.invariant[0])
        write_csv(path, ["t", "q1", "q2", "p1", "p2", "invariant_drift"], [t, *qp, drift])


def _diamagnetic_rhs(eps):
    """The regularized flow, then its physical-time and reduced-action quadratures,
    dt = (mu^2 + nu^2) dtau and dS = (p_mu^2 + p_nu^2) dtau.  Component style."""
    def rhs(t, y):
        f0, f1, f2, f3, _, _, _ = _flow_jacobian(y, eps)
        return (f0, f1, f2, f3, y[0] * y[0] + y[1] * y[1], y[2] * y[2] + y[3] * y[3])

    return rhs


def integrate_classical(system, initial: PhaseState, duration: float,
                        tol: float = 1e-10) -> Trajectory:
    """Integrate the classical flow for `duration` starting at `initial`.

    Diamagnetic systems integrate the regularized flow (duration is rescaled
    time) and must start on the pseudo-energy shell h = 2 within SHELL_TOL.
    Solvable systems integrate Hamilton's equations in physical time; a box
    system integrates its free flight once, and `_fold` folds it into the
    box, which reflects at the walls exactly.  The conserved quantity is
    sampled along the run so the caller can bound its drift.
    """
    if isinstance(system, DiamagneticSystem):
        y0 = initial.as_array()
        h0 = float(regularized_hamiltonian(y0, system.epsilon))
        if abs(h0 - PSEUDO_ENERGY) > SHELL_TOL:
            raise DomainError(f"initial state off shell: h = {h0!r}")
        res = solve_ivp(_diamagnetic_rhs(system.epsilon), (initial.t, initial.t + duration),
                        np.concatenate([y0, [0.0, 0.0]]), rtol=tol, atol=tol, dense_output=True)
        states = res.y[:4].T
        inv = regularized_hamiltonian(states, system.epsilon)
        return Trajectory(system, res.t, states, inv,
                          physical_time=res.y[4], action=res.y[5], _dense=res.sol)
    if not isinstance(system, SolvableSystem):
        raise DomainError(f"cannot integrate system of type {type(system)!r}")
    res = solve_ivp(_solvable_rhs(system), (initial.t, initial.t + duration), initial.as_array(),
                    rtol=tol, atol=tol, dense_output=True)
    times, states = res.t, res.y.T
    if system.kind == "box":  # a sample at each wall hit: straight lines between samples
        times = np.union1d(times, _wall_hits(system, initial.t, initial.q, initial.p, duration))
        times = times[::-1] if duration < 0 else times
        states = _fold(system, res.sol(times).T)
    return Trajectory(system, times, states, _solvable_energy(system, states), _dense=res.sol)


def _stiffness(system):
    """Per-axis k with force -k q: m w^2 for the oscillator, 0 for free and box."""
    m = system.constants.mass
    if system.kind == "harmonic":
        return [m * w**2 for w in system.omegas]
    return [0.0] * system.dimension


def _solvable_rhs(system):
    """Hamilton's equations (q', p') = (p/m, -k q), component style.

    Two `map`s over precomputed per-axis tuples: no per-call comprehension.
    """
    d = system.dimension
    masses, forces = (system.constants.mass,) * d, tuple(-k for k in _stiffness(system))

    def rhs(t, y):
        return [*map(truediv, y[d:2 * d], masses), *map(mul, forces, y)]

    return rhs


def _solvable_energy(system, y):
    d = system.dimension
    q = y[..., :d]
    p = y[..., d:]
    m = system.constants.mass
    kin = np.sum(p * p, axis=-1) / (2.0 * m)
    return kin + system.potential(q if d == 2 else q[..., 0])


def _fold(system, y):
    """States y of shape (n, width) as they are, except box states: folded into the box.

    A box system integrates free flight.  Elastic walls are the method of
    images: each axis folds into [0, L], and on odd images the momentum flips.
    """
    if not isinstance(system, SolvableSystem) or system.kind != "box":
        return y
    d = system.dimension
    lengths = np.asarray(system.lengths)
    image = np.floor(y[:, :d] / lengths)
    odd = image % 2.0 == 1.0
    # y / L can round up to k while y < k L: the offset would be ulps below 0
    offset = np.clip(y[:, :d] - image * lengths, 0.0, lengths)
    return np.concatenate([np.where(odd, lengths - offset, offset),
                           np.where(odd, -y[:, d:], y[:, d:])], axis=1)


def _wall_hits(system, t0, q0, p0, duration):
    """Times t0 + (k L - q) / v in the run at which free flight from (q0, p0) meets a wall."""
    hits = []
    for q, v, length in zip(q0, np.divide(p0, system.constants.mass), system.lengths):
        lo, hi = sorted((q / length, (q + v * duration) / length))
        hits += [t0 + (k * length - q) / v for k in range(math.floor(lo) + 1, math.ceil(hi))]
    return np.clip(hits, *sorted((t0, t0 + duration)))


def in_accessible_region(epsilon: float, rho, z):
    """True where the scaled kinetic energy is non-negative: -1/r + rho^2/8 <= eps."""
    rho = np.abs(np.asarray(rho, dtype=float))
    z = np.asarray(z, dtype=float)
    r = np.hypot(rho, z)
    with np.errstate(divide="ignore"):
        return -1.0 / r + rho * rho / 8.0 <= epsilon


def accessible_boundary(epsilon: float, n: int = 361) -> np.ndarray:
    """Zero-velocity curve at scaled energy eps < 0 as a polyline (rho, z).

    The region is star shaped about the nucleus, so the boundary is the
    unique radius r(alpha) with -1/r + (r sin alpha)^2 / 8 = eps for each
    polar angle alpha from the +z axis, the root of the cubic
    f(r) = r^3 sin^2(alpha) / 8 - eps r - 1.  f is increasing and convex for
    r > 0 and f(-1/eps) >= 0, so Newton's iteration from r = -1/eps falls
    monotonically onto the root, for every angle at once.
    """
    if epsilon >= 0:
        raise DomainError("accessible region is unbounded for epsilon >= 0")
    alphas = np.linspace(0.0, math.pi, n)
    a = np.sin(alphas) ** 2 / 8.0
    r = np.full(n, -1.0 / epsilon)
    while True:
        r_next = r - (a * r**3 - epsilon * r - 1.0) / (3.0 * a * r * r - epsilon)
        falling = r_next < r
        if not np.any(falling):  # roundoff ends the descent
            break
        r = np.where(falling, r_next, r)
    return np.stack([r * np.sin(alphas), r * np.cos(alphas)], axis=-1)


def coverage_fraction(points, epsilon: float, grid: int = 100) -> float:
    """Fraction of accessible-region cells visited by (rho, z) samples.

    The bounding box of the zero-velocity curve is rasterized to grid x grid
    cells; cells whose centre is accessible form the denominator.
    """
    boundary = accessible_boundary(epsilon)
    rho_max = float(np.max(boundary[:, 0])) * 1.0000001
    z_max = float(np.max(np.abs(boundary[:, 1]))) * 1.0000001
    pts = np.asarray(points, dtype=float)
    rho = np.abs(pts[:, 0])
    z = pts[:, 1]

    cx = (np.arange(grid) + 0.5) * rho_max / grid
    cz = -z_max + (np.arange(grid) + 0.5) * 2.0 * z_max / grid
    CX, CZ = np.meshgrid(cx, cz, indexing="ij")
    inside = in_accessible_region(epsilon, CX, CZ)
    n_inside = int(np.sum(inside))

    ix = np.clip((rho / rho_max * grid).astype(int), 0, grid - 1)
    iz = np.clip(((z + z_max) / (2.0 * z_max) * grid).astype(int), 0, grid - 1)
    visited = np.zeros((grid, grid), dtype=bool)
    visited[ix, iz] = True
    return float(np.sum(visited & inside)) / n_inside


@dataclass(frozen=True)
class ChaosDiagnostics:
    """Finite-time Lyapunov estimate and phase-space coverage of one run.

    `lyapunov_estimate` is the mean log growth rate of a tangent vector over
    `horizon`; `coverage_fraction` is the share of accessible-region cells the
    orbit visits (0 outside the bound diamagnetic regime).
    """

    lyapunov_estimate: float
    horizon: float
    coverage_fraction: float


def lyapunov_exponent(system, initial: PhaseState, horizon: float,
                      tol: float = 1e-9) -> ChaosDiagnostics:
    """Largest finite-time Lyapunov exponent from one run of the tangent flow.

    For the diamagnetic system the rate is per unit rescaled time, and the
    coverage comes from samples of the same run (`_tangent_run`).
    """
    if horizon <= 0:
        raise DomainError(f"the Lyapunov horizon must be positive, got {horizon}")
    res = _tangent_run(system, initial.as_array(), horizon, tol)
    cov = 0.0
    if isinstance(system, DiamagneticSystem) and system.epsilon < 0:
        points = regularized_to_physical(res.y[:4].T)[:, :2]
        cov = coverage_fraction(points, system.epsilon)
    return ChaosDiagnostics(float(res.y[-1, -1]) / horizon, horizon, cov)


def _tangent_rhs(n, field):
    """Right-hand side of (y, u, Lambda) for a flow y' = f(t, y) of dimension n.

    field(t, y, u) returns (f, J u), J the flow's Jacobian at y.  The unit
    tangent vector u is renormalized continuously, u' = J u - (u . J u) u, and
    Lambda' = u . J u sums its log growth, so Lambda(T) / T is the finite-time
    Lyapunov exponent (Benettin et al., Meccanica 15 (1980); Goldhirsch,
    Sulem and Orszag, Physica D 27 (1987) 311).  Component style.
    """
    def rhs(t, z):
        u = z[n:2 * n]
        f, ju = field(t, z[:n], u)
        growth = sum(map(mul, u, ju))
        return (*f, *[a - growth * b for a, b in zip(ju, u)], growth)

    return rhs


def _diamagnetic_tangent_rhs(eps):
    """`_tangent_rhs` of the regularized flow as one function of (y, u, Lambda): J u from
    `_flow_jacobian`, then the growth and the renormalization in `_tangent_rhs`'s order."""
    def rhs(t, z):
        f0, f1, f2, f3, a, b, c = _flow_jacobian(z, eps)
        u0, u1, u2, u3 = z[4], z[5], z[6], z[7]
        j2, j3 = a * u0 + b * u1, b * u0 + c * u1
        growth = 0.0 + u0 * u2 + u1 * u3 + u2 * j2 + u3 * j3  # sum()'s: from 0, so -0.0 is 0.0
        return (f0, f1, f2, f3, u2 - growth * u0, u3 - growth * u1,
                j2 - growth * u2, j3 - growth * u3, growth)

    return rhs


def _tangent_run(system, y0, horizon, tol):
    """DOP853 run of the tangent flow from y0, u along (1, ..., 1), over [0, horizon].

    A solvable flow is linear, so J u is its right-hand side at u.  A
    diamagnetic run is sampled 20 times per unit time for the coverage, both
    ends of each unit interval included.
    """
    n, t_eval = y0.size, None
    if isinstance(system, DiamagneticSystem):
        rhs = _diamagnetic_tangent_rhs(system.epsilon)
        t_eval = np.concatenate([np.linspace(a, min(a + 1.0, horizon), 20)
                                 for a in np.arange(0.0, horizon - 1e-12, 1.0)])
    else:
        flow = _solvable_rhs(system)
        rhs = _tangent_rhs(n, lambda t, y, u: (flow(t, y), flow(t, u)))
    z0 = np.concatenate([y0, np.full(n, 1.0 / math.sqrt(n)), [0.0]])
    return solve_ivp(rhs, (0.0, horizon), z0, rtol=tol, atol=tol, t_eval=t_eval)


def _roots(f, a, b, *args):
    """Roots of f(t, *args) between a and b (either order), elementwise, in one find_root."""
    res = find_root(f, (np.minimum(a, b), np.maximum(a, b)), args=args)
    bad = res.status != 0
    if bad.any():
        raise DomainError(f"no root converged in [{a[bad][0]}, {b[bad][0]}]")
    return res.x


@dataclass(frozen=True)
class SectionPlane:
    """Poincare section q[index] = value, crossings with sign(direction) velocity."""

    index: int
    value: float = 0.0
    direction: int = 1

    def __post_init__(self):
        if self.index not in (0, 1) or self.direction not in (-1, 1):
            raise DomainError(f"a section needs index 0 or 1 and direction -1 or 1: {self}")


def poincare_section(trajectory: Trajectory, section: SectionPlane) -> np.ndarray:
    """Ordered same-orientation crossings of a position hyperplane.

    Returns (n, 2) points (q_other, p_other) for 2-dof systems: samples on
    the plane as they are, and every sign change between samples refined on
    the dense output, all in one root solve.  No crossings: an empty array.
    """
    states, times = trajectory.states, trajectory.times
    if states.shape[1] != 4:
        raise DomainError("poincare_section needs a 2-dof trajectory")
    i, other = section.index, 1 - section.index
    g = states[:, i] - section.value
    k = np.nonzero((g[:-1] == 0.0) | (g[:-1] * g[1:] < 0.0))[0]
    hits, cross = states[k], g[k] != 0.0
    t = _roots(lambda t: trajectory.at(t)[:, i] - section.value,
               times[k[cross]], times[k[cross] + 1])
    hits[cross] = trajectory.at(t)[:, :4]
    hits = hits[hits[:, 2 + i] * section.direction > 0]
    return hits[:, [other, 2 + other]]
