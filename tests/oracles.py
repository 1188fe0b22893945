"""Second implementations and closed forms kept beside the tests as references for `src/`.

`term_sum` and `point_hessian` are the generic one-point term loops that
`quantum.evaluate_wavefunction` and `bohmian._guidance_jacobian` ran before
the scalar kernel `quantum._term_sum` replaced them: every term builds its
list of parts (value, gradient, laplacian or Hessian) and each list is added
into the running totals.  `guidance`, `amplitude` and `jacobian` form from
them, with the formulas `bohmian` uses, what the guidance flow reads.  They
read the same per-axis ladders as the kernel, at their full order.

The rest are references that no scenario, command or benchmark workload
runs, each independent of the code it checks:
- `eigenfunction`, one mode at a time, with its own sin and Hermite
  recurrence (`_box_axis`, `_hermite_pair`, `_harmonic_axis`), not the
  kernel's mode ladders;
- `velocity_field`, the guidance velocity at one point through the polar
  fields, and `probability_current`, j from its own formula;
- the diamagnetic flow in physical coordinates
  (`integrate_diamagnetic_physical`, `physical_hamiltonian`), the map into
  the regularized coordinates and the scaling map;
- the Monte Carlo level density `mean_level_density_mc`, the exact levels
  and their smoothed delta comb;
- the finite-difference Hamilton-Jacobi residual, and the exact 1D
  propagator and Green function.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from pilotwave import bohmian as bm
from pilotwave import quantum as qm
from pilotwave.classical import Trajectory
from pilotwave.errors import DomainError, NodeSingularityError
from pilotwave.integrate import solve_ivp
from pilotwave.quantum import EigenstateRef, Superposition, _check_box
from pilotwave.systems import DiamagneticSystem, PhaseState, SolvableSystem, SystemConstants

SHELL_FRACTION = 0.05  # `mean_level_density_mc` counts the shell |H - E| < E SHELL_FRACTION / 2
HJ_STEP = 1e-6  # central-difference step in x and t of `hamilton_jacobi_residual`
GREEN_STATES = 4000  # modes in the box sum of `exact_green_1d`


def term_sum(sup, point, t):
    """(psi, gradient components, laplacian) at one point of D floats, in Python scalars."""
    axes, terms = sup._plan
    tables = [ladder(constants, xi, qm._SCALAR) for (ladder, constants), xi in zip(axes, point)]
    hbar = sup.system.constants.hbar
    psi = grad = lap = None
    for c, energy, n in terms:
        if not tables:  # free: plane wave exp(i k . x)
            v = cmath.exp(1j * sum(ki * xi for ki, xi in zip(n, point)))
            g, l = [1j * ki * v for ki in n], -sum(ki * ki for ki in n) * v
        elif len(tables) == 1:
            v, g, l = tables[0][n[0]]
            g = [g]
        else:
            (vx, gx, lx), (vy, gy, ly) = tables[0][n[0]], tables[1][n[1]]
            v, g, l = vx * vy, [gx * vy, vx * gy], lx * vy + vx * ly
        w = c * cmath.exp(-1j * (energy * t / hbar))
        if psi is None:
            psi, grad, lap = w * v, [w * gi for gi in g], w * l
        else:
            psi = psi + w * v
            grad = [a + w * gi for a, gi in zip(grad, g)]
            lap = lap + w * l
    return psi, grad, lap


def point_hessian(sup, point, t):
    """(psi, gradient, Hessian rows) at one point of D floats, or at M points of D arrays."""
    lib = qm._ARRAY if isinstance(point[0], np.ndarray) else qm._SCALAR
    axes, terms = sup._plan
    tables = [ladder(constants, xi, lib) for (ladder, constants), xi in zip(axes, point)]
    hbar, d = sup.system.constants.hbar, len(point)
    total = [0.0] * (1 + d + d * d)  # psi, the gradient, then the Hessian row by row
    for c, energy, n in terms:
        if not tables:  # free: plane wave exp(i k . x)
            v = lib.cexp(1j * sum(ki * xi for ki, xi in zip(n, point)))
            parts = [v, *[1j * ki * v for ki in n], *[-ki * kj * v for ki in n for kj in n]]
        elif len(tables) == 1:
            parts = tables[0][n[0]]
        else:
            (vx, gx, lx), (vy, gy, ly) = tables[0][n[0]], tables[1][n[1]]
            gxy = gx * gy
            parts = [vx * vy, gx * vy, vx * gy, lx * vy, gxy, gxy, vx * ly]
        w = c * lib.cexp(-1j * (energy * t / hbar))
        total = [b + w * a for b, a in zip(total, parts)]
    return total[0], total[1:d + 1], [total[d + 1 + d * i:d + 1 + d * (i + 1)] for i in range(d)]


def _inside(sup, point):
    """D Python floats, or D arrays, with box coordinates held inside as
    `bohmian._held_inside` holds them."""
    if not isinstance(point[0], np.ndarray):
        point = [float(xi) for xi in point]
    return bm._held_inside(sup.system, point)


def guidance(sup, point, t):
    """(v as a list, |psi|) from `term_sum` with `bohmian`'s one-point formula."""
    c = sup.system.constants
    psi, grad, _ = term_sum(sup, _inside(sup, point), float(t))
    amp = abs(psi)
    rho2 = amp * amp
    if rho2 == 0.0:  # exact node: the array formula's nan
        with np.errstate(invalid="ignore", divide="ignore"):
            return (qm.phase_gradient(psi, np.asarray(grad), c.hbar) / c.mass).tolist(), amp
    return [c.hbar * (psi.conjugate() * g).imag / rho2 / c.mass for g in grad], amp


def amplitude(sup, point, t):
    return abs(term_sum(sup, _inside(sup, point), float(t))[0])


def jacobian(sup, point, t):
    """(v, dv/dx rows) from `point_hessian`, at one point or at M points of D arrays:
    v = (hbar/m) Im a, dv_i/dx_j = (hbar/m) Im(H_ij / psi - a_i a_j), a = grad psi / psi."""
    c = sup.system.constants
    psi, grad, hess = point_hessian(sup, _inside(sup, point), t if np.ndim(t) else float(t))
    q = c.hbar / c.mass
    inv = 1.0 / psi
    a = [g * inv for g in grad]
    jac = [[q * (hij * inv - ai * aj).imag for hij, aj in zip(row, a)] for row, ai in zip(hess, a)]
    return [q * ai.imag for ai in a], jac


# quantum: eigenfunctions one mode at a time

def _box_axis(n: int, L: float, x: np.ndarray):
    """(value, d/dx, d2/dx2) of the 1D box mode sqrt(2/L) sin(n pi x / L)."""
    kn = n * math.pi / L
    a = math.sqrt(2.0 / L)
    s, c = np.sin(kn * x), np.cos(kn * x)
    return a * s, a * kn * c, -a * kn**2 * s


def _hermite_pair(n: int, xi: np.ndarray):
    """Orthonormal Hermite functions (h_n, h_{n-1}) by stable upward recurrence.

    Normalized against the plain Hermite polynomials, which overflow beyond
    n about 150; the recurrence keeps every intermediate at unit scale.
    """
    h_prev = np.zeros_like(xi)
    h = math.pi ** (-0.25) * np.exp(-0.5 * xi**2)
    for k in range(n):
        h, h_prev = math.sqrt(2.0 / (k + 1)) * xi * h - math.sqrt(k / (k + 1.0)) * h_prev, h
    return h, h_prev


def _harmonic_axis(n: int, omega: float, constants: SystemConstants, x: np.ndarray):
    """(value, d/dx, d2/dx2) of the 1D oscillator mode n at frequency omega."""
    s = math.sqrt(constants.mass * omega / constants.hbar)
    xi = s * np.asarray(x, dtype=float)
    hn, hprev = _hermite_pair(n, xi)
    sqrt_s = math.sqrt(s)
    value = sqrt_s * hn
    grad = s * sqrt_s * (math.sqrt(2.0 * n) * hprev - xi * hn)
    lap = s**2 * (xi**2 - (2 * n + 1)) * value
    return value, grad, lap


def eigenfunction(system: SolvableSystem, state: EigenstateRef, x):
    """Closed-form eigenfunction value, gradient and laplacian at x.

    Raises DomainError when any point lies outside a box domain.  Values are
    complex for free-particle plane waves, real otherwise.
    """
    x = np.asarray(x, dtype=float)
    d, n = system.dimension, state.quantum_numbers
    if system.kind == "free":  # plane wave exp(i k . x)
        k = np.asarray(n, dtype=float)
        value = np.exp(1j * (k[0] * x if d == 1 else x @ k))
        grad = 1j * k[0] * value if d == 1 else 1j * k * value[..., None]
        return value, grad, -float(k @ k) * value
    coords = [x] if d == 1 else [x[..., 0], x[..., 1]]
    _check_box(system, x)
    if system.kind == "box":
        parts = list(map(_box_axis, n, system.lengths, coords))
    else:
        parts = [_harmonic_axis(ni, w, system.constants, xi)
                 for ni, w, xi in zip(n, system.omegas, coords)]
    if d == 1:
        return parts[0]
    (vx, gx, lx), (vy, gy, ly) = parts
    return vx * vy, np.stack([gx * vy, vx * gy], axis=-1), lx * vy + vx * ly


# bohmian: the velocity through the polar fields, and the current

def velocity_field(sup: Superposition, x, t: float):
    """Bohmian velocity v = grad(sigma)/m at one point.

    Raises NodeSingularityError within the node guard band.  Returns a float
    for 1D systems and a length-2 array for 2D systems.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    sample = qm.wavefield_sample(sup, xa[0] if sup.system.dimension == 1 else xa, t)
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
    psi, grad, _ = qm.evaluate_wavefunction(sup, x, t)
    j = hbar * np.imag(np.conjugate(psi) * np.atleast_1d(grad)) / m
    return float(j[0]) if sup.system.dimension == 1 else j


# classical: the diamagnetic flow in physical coordinates

def physical_to_regularized(rho: float, z: float, p_rho: float, p_z: float) -> np.ndarray:
    """Inverse map for a scaled physical point with rho >= 0 (mu, nu >= 0 branch)."""
    if rho < 0:
        raise DomainError("physical rho must be non-negative; use the mirror image")
    r = math.hypot(rho, z)
    mu = math.sqrt(max(r + z, 0.0))
    nu = math.sqrt(max(r - z, 0.0))
    p_mu = nu * p_rho + mu * p_z
    p_nu = mu * p_rho - nu * p_z
    return np.array([mu, nu, p_mu, p_nu])


def physical_hamiltonian(q, p, field_strength: float):
    """Unscaled H = p^2/2 - 1/r + B^2 rho^2 / 8 in cylindrical (rho, z)."""
    rho, z = q[..., 0], q[..., 1]
    r = np.hypot(rho, z)
    return 0.5 * np.sum(p * p, axis=-1) - 1.0 / r + field_strength**2 * rho * rho / 8.0


def integrate_diamagnetic_physical(system: DiamagneticSystem, initial: PhaseState,
                                   duration: float, tol: float = 1e-10) -> Trajectory:
    """Integrate the physical-representation system in physical coordinates.

    Valid away from the nucleus (no regularization); mainly used to verify
    the scaling invariance against the regularized integration.
    """
    if not system.is_physical:
        raise DomainError("physical integration needs the (E, B) representation")
    b = system.field_strength

    def rhs(t, y):
        rho, z, prho, pz = y
        r3 = (rho * rho + z * z) ** 1.5
        return (prho, pz, -rho / r3 - b * b * rho / 4.0, -z / r3)

    res = solve_ivp(rhs, (initial.t, initial.t + duration), initial.as_array(), rtol=tol,
                    atol=tol, dense_output=True)
    inv = physical_hamiltonian(res.y[:2].T, res.y[2:].T, b)
    return Trajectory(system, res.t, res.y.T, inv, _dense=res.sol)


def scaling_map(q, p, t, field_strength: float):
    """Map unscaled (q, p, t) to scaled coordinates: the B**(2/3), B**(-1/3), B rule."""
    b = field_strength
    return np.asarray(q) * b ** (2.0 / 3.0), np.asarray(p) * b ** (-1.0 / 3.0), np.asarray(t) * b


# spectra: the level density by Monte Carlo, and the exact levels

def mean_level_density_mc(system: SolvableSystem, energy: float, n_samples: int = 10**6,
                          seed: int = 0) -> float:
    """Monte Carlo estimate of `spectra.mean_level_density` from the shell volume.

    Uniform samples in a phase-space bounding box; the density is the shell
    count within |H - E| < shell_width / 2, shell_width = SHELL_FRACTION E,
    divided by the shell width and
    (2 pi hbar)^D.  Independent of the analytic formulas it checks.
    """
    hbar, m = system.constants.hbar, system.constants.mass
    d = system.dimension
    if energy <= 0.0:
        return 0.0
    shell_width = SHELL_FRACTION * energy
    e_top = energy + shell_width
    p_max = math.sqrt(2.0 * m * e_top)
    if system.kind == "harmonic":
        q_lims = [math.sqrt(2.0 * e_top / (m * w * w)) for w in system.omegas]
        q_lo = np.array([-q for q in q_lims])
        q_hi = np.array(q_lims)
    elif system.kind == "box":
        q_lo = np.zeros(d)
        q_hi = np.array(system.lengths)
    else:
        raise DomainError("mean level density needs a bound solvable system")
    rng = np.random.default_rng(seed)
    q = rng.uniform(q_lo, q_hi, size=(n_samples, d))
    p = rng.uniform(-p_max, p_max, size=(n_samples, d))
    h = np.sum(p * p, axis=1) / (2.0 * m) + system.potential(q if d == 2 else q[:, 0])
    count = int(np.sum(np.abs(h - energy) < 0.5 * shell_width))
    box_volume = float(np.prod(q_hi - q_lo)) * (2.0 * p_max) ** d
    return count / n_samples * box_volume / (shell_width * (2.0 * math.pi * hbar) ** d)


def exact_levels(system: SolvableSystem, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of a bound solvable system, sorted."""
    hbar, m = system.constants.hbar, system.constants.mass
    if system.kind == "harmonic":
        if system.dimension == 1:
            w = system.omegas[0]
            return hbar * w * (np.arange(count) + 0.5)
        wx, wy = system.omegas
        # per-axis indices up to `count` are guaranteed to cover the bottom
        nx = np.arange(count + 1)
        levels = (hbar * wx * (nx[:, None] + 0.5) + hbar * wy * (nx[None, :] + 0.5)).ravel()
        return np.sort(levels)[:count]
    if system.kind == "box":
        if system.dimension == 1:
            n = np.arange(1, count + 1)
            return (hbar * math.pi * n) ** 2 / (2.0 * m * system.lengths[0] ** 2)
        lx, ly = system.lengths
        nx = np.arange(1, count + 2)
        levels = ((hbar * math.pi) ** 2 / (2.0 * m)
                  * ((nx[:, None] / lx) ** 2 + (nx[None, :] / ly) ** 2)).ravel()
        return np.sort(levels)[:count]
    raise DomainError("exact levels need a bound solvable system")


def smoothed_exact_density(levels, energies, gamma: float) -> np.ndarray:
    """The delta-comb spectrum under the same Gaussian smoothing as the trace sum."""
    levels = np.asarray(levels, dtype=float)
    energies = np.asarray(energies, dtype=float)
    z = (energies[:, None] - levels[None, :]) / gamma
    return np.sum(np.exp(-0.5 * z * z), axis=1) / (gamma * math.sqrt(2.0 * math.pi))


# semiclassical: the Hamilton-Jacobi residual, the exact propagator and Green function

def hamilton_jacobi_residual(action, x: float, t: float, system: SolvableSystem) -> float:
    """|dR/dt + (dR/dx)^2 / 2m + V| for a scalar action model R(x, t).

    Partial derivatives are central differences of step HJ_STEP, so any
    twice differentiable callable works, analytic or tabulated.
    """
    m, h = system.constants.mass, HJ_STEP
    r_t = (action(x, t + h) - action(x, t - h)) / (2.0 * h)
    r_x = (action(x + h, t) - action(x - h, t)) / (2.0 * h)
    v = float(system.potential(np.asarray(x)))
    return abs(r_t + r_x**2 / (2.0 * m) + v)


def exact_propagator_1d(system: SolvableSystem, x1: float, x2: float, dt: float) -> complex:
    """Closed-form quantum propagator for the free particle and the oscillator.

    The oscillator form carries the standard caustic phase, -pi/2 per
    half period crossed.
    """
    hbar, m = system.constants.hbar, system.constants.mass
    if system.kind == "free":
        pref = cmath.sqrt(m / (2.0j * math.pi * hbar * dt))
        return pref * cmath.exp(1j * m * (x2 - x1) ** 2 / (2.0 * hbar * dt))
    if system.kind == "harmonic":
        w = system.omegas[0]
        s = math.sin(w * dt)
        if abs(s) < 1e-12:
            raise DomainError("propagator singular at a caustic time")
        n_caustic = int(math.floor(w * dt / math.pi))
        pref = cmath.sqrt(m * w / (2.0j * math.pi * hbar * abs(s)))
        phase = (m * w / (2.0 * hbar * s)) * ((x1**2 + x2**2) * math.cos(w * dt) - 2.0 * x1 * x2)
        return pref * cmath.exp(1j * phase - 1j * n_caustic * math.pi / 2.0)
    raise DomainError("no closed-form propagator for this system")


def exact_green_1d(system: SolvableSystem, x1: float, x2: float, energy) -> complex:
    """Oracle Green function.

    Free particle: the retarded closed form -i m e^{i k |dx|} / (hbar^2 k).
    Box: the eigenfunction expansion sum phi_n(x1) phi_n(x2) / (E - E_n) over GREEN_STATES modes,
    convergent for complex E and away from eigenvalues on the real axis.
    """
    hbar, m = system.constants.hbar, system.constants.mass
    if system.kind == "free":
        k = cmath.sqrt(2.0 * m * complex(energy)) / hbar
        return -1j * m / (hbar**2 * k) * cmath.exp(1j * k * abs(x2 - x1))
    if system.kind == "box":
        L = system.lengths[0]
        n = np.arange(1, GREEN_STATES + 1)
        en = (hbar * math.pi * n) ** 2 / (2.0 * m * L * L)
        phi1 = math.sqrt(2.0 / L) * np.sin(n * math.pi * x1 / L)
        phi2 = math.sqrt(2.0 / L) * np.sin(n * math.pi * x2 / L)
        return complex(np.sum(phi1 * phi2 / (complex(energy) - en)))
    raise DomainError("no oracle Green function for this system")
