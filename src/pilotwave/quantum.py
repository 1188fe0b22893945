"""Analytic eigenbases, superpositions and pointwise wavefield evaluation.

Shape conventions: for 1D systems positions are scalars or arrays of shape
(N,) and gradients/laplacians match that shape; for 2D systems positions have
a trailing axis of length 2, psi/laplacian drop it and gradients keep it.
Eigenfunctions are evaluated in closed form together with their first and
second derivatives, so no numerical differentiation enters any downstream
quantity.

`evaluate_wavefunction` reads every term from one mode ladder per box or
oscillator axis, up to that axis's highest quantum number: one exp and one
Hermite recurrence, or one sin/cos pair and angle addition for n theta.
One point at one time, the case of every guidance-law step, runs the
ladders in Python scalars (`_term_sum`, which the guidance flow calls for
just what it reads), where numpy's per-call overhead would cost more than
the arithmetic.  Arrays run in blocks of `CHUNK` points, each a real
(terms, points) table per quantity times the real and imaginary parts of
the weights c_k exp(-i E_k t / hbar).  Both agree with the per-term
`eigenfunction` to 1e-12 of the term sizes sum |c_n f_n(x)|, except that
near its zeros (a wall, an interior node) a box mode is known only to a few
ulps of its largest value on every path, as each rounds the sine's argument.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, NodeSingularityError
from .systems import SolvableSystem, SystemConstants, _number, system_from_dict

__all__ = [
    "EigenstateRef",
    "eigenstate",
    "eigenfunction",
    "Superposition",
    "evaluate_wavefunction",
    "WavefieldSample",
    "phase_gradient",
    "polar_fields",
    "wavefield_sample",
    "amplitude_scale",
    "effective_domain",
    "find_nodes",
    "norm_quadrature",
    "continuous_phase",
    "superposition_from_dict",
    "superposition_to_dict",
    "load_superposition",
    "NODE_THRESHOLD_FACTOR",
]

# amplitude below NODE_THRESHOLD_FACTOR * amplitude_scale(sup) counts as node proximity
NODE_THRESHOLD_FACTOR = 1e-10


@dataclass(frozen=True)
class EigenstateRef:
    """Reference to one analytic eigenstate: quantum numbers, energy, parity.

    For box and harmonic systems the quantum numbers are integers and the
    energy is the closed-form eigenvalue.  Free-particle "states" are plane
    waves labelled by real wavenumbers; they are not normalizable and carry
    no parity tag.
    """

    quantum_numbers: tuple
    energy: float
    parity: tuple | None = None


def _box_energy(system: SolvableSystem, n: tuple[int, ...]) -> float:
    hbar, m = system.constants.hbar, system.constants.mass
    return sum(
        (hbar * math.pi * ni) ** 2 / (2.0 * m * Li**2) for ni, Li in zip(n, system.lengths)
    )


def _harmonic_energy(system: SolvableSystem, n: tuple[int, ...]) -> float:
    hbar = system.constants.hbar
    return sum(hbar * wi * (ni + 0.5) for ni, wi in zip(n, system.omegas))


def eigenstate(system: SolvableSystem, *quantum_numbers) -> EigenstateRef:
    """Build an EigenstateRef with the closed-form energy of `system`.

    Box quantum numbers start at 1, harmonic at 0.  For the free particle the
    arguments are wavenumbers (floats), one per dimension.
    """
    d = system.dimension
    if len(quantum_numbers) != d:
        raise DomainError(f"expected {d} quantum number(s), got {len(quantum_numbers)}")
    if system.kind == "box":
        n = tuple(int(v) for v in quantum_numbers)
        if any(ni < 1 for ni in n):
            raise DomainError("box quantum numbers start at 1")
        parity = tuple((-1) ** (ni + 1) for ni in n)  # about the box centre
        return EigenstateRef(n, _box_energy(system, n), parity)
    if system.kind == "harmonic":
        n = tuple(int(v) for v in quantum_numbers)
        if any(ni < 0 for ni in n):
            raise DomainError("harmonic quantum numbers start at 0")
        parity = tuple((-1) ** ni for ni in n)
        return EigenstateRef(n, _harmonic_energy(system, n), parity)
    k = tuple(float(v) for v in quantum_numbers)
    hbar, m = system.constants.hbar, system.constants.mass
    energy = (hbar**2) * sum(ki**2 for ki in k) / (2.0 * m)
    return EigenstateRef(k, energy, None)


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


def _box_ladder(axis, x, lib, order=2):
    """(value, d/dx, d2/dx2) of the box modes n = 0..n_max at a float or an array.

    Derivatives above `order` are left None.  sin and cos of n theta come
    from one sin/cos pair by angle addition; index 0 is a placeholder, box
    modes start at 1.
    """
    L, k1, a, rungs = axis
    if lib.any((x < 0) | (x > L)):
        raise DomainError("position outside box domain")
    theta = k1 * x
    s, c = s1, c1 = lib.sincos(theta)
    modes = [(0.0, 0.0, 0.0)]
    for a_kn, a_kn2 in rungs:
        if len(modes) > 1:  # n = 1 is the pair itself
            s, c = s * c1 + c * s1, c * c1 - s * s1
        modes.append((a * s, a_kn * c if order else None, a_kn2 * s if order > 1 else None))
    return modes


def _box_ladder_plan(n_max: int, L: float):
    a = math.sqrt(2.0 / L)
    kn = [n * math.pi / L for n in range(1, n_max + 1)]
    return _box_ladder, (L, math.pi / L, a, tuple((a * k, -a * k**2) for k in kn))


def _harmonic_ladder(axis, x, lib, order=2):
    """(value, d/dx, d2/dx2) of the oscillator modes n = 0..n_max at a float or an array.

    Derivatives above `order` are left None.  One run of the `_hermite_pair`
    recurrence, with its rounding, serves every n.
    """
    s, sqrt_s, s_sqrt_s, s2, h0, rungs = axis
    xi = s * x
    xi2 = xi * xi
    h_prev, h = 0.0, h0 * lib.exp(-0.5 * xi2)
    modes = []
    for sqrt_2n, up, down, two_n1 in rungs:
        value = sqrt_s * h
        modes.append((value, s_sqrt_s * (sqrt_2n * h_prev - xi * h) if order else None,
                      s2 * (xi2 - two_n1) * value if order > 1 else None))
        h, h_prev = up * xi * h - down * h_prev, h
    return modes


def _harmonic_ladder_plan(n_max: int, s: float):
    rungs = tuple((math.sqrt(2.0 * n), math.sqrt(2.0 / (n + 1)), math.sqrt(n / (n + 1.0)),
                   2 * n + 1) for n in range(n_max + 1))
    return _harmonic_ladder, (s, math.sqrt(s), s * math.sqrt(s), s**2, math.pi ** (-0.25), rungs)


# the second axis of a 1D state in `_term_sum`: value 1, derivatives 0, whatever the point
_UNIT_AXIS = (lambda axis, x, lib, order: ((1.0, 0.0, 0.0),), None)


def _half_angle(theta):
    """(sin, cos) of theta in [0, pi] from t = tan(theta / 2): within an ulp of np.sin
    and np.cos there, and about a quarter of their time (measured with numpy 2.4)."""
    t = np.tan(0.5 * theta)
    t2 = t * t
    d = 1.0 + t2
    return 2.0 * t / d, (1.0 - t2) / d


# what the ladders and `_term_sum` call: Python scalars at one point, numpy for arrays
_SCALAR = SimpleNamespace(sincos=lambda x: (math.sin(x), math.cos(x)), exp=math.exp,
                          cexp=cmath.exp, any=bool)
_ARRAY = SimpleNamespace(sincos=_half_angle, exp=np.exp, cexp=np.exp, any=np.any)


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
    if system.kind == "box":
        if np.any((x < 0) | (x > np.asarray(system.lengths))):
            raise DomainError("position outside box domain")
        parts = list(map(_box_axis, n, system.lengths, coords))
    else:
        parts = [_harmonic_axis(ni, w, system.constants, xi)
                 for ni, w, xi in zip(n, system.omegas, coords)]
    if d == 1:
        return parts[0]
    (vx, gx, lx), (vy, gy, ly) = parts
    return vx * vy, np.stack([gx * vy, vx * gy], axis=-1), lx * vy + vx * ly


@dataclass(frozen=True)
class Superposition:
    """Finite superposition over one analytic eigenbasis; the pilot wave.

    Coefficients are renormalized on construction so that sum |c_n|^2 = 1.
    Terms with duplicate quantum numbers are not merged; supply unique states.
    """

    system: SolvableSystem
    terms: tuple[tuple[complex, EigenstateRef], ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("superposition needs at least one term")
        terms = tuple((complex(c), st) for c, st in self.terms)
        norm = math.sqrt(sum(abs(c) ** 2 for c, _ in terms))
        if norm == 0.0:
            raise DomainError("all coefficients vanish")
        object.__setattr__(self, "terms", tuple((c / norm, st) for c, st in terms))

    @classmethod
    def of(cls, system: SolvableSystem, spec) -> "Superposition":
        """Build from (coefficient, quantum numbers) pairs.

        spec is an iterable of (c, n) with n an int, a tuple, or an
        EigenstateRef.
        """
        terms = []
        for c, n in spec:
            if isinstance(n, EigenstateRef):
                terms.append((c, n))
            else:
                nn = n if isinstance(n, (tuple, list)) else (n,)
                terms.append((c, eigenstate(system, *nn)))
        return cls(system, tuple(terms))

    @property
    def energies(self) -> np.ndarray:
        return np.array([st.energy for _, st in self.terms])

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms])

    @cached_property
    def _plan(self):
        """(axes, terms) of `evaluate_wavefunction`.

        axes holds one (ladder, constants) per box or oscillator axis, with
        the per-n constants up to the highest quantum number on that axis
        (free states have none); terms holds (c, E, quantum numbers).  A 1D
        box or oscillator state gets a second axis, `_UNIT_AXIS` at n = 0, for
        `_term_sum`; the array path reads only the axes its points have.
        """
        system = self.system
        terms = tuple((c, st.energy, st.quantum_numbers) for c, st in self.terms)
        if system.kind == "free":
            return (), terms
        n_max = [max(n[i] for _, _, n in terms) for i in range(system.dimension)]
        if system.kind == "box":
            axes = tuple(map(_box_ladder_plan, n_max, system.lengths))
        else:
            c = system.constants
            scales = [math.sqrt(c.mass * w / c.hbar) for w in system.omegas]
            axes = tuple(map(_harmonic_ladder_plan, n_max, scales))
        if system.dimension == 1:
            return axes + (_UNIT_AXIS,), tuple((c, e, n + (0,)) for c, e, n in terms)
        return axes, terms


def evaluate_wavefunction(sup: Superposition, x, t):
    """psi, grad psi and laplacian psi of the exact time-evolved superposition.

    t is one time, or an array that broadcasts over the points (one time each).
    One finite point at one time (x a float or 0-d in 1D, two floats or
    shape (2,) in 2D) is summed in Python scalars; a Python float, or a
    list of two, at a Python-float time goes there without numpy.  Arrays
    go through `_fill_block`, `CHUNK` points at a time.
    """
    d = sup.system.dimension
    if type(t) is float and (type(x) is float if d == 1 else
                             type(x) is list and len(x) == 2 and type(x[0]) is type(x[1]) is float):
        point = [x] if d == 1 else x
    else:
        x = np.asarray(x, dtype=float)
        if np.ndim(t) or x.shape != ((2,) if d == 2 else ()):
            return _batched(sup, x, t)
        point, t = (x.tolist() if d == 2 else [float(x)]), float(t)
    if math.isfinite(t) and all(map(math.isfinite, point)):
        psi, gx, gy, hxx, _, hyy = _term_sum(sup, point, t, 2)
        return (psi, gx, hxx) if d == 1 else (psi, np.array([gx, gy]), hxx + hyy)
    return _batched(sup, np.asarray(point[0] if d == 1 else point, dtype=float), t)


def _term_sum(sup: Superposition, point, t, order: int, lib=_SCALAR):
    """(psi, d_x psi, d_y psi, d_xx psi, d_xy psi, d_yy psi), zero above derivative `order`.

    At one point of D Python floats at a Python-float time, or with
    lib=_ARRAY at M points of D arrays (t one time or one per point): one
    pass over the terms adds w_k = c_k exp(-i E_k t / hbar) times each part
    of a term into its own accumulator.  A 1D state's y entries are zeros
    (`_UNIT_AXIS`: factors 1.0 and 0.0, which change none of its sums).
    """
    axes, terms = sup._plan
    hbar = sup.system.constants.hbar
    cexp = lib.cexp
    # -0j adds exactly, 0.0 turns an exact -0.0 to +0.0: each order keeps its callers' zeros
    psi = gx = gy = hxx = hxy = hyy = 0.0 if order > 1 else -0j
    if not axes:  # free: plane waves exp(i k . x), parts v, i k_i v and -k_i k_j v
        for c, energy, n in terms:
            w = c * cexp(-1j * (energy * t / hbar))
            v = cexp(1j * sum(ki * xi for ki, xi in zip(n, point)))
            kx, ky = n if len(n) == 2 else (n[0], 0.0)
            psi += w * v
            if order:
                gx, gy = gx + w * (1j * kx * v), gy + w * (1j * ky * v)
            if order > 1:
                hxx, hxy = hxx + w * (-kx * kx * v), hxy + w * (-kx * ky * v)
                hyy += w * (-ky * ky * v)
        return psi, gx, gy, hxx, hxy, hyy
    (ladder_x, cx), (ladder_y, cy) = axes
    tx, ty = ladder_x(cx, point[0], lib, order), ladder_y(cy, point[-1], lib, order)
    for c, energy, (i, j) in terms:
        w = c * cexp(-1j * (energy * t / hbar))
        (vx, dx, lx), (vy, dy, ly) = tx[i], ty[j]
        psi += w * (vx * vy)
        if order:
            gx, gy = gx + w * (dx * vy), gy + w * (vx * dy)
        if order > 1:
            hxx, hxy, hyy = hxx + w * (lx * vy), hxy + w * (dx * dy), hyy + w * (vx * ly)
    return psi, gx, gy, hxx, hxy, hyy


def _batched(sup: Superposition, x: np.ndarray, t):
    """`evaluate_wavefunction` on an array of points, `CHUNK` points per `_fill_block`."""
    d = sup.system.dimension
    shape = x.shape[:x.ndim + 1 - d]  # the points: all of x in 1D, all but the last axis in 2D
    n = math.prod(shape)
    psi, grad, lap = _map_chunks(
        partial(_fill_block, sup), x.reshape(n, d),
        np.broadcast_to(t, shape).reshape(n) if np.ndim(t) else t,
        (np.empty(n, dtype=complex), np.empty((n, d), dtype=complex), np.empty(n, dtype=complex)))
    # [()] turns the 0-d results of a single point into numpy scalars
    return psi.reshape(shape)[()], grad.reshape(x.shape)[()], lap.reshape(shape)[()]


def _fill_block(sup: Superposition, x, t, psi, grad, lap):
    """psi, grad psi and lap psi at the rows of x, written into the given rows.

    Each is sum_k w_k f_k, w_k = c_k exp(-i E_k t / hbar), f_k a real row of
    `_term_tables`: at one time one (points, terms) x (terms, 2) product with
    [Re w, Im w] into the real and imaginary parts of the output; with one
    time per point a (terms, points) array of weights, summed term by term.
    """
    per_point = np.ndim(t) > 0
    c = sup.coefficients[:, None] if per_point else sup.coefficients
    w = c * np.exp(-1j * (np.multiply.outer(sup.energies, t) / sup.system.constants.hbar))
    if sup.system.kind == "free":  # a cos row and a sin row per term
        w = np.concatenate([w, 1j * w])
    tables = _term_tables(sup, x)
    if per_point:
        for f, out in zip(tables, [psi, *grad.T, lap]):
            np.sum(w * f, axis=0, out=out)
        return
    w = w.view(float).reshape(-1, 2)
    outs = [psi.view(float).reshape(-1, 2),
            *grad.view(float).reshape(len(x), -1, 2).transpose(1, 0, 2),
            lap.view(float).reshape(-1, 2)]
    for f, out in zip(tables, outs):
        np.matmul(f.T, w, out=out)


def _term_tables(sup: Superposition, x):
    """Real (terms, points) tables of the value, each gradient component and the laplacian.

    Box and oscillator terms read the per-axis ladders; a free plane wave
    exp(i k.x) gives a row cos(k.x) (weight w) and a row sin(k.x) (weight i w).
    """
    axes, terms = sup._plan
    if not axes:
        k = np.array([n for _, _, n in terms])
        phase = k @ x.T
        cos, sin, k2 = np.cos(phase), np.sin(phase), -np.sum(k * k, axis=1)[:, None]
        return [np.concatenate(pair) for pair in
                [(cos, sin), *((-ki[:, None] * sin, ki[:, None] * cos) for ki in k.T),
                 (k2 * cos, k2 * sin)]]
    modes = [ladder(constants, xi, _ARRAY) for (ladder, constants), xi in zip(axes, x.T)]
    per_axis = [[np.array([m[n[i]][q] for _, _, n in terms]) for q in range(3)]
                for i, m in enumerate(modes)]
    if len(per_axis) == 1:
        return per_axis[0]
    (vx, gx, lx), (vy, gy, ly) = per_axis
    return [vx * vy, gx * vy, vx * gy, lx * vy + vx * ly]


# rows per block of a batched evaluation: 64 KiB per complex array, below
# glibc's 128 KiB mmap threshold, so a block's temporaries reuse freed memory
# instead of faulting in fresh pages (8192 rows faulted in 12x the pages on a
# 2D four-term state), and no full-size term table exists
CHUNK = 4096


def _map_chunks(fn, x, t, outs):
    """Fill `outs` block by block of `CHUNK` rows: fn(x[rows], t[rows], *out[rows]).

    x and every output hold one point per row; t is one time or one per
    row.  Returns outs.
    """
    per_row = np.ndim(t) > 0
    for lo in range(0, len(x), CHUNK):
        rows = slice(lo, lo + CHUNK)
        fn(x[rows], t[rows] if per_row else t, *(out[rows] for out in outs))
    return outs


def _psi_grid(sup: Superposition, x, y, t: float):
    """psi of a 2D box or oscillator state on the tensor grid x by y, shape (len(x), len(y)).

    Term k is w_k phi_a(x) phi_b(y), so psi = A^T diag(w) B from the per-axis
    ladder tables: work in terms x (len(x) + len(y)), not terms x len(x) len(y).
    """
    ((ladder_x, cx), (ladder_y, cy)), terms = sup._plan
    tx, ty, hbar = ladder_x(cx, x, _ARRAY), ladder_y(cy, y, _ARRAY), sup.system.constants.hbar
    w = np.array([c * cmath.exp(-1j * (energy * t / hbar)) for c, energy, _ in terms])
    a, b = (np.array([table[n[i]][0] for _, _, n in terms]) for i, table in enumerate((tx, ty)))
    return a.T @ (w[:, None] * b)


@dataclass(frozen=True)
class WavefieldSample:
    """psi and derivatives at one point, with the derived hydrodynamic fields.

    rho is the amplitude |psi|, sigma the phase action (principal branch,
    defined modulo 2 pi hbar), grad_sigma the momentum field and Q the
    quantum potential.  node_flag marks amplitude below the guard threshold;
    at an exact node construction raises NodeSingularityError instead.
    """

    psi: complex
    grad_psi: np.ndarray
    lap_psi: complex
    rho: float
    sigma: float
    grad_sigma: np.ndarray
    Q: float
    node_flag: bool = False


def phase_gradient(psi, grad_psi, hbar: float):
    """grad sigma = hbar Im(psi* grad psi) / |psi|^2, gradients on a trailing axis.

    Any number of points; the guidance velocity is this over the mass.
    On the real and imaginary parts: hbar (Re psi Im grad psi - Im psi Re grad psi)
    / (Re^2 psi + Im^2 psi).
    """
    psi, grad_psi = np.asarray(psi)[..., None], np.asarray(grad_psi)
    re, im = psi.real, psi.imag
    return hbar * (re * grad_psi.imag - im * grad_psi.real) / (re * re + im * im)


def _polar(psi, grad, lap, constants: SystemConstants):
    """(rho, sigma, grad sigma, Q) at any number of points, grad on a trailing axis.

    rho and its derivatives come from differentiating rho^2 = psi psi*
    exactly, never from grid differences, so Q inherits the accuracy of the
    analytic psi derivatives.
    """
    hbar, m = constants.hbar, constants.mass
    rho = np.abs(psi)
    sigma = hbar * np.arctan2(np.imag(psi), np.real(psi))
    conj = np.conjugate(psi)
    grad_rho = np.real(conj[..., None] * grad) / rho[..., None]
    lap_rho = (np.real(conj * lap) + np.sum(np.abs(grad) ** 2, axis=-1)
               - np.sum(grad_rho * grad_rho, axis=-1)) / rho
    Q = -(hbar**2) / (2.0 * m) * lap_rho / rho
    return rho, sigma, phase_gradient(psi, grad, hbar), Q


def polar_fields(raw, constants: SystemConstants, node_scale: float = 1.0,
                 x=None, t: float = 0.0) -> WavefieldSample:
    """Decompose (psi, grad psi, lap psi) at one point into the polar fields.

    `node_scale` sets the amplitude unit for the node guard.
    """
    psi, grad_psi, lap_psi = raw
    psi = complex(psi)
    grad_psi = np.atleast_1d(np.asarray(grad_psi, dtype=complex))
    lap_psi = complex(lap_psi)
    if psi == 0.0:
        raise NodeSingularityError(x, t, 0.0, "exact node: sigma, v and Q undefined")
    rho, sigma, grad_sigma, Q = _polar(np.asarray(psi), grad_psi, np.asarray(lap_psi), constants)
    rho = float(rho)
    if not (np.isfinite(Q) and np.all(np.isfinite(grad_sigma))):
        raise NodeSingularityError(x, t, rho, "polar fields overflow near node")
    return WavefieldSample(psi, grad_psi, lap_psi, rho, float(sigma), grad_sigma, float(Q),
                           rho < NODE_THRESHOLD_FACTOR * node_scale)


def wavefield_sample(sup: Superposition, x, t: float) -> WavefieldSample:
    """Evaluate the superposition at one point and decompose it."""
    raw = evaluate_wavefunction(sup, x, t)
    return polar_fields(raw, sup.system.constants, amplitude_scale(sup), x=x, t=t)


def continuous_phase(sigma_values: np.ndarray, hbar: float) -> np.ndarray:
    """Unwrap a sequence of principal-branch sigma samples along a path.

    Each step chooses the 2 pi hbar branch nearest the previous sample, so
    the returned sequence is continuous while agreeing with the input modulo
    2 pi hbar.
    """
    sigma = np.asarray(sigma_values, dtype=float)
    return np.unwrap(sigma, period=2.0 * math.pi * hbar)


def effective_domain(sup: Superposition):
    """(lo, hi) arrays of a finite box that carries the state.

    Exact for box systems; for harmonic systems the box extends past the
    classical turning point of the most excited term by six ground-state
    widths per axis.  Free superpositions have no finite carrier.
    """
    system = sup.system
    d = system.dimension
    if system.kind == "box":
        return np.zeros(d), np.asarray(system.lengths, dtype=float)
    if system.kind == "harmonic":
        hbar, m = system.constants.hbar, system.constants.mass
        n_max = np.max([st.quantum_numbers for _, st in sup.terms], axis=0)
        lo, hi = np.empty(d), np.empty(d)
        for i, w in enumerate(system.omegas):
            e_axis = hbar * w * (n_max[i] + 0.5)
            turn = math.sqrt(2.0 * e_axis / (m * w**2))
            width = math.sqrt(hbar / (m * w))
            hi[i] = turn + 6.0 * width
            lo[i] = -hi[i]
        return lo, hi
    raise DomainError("free superpositions have no finite effective domain")


def amplitude_scale(sup: Superposition) -> float:
    """Reference amplitude for node-proximity tests.

    Normalization fixes the rms of rho over the effective domain at
    1/sqrt(volume); free states use the plane-wave amplitude 1.
    """
    if sup.system.kind == "free":
        return 1.0
    lo, hi = effective_domain(sup)
    volume = float(np.prod(hi - lo))
    return 1.0 / math.sqrt(volume)


def norm_quadrature(sup: Superposition, t: float = 0.0, order: int = 400) -> float:
    """Gauss-Legendre quadrature of rho^2 over the effective domain."""
    lo, hi = effective_domain(sup)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    d = sup.system.dimension
    axes = [(0.5 * (h - l) * nodes + 0.5 * (h + l), 0.5 * (h - l) * weights)
            for l, h in zip(lo, hi)]
    if d == 1:
        x, w = axes[0]
        psi, _, _ = evaluate_wavefunction(sup, x, t)
        return float(np.sum(w * np.abs(psi) ** 2))
    (x, wx), (y, wy) = axes
    return float(np.sum(np.outer(wx, wy) * np.abs(_psi_grid(sup, x, y, t)) ** 2))


def _refine_node_1d(sup, t, a, b, beta):
    from scipy.optimize import brentq

    def g(x):
        psi, _, _ = evaluate_wavefunction(sup, np.asarray(x), t)
        return float(np.real(psi * np.exp(-1j * beta)))

    return brentq(g, a, b, xtol=1e-14, rtol=8.9e-16)


def _refine_node_2d(sup, t, x0, cell, max_iter=60):
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        psi, grad, _ = evaluate_wavefunction(sup, x, t)
        f = np.array([psi.real, psi.imag])
        jac = np.array([[grad[0].real, grad[1].real], [grad[0].imag, grad[1].imag]])
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return None
        x -= step
        if np.linalg.norm(step) < 1e-13 * max(1.0, np.linalg.norm(x)):
            return x
        if np.linalg.norm(x - x0) > 4.0 * np.max(cell):  # left the starting cell
            return None
    return None


def find_nodes(sup: Superposition, region, t: float, resolution: int = 200) -> np.ndarray:
    """Locate zeros of psi inside `region` = (lo, hi) at time t.

    The grid sign structure of Re psi and Im psi selects candidate cells and
    a local refinement polishes each candidate; spurious candidates are
    rejected by an amplitude check.  Returns an array of node positions,
    shape (N,) in 1D and (N, 2) in 2D; empty when the state has no zero.
    """
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in region)
    d = sup.system.dimension
    scale_tol = 1e-8

    if d == 1:
        x = np.linspace(lo[0], hi[0], resolution + 1)
        psi, _, _ = evaluate_wavefunction(sup, x, t)
        peak = np.max(np.abs(psi))
        if peak == 0.0:
            return np.array([])
        beta = np.angle(psi[np.argmax(np.abs(psi))])
        g = np.real(psi * np.exp(-1j * beta))
        roots = []
        for i in np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]:
            r = _refine_node_1d(sup, t, x[i], x[i + 1], beta)
            pr, _, _ = evaluate_wavefunction(sup, np.asarray(r), t)
            if abs(complex(pr)) < scale_tol * peak:
                roots.append(r)
        return np.array(sorted(roots))

    nx = ny = resolution + 1
    xg = np.linspace(lo[0], hi[0], nx)
    yg = np.linspace(lo[1], hi[1], ny)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    psi, _, _ = evaluate_wavefunction(sup, pts, t)
    peak = np.max(np.abs(psi))
    if peak == 0.0:
        return np.empty((0, 2))

    def _cell_has_flip(fld):
        # zero touches count as flips so nodes on symmetry gridlines are kept
        c = np.stack([fld[:-1, :-1], fld[1:, :-1], fld[:-1, 1:], fld[1:, 1:]])
        return (np.min(c, axis=0) <= 0) & (np.max(c, axis=0) >= 0) & np.any(c != 0, axis=0)

    candidates = _cell_has_flip(psi.real) & _cell_has_flip(psi.imag)
    cell = np.array([xg[1] - xg[0], yg[1] - yg[0]])
    nodes = []
    for i, j in zip(*np.nonzero(candidates)):
        centre = np.array([0.5 * (xg[i] + xg[i + 1]), 0.5 * (yg[j] + yg[j + 1])])
        r = _refine_node_2d(sup, t, centre, cell)
        if r is None:
            continue
        pr, _, _ = evaluate_wavefunction(sup, r, t)
        if abs(complex(pr)) >= scale_tol * peak:
            continue
        if not (np.all(r >= lo - 1e-12) and np.all(r <= hi + 1e-12)):
            continue
        if all(np.linalg.norm(r - q) > 0.5 * np.min(cell) for q in nodes):
            nodes.append(r)
    return np.array(nodes) if nodes else np.empty((0, 2))


def superposition_to_dict(sup: Superposition) -> dict:
    """Serialize to the superposition spec-file schema."""
    system = sup.system
    sys_d: dict = {"kind": system.kind, "hbar": system.constants.hbar,
                   "mass": system.constants.mass, "dimension": system.dimension}
    if system.kind == "box":
        sys_d["lengths"] = list(system.lengths)
    if system.kind == "harmonic":
        sys_d["omegas"] = list(system.omegas)
    terms = [
        {"c_re": c.real, "c_im": c.imag, "n": list(st.quantum_numbers)} for c, st in sup.terms
    ]
    return {"system": sys_d, "terms": terms}


def superposition_from_dict(d: dict) -> Superposition:
    """Load from the spec-file schema; renormalizes, warning when norm is off.

    Unknown keys anywhere in the document are rejected so a typo cannot
    silently change the state.
    """
    for key in d:
        if key not in ("system", "terms"):
            raise DomainError(f"unknown superposition field {key!r}")
    system = system_from_dict(d["system"])
    if not isinstance(system, SolvableSystem):
        raise DomainError("a superposition needs a free, box or harmonic system")
    for t in d["terms"]:
        for key in t:
            if key not in ("c_re", "c_im", "n"):
                raise DomainError(f"unknown term field {key!r}")
    spec = [(complex(_number(t["c_re"], "c_re"), _number(t["c_im"], "c_im")),
             tuple(_number(v, "quantum number", system.kind != "free") for v in t["n"]))
            for t in d["terms"]]
    raw_norm = math.sqrt(sum(c.real ** 2 + c.imag ** 2 for c, _ in spec))
    if abs(raw_norm - 1.0) > 1e-6:
        warnings.warn(f"superposition input norm {raw_norm:.6g} != 1; renormalizing")
    return Superposition.of(system, spec)


def load_superposition(path) -> Superposition:
    with open(path, "r", encoding="utf-8") as fh:
        return superposition_from_dict(json.load(fh))
