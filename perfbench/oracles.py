"""Independent references for the benchmark's output checks.

Everything here is written from the textbook formulas and shares no code
with pilotwave: closed-form wavefields (Hermite functions up to n = 2 and
box sines), the cumulative density of the two-mode box, the two symmetric
closed orbits of the diamagnetic Kepler problem, the Mehler kernel and the
classically accessible region.  Units are hbar = m = 1, as in every
benchmark input.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad

_PI_QUARTER = math.pi ** -0.25
_SQRT2 = math.sqrt(2.0)


def _hermite_axis(n: int, omega: float, x):
    """(value, d/dx) of the normalized oscillator eigenfunction, n <= 2."""
    s = math.sqrt(omega)
    xi = s * np.asarray(x, dtype=float)
    g = math.sqrt(s) * _PI_QUARTER * np.exp(-0.5 * xi * xi)
    if n == 0:
        poly, dpoly = np.ones_like(xi), np.zeros_like(xi)
    elif n == 1:
        poly, dpoly = _SQRT2 * xi, np.full_like(xi, _SQRT2)
    elif n == 2:
        poly, dpoly = (2.0 * xi * xi - 1.0) / _SQRT2, 2.0 * _SQRT2 * xi
    else:
        raise ValueError("the closed forms cover n <= 2")
    return poly * g, s * (dpoly - xi * poly) * g


def _box_axis(n: int, length: float, x):
    """(value, d/dx) of the box mode sqrt(2/L) sin(n pi x / L)."""
    k = n * math.pi / length
    a = math.sqrt(2.0 / length)
    x = np.asarray(x, dtype=float)
    return a * np.sin(k * x), a * k * np.cos(k * x)


class Wavefield:
    """Exact time-dependent superposition over a harmonic or box basis.

    `terms` is a list of (coefficient, quantum numbers); the coefficients
    are normalized here, as the scenario loader does.  Positions have a
    trailing axis of length `dimension`.
    """

    def __init__(self, kind: str, scales, terms):
        if kind not in ("harmonic", "box"):
            raise ValueError(f"unsupported system kind {kind!r}")
        self.kind = kind
        self.scales = tuple(float(v) for v in scales)
        self.dimension = len(self.scales)
        norm = math.sqrt(sum(abs(c) ** 2 for c, _ in terms))
        self.terms = [(complex(c) / norm, tuple(int(v) for v in n)) for c, n in terms]
        self.energies = [self._energy(n) for _, n in self.terms]

    def _energy(self, n) -> float:
        if self.kind == "harmonic":
            return sum(w * (k + 0.5) for k, w in zip(n, self.scales))
        return sum(0.5 * (k * math.pi / L) ** 2 for k, L in zip(n, self.scales))

    def _axis(self, n, scale, x):
        if self.kind == "harmonic":
            return _hermite_axis(n, scale, x)
        return _box_axis(n, scale, x)

    def psi_grad(self, x, t):
        """psi(x, t) and its gradient; x has shape (..., dimension).

        t is a scalar or an array matching x's leading shape.
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        psi = np.zeros(x.shape[:-1], dtype=complex)
        grad = np.zeros(x.shape, dtype=complex)
        for (c, n), energy in zip(self.terms, self.energies):
            w = c * np.exp(-1j * energy * t)
            axes = [self._axis(k, s, x[..., i]) for i, (k, s) in enumerate(zip(n, self.scales))]
            value = np.prod([v for v, _ in axes], axis=0)
            psi += w * value
            for i in range(self.dimension):
                part = axes[i][1]
                for j in range(self.dimension):
                    if j != i:
                        part = part * axes[j][0]
                grad[..., i] += w * part
        return psi, grad

    def velocity(self, x, t) -> np.ndarray:
        """Guidance velocity Im(psi* grad psi) / |psi|^2, same shape as x."""
        psi, grad = self.psi_grad(x, t)
        return np.imag(np.conj(psi)[..., None] * grad) / (np.abs(psi) ** 2)[..., None]

    def amplitude(self, x, t) -> np.ndarray:
        """|psi(x, t)|."""
        return np.abs(self.psi_grad(x, t)[0])


def two_mode_box_cdf(c1: complex, c2: complex, length: float, x, t: float):
    """F_t(x) = integral of |psi|^2 over [0, x] for c1 |1> + c2 |2> in a box.

    Coefficients are normalized here.  The exact Bohmian flow in 1D maps x0
    to the x1 with F_t1(x1) = F_t0(x0), so this is the quantile-map oracle.
    """
    norm = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    c1, c2 = complex(c1) / norm, complex(c2) / norm
    u = math.pi * np.asarray(x, dtype=float) / length
    beat = 1.5 * (math.pi / length) ** 2  # E2 - E1
    cross = 2.0 * (c1.conjugate() * c2 * cmath.exp(-1j * beat * t)).real
    i11 = u / math.pi - np.sin(2.0 * u) / (2.0 * math.pi)
    i22 = u / math.pi - np.sin(4.0 * u) / (4.0 * math.pi)
    i12 = (np.sin(u) - np.sin(3.0 * u) / 3.0) / math.pi
    return abs(c1) ** 2 * i11 + abs(c2) ** 2 * i22 + cross * i12


def multinomial_l1_mean(probabilities, n: int) -> float:
    """Expected L1 distance between N-sample bin fractions and their probabilities.

    Normal approximation to each binomial's mean absolute deviation,
    sqrt(2 p (1 - p) / (pi N)), summed over bins.
    """
    p = np.asarray(probabilities, dtype=float)
    return float(np.sum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * n))))


def axis_orbit(epsilon: float) -> dict:
    """Closed orbit along the field axis (launch angle 0), in closed form.

    On the axis the field term vanishes and the motion is a 1D Kepler
    collision orbit: T = 2 pi / (-2 eps)^(3/2), S = 2 pi / (-2 eps)^(1/2),
    rescaled period tau = pi / (-2 eps)^(1/2).
    """
    a = math.sqrt(-2.0 * epsilon)
    return {"period": 2.0 * math.pi / a**3, "action": 2.0 * math.pi / a,
            "tau_period": math.pi / a}


def perpendicular_orbit(epsilon: float) -> dict:
    """Closed orbit in the z = 0 plane (launch angle pi/4), by 1D quadrature.

    On the invariant line mu = nu = u with p_mu = p_nu = p the regularized
    shell h = 2 reads p^2 = 2 + 2 eps u^2 - u^6 / 4.  One closure goes out
    to the root u_max and back: tau = 2 int du/p, T = 2 int 2u^2 du/p and
    S = 2 int 2p du, all over [0, u_max].
    """
    def g(u):
        return 2.0 + 2.0 * epsilon * u * u - u**6 / 4.0

    # g is decreasing on u > 0 once 2 eps u^2 < 0, so bisect its single root
    lo, hi = 0.0, 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
    u_max = 0.5 * (lo + hi)

    # u = u_max - w^2 removes the inverse-square-root end point of 1/p
    def integral(f):
        def integrand(w):
            u = u_max - w * w
            return f(u) * 2.0 * w / math.sqrt(max(g(u), 1e-300))
        val, _ = quad(integrand, 0.0, math.sqrt(u_max), epsabs=1e-14, epsrel=1e-13, limit=200)
        return val

    return {"tau_period": 2.0 * integral(lambda u: 1.0),
            "period": 2.0 * integral(lambda u: 2.0 * u * u),
            "action": 2.0 * integral(lambda u: 2.0 * g(u))}


def free_kernel(x1: float, x2: float, t: float) -> complex:
    """Free-particle propagator sqrt(1 / (2 pi i t)) exp(i (x2 - x1)^2 / 2t)."""
    return cmath.exp(-0.25j * math.pi) / math.sqrt(2.0 * math.pi * t) \
        * cmath.exp(0.5j * (x2 - x1) ** 2 / t)


def mehler_kernel(omega: float, x1: float, x2: float, t: float) -> complex:
    """Oscillator propagator (Mehler kernel) for 0 < omega t < pi."""
    s = math.sin(omega * t)
    if not 0.0 < omega * t < math.pi:
        raise ValueError("the kernel is written for the first half period")
    phase = omega * ((x1 * x1 + x2 * x2) * math.cos(omega * t) - 2.0 * x1 * x2) / (2.0 * s)
    return cmath.exp(-0.25j * math.pi) * math.sqrt(omega / (2.0 * math.pi * s)) \
        * cmath.exp(1j * phase)


def accessible(epsilon: float, rho, z, margin: float = 0.0) -> np.ndarray:
    """True where -1/r + rho^2/8 <= eps + margin (scaled diamagnetic Kepler)."""
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    r = np.sqrt(rho * rho + z * z)
    with np.errstate(divide="ignore"):
        return -1.0 / r + rho * rho / 8.0 <= epsilon + margin
