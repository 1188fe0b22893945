"""Stationary-phase propagators: van Vleck, Green.

The time-domain propagator sums the classical paths from x1 to x2 in a fixed
time, weighted by the square root of the path density 1/|dx2/dp0| and
dephased by pi/2 per conjugate point.  The energy-domain Green function sums
constant-energy paths, the images of x2 (method of images), with amplitude
1/sqrt(|v1 v2|), a pi phase per hard wall bounce and pi/2 per smooth turning
point.  Both are exact for quadratic actions, which the tests exploit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .classical import _solvable_rhs, _stiffness
from .errors import DomainError, TurningPointError
from .integrate import solve_ivp
from .systems import SolvableSystem

__all__ = [
    "ClassicalAction",
    "PropagatorValue",
    "van_vleck_1d",
    "semiclassical_green_1d",
]

SHOT_TOL = 1e-13  # DOP853 tolerance of each `van_vleck_1d` shot


@dataclass(frozen=True)
class ClassicalAction:
    """One classical path's action data.

    kind is "time" for R(x2, x1; dt) or "energy" for S(x2, x1; E), and value
    is that action (|S| at complex energy); stability holds the weight
    entering the amplitude (-d2R/dx2 dx1 in the time domain, 1/sqrt(v1 v2)
    in the energy domain).
    """

    kind: str
    value: float
    stability: complex
    conjugate_points: int


@dataclass(frozen=True)
class PropagatorValue:
    """Sum over classical paths with the per-path records attached."""

    value: complex
    contributing_paths: int
    paths: tuple = field(default_factory=tuple)

    @property
    def no_path(self) -> bool:
        return self.contributing_paths == 0


def _shoot(system: SolvableSystem, x1: float, p0: float, dt: float, tol: float):
    """Integrate (x, p, J, Jp, R) for time dt; J is the Jacobi field dx/dp0.

    The potential is quadratic, V = k x^2 / 2, so the flow is linear and the
    Jacobi field (J, Jp) obeys Hamilton's equations too; R accumulates the
    Lagrangian p^2/2m - k x^2/2.
    """
    m = system.constants.mass
    k = _stiffness(system)[0]
    flow = _solvable_rhs(system)

    def rhs(t, y):
        x, p = y[0], y[1]
        return (*flow(t, y), *flow(t, y[2:]), p * p / (2.0 * m) - 0.5 * k * x * x)

    return solve_ivp(rhs, (0.0, dt), (x1, p0, 0.0, 1.0, 0.0), rtol=tol, atol=tol,
                     dense_output=True)


def van_vleck_1d(system: SolvableSystem, x1: float, x2: float, dt: float) -> PropagatorValue:
    """Semiclassical time propagator K(x2, x1; dt) for the free particle or the oscillator.

    Their flows are linear, so x(dt) is affine in the launch momentum p0 with
    slope J(dt), the Jacobi field dx/dp0, and exactly one classical path joins
    x1 to x2.  One shot at p0 = 0 gives its momentum, p0 = (x2 - x(dt)) / J(dt);
    a second shot integrates it.  The path contributes
    (2 pi i hbar)^(-1/2) |J(dt)|^(-1/2) exp(i R/hbar - i phi) with phi = pi/2
    per conjugate point.  At a caustic, J(dt) = 0, TurningPointError is raised.
    """
    if dt <= 0:
        raise DomainError("propagation time must be positive")
    if system.dimension != 1 or system.kind == "box":
        raise DomainError("van_vleck_1d covers smooth 1D systems")
    hbar = system.constants.hbar

    caustic = "endpoint is conjugate to x1 (caustic)"
    aim = _shoot(system, x1, 0.0, dt, tol=SHOT_TOL)
    if aim.y[2, -1] == 0.0:
        raise TurningPointError(caustic)
    res = _shoot(system, x1, (x2 - aim.y[0, -1]) / aim.y[2, -1], dt, tol=SHOT_TOL)
    jt = res.y[2, -1]
    if jt == 0.0:
        raise TurningPointError(caustic)
    # conjugate points: interior zeros of the Jacobi field
    ts = np.linspace(0.0, dt, 400)
    jj = res.sol(ts)[2]
    interior = jj[1:-1]
    signs = np.sign(interior[np.abs(interior) > 1e-14])
    n_conj = int(np.sum(signs[:-1] * signs[1:] < 0))
    # the shot ends a little off x2: R(x2) = R(x_end) + p2 (x2 - x_end)
    action = float(res.y[4, -1] - res.y[1, -1] * (res.y[0, -1] - x2))
    amp = abs(1.0 / jt) ** 0.5
    prefactor = 1.0 / cmath.sqrt(2.0j * math.pi * hbar)
    value = prefactor * amp * cmath.exp(1j * (action / hbar - n_conj * math.pi / 2.0))
    return PropagatorValue(value, 1, (ClassicalAction("time", action, 1.0 / jt, n_conj),))


def _image_paths(s1: float, s2: float, width: float, max_reflections: int):
    """Paths from s1 to s2 in (0, width) reflecting at 0 and width: (measures, reflections).

    Unfolded, a path runs straight from s1 to an image of s2 (the method of
    images): the image in (n width, (n + 1) width) is n width + s2 for even n
    and (n + 1) width - s2 for odd n, and the path crosses |n| multiples of
    width, one reflection each.  Every count but 0 has two images, one per
    launch direction.  Sorted by measure |image - s1|, then reflections.
    """
    n = np.arange(-max_reflections, max_reflections + 1)
    measure = np.abs(np.where(n % 2 == 0, n * width + s2, (n + 1) * width - s2) - s1)
    order = np.lexsort((np.abs(n), measure))
    return measure[order], np.abs(n)[order]


def semiclassical_green_1d(system: SolvableSystem, x1: float, x2: float, energy,
                           max_bounces: int = 40) -> PropagatorValue:
    """Energy-domain Green function G(x2, x1; E) as a sum over fixed-E paths.

    The paths are the images of x2 (`_image_paths`), truncated at
    `max_bounces` reflections: straight flights between hard walls for the
    box (pi phase each; the free particle has one path), and for the
    oscillator, in the unfolded action s(x) from the left turning point,
    flights between turning points (pi/2 each).  Each path adds
    weight / (i hbar) exp(i S / hbar - i k phi), with weight m / sqrt(p1 p2).
    Box and free systems accept complex energy (Im E > 0 damps long paths
    so the truncated sum converges to the exact resolvent); the oscillator
    path sum needs real energy.
    """
    if system.dimension != 1:
        raise DomainError("semiclassical_green_1d is one dimensional")
    if x1 == x2:
        raise DomainError("coincident endpoints are outside the stationary-phase form")
    if max_bounces < 0:
        raise DomainError(f"max_bounces must be at least 0, got {max_bounces}")
    hbar, m = system.constants.hbar, system.constants.mass

    if system.kind in ("free", "box"):
        width, reflections = 1.0, 0  # free flight: one path, no wall, so any width
        if system.kind == "box":
            width, reflections = system.lengths[0], max_bounces
            if not (0.0 < x1 < width and 0.0 < x2 < width):
                raise DomainError("endpoints must be inside the box")
        p = cmath.sqrt(2.0 * m * complex(energy))
        if p == 0:
            raise TurningPointError("zero velocity at the endpoints")
        s1, s2, scale, weight, phi = x1, x2, p, m / p, math.pi
    elif system.kind == "harmonic":
        energy = np.real_if_close(energy)
        if np.iscomplexobj(energy):
            raise DomainError("the oscillator path sum needs real energy")
        energy = float(energy)
        if energy <= 0:
            return PropagatorValue(0.0, 0)
        w = system.omegas[0]
        amp = math.sqrt(2.0 * energy / (m * w * w))
        if abs(x1) >= amp or abs(x2) >= amp:
            raise TurningPointError("endpoint at or beyond a turning point")
        p1, p2 = (m * w * math.sqrt((amp - abs(x)) * (amp + abs(x))) for x in (x1, x2))
        # s(x), the integral of p from the left turning point -amp to x; s(amp) = pi E / w
        s1, s2 = (0.5 * x * p + energy / w * math.acos(-x / amp)
                  for x, p in ((x1, p1), (x2, p2)))
        width, reflections = math.pi * energy / w, max_bounces
        scale, weight, phi = 1.0, m / math.sqrt(p1 * p2), math.pi / 2.0
    else:
        raise DomainError(f"unsupported system kind {system.kind!r}")
    measure, k = _image_paths(s1, s2, width, reflections)
    action = scale * measure
    terms = weight / (1j * hbar) * np.exp(1j * (action / hbar - phi * k))
    records = tuple(ClassicalAction("energy", abs(s), weight, n)
                    for s, n in zip(action.tolist(), k.tolist()))
    return PropagatorValue(complex(terms.sum()), len(records), records)
