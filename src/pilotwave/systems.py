"""System descriptions shared by the classical, quantum and semiclassical modules.

All systems live in atomic-style units: the caller chooses ``hbar`` and
``mass`` once via :class:`SystemConstants` and every downstream quantity is
expressed in the induced units.  Solvable systems carry closed-form spectra;
the diamagnetic Kepler system is purely classical here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "SystemConstants",
    "PhaseState",
    "SolvableSystem",
    "free_particle",
    "box_1d",
    "box_2d",
    "harmonic",
    "DiamagneticSystem",
    "system_from_dict",
]


@dataclass(frozen=True)
class SystemConstants:
    """Physical constants of a model: hbar, particle mass and dimension."""

    hbar: float = 1.0
    mass: float = 1.0
    dimension: int = 1

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise DomainError(f"hbar must be positive and finite, got {self.hbar}")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if self.dimension not in (1, 2):
            raise DomainError(f"dimension must be 1 or 2, got {self.dimension}")


@dataclass(frozen=True)
class PhaseState:
    """A classical phase-space point: position, momentum and time."""

    q: tuple[float, ...]
    p: tuple[float, ...]
    t: float = 0.0

    def __post_init__(self):
        q = tuple(float(v) for v in self.q)
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if len(q) != len(p):
            raise DomainError("q and p must have equal length")
        if not all(math.isfinite(v) for v in q + p + (self.t,)):
            raise DomainError("non-finite phase-state component")

    @property
    def dimension(self) -> int:
        return len(self.q)

    def as_array(self) -> np.ndarray:
        """Flat (q, p) vector, time excluded."""
        return np.array(self.q + self.p, dtype=float)


@dataclass(frozen=True)
class SolvableSystem:
    """A system with closed-form eigenfunctions and classical flow.

    kind
        ``"free"``, ``"box"`` or ``"harmonic"``.
    lengths
        Box side lengths (box only), one per dimension; domain is
        ``[0, L_i]`` along each axis.
    omegas
        Angular frequencies (harmonic only), one per dimension.
    """

    kind: str
    constants: SystemConstants = field(default_factory=SystemConstants)
    lengths: tuple[float, ...] = ()
    omegas: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("free", "box", "harmonic"):
            raise DomainError(f"unknown solvable system kind {self.kind!r}")
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "omegas", tuple(float(v) for v in self.omegas))
        d = self.constants.dimension
        if self.kind == "box":
            if len(self.lengths) != d:
                raise DomainError(f"box needs {d} side length(s)")
            if any(L <= 0 for L in self.lengths):
                raise DomainError("box lengths must be positive")
        if self.kind == "harmonic":
            if len(self.omegas) != d:
                raise DomainError(f"harmonic needs {d} frequency(ies)")
            if any(w <= 0 for w in self.omegas):
                raise DomainError("frequencies must be positive")

    @property
    def dimension(self) -> int:
        return self.constants.dimension

    def potential(self, x: np.ndarray) -> np.ndarray:
        """V(x); x has shape (..., D) for 2D systems, (...) for 1D."""
        x = np.asarray(x, dtype=float)
        if self.kind == "harmonic":
            m = self.constants.mass
            if self.dimension == 1:
                return 0.5 * m * self.omegas[0] ** 2 * x**2
            w = np.asarray(self.omegas)
            return 0.5 * m * np.sum((w * x) ** 2, axis=-1)
        # free particle and box interior are potential-free
        shape = x.shape[:-1] if self.dimension == 2 else x.shape
        return np.zeros(shape)

    def potential_gradient(self, x: np.ndarray) -> np.ndarray:
        """dV/dx; same shape conventions as `potential` with a trailing D axis."""
        x = np.asarray(x, dtype=float)
        if self.kind == "harmonic":
            m = self.constants.mass
            if self.dimension == 1:
                return m * self.omegas[0] ** 2 * x
            w2 = np.asarray(self.omegas) ** 2
            return m * w2 * x
        return np.zeros_like(x)

    def in_domain(self, x) -> bool:
        """True when x lies in the (closed) configuration domain."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind != "box":
            return bool(np.all(np.isfinite(x)))
        return bool(np.all((x >= 0.0) & (x <= np.asarray(self.lengths))))


def free_particle(constants: SystemConstants | None = None) -> SolvableSystem:
    return SolvableSystem("free", constants or SystemConstants())


def box_1d(L: float, constants: SystemConstants | None = None) -> SolvableSystem:
    c = constants or SystemConstants(dimension=1)
    return SolvableSystem("box", c, lengths=(L,))


def box_2d(Lx: float, Ly: float, constants: SystemConstants | None = None) -> SolvableSystem:
    c = constants or SystemConstants(dimension=2)
    return SolvableSystem("box", c, lengths=(Lx, Ly))


def harmonic(*omegas: float, constants: SystemConstants | None = None) -> SolvableSystem:
    c = constants or SystemConstants(dimension=len(omegas))
    return SolvableSystem("harmonic", c, omegas=tuple(omegas))


@dataclass(frozen=True)
class DiamagneticSystem:
    """Hydrogenic electron in a uniform magnetic field along z (m=0 subspace).

    The classical dynamics depends on energy E and field strength B only
    through the scaled energy ``epsilon = E * B**(-2/3)``.  A system built
    from `scaled` stores epsilon alone; `from_physical` keeps (E, B) and the
    exact scaling relation as an invariant.
    """

    epsilon: float
    energy: float | None = None
    field_strength: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise DomainError("epsilon must be finite")
        if (self.energy is None) != (self.field_strength is None):
            raise DomainError("physical representation needs both energy and field_strength")
        if self.field_strength is not None:
            if self.field_strength <= 0:
                raise DomainError("field strength must be positive")
            eps = self.energy * self.field_strength ** (-2.0 / 3.0)
            if eps != self.epsilon:
                raise DomainError(
                    f"inconsistent scaled energy: stored {self.epsilon}, implied {eps}"
                )

    @classmethod
    def scaled(cls, epsilon: float) -> "DiamagneticSystem":
        return cls(epsilon=float(epsilon))

    @classmethod
    def from_physical(cls, energy: float, field_strength: float) -> "DiamagneticSystem":
        b = float(field_strength)
        if b <= 0:
            raise DomainError("field strength must be positive")
        return cls(epsilon=float(energy) * b ** (-2.0 / 3.0), energy=float(energy), field_strength=b)

    @property
    def is_physical(self) -> bool:
        return self.field_strength is not None


def system_from_dict(spec: dict) -> SolvableSystem | DiamagneticSystem:
    """A system from a well-formed spec-file block (`config` checks one).

    A diamagnetic block gives epsilon, or energy and field_strength;
    omitted constants take the `SystemConstants` defaults.
    """
    if spec["kind"] != "diamagnetic":
        constants = SystemConstants(spec.get("hbar", 1.0), spec.get("mass", 1.0),
                                    spec.get("dimension", 1))
        return SolvableSystem(spec["kind"], constants, tuple(spec.get("lengths", ())),
                              tuple(spec.get("omegas", ())))
    if spec.get("epsilon") is not None:
        return DiamagneticSystem.scaled(spec["epsilon"])
    if spec.get("energy") is not None and spec.get("field_strength") is not None:
        return DiamagneticSystem.from_physical(spec["energy"], spec["field_strength"])
    raise DomainError("diamagnetic needs epsilon or (energy, field_strength)")
