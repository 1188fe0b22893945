"""Quantum-equilibrium ensembles: sampling, transport and histogram checks.

Positions are drawn from rho^2 by seeded rejection sampling, transported
along the guidance flow, and compared against rho^2 at the target time with
an L1 histogram distance; this is the testable content of the continuity
equation (equivariance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .bohmian import _guidance, _node_threshold, integrate_bohmian
from .csvio import write_csv
from .errors import DomainError, IntegrationError, PilotwaveError
from .quantum import Superposition, _batched, _psi_grid, effective_domain

__all__ = [
    "Ensemble",
    "sample_quantum_equilibrium",
    "EnsembleEvolution",
    "evolve_ensemble",
    "bin_probabilities",
    "ensemble_histogram",
    "equivariance_l1",
]

ENVELOPE_GRID = 256
ENVELOPE_MARGIN = 1.1
QUAD_ORDER = 12  # Gauss-Legendre points per bin and axis of `bin_probabilities`


@dataclass(frozen=True)
class Ensemble:
    """Positions of N particles at a common time, reproducible from the seed."""

    seed: int
    positions: np.ndarray  # (N,) in 1D, (N, 2) in 2D
    t: float

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    def to_csv(self, path) -> None:
        cols = np.atleast_2d(self.positions.T)
        write_csv(path, ["member_id"] + [f"x{i+1}" for i in range(len(cols))],
                  [np.arange(self.size), *cols])


def _density_batch(sup: Superposition, pts: np.ndarray, t: float) -> np.ndarray:
    return np.abs(_batched(sup, pts, t, 0)) ** 2


def sample_quantum_equilibrium(sup: Superposition, t: float, n: int, seed: int) -> Ensemble:
    """Draw n positions from rho^2(., t) by rejection sampling.

    The envelope is a constant 1.1 x (grid max of rho^2) over the effective
    domain on a 256-per-dimension grid; draws are bit-reproducible for a
    fixed seed.
    """
    if n < 0:
        raise DomainError("ensemble size must be non-negative")
    d = sup.system.dimension
    lo, hi = effective_domain(sup)
    if n == 0:
        empty = np.empty((0,)) if d == 1 else np.empty((0, 2))
        return Ensemble(seed, empty, t)

    axes = [np.linspace(lo[i], hi[i], ENVELOPE_GRID) for i in range(d)]
    if d == 1:
        grid_pts = axes[0]
    else:
        X, Y = np.meshgrid(*axes, indexing="ij")
        grid_pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    envelope = ENVELOPE_MARGIN * float(np.max(_density_batch(sup, grid_pts, t)))

    rng = np.random.default_rng(seed)
    out = []
    remaining = n
    while remaining > 0:
        batch = max(1024, 2 * remaining)
        pts = rng.uniform(lo, hi, size=(batch, d))
        u = rng.uniform(0.0, envelope, size=batch)
        dens = _density_batch(sup, pts if d == 2 else pts[:, 0], t)
        accepted = pts[u < dens]
        take = accepted[: min(remaining, accepted.shape[0])]
        out.append(take)
        remaining -= take.shape[0]
    positions = np.concatenate(out, axis=0)
    return Ensemble(seed, positions if d == 2 else positions[:, 0], t)


@dataclass
class EnsembleEvolution:
    """Result of transporting an ensemble: new ensemble plus failure reports."""

    ensemble: Ensemble
    node_reports: list = field(default_factory=list)


def _per_member(positions: np.ndarray, sup: Superposition, t0: float, t1: float, tol: float):
    """Each member in its own adaptive integration; failures are reported, not fatal."""
    out = np.empty_like(positions)
    reports = []
    for i in range(positions.shape[0]):
        try:
            traj = integrate_bohmian(sup, np.atleast_1d(positions[i]), (t0, t1), tol=tol)
            out[i] = traj.positions[-1]
            reports += [{"member_id": i, **enc} for enc in traj.node_encounters]
        except PilotwaveError as exc:
            out[i] = positions[i]
            reports.append({"member_id": i, "t": t0, "error": str(exc)})
    return out, reports


def _stacked(positions: np.ndarray, sup: Superposition, t0: float, t1: float, tol: float):
    """All members in one integration with shared step control.

    Only the state at t1 is kept, not one per step.  Every right-hand-side
    call writes |psi| into one buffer; v is new each call, since the solver
    keeps the last one it was handed.  Members within 10^3 node thresholds
    are reported at their first such evaluation and get zero velocity while
    they stay there.
    """
    n, d = positions.shape[0], sup.system.dimension
    floor = _node_threshold(sup) * 1e3
    flagged: dict[int, dict] = {}
    amp = np.empty(n)

    def rhs(t, y):
        pts = y.reshape(n, d)
        v, _ = _guidance(sup, pts, t, amp)
        bad = amp < floor
        if bad.any():
            for idx in np.nonzero(bad)[0]:
                flagged.setdefault(int(idx), {"member_id": int(idx), "t": float(t),
                                              "x": pts[idx].tolist(), "rho": float(amp[idx])})
            v[bad] = 0.0
        return v.reshape(-1)

    res = solve_ivp(rhs, (t0, t1), positions.reshape(-1), method="RK45", rtol=tol, atol=tol,
                    t_eval=[t1])
    if res.status < 0:
        raise IntegrationError(res.message)
    out = res.y[:, -1].reshape(positions.shape)
    return out, [flagged[k] for k in sorted(flagged)]


def evolve_ensemble(ensemble: Ensemble, sup: Superposition, t1: float,
                    tol: float = 1e-6) -> EnsembleEvolution:
    """Advance every member along the guidance flow to time t1.

    Up to 256 members, each position advances with its own adaptive
    integration and node-encounter reports are collected.  Above that, all
    members advance jointly with shared step control, which evaluates the
    wavefield in batch and is orders of magnitude faster at ensemble scale;
    no intermediate states are stored.  Member order is preserved either way.
    """
    if ensemble.size == 0 or t1 == ensemble.t:
        return EnsembleEvolution(Ensemble(ensemble.seed, ensemble.positions.copy(), t1))
    transport = _stacked if ensemble.size > 256 else _per_member
    out, reports = transport(ensemble.positions, sup, ensemble.t, t1, tol)
    return EnsembleEvolution(Ensemble(ensemble.seed, out, t1), reports)


def bin_probabilities(sup: Superposition, t: float, bins: int = 50) -> np.ndarray:
    """Exact rho^2 probability content of a uniform bin grid over the domain.

    Gauss-Legendre quadrature per bin; returns shape (bins,) in 1D and
    (bins, bins) in 2D.
    """
    lo, hi = effective_domain(sup)
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    axes = []  # (half bin width, quadrature points) per axis
    for l, h in zip(lo, hi):
        edges = np.linspace(l, h, bins + 1)
        half = 0.5 * (edges[1] - edges[0])
        axes.append((half, (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()))
    if len(axes) == 1:
        (half, pts), = axes
        return half * _density_batch(sup, pts, t).reshape(bins, QUAD_ORDER) @ weights
    (hx, gx), (hy, gy) = axes
    dens = (np.abs(_psi_grid(sup, gx, gy, t)) ** 2).reshape(bins, QUAD_ORDER, bins, QUAD_ORDER)
    return hx * hy * np.einsum("aibj,ij->ab", dens, np.outer(weights, weights))


def ensemble_histogram(ensemble: Ensemble, sup: Superposition, bins: int = 50) -> np.ndarray:
    """Fraction of members per bin on the same grid as `bin_probabilities`."""
    lo, hi = effective_domain(sup)
    d = sup.system.dimension
    if ensemble.size == 0:
        raise DomainError("empty ensemble has no histogram")
    if d == 1:
        counts, _ = np.histogram(ensemble.positions, bins=bins, range=(lo[0], hi[0]))
    else:
        counts, _, _ = np.histogram2d(
            ensemble.positions[:, 0], ensemble.positions[:, 1],
            bins=bins, range=[(lo[0], hi[0]), (lo[1], hi[1])],
        )
    return counts / ensemble.size


def equivariance_l1(ensemble: Ensemble, sup: Superposition, bins: int = 50) -> float:
    """L1 distance between the member histogram and the exact rho^2 content."""
    f = ensemble_histogram(ensemble, sup, bins)
    p = bin_probabilities(sup, ensemble.t, bins)
    return float(np.sum(np.abs(f - p)))
