import math

import numpy as np
import pytest

from pilotwave import quantum as qm
from pilotwave import systems as sy


@pytest.fixture(scope="session")
def box1d():
    return sy.box_1d(1.0)


@pytest.fixture(scope="session")
def box2d():
    return sy.box_2d(1.0, math.sqrt(2.0))


@pytest.fixture(scope="session")
def ho1d():
    return sy.harmonic(1.0)


@pytest.fixture(scope="session")
def ho2d_iso():
    return sy.harmonic(1.0, 1.0)


@pytest.fixture(scope="session")
def ho2d_aniso():
    return sy.harmonic(1.0, math.sqrt(2.0))


@pytest.fixture(scope="session")
def two_mode_box(box1d):
    """Two lowest box modes; no interior node forms (|c2/c1| < 1/2)."""
    return qm.Superposition.of(box1d, [(1.0, 1), (0.4, 2)])


@pytest.fixture(scope="session")
def two_mode_box_complex(box1d):
    return qm.Superposition.of(box1d, [(1.0, 1), (0.8j, 2)])


@pytest.fixture(scope="session")
def vortex_plus(ho2d_iso):
    """Angular-momentum-like (x + iy) Gaussian: one vortex of winding +1."""
    return qm.Superposition.of(ho2d_iso, [(1.0 / math.sqrt(2), (1, 0)),
                                          (1j / math.sqrt(2), (0, 1))])


@pytest.fixture(scope="session")
def vortex_pair(ho2d_iso):
    """(x + iy)^2 + b Gaussian: two same-sign vortices at radius sqrt(b 2^0.5).

    The quartet of coefficients makes psi proportional to
    e^{-r^2/2} [(x+iy)^2 / sqrt(2) + 0.7], so at t = 0 the nodes sit on the
    y axis at radius sqrt(0.7 sqrt(2)) and rotate rigidly afterwards.
    """
    return qm.Superposition.of(ho2d_iso, [(0.5, (2, 0)), (-0.5, (0, 2)),
                                          (1j / math.sqrt(2), (1, 1)), (0.7, (0, 0))])


VORTEX_PAIR_RADIUS = math.sqrt(0.7 * math.sqrt(2.0))


@pytest.fixture(scope="session")
def chaotic_aniso_state(ho2d_aniso):
    """Multi-mode incommensurate-frequency state with chaotic guidance flow."""
    return qm.Superposition.of(ho2d_aniso, [(1.0, (0, 0)), (0.9, (2, 0)),
                                            (0.8j, (1, 1)), (0.7, (0, 2))])


def ngon(centre, radius, n=12):
    th = np.linspace(0.0, 2.0 * math.pi, n + 1)[:-1]
    return np.stack([centre[0] + radius * np.cos(th),
                     centre[1] + radius * np.sin(th)], axis=-1)


def newtonian_residual_loop(traj, sup, n_samples=2001, grad_step=1e-5):
    """Reference Newtonian-form residual: one wavefield_sample per stencil point.

    Same five-point acceleration as bohmian.newtonian_residual; grad Q is a
    central difference of wavefield_sample(...).Q taken sample by sample.
    """
    system = sup.system
    d = system.dimension
    m = system.constants.mass
    tt = np.linspace(traj.times[0], traj.times[-1], n_samples)
    dt = tt[1] - tt[0]
    xx = traj.at(tt)
    xx2 = xx[:, None] if d == 1 else xx
    acc = (
        -xx2[:-4] + 16.0 * xx2[1:-3] - 30.0 * xx2[2:-2] + 16.0 * xx2[3:-1] - xx2[4:]
    ) / (12.0 * dt**2)
    worst = 0.0
    for i in range(2, n_samples - 2):
        x, t = xx2[i], tt[i]
        gv = np.atleast_1d(system.potential_gradient(x if d == 2 else x[0]))
        gq = np.empty(d)
        for k in range(d):
            xp, xm = x.copy(), x.copy()
            xp[k] += grad_step
            xm[k] -= grad_step
            qp = qm.wavefield_sample(sup, xp[0] if d == 1 else xp, t).Q
            qn = qm.wavefield_sample(sup, xm[0] if d == 1 else xm, t).Q
            gq[k] = (qp - qn) / (2.0 * grad_step)
        worst = max(worst, float(np.max(np.abs(m * acc[i - 2] + (gv + gq)))))
    return worst
