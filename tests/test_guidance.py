"""Properties of the guidance velocity and the batched polar decomposition.

Random box, harmonic and free superpositions in 1D and 2D, with non-unit
hbar and mass among them, evaluated at random points and times.
"""

import cmath
import math

import numpy as np
import pytest
from conftest import newtonian_residual_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotwave import bohmian as bm
from pilotwave import quantum as qm
from pilotwave import systems as sy
from pilotwave.errors import PilotwaveError


@st.composite
def wavefields(draw):
    """(superposition, points of shape (N, D), one time per point)."""
    kind = draw(st.sampled_from(("box", "harmonic", "free")))
    d = draw(st.sampled_from((1, 2)))
    constants = sy.SystemConstants(hbar=draw(st.sampled_from((1.0, 0.7))),
                                   mass=draw(st.sampled_from((1.0, 1.9))), dimension=d)
    axes = (1.0, math.sqrt(2.0))[:d]
    if kind == "box":
        system = sy.SolvableSystem("box", constants, lengths=axes)
        number = st.integers(1, 6)
        lo, hi = 0.05 * np.array(axes), 0.95 * np.array(axes)
    elif kind == "harmonic":
        system = sy.harmonic(*axes, constants=constants)
        number = st.integers(0, 6)
        lo, hi = np.full(d, -2.0), np.full(d, 2.0)
    else:
        system = sy.free_particle(constants)
        number = st.floats(-3.0, 3.0)
        lo, hi = np.full(d, -3.0), np.full(d, 3.0)
    terms = draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2.0 * math.pi),
                                    st.tuples(*[number] * d)), min_size=1, max_size=4))
    sup = qm.Superposition.of(system, [(r * cmath.exp(1j * phi), n) for r, phi, n in terms])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_points = draw(st.integers(1, 8))
    return sup, rng.uniform(lo, hi, (n_points, d)), rng.uniform(0.0, 3.0, n_points)


def _point(sup, x):
    return x[0] if sup.system.dimension == 1 else x


def _term_sizes(sup, x):
    """sum_n |c_n f_n(x)| for f = phi, grad phi, lap phi.

    Batched and one-point sums of the terms round differently, by a few
    ulps of these sizes, and near a node psi is much smaller than they are.
    """
    parts = [qm.eigenfunction(sup.system, st, x) for _, st in sup.terms]
    return [sum(abs(c) * np.max(np.abs(p[i])) for (c, _), p in zip(sup.terms, parts))
            for i in range(3)]


def _field_tolerances(sup, x, rho):
    """1e-12 of the term sizes, carried through rho, v = grad sigma / m and Q."""
    c = sup.system.constants
    a, g, lap = _term_sizes(sup, x)
    return (1e-12 * a, 1e-12 * c.hbar / c.mass * a * g / rho**2,
            1e-12 * c.hbar**2 / c.mass * a * (lap / rho**2 + g**2 / rho**3))


@settings(max_examples=150, deadline=None)
@given(case=wavefields())
def test_current_is_rho_squared_velocity(case):
    """j = rho^2 v, with j from probability_current, which has its own formula."""
    sup, x, t = case
    c = sup.system.constants
    v, amp = bm._guidance(sup, x, t)
    for i in range(t.size):
        j = np.atleast_1d(bm.probability_current(sup, _point(sup, x[i]), t[i]))
        a, g, _ = _term_sizes(sup, _point(sup, x[i]))
        assert np.max(np.abs(amp[i] ** 2 * v[i] - j)) <= 1e-12 * c.hbar / c.mass * a * g


@settings(max_examples=150, deadline=None)
@given(case=wavefields())
def test_time_array_matches_per_point_calls(case):
    sup, x, t = case
    batch = qm.evaluate_wavefunction(sup, x[:, 0] if sup.system.dimension == 1 else x, t)
    for i in range(t.size):
        single = qm.evaluate_wavefunction(sup, _point(sup, x[i]), t[i])
        for b, s, size in zip(batch, single, _term_sizes(sup, _point(sup, x[i]))):
            np.testing.assert_allclose(b[i], s, rtol=0, atol=1e-12 * size)


@settings(max_examples=100, deadline=None)
@given(case=wavefields())
def test_trajectory_columns_match_wavefield_sample(case):
    """The batched v, Q and rho columns equal the one-point API, sample by sample."""
    sup, x, t = case
    traj = bm.integrate_bohmian(sup, x[0], (t[0], t[0] + 0.2), tol=1e-6)
    positions = traj.positions.reshape(traj.times.size, -1)
    velocities = traj.velocities.reshape(positions.shape)
    for k in range(traj.times.size):
        s = qm.wavefield_sample(sup, _point(sup, positions[k]), traj.times[k])
        rho_tol, v_tol, q_tol = _field_tolerances(sup, _point(sup, positions[k]), s.rho)
        assert abs(traj.rho[k] - s.rho) <= rho_tol
        assert np.max(np.abs(velocities[k] - s.grad_sigma / sup.system.constants.mass)) <= v_tol
        assert abs(traj.Q[k] - s.Q) <= q_tol


@settings(max_examples=15, deadline=None)
@given(case=wavefields())
def test_newtonian_residual_matches_per_sample_loop(case):
    sup, x, t = case
    traj = bm.integrate_bohmian(sup, x[0], (t[0], t[0] + 0.3), tol=1e-6)
    try:
        expected = newtonian_residual_loop(traj, sup, n_samples=101)
    except PilotwaveError as exc:  # a stencil point left the box or met a node
        with pytest.raises(type(exc)):
            bm.newtonian_residual(traj, sup, n_samples=101)
        return
    got = bm.newtonian_residual(traj, sup, n_samples=101)
    # grad Q differences Q over the 2e-5 stencil width
    positions = traj.positions.reshape(traj.times.size, -1)
    q_tol = max(_field_tolerances(sup, _point(sup, p), float(r))[2]
                for p, r in zip(positions, traj.rho))
    assert abs(got - expected) <= q_tol / 2e-5
