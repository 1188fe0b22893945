import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pilotwave import classical as cl
from pilotwave import systems as sy
from pilotwave.errors import DomainError


def test_rest_point_symmetry():
    """mu = nu with zero momentum: velocities vanish, forces mirror."""
    dia = sy.DiamagneticSystem.scaled(-0.4)
    d = cl._flow(np.array([0.8, 0.8, 0.0, 0.0]), dia.epsilon)
    assert d[0] == 0.0 and d[1] == 0.0
    assert math.isclose(d[2], d[3], rel_tol=1e-15)


def test_derivative_matches_hamiltonian_gradient():
    dia = sy.DiamagneticSystem.scaled(-1.0)
    h = 1e-6

    def grad_fd(y):
        g = np.empty(4)
        for i in range(4):
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            g[i] = (cl.regularized_hamiltonian(yp, -1.0)
                    - cl.regularized_hamiltonian(ym, -1.0)) / (2.0 * h)
        return g

    # the axial probe of the docsheet: (1, 0, 0, 0)
    y = np.array([1.0, 0.0, 0.0, 0.0])
    d = cl._flow(y, dia.epsilon)
    g = grad_fd(y)
    assert abs(d[2] + g[0]) < 1e-8

    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.uniform(-1.5, 1.5, 4)
        d = np.array(cl._flow(y, dia.epsilon))
        g = grad_fd(y)
        expected = np.array([g[2], g[3], -g[0], -g[1]])
        assert np.max(np.abs(d - expected)) / np.max(np.abs(expected)) < 1e-8


def test_launch_is_on_shell():
    for th in (0.0, 0.3, math.pi / 4):
        st = cl.launch_from_nucleus(th)
        assert abs(cl.regularized_hamiltonian(st.as_array(), -0.7) - 2.0) < 1e-14


def test_integration_drift_and_region():
    dia = sy.DiamagneticSystem.scaled(-1.0)
    tol = 1e-10
    traj = cl.integrate_classical(dia, cl.launch_from_nucleus(0.7), 80.0, tol=tol)
    assert traj.drift <= tol * 10
    ph = traj.physical_coords()
    inside = cl.in_accessible_region(-1.0, ph[1:, 0], ph[1:, 1])
    assert np.all(inside)


def test_off_shell_rejected():
    dia = sy.DiamagneticSystem.scaled(-1.0)
    with pytest.raises(DomainError):
        cl.integrate_classical(dia, sy.PhaseState((0.0, 0.0), (1.0, 0.0)), 1.0)


def test_harmonic_period_closure(ho1d, ho2d_aniso):
    period = 2.0 * math.pi
    traj = cl.integrate_classical(ho1d, sy.PhaseState((1.3,), (0.2,)), period, tol=1e-11)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-8
    # 2D: each axis closes at its own period; the x axis after 2 pi
    traj2 = cl.integrate_classical(ho2d_aniso, sy.PhaseState((1.0, 0.5), (0.0, 0.3)),
                                   period, tol=1e-11)
    assert abs(traj2.states[-1][0] - traj2.states[0][0]) < 1e-8
    assert abs(traj2.states[-1][2] - traj2.states[0][2]) < 1e-8


def test_box_bounce_conserves_energy(box1d):
    traj = cl.integrate_classical(box1d, sy.PhaseState((0.3,), (1.7,)), 5.0, tol=1e-10)
    assert traj.drift < 1e-8
    assert np.all((traj.states[:, 0] >= -1e-12) & (traj.states[:, 0] <= 1.0 + 1e-12))


def test_accessible_boundary_closed_curve():
    pts = cl.accessible_boundary(-1.0, n=181)
    # on-axis radius is 1/|eps|
    assert abs(pts[0, 1] - 1.0) < 1e-10
    assert abs(pts[-1, 1] + 1.0) < 1e-10
    on_boundary = -1.0 / np.hypot(pts[:, 0], pts[:, 1]) + pts[:, 0] ** 2 / 8.0
    assert np.max(np.abs(on_boundary + 1.0)) < 1e-9
    with pytest.raises(DomainError):
        cl.accessible_boundary(0.1)


@pytest.mark.parametrize("eps", [-3.0, -1.0, -0.5, -0.15, -0.02])
def test_accessible_boundary_radii_match_bracketed_roots(eps):
    """The vectorized Newton radii against a brentq root of -1/r + (r sin a)^2/8 = eps."""
    pts = cl.accessible_boundary(eps)
    alphas = np.linspace(0.0, math.pi, pts.shape[0])
    for a, r in zip(alphas, np.hypot(pts[:, 0], pts[:, 1])):
        s = math.sin(a)

        def f(r):
            return -1.0 / r + (r * s) ** 2 / 8.0 - eps

        r_hi = -1.0 / eps
        while f(r_hi) < 0:
            r_hi *= 2.0
        root = brentq(f, 1e-12, r_hi, xtol=1e-15, rtol=8.9e-16)
        assert abs(r / root - 1.0) <= 1e-14


def test_coverage_fraction_bounds():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.2, 0.2, size=(400, 2))
    frac = cl.coverage_fraction(pts, -1.0, grid=50)
    assert 0.0 < frac < 0.2
    bdry = cl.accessible_boundary(-1.0)
    full = cl.coverage_fraction(bdry, -1.0, grid=10)
    assert frac <= 1.0 and full <= 1.0


def test_lyapunov_zero_for_integrable(ho1d, ho2d_aniso):
    d1 = cl.lyapunov_exponent(ho1d, sy.PhaseState((1.0,), (0.0,)), horizon=200.0, tol=1e-10)
    assert abs(d1.lyapunov_estimate) < 0.01
    d2 = cl.lyapunov_exponent(ho2d_aniso, sy.PhaseState((1.0, 0.4), (0.1, 0.2)),
                              horizon=200.0, tol=1e-10)
    assert abs(d2.lyapunov_estimate) < 0.01
    assert 0.0 <= d2.coverage_fraction <= 1.0


@pytest.mark.parametrize("horizon", [0.0, -1.0])
def test_lyapunov_needs_a_positive_horizon(horizon):
    with pytest.raises(DomainError):
        cl.lyapunov_exponent(sy.DiamagneticSystem.scaled(-1.0), cl.launch_from_nucleus(0.9),
                             horizon)


def test_lyapunov_regime_contrast():
    chaotic = cl.lyapunov_exponent(sy.DiamagneticSystem.scaled(-0.15),
                                   cl.launch_from_nucleus(0.9), horizon=150.0, tol=1e-8)
    regular = cl.lyapunov_exponent(sy.DiamagneticSystem.scaled(-1.0),
                                   cl.launch_from_nucleus(0.9), horizon=150.0, tol=1e-8)
    assert chaotic.lyapunov_estimate > 0.1
    assert regular.lyapunov_estimate < chaotic.lyapunov_estimate / 5.0


def test_coverage_samples_follow_the_classical_orbit():
    """The tangent run samples integrate_classical's orbit, 20 times per unit time.

    Both ends of every unit interval are sampled, and the tangent vector
    stays a unit vector.
    """
    system, initial = sy.DiamagneticSystem.scaled(-1.0), cl.launch_from_nucleus(0.9)
    res = cl._tangent_run(system, initial.as_array(), 4.5, 1e-12)
    grid = np.concatenate([np.linspace(a, min(a + 1.0, 4.5), 20) for a in range(5)])
    np.testing.assert_array_equal(res.t, grid)
    orbit = cl.integrate_classical(system, initial, 4.5, tol=1e-12)
    np.testing.assert_allclose(res.y[:4].T, orbit.at(grid)[:, :4], rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(res.y[4:8], axis=0), 1.0, rtol=0, atol=1e-10)


def test_poincare_rational_ratio_periodic():
    ho = sy.harmonic(1.0, 2.0)
    traj = cl.integrate_classical(ho, sy.PhaseState((1.0, 0.0), (0.0, 1.0)),
                                  40.0 * math.pi, tol=1e-11)
    pts = cl.poincare_section(traj, cl.SectionPlane(index=1, value=0.0, direction=1))
    assert len(pts) >= 10
    # periodic orbit: the crossings collapse onto finitely many points
    distinct = []
    for p in pts:
        if all(np.linalg.norm(p - q) > 1e-6 for q in distinct):
            distinct.append(p)
    assert len(distinct) <= 2


def test_poincare_no_crossings(ho2d_aniso):
    traj = cl.integrate_classical(ho2d_aniso, sy.PhaseState((0.5, 1.0), (0.0, 0.0)),
                                  3.0, tol=1e-10)
    pts = cl.poincare_section(traj, cl.SectionPlane(index=0, value=5.0, direction=1))
    assert pts.shape == (0, 2)


def _section_points(eps, theta, duration, tol=1e-9):
    system = sy.DiamagneticSystem.scaled(eps)
    traj = cl.integrate_classical(system, cl.launch_from_nucleus(theta), duration, tol=tol)
    return cl.poincare_section(traj, cl.SectionPlane(index=1, value=0.0, direction=1))


def _box_dimension(pts, scales=(4, 8, 16)):
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-12)
    logs = []
    for s in scales:
        cells = np.unique((np.clip((pts - lo) / span, 0.0, 0.999999) * s).astype(int), axis=0)
        logs.append((math.log(s), math.log(len(cells))))
    xs, ys = zip(*logs)
    return float(np.polyfit(xs, ys, 1)[0])


def test_section_regular_thin_curves():
    pts = _section_points(-1.0, 0.9, 400.0, tol=1e-10)
    assert len(pts) > 60
    worst = 0.0
    for i in range(len(pts)):
        d = np.linalg.norm(pts - pts[i], axis=1)
        d[i] = np.inf
        j, k = np.argsort(d)[:2]
        t = pts[k] - pts[j]
        nt = np.linalg.norm(t)
        if nt < 1e-12:
            continue
        r = pts[i] - pts[j]
        worst = max(worst, abs(t[0] * r[1] - t[1] * r[0]) / nt)
    assert worst < 5e-3  # threshold derived from the torus-curve geometry
    assert _box_dimension(pts) < 1.3


def test_section_chaotic_fills_area():
    pts = np.concatenate([_section_points(-0.15, th, 2500.0)
                          for th in (0.5, 0.9, 1.2)])
    assert len(pts) > 1500
    dim = _box_dimension(pts)
    assert dim > 1.6  # box-count estimate approaches 2 for an area-filling set


def test_z_reflection_symmetry():
    """z -> -z is the mu <-> nu swap; the reflected launch gives the mirror path."""
    dia = sy.DiamagneticSystem.scaled(-0.5)
    tol = 1e-11
    th = 0.55
    a = cl.integrate_classical(dia, cl.launch_from_nucleus(th), 25.0, tol=tol)
    b = cl.integrate_classical(dia, cl.launch_from_nucleus(math.pi / 2.0 - th), 25.0, tol=tol)
    tt = np.linspace(0.1, 24.9, 60)
    sa = a.at(tt)[:, :4]
    sb = b.at(tt)[:, :4]
    swapped = sb[:, [1, 0, 3, 2]]
    assert np.max(np.abs(sa - swapped)) < 1e-8


@pytest.mark.parametrize("b_field", [0.05, 0.2, 1.3])
def test_scaling_invariance_physical_vs_scaled(b_field):
    """`scaling_map` takes an unscaled run at (E, B) onto the scaled run at eps = E B^(-2/3)."""
    rho_s, z_s = 0.5, 0.3
    p_mag = math.sqrt(2.0 * (-1.0 + 1.0 / math.hypot(rho_s, z_s) - rho_s**2 / 8.0))
    p_vec = p_mag * np.array([0.8, 0.6])
    y0 = oracles.physical_to_regularized(rho_s, z_s, *p_vec)
    traj_s = cl.integrate_classical(sy.DiamagneticSystem.scaled(-1.0),
                                    sy.PhaseState(tuple(y0[:2]), tuple(y0[2:])),
                                    60.0, tol=1e-12)
    # one scaled unit of length, momentum and time, in unscaled units
    q_unit, p_unit, t_unit = (1.0 / u for u in oracles.scaling_map(1.0, 1.0, 1.0, b_field))
    dia_p = sy.DiamagneticSystem.from_physical(-1.0 / q_unit, b_field)
    traj_p = oracles.integrate_diamagnetic_physical(
        dia_p, sy.PhaseState((rho_s * q_unit, z_s * q_unit), tuple(p_vec * p_unit)),
        6.0 * t_unit, tol=1e-12)
    t_unscaled = np.linspace(0.1, 6.0, 40) * t_unit
    states = traj_p.at(t_unscaled)
    q, p, t = oracles.scaling_map(states[:, :2], states[:, 2:], t_unscaled, b_field)
    from_scaled = cl.regularized_to_physical(traj_s.at(traj_s.tau_at_physical_time(t))[:, :4])
    assert np.max(np.linalg.norm(from_scaled[:, :2] - q, axis=1)) < 1e-6
    assert np.max(np.linalg.norm(from_scaled[:, 2:] - p, axis=1)) < 1e-6


def test_trajectory_csv_headers(tmp_path, ho1d):
    dia = sy.DiamagneticSystem.scaled(-1.0)
    traj = cl.integrate_classical(dia, cl.launch_from_nucleus(0.4), 5.0, tol=1e-10)
    path = tmp_path / "dia.csv"
    traj.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,q1,q2,p1,p2,invariant_drift"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(data[:, 5] <= 1e-9)
    traj2 = cl.integrate_classical(ho1d, sy.PhaseState((1.0,), (0.0,)), 1.0, tol=1e-10)
    path2 = tmp_path / "ho.csv"
    traj2.to_csv(path2)
    assert path2.read_text().splitlines()[0] == "t,q1,q2,p1,p2,invariant_drift"


def _folded_line(q0, v, lengths, t):
    """Reference box motion: the straight line q0 + v t, mirrored at every multiple of L."""
    q = np.mod(np.asarray(q0) + np.outer(t, v), 2.0 * lengths)
    back = q > lengths
    return np.where(back, 2.0 * lengths - q, q), np.where(back, -v, v)


def test_dense_lookup_across_bounces(box1d, box2d):
    """A box run is one free flight folded into the box, read through one dense output."""
    for system, q0, p0 in ((box1d, (0.3,), (1.7,)), (box2d, (0.3, 0.8), (-1.1, 0.6))):
        d, m = system.dimension, system.constants.mass
        traj = cl.integrate_classical(system, sy.PhaseState(q0, p0), 5.0, tol=1e-10)
        np.testing.assert_array_equal(traj.at(traj.times), traj.states)
        lengths, v = np.array(system.lengths), np.array(p0) / m
        bounces = []  # (axis, time) of each wall hit
        for i, (q, vi, length) in enumerate(zip(q0, v, lengths)):
            first = (length - q) / vi if vi > 0 else q / -vi
            bounces += [(i, t) for t in np.arange(first, 5.0, length / abs(vi))]
        assert len(bounces) >= 8
        rng = np.random.default_rng(3)
        t_random = rng.uniform(0.0, 5.0, 200)
        tt = rng.permutation(np.concatenate([t_random, [t for _, t in bounces]]))
        batch = traj.at(tt)
        np.testing.assert_array_equal(batch, np.concatenate([traj.at(t) for t in tt]))
        q_ref, v_ref = _folded_line(q0, v, lengths, tt)
        np.testing.assert_allclose(batch[:, :d], q_ref, rtol=0, atol=1e-12)
        random = np.isin(tt, t_random)
        np.testing.assert_allclose(batch[random, d:], m * v_ref[random], rtol=0, atol=1e-12)
        for i, t in bounces:
            assert np.min(np.abs(traj.times - t)) <= 1e-12  # every wall hit is a sample
            before, after = traj.at([t - 1e-6, t + 1e-6])[:, d + i]
            assert before == -after != 0.0
        for t in (-5e-13, 5.0 + 5e-13):
            traj.at(t)
        for t in (-1e-9, 5.0 + 1e-9):
            with pytest.raises(DomainError):
                traj.at(t)


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("value", [0.03, 0.5, 0.97])
@pytest.mark.parametrize("direction", [1, -1])
def test_box_section_matches_closed_form(box2d, index, value, direction):
    """Every crossing of a box section, also those a wall bounce hides between two steps."""
    q0, v = np.array([0.3, 0.8]), np.array([-1.1, 0.6])
    traj = cl.integrate_classical(box2d, sy.PhaseState(q0, v), 20.0, tol=1e-10)
    pts = cl.poincare_section(traj, cl.SectionPlane(index, value, direction))
    # the unfolded line meets q = value at 2 j L + value (momentum sign v) and
    # at 2 j L - value (momentum sign -v); keep those moving along `direction`
    lengths = np.array(box2d.lengths)
    length, vi = lengths[index], v[index]
    lo, hi = sorted((q0[index], q0[index] + 20.0 * vi))
    j = np.arange(math.floor(lo / (2.0 * length)) - 1, math.ceil(hi / (2.0 * length)) + 2)
    x = np.concatenate([2.0 * j * length + value, 2.0 * j * length - value])
    moving = np.concatenate([np.full(j.size, np.sign(vi)), np.full(j.size, -np.sign(vi))])
    keep = (x > lo) & (x < hi) & (moving == direction)
    t = np.sort((x[keep] - q0[index]) / vi)
    assert t.size >= 3
    q_ref, v_ref = _folded_line(q0, v, lengths, t)
    other = 1 - index
    np.testing.assert_allclose(pts, np.column_stack([q_ref[:, other], v_ref[:, other]]),
                               rtol=0, atol=1e-10)


def _brentq_section(trajectory, section):
    """Reference section: each crossing refined by its own brentq on the dense output."""
    states, times = trajectory.states, trajectory.times
    i, other = section.index, 1 - section.index
    g = states[:, i] - section.value
    pts = []
    for k in range(len(times) - 1):
        if g[k] == 0.0 and states[k, 2 + i] * section.direction > 0:
            pts.append((states[k, other], states[k, 2 + other]))
        elif g[k] * g[k + 1] < 0:
            t_star = brentq(lambda t: trajectory.at(t)[0, i] - section.value,
                            times[k], times[k + 1], xtol=1e-13)
            st = trajectory.at(t_star)[0]
            if st[2 + i] * section.direction > 0:
                pts.append((st[other], st[2 + other]))
    return np.array(pts) if pts else np.empty((0, 2))


@pytest.mark.parametrize("run", ["regular", "chaotic", "backward", "box-backward"])
def test_section_matches_brentq_reference(run, box2d):
    """One vectorized solve over all crossings finds what the per-crossing brentq finds."""
    if run == "box-backward":
        traj = cl.integrate_classical(box2d, sy.PhaseState((0.3, 0.8), (-1.1, 0.6)), -400.0,
                                      tol=1e-10)
        planes = [cl.SectionPlane(0, 0.4, 1), cl.SectionPlane(1, 0.7, -1)]
    else:
        eps, theta, duration = {"regular": (-1.0, 0.9, 400.0), "chaotic": (-0.15, 0.5, 400.0),
                                "backward": (-0.15, 0.7, -60.0)}[run]
        traj = cl.integrate_classical(sy.DiamagneticSystem.scaled(eps),
                                      cl.launch_from_nucleus(theta), duration, tol=1e-10)
        planes = [cl.SectionPlane(1, 0.0, 1), cl.SectionPlane(0, 0.0, -1)]
        assert traj.states[0, 1] == 0.0  # the launch sample lies on the plane nu = 0
    for plane in planes:
        pts = cl.poincare_section(traj, plane)
        ref = _brentq_section(traj, plane)
        assert len(ref) >= 10
        assert pts.shape == ref.shape
        np.testing.assert_allclose(pts, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("plane", [dict(index=2), dict(index=-1), dict(index=0, direction=0)])
def test_section_plane_rejects_bad_planes(plane):
    with pytest.raises(DomainError):
        cl.SectionPlane(**plane)


def test_tau_at_physical_time_inverts_the_channel():
    traj = cl.integrate_classical(sy.DiamagneticSystem.scaled(-0.15),
                                  cl.launch_from_nucleus(0.5), 400.0, tol=1e-10)
    t_phys = np.random.default_rng(5).uniform(0.0, traj.physical_time[-1], 300)
    taus = traj.tau_at_physical_time(t_phys)
    assert np.all(np.diff(taus[np.argsort(t_phys)]) > 0)
    np.testing.assert_allclose(traj.at(taus)[:, 4], t_phys, rtol=1e-14, atol=0)
    # each sample's own physical time maps to its own rescaled time
    np.testing.assert_array_equal(traj.tau_at_physical_time(traj.physical_time), traj.times)
    for bad in (-3.0, traj.physical_time[-1] + 1.0, math.nan):  # nan: no bracket converges
        with pytest.raises(DomainError):
            traj.tau_at_physical_time([1.0, bad])


def test_tau_at_physical_time_on_a_backward_run():
    """A backward run's channel falls from 0; the lookup applies its sign."""
    traj = cl.integrate_classical(sy.DiamagneticSystem.scaled(-1.0),
                                  cl.launch_from_nucleus(0.6), -20.0, tol=1e-10)
    t_phys = np.random.default_rng(5).uniform(traj.physical_time[-1], 0.0, 100)
    t_phys[0] = -1.0
    taus = traj.tau_at_physical_time(t_phys)
    assert np.all(np.diff(taus[np.argsort(t_phys)]) > 0)
    np.testing.assert_allclose(traj.at(taus)[:, 4], t_phys, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(traj.tau_at_physical_time(traj.physical_time), traj.times)
    for bad in (1.0, traj.physical_time[-1] - 1.0, math.nan):
        with pytest.raises(DomainError):
            traj.tau_at_physical_time([-1.0, bad])


_coord = st.floats(-2.0, 2.0, allow_nan=False)
_state = st.tuples(_coord, _coord, _coord, _coord).map(np.array)
_eps = st.floats(-1.0, -0.1)


@settings(max_examples=200, deadline=None)
@given(y=_state, eps=_eps)
def test_flow_jacobian_matches_central_differences(y, eps):
    h = 1e-6
    fd = np.empty((4, 4))
    for j in range(4):
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        fd[:, j] = (np.array(cl._flow(yp, eps)) - np.array(cl._flow(ym, eps))) / (2.0 * h)
    jac = np.array([cl._tangent(y, eps, e) for e in np.eye(4)]).T  # columns J e_j
    assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))


@settings(max_examples=200, deadline=None)
@given(y=_state, eps=_eps)
def test_flow_z_reflection_symmetry(y, eps):
    """mu <-> nu (with p_mu <-> p_nu) is z -> -z and maps the flow onto itself."""
    swap = [1, 0, 3, 2]
    f = np.array(cl._flow(y, eps))
    np.testing.assert_array_equal(np.array(cl._flow(y[swap], eps)), f[swap])
