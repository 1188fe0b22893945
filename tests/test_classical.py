import math

import numpy as np
import pytest
from conftest import scan_segments
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from pilotwave import classical as cl
from pilotwave import systems as sy
from pilotwave.errors import DomainError, IntegrationError


def test_rest_point_symmetry():
    """mu = nu with zero momentum: velocities vanish, forces mirror."""
    dia = sy.DiamagneticSystem.scaled(-0.4)
    d = cl.regularized_derivative(dia, sy.PhaseState((0.8, 0.8), (0.0, 0.0)))
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
    d = cl.regularized_derivative(dia, y)
    g = grad_fd(y)
    assert abs(d[2] + g[0]) < 1e-8

    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.uniform(-1.5, 1.5, 4)
        d = cl.regularized_derivative(dia, y)
        g = grad_fd(y)
        expected = np.array([g[2], g[3], -g[0], -g[1]])
        assert np.max(np.abs(d - expected)) / np.max(np.abs(expected)) < 1e-8


def test_derivative_rejects_bad_state():
    dia = sy.DiamagneticSystem.scaled(-1.0)
    with pytest.raises(DomainError):
        cl.regularized_derivative(dia, np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        cl.regularized_derivative(dia, np.array([1.0, 0.0, 0.0]))


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


def test_event_restart_limit_keeps_partial_samples():
    """An event that refires after every restart exhausts the restart limit."""
    def half(t, y):
        return y[0] - 0.5

    half.terminal = True
    # unit drift from 0, sent back by 1 at each crossing of 0.5: fires at t = 0.5, 1.5, 2.5
    with pytest.raises(IntegrationError) as err:
        cl._integrate_events(solve_ivp, lambda t, y: np.ones(1), (0.0, 100.0), np.zeros(1),
                             [half], lambda k, t, y: y - 1.0, 3, "RK45", 1e-9, np.inf)
    times, states = err.value.partial
    assert np.all(np.diff(times) > 0)  # each restart sample listed once
    assert times[0] == 0.0
    assert abs(times[-1] - 2.5) < 1e-9
    assert abs(states[-1, 0] - 0.5) < 1e-9


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


def test_scaling_invariance_physical_vs_scaled():
    b_field = 0.2
    dia_p = sy.DiamagneticSystem.from_physical(-1.0 * b_field ** (2.0 / 3.0), b_field)
    rho_s, z_s = 0.5, 0.3
    p_mag = math.sqrt(2.0 * (-1.0 + 1.0 / math.hypot(rho_s, z_s) - rho_s**2 / 8.0))
    p_vec = p_mag * np.array([0.8, 0.6])
    lam = b_field ** (-2.0 / 3.0)
    traj_p = cl.integrate_diamagnetic_physical(
        dia_p,
        sy.PhaseState((rho_s * lam, z_s * lam), tuple(p_vec * b_field ** (1.0 / 3.0))),
        30.0, tol=1e-12)
    y0 = cl.physical_to_regularized(rho_s, z_s, *p_vec)
    traj_s = cl.integrate_classical(sy.DiamagneticSystem.scaled(-1.0),
                                    sy.PhaseState(tuple(y0[:2]), tuple(y0[2:])),
                                    60.0, tol=1e-12)
    t_phys = np.linspace(0.5, 30.0, 40)
    taus = traj_s.tau_at_physical_time(t_phys * b_field)
    from_scaled = cl.regularized_to_physical(traj_s.at(taus)[:, :4])[:, :2]
    from_physical = traj_p.at(t_phys)[:, :2] * b_field ** (2.0 / 3.0)
    assert np.max(np.linalg.norm(from_scaled - from_physical, axis=1)) < 1e-6


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


def test_dense_lookup_across_bounces(box1d):
    """Several wall bounces give several segments; lookup keeps the scan's choices."""
    traj = cl.integrate_classical(box1d, sy.PhaseState((0.3,), (1.7,)), 5.0, tol=1e-10)
    segs = traj._segments
    assert len(segs) >= 5
    for (_, t_bounce, before), (_, _, after) in zip(segs[:-1], segs[1:]):
        v = traj.at(t_bounce)[0]
        # the earlier segment wins: momentum from before the bounce
        np.testing.assert_array_equal(v, before(t_bounce))
        assert v[1] * after(t_bounce)[1] < 0.0
    t_start, t_end = traj.times[0], traj.times[-1]
    for t in (t_start - 5e-13, t_end + 5e-13):
        np.testing.assert_array_equal(traj.at(t)[0], scan_segments(segs, t))
    for t in (t_start - 1e-9, t_end + 1e-9):
        with pytest.raises(DomainError):
            traj.at(t)
    rng = np.random.default_rng(3)
    tt = rng.permutation(np.concatenate([rng.uniform(t_start, t_end, 200),
                                         [s[1] for s in segs]]))
    batch = traj.at(tt)
    np.testing.assert_array_equal(batch, np.array([traj.at(t)[0] for t in tt]))
    np.testing.assert_array_equal(batch, np.array([scan_segments(segs, t) for t in tt]))


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
