"""The compiled DOP853 entry point against scipy's own DOP853 at tolerance 1e-12."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq

from pilotwave import bohmian as bm
from pilotwave import classical as cl
from pilotwave import quantum as qm
from pilotwave import systems as sy
from pilotwave.errors import DomainError, IntegrationError
from pilotwave.integrate import DenseOutput, solve_ivp

TOL = 1e-12
EVENT_ATOL = 1e-9
ROOT_TOL = 4.0 * np.finfo(float).eps  # scipy's event-root tolerance


def _bits(values):
    """The IEEE bits of every number: equal bits mean equal numbers and signs of zero."""
    return np.asarray(values, dtype=float).tobytes()


def _brentq_on_dense(event, dense, k):
    """The root of event(t, dense(t)) in step k, by array queries of the whole dense output."""
    return brentq(lambda t: event(t, dense(t)), dense.t[k], dense.t[k + 1],
                  xtol=ROOT_TOL, rtol=ROOT_TOL)


def _both(fun, t_span, y0, **kwargs):
    ours = solve_ivp(fun, t_span, y0, rtol=TOL, atol=TOL, **kwargs)
    ref = scipy_solve_ivp(fun, t_span, np.asarray(y0, dtype=float), method="DOP853",
                          rtol=TOL, atol=TOL, **kwargs)
    assert ours.status >= 0 and ref.success
    return ours, ref


def _flow(eps):
    """The regularized diamagnetic flow as a right-hand side."""
    return lambda t, y: cl._flow_jacobian(y, eps)[:4]


def _radial_min(t, y):
    return y[0] * y[2] + y[1] * y[3]


_radial_min.direction = 1.0

_LAUNCHES = [(eps, theta) for eps in (-1.0, -0.15)
             for theta in np.random.default_rng(8).uniform(0.0, math.pi / 2.0, 3)]


@pytest.mark.parametrize("eps,theta", _LAUNCHES)
def test_diamagnetic_launch_matches_scipy(eps, theta):
    y0 = cl.launch_from_nucleus(theta).as_array()
    ours, ref = _both(_flow(eps), (0.0, 6.0), y0, dense_output=True, events=_radial_min)
    assert ours.t[-1] == 6.0
    np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=0, atol=50 * TOL)
    tt = np.sort(np.random.default_rng(9).uniform(0.0, 6.0, 200))
    np.testing.assert_allclose(ours.sol(tt), ref.sol(tt), rtol=0, atol=50 * TOL)
    # closest approaches, the launch itself included
    assert ours.t_events[0].size == ref.t_events[0].size >= 2
    np.testing.assert_allclose(ours.t_events[0], ref.t_events[0], rtol=0, atol=EVENT_ATOL)
    np.testing.assert_array_equal(ours.y_events[0], ours.sol(ours.t_events[0]).T)


@pytest.mark.parametrize("system,q0,p0", [
    (sy.harmonic(1.3), (0.7,), (-0.4,)),
    (sy.harmonic(1.0, math.sqrt(2.0)), (0.7, -0.2), (0.3, 0.9)),
    (sy.box_1d(1.0), (0.3,), (1.7,)),
    (sy.box_2d(1.0, math.sqrt(2.0)), (0.3, 0.8), (-1.1, 0.6)),
])
def test_solvable_systems_match_scipy(system, q0, p0):
    """Oscillators over a few periods; boxes up to their first wall, a terminal event."""
    rhs = cl._solvable_rhs(system)
    wall = None
    if system.kind == "box":
        def wall(t, y):  # distance to the nearest wall, positive inside the box
            return min(min(y[i], length - y[i]) for i, length in enumerate(system.lengths))
        wall.terminal = True
    y0 = np.array(q0 + p0)
    t_eval = np.linspace(0.0, 5.0, 41)
    ours, ref = _both(rhs, (0.0, 5.0), y0, dense_output=True, events=wall)
    dense = _both(rhs, (0.0, 5.0), y0, t_eval=t_eval, events=wall)
    np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=0, atol=10 * TOL)
    np.testing.assert_allclose(dense[0].y, dense[1].y, rtol=0, atol=10 * TOL)
    tt = np.random.default_rng(10).uniform(0.0, ours.t[-1], 100)
    np.testing.assert_allclose(ours.sol(tt), ref.sol(tt), rtol=0, atol=10 * TOL)
    if wall:
        assert ours.status == ref.status == 1
        assert ours.t_events[0].size == ref.t_events[0].size == 1
        assert ours.t[-1] == ours.t_events[0][0]
        assert abs(ours.t_events[0][0] - ref.t[-1]) <= EVENT_ATOL
        # the run ends at the wall: t_eval samples stop before it
        assert dense[0].t.size == dense[1].t.size < t_eval.size
        assert dense[0].t[-1] <= ours.t[-1]


def test_interpolant_returns_every_recorded_step_exactly():
    y0 = cl.launch_from_nucleus(0.7).as_array()
    res = solve_ivp(_flow(-0.15), (0.0, 6.0), y0, rtol=1e-10, atol=1e-10, dense_output=True)
    assert res.t.size > 20
    np.testing.assert_array_equal(res.sol(res.t), res.y)
    for k in (0, 1, res.t.size // 2, res.t.size - 1):
        np.testing.assert_array_equal(res.sol(res.t[k]), res.y[:, k])
    # t_eval samples at step times are the recorded states themselves
    sampled = solve_ivp(_flow(-0.15), (0.0, 6.0), y0, rtol=1e-10, atol=1e-10,
                        t_eval=res.t[::3])
    np.testing.assert_array_equal(sampled.y, res.y[:, ::3])


def test_step_interpolant_matches_dense_queries():
    """`on_step(k)` in Python floats gives a query's bits inside step k and at both ends."""
    y0 = cl.launch_from_nucleus(0.7).as_array()
    res = solve_ivp(_flow(-0.15), (0.0, 6.0), y0, rtol=1e-10, atol=1e-10, dense_output=True)
    last = res.t.size - 2
    fractions = np.random.default_rng(12).uniform(0.0, 1.0, 6)
    for k in (0, 1, last // 2, last):
        state, (a, b) = res.sol.on_step(k), res.t[k:k + 2]
        for t in (a, *(a + fractions * (b - a)), b):
            assert _bits(state(float(t))) == _bits(res.sol(float(t)))
    assert _bits(res.sol.on_step(last)(6.0)) == _bits(res.y[:, -1])
    # a step whose end is not y_k + (y_k+1 - y_k) in floats: both give the recorded end
    made = DenseOutput(lambda t, y: (-y[0],), [0.0, 0.5], [[0.1, -1e-17]])
    assert made.on_step(0)(0.5) == made(0.5).tolist() == [-1e-17]


def test_close_approach_roots_are_brentq_on_the_dense_output():
    """Not terminal, direction +1: every root and its state, bit for bit."""
    y0 = cl.launch_from_nucleus(0.7).as_array()
    res = solve_ivp(_flow(-0.15), (0.0, 6.0), y0, rtol=1e-11, atol=1e-11, dense_output=True,
                    events=_radial_min)
    g = [_radial_min(t, y) for t, y in zip(res.t, res.y.T)]
    hits = [k for k in range(len(g) - 1) if g[k] <= 0.0 <= g[k + 1]]
    roots = [_brentq_on_dense(_radial_min, res.sol, k) for k in hits]
    assert res.status == 0 and len(roots) >= 3
    assert _bits(res.t_events[0]) == _bits(roots)
    assert _bits(res.y_events[0]) == _bits(res.sol(np.array(roots)).T)


def test_terminal_node_halt_root_is_brentq_on_the_dense_output():
    """integrate_bohmian's node event ends the run in its last step, at the same root."""
    sup = qm.Superposition.of(sy.box_1d(1.0), [(1.0, 1), (0.4, 2)])
    traj = bm.integrate_bohmian(sup, [0.001], (0.0, 6.0), tol=1e-3)
    threshold = bm._node_threshold(sup)
    dense = traj._dense
    whole = DenseOutput(dense.fun, dense.t, dense.y)  # its last step not cut at the root

    def node_event(t, y):
        return bm._point_amplitude(sup, y, t) - threshold

    root = _brentq_on_dense(node_event, whole, dense.t.size - 2)
    [hit] = traj.node_encounters
    assert abs(root - 1.580) < 1e-3
    assert _bits(hit["t"]) == _bits(root) == _bits(traj.times[-1]) == _bits(dense.end)
    assert _bits(hit["x"]) == _bits(whole(root)) == _bits(traj.positions[-1])


def test_terminal_event_truncates_run_and_samples():
    def hit(t, y):
        return y[0] - 0.5

    hit.terminal = True
    t_eval = np.linspace(0.0, 10.0, 101)
    ours, ref = _both(lambda t, y: (y[1], -y[0]), (0.0, 10.0), (0.0, 1.0),
                      events=hit, t_eval=t_eval, dense_output=True)
    assert ours.status == ref.status == 1
    assert abs(ours.t_events[0][0] - math.pi / 6.0) <= EVENT_ATOL
    np.testing.assert_array_equal(ours.t, t_eval[t_eval <= ours.t_events[0][0]])
    np.testing.assert_allclose(ours.y, ref.y, rtol=0, atol=10 * TOL)
    steps = solve_ivp(lambda t, y: (y[1], -y[0]), (0.0, 10.0), (0.0, 1.0), rtol=TOL, atol=TOL,
                      events=hit, dense_output=True)
    assert steps.t[-1] == steps.t_events[0][0]
    np.testing.assert_array_equal(steps.y[:, -1], steps.y_events[0][0])


def test_backward_span_matches_scipy():
    ours, ref = _both(lambda t, y: (y[1], -y[0]), (3.0, -2.0), (0.0, 1.0), dense_output=True)
    assert ours.t[0] == 3.0 and ours.t[-1] == -2.0 and np.all(np.diff(ours.t) < 0)
    np.testing.assert_allclose(ours.y[:, -1], [math.sin(-5.0), math.cos(-5.0)], atol=10 * TOL)
    tt = np.linspace(-2.0, 3.0, 37)
    np.testing.assert_allclose(ours.sol(tt), ref.sol(tt), rtol=0, atol=10 * TOL)


def test_zero_length_span_returns_the_start():
    res = solve_ivp(lambda t, y: (y[1], -y[0]), (1.5, 1.5), (0.3, 0.4), rtol=TOL, atol=TOL,
                    dense_output=True, t_eval=[1.5])
    assert res.status == 0 and res.t.tolist() == [1.5]
    np.testing.assert_array_equal(res.y, [[0.3], [0.4]])
    np.testing.assert_array_equal(res.sol(1.5), [0.3, 0.4])


def test_nan_right_hand_side_raises_with_partial_samples():
    def rhs(t, y):
        return (y[1], -y[0] if t < 1.0 else math.nan)

    with pytest.raises(IntegrationError) as err:
        solve_ivp(rhs, (0.0, 3.0), (1.0, 0.0), rtol=TOL, atol=TOL)
    times, states = err.value.partial
    assert times[0] == 0.0 and times.size == states.shape[0] > 1
    assert states.shape[1] == 2 and times[-1] <= 1.0
    np.testing.assert_allclose(states[:, 0], np.cos(times), atol=10 * TOL)


def test_right_hand_side_exception_is_reraised():
    def rhs(t, y):
        return (math.sqrt(0.5 - t),)  # a math domain error past t = 0.5

    with pytest.raises(ValueError, match="math domain error"):
        solve_ivp(rhs, (0.0, 1.0), (0.0,), rtol=1e-6, atol=1e-6)


def test_finished_runs_keep_nothing_alive():
    """The compiled stepper keeps a reference to every callback it is handed."""
    class Rhs:
        def __call__(self, t, y):
            return (y[1], -y[0])

    fun = Rhs()
    alive = weakref.ref(fun)
    solve_ivp(fun, (0.0, 1.0), (1.0, 0.0), rtol=TOL, atol=TOL, dense_output=True)
    del fun
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("rate", [1e-150, 8e-151, 1e-145])
def test_negligible_derivative_steps_to_the_end(rate):
    """dopri853 alone rejects every step here: its error norm is subnormal, not 0."""
    res = solve_ivp(lambda t, y: [rate], (0.5, 0.7), [0.82], rtol=1e-6, atol=1e-6)
    assert res.status == 0 and res.t[-1] == 0.7
    # nfev counts the second run alone, which steps as if the derivative were 0
    still = solve_ivp(lambda t, y: [0.0], (0.5, 0.7), [0.82], rtol=1e-6, atol=1e-6)
    assert res.nfev == still.nfev
    np.testing.assert_array_equal(res.y, 0.82)
    mixed = solve_ivp(lambda t, y: [rate, 0.0], (0.5, 0.7), [0.82, 0.3], rtol=1e-6, atol=1e-6)
    np.testing.assert_array_equal(mixed.y[:, -1], [0.82, 0.3])


def test_step_too_small_without_negligible_derivatives_runs_once():
    """A blow-up (y' = y^2 from 1, singular at t = 1) is not stepped a second time."""
    called = []

    def blow_up(t, y):
        called.append(t)
        return [y[0] * y[0]]

    with pytest.raises(IntegrationError, match="step size becomes too small"):
        solve_ivp(blow_up, (0.0, 2.0), [1.0], rtol=1e-8, atol=1e-8)
    restarts = [k for k in range(1, len(called)) if called[k] == 0.0 != called[k - 1]]
    assert restarts == []


def test_dense_output_refuses_queries_outside_its_run():
    for t_span in ((0.0, 2.0), (2.0, 0.0)):
        res = solve_ivp(lambda t, y: (y[1], -y[0]), t_span, (0.0, 1.0), rtol=TOL, atol=TOL,
                        dense_output=True)
        start, end = t_span
        beyond = math.copysign(1.0, end - start)
        res.sol([start - 5e-13 * beyond, end + 5e-13 * beyond])
        for t in (start - 1e-9 * beyond, end + 1e-9 * beyond):
            with pytest.raises(DomainError):
                res.sol(t)
    # a terminal event ends the run inside its last step
    def hit(t, y):
        return y[0] - 0.5

    hit.terminal = True
    halted = solve_ivp(lambda t, y: (y[1], -y[0]), (0.0, 10.0), (0.0, 1.0), rtol=TOL, atol=TOL,
                       dense_output=True, events=hit)
    assert halted.sol.end == halted.t[-1] < halted.sol.t[-1]
    with pytest.raises(DomainError):
        halted.sol(halted.t[-1] + 1e-9)
