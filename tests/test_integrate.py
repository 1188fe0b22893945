"""The compiled DOP853 entry point against scipy's own DOP853 at tolerance 1e-12."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from pilotwave import classical as cl
from pilotwave import systems as sy
from pilotwave.errors import DomainError, IntegrationError
from pilotwave.integrate import solve_ivp

TOL = 1e-12
EVENT_ATOL = 1e-9


def _both(fun, t_span, y0, **kwargs):
    ours = solve_ivp(fun, t_span, y0, rtol=TOL, atol=TOL, **kwargs)
    ref = scipy_solve_ivp(fun, t_span, np.asarray(y0, dtype=float), method="DOP853",
                          rtol=TOL, atol=TOL, **kwargs)
    assert ours.status >= 0 and ref.success
    return ours, ref


def _radial_min(t, y):
    return y[0] * y[2] + y[1] * y[3]


_radial_min.direction = 1.0

_LAUNCHES = [(eps, theta) for eps in (-1.0, -0.15)
             for theta in np.random.default_rng(8).uniform(0.0, math.pi / 2.0, 3)]


@pytest.mark.parametrize("eps,theta", _LAUNCHES)
def test_diamagnetic_launch_matches_scipy(eps, theta):
    y0 = cl.launch_from_nucleus(theta).as_array()
    ours, ref = _both(lambda t, y: cl._flow(y, eps), (0.0, 6.0), y0,
                      dense_output=True, events=_radial_min)
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
    res = solve_ivp(lambda t, y: cl._flow(y, -0.15), (0.0, 6.0), y0, rtol=1e-10, atol=1e-10,
                    dense_output=True)
    assert res.t.size > 20
    np.testing.assert_array_equal(res.sol(res.t), res.y)
    for k in (0, 1, res.t.size // 2, res.t.size - 1):
        np.testing.assert_array_equal(res.sol(res.t[k]), res.y[:, k])
    # t_eval samples at step times are the recorded states themselves
    sampled = solve_ivp(lambda t, y: cl._flow(y, -0.15), (0.0, 6.0), y0, rtol=1e-10,
                        atol=1e-10, t_eval=res.t[::3])
    np.testing.assert_array_equal(sampled.y, res.y[:, ::3])


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
