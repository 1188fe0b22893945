"""Tests of the benchmark's oracles and tracer, against facts they must obey.

    python3 -m pytest perfbench/test_oracles.py -q

None of these compares against pilotwave: each oracle is checked against
an identity (normalization, a differential equation, a second derivation)
or an integration written here.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from scipy.integrate import quad, solve_ivp

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("omega", [1.0, math.sqrt(2.0)])
def test_hermite_functions_match_the_polynomial_form(n, omega):
    x = np.linspace(-4.0, 4.0, 81)
    value, grad = oracles._hermite_axis(n, omega, x)
    xi = math.sqrt(omega) * x
    norm = (omega / math.pi) ** 0.25 / math.sqrt(2.0**n * math.factorial(n))
    expected = norm * hermval(xi, [0] * n + [1]) * np.exp(-0.5 * xi * xi)
    np.testing.assert_allclose(value, expected, atol=1e-14)
    h = 1e-6
    fd = (oracles._hermite_axis(n, omega, x + h)[0] - oracles._hermite_axis(n, omega, x - h)[0]) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-8)


def test_eigenfunctions_are_orthonormal():
    for axis, lo, hi, ns in ((lambda n, x: oracles._hermite_axis(n, 1.3, x), -12.0, 12.0, (0, 1, 2)),
                             (lambda n, x: oracles._box_axis(n, 1.7, x), 0.0, 1.7, (1, 2, 3))):
        for a in ns:
            for b in ns:
                val, _ = quad(lambda x: axis(a, x)[0] * axis(b, x)[0], lo, hi, limit=200)
                assert val == pytest.approx(float(a == b), abs=1e-10)


def test_velocity_is_the_phase_gradient():
    field = oracles.Wavefield("harmonic", (1.0, math.sqrt(2.0)),
                              [(1.0, (0, 0)), (0.9, (2, 0)), (0.8j, (1, 1)), (0.7, (0, 2))])
    rng = np.random.default_rng(3)
    h = 1e-6
    for x, t in zip(rng.uniform(-1.5, 1.5, (20, 2)), rng.uniform(0.0, 5.0, 20)):
        v = field.velocity(x, t)
        for i in range(2):
            step = np.eye(2)[i] * h
            psi_p, _ = field.psi_grad(x + step, t)
            psi_m, _ = field.psi_grad(x - step, t)
            assert v[i] == pytest.approx(np.angle(psi_p / psi_m) / (2 * h), rel=1e-6, abs=1e-7)


def test_wavefield_norm_is_one():
    field = oracles.Wavefield("box", (1.0,), [(1.0, (1,)), (0.4, (2,))])
    val, _ = quad(lambda x: field.amplitude(np.array([x]), 0.3) ** 2, 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.37, 2.1])
def test_box_cdf_integrates_the_density(t):
    c1, c2, length = 1.0, 0.4 - 0.2j, 1.3
    field = oracles.Wavefield("box", (length,), [(c1, (1,)), (c2, (2,))])
    x = np.linspace(0.0, length, 41)
    cdf = oracles.two_mode_box_cdf(c1, c2, length, x, t)
    assert cdf[0] == pytest.approx(0.0, abs=1e-15)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-14)
    for a, fa in zip(x[1:], cdf[1:]):
        val, _ = quad(lambda s: field.amplitude(np.array([s]), t) ** 2, 0.0, a)
        assert fa == pytest.approx(val, abs=1e-12)


def _regularized_closure(epsilon, theta):
    """Integrate the regularized flow from the nucleus to its first return."""
    def rhs(tau, y):
        mu, nu, pmu, pnu, _, _ = y
        mu2, nu2 = mu * mu, nu * nu
        return (pmu, pnu, 2 * epsilon * mu - 0.25 * mu * nu2 * (2 * mu2 + nu2),
                2 * epsilon * nu - 0.25 * nu * mu2 * (2 * nu2 + mu2), mu2 + nu2,
                pmu * pmu + pnu * pnu)

    def back(tau, y):  # mu returns to zero at the nucleus
        return y[0] if tau > 1e-3 else 1.0

    back.terminal, back.direction = True, -1
    y0 = (0.0, 0.0, 2 * math.cos(theta), 2 * math.sin(theta), 0.0, 0.0)
    res = solve_ivp(rhs, (0.0, 50.0), y0, method="DOP853", rtol=1e-12, atol=1e-12, events=back)
    tau = res.t_events[0][0]
    y = res.y_events[0][0]
    return {"tau_period": tau, "period": y[4], "action": y[5]}


@pytest.mark.parametrize("epsilon", [-1.0, -0.15])
def test_symmetric_orbits_match_direct_integration(epsilon):
    for oracle, theta in ((oracles.axis_orbit(epsilon), 0.0),
                          (oracles.perpendicular_orbit(epsilon), math.pi / 4)):
        direct = _regularized_closure(epsilon, theta)
        for key in ("tau_period", "period", "action"):
            assert oracle[key] == pytest.approx(direct[key], rel=1e-9)


@pytest.mark.parametrize("omega", [None, 1.3])
def test_kernels_solve_the_schrodinger_equation(omega):
    def kernel(x2, t):
        if omega is None:
            return oracles.free_kernel(0.4, x2, t)
        return oracles.mehler_kernel(omega, 0.4, x2, t)

    w2 = 0.0 if omega is None else omega**2
    h = 1e-4
    for x2, t in ((-0.7, 0.5), (1.1, 1.3), (0.2, 2.0)):
        dt = (kernel(x2, t + h) - kernel(x2, t - h)) / (2 * h)
        dxx = (kernel(x2 + h, t) - 2 * kernel(x2, t) + kernel(x2 - h, t)) / h**2
        residual = 1j * dt + 0.5 * dxx - 0.5 * w2 * x2 * x2 * kernel(x2, t)
        assert abs(residual) < 1e-5 * abs(kernel(x2, t))


def test_mehler_tends_to_the_free_kernel():
    assert oracles.mehler_kernel(1e-6, 0.3, -0.5, 1.7) == pytest.approx(
        oracles.free_kernel(0.3, -0.5, 1.7), rel=1e-9)


def test_accessible_region():
    eps = -0.5
    assert oracles.accessible(eps, 0.0, 0.0)
    assert oracles.accessible(eps, 0.5, 0.5)
    assert not oracles.accessible(eps, 0.0, 2.5)  # beyond the axial radius 1/|eps|
    assert oracles.accessible(eps, 0.0, 2.0)
    assert not oracles.accessible(eps, 0.0, 2.0 + 1e-9)
    assert oracles.accessible(eps, 0.0, 2.0 + 1e-9, margin=1e-6)


def test_multinomial_l1_mean_matches_sampling():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.full(20, 5.0))
    n = 10_000
    draws = rng.multinomial(n, p, size=400) / n
    sampled = float(np.mean(np.sum(np.abs(draws - p), axis=1)))
    assert oracles.multinomial_l1_mean(p, n) == pytest.approx(sampled, rel=0.03)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    wrapped_inner = tracer._wrap("inner", inner)
    tracer._wrap("outer", outer)()
    assert tracer.calls["outer"] == tracer.calls["inner"] == 1
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.busy["outer"] - tracer.busy["inner"], abs=1e-9)
    assert 0.005 < tracer.self_time["outer"] < 0.02
    assert tracer.names == ["outer", "inner"] and tracer.parents == [-1, 0]
