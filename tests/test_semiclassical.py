import cmath
import math

import numpy as np
import oracles
import pytest

from pilotwave import semiclassical as sc
from pilotwave import systems as sy
from pilotwave.errors import DomainError, TurningPointError


def test_hj_residual_free_particle():
    fp = sy.free_particle()
    x1 = -0.4

    def action(x, t):
        return 0.5 * (x - x1) ** 2 / t  # m (x2-x1)^2 / (2 dt)

    for x, t in ((0.3, 0.5), (1.2, 1.7), (-0.9, 0.2)):
        assert oracles.hamilton_jacobi_residual(action, x, t, fp) < 1e-8


def test_hj_residual_harmonic_action():
    w = 1.3
    ho = sy.harmonic(w)
    x1 = 0.4

    def action(x, t):
        s = math.sin(w * t)
        return (w / (2.0 * s)) * ((x1 * x1 + x * x) * math.cos(w * t) - 2.0 * x1 * x)

    for x, t in ((0.3, 0.5), (-0.8, 1.1), (1.4, 2.0)):
        assert oracles.hamilton_jacobi_residual(action, x, t, ho) < 1e-6


def test_hj_residual_momentum_eigenstate_sigma():
    """sigma = hbar k x - E t solves the classical equation: Q vanishes."""
    fp = sy.free_particle()
    k = 2.2

    def sigma(x, t):
        return k * x - (k * k / 2.0) * t

    for x, t in ((0.0, 0.1), (3.0, 2.0)):
        assert oracles.hamilton_jacobi_residual(sigma, x, t, fp) < 1e-9


def test_van_vleck_free_exact():
    fp = sy.free_particle()
    rng = np.random.default_rng(7)
    for _ in range(25):
        x1, x2 = rng.uniform(-2, 2, 2)
        dt = rng.uniform(0.1, 2.5)
        k = sc.van_vleck_1d(fp, x1, x2, dt)
        exact = oracles.exact_propagator_1d(fp, x1, x2, dt)
        assert k.contributing_paths == 1
        assert abs(k.value - exact) / abs(exact) < 1e-10


def test_van_vleck_harmonic_pre_caustic():
    ho = sy.harmonic(1.3)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x1, x2 = rng.uniform(-1.8, 1.8, 2)
        dt = rng.uniform(0.1, math.pi / 1.3 - 0.05)
        k = sc.van_vleck_1d(ho, x1, x2, dt)
        exact = oracles.exact_propagator_1d(ho, x1, x2, dt)
        assert k.paths[0].conjugate_points == 0
        assert abs(k.value - exact) / abs(exact) < 1e-10


@pytest.mark.parametrize("x1, x2, dt", [
    (1.7603374584869138, 1.6685860224813858, 2.3390768623173903),
    (-1.1869522462598976, -0.8972548242366546, 2.3561138550214666),
    (1.264024430177858, 1.6296015739760439, 2.36028057522698),
    (-0.6245906983119565, -0.7408722644380477, 2.3621189185760554),
])
def test_van_vleck_harmonic_near_caustic(x1, x2, dt):
    """Close to w dt = pi the one path's momentum exceeds a scan sized by dt alone."""
    ho = sy.harmonic(1.3)
    k = sc.van_vleck_1d(ho, x1, x2, dt)
    exact = oracles.exact_propagator_1d(ho, x1, x2, dt)
    assert k.contributing_paths == 1
    assert abs(k.value - exact) / abs(exact) < 1e-10


def test_van_vleck_harmonic_near_caustic_draws():
    """Up to w dt = pi - 0.065 a root-tolerance miss of x2 costs p2 times the miss in R."""
    w = 1.3
    ho = sy.harmonic(w)
    rng = np.random.default_rng(2026)
    for _ in range(30):
        x1, x2 = rng.uniform(-1.8, 1.8, 2)
        dt = rng.uniform(math.pi - 0.39, math.pi - 0.065) / w
        k = sc.van_vleck_1d(ho, x1, x2, dt)
        exact = oracles.exact_propagator_1d(ho, x1, x2, dt)
        assert k.contributing_paths == 1
        assert abs(k.value - exact) / abs(exact) < 1e-10


@pytest.mark.parametrize("lo, hi, conjugate_points", [
    (math.pi - 0.065, math.pi - 0.005, 0),
    (math.pi + 0.05, 2.0 * math.pi - 0.05, 1),
])
def test_van_vleck_harmonic_caustic_side_draws(lo, hi, conjugate_points):
    """The one Newton shot finds the path up to w dt = pi - 0.005 and past the caustic."""
    w = 1.3
    ho = sy.harmonic(w)
    rng = np.random.default_rng(2026)
    for _ in range(30):
        x1, x2 = rng.uniform(-1.8, 1.8, 2)
        dt = rng.uniform(lo, hi) / w
        k = sc.van_vleck_1d(ho, x1, x2, dt)
        exact = oracles.exact_propagator_1d(ho, x1, x2, dt)
        assert k.contributing_paths == 1
        assert k.paths[0].conjugate_points == conjugate_points
        assert abs(k.value - exact) / abs(exact) < 1e-10


def test_van_vleck_caustic_phase():
    """One conjugate point past dt = pi/omega shifts the phase by -pi/2."""
    w = 1.3
    ho = sy.harmonic(w)
    dt = math.pi / w + 0.25
    x1 = 0.6
    x2 = -x1 * math.cos(w * dt) + 0.2
    k = sc.van_vleck_1d(ho, x1, x2, dt)
    assert k.paths[0].conjugate_points == 1
    exact = oracles.exact_propagator_1d(ho, x1, x2, dt)
    assert abs(k.value - exact) / abs(exact) < 1e-9
    # removing the conjugate-point phase must break the agreement by exactly i
    naive = k.value * cmath.exp(1j * math.pi / 2.0)
    assert abs(naive - exact) / abs(exact) > 0.5


def test_green_no_path_flag():
    """An oscillator below its potential minimum has no classical path: a flagged zero."""
    g = sc.semiclassical_green_1d(sy.harmonic(1.0), 0.2, 0.5, -1.0)
    assert g.no_path
    assert g.value == 0.0
    assert g.contributing_paths == 0


def test_green_harmonic_rejects_complex_energy():
    """The oscillator path sum needs real energy; a complex one is a DomainError."""
    with pytest.raises(DomainError, match="real energy"):
        sc.semiclassical_green_1d(sy.harmonic(1.0), 0.2, 0.5, 3.0 + 0.5j)
    real = sc.semiclassical_green_1d(sy.harmonic(1.0), 0.2, 0.5, 3.0)
    assert sc.semiclassical_green_1d(sy.harmonic(1.0), 0.2, 0.5, 3.0 + 0j).value == real.value


@pytest.mark.parametrize("system,energy,max_bounces", [
    (sy.box_1d(1.0), 40.0, -1),
    (sy.harmonic(1.0), 3.0, -2),
])
def test_green_rejects_negative_max_bounces(system, energy, max_bounces):
    """A negative reflection budget is an error, not the flagged no-path zero."""
    with pytest.raises(DomainError, match="max_bounces"):
        sc.semiclassical_green_1d(system, 0.2, 0.5, energy, max_bounces=max_bounces)


def test_van_vleck_rejects_bad_inputs(box1d):
    with pytest.raises(DomainError):
        sc.van_vleck_1d(sy.harmonic(1.0), 0.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        sc.van_vleck_1d(box1d, 0.1, 0.5, 0.3)


def test_green_free_modulus_and_value():
    fp = sy.free_particle()
    for e, x1, x2 in ((2.0, 0.0, 1.3), (5.5, -0.7, 0.4)):
        g = sc.semiclassical_green_1d(fp, x1, x2, e)
        k = math.sqrt(2.0 * e)
        assert g.contributing_paths == 1
        assert abs(abs(g.value) - 1.0 / k) < 1e-12
        exact = oracles.exact_green_1d(fp, x1, x2, e)
        assert abs(g.value - exact) < 1e-12


def test_green_box_against_eigenfunction_expansion(box1d):
    energy = 200.0 + 12.0j  # Im E damps long bounce paths
    g = sc.semiclassical_green_1d(box1d, 0.23, 0.61, energy, max_bounces=60)
    exact = oracles.exact_green_1d(box1d, 0.23, 0.61, energy)
    assert abs(g.value - exact) / abs(exact) < 1e-9
    assert g.contributing_paths <= 2 * (60 + 1)
    assert all(p.conjugate_points <= 60 for p in g.paths)
    # each bounce contributes a pi phase: flipping one path's count by one
    # flips its sign, so the bounce counts matter for the sum
    few = sc.semiclassical_green_1d(box1d, 0.23, 0.61, energy, max_bounces=4)
    assert few.contributing_paths < g.contributing_paths


def test_green_box_path_count_budget(box1d):
    g = sc.semiclassical_green_1d(box1d, 0.2, 0.7, 40.0, max_bounces=6)
    # at most two path families per bounce budget
    assert 1 <= g.contributing_paths <= 2 * 7


def test_green_harmonic_turning_point_error():
    ho = sy.harmonic(1.0)
    e = 2.0
    amp = math.sqrt(2.0 * e)  # turning point
    with pytest.raises(TurningPointError):
        sc.semiclassical_green_1d(ho, amp, 0.2, e)
    with pytest.raises(DomainError):
        sc.semiclassical_green_1d(ho, 0.2, 0.2, e)


def test_green_harmonic_resummed_matches_resolvent():
    """Geometric resummation of the turning-point series vs the resolvent.

    Repetitions multiply each primitive path by exp(i(S_period - pi)), so
    the full series resums to (primitive sum)/(1 - r); poles land exactly at
    E = (n + 1/2) and between levels the value must be real.  The amplitude
    carries the usual O(1/S) stationary-phase error, shrinking with E.
    """
    ho = sy.harmonic(1.0)
    from pilotwave import quantum as qm

    def exact(x1, x2, e, n_states=800):
        total = 0.0 + 0.0j
        for n in range(n_states):
            st = qm.eigenstate(ho, n)
            v1, _, _ = oracles.eigenfunction(ho, st, x1)
            v2, _, _ = oracles.eigenfunction(ho, st, x2)
            total += complex(v1) * complex(v2) / (e - st.energy)
        return total

    def resummed(x1, x2, e):
        g = sc.semiclassical_green_1d(ho, x1, x2, e, max_bounces=2)
        primitives = sorted(g.paths, key=lambda p: p.value)[:4]
        ratio = cmath.exp(1j * (2.0 * math.pi * e - math.pi))
        amp = primitives[0].stability
        series = sum(cmath.exp(1j * (p.value - math.pi / 2.0 * p.conjugate_points))
                     for p in primitives)
        return (1.0 / 1j) * amp * series / (1.0 - ratio)

    errors = []
    for e in (2.8, 5.3, 7.94):
        val = resummed(0.3, 1.1, e)
        ref = exact(0.3, 1.1, e)
        assert abs(val.imag) < 1e-12  # phase convention: real between levels
        errors.append(abs(val - ref) / abs(ref))
        assert errors[-1] < 0.05
    assert errors[-1] < errors[0]  # stationary-phase error decays with action


def _walked_box_paths(L, x1, x2, max_bounces):
    """Reference: rays walked wall to wall, (length, bounces), as before `_image_paths`."""
    out = []
    for d0 in (+1.0, -1.0):
        pos, d, length, bounces = x1, d0, 0.0, 0
        while bounces <= max_bounces:
            wall = L if d > 0 else 0.0
            lo, hi = min(pos, wall), max(pos, wall)
            if lo < x2 < hi or (x2 == pos and length > 0.0):
                out.append((length + abs(x2 - pos), bounces))
            length += abs(wall - pos)
            pos, d = wall, -d
            bounces += 1
    out.sort()
    return out


def _walked_harmonic_paths(system, x1, x2, energy, max_turns):
    """Reference: paths walked between turning points, (action, turns), as before `_image_paths`."""
    m = system.constants.mass
    w = system.omegas[0]
    amp = math.sqrt(2.0 * energy / (m * w * w))

    def antideriv(x):
        return 0.5 * m * w * (x * math.sqrt(amp * amp - x * x) + amp * amp * math.asin(x / amp))

    edge = antideriv(amp)
    out = []
    for d0 in (+1.0, -1.0):
        pos, d, action, turns = x1, d0, 0.0, 0
        while turns <= max_turns:
            target = amp if d > 0 else -amp
            lo, hi = min(pos, target), max(pos, target)
            if lo < x2 < hi or (x2 == pos and action > 0.0):
                out.append((action + abs(antideriv(x2) - antideriv(pos)), turns))
            action += abs((edge if d > 0 else -edge) - antideriv(pos))
            pos, d = target, -d
            turns += 1
    out.sort()
    return out


def _walked_green(system, paths, p1, p2, action_of, phi):
    """Reference: the per-path sum over walked paths, and the roundoff of its phases.

    Each phase S / hbar is good to a few ulps, so a path sum is good to about
    eps sum |term| |S|: at real energy and 60 bounces that is near 1e-12 of
    the sum, and a 40-digit sum differs from either implementation by as much.
    """
    amp = system.constants.mass / cmath.sqrt(p1 * p2)
    terms = [(1.0 / 1j) * amp * cmath.exp(1j * (action_of(s) - phi * k)) for s, k in paths]
    roundoff = 4.0 * np.finfo(float).eps * sum(abs(t * action_of(s))
                                                for t, (s, _) in zip(terms, paths))
    return sum(terms), roundoff


_BOX_CASES = [(L, a * L, b * L, e) for L in (1.0, 2.3) for a, b in ((0.23, 0.61), (0.7, 0.2))
              for e in (40.0, 200.0 + 12.0j)]
_HARMONIC_CASES = [(e, x1, x2) for e in (2.8, 5.3) for x1, x2 in ((0.3, 1.1), (-0.9, 0.4))]


@pytest.mark.parametrize("L, x1, x2, energy", _BOX_CASES)
def test_box_images_match_walked_paths(L, x1, x2, energy):
    box = sy.box_1d(L)
    p = cmath.sqrt(2.0 * energy)
    for n in range(61):
        walked = _walked_box_paths(L, x1, x2, n)
        lengths, bounces = sc._image_paths(x1, x2, L, n)
        assert bounces.tolist() == [k for _, k in walked]
        np.testing.assert_allclose(lengths, [s for s, _ in walked], rtol=1e-12, atol=0)
        g = sc.semiclassical_green_1d(box, x1, x2, energy, max_bounces=n)
        assert g.contributing_paths == 1 + 2 * n
        assert [r.conjugate_points for r in g.paths] == bounces.tolist()
        np.testing.assert_allclose([r.value for r in g.paths], abs(p) * lengths,
                                   rtol=1e-12, atol=0)
        ref, roundoff = _walked_green(box, walked, p, p, lambda s: p * s, math.pi)
        assert abs(g.value - ref) <= 1e-12 * abs(ref) + roundoff


@pytest.mark.parametrize("energy, x1, x2", _HARMONIC_CASES)
def test_harmonic_images_match_walked_paths(energy, x1, x2):
    ho = sy.harmonic(1.0)
    p1, p2 = (math.sqrt(2.0 * energy - x * x) for x in (x1, x2))
    for n in range(8):
        walked = _walked_harmonic_paths(ho, x1, x2, energy, n)
        g = sc.semiclassical_green_1d(ho, x1, x2, energy, max_bounces=n)
        assert g.contributing_paths == 1 + 2 * n
        assert [r.conjugate_points for r in g.paths] == [k for _, k in walked]
        np.testing.assert_allclose([r.value for r in g.paths], [s for s, _ in walked],
                                   rtol=1e-12, atol=0)
        ref, roundoff = _walked_green(ho, walked, p1, p2, lambda s: s, math.pi / 2.0)
        assert abs(g.value - ref) <= 1e-12 * abs(ref) + roundoff


@pytest.mark.parametrize("system, x1, x2, energy, phi", [
    (sy.free_particle(), -0.7, 0.4, 5.5, math.pi),
    (sy.box_1d(1.3), 0.2, 0.9, 40.0, math.pi),
    (sy.harmonic(1.3), 0.3, -0.8, 5.3, math.pi / 2.0),
])
def test_energy_records_carry_the_action(system, x1, x2, energy, phi):
    """At real energy the Green function is the records' sum with S = value."""
    g = sc.semiclassical_green_1d(system, x1, x2, energy, max_bounces=5)
    rebuilt = sum(r.stability / 1j * cmath.exp(1j * (r.value - phi * r.conjugate_points))
                  for r in g.paths)
    assert abs(g.value - rebuilt) <= 1e-12 * abs(g.value)
