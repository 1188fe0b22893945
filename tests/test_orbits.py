import math

import numpy as np
import pytest
from scipy.integrate import simpson

from pilotwave import orbits as ob
from pilotwave import spectra as sp
from pilotwave import systems as sy
from pilotwave.classical import integrate_classical
from pilotwave.errors import DomainError


@pytest.fixture(scope="module")
def orbits_eps1():
    dia = sy.DiamagneticSystem.scaled(-1.0)
    orbits, diag = ob.find_closed_orbits(dia, n_angles=40, tau_max=4.0)
    return orbits, diag


def _by_angle(orbits, theta, tol=1e-6):
    hits = [o for o in orbits if abs(o.launch_angle - theta) < tol]
    assert hits, f"no orbit at angle {theta}"
    return hits[0]


def test_symmetric_orbits_found(orbits_eps1):
    orbits, _ = orbits_eps1
    axial = _by_angle(orbits, 0.0)
    perp = _by_angle(orbits, math.pi / 4.0)
    assert axial.closure_residual < 1e-8
    assert perp.closure_residual < 1e-8


def test_axial_orbit_analytic(orbits_eps1):
    """On the field axis the regularized motion is a pure oscillator.

    h = p^2/2 + |eps| mu^2 = 2 gives return time pi/sqrt(2|eps|), action
    2 pi / sqrt(2 |eps|) and physical period matching dS/d eps.
    """
    orbits, _ = orbits_eps1
    axial = _by_angle(orbits, 0.0)
    omega = math.sqrt(2.0)
    assert abs(axial.tau_period - math.pi / omega) < 1e-9
    assert abs(axial.action - 2.0 * math.pi / omega) < 1e-8
    assert abs(axial.period - math.pi / omega) < 1e-8


def test_orbit_paths_return_to_nucleus(orbits_eps1):
    orbits, _ = orbits_eps1
    for o in orbits:
        assert np.hypot(o.path[-1, 0], o.path[-1, 1]) < 1e-8
        assert o.period > 0 and o.tau_period > 0


def test_action_period_derivative(orbits_eps1):
    orbits, _ = orbits_eps1
    delta = 1e-5
    for o in orbits:
        plus = ob.continue_orbit(sy.DiamagneticSystem.scaled(-1.0 + delta), o)
        minus = ob.continue_orbit(sy.DiamagneticSystem.scaled(-1.0 - delta), o)
        ds_de = (plus.action - minus.action) / (2.0 * delta)
        assert abs(ds_de / o.period - 1.0) < 1e-3


def test_orbit_invariants_consistency(orbits_eps1, monkeypatch):
    """The monodromy is the orbit's own run: returned exactly, not integrated again."""
    orbits, _ = orbits_eps1

    def no_run(*args, **kwargs):
        raise AssertionError("orbit_invariants integrated the orbit again")

    monkeypatch.setattr(ob, "solve_ivp", no_run)
    for o in orbits:
        s, t, trace, index = ob.orbit_invariants(o)
        assert abs(s - o.action) < 1e-7
        assert t == o.period
        assert trace == o.monodromy_trace
        assert index == o.phase_index >= 0


def test_chaotic_regime_count_matches_fine_grid_oracle():
    """The standard grid finds the same short closures as a 4x finer scan."""
    dia = sy.DiamagneticSystem.scaled(-0.15)
    coarse, _ = ob.find_closed_orbits(dia, n_angles=45, tau_max=4.5)
    fine, _ = ob.find_closed_orbits(dia, n_angles=180, tau_max=4.5)  # 4x oracle
    bound = 10.0  # scaled-period cutoff
    coarse_short = [o for o in coarse if o.period <= bound]
    fine_short = [o for o in fine if o.period <= bound]
    assert len(coarse_short) == len(fine_short)
    for a, b in zip(sorted(coarse_short, key=lambda o: o.launch_angle),
                    sorted(fine_short, key=lambda o: o.launch_angle)):
        assert abs(a.launch_angle - b.launch_angle) < 1e-8
        assert abs(a.period - b.period) < 1e-6


def test_search_needs_bound_regime():
    with pytest.raises(DomainError):
        ob.find_closed_orbits(sy.DiamagneticSystem.scaled(0.2))


def test_harmonic_orbit_invariants(ho1d):
    fam = sp.harmonic_orbit_family(ho1d)
    assert abs(fam.action(2.0) - 2.0 * math.pi * 2.0) < 1e-8  # S = 2 pi E / omega
    assert abs(fam.period(2.0) - 2.0 * math.pi) < 1e-12
    assert fam.orbit_class == "integrable_1d"  # marginally stable
    assert fam.phase_per_period == math.pi  # two turning points, pi/2 each


def test_box_orbit_invariants(box1d):
    e = 3.0
    fam = sp.box_orbit_family(box1d)
    p = math.sqrt(2.0 * e)
    assert abs(fam.action(e) - 2.0 * p) < 1e-12  # S = 2 L sqrt(2 m E)
    assert abs(fam.period(e) - 2.0 / p) < 1e-12  # T = 2 L sqrt(m / 2E)
    assert fam.orbit_class == "integrable_1d"
    assert fam.phase_per_period == 2.0 * math.pi  # two hard walls, pi each


@pytest.mark.parametrize("name, energy, tol", [("ho1d", 2.0, 1e-8), ("box1d", 3.0, 1e-12)])
def test_integrated_period_action_matches_family(request, name, energy, tol):
    """One integrated period from a turning point (oscillator) or the left wall (box):
    Simpson of p^2/m over 2,001 dense samples is the family's action."""
    system = request.getfixturevalue(name)
    fam = sp.orbit_families(system)[0]
    m = system.constants.mass
    if system.kind == "harmonic":
        w = system.omegas[0]
        start = sy.PhaseState((math.sqrt(2.0 * energy / (m * w * w)),), (0.0,))
    else:
        start = sy.PhaseState((0.0,), (math.sqrt(2.0 * m * energy),))
    period = float(fam.period(energy))
    tt = np.linspace(0.0, period, 2001)
    samples = integrate_classical(system, start, period, tol=ob.TOL).at(tt)
    assert abs(simpson(samples[:, 1] ** 2 / m, x=tt) - fam.action(energy)) < tol
    assert abs(samples[-1, 0] - start.q[0]) < 1e-8  # back where it started


def test_degenerate_orbit_rejected(orbits_eps1):
    orbits, _ = orbits_eps1
    import dataclasses

    broken = dataclasses.replace(orbits[0], tau_period=0.0)
    with pytest.raises(DomainError):
        ob.orbit_invariants(broken)

