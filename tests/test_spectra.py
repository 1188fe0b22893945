import math

import numpy as np
import oracles
import pytest

from pilotwave import quantum as qm
from pilotwave import spectra as sp
from pilotwave import systems as sy
from pilotwave.errors import DomainError


def test_mean_density_harmonic_1d(ho1d):
    assert math.isclose(sp.mean_level_density(ho1d, 1.0), 1.0)
    assert math.isclose(sp.mean_level_density(ho1d, 7.3), 1.0)  # E independent
    assert sp.mean_level_density(ho1d, -0.5) == 0.0


def test_mean_density_box_2d_formula(box2d):
    area = box2d.lengths[0] * box2d.lengths[1]
    assert math.isclose(sp.mean_level_density(box2d, 5.0), area / (2.0 * math.pi))


def test_mean_density_vs_first_levels_staircase(box2d):
    """Slope of the counting staircase: the area term plus a perimeter deficit.

    Over the first 200 levels the Weyl perimeter correction still depresses
    the slope by several percent; the high windows converge to the area term.
    """
    levels = oracles.exact_levels(box2d, 1800)
    dbar = sp.mean_level_density(box2d, 1.0)
    first = np.polyfit(levels[:200], np.arange(1, 201) - 0.5, 1)[0]
    assert abs(first / dbar - 1.0) < 0.08
    high = np.polyfit(levels[1600:1800], np.arange(1601, 1801) - 0.5, 1)[0]
    assert abs(high / dbar - 1.0) < 0.02


def test_mean_density_monte_carlo(box2d, ho2d_aniso):
    for system, e in ((box2d, 800.0), (ho2d_aniso, 8.0)):
        mc = oracles.mean_level_density_mc(system, e, n_samples=10**6, seed=5)
        an = sp.mean_level_density(system, e)
        assert abs(mc / an - 1.0) < 0.01
    assert oracles.mean_level_density_mc(box2d, -1.0) == 0.0


def test_trace_formula_harmonic_peaks(ho1d):
    fam = sp.harmonic_orbit_family(ho1d)
    grid = np.linspace(0.05, 5.5, 4001)
    density = sp.trace_formula_density(ho1d, [fam], grid, repetitions=50, gamma=0.03)
    peaks = [e for e, _ in density.local_maxima(floor=0.5)]
    assert len(peaks) >= 5
    for n in range(5):
        assert abs(peaks[n] - (n + 0.5)) < 0.01  # within 1% of the spacing


def test_trace_formula_no_repetitions_is_mean(ho1d):
    fam = sp.harmonic_orbit_family(ho1d)
    grid = np.linspace(0.1, 3.0, 101)
    density = sp.trace_formula_density(ho1d, [fam], grid, repetitions=0, gamma=0.05)
    assert np.max(np.abs(density.oscillatory)) == 0.0
    assert np.allclose(density.total, density.mean)
    empty = sp.trace_formula_density(ho1d, [], grid, repetitions=50, gamma=0.05)
    assert np.max(np.abs(empty.oscillatory)) == 0.0


def test_trace_formula_requires_width(ho1d):
    with pytest.raises(DomainError):
        sp.trace_formula_density(ho1d, [], np.linspace(0.1, 1.0, 10),
                                 repetitions=1, gamma=0.0)


def test_smoothing_monotonicity(ho1d):
    """Doubling the width never increases the detected peak count."""
    fam = sp.harmonic_orbit_family(ho1d)
    grid = np.linspace(0.05, 5.5, 3001)
    floor = 1.05 * sp.mean_level_density(ho1d, 1.0)  # above the flat background
    counts = []
    for gamma in (0.03, 0.06, 0.12, 0.24, 0.48, 0.96):
        density = sp.trace_formula_density(ho1d, [fam], grid, repetitions=40, gamma=gamma)
        counts.append(len(density.local_maxima(floor=floor)))
    assert counts[0] >= 5
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] < counts[0]  # strong smoothing merges the peaks


def test_trace_formula_box_vs_exact_smoothed(box1d):
    """Like-for-like: trace sum vs Gaussian-smoothed exact delta spectrum."""
    fam = sp.box_orbit_family(box1d)
    grid = np.linspace(30.0, 160.0, 2001)
    gamma = 2.0
    density = sp.trace_formula_density(box1d, [fam], grid, repetitions=60, gamma=gamma)
    exact = oracles.smoothed_exact_density(oracles.exact_levels(box1d, 60), grid, gamma)
    assert np.max(np.abs(density.total - exact)) < 0.05 * np.max(exact)


def test_hbar_scaling_doubles_maxima(box1d):
    """Halving hbar doubles the oscillation count in a fixed energy window."""
    window = np.linspace(40.0, 140.0, 6001)

    def count(hbar):
        system = sy.SolvableSystem("box", sy.SystemConstants(hbar=hbar, dimension=1),
                                   lengths=(1.0,))
        fam = sp.box_orbit_family(system)
        density = sp.trace_formula_density(system, [fam], window, repetitions=1, gamma=1.0)
        osc = density.oscillatory
        return len(sp._local_maxima(window, osc, -math.inf))

    n1, n2 = count(1.0), count(0.5)
    assert abs(n2 - 2 * n1) <= 1


def test_isolated_amplitude_rule():
    fam = sp.OrbitFamily("unstable", action=lambda e: 2.0 * e, period=lambda e: 2.0,
                         orbit_class="isolated", phase_per_period=math.pi,
                         monodromy_trace=lambda e: 3.0)
    # tr M = 3 -> u = acosh(1.5); |det(M^k - 1)| = |2 cosh(ku) - 2|
    u = math.acosh(1.5)
    for k in (1, 2, 3):
        expected = 2.0 / (math.pi * math.sqrt(abs(2.0 * math.cosh(k * u) - 2.0)))
        assert math.isclose(fam.amplitude(1.0, k, 1.0), expected)
    marginal = sp.OrbitFamily("marginal", action=lambda e: e, period=lambda e: 1.0,
                              orbit_class="isolated", monodromy_trace=lambda e: 2.0)
    with pytest.raises(DomainError):
        marginal.amplitude(1.0, 1, 1.0)


def test_trace_formula_isolated_grid_matches_scalar_sum(ho1d):
    """The array sum over a grid equals the per-energy scalar sum of every repetition.

    The Gaussian damping cuts the repetitions at a different k per energy
    (the periods grow with E), and energies at or below zero carry no orbits.
    Elliptic (tr M in (-2, 2)) and hyperbolic (|tr M| > 2, both signs) orbits.
    """
    families = [
        sp.OrbitFamily("elliptic", action=lambda e: 3.0 * e, period=lambda e: 1.0 + 0.5 * e,
                       orbit_class="isolated", phase_per_period=math.pi / 2.0,
                       monodromy_trace=lambda e: 2.0 * np.cos(0.3 + 0.1 * e)),
        sp.OrbitFamily("hyperbolic", action=lambda e: 2.0 * e + 0.1 * e * e,
                       period=lambda e: 2.0 + 0.2 * e, orbit_class="isolated",
                       monodromy_trace=lambda e: 2.5 + e),
        sp.OrbitFamily("inverse", action=lambda e: 1.7 * e, period=lambda e: 1.5 + 0.0 * e,
                       orbit_class="isolated", phase_per_period=3.0 * math.pi / 2.0,
                       monodromy_trace=lambda e: -2.5 - 0.5 * e),
    ]
    grid = np.concatenate([[-0.5, 0.0], np.linspace(0.5, 3.0, 251)])
    reps, gamma, hbar = 10, 1.0, ho1d.constants.hbar
    density = sp.trace_formula_density(ho1d, families, grid, reps, gamma)
    for e, osc in zip(grid, density.oscillatory):
        total = scale = 0.0
        for fam in families:
            t = float(fam.period(e))
            half = float(fam.monodromy_trace(e)) / 2.0
            for k in range(1, reps + 1):
                damp = math.exp(-0.5 * (k * t * gamma / hbar) ** 2)
                if e <= 0 or damp < 1e-16:
                    break
                if abs(half) > 1.0:
                    sign = 1.0 if half > 0 else (-1.0) ** k
                    tr_k = 2.0 * math.cosh(k * math.acosh(abs(half))) * sign
                else:
                    tr_k = 2.0 * math.cos(k * math.acos(half))
                term = (t / (math.pi * hbar * math.sqrt(abs(tr_k - 2.0))) * damp
                        * math.cos(k * float(fam.action(e)) / hbar - k * fam.phase_per_period))
                total += term
                scale += abs(term)
        assert abs(osc - total) <= 1e-14 * scale
    assert np.all(density.oscillatory[:2] == 0.0)
    marginal = sp.OrbitFamily("marginal", action=lambda e: e, period=lambda e: 1.0 + 0.0 * e,
                              orbit_class="isolated", monodromy_trace=lambda e: 2.0 + 0.0 * e)
    with pytest.raises(DomainError):
        sp.trace_formula_density(ho1d, [families[0], marginal], grid, reps, gamma)


def test_recurrence_single_eigenstate(ho1d):
    sup = qm.Superposition.of(ho1d, [(1.0, 3)])
    t = np.linspace(0.0, 10.0, 501)
    spec = sp.recurrence_spectrum(sup, t)
    assert np.allclose(spec.abs_c, 1.0, atol=1e-14)
    assert spec.abs_c[0] == 1.0


def test_recurrence_two_mode_perfect(box1d):
    sup = qm.Superposition.of(box1d, [(1.0, 1), (1.0j, 2)])
    de = sup.energies[1] - sup.energies[0]
    t_rec = 2.0 * math.pi / de
    t = np.linspace(0.0, 3.2 * t_rec, 3001)
    spec = sp.recurrence_spectrum(sup, t)
    peaks = [p for p, _ in spec.peaks]
    assert len(peaks) >= 3
    for k, p in enumerate(peaks[:3], start=1):
        assert abs(p - k * t_rec) < t[1] - t[0]
        # perfect recurrences
        idx = np.argmin(np.abs(t - p))
        assert spec.abs_c[idx] > 0.999


def test_recurrence_coherent_like_peaks(ho1d):
    nbar = 8.0
    ns = np.arange(0, 30)
    logw = -nbar + ns * math.log(nbar) - np.array([math.lgamma(n + 1.0) for n in ns])
    sup = qm.Superposition.of(ho1d, [(float(c), int(n))
                                     for c, n in zip(np.exp(0.5 * logw), ns)])
    t = np.linspace(0.0, 20.0, 4001)
    spec = sp.recurrence_spectrum(sup, t)
    assert abs(spec.abs_c[0] - 1.0) < 1e-12
    assert np.all(spec.abs_c <= 1.0 + 1e-12)
    period = 2.0 * math.pi
    assert len(spec.peaks) >= 3
    for k, (p, h) in enumerate(spec.peaks[:3], start=1):
        assert abs(p - k * period) < 2.0 * (t[1] - t[0])
        assert h > 0.9


def test_recurrence_phase_invariance(two_mode_box_complex, box1d):
    t = np.linspace(0.0, 2.0, 801)
    a = sp.recurrence_spectrum(two_mode_box_complex, t)
    rotated = qm.Superposition(box1d, tuple(
        (c * np.exp(0.7j), st) for c, st in two_mode_box_complex.terms))
    b = sp.recurrence_spectrum(rotated, t)
    assert np.max(np.abs(a.abs_c - b.abs_c)) < 1e-12
    assert [p for p, _ in a.peaks] == [p for p, _ in b.peaks]  # positions bitwise
    assert all(abs(ha - hb) < 1e-12 for (_, ha), (_, hb) in zip(a.peaks, b.peaks))


def test_recurrence_grid_must_start_at_zero(two_mode_box):
    with pytest.raises(DomainError):
        sp.recurrence_spectrum(two_mode_box, np.linspace(1.0, 2.0, 10))


def test_peak_floor_and_plateau():
    xs = np.arange(7.0)
    ys = np.array([0.2, 0.04, 0.2, 0.5, 0.5, 0.5, 0.1])
    peaks = sp._local_maxima(xs, ys, 0.05)
    assert peaks == [(3.0, 0.5)]  # plateau resolves to its leftmost sample


def test_match_peaks(ho1d):
    period = float(sp.harmonic_orbit_family(ho1d).period(4.0))
    spec = sp.RecurrenceSpectrum(np.linspace(0, 20, 101), np.zeros(101),
                                 peaks=[(2.0 * math.pi, 0.9), (4.0 * math.pi, 0.8), (3.0, 0.5)])
    assoc = sp.match_peaks_to_orbits(spec, [period], tol=0.05)
    by_peak = {round(a["peak_t"], 6): a for a in assoc}
    assert by_peak[round(2.0 * math.pi, 6)]["repetition"] == 1
    assert by_peak[round(4.0 * math.pi, 6)]["repetition"] == 2
    assert by_peak[3.0]["orbit"] is None  # flagged unmatched
    empty = sp.RecurrenceSpectrum(np.linspace(0, 1, 11), np.zeros(11), peaks=[])
    assert sp.match_peaks_to_orbits(empty, [period], tol=0.05) == []


def test_match_lists_all_orbits_within_tolerance(ho1d):
    fam = sp.harmonic_orbit_family(ho1d)
    a, b = float(fam.period(2.0)), float(fam.period(3.0))  # same period: both must be listed
    spec = sp.RecurrenceSpectrum(np.linspace(0, 10, 11), np.zeros(11),
                                 peaks=[(2.0 * math.pi, 1.0)])
    assoc = sp.match_peaks_to_orbits(spec, [a, b], tol=0.05)
    assert {x["orbit"] for x in assoc} == {0, 1}
