"""Level densities, trace-formula sums and quantum recurrence spectra.

The oscillating part of the level density is assembled from periodic-orbit
families carrying S(E), T(E), a stability record and a phase rule; the
amplitude convention is selected by an explicit orbit-class tag because the
integrable 1D amplitude T/(pi hbar) and the isolated-orbit amplitude
T/(pi hbar |det(M^k - 1)|^(1/2)) do not share a formula.  Gaussian energy
smoothing of width gamma is applied as the standard damping factor
exp(-(k T gamma)^2 / 2 hbar^2) on the k-th repetition, which is the
stationary-phase form of convolving the cosine with the Gaussian (exact
whenever T is energy independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import DomainError
from .quantum import Superposition
from .systems import SolvableSystem

__all__ = [
    "mean_level_density",
    "OrbitFamily",
    "harmonic_orbit_family",
    "box_orbit_family",
    "LevelDensity",
    "trace_formula_density",
    "RecurrenceSpectrum",
    "recurrence_spectrum",
    "match_peaks_to_orbits",
    "PEAK_FLOOR",
]

PEAK_FLOOR = 0.05


def mean_level_density(system: SolvableSystem, energy: float) -> float:
    """Smooth (Weyl) level density: phase-space shell volume over (2 pi hbar)^D."""
    hbar, m = system.constants.hbar, system.constants.mass
    if energy <= 0.0:
        return 0.0
    if system.kind == "harmonic":
        if system.dimension == 1:
            return 1.0 / (hbar * system.omegas[0])
        return energy / (hbar**2 * system.omegas[0] * system.omegas[1])
    if system.kind == "box":
        if system.dimension == 1:
            return system.lengths[0] / (math.pi * hbar) * math.sqrt(m / (2.0 * energy))
        area = system.lengths[0] * system.lengths[1]
        return m * area / (2.0 * math.pi * hbar**2)
    raise DomainError("mean level density needs a bound solvable system")


@dataclass(frozen=True)
class OrbitFamily:
    """A primitive periodic orbit as energy-dependent trace-formula input.

    `action` and `period` map an array of energies to an array of that
    shape (`monodromy_trace` too, for isolated orbits).  orbit_class selects
    the amplitude rule: "integrable_1d" uses T/(pi hbar) with
    `phase_per_period` accumulated per repetition; "isolated" uses the
    monodromy-trace rule with pi/2 per conjugate point per repetition.
    """

    label: str
    action: object
    period: object
    orbit_class: str
    phase_per_period: float = math.pi
    monodromy_trace: object = None

    def amplitude(self, energy, k: int, hbar: float):
        """Amplitude of the k-th repetition at each energy."""
        t = self.period(energy)
        if self.orbit_class == "integrable_1d":
            return t / (math.pi * hbar)
        if self.orbit_class == "isolated":
            half = np.asarray(self.monodromy_trace(energy), dtype=float) / 2.0
            sign = np.where(half > 0, 1.0, (-1.0) ** k)
            with np.errstate(invalid="ignore"):  # each branch is nan where the other holds
                hyperbolic = 2.0 * np.cosh(k * np.arccosh(np.abs(half))) * sign  # 2 cosh(k u)
                elliptic = 2.0 * np.cos(k * np.arccos(half))  # tr M^k = 2 cos(k theta)
            det = np.abs(np.where(np.abs(half) > 1.0, hyperbolic, elliptic) - 2.0)
            if np.any(det < 1e-12):
                raise DomainError("marginally stable orbit has no isolated amplitude")
            return t / (math.pi * hbar * np.sqrt(det))
        raise DomainError(f"unknown orbit class {self.orbit_class!r}")


def harmonic_orbit_family(system: SolvableSystem) -> OrbitFamily:
    """The single libration family of a 1D oscillator; two turning points."""
    if system.kind != "harmonic" or system.dimension != 1:
        raise DomainError("harmonic_orbit_family needs a 1D oscillator")
    w = system.omegas[0]
    return OrbitFamily(
        label="oscillator",
        action=lambda e: 2.0 * math.pi * e / w,
        period=lambda e: np.full(np.shape(e), 2.0 * math.pi / w),
        orbit_class="integrable_1d",
        phase_per_period=math.pi,  # two smooth turning points
    )


def box_orbit_family(system: SolvableSystem) -> OrbitFamily:
    """Wall-to-wall round trip of the 1D box; two hard bounces per period."""
    if system.kind != "box" or system.dimension != 1:
        raise DomainError("box_orbit_family needs a 1D box")
    L = system.lengths[0]
    m = system.constants.mass
    return OrbitFamily(
        label="box",
        action=lambda e: 2.0 * L * np.sqrt(2.0 * m * e),
        period=lambda e: 2.0 * L * np.sqrt(m / (2.0 * e)),
        orbit_class="integrable_1d",
        phase_per_period=2.0 * math.pi,  # pi per hard wall bounce
    )


@dataclass
class LevelDensity:
    """Mean plus oscillatory level density on an energy grid."""

    energies: np.ndarray
    mean: np.ndarray
    oscillatory: np.ndarray
    smoothing_width: float

    @property
    def total(self) -> np.ndarray:
        return self.mean + self.oscillatory

    def local_maxima(self, floor: float = -math.inf) -> list:
        """Strictly-above-neighbours maxima of the total, leftmost on plateaus."""
        return _local_maxima(self.energies, self.total, floor)

    def to_csv(self, path) -> None:
        write_csv(path, ["E", "mean", "oscillatory", "total"],
                  [self.energies, self.mean, self.oscillatory, self.total])


def trace_formula_density(system: SolvableSystem, families, energies,
                          repetitions: int, gamma: float) -> LevelDensity:
    """Periodic-orbit sum for the smoothed level density on an energy grid.

    d(E) = dbar(E) + sum over families and repetitions k <= `repetitions` of
    A_jk cos(k S_j / hbar - k phi_j), damped by the Gaussian smoothing
    factor.  An empty family list returns the mean part alone.
    """
    if gamma <= 0:
        raise DomainError("smoothing width must be positive")
    hbar = system.constants.hbar
    energies = np.asarray(energies, dtype=float)
    mean = np.array([mean_level_density(system, e) for e in energies])
    positive = energies > 0
    e = energies[positive]
    part = np.zeros_like(e)
    for fam in families:
        s, t = fam.action(e), fam.period(e)
        for k in range(1, repetitions + 1):
            damp = np.exp(-0.5 * (k * t * gamma / hbar) ** 2)
            live = damp >= 1e-16  # damp falls with k: an energy dropped stays dropped
            if not np.any(live):
                break
            phase = k * s[live] / hbar - k * fam.phase_per_period
            part[live] += fam.amplitude(e[live], k, hbar) * damp[live] * np.cos(phase)
    osc = np.zeros_like(energies)
    osc[positive] = part
    return LevelDensity(energies, mean, osc, gamma)


def _local_maxima(xs, ys, floor):
    peaks = []
    n = len(ys)
    i = 1
    while i < n - 1:
        if ys[i] > ys[i - 1] and ys[i] > floor:
            j = i
            while j + 1 < n and ys[j + 1] == ys[i]:
                j += 1  # plateau: resolve to the leftmost sample
            if j + 1 < n and ys[j + 1] < ys[i]:
                peaks.append((float(xs[i]), float(ys[i])))
            i = j + 1
        else:
            i += 1
    return peaks


@dataclass
class RecurrenceSpectrum:
    """|autocorrelation|(t) with detected peaks and orbit associations."""

    times: np.ndarray
    abs_c: np.ndarray
    peaks: list
    associations: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "abs_C"], [self.times, self.abs_c])


def recurrence_spectrum(sup: Superposition, times) -> RecurrenceSpectrum:
    """|C(t)| with C(t) = sum |c_n|^2 exp(-i E_n t / hbar), plus its peaks.

    Peaks are strict local maxima above the 0.05 floor; the t = 0 sample is
    the trivial full recurrence |C| = 1 and is not listed as a peak.
    """
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise DomainError("recurrence grid must start at t = 0")
    hbar = sup.system.constants.hbar
    weights = np.abs(sup.coefficients) ** 2
    energies = sup.energies
    phases = np.exp(-1j * np.outer(times, energies) / hbar)
    c = phases @ weights
    abs_c = np.abs(c)
    peaks = _local_maxima(times, abs_c, PEAK_FLOOR)
    return RecurrenceSpectrum(times, abs_c, peaks)


def match_peaks_to_orbits(spectrum: RecurrenceSpectrum, orbits, tol: float) -> list:
    """Associate each peak with the orbit repetitions whose period matches.

    Every orbit repetition within `tol` of the peak time is listed (several
    orbits can share a period); a peak with no candidate is flagged with
    orbit None.  The associations are also stored on the spectrum.
    """
    associations = []
    for t_peak, height in spectrum.peaks:
        candidates = []
        for idx, orb in enumerate(orbits):
            period = orb.period if hasattr(orb, "period") else float(orb)
            if period <= 0:
                continue
            k = max(1, int(round(t_peak / period)))
            delta = abs(t_peak - k * period)
            if delta <= tol:
                candidates.append({
                    "peak_t": t_peak,
                    "peak_height": height,
                    "orbit": idx,
                    "repetition": k,
                    "delta_t": delta,
                })
        if candidates:
            candidates.sort(key=lambda a: a["delta_t"])
            associations.extend(candidates)
        else:
            associations.append({
                "peak_t": t_peak,
                "peak_height": height,
                "orbit": None,
                "repetition": 0,
                "delta_t": math.inf,
            })
    spectrum.associations = associations
    return associations
