import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare

from pilotwave import ensembles as en
from pilotwave import quantum as qm
from pilotwave import systems as sy
from pilotwave.errors import DomainError


def test_empty_ensemble(two_mode_box):
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, 0, seed=1)
    assert ens.size == 0
    evo = en.evolve_ensemble(ens, two_mode_box, 1.0)
    assert evo.ensemble.size == 0
    with pytest.raises(DomainError):
        en.sample_quantum_equilibrium(two_mode_box, 0.0, -1, seed=1)


def test_sampling_deterministic(two_mode_box):
    a = en.sample_quantum_equilibrium(two_mode_box, 0.3, 2000, seed=99)
    b = en.sample_quantum_equilibrium(two_mode_box, 0.3, 2000, seed=99)
    assert np.array_equal(a.positions, b.positions)
    c = en.sample_quantum_equilibrium(two_mode_box, 0.3, 2000, seed=100)
    assert not np.array_equal(a.positions, c.positions)


def test_sampling_chi_squared(two_mode_box):
    n = 100_000
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, n, seed=3)
    p = en.bin_probabilities(two_mode_box, 0.0, bins=50)
    counts, _ = np.histogram(ens.positions, bins=50, range=(0.0, 1.0))
    _, pval = chisquare(counts, f_exp=n * p / p.sum())
    assert pval > 0.01


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(("box", "harmonic")), d=st.sampled_from((1, 2)), data=st.data(),
       t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_equivariance_l1_at_t0_is_sampling_noise(kind, d, data, t, seed):
    """A freshly sampled ensemble's `equivariance_l1` at its own time: within the
    multinomial mean of the L1 distance plus a margin.

    With p_i the exact bin contents and N members, E|f_i - p_i| is de Moivre's
    2 m (1 - p_i) Binom(m; N, p_i) / N, m = floor(N p_i) + 1.  Moving one
    member moves the L1 distance by at most 2 / N, so by McDiarmid's
    inequality it exceeds its mean by sqrt(2 ln(1e9) / N) with probability
    below 1e-9.
    """
    n, bins, low = 2000, 20, 1 if kind == "box" else 0
    terms = data.draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2.0 * math.pi),
                                         st.tuples(*[st.integers(low, low + 3)] * d)),
                               min_size=1, max_size=3, unique_by=lambda term: term[2]))
    system = (sy.SolvableSystem("box", sy.SystemConstants(dimension=d), lengths=(1.0, 1.3)[:d])
              if kind == "box" else sy.harmonic(*(1.0, math.sqrt(2.0))[:d]))
    sup = qm.Superposition.of(system, [(r * cmath.exp(1j * phi), q) for r, phi, q in terms])
    ens = en.sample_quantum_equilibrium(sup, t, n, seed)
    p = en.bin_probabilities(sup, t, bins).ravel()
    m = np.floor(n * p) + 1
    mean = float(np.sum(2.0 * m * (1.0 - p) * binom.pmf(m, n, p))) / n
    assert en.equivariance_l1(ens, sup, bins) <= mean + math.sqrt(2.0 * math.log(1e9) / n)


def test_bin_probabilities_sum_to_one(two_mode_box, vortex_plus):
    assert abs(np.sum(en.bin_probabilities(two_mode_box, 0.7)) - 1.0) < 1e-9
    assert abs(np.sum(en.bin_probabilities(vortex_plus, 0.0, bins=40)) - 1.0) < 1e-6


def test_evolution_identity(two_mode_box):
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.5, 500, seed=4)
    evo = en.evolve_ensemble(ens, two_mode_box, 0.5)
    assert np.array_equal(evo.ensemble.positions, ens.positions)
    assert evo.ensemble.t == 0.5


def test_equivariance_moderate_n(two_mode_box):
    t_beat = 2.0 * math.pi / (two_mode_box.energies[1] - two_mode_box.energies[0])
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, 20_000, seed=12)
    evo = en.evolve_ensemble(ens, two_mode_box, 2.0 * t_beat, tol=1e-6)
    l1_before = en.equivariance_l1(ens, two_mode_box)
    l1_after = en.equivariance_l1(evo.ensemble, two_mode_box)
    # transport is measure preserving: the sampling noise does not grow
    assert l1_after < l1_before + 0.01
    assert l1_after < 0.05


def test_two_seeds_agree_after_evolution(two_mode_box):
    """Seed choice only moves the sampling noise, not the transported law."""
    t_beat = 2.0 * math.pi / (two_mode_box.energies[1] - two_mode_box.energies[0])
    hists = []
    for seed in (101, 202):
        ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, 100_000, seed=seed)
        evo = en.evolve_ensemble(ens, two_mode_box, 2.0 * t_beat, tol=1e-6)
        hists.append(en.ensemble_histogram(evo.ensemble, two_mode_box, bins=50))
    assert float(np.sum(np.abs(hists[0] - hists[1]))) < 0.03


def test_per_member_matches_vectorized(two_mode_box):
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, 40, seed=7)
    a, _ = en._per_member(ens.positions, two_mode_box, 0.0, 0.4, 1e-9)
    b, _ = en._stacked(ens.positions, two_mode_box, 0.0, 0.4, 1e-9)
    assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize("seed", [101, 404])
def test_members_at_loose_tol_match_tight_run(chaotic_aniso_state, seed):
    """16 criterion-8 members, each in its own DOP853 run, at tol 1e-6 against 1e-12.

    Measured 4.8e-12 (seed 101) and 4.3e-7 (seed 404).
    """
    ens = en.sample_quantum_equilibrium(chaotic_aniso_state, 0.0, 16, seed=seed)
    loose, tight = (en.evolve_ensemble(ens, chaotic_aniso_state, 1.0, tol=tol)
                    for tol in (1e-6, 1e-12))
    assert not loose.node_reports and not tight.node_reports
    assert np.max(np.abs(loose.ensemble.positions - tight.ensemble.positions)) < 3e-5


# final positions of fixed starts, each member in its own run (hex, so bit for bit):
# a 1D box pair and the criterion-8 state
MEMBER_FINALS = [
    ("box", [0.1, 0.3, 0.5, 0.7, 0.9], (0.0, 0.5),
     ["0x1.4d6dafdfd768ep-4", "0x1.d0813ab99d92cp-3", "0x1.4ec2ad0560dcep-2",
      "0x1.c023c20cc0396p-2", "0x1.9aede4264dd7ap-1"]),
    ("aniso", [[-0.4, -0.8], [0.3, 0.2], [0.9, -0.1]], (1.0, 1.5),
     ["0x1.0e9938ad2c31dp-3", "-0x1.3d89a9f1eb96dp+0", "0x1.1ee61b79886bfp-3",
      "0x1.26f3c727733a3p-3", "0x1.f0146ab136dcdp-1", "-0x1.b4e21949f0513p-1"]),
]


@pytest.mark.parametrize("state, starts, span, finals", MEMBER_FINALS)
def test_small_ensemble_final_positions_pinned(two_mode_box_complex, chaotic_aniso_state,
                                               state, starts, span, finals):
    """Up to 256 members each step through the one-point guidance; their final
    positions stay bit for bit what they were before the batched kernel changed."""
    sup = two_mode_box_complex if state == "box" else chaotic_aniso_state
    evo = en.evolve_ensemble(en.Ensemble(3, np.array(starts), span[0]), sup, span[1])
    assert not evo.node_reports
    assert [float(v).hex() for v in evo.ensemble.positions.ravel()] == finals


def test_member_order_preserved(two_mode_box):
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, 64, seed=8)
    evo = en.evolve_ensemble(ens, two_mode_box, 0.05, tol=1e-9)  # per-member below 257
    # short evolution: members stay near their starts, order intact
    assert np.max(np.abs(evo.ensemble.positions - ens.positions)) < 0.2
    assert np.all(np.argsort(ens.positions) == np.argsort(evo.ensemble.positions))


def test_evolution_2d(vortex_plus):
    ens = en.sample_quantum_equilibrium(vortex_plus, 0.0, 3000, seed=5)
    assert ens.positions.shape == (3000, 2)
    evo = en.evolve_ensemble(ens, vortex_plus, 0.8, tol=1e-6)
    l1 = en.equivariance_l1(evo.ensemble, vortex_plus, bins=30)
    # 2D histogram noise floor at N=3000 over 900 cells is large; bound loosely
    assert l1 < 0.5
    assert evo.ensemble.positions.shape == (3000, 2)


def test_snapshot_csv(tmp_path, two_mode_box):
    ens = en.sample_quantum_equilibrium(two_mode_box, 0.0, 10, seed=2)
    path = tmp_path / "snap.csv"
    ens.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "member_id,x1"
    assert len(lines) == 11


@pytest.mark.parametrize("n,record", [
    (300, {"rho": pytest.approx(2.8e-16, rel=0.05)}),
    (20, {"error": "x0 inside node guard band"}),
])
def test_member_started_on_a_node_is_reported(box1d, n, record):
    """Equal weights of the two lowest box modes put a node at x = 1/3 at
    t0 = pi / (E2 - E1); member 17 starts on it.  The stacked path (above 256
    members) flags it at its first evaluation, with its position and |psi|; the
    per-member path reports the node guard error of its start.  The two record
    shapes differ."""
    sup = qm.Superposition.of(box1d, [(1.0, 1), (1.0, 2)])
    e1, e2 = sup.energies
    t0 = math.pi / (e2 - e1)
    positions = en.sample_quantum_equilibrium(sup, t0, n, seed=3).positions
    positions[17] = 1.0 / 3.0
    evo = en.evolve_ensemble(en.Ensemble(3, positions, t0), sup, t0 + 0.05)
    where = {"x": [1.0 / 3.0]} if n > 256 else {}
    assert evo.node_reports == [{"member_id": 17, "t": t0, **where, **record}]
