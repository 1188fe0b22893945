import math

import numpy as np
import oracles
import pytest

from pilotwave import quantum as qm
from pilotwave import systems as sy
from pilotwave.config import build_state
from pilotwave.errors import DomainError, NodeSingularityError


def test_box_mode_peak_value(box1d):
    st = qm.eigenstate(box1d, 1)
    v, g, l = oracles.eigenfunction(box1d, st, 0.5)
    assert math.isclose(float(v), math.sqrt(2.0), rel_tol=1e-14)
    assert abs(float(g)) < 1e-12  # maximum of the ground mode


def test_box_walls_and_domain(box1d):
    st = qm.eigenstate(box1d, 3)
    v, _, _ = oracles.eigenfunction(box1d, st, np.array([0.0, 1.0]))
    assert np.allclose(v, 0.0)
    with pytest.raises(DomainError):
        oracles.eigenfunction(box1d, st, 1.2)


def test_harmonic_ground_value_and_gradient(ho1d):
    st = qm.eigenstate(ho1d, 0)
    v, g, _ = oracles.eigenfunction(ho1d, st, 0.0)
    assert math.isclose(float(v), (1.0 / math.pi) ** 0.25, rel_tol=1e-14)
    assert float(g) == 0.0


@pytest.mark.parametrize("system_name,pairs", [
    ("box1d", [(1, 1), (1, 2), (2, 3), (4, 4)]),
    ("ho1d", [(0, 0), (0, 1), (2, 5), (3, 3)]),
])
def test_orthonormality_quadrature(system_name, pairs, request):
    system = request.getfixturevalue(system_name)
    if system.kind == "box":
        lo, hi = 0.0, system.lengths[0]
    else:
        lo, hi = -12.0, 12.0
    nodes, weights = np.polynomial.legendre.leggauss(220)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    for m, n in pairs:
        vm, _, _ = oracles.eigenfunction(system, qm.eigenstate(system, m), x)
        vn, _, _ = oracles.eigenfunction(system, qm.eigenstate(system, n), x)
        overlap = float(np.sum(w * vm * vn))
        assert abs(overlap - (1.0 if m == n else 0.0)) < 1e-8


def test_energies_closed_form(box1d, ho1d, box2d, ho2d_aniso):
    assert math.isclose(qm.eigenstate(box1d, 2).energy, 4.0 * math.pi**2 / 2.0)
    assert math.isclose(qm.eigenstate(ho1d, 3).energy, 3.5)
    e = qm.eigenstate(box2d, 1, 2).energy
    assert math.isclose(e, (math.pi**2 / 2.0) * (1.0 + 4.0 / 2.0))
    e2 = qm.eigenstate(ho2d_aniso, 1, 1).energy
    assert math.isclose(e2, 1.5 + 1.5 * math.sqrt(2.0))


def test_free_plane_wave():
    fp = sy.free_particle()
    st = qm.eigenstate(fp, 2.5)
    v, g, l = oracles.eigenfunction(fp, st, 0.3)
    assert np.isclose(v, np.exp(1j * 2.5 * 0.3))
    assert np.isclose(complex(np.asarray(g).ravel()[0]), 1j * 2.5 * v)
    assert np.isclose(l, -(2.5**2) * v)
    assert math.isclose(st.energy, 2.5**2 / 2.0)


def test_superposition_normalized(box1d):
    sup = qm.Superposition.of(box1d, [(3.0, 1), (4.0j, 2)])
    assert abs(np.sum(np.abs(sup.coefficients) ** 2) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        qm.Superposition.of(box1d, [])
    with pytest.raises(DomainError):
        qm.Superposition.of(box1d, [(0.0, 1)])


def test_stationary_state_density_time_independent(box1d):
    sup = qm.Superposition.of(box1d, [(1.0, 2)])
    x = np.linspace(0.05, 0.95, 17)
    p0, _, _ = qm.evaluate_wavefunction(sup, x, 0.0)
    p1, _, _ = qm.evaluate_wavefunction(sup, x, 7.3)
    assert np.max(np.abs(np.abs(p1) - np.abs(p0))) < 1e-12


def test_gradient_matches_finite_difference(two_mode_box_complex):
    sup = two_mode_box_complex
    h = 1e-6
    for x in (0.21, 0.48, 0.83):
        psi, grad, _ = qm.evaluate_wavefunction(sup, x, 0.37)
        pp, _, _ = qm.evaluate_wavefunction(sup, x + h, 0.37)
        pm, _, _ = qm.evaluate_wavefunction(sup, x - h, 0.37)
        fd = (pp - pm) / (2.0 * h)
        assert abs(grad - fd) / abs(fd) < 1e-6


def test_two_term_periodicity(two_mode_box_complex):
    sup = two_mode_box_complex
    de = sup.energies[1] - sup.energies[0]
    t_rec = 2.0 * math.pi / de
    x = np.linspace(0.1, 0.9, 9)
    p0, _, _ = qm.evaluate_wavefunction(sup, x, 0.2)
    p1, _, _ = qm.evaluate_wavefunction(sup, x, 0.2 + t_rec)
    phase = p1[4] / p0[4]
    assert np.max(np.abs(p1 - phase * p0)) < 1e-10  # equal up to a global phase


def test_polar_fields_real_psi_means_zero_sigma(box1d):
    sup = qm.Superposition.of(box1d, [(1.0, 1)])
    s = qm.wavefield_sample(sup, 0.3, 0.0)
    assert s.sigma == 0.0
    assert np.allclose(s.grad_sigma, 0.0)


def test_quantum_potential_harmonic_ground(ho1d):
    sup = qm.Superposition.of(ho1d, [(1.0, 0)])
    for x in (-1.7, -0.2, 0.0, 0.9, 2.4):
        s = qm.wavefield_sample(sup, x, 0.0)
        vq = float(ho1d.potential(np.asarray(x))) + s.Q
        assert abs(vq - 0.5) < 1e-10


def test_plane_wave_polar_fields():
    fp = sy.free_particle()
    sup = qm.Superposition.of(fp, [(1.0, 1.7)])
    s = qm.wavefield_sample(sup, 0.4, 0.1)
    assert np.allclose(s.grad_sigma, 1.7)
    assert abs(s.Q) < 1e-12


def test_exact_node_raises(box1d):
    with pytest.raises(NodeSingularityError):
        qm.polar_fields((0.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j), box1d.constants)
    # floating-point near-node (sin(pi) rounds to ~1e-16) is flagged, not fatal
    sup = qm.Superposition.of(box1d, [(1.0, 2)])
    s = qm.wavefield_sample(sup, 0.5, 0.0)
    assert s.node_flag


def test_quantum_hamilton_jacobi_residual(two_mode_box_complex):
    """The polar fields solve the phase-action transport equation."""
    sup = two_mode_box_complex
    m = sup.system.constants.mass
    rng = np.random.default_rng(5)
    dt = 5e-6  # sigma oscillates fast near node passages; O(dt^2) truncation
    worst = 0.0
    for _ in range(50):
        x, t = rng.uniform(0.1, 0.9), rng.uniform(0.0, 2.0)
        s = qm.wavefield_sample(sup, x, t)
        if s.rho < 0.05:
            continue
        pp, _, _ = qm.evaluate_wavefunction(sup, x, t + dt)
        pm, _, _ = qm.evaluate_wavefunction(sup, x, t - dt)
        dsigma_dt = np.angle(pp / pm) / (2.0 * dt)  # nearest-branch difference
        resid = dsigma_dt + float(s.grad_sigma @ s.grad_sigma) / (2.0 * m) + s.Q
        worst = max(worst, abs(resid))
    assert worst < 1e-6


def test_continuity_residual(two_mode_box_complex):
    sup = two_mode_box_complex
    m = sup.system.constants.mass
    rng = np.random.default_rng(6)
    dt = 2e-5
    worst = 0.0
    for _ in range(50):
        x, t = rng.uniform(0.1, 0.9), rng.uniform(0.0, 2.0)
        pp, _, _ = qm.evaluate_wavefunction(sup, x, t + dt)
        pm, _, _ = qm.evaluate_wavefunction(sup, x, t - dt)
        drho2_dt = (abs(pp) ** 2 - abs(pm) ** 2) / (2.0 * dt)
        psi, grad, lap = qm.evaluate_wavefunction(sup, x, t)
        div_j = np.imag(np.conjugate(psi) * lap) / m
        worst = max(worst, abs(drho2_dt + div_j))
    assert worst < 1e-6


def test_laplacian_matches_stencils(two_mode_box_complex, ho2d_aniso):
    sup = two_mode_box_complex
    h = 1e-4
    for x in (0.3, 0.62):
        _, _, lap = qm.evaluate_wavefunction(sup, x, 0.4)
        pts = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
        psi, _, _ = qm.evaluate_wavefunction(sup, pts, 0.4)
        fd = (-psi[0] + 16 * psi[1] - 30 * psi[2] + 16 * psi[3] - psi[4]) / (12 * h * h)
        assert abs(lap - fd) / abs(fd) < 1e-5
    sup2 = qm.Superposition.of(ho2d_aniso, [(1.0, (1, 0)), (1j, (0, 1))])
    x0 = np.array([0.4, -0.3])
    _, _, lap = qm.evaluate_wavefunction(sup2, x0, 0.1)
    acc = 0.0
    for i in range(2):
        pts = np.stack([x0 + k * h * np.eye(2)[i] for k in (-2, -1, 0, 1, 2)])
        psi, _, _ = qm.evaluate_wavefunction(sup2, pts, 0.1)
        acc += (-psi[0] + 16 * psi[1] - 30 * psi[2] + 16 * psi[3] - psi[4]) / (12 * h * h)
    assert abs(lap - acc) / abs(acc) < 1e-5


def test_normalization_quadrature_catalog(two_mode_box, vortex_plus, chaotic_aniso_state):
    for sup, t in ((two_mode_box, 0.0), (two_mode_box, 1.7),
                   (vortex_plus, 0.3), (chaotic_aniso_state, 2.2)):
        order = 400 if sup.system.dimension == 1 else 160
        assert abs(qm.norm_quadrature(sup, t, order=order) - 1.0) < 1e-6


def test_sigma_unwrap_continuity():
    fp = sy.free_particle()
    sup = qm.Superposition.of(fp, [(1.0, 3.0)])
    xs = np.linspace(0.0, 10.0, 300)
    sigmas = np.array([qm.wavefield_sample(sup, x, 0.0).sigma for x in xs])
    unwrapped = np.unwrap(sigmas, period=2.0 * math.pi)  # hbar = 1
    # plane wave sigma = hbar k x, continuous after unwrapping
    assert np.max(np.abs(unwrapped - 3.0 * xs)) < 1e-9
    assert np.max(np.abs(np.diff(unwrapped))) < math.pi


def test_find_nodes_1d(box1d):
    sup = qm.Superposition.of(box1d, [(1.0, 2)])
    nodes = qm.find_nodes(sup, (0.02, 0.98), 0.0, resolution=100)
    assert nodes.size == 1
    assert abs(nodes[0] - 0.5) < 1e-8
    ground = qm.Superposition.of(box1d, [(1.0, 1)])
    assert qm.find_nodes(ground, (0.02, 0.98), 0.0, resolution=100).size == 0


def test_find_nodes_2d_matches_finer_oracle(box2d):
    sup = qm.Superposition.of(box2d, [(1.0, (1, 2)), (0.8j, (2, 1))])
    lo = np.array([0.03, 0.03])
    hi = np.array([0.97, 1.38])
    coarse = qm.find_nodes(sup, (lo, hi), 0.4, resolution=60)
    fine = qm.find_nodes(sup, (lo, hi), 0.4, resolution=600)
    assert len(coarse) == len(fine)
    # refined positions agree pairwise
    for p in coarse:
        assert np.min(np.linalg.norm(fine - p, axis=1)) < 1e-8


def test_spec_file_norm_warning(box1d):
    doc = {"system": {"kind": "box", "dimension": 1, "lengths": [1.0]},
           "terms": [{"c_re": 1.0, "c_im": 0.0, "n": [1]},
                     {"c_re": 1.0, "c_im": 0.0, "n": [2]}]}
    with pytest.warns(UserWarning):
        sup = qm.superposition_from_dict(doc)
    assert abs(np.sum(np.abs(sup.coefficients) ** 2) - 1.0) < 1e-12
    with pytest.warns(UserWarning, match="renormalizing"):
        checked = build_state(doc)  # the scenario reader: checked field by field, then built
    assert checked.system == box1d
    assert np.array_equal(checked.coefficients, sup.coefficients)
