import math

import numpy as np
import oracles
import pytest
from conftest import VORTEX_PAIR_RADIUS, ngon
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pilotwave import bohmian as bm
from pilotwave import quantum as qm
from pilotwave import systems as sy
from pilotwave.errors import DomainError, NodeSingularityError


def test_eigenstate_velocity_zero(box1d, ho1d):
    for system, n in ((box1d, 2), (ho1d, 3)):
        sup = qm.Superposition.of(system, [(1.0j, n)])  # global phase is irrelevant
        for x in (0.21, 0.4, 0.77) if system.kind == "box" else (-1.0, 0.3, 1.5):
            assert abs(oracles.velocity_field(sup, x, 1.3)) < 1e-12


def test_plane_wave_velocity():
    fp = sy.free_particle(sy.SystemConstants(mass=2.0))
    sup = qm.Superposition.of(fp, [(1.0, 1.7)])
    v = oracles.velocity_field(sup, 0.3, 0.5)
    assert abs(v - 1.7 / 2.0) < 1e-14


def test_velocity_current_identity(two_mode_box_complex, chaotic_aniso_state):
    rng = np.random.default_rng(8)
    for _ in range(600):
        x, t = rng.uniform(0.05, 0.95), rng.uniform(0.0, 3.0)
        psi, _, _ = qm.evaluate_wavefunction(two_mode_box_complex, x, t)
        v = oracles.velocity_field(two_mode_box_complex, x, t)
        j = oracles.probability_current(two_mode_box_complex, x, t)
        assert abs(v * abs(psi) ** 2 - j) < 1e-10
    for _ in range(400):
        x = rng.uniform(-1.5, 1.5, 2)
        t = rng.uniform(0.0, 3.0)
        psi, _, _ = qm.evaluate_wavefunction(chaotic_aniso_state, x, t)
        v = oracles.velocity_field(chaotic_aniso_state, x, t)
        j = oracles.probability_current(chaotic_aniso_state, x, t)
        assert np.max(np.abs(v * abs(psi) ** 2 - j)) < 1e-10


def test_sampled_velocities_match_field(two_mode_box_complex):
    traj = bm.integrate_bohmian(two_mode_box_complex, [0.4], (0.0, 0.5), tol=1e-10)
    for k in range(0, traj.times.size, max(1, traj.times.size // 10)):
        v = oracles.velocity_field(two_mode_box_complex, traj.positions[k], traj.times[k])
        assert abs(v - traj.velocities[k]) < 1e-12


def test_node_guard_raises(box1d):
    sup = qm.Superposition.of(box1d, [(1.0, 2)])
    with pytest.raises(NodeSingularityError):
        oracles.velocity_field(sup, 0.5, 0.0)  # interior node of the n=2 mode
    with pytest.raises(NodeSingularityError):
        bm.integrate_bohmian(sup, [0.5], (0.0, 1.0))


@pytest.mark.parametrize("run", [lambda sup, x0, t0: bm.integrate_bohmian(sup, x0, (t0, t0 + 0.5)),
                                 lambda sup, x0, t0: bm.bohmian_lyapunov(sup, x0, 0.5, t0=t0)],
                         ids=["trajectory", "lyapunov"])
def test_start_on_a_node_raises(box1d, run):
    """x = 1/3 is a node of the equal-weight two-mode box at t0 = pi hbar / (E2 - E1):
    both entry points refuse the start before any step."""
    sup = qm.Superposition.of(box1d, [(1, 1), (1, 2)])
    t0 = math.pi / float(sup.energies[1] - sup.energies[0])
    with pytest.raises(NodeSingularityError, match="x0 inside node guard band") as info:
        run(sup, [1.0 / 3.0], t0)
    assert info.value.t == t0
    assert info.value.rho <= bm._node_threshold(sup)


@pytest.mark.parametrize("tol", [1e-3, 1e-5])
@pytest.mark.parametrize("x0", [0.001, 0.01, 0.99])
def test_start_near_wall_stays_in_box(two_mode_box, x0, tol):
    """Trial stages past a wall see the field just inside it instead of raising.

    At tol 1e-3 the runs end at the node guard, since the wall is a node.
    """
    traj = bm.integrate_bohmian(two_mode_box, [x0], (0.0, 5.0), tol=tol)
    assert np.all((traj.positions >= 0.0) & (traj.positions <= 1.0))


def test_eigenstate_rest(box1d):
    sup = qm.Superposition.of(box1d, [(1.0, 3)])
    traj = bm.integrate_bohmian(sup, [0.2], (0.0, 100.0), tol=1e-9)
    assert traj.complete
    assert np.max(np.abs(traj.positions - 0.2)) < 1e-12


def test_odd_mode_midline_never_crossed(box2d):
    """All terms vanish on y = Ly/2, so that line is a nodal barrier."""
    ly = box2d.lengths[1]
    sup = qm.Superposition.of(box2d, [(1.0, (1, 2)), (0.7j, (2, 2)), (0.4, (1, 4))])
    psi_mid, _, _ = qm.evaluate_wavefunction(sup, np.array([[0.31, ly / 2.0]]), 0.0)
    assert abs(psi_mid[0]) < 1e-14
    traj = bm.integrate_bohmian(sup, [0.4, 0.8 * ly], (0.0, 6.0), tol=1e-10)
    ys = traj.positions[:, 1]
    assert np.all(ys > ly / 2.0)


def test_time_reversal(two_mode_box_complex):
    tol = 1e-10
    fwd = bm.integrate_bohmian(two_mode_box_complex, [0.37], (0.0, 0.8), tol=tol)
    back = bm.integrate_bohmian(two_mode_box_complex, [fwd.positions[-1]], (0.8, 0.0), tol=tol)
    assert abs(back.positions[-1] - 0.37) < 10 * tol * 100


def test_newtonian_residual_smooth_two_mode(two_mode_box_complex):
    traj = bm.integrate_bohmian(two_mode_box_complex, [0.37], (0.0, 0.8), tol=1e-12)
    resid = bm.newtonian_residual(traj, two_mode_box_complex, n_samples=4001)
    assert resid < 1e-4


def test_dense_output_between_steps_matches_tight_run(chaotic_aniso_state):
    """`at()` at step midpoints reads the interpolant rebuilt from batched columns.

    Criterion-8 state over [1, 3] at tol 1e-9; measured 2.3e-9 from tol 1e-12.
    """
    runs = [bm.integrate_bohmian(chaotic_aniso_state, [-0.4, -0.8], (1.0, 3.0), tol=tol)
            for tol in (1e-9, 1e-12)]
    mid = 0.5 * (runs[0].times[:-1] + runs[0].times[1:])
    assert np.max(np.abs(runs[0].at(mid) - runs[1].at(mid))) < 1e-8


def test_newtonian_residual_eigenstate_force_balance(box1d):
    """At a rest point the total force (classical + quantum) vanishes."""
    sup = qm.Superposition.of(box1d, [(1.0, 2)])
    h = 1e-5
    for x0 in (0.23, 0.71):
        qp = qm.wavefield_sample(sup, x0 + h, 0.0).Q
        qx = qm.wavefield_sample(sup, x0 - h, 0.0).Q
        grad_q = (qp - qx) / (2.0 * h)
        # V = 0 inside the box; eigenstate Q = E - V is constant
        assert abs(grad_q) < 1e-8


def test_newtonian_residual_plane_wave():
    fp = sy.free_particle()
    sup = qm.Superposition.of(fp, [(1.0, 2.0)])
    traj = bm.integrate_bohmian(sup, [0.0], (0.0, 1.0), tol=1e-12)
    assert np.max(np.abs(traj.Q)) < 1e-12
    assert bm.newtonian_residual(traj, sup, n_samples=801) < 1e-8


def test_newtonian_residual_needs_samples(two_mode_box_complex):
    traj = bm.integrate_bohmian(two_mode_box_complex, [0.4], (0.0, 0.5), tol=1e-9)
    traj.times = traj.times[:2]
    with pytest.raises(DomainError):
        bm.newtonian_residual(traj, two_mode_box_complex)


def test_no_crossing(two_mode_box_complex):
    starts = (0.2, 0.35, 0.5, 0.65, 0.8)
    tt = np.linspace(0.0, 1.2, 241)
    paths = []
    for x0 in starts:
        traj = bm.integrate_bohmian(two_mode_box_complex, [x0], (0.0, 1.2), tol=1e-10)
        paths.append(traj.at(tt))
    paths = np.array(paths)
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            assert np.min(np.abs(paths[i] - paths[j])) > 0.0


def test_symmetry_replication(box2d):
    """x -> Lx - x symmetric superposition: the mirrored path is a solution."""
    lx = box2d.lengths[0]
    # odd n terms are symmetric about the box midline
    sup = qm.Superposition.of(box2d, [(1.0, (1, 1)), (0.6j, (1, 2)), (0.4, (3, 1))])
    tol = 1e-10
    traj = bm.integrate_bohmian(sup, [0.3, 0.6], (0.0, 3.0), tol=tol)
    mirror = bm.integrate_bohmian(sup, [lx - 0.3, 0.6], (0.0, 3.0), tol=tol)
    tt = np.linspace(0.0, 3.0, 101)
    a = traj.at(tt)
    b = mirror.at(tt)
    assert np.max(np.abs(a[:, 0] - (lx - b[:, 0]))) < 1e-7
    assert np.max(np.abs(a[:, 1] - b[:, 1])) < 1e-7


@pytest.mark.parametrize("state, x0", [("two_mode_box", [0.3, 0.4]),
                                       ("chaotic_aniso_state", [-0.4])])
@pytest.mark.parametrize("run", [lambda sup, x0: bm.integrate_bohmian(sup, x0, (0.0, 1.0)),
                                 lambda sup, x0: bm.bohmian_lyapunov(sup, x0, 1.0)],
                         ids=["trajectory", "lyapunov"])
def test_start_point_of_another_dimension_rejected(request, state, x0, run):
    with pytest.raises(DomainError):
        run(request.getfixturevalue(state), x0)


@pytest.mark.parametrize("horizon", [0.0, -1.0])
def test_bohmian_lyapunov_needs_a_positive_horizon(two_mode_box, horizon):
    with pytest.raises(DomainError):
        bm.bohmian_lyapunov(two_mode_box, [0.3], horizon)


def test_bohmian_lyapunov_stationary(ho1d):
    sup = qm.Superposition.of(ho1d, [(1.0, 2)])
    est = bm.bohmian_lyapunov(sup, [0.7], horizon=20.0)
    assert abs(est.value) < 1e-4  # log-ratio noise floor, no actual motion
    assert not est.partial


def test_bohmian_lyapunov_tolerance_independent(chaotic_aniso_state):
    """The criterion-8 state's tangent-flow rate over 10 time units, at two tolerances."""
    coarse, fine = (bm.bohmian_lyapunov(chaotic_aniso_state, [-0.4, -0.8], 10.0, tol=tol, t0=1.0)
                    for tol in (1e-9, 1e-11))
    assert not coarse.partial and not fine.partial
    assert coarse.horizon == fine.horizon == 10.0
    assert abs(coarse.value / fine.value - 1.0) < 1e-6


def test_bohmian_lyapunov_two_mode_regular(two_mode_box):
    est = bm.bohmian_lyapunov(two_mode_box, [0.3], horizon=60.0, tol=1e-9)
    assert est.value <= 0.01


# |psi| falls from 1.17 at x = 0.4, t = 0 to about 1.07 within t < 0.5 on
# this state, so a guard level of 1.1 is crossed early in the run
CROSSED_LEVEL = 1.1


def test_node_halt_ends_trajectory(monkeypatch, two_mode_box_complex):
    monkeypatch.setattr(bm, "_node_threshold", lambda sup: CROSSED_LEVEL)
    traj = bm.integrate_bohmian(two_mode_box_complex, [0.4], (0.0, 1.0))
    assert len(traj.node_encounters) == 1
    hit = traj.node_encounters[0]
    assert not traj.complete
    assert traj.times[-1] == hit["t"] < 1.0
    assert traj.positions[-1] == hit["x"][0]
    assert abs(hit["rho"] - CROSSED_LEVEL) < 1e-9
    assert np.all(np.diff(traj.times) > 0)


def test_bohmian_lyapunov_node_halt_is_partial(monkeypatch, two_mode_box_complex):
    monkeypatch.setattr(bm, "_node_threshold", lambda sup: CROSSED_LEVEL)
    est = bm.bohmian_lyapunov(two_mode_box_complex, [0.4], horizon=2.0)
    assert est.partial
    assert 0.0 < est.horizon < 2.0


def test_circulation_no_node(vortex_plus):
    res = bm.circulation(vortex_plus, ngon((1.6, 1.6), 0.3), 0.0)
    assert res.winding == 0
    assert abs(res.raw_integral) < 1e-9


def test_circulation_single_vortex(vortex_plus):
    res = bm.circulation(vortex_plus, ngon((0.0, 0.0), 0.9), 0.0)
    assert res.winding == 1
    assert abs(res.raw_integral - 2.0 * math.pi) < 1e-8
    rev = bm.circulation(vortex_plus, ngon((0.0, 0.0), 0.9)[::-1].copy(), 0.0)
    assert rev.winding == -1


def test_circulation_two_same_sign(vortex_pair):
    # nodes at (0, +-r0) at t = 0; an enclosing loop winds twice
    res = bm.circulation(vortex_pair, ngon((0.0, 0.0), 1.8), 0.0)
    assert res.winding == 2
    one = bm.circulation(vortex_pair, ngon((0.0, VORTEX_PAIR_RADIUS), 0.35), 0.0)
    assert one.winding == 1


def test_circulation_quantization_suite(vortex_plus, vortex_pair, ho2d_iso):
    ground = qm.Superposition.of(ho2d_iso, [(1.0, (0, 0))])
    t = 0.3
    r0 = VORTEX_PAIR_RADIUS
    node1 = (r0 * math.cos(math.pi / 2.0 + t), r0 * math.sin(math.pi / 2.0 + t))
    cases = [
        (vortex_plus, ngon((0.0, 0.0), 0.6, 8), 0.0, 1),
        (vortex_plus, ngon((0.0, 0.0), 1.4, 16), 0.7, 1),
        (vortex_plus, ngon((1.8, 0.0), 0.4), 0.0, 0),
        (vortex_plus, ngon((0.0, 0.0), 0.8)[::-1].copy(), 0.2, -1),
        (vortex_pair, ngon((0.0, 0.0), 1.9, 16), t, 2),
        (vortex_pair, ngon(node1, 0.3), t, 1),
        (vortex_pair, ngon((2.3, 0.0), 0.35), t, 0),
        (vortex_pair, ngon((0.0, 0.0), 1.9, 16)[::-1].copy(), t, -2),
        (ground, ngon((0.0, 0.0), 1.0), 0.0, 0),
        (ground, ngon((0.5, -0.4), 0.7, 10), 1.1, 0),
    ]
    quantum = 2.0 * math.pi  # 2 pi hbar / m in these units
    for sup, loop, tc, expected in cases:
        res = bm.circulation(sup, loop, tc)
        assert res.winding == expected
        assert res.residual <= 1e-6 * quantum


@settings(max_examples=60, deadline=None)
@given(cx=st.floats(-1.2, 1.2), cy=st.floats(-1.2, 1.2), radius=st.floats(0.2, 2.2),
       n=st.integers(12, 16), t=st.floats(0.0, 2.0 * math.pi))
def test_circulation_counts_enclosed_vortices(vortex_pair, cx, cy, radius, n, t):
    """Any loop around the pair winds once per node inside it (both nodes have charge +1)."""
    loop = ngon((cx, cy), radius, n)  # convex, counter-clockwise
    angle = math.pi / 2.0 + t  # the nodes rotate rigidly from the y axis
    nodes = VORTEX_PAIR_RADIUS * np.array([[math.cos(angle), math.sin(angle)]]) * [[1.0], [-1.0]]
    edges = np.roll(loop, -1, axis=0) - loop
    rel = nodes[:, None, :] - loop[None, :, :]  # node relative to each vertex
    along = np.clip(np.sum(rel * edges, axis=-1) / np.sum(edges**2, axis=-1), 0.0, 1.0)
    gap = np.linalg.norm(rel - along[..., None] * edges, axis=-1).min(axis=1)
    assume(gap.min() > 0.1)  # the loop keeps clear of both nodes
    inside = np.all(edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0] > 0.0, axis=1)
    res = bm.circulation(vortex_pair, loop, t)
    assert res.winding == int(inside.sum())
    assert res.residual <= 1e-6 * 2.0 * math.pi  # 2 pi hbar / m in these units


def test_circulation_guard_band(vortex_pair):
    node = qm.find_nodes(vortex_pair, (np.array([-1.5, 0.1]), np.array([1.5, 1.5])),
                         0.0, resolution=100)[0]
    loop = np.array([node, node + [0.6, 0.1], node + [0.2, 0.7]])
    with pytest.raises(NodeSingularityError):
        bm.circulation(vortex_pair, loop, 0.0)


def test_trajectory_csv(tmp_path, two_mode_box_complex):
    traj = bm.integrate_bohmian(two_mode_box_complex, [0.4], (0.0, 0.3), tol=1e-9)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,v1,Q,rho"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape[1] == 5
    assert np.isclose(data[0, 1], 0.4)


def test_dense_lookup_backward_run(two_mode_box_complex):
    """A backward run answers one position per time and refuses times outside it."""
    back = bm.integrate_bohmian(two_mode_box_complex, [0.5], (0.8, 0.0), tol=1e-10)
    np.testing.assert_array_equal(back.at(back.times), back.positions)
    for t in (0.8 + 5e-13, 0.4, -5e-13):
        assert back.at(t).shape == (1,)
    for t in (0.8 + 1e-9, -1e-9):
        with pytest.raises(DomainError):
            back.at(t)
    tt = np.random.default_rng(5).permutation(np.linspace(0.0, 0.8, 81))
    batch = back.at(tt)
    assert batch.shape == (81,)
    np.testing.assert_array_equal(batch, np.concatenate([back.at(t) for t in tt]))
