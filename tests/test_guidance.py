"""Properties of the guidance velocity and its Jacobian, the batched polar
decomposition, the one-point wavefield path and the scalar kernels against
the reference term sums of `oracles.py`.

Random box, harmonic and free superpositions in 1D and 2D, with non-unit
hbar and mass among them, evaluated at random points and times.
"""

import cmath
import math
import struct

import numpy as np
import oracles
import pytest
from conftest import newtonian_residual_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotwave import bohmian as bm
from pilotwave import quantum as qm
from pilotwave import systems as sy
from pilotwave.errors import DomainError, PilotwaveError


@st.composite
def wavefields(draw, box_n=6, harmonic_n=6, spread=2.0, wall=None, n_points=(1, 8),
               kinds=("box", "harmonic", "free"), unique=False):
    """(superposition, points of shape (N, D), one time per point).

    Box and oscillator quantum numbers go up to `box_n` and `harmonic_n`,
    oscillator points to +-`spread`, N between the bounds `n_points`.  With
    wall = (outside, inside), about half of the box coordinates lie within
    that band (in units of the side) of a wall.  `unique` draws no state twice.
    """
    kind = draw(st.sampled_from(kinds))
    d = draw(st.sampled_from((1, 2)))
    constants = sy.SystemConstants(hbar=draw(st.sampled_from((1.0, 0.7))),
                                   mass=draw(st.sampled_from((1.0, 1.9))), dimension=d)
    axes = (1.0, math.sqrt(2.0))[:d]
    if kind == "box":
        system = sy.SolvableSystem("box", constants, lengths=axes)
        number = st.integers(1, box_n)
        lo, hi = 0.05 * np.array(axes), 0.95 * np.array(axes)
    elif kind == "harmonic":
        system = sy.harmonic(*axes, constants=constants)
        number = st.integers(0, harmonic_n)
        lo, hi = np.full(d, -spread), np.full(d, spread)
    else:
        system = sy.free_particle(constants)
        number = st.floats(-3.0, 3.0)
        lo, hi = np.full(d, -3.0), np.full(d, 3.0)
    terms = draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2.0 * math.pi),
                                    st.tuples(*[number] * d)), min_size=1, max_size=4,
                          unique_by=(lambda term: term[2]) if unique else None))
    sup = qm.Superposition.of(system, [(r * cmath.exp(1j * phi), n) for r, phi, n in terms])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_points = draw(st.integers(*n_points))
    x = rng.uniform(lo, hi, (n_points, d))
    if kind == "box" and wall is not None:
        depth = rng.uniform(-wall[0], wall[1], x.shape) * axes
        near = np.where(rng.random(x.shape) < 0.5, depth, np.array(axes) - depth)
        x = np.where(rng.random(x.shape) < 0.5, near, x)
    return sup, x, rng.uniform(0.0, 3.0, n_points)


# a few ulps of subnormal arithmetic, which 1e-12 of a subnormal size rounds to 0
SUBNORMAL_ULPS = 8 * np.finfo(float).smallest_subnormal


def _floored(tol):
    return np.maximum(tol, SUBNORMAL_ULPS)


def _point(sup, x):
    return x[0] if sup.system.dimension == 1 else x


def _term_sizes(sup, x):
    """sum_n |c_n f_n(x)| for f = phi, grad phi, lap phi.

    Batched and one-point sums of the terms round differently, by a few
    ulps of these sizes, and near a node psi is much smaller than they are.
    """
    parts = [qm.eigenfunction(sup.system, st, x) for _, st in sup.terms]
    return [sum(abs(c) * np.max(np.abs(p[i])) for (c, _), p in zip(sup.terms, parts))
            for i in range(3)]


def _point_sizes(sup, x):
    """`_term_sizes`, or for box states sum_n |c_n| max |f_n| over the box.

    A box mode is the sine of a rounded argument k_n x; near a wall, where
    it vanishes, the scalar (angle addition) and array (sin of k_n x) paths
    know it only to a few ulps of its largest value, not of its value at x.
    """
    if sup.system.kind != "box":
        return _term_sizes(sup, x)
    lengths = sup.system.lengths
    a = math.prod(math.sqrt(2.0 / L) for L in lengths)
    sizes = np.zeros(3)
    for c, st in sup.terms:
        k = [n * math.pi / L for n, L in zip(st.quantum_numbers, lengths)]
        sizes += abs(c) * a * np.array([1.0, math.hypot(*k), sum(ki * ki for ki in k)])
    return sizes


def _inside(sup, x):
    """x with box coordinates held 1e-12 L inside the walls, as `_guidance` does."""
    if sup.system.kind != "box":
        return x
    pad = 1e-12 * max(sup.system.lengths)
    return np.clip(x, pad, np.subtract(sup.system.lengths, pad))


def _field_tolerances(sup, x, rho, sizes=_term_sizes):
    """1e-12 of the term sizes, carried through rho, v = grad sigma / m and Q.

    psi* grad psi, which v divides by rho^2, and each tolerance are floored
    at a few subnormal ulps.
    """
    c = sup.system.constants
    a, g, lap = sizes(sup, x)
    return (_floored(1e-12 * a),
            _floored(c.hbar / c.mass * _floored(1e-12 * a * g) / rho**2),
            _floored(1e-12 * c.hbar**2 / c.mass * a * (lap / rho**2 + g**2 / rho**3)))


@settings(max_examples=150, deadline=None)
@given(case=wavefields())
def test_current_is_rho_squared_velocity(case):
    """j = rho^2 v, with j from probability_current, which has its own formula."""
    sup, x, t = case
    c = sup.system.constants
    v, amp = bm._guidance(sup, x, t)
    for i in range(t.size):
        j = np.atleast_1d(bm.probability_current(sup, _point(sup, x[i]), t[i]))
        a, g, _ = _term_sizes(sup, _point(sup, x[i]))
        assert np.max(np.abs(amp[i] ** 2 * v[i] - j)) <= _floored(1e-12 * c.hbar / c.mass * a * g)


@settings(max_examples=150, deadline=None)
@given(case=wavefields())
def test_time_array_matches_per_point_calls(case):
    sup, x, t = case
    batch = qm.evaluate_wavefunction(sup, x[:, 0] if sup.system.dimension == 1 else x, t)
    for i in range(t.size):
        single = qm.evaluate_wavefunction(sup, _point(sup, x[i]), t[i])
        for b, s, size in zip(batch, single, _term_sizes(sup, _point(sup, x[i]))):
            np.testing.assert_allclose(b[i], s, rtol=0, atol=_floored(1e-12 * size))


@settings(max_examples=100, deadline=None)
@given(case=wavefields())
def test_trajectory_columns_match_wavefield_sample(case):
    """The batched v, Q and rho columns equal the one-point API, sample by sample."""
    sup, x, t = case
    traj = bm.integrate_bohmian(sup, x[0], (t[0], t[0] + 0.2), tol=1e-6)
    positions = traj.positions.reshape(traj.times.size, -1)
    velocities = traj.velocities.reshape(positions.shape)
    for k in range(traj.times.size):
        s = qm.wavefield_sample(sup, _point(sup, positions[k]), traj.times[k])
        rho_tol, v_tol, q_tol = _field_tolerances(sup, _point(sup, positions[k]), s.rho)
        assert abs(traj.rho[k] - s.rho) <= rho_tol
        assert np.max(np.abs(velocities[k] - s.grad_sigma / sup.system.constants.mass)) <= v_tol
        assert abs(traj.Q[k] - s.Q) <= q_tol


@settings(max_examples=15, deadline=None)
@given(case=wavefields())
def test_newtonian_residual_matches_per_sample_loop(case):
    sup, x, t = case
    traj = bm.integrate_bohmian(sup, x[0], (t[0], t[0] + 0.3), tol=1e-6)
    try:
        expected = newtonian_residual_loop(traj, sup, n_samples=101)
    except PilotwaveError as exc:  # a stencil point left the box or met a node
        with pytest.raises(type(exc)):
            bm.newtonian_residual(traj, sup, n_samples=101)
        return
    got = bm.newtonian_residual(traj, sup, n_samples=101)
    # grad Q differences Q over the 2e-5 stencil width
    positions = traj.positions.reshape(traj.times.size, -1)
    q_tol = max(_field_tolerances(sup, _point(sup, p), float(r))[2]
                for p, r in zip(positions, traj.rho))
    assert abs(got - expected) <= q_tol / 2e-5


@settings(max_examples=200, deadline=None)
@given(case=wavefields(box_n=40, harmonic_n=40, spread=9.0, wall=(0.0, 1e-12)))
def test_one_point_path_matches_batched_path(case):
    """One point at one time: the scalar ladders against the array path."""
    sup, x, t = case
    d = sup.system.dimension
    batch = qm.evaluate_wavefunction(sup, x[:, 0] if d == 1 else x, t[0])
    for i in range(t.size):
        single = qm.evaluate_wavefunction(sup, _point(sup, x[i]), t[0])
        assert np.ndim(single[0]) == np.ndim(single[2]) == 0
        assert np.shape(single[1]) == (() if d == 1 else (2,))
        for b, s, size in zip(batch, single, _point_sizes(sup, _point(sup, x[i]))):
            np.testing.assert_allclose(b[i], s, rtol=0, atol=_floored(1e-12 * size))


def test_list_inputs_match_array_inputs(chaotic_aniso_state):
    """Two floats in a list take the one-point path without numpy, and a list of
    two points stays a batch: both equal the calls with arrays, bit for bit."""
    sup = chaotic_aniso_state
    for x in ([0.3, -0.2], [[0.3, -0.2], [0.1, 0.4]]):
        for got, want in zip(qm.evaluate_wavefunction(sup, x, 0.7),
                             qm.evaluate_wavefunction(sup, np.array(x), 0.7)):
            assert type(got) is type(want)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("lengths", [(1.0,), (1.0, 1.3)])
def test_one_point_outside_box_raises(lengths):
    d = len(lengths)
    system = sy.SolvableSystem("box", sy.SystemConstants(dimension=d), lengths=lengths)
    sup = qm.Superposition.of(system, [(1.0, (1,) * d), (0.5j, (2,) * d)])
    for axis in range(d):
        for outside in (-1e-9, lengths[axis] + 1e-9):
            x = 0.5 * np.array(lengths)
            x[axis] = outside
            with pytest.raises(DomainError):
                qm.evaluate_wavefunction(sup, x[0] if d == 1 else x, 0.3)


@settings(max_examples=150, deadline=None)
@given(case=wavefields(wall=(1e-9, 1e-12)))
def test_guidance_one_and_two_points_match_batched_rows(case):
    """Shape (D,) takes the scalar path; (2, D) and N >= 3 points the batched one.

    Box coordinates up to 1e-9 outside a wall are clamped alike on both.
    """
    sup, x, t = case
    d = sup.system.dimension
    stacked = np.concatenate([x, x, x])
    v_all, amp_all = bm._guidance(sup, stacked, t[0])
    for i in range(t.size):
        j = (i + 1) % t.size
        v1, amp1 = bm._guidance(sup, x[i], t[0])
        v2, amp2 = bm._guidance(sup, x[[i, j]], t[0])
        assert v1.shape == (d,) and np.ndim(amp1) == 0
        assert v2.shape == (2, d) and amp2.shape == (2,)
        for k, v, amp in ((i, v1, amp1), (i, v2[0], amp2[0]), (j, v2[1], amp2[1])):
            rho_tol, v_tol, _ = _field_tolerances(sup, _point(sup, _inside(sup, x[k])),
                                                  amp_all[k], _point_sizes)
            assert abs(amp - amp_all[k]) <= rho_tol
            assert np.max(np.abs(v - v_all[k])) <= v_tol


# three blocks of the batched kernel, the last one partial
BATCH = 2 * qm.CHUNK + 17


def _term_by_term(sup, x, t):
    """(psi, grad psi with a trailing axis, lap psi) summed from `eigenfunction`, term by term."""
    hbar = sup.system.constants.hbar
    parts = []
    for c, st_ in sup.terms:
        w = c * np.exp(-1j * (st_.energy * np.asarray(t) / hbar))
        v, g, l = qm.eigenfunction(sup.system, st_, x)
        parts.append((w * v, w[..., None] * g.reshape(len(v), -1), w * l))
    return [sum(p[i] for p in parts) for i in range(3)]


@settings(max_examples=40, deadline=None)
@given(case=wavefields(n_points=(BATCH, BATCH)), per_point=st.booleans())
def test_batched_kernel_matches_term_by_term_sums(case, per_point):
    """Batched evaluation over several chunks against sums of per-term eigenfunctions.

    evaluate_wavefunction, _guidance and _sampled_fields, with one time or
    one per point; the bounds are 1e-12 of the term sizes over the batch.
    """
    sup, x, t = case
    t = t if per_point else float(t[0])
    c = sup.system.constants
    xs = x[:, 0] if sup.system.dimension == 1 else x
    psi, grad, lap = qm.evaluate_wavefunction(sup, xs, t)
    ref = _term_by_term(sup, xs, t)
    for got, want, size in zip((psi, grad.reshape(BATCH, -1), lap), ref, _term_sizes(sup, xs)):
        np.testing.assert_allclose(got, want, rtol=0, atol=_floored(1e-12 * size))
    rho = np.abs(ref[0])
    rho_tol, v_tol, q_tol = _field_tolerances(sup, xs, rho)
    v, amp = bm._guidance(sup, x, t)
    assert v.shape == x.shape and amp.shape == rho.shape
    assert np.all(np.abs(amp - rho) <= rho_tol)
    v_ref = qm.phase_gradient(ref[0], ref[1], c.hbar) / c.mass
    assert np.all(np.max(np.abs(v - v_ref), axis=-1) <= v_tol)
    rho_s, q, grad_sigma, bad = bm._sampled_fields(sup, x, t)
    _, _, _, q_ref = qm._polar(*ref, c)
    assert not np.any(bad)
    assert np.all(np.abs(rho_s - rho) <= rho_tol)
    assert np.all(np.max(np.abs(grad_sigma / c.mass - v_ref), axis=-1) <= v_tol)
    assert np.all(np.abs(q - q_ref) <= q_tol)


def _large_call_states():
    box = qm.Superposition.of(sy.box_1d(1.0), [(1.0, 1), (0.4, 2)])
    aniso = qm.Superposition.of(sy.harmonic(1.0, math.sqrt(2.0)),
                                [(1.0, (0, 0)), (0.9, (2, 0)), (0.8j, (1, 1)), (0.7, (0, 2))])
    free = qm.Superposition.of(sy.free_particle(sy.SystemConstants(dimension=2)),
                               [(1.0, (1.5, -0.5)), (0.6j, (-2.0, 0.7))])
    return [(box, (0.0, 1.0)), (aniso, (-2.0, 2.0)), (free, (-3.0, 3.0))]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("per_point", [False, True])
def test_large_direct_call_equals_chunked_calls(case, per_point):
    """A 10^5-point call equals, bit for bit, the concatenation of its `CHUNK`-point pieces."""
    sup, (lo, hi) = _large_call_states()[case]
    d = sup.system.dimension
    rng = np.random.default_rng(case)
    x = rng.uniform(lo, hi, (100_000, d))[:, 0] if d == 1 else rng.uniform(lo, hi, (100_000, d))
    t = rng.uniform(0.0, 3.0, len(x)) if per_point else 0.7
    whole = qm.evaluate_wavefunction(sup, x, t)
    rows = [slice(k, k + qm.CHUNK) for k in range(0, len(x), qm.CHUNK)]
    pieces = [qm.evaluate_wavefunction(sup, x[r], t[r] if per_point else t) for r in rows]
    for i, got in enumerate(whole):
        np.testing.assert_array_equal(got, np.concatenate([p[i] for p in pieces]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
                               st.floats(0.0, 2.0 * math.pi),
                               st.tuples(*[st.floats(-1e3, 1e3)] * 4)), min_size=1, max_size=16),
       d=st.sampled_from((1, 2)), hbar=st.sampled_from((1.0, 0.7)))
def test_phase_gradient_real_form_matches_complex_form(rows, d, hbar):
    """hbar (Re psi Im grad - Im psi Re grad) / (Re^2 + Im^2) against hbar Im(psi* grad) / |psi|^2.

    The two round differently by a few ulps of hbar |grad psi| / |psi|, the
    size of the terms; an exact zero of psi gives NaN on both.
    """
    psi = np.array([r * cmath.exp(1j * phi) for r, phi, _ in rows])
    grad = np.array([[complex(g[0], g[1]), complex(g[2], g[3])][:d] for _, _, g in rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = qm.phase_gradient(psi, grad, hbar)
        want = hbar * np.imag(np.conjugate(psi)[:, None] * grad) / np.abs(psi)[:, None] ** 2
    node = psi == 0.0
    assert np.all(np.isnan(got[node]))
    size = hbar * np.abs(grad[~node]) / np.abs(psi[~node])[:, None]
    assert np.all(np.abs(got[~node] - want[~node]) <= 1e-13 * size)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("t", [0.3, np.empty(0)])
def test_empty_batch_keeps_shapes(d, t):
    system = sy.SolvableSystem("box", sy.SystemConstants(dimension=d), lengths=(1.0,) * d)
    sup = qm.Superposition.of(system, [(1.0, (1,) * d), (0.5j, (2,) * d)])
    x = np.empty((0, d))
    psi, grad, lap = qm.evaluate_wavefunction(sup, x[:, 0] if d == 1 else x, t)
    assert psi.shape == lap.shape == (0,) and grad.shape == ((0,) if d == 1 else (0, 2))
    v, amp = bm._guidance(sup, x, t)
    assert v.shape == (0, d) and amp.shape == (0,)
    rho, q, grad_sigma, bad = bm._sampled_fields(sup, x, t)
    assert rho.shape == q.shape == bad.shape == (0,) and grad_sigma.shape == (0, d)


@settings(max_examples=20, deadline=None)
@given(case=wavefields(kinds=("box", "harmonic"), unique=True), t=st.floats(0.0, 5.0))
def test_norm_quadrature_is_one(case, t):
    """Gauss-Legendre quadrature of rho^2 over the effective domain, at any time."""
    sup, _, _ = case
    assert abs(qm.norm_quadrature(sup, t) - 1.0) < 1e-10


def _hessian(sup, point, t):
    """(psi, Hessian rows) at one point of D floats from the scalar kernel `_term_sum`."""
    psi, _, _, hxx, hxy, hyy = qm._term_sum(sup, point, t, 2)
    return psi, [[hxx, hxy], [hxy, hyy]] if len(point) == 2 else [[hxx]]


def _central_jacobian(sup, x, t, h):
    """dv_i/dx_j by central differences of `_guidance`'s v with step h, one batched call."""
    d = sup.system.dimension
    steps = h * np.eye(d)
    v, _ = bm._guidance(sup, np.concatenate([x + steps, x - steps]), t)
    return ((v[:d] - v[d:]) / (2.0 * h)).T


@settings(max_examples=150, deadline=None)
@given(case=wavefields())
def test_guidance_jacobian_matches_central_differences(case):
    """`_guidance_jacobian` against central differences of v; trace H against the
    batched path's lap psi.

    The difference quotient's own error is estimated from two steps: its
    leading term goes as h^2, so D(h/2) - J is about (D(h) - D(h/2)) / 3,
    and the bound allows the whole |D(h) - D(h/2)|.  Points where |psi| is
    below 5% of the term sizes skip the Jacobian check, since v varies on
    the scale of the distance to a node there.
    """
    sup, x, t = case
    c = sup.system.constants
    for i in range(t.size):
        point = x[i].tolist()
        psi, hess = _hessian(sup, point, t[i])
        row = x[i:i + 1]  # one point through the batched path
        lap = qm.evaluate_wavefunction(sup, row[:, 0] if len(point) == 1 else row, t[i])[2][0]
        a, g, l = _term_sizes(sup, _point(sup, x[i]))
        assert abs(sum(hess[k][k] for k in range(len(point))) - lap) <= _floored(1e-12 * l)
        if abs(psi) < 0.05 * a:
            continue
        v, jac = bm._guidance_jacobian(sup, point, t[i])
        v_ref, _ = bm._guidance(sup, x[i], t[i])
        _, v_tol, _ = _field_tolerances(sup, _point(sup, x[i]), abs(psi))
        assert np.max(np.abs(np.array(v) - v_ref)) <= 4.0 * v_tol
        h = 1e-4
        coarse, fine = (_central_jacobian(sup, x[i], t[i], step) for step in (h, h / 2))
        bound = np.abs(coarse - fine) + 8.0 * v_tol / h + 1e-9 * c.hbar / c.mass * g * g / a**2
        assert np.all(np.abs(np.array(jac) - fine) <= bound)


def _hessian_size(sup, x, t):
    """sum_n |c_n| max_ij |d_i d_j f_n(x)|, or for box states that bound over the box.

    A box mode's second derivatives are at most sqrt(2/L)^D k_i k_j, which
    the laplacian size of `_point_sizes` bounds; near a wall they are known
    only to a few ulps of that, as the values are.
    """
    if sup.system.kind == "box":
        return _point_sizes(sup, x)[2]
    point = np.atleast_1d(x).tolist()
    size = 0.0
    for c, state in sup.terms:
        _, hess = _hessian(qm.Superposition(sup.system, ((1.0, state),)), point, t)
        size += abs(c) * max(abs(h) for row in hess for h in row)
    return size


@settings(max_examples=150, deadline=None)
@given(case=wavefields(wall=(1e-9, 1e-12)))
def test_guidance_jacobian_on_arrays_matches_one_point_calls(case):
    """`_guidance_jacobian` on a (D, M) array, as the dense rebuild of a tangent run
    passes it, against M one-point calls in Python floats.

    Box coordinates up to 1e-9 outside a wall are held inside alike.  The
    bounds are 1e-12 of the term sizes carried through v and through
    dv/dx = (hbar/m) Im(H / psi - a a), a = grad psi / psi.
    """
    sup, x, t = case
    c = sup.system.constants
    v_all, jac_all = bm._guidance_jacobian(sup, x.T, t)
    d = x.shape[1]
    assert len(v_all) == len(jac_all) == d and all(len(row) == d for row in jac_all)
    for i in range(t.size):
        v, jac = bm._guidance_jacobian(sup, x[i].tolist(), float(t[i]))
        inside = _point(sup, _inside(sup, x[i]))
        rho = abs(qm.evaluate_wavefunction(sup, inside, t[i])[0])
        a, g, _ = _point_sizes(sup, inside)
        h = _hessian_size(sup, inside, t[i])
        _, v_tol, _ = _field_tolerances(sup, inside, rho, _point_sizes)
        jac_tol = _floored(4e-12 * c.hbar / c.mass * (h * a / rho**2 + g * g * a / rho**3))
        assert max(abs(v_all[k][i] - v[k]) for k in range(d)) <= v_tol
        assert max(abs(jac_all[k][j][i] - jac[k][j]) for k in range(d) for j in range(d)) <= jac_tol


@settings(max_examples=100, deadline=None)
@given(case=wavefields(wall=(1e-9, 1e-12), n_points=(3, 8)))
def test_component_rhs_float_path_matches_batched_columns(case):
    """The guidance right-hand side of a run: a list of floats while stepping,
    a (D, M) array with one time per column in the dense rebuild.

    The columns are the batched `_guidance` rows; each float-path call
    agrees with its column within 1e-12 of the term sizes.
    """
    sup, x, t = case
    d = x.shape[1]
    v_all, amp_all = bm._guidance(sup, x, t)
    columns = bm._guidance_rhs(sup, t, x.T)
    np.testing.assert_array_equal(columns, v_all.T)
    for i in range(t.size):
        v = bm._guidance_rhs(sup, float(t[i]), x[i].tolist())
        assert isinstance(v, list) and len(v) == d
        _, v_tol, _ = _field_tolerances(sup, _point(sup, _inside(sup, x[i])), amp_all[i],
                                        _point_sizes)
        assert max(abs(v[k] - v_all[i, k]) for k in range(d)) <= v_tol


def _bits(value):
    """The IEEE bits of a float or complex, or of each entry of nested lists and arrays:
    equal bits mean the same number, the same sign of zero and the same NaN."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_bits(v) for v in value]
    value = complex(value)
    return struct.pack("<dd", value.real, value.imag)


@settings(max_examples=200, deadline=None)
@given(case=wavefields(wall=(1e-9, 1e-12)), numpy_time=st.booleans())
def test_scalar_kernels_match_reference_term_sums_bit_for_bit(case, numpy_time):
    """v, |psi| and the guidance Jacobian at one point, and the Jacobian on arrays as
    the dense rebuild of a tangent run passes them, against the generic term loops
    of `oracles.py`: the same bits.  Box points up to 1e-9 outside a wall are
    held inside alike; a numpy-scalar time takes the same path as a float."""
    sup, x, t = case
    for i in range(t.size):
        ti = np.float64(t[i]) if numpy_time else float(t[i])
        v, amp = bm._guidance(sup, x[i], ti)
        v_ref, amp_ref = oracles.guidance(sup, x[i], ti)
        assert _bits(v) == _bits(v_ref) and _bits(amp) == _bits(amp_ref)
        assert _bits(bm._point_amplitude(sup, x[i], ti)) == _bits(oracles.amplitude(sup, x[i], ti))
        got = bm._guidance_jacobian(sup, x[i].tolist(), float(ti))
        assert _bits(got) == _bits(oracles.jacobian(sup, x[i], ti))
        # the one-point wavefield sums the Hessian: psi and grad psi agree up to the
        # sign of an exact zero, lap psi (its trace) to rounding
        point = _point(sup, _inside(sup, x[i]))
        psi, grad, lap = qm.evaluate_wavefunction(sup, point, ti)
        psi_ref, grad_ref, lap_ref = oracles.term_sum(sup, np.atleast_1d(point).tolist(), float(ti))
        assert psi == psi_ref and np.atleast_1d(grad).tolist() == grad_ref
        assert abs(lap - lap_ref) <= _floored(1e-12 * _point_sizes(sup, point)[2])
    assert _bits(bm._guidance_jacobian(sup, x.T, t)) == _bits(oracles.jacobian(sup, x.T, t))


@settings(max_examples=50, deadline=None)
@given(n=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4,
                  unique=True),
       d=st.sampled_from((1, 2)), y=st.floats(-2.0, 2.0), t=st.floats(0.0, 3.0))
def test_scalar_kernels_at_an_exact_node(n, d, y, t):
    """psi = 0 exactly on the line x = 0 of odd oscillator modes: |psi| is 0, v is the
    array formula's NaN, and the Jacobian raises ZeroDivisionError, as the reference does."""
    system = sy.harmonic(*(1.0, math.sqrt(2.0))[:d])
    sup = qm.Superposition.of(system, [(1.0 + 0.5j * k, (2 * a + 1, b)[:d])
                                       for k, (a, b) in enumerate(n)])
    x = np.array([0.0, y][:d])
    with np.errstate(invalid="ignore", divide="ignore"):
        v, amp = bm._guidance(sup, x, t)
    v_ref, amp_ref = oracles.guidance(sup, x, t)
    assert amp == amp_ref == 0.0 and bm._point_amplitude(sup, x, t) == 0.0
    assert np.all(np.isnan(v)) and _bits(v) == _bits(v_ref)
    for jacobian in (bm._guidance_jacobian, oracles.jacobian):
        with pytest.raises(ZeroDivisionError):
            jacobian(sup, x.tolist(), t)
