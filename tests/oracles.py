"""Second implementations kept beside the tests as references for `src/`.

`term_sum` and `point_hessian` are the generic one-point term loops that
`quantum.evaluate_wavefunction` and `bohmian._guidance_jacobian` ran before
the scalar kernel `quantum._term_sum` replaced them: every term builds its
list of parts (value, gradient, laplacian or Hessian) and each list is added
into the running totals.  `guidance`, `amplitude` and `jacobian` form from
them, with the formulas `bohmian` uses, what the guidance flow reads.  They
read the same per-axis ladders as the kernel, at their full order.
"""

import cmath

import numpy as np

from pilotwave import bohmian as bm
from pilotwave import quantum as qm


def term_sum(sup, point, t):
    """(psi, gradient components, laplacian) at one point of D floats, in Python scalars."""
    axes, terms = sup._plan
    tables = [ladder(constants, xi, qm._SCALAR) for (ladder, constants), xi in zip(axes, point)]
    hbar = sup.system.constants.hbar
    psi = grad = lap = None
    for c, energy, n in terms:
        if not tables:  # free: plane wave exp(i k . x)
            v = cmath.exp(1j * sum(ki * xi for ki, xi in zip(n, point)))
            g, l = [1j * ki * v for ki in n], -sum(ki * ki for ki in n) * v
        elif len(tables) == 1:
            v, g, l = tables[0][n[0]]
            g = [g]
        else:
            (vx, gx, lx), (vy, gy, ly) = tables[0][n[0]], tables[1][n[1]]
            v, g, l = vx * vy, [gx * vy, vx * gy], lx * vy + vx * ly
        w = c * cmath.exp(-1j * (energy * t / hbar))
        if psi is None:
            psi, grad, lap = w * v, [w * gi for gi in g], w * l
        else:
            psi = psi + w * v
            grad = [a + w * gi for a, gi in zip(grad, g)]
            lap = lap + w * l
    return psi, grad, lap


def point_hessian(sup, point, t):
    """(psi, gradient, Hessian rows) at one point of D floats, or at M points of D arrays."""
    lib = qm._ARRAY if isinstance(point[0], np.ndarray) else qm._SCALAR
    axes, terms = sup._plan
    tables = [ladder(constants, xi, lib) for (ladder, constants), xi in zip(axes, point)]
    hbar, d = sup.system.constants.hbar, len(point)
    total = [0.0] * (1 + d + d * d)  # psi, the gradient, then the Hessian row by row
    for c, energy, n in terms:
        if not tables:  # free: plane wave exp(i k . x)
            v = lib.cexp(1j * sum(ki * xi for ki, xi in zip(n, point)))
            parts = [v, *[1j * ki * v for ki in n], *[-ki * kj * v for ki in n for kj in n]]
        elif len(tables) == 1:
            parts = tables[0][n[0]]
        else:
            (vx, gx, lx), (vy, gy, ly) = tables[0][n[0]], tables[1][n[1]]
            gxy = gx * gy
            parts = [vx * vy, gx * vy, vx * gy, lx * vy, gxy, gxy, vx * ly]
        w = c * lib.cexp(-1j * (energy * t / hbar))
        total = [b + w * a for b, a in zip(total, parts)]
    return total[0], total[1:d + 1], [total[d + 1 + d * i:d + 1 + d * (i + 1)] for i in range(d)]


def _inside(sup, point):
    """D Python floats, or D arrays, with box coordinates held inside as
    `bohmian._held_inside` holds them."""
    if not isinstance(point[0], np.ndarray):
        point = [float(xi) for xi in point]
    return bm._held_inside(sup.system, point)


def guidance(sup, point, t):
    """(v as a list, |psi|) from `term_sum` with `bohmian`'s one-point formula."""
    c = sup.system.constants
    psi, grad, _ = term_sum(sup, _inside(sup, point), float(t))
    amp = abs(psi)
    rho2 = amp * amp
    if rho2 == 0.0:  # exact node: the array formula's nan
        with np.errstate(invalid="ignore", divide="ignore"):
            return (qm.phase_gradient(psi, np.asarray(grad), c.hbar) / c.mass).tolist(), amp
    return [c.hbar * (psi.conjugate() * g).imag / rho2 / c.mass for g in grad], amp


def amplitude(sup, point, t):
    return abs(term_sum(sup, _inside(sup, point), float(t))[0])


def jacobian(sup, point, t):
    """(v, dv/dx rows) from `point_hessian`, at one point or at M points of D arrays:
    v = (hbar/m) Im a, dv_i/dx_j = (hbar/m) Im(H_ij / psi - a_i a_j), a = grad psi / psi."""
    c = sup.system.constants
    psi, grad, hess = point_hessian(sup, _inside(sup, point), t if np.ndim(t) else float(t))
    q = c.hbar / c.mass
    inv = 1.0 / psi
    a = [g * inv for g in grad]
    jac = [[q * (hij * inv - ai * aj).imag for hij, aj in zip(row, a)] for row, ai in zip(hess, a)]
    return [q * ai.imag for ai in a], jac
