"""Regenerate references.json from the closed-form field in oracles.py.

    PYTHONPATH=src python3 perfbench/make_references.py

Integrates the exact guidance velocity with scipy's DOP853 at
rtol = atol = 1e-12, far tighter than the benchmark runs, for the three
references of `bohmian-pointwise` that are too slow to recompute on every
run: the trajectory, the Lyapunov pair, and the final positions of the
ensemble members.  The members' start points are
pilotwave's sampler draws for each stored seed; they are recorded so that a
changed sampler is reported rather than compared against the wrong starts.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from pilotwave import quantum  # noqa: E402
from pilotwave.ensembles import sample_quantum_equilibrium  # noqa: E402

TOL = 1e-12
GRID_STEP = 0.01
RENORM_INTERVAL, OFFSET = 1.0, 1e-9  # pilotwave's bohmian_lyapunov defaults


def solve(field, span, y0, **kwargs):
    """DOP853 on the exact guidance flow of any number of 2D points."""
    def rhs(t, y):
        return field.velocity(y.reshape(-1, 2), t).reshape(-1)
    res = solve_ivp(rhs, span, y0, method="DOP853", rtol=TOL, atol=TOL, **kwargs)
    if not res.success:
        raise RuntimeError(res.message)
    return res


def trajectory(field):
    span = W.ANISO_T1 - W.ANISO_T0
    times = np.linspace(W.ANISO_T0, W.ANISO_T1, int(round(span / GRID_STEP)) + 1)
    res = solve(field, (times[0], times[-1]), np.array(W.ANISO_X0), t_eval=times)
    return times, res.y.T


def lyapunov_pair(field):
    """The renormalized two-trajectory estimate, as bohmian_lyapunov defines it."""
    d = 2
    x0 = np.array(W.ANISO_X0)
    y = np.concatenate([x0, x0 + OFFSET / math.sqrt(d)])
    t, t_end, log_sum = W.ANISO_T0, W.ANISO_T0 + W.ANISO_HORIZON, 0.0
    while t < t_end - 1e-12:
        t_next = min(t + RENORM_INTERVAL, t_end)
        y = solve(field, (t, t_next), y).y[:, -1]
        sep = y[d:] - y[:d]
        dist = float(np.linalg.norm(sep))
        log_sum += math.log(dist / OFFSET)
        y[d:] = y[:d] + sep * (OFFSET / dist)
        t = t_next
    return log_sum / W.ANISO_HORIZON


def members(field, seed):
    # built as the scenario loader builds it, so the sampler sees the same state
    sup = quantum.superposition_from_dict(W.state_doc("harmonic", W.ANISO_OMEGAS, W.ANISO_TERMS))
    start = sample_quantum_equilibrium(sup, W.MEMBERS_T0, W.MEMBERS_N, seed).positions
    final = []
    for x0 in start:
        res = solve(field, (W.MEMBERS_T0, W.MEMBERS_T1), x0)
        final.append(res.y[:, -1].tolist())
    return start.tolist(), final


def main():
    field = oracles.Wavefield("harmonic", W.ANISO_OMEGAS, W.ANISO_TERMS)
    times, positions = trajectory(field)
    doc = {
        "command": "PYTHONPATH=src python3 perfbench/make_references.py",
        "method": f"scipy DOP853, rtol = atol = {TOL:g}, closed-form field of oracles.py",
        "bohmian": {"x0": list(W.ANISO_X0), "times": times.tolist(),
                    "positions": positions.tolist(), "lyapunov": lyapunov_pair(field),
                    "lyapunov_horizon": W.ANISO_HORIZON,
                    "renorm_interval": RENORM_INTERVAL, "offset": OFFSET},
        "members": {},
    }
    for seed in W.MEMBERS_SEEDS:
        start, final = members(field, seed)
        doc["members"][str(seed)] = {"t0": W.MEMBERS_T0, "t1": W.MEMBERS_T1,
                                     "initial": start, "final": final}
    with open(W.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {W.REFERENCES}: lyapunov {doc['bohmian']['lyapunov']!r}")


if __name__ == "__main__":
    main()
