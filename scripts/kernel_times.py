"""Per-call times of the guidance-flow kernels and the diamagnetic right-hand side.

    python3 scripts/kernel_times.py [--repeats N]

Runs in one process with every BLAS pool at one thread and `src` on the
path.  Each of N repeats makes a fixed number of calls of every kernel in
turn, so that all of them meet the same machine load; for each kernel the
least mean time per call is printed, in microseconds:

- point guidance: `bohmian._point_guidance`, v and |psi| at one point in
  Python floats, the right-hand side of every trajectory step;
- amplitude only: `bohmian._point_amplitude`, |psi| there, the node event;
- guidance Jacobian: `bohmian._guidance_jacobian` there, the tangent run;
- batched guidance: `bohmian._guidance` on 10^5 points of the
  `ensemble-batch` two-mode box state, one call;
- batched amplitude: |psi| at the same points from the order-0 sums
  (`quantum._batched` at order 0), what the sampler and the node finder read;
- diamagnetic rhs: `classical._diamagnetic_rhs` at eps = -0.15, one call;
- diamagnetic tangent rhs: `classical._diamagnetic_tangent_rhs` there, the
  classical Lyapunov run;
- monodromy rhs: `orbits._monodromy_rhs` there, the closed-orbit build;
- dense query, one time: the state at one time inside a step of a
  close-approach run at eps = -0.15 (`DenseOutput.on_step`), what each
  `brentq` iteration of an event root reads.

The one-point kernels run on the criterion-8 state (2D anisotropic
oscillator, four terms) at (-0.4, -0.8), t = 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import timeit
from pathlib import Path

for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_key] = "1"  # before numpy loads a BLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pilotwave import bohmian, classical, orbits, quantum, systems  # noqa: E402
from pilotwave.integrate import solve_ivp  # noqa: E402


def kernels() -> list[tuple[str, object, int]]:
    """(name, call, calls per repeat) of every timed kernel."""
    aniso = quantum.Superposition.of(
        systems.harmonic(1.0, math.sqrt(2.0)),
        [(1.0, (0, 0)), (0.9, (2, 0)), (0.8j, (1, 1)), (0.7, (0, 2))])
    box = quantum.Superposition.of(systems.box_1d(1.0), [(1.0, 1), (0.4, 2)])
    members = np.random.default_rng(0).uniform(0.0, 1.0, (100_000, 1))
    point, t = [-0.4, -0.8], 1.0
    rhs = classical._diamagnetic_rhs(-0.15)
    state = [0.3, 0.5, 1.2, -1.4, 0.0, 0.0]
    tangent_rhs, tangent = classical._diamagnetic_tangent_rhs(-0.15), state[:4] + [0.5] * 4 + [0.0]
    monodromy_rhs, monodromy = orbits._monodromy_rhs(-0.15), state + np.eye(4).ravel().tolist()
    run = solve_ivp(lambda t, y: classical._flow_jacobian(y, -0.15)[:4], (0.0, 6.0),
                    classical.launch_from_nucleus(0.7).as_array(), rtol=1e-11, atol=1e-11,
                    dense_output=True)
    k = run.t.size // 2
    step, inside = run.sol.on_step(k), float(0.7 * run.t[k] + 0.3 * run.t[k + 1])
    return [
        ("point guidance", lambda: bohmian._point_guidance(aniso, point, t), 1000),
        ("amplitude only", lambda: bohmian._point_amplitude(aniso, point, t), 1000),
        ("guidance Jacobian", lambda: bohmian._guidance_jacobian(aniso, point, t), 1000),
        ("batched guidance, 1e5 points", lambda: bohmian._guidance(box, members, 0.3), 2),
        ("batched amplitude, 1e5 points",
         lambda: np.abs(quantum._batched(box, members[:, 0], 0.3, 0)), 2),
        ("diamagnetic rhs", lambda: rhs(0.0, state), 1000),
        ("diamagnetic tangent rhs", lambda: tangent_rhs(0.0, tangent), 1000),
        ("monodromy rhs", lambda: monodromy_rhs(0.0, monodromy), 1000),
        ("dense query, one time", lambda: step(inside), 1000),
    ]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30, help="repeats per kernel (min taken)")
    args = parser.parse_args(argv)
    timed = kernels()
    best = [math.inf] * len(timed)
    for _ in range(args.repeats):
        for i, (_, call, number) in enumerate(timed):
            best[i] = min(best[i], timeit.timeit(call, number=number) / number)
    for (name, _, _), seconds in zip(timed, best):
        print(f"{name:30s} {seconds * 1e6:12.2f} us")


if __name__ == "__main__":
    main()
