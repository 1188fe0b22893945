"""The benchmark tracer still finds every binding it patches in pilotwave."""

import importlib.util
from pathlib import Path

from pilotwave import bohmian as bm
from pilotwave import classical as cl
from pilotwave import ensembles as en
from pilotwave import orbits as ob
from pilotwave import quantum as qm
from pilotwave import runner
from pilotwave import semiclassical as sc
from pilotwave import systems as sy

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_integrations_per_module(two_mode_box_complex):
    originals = [(bm, "solve_ivp"), (cl, "solve_ivp"), (en, "solve_ivp"),
                 (ob, "solve_ivp"), (sc, "solve_ivp"),
                 (bm, "integrate_bohmian"), (cl, "lyapunov_exponent"),
                 (runner, "integrate_bohmian"), (en, "evolve_ensemble"),
                 (qm, "evaluate_wavefunction"), (bm, "evaluate_wavefunction"),
                 (qm, "wavefield_sample")]
    # above 256 members the ensemble moves in one stacked integration
    ens = en.sample_quantum_equilibrium(two_mode_box_complex, 0.0, 300, seed=1)
    before = [getattr(mod, name) for mod, name in originals]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        bm.integrate_bohmian(two_mode_box_complex, [0.4], (0.0, 0.2))
        cl.lyapunov_exponent(sy.harmonic(1.0), sy.PhaseState((1.0,), (0.0,)), horizon=2.0)
        en.evolve_ensemble(ens, two_mode_box_complex, 0.1)
        qm.wavefield_sample(two_mode_box_complex, 0.3, 0.1)
        ob.find_closed_orbits(sy.DiamagneticSystem.scaled(-1.0), n_angles=4)
        sc.van_vleck_1d(sy.free_particle(), 0.2, 0.7, 0.5)
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert metrics["integrate.bohmian.nfev"] > 0
    assert metrics["integrate.classical.nfev"] > 0
    assert metrics["integrate.ensembles.nfev"] > 0
    assert metrics["integrate.orbits.nfev"] > 0
    assert metrics["integrate.semiclassical.nfev"] > 0
    assert metrics["quantum.eval_calls"] > 0
    assert metrics["quantum.sample_calls"] > 0
    assert metrics["ensembles.evolve_s"] > 0
    assert metrics["bohmian.trajectory_s"] > 0
    assert metrics["classical.lyapunov_s"] > 0
    assert [getattr(mod, name) for mod, name in originals] == before


def test_tracer_sees_only_the_array_calls_of_a_trajectory(chaotic_aniso_state):
    """One-point guidance runs in the scalar kernel `quantum._term_sum`, outside the
    traced name `evaluate_wavefunction`: of a trajectory the tracer times the
    array calls (the dense-output rebuild and the sampled fields) and no step."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        bm.integrate_bohmian(chaotic_aniso_state, [-0.4, -0.8], (1.0, 1.5))
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert metrics["quantum.scalar_us_per_call"] == 0.0
    assert metrics["quantum.batch_ns_per_point_term"] > 0
    assert 0 < metrics["quantum.eval_calls"] < metrics["integrate.bohmian.nfev"]
