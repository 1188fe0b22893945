import json
import math
import os
import shutil

import numpy as np
import pytest

from pilotwave import cli
from pilotwave import svgplot
from pilotwave.config import build_system, load_scenario, validate_scenario
from pilotwave.errors import ConfigError, DomainError
from pilotwave.runner import compare_report, run_scenario


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def _classical_doc(name="classical-smoke", epsilon=-1.0, **run_extra):
    run = {"launch_angle": 0.9, "duration": 20.0, "tol": 1e-9}
    run.update(run_extra)
    return {
        "schema": 1,
        "name": name,
        "kind": "classical",
        "system": {"kind": "diamagnetic", "epsilon": epsilon},
        "run": run,
    }


def _box_state():
    return {"system": {"kind": "box", "dimension": 1, "lengths": [1.0]},
            "terms": [{"c_re": 1.0, "c_im": 0.0, "n": [1]},
                      {"c_re": 0.0, "c_im": 0.4, "n": [2]}]}


def test_minimal_classical_scenario(tmp_path):
    cfg = _write(tmp_path / "c.json", _classical_doc())
    manifest = run_scenario(cfg, out_dir=tmp_path / "out")
    names = {f["path"] for f in manifest.files}
    assert {"trajectory.csv", "boundary.csv", "diagnostics.json"} <= names
    assert (tmp_path / "out" / "manifest.json").exists()


def test_bad_section_plane_rejected_before_the_run(tmp_path):
    cfg = _write(tmp_path / "c.json", _classical_doc(section={"index": 2}))
    with pytest.raises(DomainError):
        run_scenario(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_determinism_identical_checksums(tmp_path):
    cfg = _write(tmp_path / "c.json", _classical_doc(lyapunov={"horizon": 40.0}))
    m1 = run_scenario(cfg, out_dir=tmp_path / "a")
    m2 = run_scenario(cfg, out_dir=tmp_path / "b")
    sums1 = {f["path"]: f["sha256"] for f in m1.files}
    sums2 = {f["path"]: f["sha256"] for f in m2.files}
    assert sums1 == sums2
    assert m1.scenario_hash == m2.scenario_hash


def test_missing_seed_rejected(tmp_path):
    doc = {
        "schema": 1,
        "name": "ens",
        "kind": "ensemble",
        "state": _box_state(),
        "run": {"n": 100, "t1": 0.2},
    }
    with pytest.raises(ConfigError) as err:
        validate_scenario(doc)
    assert "seed" in str(err.value)


def test_unknown_fields_rejected(tmp_path):
    doc = _classical_doc()
    doc["run"]["typo_field"] = 1.0
    with pytest.raises(ConfigError) as err:
        validate_scenario(doc)
    assert "typo_field" in str(err.value)
    doc2 = _classical_doc()
    doc2["unexpected"] = {}
    with pytest.raises(ConfigError):
        validate_scenario(doc2)
    for knob in ("offset", "renorm_interval"):  # the lyapunov block takes a horizon only
        with pytest.raises(ConfigError) as err:
            validate_scenario(_classical_doc(lyapunov={"horizon": 10.0, knob: 1.0}))
        assert f"run.lyapunov.{knob}" in str(err.value)


def test_schema_version_enforced():
    doc = _classical_doc()
    doc["schema"] = 99
    with pytest.raises(ConfigError):
        validate_scenario(doc)


def test_build_system_validation():
    assert build_system({"kind": "diamagnetic", "epsilon": -0.5}).epsilon == -0.5
    with pytest.raises(ConfigError):
        build_system({"kind": "diamagnetic", "oops": 1.0})
    with pytest.raises(ConfigError):
        build_system({"kind": "pendulum"})


def _bohmian_doc(x0=(0.3,), n=(1,)):
    state = _box_state()
    state["terms"][0]["n"] = list(n)
    return {"schema": 1, "name": "bohm", "kind": "bohmian", "state": state,
            "run": {"x0": list(x0), "t1": 1.0}}


_MALFORMED = {
    "classical-epsilon": {**_classical_doc(), "system": {"kind": "diamagnetic", "epsilon": "abc"}},
    "trace-hbar": {"schema": 1, "name": "tr", "kind": "trace",
                   "system": {"kind": "harmonic", "hbar": "x", "omegas": [1.0]},
                   "run": {"e_min": 1.0, "e_max": 5.0, "n_grid": 50, "repetitions": 2,
                           "gamma": 0.1}},
    "bohmian-quantum-number": _bohmian_doc(n=["x"]),
    "bohmian-quantum-number-fraction": _bohmian_doc(n=[2.7]),
    "bohmian-quantum-number-bool": _bohmian_doc(n=[True]),
    "bohmian-dimension-fraction": _bohmian_doc() | {"state": _box_state() | {
        "system": {"kind": "box", "dimension": 1.9, "lengths": [1.0]}}},
    "bohmian-hbar-string": _bohmian_doc() | {"state": _box_state() | {
        "system": {"kind": "box", "hbar": "2", "lengths": [1.0]}}},
    "bohmian-length-string": _bohmian_doc() | {"state": _box_state() | {
        "system": {"kind": "box", "lengths": ["1.0"]}}},
    "bohmian-coefficient-bool": _bohmian_doc() | {"state": _box_state() | {
        "terms": [{"c_re": True, "c_im": 0.0, "n": [1]}]}},
    "classical-epsilon-bool": {**_classical_doc(), "system": {"kind": "diamagnetic",
                                                              "epsilon": True}},
    "bohmian-x0": _bohmian_doc(x0=["q"]),
    "ensemble-empty": {"schema": 1, "name": "ens", "kind": "ensemble", "state": _box_state(),
                       "run": {"n": 0, "seed": 11, "t1": 0.4}},
    "ensemble-negative": {"schema": 1, "name": "ens", "kind": "ensemble",
                          "state": _box_state(), "run": {"n": -3, "seed": 11, "t1": 0.4}},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_values_are_config_errors(tmp_path, capsys, case):
    """A value of the wrong kind or range exits 2 before the output directory is made."""
    cfg = _write(tmp_path / "s.json", _MALFORMED[case])
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", {"schema": 1, "kind": "classical"})
    assert cli.main(["run", bad]) == 2
    missing = str(tmp_path / "nope.json")
    assert cli.main(["run", missing]) == 2
    # numerical failure: a Bohmian run started inside the node guard band
    doc = {
        "schema": 1,
        "name": "node-start",
        "kind": "bohmian",
        "state": {"system": {"kind": "box", "dimension": 1, "lengths": [1.0]},
                  "terms": [{"c_re": 1.0, "c_im": 0.0, "n": [2]}]},
        "run": {"x0": [0.5], "t1": 1.0},
    }
    cfg = _write(tmp_path / "node.json", doc)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "n")]) == 3
    ok = _write(tmp_path / "ok.json", _classical_doc())
    assert cli.main(["run", ok, "--out", str(tmp_path / "ok")]) == 0


def test_ensemble_scenario_and_metrics(tmp_path):
    doc = {
        "schema": 1,
        "name": "ens",
        "kind": "ensemble",
        "state": _box_state(),
        "run": {"n": 4000, "seed": 11, "t1": 0.4},
    }
    cfg = _write(tmp_path / "e.json", doc)
    manifest = run_scenario(cfg, out_dir=tmp_path / "out")
    names = {f["path"] for f in manifest.files}
    assert {"ensemble_t0.csv", "ensemble_t1.csv", "node_reports.json", "metrics.json"} <= names
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["l1_t1"] < 0.2


def test_recurrence_scenario(tmp_path):
    doc = {
        "schema": 1,
        "name": "rec",
        "kind": "recurrence",
        "state": {"system": {"kind": "harmonic", "dimension": 1, "omegas": [1.0]},
                  "terms": [{"c_re": 1.0, "c_im": 0.0, "n": [0]},
                            {"c_re": 1.0, "c_im": 0.0, "n": [1]},
                            {"c_re": 1.0, "c_im": 0.0, "n": [2]}]},
        "run": {"t_max": 16.0, "samples": 3201},
    }
    cfg = _write(tmp_path / "r.json", doc)
    run_scenario(cfg, out_dir=tmp_path / "out")
    peaks = json.loads((tmp_path / "out" / "peaks.json").read_text())
    assert abs(peaks["orbit_period"] - 2.0 * math.pi) < 1e-9
    matched = [a for a in peaks["associations"] if a["orbit"] is not None]
    assert matched and matched[0]["repetition"] >= 1
    # the half-period partial revival has no classical partner: flagged
    unmatched = [a for a in peaks["associations"] if a["orbit"] is None]
    assert unmatched


def test_trace_scenario(tmp_path):
    doc = {
        "schema": 1,
        "name": "tr",
        "kind": "trace",
        "system": {"kind": "harmonic", "dimension": 1, "omegas": [1.0]},
        "run": {"e_min": 0.05, "e_max": 4.5, "n_grid": 2001,
                "repetitions": 40, "gamma": 0.05},
    }
    cfg = _write(tmp_path / "t.json", doc)
    run_scenario(cfg, out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert rows[0] == "E,mean,oscillatory,total"
    data = np.loadtxt(rows[1:], delimiter=",")
    assert np.allclose(data[:, 1] + data[:, 2], data[:, 3])


def test_trace_scenario_maxima_are_levels(tmp_path):
    """On criterion 10's grid the maxima are the five levels n + 1/2, not roundoff ripples."""
    grid = (0.05, 5.5, 4001)
    doc = {"schema": 1, "name": "tr", "kind": "trace",
           "system": {"kind": "harmonic", "dimension": 1, "omegas": [1.0]},
           "run": {"e_min": grid[0], "e_max": grid[1], "n_grid": grid[2],
                   "repetitions": 50, "gamma": 0.03}}
    run_scenario(_write(tmp_path / "t.json", doc), out_dir=tmp_path / "out")
    with open(tmp_path / "out" / "peaks.json", encoding="utf-8") as fh:
        maxima = json.load(fh)["maxima"]
    spacing = (grid[1] - grid[0]) / (grid[2] - 1)
    assert [round(m["E"] - 0.5) for m in maxima] == [0, 1, 2, 3, 4]
    assert all(abs(m["E"] - (n + 0.5)) <= spacing for n, m in enumerate(maxima))


def test_compare_scenarios(tmp_path):
    reg = _write(tmp_path / "reg.json",
                 _classical_doc(name="regular", lyapunov={"horizon": 60.0}))
    run_scenario(reg, out_dir=tmp_path / "reg")
    doc = {
        "schema": 1,
        "name": "bohm-chaos",
        "kind": "bohmian",
        "state": {"system": {"kind": "harmonic", "dimension": 2,
                             "omegas": [1.0, math.sqrt(2.0)]},
                  "terms": [{"c_re": 1.0, "c_im": 0.0, "n": [0, 0]},
                            {"c_re": 0.9, "c_im": 0.0, "n": [2, 0]},
                            {"c_re": 0.0, "c_im": 0.8, "n": [1, 1]},
                            {"c_re": 0.7, "c_im": 0.0, "n": [0, 2]}]},
        "run": {"x0": [-0.4, -0.8], "t0": 1.0, "t1": 3.0,
                "lyapunov": {"horizon": 80.0}},
    }
    boh = _write(tmp_path / "boh.json", doc)
    run_scenario(boh, out_dir=tmp_path / "boh")
    report = compare_report([tmp_path / "reg", tmp_path / "boh"])
    assert "mismatch: classical regular, Bohmian chaotic" in report["mismatch_flags"]
    self_cmp = compare_report([tmp_path / "reg", tmp_path / "reg"])
    assert self_cmp["deltas"][0]["lyapunov_delta"] == 0.0
    single = compare_report([tmp_path / "reg"])
    assert len(single["scenarios"]) == 1 and not single["deltas"]


def test_cli_compare_report_matches_compare_scenario(tmp_path, capsys):
    """`pilotwave compare --out` and a compare scenario write the same report bytes."""
    runs = []
    for eps in (-1.0, -0.15):
        name = f"c{eps:+g}"
        cfg = _write(tmp_path / f"{name}.json", _classical_doc(
            name=name, epsilon=eps, duration=5.0, lyapunov={"horizon": 5.0}))
        run_scenario(cfg, out_dir=tmp_path / name)
        runs.append(str(tmp_path / name))
    cmp_cfg = _write(tmp_path / "cmp.json", {"schema": 1, "name": "cmp", "kind": "compare",
                                             "run": {"inputs": runs}})
    run_scenario(cmp_cfg, out_dir=tmp_path / "scenario")
    assert cli.main(["compare", *runs, "--out", str(tmp_path / "cli")]) == 0
    for name in ("report.json", "report.txt"):
        cli_bytes = (tmp_path / "cli" / name).read_bytes()
        assert cli_bytes == (tmp_path / "scenario" / name).read_bytes()
        assert cli_bytes.endswith(b"\n")
    assert capsys.readouterr().out == (tmp_path / "cli" / "report.txt").read_text() + "\n"


def test_compare_report_is_the_same_in_a_copied_tree(tmp_path):
    """Inputs copied into two different trees give byte-identical report files:
    manifest paths are written relative to the report's directory."""
    first = tmp_path / "first"
    for eps in (-1.0, -0.15):
        name = f"c{eps:+g}"
        cfg = _write(tmp_path / f"{name}.json", _classical_doc(
            name=name, epsilon=eps, duration=5.0, lyapunov={"horizon": 5.0}))
        run_scenario(cfg, out_dir=first / name)
    second = tmp_path / "elsewhere" / "second"
    shutil.copytree(first, second)
    for tree in (first, second):
        cmp_cfg = _write(tree / "cmp.json", {"schema": 1, "name": "cmp", "kind": "compare",
                                             "run": {"inputs": [str(tree / "c-1"),
                                                                str(tree / "c-0.15")]}})
        run_scenario(cmp_cfg, out_dir=tree / "compare")
    for name in ("report.json", "report.txt"):
        assert (first / "compare" / name).read_bytes() == (second / "compare" / name).read_bytes()
    rows = json.loads((first / "compare" / "report.json").read_text())["scenarios"]
    assert [row["manifest"] for row in rows] == [os.path.join("..", "c-1", "manifest.json"),
                                                  os.path.join("..", "c-0.15", "manifest.json")]


def test_emit_plot_trajectory_with_overlay(tmp_path):
    cfg = _write(tmp_path / "c.json", _classical_doc())
    run_scenario(cfg, out_dir=tmp_path / "out")
    spec = {"kind": "line", "x": "q1", "y": "q2",
            "overlays": [{"file": str(tmp_path / "out" / "boundary.csv"),
                          "x": "q1", "y": "q2"}]}
    out = tmp_path / "traj.svg"
    svgplot.emit_plot(tmp_path / "out" / "trajectory.csv", spec, out)
    text = out.read_text()
    assert text.startswith("<svg") and text.count("<polyline") == 2


def test_emit_plot_recurrence_with_marks(tmp_path):
    rows = ["t,abs_C"] + [f"{t},{abs(math.cos(t))}" for t in np.linspace(0, 5, 60)]
    data = tmp_path / "rec.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "rec.svg"
    svgplot.emit_plot(data, {"kind": "line", "x": "t", "y": "abs_C",
                             "vmarks": [math.pi, 2 * math.pi]}, out)
    assert out.read_text().count("stroke-dasharray") == 2


def test_emit_plot_empty_dataset(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("a,b\n")
    out = tmp_path / "empty.svg"
    svgplot.emit_plot(data, {"kind": "scatter", "x": "a", "y": "b"}, out)
    text = out.read_text()
    assert text.startswith("<svg") and "<rect" in text


def test_emit_plot_column_mismatch(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        svgplot.emit_plot(data, {"kind": "line", "x": "a", "y": "missing"}, tmp_path / "x.svg")


def test_emit_plot_deterministic(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,2\n2,3\n3,1\n")
    out1, out2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
    svgplot.emit_plot(data, {"kind": "line", "x": "a", "y": "b"}, out1)
    svgplot.emit_plot(data, {"kind": "line", "x": "a", "y": "b"}, out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)
