"""`scripts/bench_set.py outputs` compares the manifest-listed files of two output trees."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_set.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_set", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, rows, report, unlisted):
    """One run directory with a manifest listing data.csv and report.json, and one
    input file beside it that no manifest lists."""
    run = root / "run"
    run.mkdir(parents=True)
    (run / "data.csv").write_text("t,x\n" + "".join(f"{t},{x}\n" for t, x in rows))
    (run / "report.json").write_text(report)
    (root / "compare.json").write_text(unlisted)
    (run / "manifest.json").write_text(json.dumps(
        {"files": [{"path": "data.csv", "sha256": ""}, {"path": "report.json", "sha256": ""}]}))
    return root


def test_outputs_compares_listed_files_only(tmp_path):
    bench_set = _load()
    rows = [(0.0, 0.5), (0.1, 0.25), (0.2, 0.125)]
    base = _tree(tmp_path / "base", rows, "{}", '{"inputs": ["/one/checkout"]}')
    head = _tree(tmp_path / "head", rows, "{}", '{"inputs": ["/another/checkout"]}')
    assert bench_set.compare_outputs(base, head) == (
        ["  run/data.csv: identical", "  run/report.json: identical"], 0)

    changed = _tree(tmp_path / "changed", [rows[0], (0.1, 0.2500000001), (0.2, 0.1)], "[]", "")
    lines, bad = bench_set.compare_outputs(base, changed)
    assert bad == 2
    assert lines == ["  run/data.csv: DIFFERS",
                     "    row 2 base: 0.1,0.25", "    row 2 head: 0.1,0.2500000001",
                     "    row 3 base: 0.2,0.125", "    row 3 head: 0.2,0.1",
                     "    2 rows differ; largest difference 0.025 absolute, 0.2 relative",
                     "  run/report.json: DIFFERS"]

    (changed / "run" / "report.json").unlink()
    assert "  run/report.json: missing in head" in bench_set.compare_outputs(base, changed)[0]
