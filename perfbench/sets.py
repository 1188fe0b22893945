"""Two sets of ten runs per workload: median and quartiles of every metric.

    python3 perfbench/sets.py

Run from the repository root.  For each workload of BENCHMARK.json it runs
run.py untraced RUNS times per set (set A seeds 1..RUNS, set B seeds
101..100+RUNS) with BENCHMARK.json's run_seconds, one run at a time.  The
sets are interleaved run by run, A B B A A B ..., so that a slow drift of
the machine's speed falls on both sets alike.  For each workload, metric
and set it prints the median, the quartiles (statistics.quantiles, n=4)
and their spread as a share of the median, then the change of the median
from A to B against the metric's bound.  Raw results go to
perfbench/out/sets.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUNS = 10
SET_SEEDS = {"A": 1, "B": 101}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    import numpy
    import scipy
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"run_seconds {bench['run_seconds']}, {RUNS} runs per set, interleaved")
    raw = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {label: [] for label in SET_SEEDS}
        for i in range(RUNS):
            for label in ("AB" if i % 2 == 0 else "BA"):
                sets[label].append(run_once(workload, SET_SEEDS[label] + i, bench["run_seconds"]))
        raw[workload] = sets
        print(f"\n{workload}")
        for label, runs in sets.items():
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"  set {label}: attempted {attempted}, failed {failed}, correct {correct}")
        print(f"  {'metric':<34}{'set':>4}{'median':>13}{'q1':>13}{'q3':>13}{'iqr/med':>9}")
        for metric in bounds:
            medians = {}
            for label, runs in sets.items():
                median, q1, q3 = summary([r["metrics"][metric]["value"] for r in runs])
                medians[label] = median
                print(f"  {metric:<34}{label:>4}{median:>13.6g}{q1:>13.6g}{q3:>13.6g}"
                      f"{(q3 - q1) / median:>9.4f}")
            change = medians["B"] / medians["A"] - 1.0
            print(f"  {'':<34}{'B/A':>4}{change:>+13.4f}  (bound {bounds[metric]})")
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "sets.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
