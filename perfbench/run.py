"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in its own process
(workload.py) with `src` on PYTHONPATH and every BLAS pool at one thread.
set-up is timed from process start to the child's `ready` line; it is
measured in SETUPS processes, half of the others before the measured one
and half after it, and the median reported.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUPS = 9  # set-up samples per run: SETUPS - 1 set-up-only processes and the measured one
CHILD_TIMEOUT = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in SINGLE_THREAD:
        env[key] = "1"
    return env


def spawn(args, root: Path, extra=()):
    """Start a workload process; return it with its set-up time in seconds."""
    cmd = [sys.executable, str(root / "perfbench" / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not start: {line!r}")
    return proc, setup


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pilotwave" / "__init__.py").is_file():
        print("run from the repository root: src/pilotwave is missing", file=sys.stderr)
        return 2

    def setup_only() -> float:
        proc, setup = spawn(args, root, ["--setup-only"])
        finish(proc)
        return setup

    setups = [setup_only() for _ in range(SETUPS // 2)]
    proc, setup = spawn(args, root)
    report = json.loads(finish(proc).strip().splitlines()[-1])
    setups += [setup] + [setup_only() for _ in range(SETUPS // 2)]

    untraced = report["untraced"]
    rounds = [untraced] + ([report["traced"]] if args.trace else [])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    for r in rounds:
        for err in r["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    if args.trace:
        units = {m["name"]: m["unit"]
                 for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
