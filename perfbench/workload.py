"""One workload process: set up, signal, run whole rounds, report as JSON.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                                  [--setup-only]

Run from the repository root with `src` on PYTHONPATH and BLAS pools at
one thread; run.py does both.  The set-up (imports, input generation,
scenario files) ends with the line `ready` on standard output, which is
what run.py times.  Then rounds of the workload's operations run until S
seconds have passed, at least one; each round is timed from its first call
into pilotwave to its last output file, and its outputs are checked after
the clock stops.  With --trace 1 the untraced rounds are followed by
traced rounds for another S seconds, and the spans go to spans.csv.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def run_rounds(workload, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed; per-round wall times."""
    walls, attempted, failed, wrong, errors = [], 0, 0, 0, []
    start = time.perf_counter()
    while True:
        results = []
        t0 = time.perf_counter()
        for op in workload.operations:
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # an operation that raises counts as failed
                results.append((op, None, exc))
        walls.append(time.perf_counter() - t0)
        for op, result, exc in results:
            attempted += 1
            if exc is None:
                try:
                    op.check(result)
                    continue
                except Exception as check_exc:
                    exc = check_exc
                    wrong += 1
            failed += 1
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        if time.perf_counter() - start >= seconds:
            return {"walls": walls, "attempted": attempted, "failed": failed,
                    "wrong": wrong, "errors": errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS  # imports numpy, scipy and pilotwave

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # set-up-only processes write elsewhere, so the measured run's outputs stay
    out = OUT / (args.workload + ("-setup" if args.setup_only else ""))
    workload = WORKLOADS[args.workload](args.seed, out)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced = run_rounds(workload, args.seconds)
    report = {"untraced": untraced,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, args.seconds)
        finally:
            tracer.uninstall()
        tracer.dump(workload.out / "spans.csv")
        layers = tracer.metrics(len(traced["walls"]))
        layers["ensembles.worst_quantile_err"] = workload.stats.get("worst_quantile_err", 0.0)
        layers["trace.overhead_s"] = (statistics.median(traced["walls"])
                                      - statistics.median(untraced["walls"]))
        report.update(traced=traced, per_layer=layers)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
