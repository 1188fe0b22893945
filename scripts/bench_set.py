"""Paired benchmark runs of two checkouts, written as BENCH_<n>.json files.

    python3 scripts/bench_set.py run --base DIR --head DIR --seeds 11-20 --out runs.jsonl
    python3 scripts/bench_set.py run --base DIR --head DIR --seeds 11 --trace --out runs.jsonl
    python3 scripts/bench_set.py write runs.jsonl --base BENCH_5.json --head BENCH_6.json
    python3 scripts/bench_set.py outputs --base DIR --head DIR --seeds 11-20

`run` calls `perfbench/run.py --workload W --seed S --seconds 25 --trace 0`
in each checkout, for every workload of `BENCHMARK.json` and every seed,
alternating which checkout goes first, and appends one JSON line per run;
with --trace it makes traced runs (`--trace 1`), which report the per-layer
metrics instead and count towards no end-to-end statistic.
Each line carries the machine (nproc, Python, numpy, scipy) and a sha256
of the checkout's `src/` tree, so a file can be matched to the code it
measured.  `write` turns the lines into one file per side, with each run
and the median and quartiles of every end-to-end metric, and each traced
run's per-layer metrics under `traced`.  For every
workload and end-to-end metric it prints how often the head beat the base
on the same seed, and the verdict on the metric's `BENCHMARK.json` bound:
median(head) / median(base) - 1 at most the bound (for a metric where
lower is better; the other way round otherwise), or REGRESSION.  Then it
prints the traced table: every per-layer metric of each workload, base and
head side by side.

`outputs` runs `perfbench/workload.py --workload W --seed S --seconds 0
--trace 0` (one round) in each checkout, with `src` on PYTHONPATH and BLAS
at one thread, for every workload and seed, and compares by sha256 every
file that a `manifest.json` under `perfbench/out/W/` lists; files no
manifest lists (scenario inputs, spans) are not compared.  For a CSV that
differs it prints the rows that differ and the largest absolute and
relative difference of their numbers.  It exits 1 if any file differs or
is missing, or a run fails.  It first prints the line count of each
checkout's `src/` (`src/ lines: base N → head M`), as `wc -l` counts it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROWS_SHOWN = 5  # differing CSV rows printed per file; all are counted


def source_digest(checkout: Path) -> str:
    """sha256 over the paths and bytes of every file under src/, in path order."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_lines(base: Path, head: Path) -> str:
    """The newline count over the files under each checkout's src/, as one report line."""
    base_n, head_n = (sum(path.read_bytes().count(b"\n") for path in (side / "src").rglob("*.py"))
                      for side in (base, head))
    return f"src/ lines: base {base_n} → head {head_n}"


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def workload_names() -> list[str]:
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args) -> None:
    sides = {"base": Path(args.base).resolve(), "head": Path(args.head).resolve()}
    digests = {side: source_digest(path) for side, path in sides.items()}
    workloads = workload_names()
    for workload in workloads:
        for i, seed in enumerate(seed_range(args.seeds)):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(SECONDS),
                       "--trace", str(int(args.trace))]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                record = {"side": side, "workload": workload, "seed": seed,
                          "trace": int(args.trace), "src_sha256": digests[side],
                          "machine": machine(), "returncode": proc.returncode,
                          "result": json.loads(lines[-1]) if lines else None}
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")


def summary(records: list[dict], units: dict) -> dict:
    runs = [{"seed": r["seed"], "correct": r["result"]["correct"],
             "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
             "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
            for r in records]
    stats = {}
    for name, unit in units.items():
        q1, median, q3 = np.percentile([run["metrics"][name] for run in runs], [25, 50, 75])
        stats[name] = {"unit": unit, "median": round(float(median), 6),
                       "q1": round(float(q1), 6), "q3": round(float(q3), 6)}
    return {"runs": runs, "all_correct": all(run["correct"] for run in runs),
            "operations_attempted": sum(run["attempted"] for run in runs),
            "operations_failed": sum(run["failed"] for run in runs), "summary": stats}


def write(args) -> None:
    lines = [json.loads(line) for line in open(args.runs)]
    bad = [r for r in lines if r["returncode"] != 0 or r["result"] is None]
    if bad:
        raise SystemExit(f"{len(bad)} runs did not finish, e.g. {bad[0]['side']} "
                         f"{bad[0]['workload']} seed {bad[0]['seed']}")
    metrics = {m["name"]: m
               for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    units = {name: m["unit"] for name, m in metrics.items()}
    records = [r for r in lines if not r.get("trace")]
    traced = [r for r in lines if r.get("trace")]
    workloads = list(dict.fromkeys(r["workload"] for r in records))
    seeds = sorted({r["seed"] for r in records})
    for side, path in (("base", args.base), ("head", args.head)):
        mine = [r for r in lines if r["side"] == side]
        for key in ("src_sha256", "machine"):
            if len({json.dumps(r[key]) for r in mine}) != 1:
                raise SystemExit(f"{side} runs differ in {key}")
        doc = {"label": Path(path).stem, "side": side,
               "src_sha256": mine[0]["src_sha256"], "machine": mine[0]["machine"],
               "command": f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {SECONDS} --trace 0",
               "protocol": f"seeds {', '.join(map(str, seeds))}, one run per seed and "
                           "workload, paired with a run of the other checkout on the same "
                           "seed, alternating which ran first",
               "quartiles": "numpy.percentile 25/50/75, linear interpolation",
               "workloads": {w: summary([r for r in mine if r["workload"] == w
                                         and not r.get("trace")], units)
                             for w in workloads}}
        for r in mine:
            if r.get("trace"):
                doc["workloads"].setdefault(r["workload"], {}).setdefault("traced", []).append(
                    {"seed": r["seed"], "correct": r["result"]["correct"],
                     "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}})
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    for w in workloads:
        for name in units:
            value = {(r["side"], r["seed"]): r["result"]["metrics"][name]["value"]
                     for r in records if r["workload"] == w}
            base = np.array([value["base", s] for s in seeds])
            head = np.array([value["head", s] for s in seeds])
            q1, med, q3 = np.percentile(base, [25, 50, 75])
            change = np.median(head) / med - 1.0
            worse = change if metrics[name]["better"] == "lower" else -change
            verdict = "within" if worse <= metrics[name]["bound"] else "REGRESSION past"
            print(f"{w:18s} {name:12s} base {med:.4g} [{q1:.4g}, {q3:.4g}]  "
                  f"head {np.median(head):.4g}  head lower on {int(np.sum(head < base))}"
                  f"/{len(seeds)} seeds  median change {change:+.1%}: {verdict} "
                  f"the {metrics[name]['bound']:.0%} bound")
    for r in traced:
        if r["side"] == "base":
            head = next((h for h in traced if h["side"] == "head"
                         and (h["workload"], h["seed"]) == (r["workload"], r["seed"])), None)
            print(f"\ntraced {r['workload']}, seed {r['seed']}: base -> head")
            for name, m in r["result"]["metrics"].items():
                after = head["result"]["metrics"][name]["value"] if head else float("nan")
                print(f"  {name:36s} {m['value']:12.6g} -> {after:12.6g} {m['unit']}")


def workload_outputs(checkout: Path, workload: str, seed: int) -> Path:
    """One round of `workload` in `checkout`; its output tree, perfbench/out/<workload>."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(SINGLE_THREAD, "1"))
    cmd = [sys.executable, "perfbench/workload.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if report is None or report["untraced"]["failed"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed: "
                           f"{report['untraced']['errors'] if report else proc.stderr[-2000:]}")
    return checkout / "perfbench" / "out" / workload


def listed_files(tree: Path) -> set[str]:
    """Paths, relative to `tree`, of every file that a manifest.json under it lists."""
    return {str((m.parent / f["path"]).relative_to(tree))
            for m in tree.rglob("manifest.json")
            for f in json.loads(m.read_text())["files"]}


def csv_differences(base: Path, head: Path) -> list[str]:
    """The differing rows of two CSV files, and the largest differences of their numbers."""
    rows = [path.read_text().splitlines() for path in (base, head)]
    lines, count, worst_abs, worst_rel = [], 0, 0.0, 0.0
    if len(rows[0]) != len(rows[1]):
        lines.append(f"    {len(rows[0])} rows in base, {len(rows[1])} in head")
    for i, (a, b) in enumerate(zip(*rows)):
        if a == b:
            continue
        count += 1
        if count <= ROWS_SHOWN:
            lines += [f"    row {i} base: {a}", f"    row {i} head: {b}"]
        for x, y in zip(a.split(","), b.split(",")):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            worst_abs = max(worst_abs, abs(x - y))
            if x != y:
                worst_rel = max(worst_rel, abs(x - y) / max(abs(x), abs(y)))
    lines.append(f"    {count} rows differ; largest difference {worst_abs:.3g} absolute, "
                 f"{worst_rel:.3g} relative")
    return lines


def compare_outputs(base: Path, head: Path) -> tuple[list[str], int]:
    """(report lines, files that differ or are missing) over the manifest-listed files."""
    lines, bad = [], 0
    for name in sorted(listed_files(base) | listed_files(head)):
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"  {name}: missing in {'head' if a.is_file() else 'base'}")
            bad += 1
        elif file_sha256(a) == file_sha256(b):
            lines.append(f"  {name}: identical")
        else:
            lines.append(f"  {name}: DIFFERS")
            if name.endswith(".csv"):
                lines += csv_differences(a, b)
            bad += 1
    return lines, bad


def outputs(args) -> None:
    sides = [Path(args.base).resolve(), Path(args.head).resolve()]
    print(source_lines(*sides))
    total = 0
    for workload in workload_names():
        for seed in seed_range(args.seeds):
            base, head = (workload_outputs(side, workload, seed) for side in sides)
            lines, bad = compare_outputs(base, head)
            print(f"{workload} seed {seed}:", *lines, sep="\n")
            total += bad
    print(f"{total} of the manifest-listed files differ or are missing")
    if total:
        raise SystemExit(1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(required=True)
    p = sub.add_parser("run", help="paired runs, appended as JSON lines")
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--head", default=str(ROOT), help="checkout of the change")
    p.add_argument("--seeds", default="11-20", help="inclusive range, e.g. 11-20")
    p.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    p.add_argument("--out", required=True)
    p.set_defaults(func=run)
    p = sub.add_parser("write", help="BENCH files from the JSON lines")
    p.add_argument("runs")
    p.add_argument("--base", required=True, help="output file for the base checkout")
    p.add_argument("--head", required=True, help="output file for the head checkout")
    p.set_defaults(func=write)
    p = sub.add_parser("outputs", help="compare the outputs of one round in each checkout")
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--head", default=str(ROOT), help="checkout of the change")
    p.add_argument("--seeds", default="11-20", help="inclusive range, e.g. 11-20")
    p.set_defaults(func=outputs)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
