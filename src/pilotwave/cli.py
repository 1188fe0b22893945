"""Command line front end: run scenarios, render plots, compare runs.

Exit codes: 0 success; 2 configuration or usage error, found before any
output directory is made; 3 numerical failure, reported as a message on
stderr, with the files the run wrote so far left in its output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, PilotwaveError
from .runner import compare_report, render_report_text, run_scenario, write_report
from .svgplot import emit_plot

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotwave",
        description="classical / Bohmian / semiclassical trajectory laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory")

    p_plot = sub.add_parser("plot", help="render a CSV dataset to SVG")
    p_plot.add_argument("data", help="CSV dataset")
    p_plot.add_argument("--spec", required=True, help="plot spec JSON file")
    p_plot.add_argument("--out", default=None, help="output SVG path")

    p_cmp = sub.add_parser("compare", help="compare completed scenario runs")
    p_cmp.add_argument("manifests", nargs="+", help="manifest files or run directories")
    p_cmp.add_argument("--out", default=None, help="directory for report files")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            manifest = run_scenario(args.config, out_dir=args.out)
            print(f"wrote {manifest.output_dir}/manifest.json "
                  f"({len(manifest.files)} files, {manifest.wall_time_s:.2f}s)")
            return EXIT_OK
        if args.command == "plot":
            with open(args.spec, "r", encoding="utf-8") as fh:
                try:
                    spec = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(args.spec, f"invalid JSON: {exc.msg}") from exc
            out = args.out or str(Path(args.data).with_suffix(".svg"))
            emit_plot(args.data, spec, out)
            print(f"wrote {out}")
            return EXIT_OK
        if args.command == "compare":
            report = compare_report(args.manifests, base=args.out)
            if args.out:
                write_report(report, Path(args.out))
            print(render_report_text(report))
            return EXIT_OK
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PilotwaveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
