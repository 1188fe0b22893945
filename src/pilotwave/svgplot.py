"""Write-only SVG plots with deterministic coordinates.

A tiny line/scatter renderer: no timestamps, no random ids, fixed decimal
formatting, so byte-identical inputs give byte-identical files.  Used by the
CLI to render trajectory, section and recurrence figures.
"""

from __future__ import annotations

import csv

from .errors import ConfigError

__all__ = ["read_csv_columns", "emit_plot"]

WIDTH, HEIGHT = 720, 520
MARGIN = 64
TICKS = 5  # labelled ticks per axis
DOT_RADIUS = 2.0
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def read_csv_columns(path):
    """Column-name -> list[float] mapping of a headered CSV file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError(str(path), "empty CSV file")
    header = rows[0]
    cols = {name: [] for name in header}
    for row in rows[1:]:
        for name, val in zip(header, row):
            cols[name].append(float(val))
    return cols


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _ticks(lo: float, hi: float):
    if hi == lo:
        hi = lo + 1.0
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


class _Canvas:
    def __init__(self, xlim, ylim):
        self.xlim, self.ylim = xlim, ylim
        self.parts = []

    def x(self, v):
        lo, hi = self.xlim
        if hi == lo:
            return WIDTH / 2.0
        return MARGIN + (v - lo) / (hi - lo) * (WIDTH - 2 * MARGIN)

    def y(self, v):
        lo, hi = self.ylim
        if hi == lo:
            return HEIGHT / 2.0
        return HEIGHT - MARGIN - (v - lo) / (hi - lo) * (HEIGHT - 2 * MARGIN)

    def polyline(self, xs, ys, color):
        pts = " ".join(f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs, ys))
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'
        )

    def scatter(self, xs, ys, color):
        for a, b in zip(xs, ys):
            self.parts.append(
                f'<circle cx="{_fmt(self.x(a))}" cy="{_fmt(self.y(b))}" r="{DOT_RADIUS}" '
                f'fill="{color}"/>'
            )

    def vline(self, xv, color):
        self.parts.append(
            f'<line x1="{_fmt(self.x(xv))}" y1="{MARGIN}" x2="{_fmt(self.x(xv))}" '
            f'y2="{HEIGHT - MARGIN}" stroke="{color}" stroke-width="0.8" '
            'stroke-dasharray="4 3"/>'
        )

    def render(self, title, xlabel, ylabel):
        axes = [
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333333"/>'
        ]
        for tv in _ticks(*self.xlim):
            px = _fmt(self.x(tv))
            axes.append(
                f'<line x1="{px}" y1="{HEIGHT - MARGIN}" x2="{px}" '
                f'y2="{HEIGHT - MARGIN + 5}" stroke="#333333"/>'
            )
            axes.append(
                f'<text x="{px}" y="{HEIGHT - MARGIN + 18}" font-family="monospace" '
                f'font-size="11" text-anchor="middle">{tv:.4g}</text>'
            )
        for tv in _ticks(*self.ylim):
            py = _fmt(self.y(tv))
            axes.append(
                f'<line x1="{MARGIN - 5}" y1="{py}" x2="{MARGIN}" y2="{py}" stroke="#333333"/>'
            )
            axes.append(
                f'<text x="{MARGIN - 8}" y="{py}" font-family="monospace" font-size="11" '
                f'text-anchor="end" dominant-baseline="middle">{tv:.4g}</text>'
            )
        labels = [
            f'<text x="{WIDTH / 2}" y="24" font-family="monospace" font-size="14" '
            f'text-anchor="middle">{title}</text>',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{xlabel}</text>',
            f'<text x="16" y="{HEIGHT / 2}" font-family="monospace" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>',
        ]
        body = "\n".join(axes + self.parts + labels)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="{WIDTH}" height="{HEIGHT}" '
            f'fill="#ffffff"/>\n{body}\n</svg>\n'
        )


def emit_plot(dataset_path, spec: dict, out_path) -> None:
    """Render a CSV dataset to SVG following a small plot-spec dict.

    spec keys: kind ("line" | "scatter"), x, y (column names), optional
    title/xlabel/ylabel, optional overlays (list of {file, x, y, kind}) and
    optional vmarks (x positions drawn as dashed vertical lines).  A column
    name missing from the dataset raises ConfigError.
    """
    cols = read_csv_columns(dataset_path)
    layers = []
    kind = spec.get("kind", "line")
    xcol, ycol = spec.get("x"), spec.get("y")
    for need in (xcol, ycol):
        if need not in cols:
            raise ConfigError(str(need), f"column not in dataset {dataset_path}")
    layers.append((kind, cols[xcol], cols[ycol]))
    for ov in spec.get("overlays", []):
        ocols = read_csv_columns(ov["file"])
        for need in (ov["x"], ov["y"]):
            if need not in ocols:
                raise ConfigError(str(need), f"column not in overlay {ov['file']}")
        layers.append((ov.get("kind", "line"), ocols[ov["x"]], ocols[ov["y"]]))

    xs_all = [v for _, xs, _ in layers for v in xs]
    ys_all = [v for _, _, ys in layers for v in ys]
    for v in spec.get("vmarks", []):
        xs_all.append(float(v))
    if xs_all:
        xlim = (min(xs_all), max(xs_all))
        ylim = (min(ys_all), max(ys_all))
        pad = lambda lim: (lim[0] - 0.05 * (lim[1] - lim[0] or 1.0),  # noqa: E731
                           lim[1] + 0.05 * (lim[1] - lim[0] or 1.0))
        xlim, ylim = pad(xlim), pad(ylim)
    else:  # empty dataset: axes only
        xlim, ylim = (0.0, 1.0), (0.0, 1.0)

    cv = _Canvas(xlim, ylim)
    for i, (lk, xs, ys) in enumerate(layers):
        color = PALETTE[i % len(PALETTE)]
        if not xs:
            continue
        if lk == "scatter":
            cv.scatter(xs, ys, color)
        else:
            cv.polyline(xs, ys, color)
    for v in spec.get("vmarks", []):
        cv.vline(float(v), "#888888")
    svg = cv.render(spec.get("title", ""), spec.get("xlabel", xcol or ""),
                    spec.get("ylabel", ycol or ""))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
