"""The one CSV writer behind every data file.

Values are written as round-trip `repr` of Python floats (integer columns
as ints), comma separated, with \\r\\n line ends: the bytes `csv.writer`
writes for the same rows, so checksums are stable across writers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, header, columns) -> None:
    """Write the header row, then row i from element i of every column."""
    cols = []
    for c in map(np.asarray, columns):
        cols.append(c.tolist() if c.dtype.kind in "iu" else c.astype(float, copy=False).tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*cols, strict=True))
