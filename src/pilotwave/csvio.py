"""The one CSV writer behind every data file.

Values are written as round-trip `repr` of Python floats (integer columns
as ints), comma separated, with \\r\\n line ends: the bytes `csv.writer`
writes for the same rows, so checksums are stable across writers.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, header, columns) -> None:
    """Write the header row, then row i from element i of every column.

    Each column is formatted in one `map(repr, ...)`; rows are joined from
    them and written 8192 at a time, so memory stays bounded.
    """
    cols = [map(repr, c.tolist() if c.dtype.kind in "iu" else c.astype(float, copy=False).tolist())
            for c in map(np.asarray, columns)]
    rows = map(",".join, zip(*cols, strict=True))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, 8192)):
            fh.write("\r\n".join(block) + "\r\n")
