import csv
import math

import numpy as np
import pytest

from pilotwave.csvio import write_csv

VALUES = [0.0, -0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf,
          5e-324, 2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 123456789.123456789]


def _reference(path, header, columns):
    """Rows as csv.writer writes them: ints as str, floats as repr(float(v))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([str(v) if isinstance(v, np.integer) else repr(float(v)) for v in row])


@pytest.mark.parametrize("ncols", [1, 2, 6])
@pytest.mark.parametrize("with_ids", [False, True])
@pytest.mark.parametrize("nrows", [0, 1, len(VALUES)])
def test_write_csv_matches_csv_writer(tmp_path, ncols, with_ids, nrows):
    columns = [np.roll(np.array(VALUES), k)[:nrows] for k in range(ncols)]
    header = [f"c{k}" for k in range(ncols)]
    if with_ids:
        columns = [np.arange(nrows)] + columns
        header = ["member_id"] + header
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, columns)
    _reference(want, header, columns)
    data = got.read_bytes()
    assert data == want.read_bytes()
    assert data.count(b"\r\n") == nrows + 1 and data.count(b"\n") == nrows + 1


def test_write_csv_round_trips_floats(tmp_path):
    path = tmp_path / "v.csv"
    write_csv(path, ["v"], [np.array(VALUES)])
    back = [float(line) for line in path.read_text().splitlines()[1:]]
    assert [math.copysign(1.0, v) for v in back] == [math.copysign(1.0, v) for v in VALUES]
    np.testing.assert_array_equal(back, VALUES)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


def test_write_csv_matches_csv_writer_across_write_blocks(tmp_path):
    """20,000 rows span three of the writer's 8192-row writes; the bytes still match."""
    rng = np.random.default_rng(5)
    n = 20_000
    columns = [np.arange(n), rng.normal(size=n), rng.uniform(size=n) * 1e-300]
    header = ["member_id", "x1", "x2"]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, header, columns)
    _reference(want, header, columns)
    assert got.read_bytes() == want.read_bytes()
