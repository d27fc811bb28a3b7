import numpy as np

from prp.reporting import format_value, write_csv


def test_csv_cells_keep_their_format(tmp_path):
    # 17 significant digits for every float type, lowercase booleans
    rows = [(0.1, np.float64(1.0 / 3.0), np.float32(0.1), 7, np.int64(-3)),
            (True, np.bool_(False), "prp-adam", float("inf"), float("nan")),
            (-0.0, float("-inf"), 2.5e-300, 10 ** 20, "")]
    path = write_csv(tmp_path / "cells.csv", ("a", "b", "c", "d", "e"), rows)
    assert path.read_bytes() == (
        b"a,b,c,d,e\n"
        b"0.10000000000000001,0.33333333333333331,0.10000000149011612,7,-3\n"
        b"true,false,prp-adam,inf,nan\n"
        b"-0,-inf,2.5e-300,100000000000000000000,\n")


def _by_cell(header, rows):
    lines = [",".join(header)] + [",".join(format_value(x) for x in row)
                                  for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_rows_by_template_equal_format_value_cell_by_cell(tmp_path):
    rng = np.random.default_rng(3)
    floats = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e-320,
              2.5e-300, 1.0 / 3.0, 1e16, 1e17, 10.0 ** 20, -123.456,
              *rng.normal(size=40).tolist(),
              *(rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)
                ).tolist()]
    ints = [0, -1, 7, 10 ** 20, -(10 ** 30)]
    header = ("method", "run", "value", "other")
    rows = [("prp-adam", ints[i % len(ints)], x, floats[-1 - i])
            for i, x in enumerate(floats)]
    # numpy scalars and bools in float and int columns, a list row, and a
    # signature that changes midway and back
    rows += [("sink-rms", True, np.float64(0.1), False),
             ("dca", np.int64(-3), np.bool_(True), np.float32(0.1)),
             ["list", 4, 0.25, "%s%d"],
             ("", 10 ** 20, 10 ** 20, float("nan")),
             ("prp-rms", 2, 1e-5, -0.0)]
    path = write_csv(tmp_path / "rows.csv", header, rows)
    assert path.read_bytes() == _by_cell(header, rows)
