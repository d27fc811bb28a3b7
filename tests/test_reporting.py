import numpy as np

from prp.reporting import write_csv


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
