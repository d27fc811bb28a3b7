"""Golden-output guard for the convex reference runs of the CLI.

`golden_reference.json` holds the values of `objective.csv`, `trace.csv`
and `plan.json` written by three CLI runs: `grid` with KL on the 7x7
lattice and with reverse KL on the 5x5 lattice (the benchmark's reference
grids, seed 0), and `dca` with KL at seed 3.  The values are compared to
1e-12 rather than byte for byte, so that a numpy build that rounds the
last digit differently still passes.

Regenerate (only on purpose, when the arithmetic is meant to change) with
`PYTHONPATH=src python tests/test_golden_reference.py`.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from prp import cli

GOLDEN = Path(__file__).with_name("golden_reference.json")
INSTANCE = {"d": 2, "K": 5, "lam": 0.1}
RUNS = {
    "grid_kl": {"kind": "grid", "divergence": "kl", "grid_points": 7,
                "seed": 0, **INSTANCE},
    "grid_reverse_kl": {"kind": "grid", "divergence": "reverse_kl",
                        "grid_points": 5, "seed": 0, **INSTANCE},
    "dca_kl": {"kind": "dca", "divergence": "kl", "seed": 3, **INSTANCE},
}


def _values(path: Path) -> list:
    """The numbers of a CSV file, row by row, without its header."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(cell) for cell in row] for row in rows]


def _outputs(doc: dict, root: Path) -> dict:
    """Run one config through the CLI and read back its value files."""
    config = root / "config.json"
    config.write_text(json.dumps(doc))
    out = root / "out"
    assert cli.main([doc["kind"], "--config", str(config),
                     "--out", str(out)]) == 0
    summary = "objective.csv" if doc["kind"] == "grid" else "trace.csv"
    return {summary: _values(out / summary),
            "plan.json": json.loads((out / "plan.json").read_text())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reference_run_matches_the_golden_outputs(golden, name, tmp_path):
    outputs = _outputs(RUNS[name], tmp_path)
    expected = golden[name]
    assert sorted(outputs) == sorted(expected)
    for file, values in expected.items():
        if file == "plan.json":
            assert sorted(outputs[file]) == sorted(values)
            for field, array in values.items():
                got = np.asarray(outputs[file][field])
                assert got.shape == np.shape(array), field
                assert np.abs(got - array).max() <= 1e-12, field
        else:
            got = np.asarray(outputs[file])
            assert got.shape == np.shape(values), file
            assert np.abs(got - values).max() <= 1e-12, file


if __name__ == "__main__":
    record = {}
    for name, doc in RUNS.items():
        with tempfile.TemporaryDirectory() as root:
            record[name] = _outputs(doc, Path(root))
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
