"""Golden outputs of the fixed-model query commands on the bundled data.

``emulate``, ``forcing`` and ``spatial-emulate`` run with
``data/synthetic/model_config.txt`` as a fixed model, holding out
``ssp_mid``.  Every ``stride``-th row of each output must match the recorded
row to 1e-12, relative to the largest magnitude in each column.  ``fit`` is
left out because it is slow and every bit of its result depends on the
optimizer path; ``sample`` because eigenvector signs depend on the BLAS.

Re-record, only after reviewing an intended change of the numerics, with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from ebgp.cli import main

DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic"
GOLDEN = Path(__file__).resolve().parent / "data"
SCENARIOS = ("historical", "ssp_low", "ssp_mid", "ssp_high")
STRIDES = {"emulate": 5, "forcing": 5, "spatial-emulate": 37}
RTOL = 1e-12


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(cell) for cell in row] for row in rows[1:]]


def strided_rows(command, workdir):
    """Header and every ``stride``-th data row of the command's output."""
    out = Path(workdir) / f"{command}.csv"
    argv = [command, "--model", str(DATA / "model_config.txt"),
            "--scenario", *(str(DATA / f"{name}.csv") for name in SCENARIOS),
            "--holdout", "ssp_mid", "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_rows(out)
    return header, rows[:: STRIDES[command]]


@pytest.mark.parametrize("command", sorted(STRIDES))
def test_matches_golden_rows(command, tmp_path):
    header, reference = read_rows(GOLDEN / f"golden_{command}.csv")
    got_header, got = strided_rows(command, tmp_path)
    assert got_header == header
    reference, got = np.array(reference), np.array(got)
    assert got.shape == reference.shape
    scale = np.max(np.abs(reference), axis=0)
    scale[scale == 0] = 1.0
    assert np.max(np.abs(got - reference) / scale) <= RTOL


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for command in sorted(STRIDES):
            header, rows = strided_rows(command, workdir)
            path = GOLDEN / f"golden_{command}.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows([repr(value) for value in row] for row in rows)
            print(f"wrote {path}")
