"""Golden outputs of the fixed-model query commands on the bundled data.

``emulate``, ``forcing`` and ``spatial-emulate`` run with
``data/synthetic/model_config.txt`` as a fixed model, holding out each future
in turn, so the held-out scenario sits first, in the middle and last among
the futures.  Every ``stride``-th row of each output must match the recorded
row to 1e-12, relative to the largest magnitude in each column.  ``evaluate``
scores the full ``emulate`` and ``spatial-emulate`` outputs against the
held-out scenario over 2015:2050; its score tables are held to the same
rule, with labels and blank cells equal.  The ``ssp_mid`` files carry no
holdout suffix.  ``fit`` is left out because it is slow and
every bit of its result depends on the optimizer path; ``sample`` because
eigenvector signs depend on the BLAS.

Re-record, only after reviewing an intended change of the numerics, with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import shutil
from pathlib import Path

import numpy as np
import pytest

from ebgp.cli import main

DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic"
GOLDEN = Path(__file__).resolve().parent / "data"
SCENARIOS = ("historical", "ssp_low", "ssp_mid", "ssp_high")
HOLDOUTS = ("ssp_low", "ssp_mid", "ssp_high")
STRIDES = {"emulate": 5, "forcing": 5, "spatial-emulate": 37}
# Score table name -> the command whose predictions ``evaluate`` scores.
SCORED = {"scores": "emulate", "spatial_scores": "spatial-emulate"}
PERIOD = "2015:2050"
RTOL = 1e-12


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def golden(name, holdout):
    """Path of the recorded output ``name`` for ``holdout``."""
    return GOLDEN / (f"golden_{name}.csv" if holdout == "ssp_mid"
                     else f"golden_{name}_{holdout}.csv")


def run_query(command, holdout, workdir):
    """Path of the command's full output."""
    out = Path(workdir) / f"{command}_{holdout}.csv"
    argv = [command, "--model", str(DATA / "model_config.txt"),
            "--scenario", *(str(DATA / f"{name}.csv") for name in SCENARIOS),
            "--holdout", holdout, "--out", str(out)]
    assert main(argv) == 0
    return out


def strided_rows(command, holdout, workdir):
    """Header and every ``stride``-th data row of the command's output."""
    header, rows = read_rows(run_query(command, holdout, workdir))
    return header, rows[:: STRIDES[command]]


def evaluate(table, holdout, workdir):
    """Path of ``evaluate``'s score table for the named predictions."""
    out = Path(workdir) / f"{table}_{holdout}.csv"
    predictions = run_query(SCORED[table], holdout, workdir)
    assert main(["evaluate", "--predictions", str(predictions),
                 "--scenario", str(DATA / f"{holdout}.csv"),
                 "--period", PERIOD, "--out", str(out)]) == 0
    return out


def assert_matches(got, reference):
    """Equal headers, row counts, labels and blanks; numbers within RTOL of
    the largest magnitude in their column."""
    (got_header, got_rows), (header, rows) = got, reference
    assert got_header == header
    assert len(got_rows) == len(rows)
    first = 1 if header[0] == "label" else 0
    assert [row[:first] for row in got_rows] == [row[:first] for row in rows]

    def numbers(table):
        return np.array([[float(cell) if cell else np.nan for cell in row[first:]]
                         for row in table])

    got, reference = numbers(got_rows), numbers(rows)
    assert np.array_equal(np.isnan(got), np.isnan(reference))
    scale = np.nanmax(np.abs(reference), axis=0)
    scale[~(scale > 0)] = 1.0
    assert np.nanmax(np.abs(got - reference) / scale) <= RTOL


def cases(names):
    """(name, holdout) pairs, with ids suffixed like the golden files."""
    return [pytest.param(name, holdout, id=name if holdout == "ssp_mid" else f"{name}-{holdout}")
            for name in sorted(names) for holdout in HOLDOUTS]


@pytest.mark.parametrize(("command", "holdout"), cases(STRIDES))
def test_matches_golden_rows(command, holdout, tmp_path):
    reference = read_rows(golden(command, holdout))
    assert_matches(strided_rows(command, holdout, tmp_path), reference)


@pytest.mark.parametrize(("table", "holdout"), cases(SCORED))
def test_matches_golden_scores(table, holdout, tmp_path):
    reference = read_rows(golden(table, holdout))
    assert_matches(read_rows(evaluate(table, holdout, tmp_path)), reference)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for holdout in HOLDOUTS:
            for command in sorted(STRIDES):
                header, rows = strided_rows(command, holdout, workdir)
                path = golden(command, holdout)
                with open(path, "w", newline="", encoding="utf-8") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(header)
                    writer.writerows([repr(float(cell)) for cell in row] for row in rows)
                print(f"wrote {path}")
            for table in sorted(SCORED):
                path = golden(table, holdout)
                shutil.copyfile(evaluate(table, holdout, workdir), path)
                print(f"wrote {path}")
