"""Output checks for every CLI command the benchmark runs.

Each check reads the command's output file and returns a list of failure
messages (empty when the output is sound).  Structural invariants hold on any
seed; ``compare_reference`` additionally compares fixed-model outputs with
values recorded from an earlier version of the program.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Fixed-model outputs may differ from the recorded reference by at most this
# much, relative to the largest magnitude in each column.
REFERENCE_RTOL = 1e-12
# A fit may end at most this far below the recorded final log-likelihood per
# training row; stopping early costs far more than this.
MLL_PER_ROW_SLACK = 0.002
# Posterior sample means must lie within this many standard errors of the
# emulated predictive mean, year by year.
SAMPLE_MEAN_SIGMAS = 6.0

INTERVAL_HEADER = ["year", "prior_mean", "posterior_mean", "posterior_std", "lower95", "upper95"]
SPATIAL_HEADER = ["lat", "lon", *INTERVAL_HEADER]
SCORE_HEADER = ["label", "rmse", "mae", "bias", "log_likelihood", "calib95", "crps"]


def option(argv: list[str], flag: str) -> str | None:
    if flag not in argv:
        return None
    return argv[argv.index(flag) + 1]


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a CSV written by the CLI."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    body = np.array(rows[1:], dtype=float) if len(rows) > 1 else np.empty((0, len(rows[0])))
    return rows[0], body


def _interval_failures(header, body, expected_header, expected_rows) -> list[str]:
    if header != expected_header:
        return [f"header {header} != {expected_header}"]
    out = []
    if body.shape[0] != expected_rows:
        out.append(f"{body.shape[0]} rows, expected {expected_rows}")
    if not np.all(np.isfinite(body)):
        out.append("non-finite values")
        return out
    mean, std = body[:, -4], body[:, -3]
    lower, upper = body[:, -2], body[:, -1]
    if not np.all(std > 0):
        out.append("non-positive posterior_std")
    if not np.all((lower < mean) & (mean < upper)):
        out.append("posterior_mean outside (lower95, upper95)")
    return out


def check_command(argv: list[str], code: int, stdout: str, problem: dict) -> tuple[list[str], dict]:
    """Failures and extracted facts for one finished command."""
    if code != 0:
        return [f"exit code {code}"], {}
    command = argv[0]
    out = option(argv, "--out")
    target = option(argv, "--holdout")
    years = problem["rows"].get(target, 0)
    facts: dict = {}
    try:
        if command == "fit":
            from ebgp.model_io import load_model

            load_model(out)
            found = re.search(r"n=(\d+) .*evaluations=(\d+) .*final_mll=(\S+)", stdout)
            if found is None:
                return ["fit printed no evaluation summary"], facts
            facts = {"n": int(found[1]), "evaluations": int(found[2]), "mll": float(found[3])}
            if not np.isfinite(facts["mll"]):
                return ["non-finite final mll"], facts
            return [], facts
        if command in ("emulate", "forcing"):
            header, body = read_table(out)
            return _interval_failures(header, body, INTERVAL_HEADER, years), facts
        if command == "spatial-emulate":
            header, body = read_table(out)
            rows = years * problem["cells"]
            return _interval_failures(header, body, SPATIAL_HEADER, rows), facts
        if command == "sample":
            count = int(option(argv, "--count"))
            header, body = read_table(out)
            fails = []
            if len(header) != count + 1 or body.shape != (years, count + 1):
                fails.append(f"sample table {body.shape}, expected {(years, count + 1)}")
            elif not np.all(np.isfinite(body)):
                fails.append("non-finite draws")
            return fails, facts
        if command == "evaluate":
            header, body = _read_scores(out)
            if header != SCORE_HEADER or [r[0] for r in body] != ["posterior", "prior"]:
                return ["unexpected score table layout"], facts
            rmse = float(body[0][1])
            facts = {"rmse": rmse}
            return ([] if np.isfinite(rmse) and rmse > 0 else ["bad posterior rmse"]), facts
        if command == "verify":
            with open(out, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            failed = [r[0] for r in rows if r[3] != "true"]
            return ([f"verify checks failed: {failed}"] if failed or not rows else []), facts
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc}"], facts
    return [f"no check for command '{command}'"], facts


def _read_scores(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def check_samples_against_emulate(sample_csv, emulate_csv) -> list[str]:
    """Per-year sample means agree with the predictive mean of ``emulate``."""
    _, draws = read_table(sample_csv)
    _, pred = read_table(emulate_csv)
    count = draws.shape[1] - 1
    error = np.abs(draws[:, 1:].mean(axis=1) - pred[:, 2])
    limit = SAMPLE_MEAN_SIGMAS * pred[:, 3] / np.sqrt(count)
    return [] if np.all(error <= limit) else ["sample means far from the predictive mean"]


def truth_series(scenario_csv) -> dict[int, float]:
    with open(scenario_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index("tas_global")
    return {int(r[0]): float(r[col]) for r in rows[1:]}


def global_rmse(pairs, period: tuple[int, int]) -> float:
    """Pooled RMSE of posterior means over ``period`` for (emulate csv,
    truth scenario csv) pairs."""
    errors = []
    for pred_csv, truth_csv in pairs:
        _, pred = read_table(pred_csv)
        truth = truth_series(truth_csv)
        for year, mean in zip(pred[:, 0].astype(int), pred[:, 2]):
            if period[0] <= year <= period[1]:
                errors.append(mean - truth[year])
    return float(np.sqrt(np.mean(np.square(errors))))


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_rows(path, stride: int) -> list[list[float]]:
    """Every ``stride``-th data row of a CSV, as floats."""
    _, body = read_table(path)
    return body[::stride].tolist()


def compare_reference(outputs: dict[str, str], recorded: dict) -> float:
    """Largest column-relative deviation of the outputs from the reference.

    ``outputs`` maps a reference key to the produced file; ``recorded`` maps
    the same keys to {"stride": k, "rows": [...]}.
    """
    worst = 0.0
    for key, entry in recorded.items():
        try:
            got = np.array(reference_rows(outputs[key], entry["stride"]))
        except (KeyError, OSError, ValueError):
            return float("inf")
        ref = np.array(entry["rows"])
        if got.shape != ref.shape:
            return float("inf")
        scale = np.max(np.abs(ref), axis=0)
        scale[scale == 0] = 1.0
        worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
    return worst
