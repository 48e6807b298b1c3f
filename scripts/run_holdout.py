#!/usr/bin/env python3
"""Hold-one-out emulation protocol over the bundled synthetic dataset.

For each future scenario: fit hyperparameters on the remaining scenarios,
emulate the held-out one, and score it over 2015-2050.  Writes models,
predictions and score tables into an output directory and prints a summary
comparing the posterior against the prior-only path.

Usage: python scripts/run_holdout.py [--outdir OUT] [--seed N] [--spatial]
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

# One BLAS thread: the three fits run in this process, and each one's forked
# L-BFGS-B starts then get a CPU each instead of competing BLAS threads.  Set
# before numpy is first imported; an explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ebgp.cli import main as cli_main  # noqa: E402

DATA = ROOT / "data" / "synthetic"
SCENARIOS = ("historical", "ssp_low", "ssp_mid", "ssp_high")
HOLDOUTS = ("ssp_low", "ssp_mid", "ssp_high")
PERIOD = "2015:2050"


def run(outdir: Path, seed: int, spatial: bool) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    scenario_paths = [str(DATA / f"{name}.csv") for name in SCENARIOS]
    config = str(DATA / "model_config.txt")
    summary = []
    for holdout in HOLDOUTS:
        model = outdir / f"model_{holdout}.txt"
        pred = outdir / f"pred_{holdout}.csv"
        scores = outdir / f"scores_{holdout}.csv"
        steps = [
            ["fit", "--config", config, "--scenario", *scenario_paths,
             "--holdout", holdout, "--out", str(model), "--seed", str(seed)],
            ["emulate", "--model", str(model), "--scenario", *scenario_paths,
             "--holdout", holdout, "--out", str(pred)],
            ["evaluate", "--predictions", str(pred),
             "--scenario", str(DATA / f"{holdout}.csv"),
             "--period", PERIOD, "--out", str(scores)],
        ]
        if spatial:
            spred = outdir / f"spatial_pred_{holdout}.csv"
            sscores = outdir / f"spatial_scores_{holdout}.csv"
            steps.insert(2, ["spatial-emulate", "--model", str(model),
                             "--scenario", *scenario_paths, "--holdout", holdout,
                             "--out", str(spred)])
            steps.append(["evaluate", "--predictions", str(spred),
                          "--scenario", str(DATA / f"{holdout}.csv"),
                          "--period", PERIOD, "--out", str(sscores)])
        for argv in steps:
            code = cli_main(argv)
            if code != 0:
                print(f"step {argv[0]} failed with exit code {code}", file=sys.stderr)
                return code
        with open(scores, newline="") as handle:
            rows = list(csv.DictReader(handle))
        summary.append((holdout, rows[0], rows[1]))

    print()
    print(f"{'holdout':>10}  {'posterior rmse':>14}  {'prior rmse':>10}  {'calib95':>7}  {'crps':>7}")
    for holdout, posterior, prior in summary:
        print(
            f"{holdout:>10}  {float(posterior['rmse']):14.4f}  "
            f"{float(prior['rmse']):10.4f}  {float(posterior['calib95']):7.3f}  "
            f"{float(posterior['crps']):7.4f}"
        )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=str(ROOT / "runs" / "holdout"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--spatial", action="store_true",
                        help="also run the per-cell protocol")
    args = parser.parse_args()
    sys.exit(run(Path(args.outdir), args.seed, args.spatial))
