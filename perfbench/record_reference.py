#!/usr/bin/env python3
"""Record the reference values the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: strided rows of the fixed-model outputs of
``large_query`` (its inputs do not depend on the seed) and of
``spatial_grid`` on the seeds in REFERENCE_SEEDS, plus the final marginal
log-likelihood per training row of the two fitting workloads.  Rerun only
when an intended change of the program's numerics has been reviewed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEEDS = (0, 1)
STRIDES = {"emulate": 5, "forcing": 5, "spatial-emulate": 997}


def repetition(name: str, seed: int, workdir: Path) -> dict:
    from ebgp import cli

    shutil.rmtree(workdir, ignore_errors=True)
    args = type("Args", (), {"workload": name, "seed": seed, "dir": str(workdir), "toy": False})
    worker.setup(args)
    problem = json.loads((workdir / "problem.json").read_text(encoding="utf-8"))
    rep = worker.run_repetition(cli, workloads.commands(name, workdir, problem, seed), problem)
    failures = [f for r in rep["commands"] for f in r["failures"]]
    if failures:
        raise SystemExit(f"{name} seed {seed}: {failures}")
    return rep


def strided(name: str, rep: dict) -> dict:
    return {
        key: {"stride": STRIDES[key.split(":")[0]],
              "rows": checks.reference_rows(path, STRIDES[key.split(":")[0]])}
        for key, path in worker.reference_outputs(name, rep).items()
    }


def main() -> None:
    workroot = HERE.parent / ".perfbench_runs" / "reference"
    reference = {"fit_mll_per_row": {}, "outputs": {"spatial_grid": {}}}
    for name in ("holdout", "fit_physics"):
        rep = repetition(name, 0, workroot / name)
        fit = next(r["facts"] for r in rep["commands"] if r["argv"][0] == "fit")
        reference["fit_mll_per_row"][name] = fit["mll"] / fit["n"]
    reference["outputs"]["large_query"] = {
        "*": strided("large_query", repetition("large_query", 0, workroot / "large_query"))
    }
    for seed in REFERENCE_SEEDS:
        rep = repetition("spatial_grid", seed, workroot / f"spatial_grid-{seed}")
        reference["outputs"]["spatial_grid"][str(seed)] = strided("spatial_grid", rep)
    checks.REFERENCE.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    shutil.rmtree(workroot)
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
