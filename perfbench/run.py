#!/usr/bin/env python3
"""ebgp benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository.  Each run sets the
workload up several times in fresh child processes (``setup_s`` is the
median of their own timings), then measures it in one more fresh child process, one CLI command
at a time (a closed loop with a single client).  BLAS threads are pinned to
one in every child.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced repetition.  Everything the run writes goes under ``.perfbench_runs/``
at the root of the checkout, including ``result.json`` with the environment
record, input hashes, problem sizes, per-command times and check failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import NAMES, SAMPLE_COUNT  # noqa: E402

BLAS_THREADS = "1"
SETUP_PASSES = 3
CHILD_TIMEOUT_S = 150
REQUIRED = ("src/ebgp/cli.py", "data/synthetic/model_config.txt", "scripts/make_synthetic.py")


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> None:
    """Run a worker to completion."""
    subprocess.run(
        [sys.executable, str(WORKER), *argv],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
        stdout=subprocess.DEVNULL,
    )


def input_record(workdir: Path) -> list[dict]:
    out = []
    for path in sorted(workdir.iterdir()):
        if path.is_file() and path.suffix in (".csv", ".txt"):
            data = path.read_bytes()
            out.append({"file": path.name, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest()})
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def problem_sizes(problem: dict) -> dict:
    total = sum(problem["rows"].values())
    return {
        "N": total,
        "training_rows": [total - problem["rows"][h] for h in problem["holdouts"]],
        "scenarios": len(problem["scenarios"]),
        "cells": problem.get("cells", 0),
        "draws": SAMPLE_COUNT,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every workload to smoke-test size (no reference checks)")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a checkout of ebgp, missing {missing}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    toy = ["--toy"] if args.toy else []
    setup_times = []
    for k in range(SETUP_PASSES):
        inputs = run_dir / f"inputs{k}"
        run_child(["setup", *common, "--dir", str(inputs), *toy], deadline)
        problem = json.loads((inputs / "problem.json").read_text(encoding="utf-8"))
        setup_times.append(problem["setup_s"])
        if k:
            shutil.rmtree(run_dir / f"inputs{k - 1}")
    result_path = run_dir / "worker.json"
    run_child(["measure", *common, "--dir", str(inputs), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(result_path)], deadline)
    measured = json.loads(result_path.read_text(encoding="utf-8"))

    ops = [c for rep in measured["reps"] for c in rep["commands"]]
    failed = sum(1 for c in ops if c["failures"]) + len(measured["failures"])
    attempted = len(ops) + len(measured["failures"])
    untraced = [rep["seconds"] for rep in measured["reps"] if not rep["traced"]]
    if args.trace:
        metrics = measured["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "workload_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
            "holdout_rmse_k": {"value": measured["holdout_rmse_k"], "unit": "K"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**measured["environment"], "git_commit": git_commit()},
        "inputs": input_record(inputs),
        "problem": problem_sizes(problem),
        "setup_s": setup_times,
        "repetitions": measured["reps"],
        "failures": measured["failures"],
        "error_rate": failed / attempted,
        "output_max_rel_err": measured["output_max_rel_err"],
        "span_coverage": measured["coverage"],
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for rep in measured["reps"]:
        times = ", ".join(f"{c['argv'][0]} {c['seconds']:.3f}" for c in rep["commands"])
        print(f"repetition{' (traced)' if rep['traced'] else ''}: {rep['seconds']:.3f} s: {times}")
    for c in ops:
        for failure in c["failures"]:
            print(f"check failed: {' '.join(c['argv'][:1])}: {failure}")
    for failure in measured["failures"]:
        print(f"check failed: {failure}")
    print(f"error_rate={failed / attempted:.4g} output_max_rel_err={measured['output_max_rel_err']}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"result: {run_dir / 'result.json'}")

    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
