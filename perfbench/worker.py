"""Child process of the benchmark: set-up and measurement.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D [--toy]
    python3 perfbench/worker.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --out result.json

``setup`` imports the program and writes the workload's inputs into D; it
times itself from the start of its imports.
``measure`` runs the workload's CLI commands in this process through
``ebgp.cli.main``, one at a time, repeating the whole sequence while the next
repetition still fits in S seconds (at least once).  With ``--trace 1`` it
runs one untraced and one traced repetition instead, and derives the
per-layer metrics from the traced one.  The parent pins the BLAS thread
count in this process's environment before numpy is first imported.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PERIOD = tuple(int(y) for y in workloads.PERIOD.split(":"))
PIN_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(args) -> None:
    import ebgp.cli  # noqa: F401  (the import is part of set-up time)

    workdir = Path(args.dir)
    problem = workloads.generate(args.workload, workdir, args.seed, args.toy)
    problem["rows"] = {
        name: _data_rows(workdir / f"{name}.csv") for name in problem["scenarios"]
    }
    target = problem["holdouts"][0]
    companion = workdir / f"{target}_spatial.csv"
    if companion.exists():
        problem["cells"] = _data_rows(companion) // problem["rows"][target]
    # timed here rather than by the parent, whose wait polls in 50 ms steps
    problem["setup_s"] = time.perf_counter() - STARTED
    (workdir / "problem.json").write_text(json.dumps(problem), encoding="utf-8")


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def run_command(cli, argv, tracer):
    """Run one CLI command; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0].replace('-', '_')}", new_trace=True) if tracer \
        else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), span:
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not the end of the run
        out.write(traceback.format_exc())
        code = -1
    return code, out.getvalue(), time.perf_counter() - start


def run_repetition(cli, commands, problem, tracer=None) -> dict:
    """Run the command sequence once, traced when a tracer is given, then
    check every output."""
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for argv in commands:
            code, stdout, seconds = run_command(cli, argv, tracer)
            records.append({"argv": argv, "code": code, "stdout": stdout, "seconds": seconds})
    finally:
        if tracer is not None:
            tracer.remove()
    total = sum(r["seconds"] for r in records)
    # checks run after the timed commands, untraced
    emulated = {}
    for r in records:
        r["failures"], r["facts"] = checks.check_command(r["argv"], r["code"], r["stdout"], problem)
        if r["argv"][0] == "emulate" and not r["failures"]:
            emulated[checks.option(r["argv"], "--holdout")] = checks.option(r["argv"], "--out")
    for r in records:
        target = checks.option(r["argv"], "--holdout")
        if r["argv"][0] == "sample" and not r["failures"] and target in emulated:
            r["failures"] = checks.check_samples_against_emulate(
                checks.option(r["argv"], "--out"), emulated[target]
            )
    return {"seconds": total, "traced": tracer is not None, "commands": records}


def quality(name, workdir: Path, rep: dict) -> float:
    """Hold-out RMSE of the emulated posterior mean over the scoring period."""
    if name in ("holdout", "spatial_grid"):
        # the workload's first evaluate output: global on holdout,
        # area-weighted on spatial_grid
        scored = [r for r in rep["commands"] if r["argv"][0] == "evaluate"]
        return scored[0]["facts"]["rmse"]
    pairs = [
        (checks.option(r["argv"], "--out"), workdir / f"{checks.option(r['argv'], '--holdout')}.csv")
        for r in rep["commands"]
        if r["argv"][0] == "emulate"
    ]
    return checks.global_rmse(pairs, PERIOD)


def reference_outputs(name: str, rep: dict) -> dict[str, str]:
    """Reference keys of the fixed-model outputs of one repetition."""
    out = {}
    for r in rep["commands"]:
        command = r["argv"][0]
        if command in ("emulate", "forcing"):
            out[f"{command}:{checks.option(r['argv'], '--holdout')}"] = checks.option(r["argv"], "--out")
        elif command == "spatial-emulate" and name == "spatial_grid":
            out[command] = checks.option(r["argv"], "--out")
    return out


def layer_metrics(tracer: spans.Tracer, rep: dict, untraced_seconds: float) -> dict:
    recorded = tracer.spans
    total = spans.inclusive_totals(recorded)
    calls = tracer.counters
    self_time = spans.self_times(recorded)
    cli_spans = [s for s in recorded if s["parent"] is None]
    cli_total = sum(s["end"] - s["start"] for s in cli_spans)
    cli_self = sum(self_time[s["id"]] for s in cli_spans)
    fits = [r["facts"] for r in rep["commands"] if r["argv"][0] == "fit" and r["facts"]]
    evals = sum(f["evaluations"] for f in fits)
    fit_builds = spans.within(recorded, "inference.fit_hyperparameters", "inference.build_prior")
    mll_calls = calls["inference.mll_and_gradient.calls"] + calls["inference.mll_and_gradient.errors"]
    cells = calls["spatial.spatial_prior.calls"]
    written = sum(
        os.path.getsize(checks.option(r["argv"], "--out"))
        for r in rep["commands"]
        if r["code"] == 0
    )
    metrics = {
        "kernels.forcing_gram_gradients_s": (total["kernels.forcing_gram_gradients"], "s"),
        "kernels.forcing_gram_s": (total["kernels.forcing_gram"], "s"),
        "kernels.internal_variability_gram_s": (total["kernels.internal_variability_gram"], "s"),
        "inference.mll_and_gradient_s": (total["inference.mll_and_gradient"], "s"),
        "inference.mll_and_gradient_calls": (mll_calls, "count"),
        "inference.cholesky_s": (total["inference.cholesky"], "s"),
        "inference.fit_evals": (evals, "count"),
        "inference.fit_finite_eval_ratio": (
            calls["inference.mll_and_gradient.finite"] / mll_calls if mll_calls else 0.0, "ratio"),
        "inference.fit_mll_per_row": (
            sum(f["mll"] for f in fits) / sum(f["n"] for f in fits) if fits else 0.0, "nats/row"),
        "inference.build_prior_calls": (calls["inference.build_prior.calls"], "count"),
        "inference.prior_builds_per_eval": (fit_builds / evals if evals else 0.0, "count"),
        "inference.build_prior_s": (total["inference.build_prior"], "s"),
        "ebm.temperature_operator_s": (total["ebm.temperature_operator"], "s"),
        "ebm.thermal_response_s": (total["ebm.thermal_response"], "s"),
        "ebm.forcing_response_s": (total["ebm.forcing_response"], "s"),
        "inference.train_factorisations": (calls["inference.train_factor.calls"], "count"),
        "inference.jitter_escalations": (calls["inference.cholesky.errors"], "count"),
        "inference.posterior_temperature_s": (total["inference.posterior_temperature"], "s"),
        "inference.posterior_forcing_s": (total["inference.posterior_forcing"], "s"),
        "inference.sample_posterior_s": (total["inference.sample_posterior"], "s"),
        "spatial.spatial_posterior_s": (total["spatial.spatial_posterior"], "s"),
        "spatial.cells": (cells, "count"),
        "spatial.per_cell_ms": (
            1e3 * total["spatial.spatial_posterior"] / cells if cells else 0.0, "ms"),
        "spatial.fit_pattern_scaling_s": (total["spatial.fit_pattern_scaling"], "s"),
        "scenario.load_scenario_s": (total["scenario.load_scenario"], "s"),
        "scenario.bytes_read": (calls["scenario.bytes_read"], "bytes"),
        "scenario.rows_parsed": (calls["scenario.rows_parsed"], "count"),
        "scenario.assemble_training_set_s": (total["scenario.assemble_training_set"], "s"),
        "metrics.scores_s": (total["metrics.scores"], "s"),
        "model_io.load_model_s": (total["model_io.load_model"], "s"),
        "model_io.save_model_s": (total["model_io.save_model"], "s"),
        "oracles.default_verification_s": (total["oracles.default_verification"], "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.write_csv_s": (total["cli.write_csv"], "s"),
        "cli.read_csv_s": (total["cli.read_csv"], "s"),
        "cli.bytes_written": (written, "bytes"),
        "cli.span_coverage": (1.0 - cli_self / cli_total if cli_total else 0.0, "ratio"),
        "trace.overhead_s": (rep["seconds"] - untraced_seconds, "s"),
        "trace.spans": (len(recorded), "count"),
    }
    for command in workloads.CLI_COMMANDS:
        key = command.replace("-", "_")
        metrics[f"cli.{key}_s"] = (total[f"cli.{key}"], "s")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}


def reference_checks(name: str, seed: int, problem: dict, reps: list[dict]):
    """Compare with the recorded reference: the largest deviation of the
    fixed-model outputs (None when nothing is recorded for this seed) and
    the failures, including fits that ended below the recorded likelihood."""
    # toy-sized inputs have no recorded reference
    reference = {} if problem["toy"] else checks.load_reference()
    by_seed = reference.get("outputs", {}).get(name, {})
    recorded = by_seed.get(str(seed), by_seed.get("*"))
    failures = []
    max_rel_err = None
    if recorded is not None:
        max_rel_err = max(
            checks.compare_reference(reference_outputs(name, rep), recorded) for rep in reps
        )
        if not max_rel_err <= checks.REFERENCE_RTOL:
            failures.append(f"outputs deviate from the reference by {max_rel_err:.3g}")
    guard = reference.get("fit_mll_per_row", {}).get(name)
    for rep in reps:
        for r in rep["commands"]:
            if guard is None or r["argv"][0] != "fit" or not r["facts"]:
                continue
            per_row = r["facts"]["mll"] / r["facts"]["n"]
            if per_row < guard - checks.MLL_PER_ROW_SLACK:
                failures.append(f"fit ended at mll/row {per_row:.6f}, reference {guard:.6f}")
    return max_rel_err, failures


def measure(args) -> None:
    from ebgp import cli

    workdir = Path(args.dir)
    problem = json.loads((workdir / "problem.json").read_text(encoding="utf-8"))
    commands = workloads.commands(args.workload, workdir, problem, args.seed)
    reps = []
    layers = coverage = None
    # the peak grows a little with every repetition, so report the first one's
    reps.append(run_repetition(cli, commands, problem))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer = spans.Tracer()
        reps.append(run_repetition(cli, commands, problem, tracer))
        layers = layer_metrics(tracer, reps[-1], reps[0]["seconds"])
        coverage = spans.coverage(tracer.spans)
        (workdir.parent / "spans.json").write_text(
            json.dumps({"spans": tracer.spans, "counters": dict(tracer.counters),
                        "unwrapped": tracer.missing}),
            encoding="utf-8",
        )
    else:
        spent = reps[0]["seconds"]
        while spent + reps[-1]["seconds"] <= args.seconds:
            reps.append(run_repetition(cli, commands, problem))
            spent += reps[-1]["seconds"]

    max_rel_err, failures = reference_checks(args.workload, args.seed, problem, reps)
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result = {
        "reps": [
            {"seconds": rep["seconds"], "traced": rep["traced"],
             "commands": [{k: r[k] for k in ("argv", "code", "seconds", "failures", "facts")}
                          for r in rep["commands"]]}
            for rep in reps
        ],
        "failures": failures,
        "holdout_rmse_k": quality(args.workload, workdir, reps[0])
        if not any(r["failures"] for r in reps[0]["commands"]) else None,
        "output_max_rel_err": max_rel_err,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "coverage": coverage,
        "environment": {
            "blas_threads": {k: os.environ.get(k) for k in PIN_VARIABLES},
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--toy", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    setup(args) if args.mode == "setup" else measure(args)


if __name__ == "__main__":
    main()
