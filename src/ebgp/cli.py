"""Command-line front end.

Subcommands: fit, emulate, forcing, spatial-emulate, evaluate, sample,
verify.  Outputs are plot-ready CSV files with floats at full round-trip
precision, so reruns with the same inputs and seed are byte-identical.

Exit codes: 0 ok, else the ``exit_code`` of the error's class (``errors``):
2 data error, 3 optimization/numerical failure, 4 model-scenario compatibility error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

# One BLAS thread unless the environment sets one: output bytes depend on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is first imported

import numpy as np

from . import oracles
from .errors import EmulatorError, NonFinite, ParseError, SchemaError
from .inference import (
    build_prior,
    condition,
    fit_hyperparameters,
    posterior_forcing,
    posterior_temperature,
    sample_posterior,
)
from .metrics import (
    SCORE_FIELDS,
    Z95,
    deterministic_scores,
    probabilistic_scores,
    score_table,
    spatial_scores,
)
from .model_io import load_model, save_model
from .scenario import (
    SpatialGrid,
    _locate,
    assemble_training_set,
    cube_order,
    line_of,
    load_scenario,
    read_spatial,
    read_table,
    read_truth,
    spatial_rows,
    write_csv as _write_csv,  # the name perfbench/spans.py wraps
)
from .spatial import fit_pattern_scaling, spatial_posterior

# Used whenever --seed is omitted, so unseeded runs are still reproducible.
DEFAULT_SEED = 101

EXIT_OK = 0
EXIT_OPTIMIZATION = 3

INTERVAL_HEADER = ["year", "prior_mean", "posterior_mean", "posterior_std", "lower95", "upper95"]


def _standardized(model, train, refit=False):
    """The model with input standardization fitted on the training rows when
    its kernel standardizes inputs.  Queries keep a stored standardization;
    fitting (``refit``) always replaces it."""
    if model.kernel.standardize_inputs and (refit or model.standardization is None):
        model = dataclasses.replace(model, standardization=train.standardization)
    return model


def cmd_fit(args) -> int:
    model = load_model(args.config)
    if "sigma" in model.fit.free and model.impulse.variability_amplitude <= 0:  # a default list
        raise SchemaError(f"{args.config}: [fit] free: sigma needs [response] variability_amplitude "
                          f"> 0 (with no free key, the default list {', '.join(model.fit.free)})")
    scenarios = [load_scenario(path, model.agents) for path in args.scenario]
    holdout = tuple(args.holdout)
    train, _ = assemble_training_set(scenarios, holdout=holdout, agents=model.agent_names)
    train_scenarios = [s for s in scenarios if s.name not in holdout]

    if not model.fit.free:
        message = "fit: all parameters fixed"
        if train.n > 0:
            mll = fit_hyperparameters(train_scenarios, train, _standardized(model, train)).mll
            message += f", mll={mll:.6f}"
        save_model(model, args.out)
        print(message)
        print(f"fit: wrote {args.out}")
        return EXIT_OK

    if train.n == 0:
        raise SchemaError("cannot fit hyperparameters with an empty training set")
    model = _standardized(model, train, refit=True)
    result = fit_hyperparameters(train_scenarios, train, model, seed=args.seed)
    for i, (converged, iterations, message, rejected) in enumerate(result.starts):
        if not converged:
            print(f"fit: start {i} did not converge after {iterations} iterations: {message}",
                  file=sys.stderr)
        if rejected:
            print(f"fit: start {i} rejected {rejected} objective evaluations "
                  "(singular, overflowing or not finite)", file=sys.stderr)
    save_model(result.model, args.out)
    finite = [t for t in result.trace if np.isfinite(t)]
    initial = finite[0] if finite else float("nan")
    print(
        f"fit: n={train.n} free={','.join(model.fit.free)} "
        f"evaluations={result.evaluations} initial_mll={initial:.6f} "
        f"final_mll={result.mll:.6f}"
    )
    print(f"fit: wrote {args.out}")
    return EXIT_OK


def _load_holdout(args):
    """Load the model and scenarios and build the prior over the training
    scenarios, in declared order, followed by the held-out one.  Returns the
    scenarios, the training set, the prior and the held-out prior rows."""
    model = load_model(args.model)
    scenarios = [load_scenario(path, model.agents) for path in args.scenario]
    train, held = assemble_training_set(
        scenarios, holdout=(args.holdout,), agents=model.agent_names
    )
    kept = [s for s in scenarios if s.name != args.holdout]
    prior = build_prior(kept + held, _standardized(model, train))
    return scenarios, train, prior, slice(train.n, prior.n)


def _temperature(conditioned, rows):
    """Prior mean and predictive distribution (posterior plus internal
    variability) of the temperature at ``rows``; NonFinite if it overflows."""
    prior = conditioned.prior
    posterior = posterior_temperature(conditioned, rows)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        posterior.covariance += prior.sigma**2 * prior.variability(rows)
    if not np.isfinite(posterior.covariance).all():
        raise NonFinite(f"the predictive covariance at prior rows {rows.start}:{rows.stop} "
                        "is not finite")
    return prior.mean[rows], posterior


def _forcing(conditioned, rows):
    """Prior mean and posterior distribution of the forcing at ``rows``."""
    return conditioned.prior.forcing_mean[rows], posterior_forcing(conditioned, rows)


def _intervals(prior_mean, mean, std):
    """Output columns after the year: prior mean, posterior mean and std, 95% bounds."""
    half = Z95 * std
    return prior_mean, mean, std, mean - half, mean + half


def _write_intervals(args, prior_mean, posterior):
    years = [year for _, year in posterior.index]
    columns = _intervals(prior_mean, posterior.mean, posterior.std())
    _write_csv(args.out, INTERVAL_HEADER, zip(years, *(c.tolist() for c in columns)))
    print(f"{args.command}: wrote {args.out} ({len(years)} rows)")


def _write_samples(args, _, predictive):
    draws = sample_posterior(predictive, args.count, args.seed)
    header = ["year"] + [f"sample_{i:04d}" for i in range(args.count)]
    # Built as the writer consumes them, so only one batch of rows is held at a time.
    rows = ([year, *values.tolist()] for (_, year), values in zip(predictive.index, draws.T))
    _write_csv(args.out, header, rows)
    print(f"sample: wrote {args.out} ({args.count} draws)")


def cmd_query(args) -> int:
    """emulate, forcing and sample: load, prepare, condition on the training
    rows, query the held-out rows and write the result."""
    _, train, prior, rows = _load_holdout(args)
    prior_mean, posterior = args.query(condition(prior, train), rows)
    args.write(args, prior_mean, posterior)
    return EXIT_OK


def cmd_spatial_emulate(args) -> int:
    scenarios, train, prior, rows = _load_holdout(args)

    # Only the training scenarios' companions are read, in train.index order.
    training = [read_spatial(path, scen.grid)
                for path, scen in zip(args.scenario, scenarios) if scen.name != args.holdout]
    if not training:
        raise SchemaError("spatial-emulate needs at least one training scenario")
    grids, cubes = zip(*training)
    if len({(tuple(g.latitudes), tuple(g.longitudes)) for g in grids}) > 1:
        raise SchemaError("training scenarios live on different spatial grids")
    sgrid = grids[0]

    local = np.concatenate(cubes, axis=0)
    pattern = fit_pattern_scaling(train.temperatures, local, sgrid)
    mean, variance = spatial_posterior(pattern, prior, train, local, rows)

    slope = pattern.slope[..., None]
    prior_mean = slope * prior.mean[rows] + pattern.intercept[..., None]
    std = np.sqrt(
        np.clip(variance, 0.0, None)
        + prior.sigma**2 * slope**2 * np.diag(prior.variability(rows))
        + pattern.residual_variance[..., None]
    )
    years = [year for _, year in prior.index[rows]]
    cells = map(_intervals, *(np.reshape(c, (-1, len(years))) for c in (prior_mean, mean, std)))
    _write_csv(args.out, ["lat", "lon", *INTERVAL_HEADER], spatial_rows(sgrid, years, cells))
    print(f"spatial-emulate: wrote {args.out} ({mean.size} rows)")
    return EXIT_OK


def _parse_period(text):
    if text is None:
        return None
    try:
        first, last = text.split(":")
        first, last = int(first), int(last)
    except ValueError:
        raise ParseError(f"cannot parse period '{text}', expected '<y0>:<y1>'") from None
    if first > last:
        raise ParseError(f"period start {first} is after end {last}")
    return first, last


# The prediction columns ``evaluate`` scores.
PREDICTED = ("prior_mean", "posterior_mean", "posterior_std")


def cmd_evaluate(args) -> int:
    period = _parse_period(args.period)
    path = args.predictions

    def columns(header):
        coords = ("lat", "lon") if "lat" in header or "lon" in header else ()
        for needed in ("year", *coords, *PREDICTED):
            if needed not in header:
                raise SchemaError(f"{path}: missing column '{needed}'")
        return ["year", *coords, *PREDICTED]

    table = read_table(path, columns)
    negative = table["posterior_std"] < 0
    if np.any(negative):
        k = int(np.argmax(negative))
        raise ParseError(f"{path}: line {line_of(path, k)}, column 'posterior_std': "
                         f"value {float(table['posterior_std'][k])!r} is negative")
    rows = np.arange(table["year"].size)  # data-row numbers, for cube_order's errors
    if period is not None:
        rows = rows[(table["year"] >= period[0]) & (table["year"] <= period[1])]
        table = {name: column[rows] for name, column in table.items()}
    if rows.size == 0:
        raise SchemaError("no prediction rows fall inside the requested period")
    spatial = "lat" in table
    coords = [table["lat"], table["lon"]] if spatial else []

    # (lat, lon, year) cubes, or single series for a global file, whose truth
    # is found axis by axis on the truth's axes; scores reduce over the years.
    truth_axes, truth = read_truth(args.scenario, spatial)
    axes, order = cube_order(path, coords, table["year"], np.unique(table["year"]), rows)
    index = []
    for name, axis, known in zip(["lat", "lon"][:len(coords)] + ["year"], axes, truth_axes):
        at, found = _locate(axis, known)
        if not np.all(found):
            value = (int if name == "year" else float)(axis[np.argmin(found)])
            raise SchemaError(f"truth has no value for {name} {value} inside the requested period")
        index.append(at)
    truth = truth[np.ix_(*index)]
    prior_mean, mean, std = (table[name][order].reshape(truth.shape) for name in PREDICTED)
    posterior = dict(zip(SCORE_FIELDS, (
        *deterministic_scores(mean, truth), *probabilistic_scores(mean, std**2, truth)
    )))
    prior = dict(zip(SCORE_FIELDS, deterministic_scores(prior_mean, truth)))
    if spatial:
        grid = SpatialGrid(*axes[:2])
        posterior, prior = spatial_scores(posterior, grid), spatial_scores(prior, grid)

    # A score a label lacks (the prior has no probabilistic ones) is an empty cell.
    rows = [[label, *(float(scores[name]) if name in scores else "" for name in SCORE_FIELDS)]
            for label, scores in (("posterior", posterior), ("prior", prior))]
    _write_csv(args.out, ["label", *SCORE_FIELDS], rows)
    print("evaluate: posterior scores")
    print(score_table(posterior))
    print(f"evaluate: wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = oracles.default_verification(seed=args.seed)
    rows = [[c.name, float(c.statistic), float(c.tolerance), "true" if c.passed else "false"]
            for c in checks]
    _write_csv(args.out, ["check", "statistic", "tolerance", "pass"], rows)
    failures = [c for c in checks if not c.passed]
    for check in checks:
        status = "ok" if check.passed else "FAIL"
        print(f"verify: {check.name}: {check.statistic:.3e} <= {check.tolerance:.3e} [{status}]")
    print(f"verify: wrote {args.out}")
    return EXIT_OK if not failures else EXIT_OPTIMIZATION


def _at_least(minimum):
    """An argparse type: an integer no smaller than ``minimum``."""
    def integer(text) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebgp",
        description="Gaussian-process surface temperature emulator with an "
        "energy-balance prior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, query=True):
        p.add_argument("--scenario", nargs="+", required=True, metavar="PATH",
                       help="scenario CSV files")
        if query:
            p.add_argument("--model", required=True, help="model file")
            p.add_argument("--holdout", required=True,
                           help="scenario name to emulate (excluded from training)")
        p.add_argument("--out", required=True, help="output path")

    def add_seed(p):
        p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED,
                       help=f"random seed (default {DEFAULT_SEED})")

    p = sub.add_parser("fit", help="fit hyperparameters by marginal likelihood")
    p.add_argument("--config", required=True, help="model/config file")
    p.add_argument("--holdout", action="append", default=[], metavar="NAME",
                   help="scenario name to exclude from training (repeatable)")
    add_common(p, query=False)
    add_seed(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("emulate", help="posterior temperature for a held-out scenario")
    add_common(p)
    p.set_defaults(func=cmd_query, query=_temperature, write=_write_intervals)

    p = sub.add_parser("forcing", help="posterior radiative forcing for a held-out scenario")
    add_common(p)
    p.set_defaults(func=cmd_query, query=_forcing, write=_write_intervals)

    p = sub.add_parser("spatial-emulate", help="per-cell posterior temperatures")
    add_common(p)
    p.set_defaults(func=cmd_spatial_emulate)

    p = sub.add_parser("sample", help="draw joint posterior samples")
    add_common(p)
    add_seed(p)
    p.add_argument("--count", type=_at_least(1), default=100, help="number of draws (>= 1)")
    p.set_defaults(func=cmd_query, query=_temperature, write=_write_samples)

    p = sub.add_parser("evaluate", help="score predictions against a truth scenario")
    p.add_argument("--predictions", required=True, help="prediction CSV from emulate")
    p.add_argument("--scenario", required=True, help="truth scenario CSV")
    p.add_argument("--period", default=None, metavar="Y0:Y1",
                   help="inclusive year range to score")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="run the oracle verification suite")
    p.add_argument("--out", required=True, help="output CSV path")
    add_seed(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmulatorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EmulatorError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
