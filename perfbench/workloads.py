"""Workload definitions: input generation and the CLI command sequences.

Every workload writes its inputs as files during set-up, so the program
under test only ever reads files.  ``generate`` builds a workload's input
directory; ``commands`` lists the CLI invocations one repetition of the
workload runs, in order.  ``TOY`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data" / "synthetic"
BUNDLED = ("historical", "ssp_low", "ssp_mid", "ssp_high")
HOLDOUT = "ssp_mid"
PERIOD = "2015:2050"
FIT_SEED = "7"
VERIFY_SEED = "101"
SAMPLE_COUNT = 100

NAMES = ("holdout", "fit_physics", "large_query", "spatial_grid")
CLI_COMMANDS = ("fit", "emulate", "forcing", "spatial-emulate", "sample", "evaluate", "verify")

# fit_physics frees the box-model response parameters as well, with no
# restarts and a fixed iteration cap, so the finite-difference gradient loop
# dominates.
PHYSICS_FREE = "lengthscales, variance, sigma, timescales, equilibrium_responses"

# large_query: the bundled generators extended to a later last year, plus
# futures derived from them; two futures are held out in turn.
LARGE_HOLDOUTS = ("ssp_mid", "ssp_high")

# spatial_grid: cell centres of a 10-degree grid, 18 x 36.
SPATIAL_LATITUDES = np.arange(-85.0, 90.0, 10.0)
SPATIAL_LONGITUDES = np.arange(5.0, 360.0, 10.0)

# holdout_iterations None keeps the bundled config's fit settings unchanged.
FULL = {"holdout_iterations": None, "physics_iterations": 10, "large_last_year": 2100,
        "large_derived": 4, "spatial_stride": 1}
TOY = {"holdout_iterations": 2, "physics_iterations": 1, "large_last_year": 2030,
       "large_derived": 1, "spatial_stride": 6}


def load_make_synthetic():
    """Import scripts/make_synthetic.py unchanged, as a module."""
    path = ROOT / "scripts" / "make_synthetic.py"
    spec = importlib.util.spec_from_file_location("make_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_bundled(workdir: Path, spatial: bool) -> None:
    for name in BUNDLED:
        shutil.copyfile(DATA / f"{name}.csv", workdir / f"{name}.csv")
        if spatial:
            shutil.copyfile(DATA / f"{name}_spatial.csv", workdir / f"{name}_spatial.csv")


def _write_config(path: Path, free: str | None, restarts: int, iterations: int | None) -> None:
    """The bundled config, with its [fit] section replaced when asked."""
    text = (DATA / "model_config.txt").read_text(encoding="utf-8")
    if iterations is not None:
        head, fit = text.split("[fit]")
        free = free or fit.split("free =")[1].splitlines()[0].strip()
        text = head + f"[fit]\nfree = {free}\nrestarts = {restarts}\nmax_iterations = {iterations}\n"
    path.write_text(text, encoding="utf-8")


def _large_scenarios(ms, last_year: int, derived: int):
    """Historical record plus futures up to ``last_year``, with noisy truths.

    Everything here is drawn from make_synthetic's own seed, so the inputs
    are the same on every benchmark seed: the emulator's hold-out quality
    depends strongly on which futures it trains on, and a seed-dependent
    training set would make ``holdout_rmse_k`` incomparable between runs.
    """
    from ebgp.ebm import TimeGrid, thermal_response
    from ebgp.inference import scenario_forcing
    from ebgp.kernels import forcing_gram
    from ebgp.scenario import Scenario, Standardization

    rng = np.random.default_rng(ms.SEED)
    first = ms.FIRST_YEAR
    full_years = TimeGrid(first, last_year - first + 1).years()
    flux = {name: ms.emission_paths(name, full_years) for name in BUNDLED[1:]}
    # derived futures: per-agent convex blends of the low and high pathways
    for k in range(derived):
        weights = rng.uniform(0.15, 0.85, size=len(ms.AGENTS))
        flux[f"blend_{k}"] = {
            spec.name: w * flux["ssp_low"][spec.name] + (1.0 - w) * flux["ssp_high"][spec.name]
            for w, spec in zip(weights, ms.AGENTS)
        }

    scenarios = []
    for name in ["historical", *flux]:
        last = ms.LAST_HIST if name == "historical" else last_year
        grid = TimeGrid(first, last - first + 1)
        paths = ms.emission_paths(name, grid.years()) if name == "historical" else flux[name]
        emissions, concentrations = {}, {}
        for spec in ms.AGENTS:
            series = paths[spec.name]
            if spec.input_mode == "cumulative_emission":
                series = np.cumsum(series) * grid.step
            emissions[spec.name] = series
            c0 = ms.FORCING[spec.name].c0
            if spec.name in ms.CONC_PER_CUMULATIVE:
                concentrations[spec.name] = c0 + ms.CONC_PER_CUMULATIVE[spec.name] * series
            else:
                concentrations[spec.name] = c0 + ms.CONC_PER_FLUX[spec.name] * paths[spec.name]
        scenarios.append(
            Scenario(name=name, grid=grid, emissions=emissions, concentrations=concentrations)
        )

    # true forcing plus a texture correlated across scenarios through emissions
    names = [spec.name for spec in ms.AGENTS]
    x = np.vstack([s.emission_matrix(names) for s in scenarios])
    x = Standardization.from_rows(x).apply(x)
    gram = forcing_gram(x, x, ms.TEXTURE)
    root = np.linalg.cholesky(gram + 1e-9 * np.eye(gram.shape[0]))
    texture = root @ rng.standard_normal(gram.shape[0])
    cursor = 0
    for scen in scenarios:
        n = scen.grid.n_steps
        forcing = scenario_forcing(scen, ms.TRUE_FORCING, ms.AGENTS) + texture[cursor : cursor + n]
        _, temperature = thermal_response(forcing, ms.IMPULSE, scen.grid)
        scen.global_temperature = temperature + ms.exact_noise_paths(ms.IMPULSE, scen.grid, rng)
        cursor += n
    return scenarios


def _write_spatial_companions(workdir: Path, ms, rng, stride: int) -> None:
    """make_synthetic's pattern-plus-noise local temperatures, on the
    benchmark's grid, for the bundled global series."""
    from ebgp.model_io import load_model
    from ebgp.scenario import load_scenario

    agents = load_model(DATA / "model_config.txt").agents
    lat, lon = SPATIAL_LATITUDES[::stride], SPATIAL_LONGITUDES[::stride]
    beta = (0.55 + 0.85 * np.cos(np.radians(lat))[:, None]
            + 0.05 * np.cos(np.radians(lon))[None, :])
    beta0 = 0.1 * np.sin(np.radians(lat))[:, None] + np.zeros((1, lon.size))
    cells = [(repr(float(a)), repr(float(b))) for a in lat for b in lon]
    for name in BUNDLED:
        scen = load_scenario(workdir / f"{name}.csv", agents)
        temperature = scen.global_temperature
        cube = beta[None] * temperature[:, None, None] + beta0[None]
        cube = cube + ms.LOCAL_NOISE * rng.standard_normal(cube.shape)
        years = [str(int(y)) for y in scen.grid.years()]
        values = cube.reshape(len(years), -1).T
        lines = ["lat,lon,year,tas"]
        for (a, b), series in zip(cells, values):
            lines.extend(f"{a},{b},{y},{v!r}" for y, v in zip(years, series.tolist()))
        (workdir / f"{name}_spatial.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(name: str, workdir: Path, seed: int, toy: bool = False) -> dict:
    """Write the inputs of workload ``name`` into ``workdir``.

    Returns the problem description the worker and the checks need.  The
    seed reaches the inputs of ``spatial_grid`` (local noise) and the
    ``sample`` draws of every workload; the other inputs are fixed (see
    ``_large_scenarios``).
    """
    sys.path.insert(0, str(ROOT / "src"))
    size = TOY if toy else FULL
    workdir.mkdir(parents=True, exist_ok=True)
    problem = {"scenarios": list(BUNDLED), "holdouts": [HOLDOUT], "toy": toy}
    if name == "holdout":
        _copy_bundled(workdir, spatial=True)
        _write_config(workdir / "model_config.txt", None, 0, size["holdout_iterations"])
    elif name == "fit_physics":
        _copy_bundled(workdir, spatial=False)
        _write_config(workdir / "physics_config.txt", PHYSICS_FREE, 0, size["physics_iterations"])
    elif name == "large_query":
        from ebgp.inference import EmulatorModel, FitSettings
        from ebgp.model_io import save_model
        from ebgp.scenario import save_scenario

        ms = load_make_synthetic()
        scenarios = _large_scenarios(ms, size["large_last_year"], size["large_derived"])
        for scen in scenarios:
            save_scenario(scen, workdir / f"{scen.name}.csv", ms.AGENTS)
        model = EmulatorModel(agents=ms.AGENTS, impulse=ms.IMPULSE, forcing=ms.FORCING,
                              kernel=ms.KERNEL, fit=FitSettings(free=()))
        save_model(model, workdir / "model.txt")
        problem.update(scenarios=[s.name for s in scenarios], holdouts=list(LARGE_HOLDOUTS))
    elif name == "spatial_grid":
        _copy_bundled(workdir, spatial=False)
        _write_config(workdir / "model_config.txt", None, 0, None)
        rng = np.random.default_rng([seed, NAMES.index(name)])
        _write_spatial_companions(workdir, load_make_synthetic(), rng, size["spatial_stride"])
    else:
        raise ValueError(f"unknown workload '{name}'")
    return problem


def commands(name: str, workdir: Path, problem: dict, seed: int) -> list[list[str]]:
    """CLI argument lists of one repetition of workload ``name``."""
    w = workdir
    scen = ["--scenario", *[str(w / f"{s}.csv") for s in problem["scenarios"]]]
    draws = ["--count", str(SAMPLE_COUNT), "--seed", str(seed)]
    truth = str(w / f"{HOLDOUT}.csv")
    if name == "holdout":
        model = str(w / "fit_model.txt")
        query = ["--model", model, *scen, "--holdout", HOLDOUT]
        return [
            ["fit", "--config", str(w / "model_config.txt"), *scen, "--holdout", HOLDOUT,
             "--out", model, "--seed", FIT_SEED],
            ["emulate", *query, "--out", str(w / "emulate.csv")],
            ["forcing", *query, "--out", str(w / "forcing.csv")],
            ["spatial-emulate", *query, "--out", str(w / "spatial.csv")],
            ["sample", *query, "--out", str(w / "sample.csv"), *draws],
            ["evaluate", "--predictions", str(w / "emulate.csv"), "--scenario", truth,
             "--period", PERIOD, "--out", str(w / "scores.csv")],
            ["evaluate", "--predictions", str(w / "spatial.csv"), "--scenario", truth,
             "--period", PERIOD, "--out", str(w / "spatial_scores.csv")],
            ["verify", "--out", str(w / "verify.csv"), "--seed", VERIFY_SEED],
        ]
    if name == "fit_physics":
        model = str(w / "fit_model.txt")
        return [
            ["fit", "--config", str(w / "physics_config.txt"), *scen, "--holdout", HOLDOUT,
             "--out", model, "--seed", FIT_SEED],
            ["emulate", "--model", model, *scen, "--holdout", HOLDOUT,
             "--out", str(w / "emulate.csv")],
        ]
    if name == "large_query":
        out = []
        for target in problem["holdouts"]:
            query = ["--model", str(w / "model.txt"), *scen, "--holdout", target]
            out += [
                ["emulate", *query, "--out", str(w / f"emulate_{target}.csv")],
                ["forcing", *query, "--out", str(w / f"forcing_{target}.csv")],
                ["sample", *query, "--out", str(w / f"sample_{target}.csv"), *draws],
            ]
        return out
    if name == "spatial_grid":
        return [
            ["spatial-emulate", "--model", str(w / "model_config.txt"), *scen,
             "--holdout", HOLDOUT, "--out", str(w / "spatial.csv")],
            ["evaluate", "--predictions", str(w / "spatial.csv"), "--scenario", truth,
             "--period", PERIOD, "--out", str(w / "spatial_scores.csv")],
        ]
    raise ValueError(f"unknown workload '{name}'")
