#!/usr/bin/env python3
"""Generate the bundled synthetic dataset under data/synthetic/.

Four scenarios (one historical record plus low/mid/high futures) are drawn
from a known toy two-box model: the deterministic forcing path gets a joint
Gaussian deviation sampled from the forcing kernel across all scenarios, the
result is convolved through the response operator, and exact discrete
noise-response paths supply internal variability.  Spatial cubes are an
affine pattern of the global series plus white noise, so the whole dataset
is self-consistent with the emulator's model family.

Deterministic: fixed seed, fixed byte output.  Rerun after changing
generation constants; tests consume the committed files.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads it: with more threads the order of
# floating-point sums follows the core count and the files' last digits move.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ebgp.ebm import AgentForcing, ImpulseParams, TimeGrid, thermal_response
from ebgp.inference import EmulatorModel, FitSettings, build_prior
from ebgp.kernels import KernelConfig
from ebgp.model_io import save_model
from ebgp.scenario import AgentSpec, Scenario, SpatialGrid, save_scenario, save_spatial

SEED = 20240817
OUT = ROOT / "data" / "synthetic"

FIRST_YEAR = 1850
LAST_HIST = 2014
LAST_YEAR = 2050

AGENTS = [
    AgentSpec("co2", "cumulative_emission", "GtC"),
    AgentSpec("ch4", "emission", "MtCH4"),
    AgentSpec("so2", "emission", "MtSO2"),
]

# Shipped with the dataset: the emulator's (imperfect) forcing model.  The
# bundled files carry explicit concentration columns; only carbon dioxide
# gets an accumulation fallback rule.
FORCING = {
    "co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
    "ch4": AgentForcing(alpha_sqrt=0.036, c0=720.0),
    "so2": AgentForcing(alpha_lin=-0.004, c0=10.0),
}

# Used to generate the data: deliberately different sensitivities, so the
# truth carries a smooth emission-dependent discrepancy the posterior can
# learn from sibling scenarios.
TRUE_FORCING = {
    "co2": AgentForcing(alpha_log=5.9, c0=278.0, concentration_per_emission=0.47),
    "ch4": AgentForcing(alpha_sqrt=0.031, c0=720.0),
    "so2": AgentForcing(alpha_lin=-0.0055, c0=10.0),
}

# Concentration scaling: cumulative for the long-lived agent, proportional
# to the annual flux for the short-lived ones.
CONC_PER_CUMULATIVE = {"co2": 0.47}
CONC_PER_FLUX = {"ch4": 3.5, "so2": 0.8}

# The white-noise amplitude 0.7 gives a per-year temperature noise of
# about 0.1 K through the stationary variability variance.
IMPULSE = ImpulseParams(
    timescales=[4.1, 239.0],
    equilibrium_responses=[0.41, 0.33],
    variability_amplitude=0.7,
)

KERNEL = KernelConfig(
    family="matern32",
    lengthscales=[1.0, 1.0, 1.0],
    variance=0.25,
    standardize_inputs=True,
)

# Small additional stochastic texture on top of the deterministic
# discrepancy, drawn from this kernel over the same standardized inputs.
TEXTURE = KernelConfig(
    family="matern32",
    lengthscales=[0.5, 0.5, 0.5],
    variance=0.001,
    standardize_inputs=True,
)

SPATIAL = SpatialGrid(latitudes=[-60.0, -20.0, 20.0, 60.0],
                      longitudes=[0.0, 90.0, 180.0, 270.0])
LOCAL_NOISE = 0.03


def _smooth_rise(t: np.ndarray, midpoint: float, width: float) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-(t - midpoint) / width))


def emission_paths(name: str, years: np.ndarray) -> dict[str, np.ndarray]:
    """Smooth per-agent annual emission fluxes for one scenario."""
    t = years.astype(float)
    hist = np.minimum(t, LAST_HIST)
    future = np.clip(t - LAST_HIST, 0.0, None)

    co2 = 22.0 * _smooth_rise(hist, 1990.0, 28.0)
    ch4 = 300.0 * _smooth_rise(hist, 1975.0, 30.0)
    so2 = 120.0 * _smooth_rise(hist, 1960.0, 20.0) * (1.0 - 0.55 * _smooth_rise(hist, 2000.0, 12.0))

    if name == "ssp_low":
        co2 = co2 * np.exp(-future / 18.0)
        ch4 = ch4 * np.exp(-future / 30.0)
        so2 = so2 * np.exp(-future / 15.0)
    elif name == "ssp_mid":
        co2 = co2 * (1.0 + 0.25 * _smooth_rise(t, 2030.0, 10.0) * (t > LAST_HIST))
        so2 = so2 * np.exp(-future / 40.0)
    elif name == "ssp_high":
        co2 = co2 * (1.0 + 0.9 * _smooth_rise(t, 2035.0, 12.0) * (t > LAST_HIST))
        ch4 = ch4 * (1.0 + 0.5 * _smooth_rise(t, 2035.0, 15.0) * (t > LAST_HIST))
    # the historical record simply stops at LAST_HIST
    return {"co2": co2, "ch4": ch4, "so2": so2}


def build_scenarios() -> list[Scenario]:
    scenarios = []
    for name in ("historical", "ssp_low", "ssp_mid", "ssp_high"):
        last = LAST_HIST if name == "historical" else LAST_YEAR
        grid = TimeGrid(FIRST_YEAR, last - FIRST_YEAR + 1)
        years = grid.years()
        flux = emission_paths(name, years)
        emissions = {}
        concentrations = {}
        for spec in AGENTS:
            series = flux[spec.name]
            if spec.input_mode == "cumulative_emission":
                series = np.cumsum(series) * grid.step
            emissions[spec.name] = series
            c0 = FORCING[spec.name].c0
            if spec.name in CONC_PER_CUMULATIVE:
                concentrations[spec.name] = c0 + CONC_PER_CUMULATIVE[spec.name] * series
            else:
                concentrations[spec.name] = c0 + CONC_PER_FLUX[spec.name] * flux[spec.name]
        scenarios.append(
            Scenario(
                name=name,
                grid=grid,
                emissions=emissions,
                concentrations=concentrations,
            )
        )
    return scenarios


def exact_noise_paths(impulse: ImpulseParams, grid: TimeGrid, rng) -> np.ndarray:
    """One exact discrete noise-response path, summed over modes.

    Per-step increments of the mode vector are jointly Gaussian because all
    modes share one Brownian path; their covariance has the closed form
    q_i q_j / (d_i + d_j) * (1 - exp(-step (d_i + d_j) / (d_i d_j))).
    """
    d = impulse.timescales
    q = impulse.equilibrium_responses
    k = impulse.n_boxes
    cov = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            rate = grid.step * (d[i] + d[j]) / (d[i] * d[j])
            cov[i, j] = q[i] * q[j] / (d[i] + d[j]) * (1.0 - np.exp(-rate))
    root = np.linalg.cholesky(cov)
    decay = np.exp(-grid.step / d)
    state = np.zeros(k)
    out = np.empty(grid.n_steps)
    for a in range(grid.n_steps):
        state = decay * state + root @ rng.standard_normal(k)
        out[a] = state.sum()
    return impulse.variability_amplitude * out


def main() -> None:
    rng = np.random.default_rng(SEED)
    scenarios = build_scenarios()

    # True forcing path per the generating sensitivities, plus a joint
    # stochastic texture correlated across scenarios through emissions.
    truth = EmulatorModel(agents=AGENTS, impulse=IMPULSE, forcing=TRUE_FORCING, kernel=TEXTURE)
    true_prior = build_prior(scenarios, truth)
    eigvals, eigvecs = np.linalg.eigh(true_prior.forcing_gram())
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    forcing_texture = root @ rng.standard_normal(true_prior.n)

    cursor, cubes = 0, []
    for scen in scenarios:
        n = scen.grid.n_steps
        total_forcing = (
            true_prior.forcing_mean[cursor : cursor + n]
            + forcing_texture[cursor : cursor + n]
        )
        _, temperature = thermal_response(total_forcing, IMPULSE, scen.grid)
        temperature = temperature + exact_noise_paths(IMPULSE, scen.grid, rng)
        scen.global_temperature = temperature

        beta = 0.55 + 0.85 * np.cos(np.radians(SPATIAL.latitudes))[:, None] \
            + 0.05 * np.cos(np.radians(SPATIAL.longitudes))[None, :]
        beta0 = 0.1 * np.sin(np.radians(SPATIAL.latitudes))[:, None] \
            + np.zeros((1, SPATIAL.longitudes.size))
        cube = beta[None, :, :] * temperature[:, None, None] + beta0[None, :, :]
        cubes.append(cube + LOCAL_NOISE * rng.standard_normal(cube.shape))
        cursor += n

    OUT.mkdir(parents=True, exist_ok=True)
    for scen, cube in zip(scenarios, cubes):
        save_scenario(scen, OUT / f"{scen.name}.csv", AGENTS)
        save_spatial(OUT / f"{scen.name}.csv", scen.grid, SPATIAL, cube)

    model = EmulatorModel(
        agents=AGENTS,
        impulse=IMPULSE,
        forcing=FORCING,
        kernel=KERNEL,
        fit=FitSettings(free=("lengthscales", "variance", "sigma"),
                        restarts=1, max_iterations=120),
    )
    save_model(model, OUT / "model_config.txt")
    print(f"wrote {len(scenarios)} scenarios and model_config.txt to {OUT}")


if __name__ == "__main__":
    main()
