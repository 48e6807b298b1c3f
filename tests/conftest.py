import os
from pathlib import Path

# One BLAS thread: the suite's small matrices run faster without thread
# hand-offs.  Set before numpy is first imported; an explicit setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ebgp.ebm import AgentForcing, ImpulseParams, TimeGrid  # noqa: E402
from ebgp.inference import PARAMETER_NAMES, FitGeometry, mll_and_gradient  # noqa: E402
from ebgp.kernels import KernelConfig  # noqa: E402
from ebgp.scenario import AgentSpec, Scenario  # noqa: E402

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "synthetic"


def frozen_objective(scenarios, train, model, free=PARAMETER_NAMES, jitter=None):
    """``mll_and_gradient`` through a fresh ``FitGeometry`` whose rung is
    frozen at ``jitter`` (None lets the first factorisation climb the ladder)."""
    geometry = FitGeometry(scenarios, train, model, free)
    geometry.jitter = jitter
    return mll_and_gradient(geometry, model)


@pytest.fixture
def toy_impulse():
    return ImpulseParams([3.5, 80.0], [0.45, 0.30], variability_amplitude=0.12)


@pytest.fixture
def toy_agents():
    return [
        AgentSpec("co2", "cumulative_emission", "GtC"),
        AgentSpec("so2", "emission", "Mt"),
    ]


@pytest.fixture
def toy_forcing():
    return {
        "co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
        "so2": AgentForcing(alpha_lin=-0.02, c0=1.0, concentration_per_emission=1.0),
    }


@pytest.fixture
def toy_kernel():
    return KernelConfig("matern32", [1.0, 1.5], 0.3)


def make_scenario(name, n_steps, start_year=1900, temperature=None, seed=None):
    """Small two-agent scenario with smooth distinct emission curves."""
    grid = TimeGrid(start_year, n_steps)
    t = np.arange(n_steps, dtype=float)
    shift = 0.0 if seed is None else float(seed)
    emissions = {
        "co2": np.cumsum(1.0 + 0.1 * t + 0.05 * shift),
        "so2": 2.0 + np.sin((t + 3.0 * shift) / 8.0),
    }
    return Scenario(
        name=name,
        grid=grid,
        emissions=emissions,
        global_temperature=temperature,
    )


@pytest.fixture
def scenario_factory():
    return make_scenario
