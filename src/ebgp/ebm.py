"""Impulse-response form of the k-box energy balance model.

The time grid, the per-mode timescales d_i and equilibrium responses q_i
that the prior, the model file and the fit use, the concentration-to-forcing
model, and the discrete annual thermal-response solver and its convolution
operator.  Every function is a pure function of its inputs.  The box form
that diagonalises to these modes is reference code in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import GridMismatch, SchemaError


@dataclass
class TimeGrid:
    """Uniform annual grid covering years start_year .. start_year + (n_steps-1)*step.

    The grid start anchors the preindustrial baseline: thermal responses are
    integrated from rest (zero response) at ``start_year``.
    """

    start_year: int
    n_steps: int
    step: float = 1.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def years(self) -> np.ndarray:
        return self.start_year + self.step * np.arange(self.n_steps)


@dataclass
class ImpulseParams:
    """Impulse-response parameters: per-mode timescales d_i (years), equilibrium
    responses q_i (K W^-1 m^2) and the internal-variability amplitude sigma.

    Modes are kept in canonical order of strictly increasing timescale so that
    serialized parameters are unique.
    """

    timescales: np.ndarray
    equilibrium_responses: np.ndarray
    variability_amplitude: float = 0.0

    def __post_init__(self):
        self.timescales = np.atleast_1d(np.asarray(self.timescales, dtype=float))
        self.equilibrium_responses = np.atleast_1d(
            np.asarray(self.equilibrium_responses, dtype=float)
        )
        if self.timescales.size != self.equilibrium_responses.size:
            raise ValueError("timescales and equilibrium_responses must have equal length")
        if self.timescales.size < 1:
            raise ValueError("at least one mode is required")
        if np.any(self.timescales <= 0) or np.any(self.equilibrium_responses <= 0):
            raise ValueError("timescales and equilibrium responses must be positive")
        if np.any(np.diff(self.timescales) <= 0):
            raise ValueError("timescales must be strictly increasing")
        if self.variability_amplitude < 0:
            raise ValueError("variability_amplitude must be >= 0")
        sigma = float(self.variability_amplitude)  # a Python float overflows without a warning
        if sigma * sigma == np.inf:
            raise ValueError(f"variability_amplitude {sigma!r} is too large: its square overflows")

    @property
    def n_boxes(self) -> int:
        return self.timescales.size


@dataclass
class AgentForcing:
    """Forcing sensitivities of one atmospheric agent.

    The induced forcing is
    alpha_log*log(C/C0) + alpha_lin*(C - C0) + alpha_sqrt*(sqrt(C) - sqrt(C0)),
    with C the agent concentration in its native unit.

    concentration_per_emission optionally enables a crude linear accumulation
    rule C(t) = C0 + coefficient * cumulative emissions, used only when a
    scenario carries no concentration series.  It is a non-physical
    convenience, not a gas-cycle model.
    """

    alpha_log: float = 0.0
    alpha_lin: float = 0.0
    alpha_sqrt: float = 0.0
    c0: float = 1.0
    concentration_per_emission: float | None = None

    def __post_init__(self):
        if (self.alpha_log != 0.0 or self.alpha_sqrt != 0.0) and self.c0 <= 0:
            raise ValueError("c0 must be positive when a log or sqrt term is active")


# Per-agent forcing coefficients, keyed by agent name.
ForcingParams = dict[str, AgentForcing]


def forcing_response(
    concentrations: Mapping[str, np.ndarray],
    params: Mapping[str, AgentForcing],
    grid: TimeGrid,
) -> np.ndarray:
    """Total radiative forcing (W m^-2) from per-agent concentration series.

    Agents present in ``params`` but absent from ``concentrations`` contribute
    nothing only if all their sensitivities are zero.
    """
    total = np.zeros(grid.n_steps)
    for name, p in params.items():
        if name not in concentrations:
            if p.alpha_log == 0.0 and p.alpha_lin == 0.0 and p.alpha_sqrt == 0.0:
                continue
            raise SchemaError(f"no concentration series for forcing agent '{name}'")
        c = np.asarray(concentrations[name], dtype=float)
        if c.size != grid.n_steps:
            raise GridMismatch(
                f"concentration series for '{name}' has length {c.size}, grid has {grid.n_steps}"
            )
        if (p.alpha_log != 0.0 or p.alpha_sqrt != 0.0) and np.any(c <= 0):
            raise SchemaError(
                f"agent '{name}' has non-positive concentrations under a log/sqrt term"
            )
        if p.alpha_log != 0.0:
            total = total + p.alpha_log * np.log(c / p.c0)
        if p.alpha_lin != 0.0:
            total = total + p.alpha_lin * (c - p.c0)
        if p.alpha_sqrt != 0.0:
            total = total + p.alpha_sqrt * (np.sqrt(c) - np.sqrt(p.c0))
    return total


def linear_concentrations(
    emissions: np.ndarray,
    agent: AgentForcing,
    grid: TimeGrid,
    cumulative: bool = False,
) -> np.ndarray:
    """Crude stand-in for a gas cycle: C(t) = C0 + coefficient * accumulated emissions.

    Non-physical convenience for scenarios that carry no concentration data.
    ``cumulative=True`` marks the series as already accumulated.
    """
    if agent.concentration_per_emission is None:
        raise ValueError("agent has no concentration_per_emission coefficient")
    e = np.asarray(emissions, dtype=float)
    acc = e if cumulative else np.cumsum(e) * grid.step
    return agent.c0 + agent.concentration_per_emission * acc


def mode_series(impulse: ImpulseParams, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """First column of each mode's convolution operator (one row per mode)
    and its log-d_i derivative: entry k of row i is q_i (1 - r_i) r_i^k with
    r_i = exp(-step/d_i), exact for forcing held constant over each step."""
    lags = np.arange(grid.n_steps)
    d = impulse.timescales[:, None]
    q = impulse.equilibrium_responses[:, None]
    decay = np.exp(-grid.step / d)
    power = decay**lags
    return q * (1.0 - decay) * power, q * (grid.step / d) * power * (lags * (1.0 - decay) - decay)


def temperature_operator(impulse: ImpulseParams, grid: TimeGrid) -> np.ndarray:
    """Sum of the per-mode convolution operators: maps forcing to temperature."""
    # Imported here, so reading scenarios and scoring load no scipy.linalg.
    from scipy.linalg import toeplitz
    with np.errstate(over="ignore", invalid="ignore"):  # in the derivative, unused here
        col = mode_series(impulse, grid)[0].sum(axis=0)
    return toeplitz(col, np.zeros_like(col))


def lag_sums(weights: np.ndarray) -> np.ndarray:
    """Sums of a square array's subdiagonals: entry k sums entries (a, a - k)."""
    lag = np.subtract.outer(*2 * [np.arange(len(weights))])
    lower = lag >= 0
    return np.bincount(lag[lower], weights=weights[lower], minlength=len(weights))


def thermal_response(
    forcing: np.ndarray, impulse: ImpulseParams, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete per-mode responses and the total temperature for a forcing series.

    Returns (responses, temperature) where responses has shape
    (n_boxes, n_steps) and temperature is its column sum.  Responses start
    from rest at the grid start; entry a is the state at the end of step a.
    """
    f = np.asarray(forcing, dtype=float)
    if f.size != grid.n_steps:
        raise GridMismatch(
            f"forcing has length {f.size}, grid has {grid.n_steps} steps"
        )
    decay = np.exp(-grid.step / impulse.timescales)
    gain = impulse.equilibrium_responses * (1.0 - decay)
    responses = np.empty((impulse.n_boxes, grid.n_steps))
    state = np.zeros(impulse.n_boxes)
    for a in range(grid.n_steps):
        state = decay * state + gain * f[a]
        responses[:, a] = state
    return responses, responses.sum(axis=0)
