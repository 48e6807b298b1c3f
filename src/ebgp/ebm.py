"""Deterministic k-box energy balance model.

Box-form parameters, diagonalisation to the impulse-response form, the
concentration-to-forcing model, and the discrete annual thermal-response
solver.  Everything here is a pure function of its inputs; values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.linalg import toeplitz

from .errors import DimensionMismatch, NonDiagonalizable, NonPositiveConcentration


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

    def response_times(self) -> np.ndarray:
        """Elapsed time at the end of each step, measured from the grid start.

        Entry a of a discrete response series is the state after forcing has
        acted through step a, i.e. at elapsed time (a + 1) * step.
        """
        return self.step * (np.arange(self.n_steps) + 1.0)


@dataclass
class BoxModelParams:
    """Box-form parameters: heat capacities C_i, transfer coefficients kappa_i
    and the deep-ocean heat uptake efficacy."""

    heat_capacities: np.ndarray
    heat_transfer: np.ndarray
    deep_ocean_efficacy: float = 1.0

    def __post_init__(self):
        self.heat_capacities = np.atleast_1d(np.asarray(self.heat_capacities, dtype=float))
        self.heat_transfer = np.atleast_1d(np.asarray(self.heat_transfer, dtype=float))
        if self.heat_capacities.size != self.heat_transfer.size:
            raise ValueError("heat_capacities and heat_transfer must have equal length")
        if self.heat_capacities.size < 1:
            raise ValueError("at least one box is required")
        if np.any(self.heat_capacities <= 0) or np.any(self.heat_transfer <= 0):
            raise ValueError("heat capacities and transfer coefficients must be positive")
        if self.deep_ocean_efficacy <= 0:
            raise ValueError("deep_ocean_efficacy must be positive")

    @property
    def n_boxes(self) -> int:
        return self.heat_capacities.size


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


def build_feedback_matrix(params: BoxModelParams) -> np.ndarray:
    """Tridiagonal temperature feedback matrix of the k-box model.

    Row i couples box i to its neighbours through kappa; the coupling between
    the two deepest boxes is scaled by the deep-ocean efficacy on the
    second-to-last row only.
    """
    k = params.n_boxes
    c = params.heat_capacities
    kap = params.heat_transfer
    eps = params.deep_ocean_efficacy
    a = np.zeros((k, k))
    for i in range(k):
        eff = eps if i == k - 2 else 1.0
        down = eff * kap[i + 1] if i + 1 < k else 0.0
        a[i, i] = -(kap[i] + down) / c[i]
        if i + 1 < k:
            a[i, i + 1] = down / c[i]
        if i > 0:
            a[i, i - 1] = kap[i] / c[i]
    return a


def forcing_feedback_vector(params: BoxModelParams) -> np.ndarray:
    """Forcing enters the surface box only: [1/C_1, 0, ..., 0]."""
    b = np.zeros(params.n_boxes)
    b[0] = 1.0 / params.heat_capacities[0]
    return b


def diagonalization(matrix: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector basis of a feedback matrix.

    Eigenvalues come sorted most negative first (increasing timescale) and
    eigenvectors are normalised to unit surface-box component, so that the
    transformed mode responses sum to the surface temperature.  Raises
    NonDiagonalizable when eigenvalues are complex or repeated within
    ``tol`` (relative to the spectral scale), or when a mode does not couple
    to the surface box.
    """
    a = np.asarray(matrix, dtype=float)
    evals, evecs = np.linalg.eig(a)
    scale = np.max(np.abs(evals))
    if np.max(np.abs(evals.imag)) > tol * max(scale, 1.0):
        raise NonDiagonalizable("feedback matrix has complex eigenvalues")
    evals = evals.real
    evecs = evecs.real
    order = np.argsort(evals)  # most negative first -> increasing timescale
    evals = evals[order]
    evecs = evecs[:, order]
    if np.any(np.diff(evals) <= tol * max(scale, 1.0)):
        raise NonDiagonalizable("feedback matrix has repeated eigenvalues")
    if np.any(evals >= 0):
        raise NonDiagonalizable("feedback matrix has a non-negative eigenvalue")
    surface = evecs[0, :]
    if np.any(np.abs(surface) <= tol):
        raise NonDiagonalizable("a mode does not couple to the surface box")
    return evals, evecs / surface


def diagonalize(params: BoxModelParams, tol: float = 1e-9) -> ImpulseParams:
    """Convert box-form parameters to impulse-response form.

    Mode timescales are the negated reciprocal eigenvalues of the feedback
    matrix; equilibrium responses follow from the transformed forcing
    vector.  The returned parameters carry zero variability amplitude.
    """
    evals, evecs = diagonalization(build_feedback_matrix(params), tol=tol)
    b = forcing_feedback_vector(params)
    d = -1.0 / evals
    w = np.linalg.solve(evecs, b)
    q = w * d
    return ImpulseParams(timescales=d, equilibrium_responses=q)


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
            raise KeyError(f"no concentration series for forcing agent '{name}'")
        c = np.asarray(concentrations[name], dtype=float)
        if c.size != grid.n_steps:
            raise DimensionMismatch(
                f"concentration series for '{name}' has length {c.size}, grid has {grid.n_steps}"
            )
        if (p.alpha_log != 0.0 or p.alpha_sqrt != 0.0) and np.any(c <= 0):
            raise NonPositiveConcentration(
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


def convolution_operator(impulse: ImpulseParams, box: int, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular Toeplitz operator of one mode's ``mode_series``: maps
    an annual forcing series to the discrete response of that mode."""
    col = mode_series(impulse, grid)[0][box]
    return toeplitz(col, np.zeros_like(col))


def temperature_operator(impulse: ImpulseParams, grid: TimeGrid) -> np.ndarray:
    """Sum of the per-mode convolution operators: maps forcing to temperature."""
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
        raise DimensionMismatch(
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
