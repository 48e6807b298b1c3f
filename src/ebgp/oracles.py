"""Reference code that the tests and the ``verify`` command check the
production modules against.

The box form of the k-box model (heat capacities C_i, transfer coefficients
kappa_i and the deep-ocean efficacy), its ODE and its diagonalisation to
``ebm``'s impulse-response form; one fine-step RK4 of s' = A s + b F for the
box and the mode ODEs alike; Monte Carlo sampling of the forcing prior with
``inference.sample_posterior``, Euler-Maruyama simulation of the noise
responses, direct trapezoid quadrature of the covariance double integrals, a
Monte Carlo CRPS estimator, a central finite-difference gradient checker, the
per-mode convolution operators, reference forms of the kernel and propagated
Grams, the exact start-from-rest variability covariance, the per-cell
Cholesky form of the spatial posterior and the joint predictive log-density.

Of the package's modules only ``cli`` imports this one, for ``verify``;
production inference never calls it.  Everything is deterministic for a
fixed seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import toeplitz

from . import ebm, inference, kernels
from .ebm import ImpulseParams, TimeGrid
from .errors import DimensionMismatch, GridMismatch, NonDiagonalizable
from .inference import Conditioned, GPPrior, PosteriorDistribution, factorise
from .kernels import KernelConfig
from .scenario import TrainingSet
from .spatial import PatternScalingMap


def _scaled_distance(x: np.ndarray, y: np.ndarray, config: KernelConfig) -> float:
    dx = (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) / config.lengthscales
    return float(np.sqrt(np.sum(dx * dx)))


def matern(x: np.ndarray, y: np.ndarray, config: KernelConfig) -> float:
    """Evaluate the ARD Matérn kernel between two input vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.size != y.size or x.size != config.n_dims:
        raise DimensionMismatch(
            f"inputs of size {x.size} and {y.size} for {config.n_dims} lengthscales"
        )
    r = _scaled_distance(x, y, config)
    if config.family == "matern12":
        return config.variance * np.exp(-r)
    u = kernels.SQRT3 * r
    return config.variance * (1.0 + u) * np.exp(-u)


def convolution_operator(impulse: ImpulseParams, box: int, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular Toeplitz operator of one mode's ``ebm.mode_series``:
    maps an annual forcing series to the discrete response of that mode."""
    col = ebm.mode_series(impulse, grid)[0][box]
    return toeplitz(col, np.zeros_like(col))


def thermal_cross_gram(k: np.ndarray, op_i: np.ndarray, op_j: np.ndarray) -> np.ndarray:
    """Covariance between two mode responses: op_i K op_j^T."""
    k = np.asarray(k, dtype=float)
    if op_i.shape[1] != k.shape[0] or op_j.shape[1] != k.shape[1]:
        raise DimensionMismatch(
            f"operators {op_i.shape}, {op_j.shape} do not conform with kernel {k.shape}"
        )
    return op_i @ k @ op_j.T


def temperature_gram(
    k: np.ndarray, impulse: ImpulseParams, grid: TimeGrid
) -> np.ndarray:
    """Temperature covariance L K L^T with L the summed mode operator."""
    op = ebm.temperature_operator(impulse, grid)
    return thermal_cross_gram(k, op, op)


def forcing_temperature_cross_gram(
    k_block: np.ndarray, impulse: ImpulseParams, grid: TimeGrid
) -> np.ndarray:
    """Cross covariance Cov(F(t), T(t')): forcing kernel rows against K L^T columns."""
    k_block = np.asarray(k_block, dtype=float)
    if k_block.ndim != 2 or k_block.shape[1] != grid.n_steps:
        raise DimensionMismatch(
            f"kernel block {k_block.shape} does not conform with grid of {grid.n_steps} steps"
        )
    op = ebm.temperature_operator(impulse, grid)
    return k_block @ op.T


def response_times(grid: TimeGrid) -> np.ndarray:
    """Elapsed time at the end of each step of ``grid``, from its start.

    Entry a of a discrete response series is the state after forcing has
    acted through step a, i.e. at elapsed time (a + 1) * step.
    """
    return grid.step * (np.arange(grid.n_steps) + 1.0)


def exact_variability_gram(impulse: ImpulseParams, grid: TimeGrid) -> np.ndarray:
    """Covariance of the noise responses started from rest at the grid start,
    without sigma^2, transient term included; it converges to the stationary
    ``kernels.internal_variability_gram`` once both times exceed every timescale."""
    d = impulse.timescales
    q = impulse.equilibrium_responses
    t = response_times(grid)
    ti = t[:, None]
    tj = t[None, :]
    lag = np.abs(ti - tj)
    gram = np.zeros((grid.n_steps, grid.n_steps))
    for i in range(impulse.n_boxes):
        for j in range(impulse.n_boxes):
            # For t <= t' the lag decays on d_i, otherwise on d_j; the
            # second exponential is the start-from-rest transient.
            stationary = np.where(ti <= tj, np.exp(-lag / d[i]), np.exp(-lag / d[j]))
            transient = np.exp(-ti / d[i] - tj / d[j])
            gram += q[i] * q[j] / (d[i] + d[j]) * (stationary - transient)
    return gram


def cell_prior(
    pattern: PatternScalingMap, prior: GPPrior, i: int, j: int
) -> tuple[GPPrior, np.ndarray]:
    """Prior of grid cell (i, j): affinely mapped mean, Grams scaled by slope
    squared, and per-row white noise of the regression residual variance."""
    beta = float(pattern.slope[i, j])
    cell = dataclasses.replace(
        prior,
        mean=beta * prior.mean + float(pattern.intercept[i, j]),
        kernel_gram=beta**2 * prior.kernel_gram,
        variability_blocks=[beta**2 * block for block in prior.variability_blocks],
    )
    return cell, np.full(prior.n, float(pattern.residual_variance[i, j]))


def cell_posterior(
    pattern: PatternScalingMap, prior: GPPrior, train: TrainingSet,
    local_observations: np.ndarray, i: int, j: int, test_rows: slice,
) -> PosteriorDistribution:
    """Posterior of cell (i, j) at the prior rows ``test_rows``, full
    covariance, by a Cholesky factorization of the cell's own block: the
    reference for ``spatial.spatial_posterior``.  The training rows must be
    the prior's leading rows (``GPPrior.noisy_block``)."""
    cell, noise = cell_prior(pattern, prior, i, j)
    n = train.n
    residual = np.asarray(local_observations, dtype=float)[:, i, j] - cell.mean[:n]
    block = cell.noisy_block(train) + np.diag(noise[:n])
    conditioned = Conditioned(cell, *factorise(block, residual))
    k = cell.physics_gram(test_rows)
    return conditioned.posterior(test_rows, cell.mean[test_rows], k[:, test_rows], k[:, :n])


def predictive_log_density(
    posterior: PosteriorDistribution,
    values: np.ndarray,
    variability: tuple[np.ndarray, float] | None = None,
) -> float:
    """Joint log-density of ``values`` under the (optionally noise-augmented)
    posterior Gaussian."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size != posterior.n:
        raise GridMismatch(f"{values.size} values for a posterior of size {posterior.n}")
    cov = posterior.covariance
    if variability is not None:
        gram, sigma = variability
        cov = cov + sigma**2 * np.asarray(gram, dtype=float)
    return factorise(cov, values - posterior.mean, ladder=(0.0, *inference.JITTER_LADDER))[3]


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


def box_ode(box: BoxModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The box temperatures' ODE s' = A s + b F as the pair (A, b).

    A is the tridiagonal feedback matrix: row i couples box i to its
    neighbours through kappa; the coupling between the two deepest boxes is
    scaled by the deep-ocean efficacy on the second-to-last row only.
    Forcing enters the surface box only: b = [1/C_1, 0, ..., 0].
    """
    k = box.n_boxes
    c = box.heat_capacities
    kap = box.heat_transfer
    eps = box.deep_ocean_efficacy
    a = np.zeros((k, k))
    for i in range(k):
        eff = eps if i == k - 2 else 1.0
        down = eff * kap[i + 1] if i + 1 < k else 0.0
        a[i, i] = -(kap[i] + down) / c[i]
        if i + 1 < k:
            a[i, i + 1] = down / c[i]
        if i > 0:
            a[i, i - 1] = kap[i] / c[i]
    b = np.zeros(k)
    b[0] = 1.0 / c[0]
    return a, b


def diagonalization(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector basis of a feedback matrix.

    Eigenvalues come sorted most negative first (increasing timescale) and
    eigenvectors are normalised to unit surface-box component, so that the
    transformed mode responses sum to the surface temperature.  Raises
    NonDiagonalizable when eigenvalues are complex or repeated within
    ``tol`` (1e-9, relative to the spectral scale), or when a mode does not
    couple to the surface box.
    """
    tol = 1e-9
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


def diagonalize(params: BoxModelParams) -> ImpulseParams:
    """Convert box-form parameters to impulse-response form.

    Mode timescales are the negated reciprocal eigenvalues of the feedback
    matrix; equilibrium responses follow from the transformed forcing
    vector.  The returned parameters carry zero variability amplitude.
    """
    a, b = box_ode(params)
    evals, evecs = diagonalization(a)
    d = -1.0 / evals
    w = np.linalg.solve(evecs, b)
    q = w * d
    return ImpulseParams(timescales=d, equilibrium_responses=q)


def _rk4(a: np.ndarray, b: np.ndarray, forcing, grid: TimeGrid, substeps: int) -> np.ndarray:
    """States of s' = A s + b F at the end of every step, from rest, by
    fine-step RK4 with F constant within each step: one substep of
    s' = A s + d is the affine map s -> R s + Q d, with R and Q RK4's
    polynomials in hA, composed ``substeps`` times per step.  ``forcing`` is
    (..., n_steps) and the states (..., n_steps, k)."""
    h = grid.step / substeps
    eye = np.eye(b.size)
    poly = eye + (h * a) @ (eye / 2 + (h * a) @ (eye / 6 + h * a / 24))
    r, q = eye + (h * a) @ poly, h * poly
    step, drive = eye, np.zeros_like(eye)
    for _ in range(substeps):
        step, drive = r @ step, r @ drive + q
    forcing = np.asarray(forcing, dtype=float)
    states = np.empty((*forcing.shape, b.size))
    state = np.zeros(b.size)
    for i in range(grid.n_steps):
        state = state @ step.T + (forcing[..., i, None] * b) @ drive.T
        states[..., i, :] = state
    return states


def rk4_box_temperature(
    box: BoxModelParams, forcing: np.ndarray, grid: TimeGrid, substeps: int = 100
) -> np.ndarray:
    """Surface-box temperature from fine-step RK4 of the coupled box ODE,
    from rest, at the end of every step."""
    return _rk4(*box_ode(box), forcing, grid, substeps)[..., 0]


def rk4_impulse_temperature(
    impulse: ImpulseParams, forcing: np.ndarray, grid: TimeGrid, substeps: int = 20
) -> np.ndarray:
    """Temperature from fine-step RK4 of the mode ODEs s' = (q F - s) / d,
    from rest, at the end of every step; ``forcing`` is a single series
    (n_steps,) or a batch (n_paths, n_steps)."""
    d = impulse.timescales
    return _rk4(np.diag(-1.0 / d), impulse.equilibrium_responses / d, forcing, grid,
                substeps).sum(-1)


def mc_temperature_covariance(
    kernel: KernelConfig,
    emissions: np.ndarray,
    impulse: ImpulseParams,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Empirical temperature covariance from sampled forcing paths.

    Paths are drawn from the Gaussian forcing prior on the annual grid
    (kernel over the given, already-prepared emission rows) and pushed
    through the fine-substep RK4 integrator of the mode ODEs.  The sample
    covariance of the resulting temperatures estimates the propagated Gram.
    """
    x = np.atleast_2d(np.asarray(emissions, dtype=float))
    prior = PosteriorDistribution(np.zeros(grid.n_steps), kernels.forcing_gram(x, x, kernel), [])
    paths = inference.sample_posterior(prior, n_samples, seed)
    temps = rk4_impulse_temperature(impulse, paths, grid)
    return np.cov(temps, rowvar=False, ddof=1)


def sde_variability_covariance(
    impulse: ImpulseParams,
    sigma: float,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Empirical covariance of Euler-Maruyama noise-response paths.

    All modes share one Brownian path, so cross-mode covariances are
    exercised.  Each step splits into equal substeps of at most
    min(timescale)/50.  Paths start from rest at the grid start and are
    recorded at end-of-step times.
    """
    d = impulse.timescales
    q = impulse.equilibrium_responses
    per_step = max(int(np.ceil(grid.step / (float(d.min()) / 50.0))), 1)
    h = grid.step / per_step
    rng = np.random.default_rng(seed)
    state = np.zeros((n_paths, impulse.n_boxes))
    totals = np.empty((n_paths, grid.n_steps))
    sqrt_h = np.sqrt(h)
    for step in range(grid.n_steps):
        for _ in range(per_step):
            noise = rng.standard_normal(n_paths)[:, None]
            state = state - state / d[None, :] * h + sigma * (q / d)[None, :] * sqrt_h * noise
        totals[:, step] = state.sum(axis=1)
    return np.cov(totals, rowvar=False, ddof=1)


def _cumtrapz2d(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid integral along both axes; row/column 0 are zero."""
    def along(axis_values):
        inner = 0.5 * h * (axis_values[:-1] + axis_values[1:])
        out = np.zeros_like(axis_values)
        out[1:] = np.cumsum(inner, axis=0)
        return out

    return along(along(values).T).T


def quadrature_thermal_covariance(
    kernel: KernelConfig,
    emissions: np.ndarray,
    impulse: ImpulseParams,
    grid: TimeGrid,
    substeps: int = 16,
) -> np.ndarray:
    """Direct trapezoid quadrature of the thermal covariance double integral.

    Treats the annual emission rows as samples of a smooth path (linear
    interpolation anchored at step midpoints) and integrates the smooth
    limit object; the discrete production Gram should agree with the
    high-substep limit on smooth inputs to a few percent.  Exponential
    rescaling keeps one kernel evaluation per substep pair, so the routine
    is intended for short grids (exp(t_max / min timescale) must stay
    finite).
    """
    x = np.atleast_2d(np.asarray(emissions, dtype=float))
    n = grid.n_steps
    h = grid.step / substeps
    m = n * substeps
    s = h * np.arange(m + 1)
    nodes = grid.step * (np.arange(n) + 0.5)
    x_sub = np.column_stack(
        [np.interp(s, nodes, x[:, dim]) for dim in range(x.shape[1])]
    )
    k_sub = kernels.forcing_gram(x_sub, x_sub, kernel)

    t = response_times(grid)
    ends = slice(substeps, None, substeps)  # the substep nodes that end each step
    gram = np.zeros((n, n))
    d = impulse.timescales
    q = impulse.equilibrium_responses
    for i in range(impulse.n_boxes):
        for j in range(impulse.n_boxes):
            weighted = k_sub * np.exp(s / d[i])[:, None] * np.exp(s / d[j])[None, :]
            integral = _cumtrapz2d(weighted, h)[ends, ends]
            damp = np.exp(-t / d[i])[:, None] * np.exp(-t / d[j])[None, :]
            gram += (q[i] * q[j] / (d[i] * d[j])) * damp * integral
    return gram


def mc_crps(mean: float, std: float, value: float, n_samples: int, seed: int) -> float:
    """Monte Carlo CRPS estimate for one Gaussian forecast.

    Scores the empirical distribution of a stratified sample (one uniform
    per stratum through the inverse CDF) with the energy form
    E|X - y| - E|X - X'|/2, the pair term evaluated exactly over the sample
    via the sorted-sum identity.  Stratification keeps the estimator error
    well below the tolerance it is used to certify.
    """
    from scipy.special import ndtri

    rng = np.random.default_rng(seed)
    strata = (np.arange(n_samples) + rng.uniform(0.0, 1.0, n_samples)) / n_samples
    draws = mean + std * ndtri(strata)  # already sorted
    term1 = np.mean(np.abs(draws - value))
    ranks = np.arange(n_samples)
    term2 = float(draws @ (2.0 * ranks + 1.0 - n_samples)) / n_samples**2
    return float(term1 - term2)


def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient, one coordinate at a time, with step 1e-5."""
    step = 1e-5
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


def scaled_frobenius_distance(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius norm of the difference relative to the reference norm."""
    reference = np.asarray(reference, dtype=float)
    return float(
        np.linalg.norm(estimate - reference) / np.linalg.norm(reference)
    )


# ---------------------------------------------------------------------------
# Bundled verification suite for the CLI
# ---------------------------------------------------------------------------


@dataclass
class VerificationCheck:
    name: str
    statistic: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.tolerance


def _random_box(rng: np.random.Generator, k: int | None = None) -> BoxModelParams:
    """A random box model of ``k`` boxes (1-3 drawn from ``rng`` if None)."""
    k = int(rng.integers(1, 4)) if k is None else k
    return BoxModelParams(
        heat_capacities=rng.uniform(3.0, 120.0, size=k),
        heat_transfer=rng.uniform(0.4, 3.0, size=k),
        deep_ocean_efficacy=float(rng.uniform(0.6, 1.6)),
    )


def _toy_setup():
    impulse = ImpulseParams([3.5, 80.0], [0.45, 0.30])
    grid = TimeGrid(2000, 20)
    t = np.arange(grid.n_steps, dtype=float)
    emissions = np.column_stack([t / 10.0, np.sin(t / 9.0)])
    kernel = KernelConfig("matern32", [3.0, 4.0], 0.5, standardize_inputs=False)
    return impulse, grid, emissions, kernel


def default_verification(seed: int = 0) -> list[VerificationCheck]:
    """Oracle-versus-production checks behind the ``verify`` command."""
    checks: list[VerificationCheck] = []
    rng = np.random.default_rng(seed)

    # Steady-state gain of the diagonalized system matches the box form.
    worst = 0.0
    for _ in range(100):
        box = _random_box(rng)
        impulse = diagonalize(box)
        a, b = box_ode(box)
        gain = np.linalg.solve(a, -b)[0]
        worst = max(worst, abs(impulse.equilibrium_responses.sum() - gain) / abs(gain))
    checks.append(VerificationCheck("steady_state_gain", worst, 1e-10))

    # Impulse-form solver against RK4 integration of the coupled box ODE.
    worst = 0.0
    grid = TimeGrid(1850, 120)
    forcing = np.full(grid.n_steps, 3.0)
    for _ in range(3):
        box = _random_box(rng, k=2)
        impulse = diagonalize(box)
        _, temp = ebm.thermal_response(forcing, impulse, grid)
        reference = rk4_box_temperature(box, forcing, grid, substeps=100)
        worst = max(worst, np.max(np.abs(temp - reference)) / np.max(np.abs(reference)))
    checks.append(VerificationCheck("impulse_vs_box_ode", worst, 1e-6))

    impulse, grid, emissions, kernel = _toy_setup()

    analytic = temperature_gram(
        kernels.forcing_gram(emissions, emissions, kernel), impulse, grid
    )
    empirical = mc_temperature_covariance(kernel, emissions, impulse, grid, 2000, seed)
    checks.append(
        VerificationCheck(
            "mc_temperature_covariance",
            scaled_frobenius_distance(empirical, analytic),
            0.05,
        )
    )

    quad = quadrature_thermal_covariance(kernel, emissions, impulse, grid, substeps=16)
    checks.append(
        VerificationCheck(
            "quadrature_thermal_covariance",
            scaled_frobenius_distance(analytic, quad),
            0.02,
        )
    )

    # Stationary variance of a single noisy mode.
    one = ImpulseParams([4.0], [0.5])
    sigma = 0.3
    long_grid = TimeGrid(1900, 60)
    emp = sde_variability_covariance(one, sigma, long_grid, 5000, seed + 1)
    target = sigma**2 * one.equilibrium_responses[0] ** 2 / (2.0 * one.timescales[0])
    checks.append(
        VerificationCheck(
            "ou_stationary_variance",
            abs(emp[-1, -1] - target) / target,
            0.05,
        )
    )

    # Exact covariance decays to the long-time form.
    two = ImpulseParams([3.0, 8.0], [0.4, 0.3])
    tail_grid = TimeGrid(1900, 120)
    exact = exact_variability_gram(two, tail_grid)
    stationary = kernels.internal_variability_gram(two, tail_grid)
    times = response_times(tail_grid)
    late = np.minimum(times[:, None], times[None, :]) > 10.0 * two.timescales.max()
    tail = np.max(np.abs((exact - stationary)[late])) / np.max(np.abs(stationary))
    checks.append(VerificationCheck("exact_vs_long_time_tail", tail, 0.01))

    # Closed-form CRPS against the Monte Carlo estimator.
    from .metrics import gaussian_crps

    closed = float(gaussian_crps(0.3, 1.0, 0.0)[0])
    estimated = mc_crps(0.3, 1.0, 0.0, 1_000_000, seed + 2)
    checks.append(VerificationCheck("gaussian_crps_mc", abs(closed - estimated), 1e-3))

    return checks
