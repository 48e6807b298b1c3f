"""Gaussian-process prior assembly and exact posterior inference.

Builds the stacked multi-scenario prior (mean path from the box model,
physics-propagated covariance, per-scenario internal variability),
computes exact posteriors over temperature and radiative forcing, the
marginal log-likelihood and its gradients, and fits hyperparameters by
quasi-Newton ascent on log-parameters.

Inference is one exact Gaussian conditioning on the noisy training block
(Rasmussen & Williams, GPML, Algorithm 2.1): ``condition`` is the only caller
of ``factorise`` (the one Cholesky routine, which owns the jitter ladder)
and the only code that assembles the noisy training block.  The posteriors
take the ``Conditioned`` value it returns, and each fit objective evaluation
is one ``condition``: its ``log_likelihood`` is the value, its factor and
alpha give the gradient.  The kernel is evaluated on the distinct emission
rows and expanded by index; a fit's evaluations share one ``FitGeometry``
and the first one's jitter rung.  That first evaluation stays in the parent
process; the L-BFGS-B starts then run in up to min(starts, usable CPUs / BLAS
threads) forked processes, which return only evaluation values and optimizer
outcomes, so the result is identical to a serial run.  They run in-process
with one start, BLAS on every CPU (its default) or no ``os.fork``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, lapack, solve_triangular

from . import ebm, kernels
from .ebm import ForcingParams, ImpulseParams
from .errors import DimensionMismatch, GridMismatch, NonFinite, SchemaError, SingularGram
from .kernels import KernelConfig
from .scenario import AgentSpec, Scenario, Standardization, TrainingSet

LOG_2PI = np.log(2.0 * np.pi)

# Relative jitter rungs tried before declaring a Gram singular.
JITTER_LADDER = (1e-6, 1e-5, 1e-4)


@dataclass
class GPPrior:
    """Prior over the stacked multi-scenario grid, scenario by scenario.

    ``mean`` is the box-model temperature path; ``index`` locates each row
    as a (scenario name, year) pair.  The response operator L and the
    variability covariance Gamma (without sigma^2) are block diagonal across
    scenarios: only their blocks are kept, in row order, and only
    ``apply_response`` and ``variability`` read them.  ``forcing_gram`` is
    the kernel matrix K of the forcing path ``forcing_mean`` over the
    (standardized) emission rows; ``physics_gram`` is the temperature
    covariance L K L^T, always propagated from the fields above.
    """

    mean: np.ndarray
    sigma: float
    index: list[tuple[str, int]]
    forcing_mean: np.ndarray
    forcing_gram: np.ndarray
    response_blocks: list[np.ndarray]
    variability_blocks: list[np.ndarray]
    physics_gram: np.ndarray = field(init=False)

    def __post_init__(self):
        physics = self.apply_response(self.apply_response(self.forcing_gram).T).T
        self.physics_gram = 0.5 * (physics + physics.T)

    @property
    def n(self) -> int:
        return self.mean.size

    def rows_for_scenario(self, name: str) -> np.ndarray:
        rows = np.array([i for i, (scen, _) in enumerate(self.index) if scen == name])
        if rows.size == 0:
            raise GridMismatch(f"scenario '{name}' is not part of this prior")
        return rows

    def apply_response(self, x: np.ndarray) -> np.ndarray:
        """L x for an array with one row per prior row, one scenario block at a time."""
        edges = np.cumsum([len(block) for block in self.response_blocks])
        if edges[-1] != len(x):
            raise DimensionMismatch(f"{len(x)} rows for a response operator of {edges[-1]} rows")
        parts = zip(self.response_blocks, np.split(x, edges[:-1]))
        return np.concatenate([block @ part for block, part in parts])

    def variability(self, rows: np.ndarray) -> np.ndarray:
        """Gamma restricted to prior rows ``rows``, in their order: zero
        between rows of different scenarios."""
        rows = np.asarray(rows, dtype=int)
        out = np.zeros((rows.size, rows.size))
        edges = np.cumsum([0] + [len(block) for block in self.variability_blocks])
        for block, start, stop in zip(self.variability_blocks, edges, edges[1:]):
            mine = np.flatnonzero((rows >= start) & (rows < stop))
            out[_square(mine)] = block[_square(rows[mine] - start)]
        return out

    def noisy_block(self, pos: np.ndarray) -> np.ndarray:
        """Covariance of noisy observations at rows ``pos``: the physics
        block plus sigma^2 times the variability block."""
        return self.physics_gram[_square(pos)] + self.sigma**2 * self.variability(pos)


def _square(index: np.ndarray):
    """Index of the square block at rows and columns ``index``: slices, which
    gather nothing, when ``index`` is one ascending run, else ``np.ix_``."""
    if index.size and np.all(np.diff(index) == 1):
        run = slice(index[0], index[-1] + 1)
        return run, run
    return np.ix_(index, index)


@dataclass
class PosteriorDistribution:
    """Multivariate Gaussian over selected rows: mean, covariance and index."""

    mean: np.ndarray
    covariance: np.ndarray
    index: list[tuple[str, int]]

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.covariance.shape != (self.mean.size, self.mean.size):
            raise ValueError("covariance shape does not match mean")

    @property
    def n(self) -> int:
        return self.mean.size

    def std(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


@dataclass
class FitSettings:
    """Which parameters the optimizer may move, and how hard it tries."""

    free: tuple[str, ...] = ("lengthscales", "variance", "sigma")
    restarts: int = 5
    max_iterations: int = 200


@dataclass
class EmulatorModel:
    """Complete model state: agents, response parameters, forcing model,
    kernel configuration and input standardization."""

    agents: list[AgentSpec]
    impulse: ImpulseParams
    forcing: ForcingParams
    kernel: KernelConfig
    standardization: Standardization | None = None
    fit: FitSettings = field(default_factory=FitSettings)

    @property
    def agent_names(self) -> list[str]:
        return [a.name for a in self.agents]


def scenario_forcing(
    scen: Scenario, forcing: ForcingParams, agents: list[AgentSpec]
) -> np.ndarray:
    """Deterministic forcing path for one scenario.

    Uses the scenario's concentration series when present; otherwise falls
    back to the linear accumulation rule for agents that configure one.
    """
    conc: dict[str, np.ndarray] = dict(scen.concentrations or {})
    for spec in agents:
        params = forcing[spec.name]
        active = params.alpha_log != 0 or params.alpha_lin != 0 or params.alpha_sqrt != 0
        if spec.name in conc or not active:
            continue
        if params.concentration_per_emission is None:
            raise SchemaError(
                f"scenario '{scen.name}' has no concentrations for agent "
                f"'{spec.name}' and no accumulation rule is configured"
            )
        conc[spec.name] = ebm.linear_concentrations(
            scen.emissions[spec.name],
            params,
            scen.grid,
            cumulative=spec.input_mode == "cumulative_emission",
        )
    return ebm.forcing_response(conc, forcing, scen.grid)


def _mean_paths(scenarios: list[Scenario], model: EmulatorModel) -> dict:
    """The ``GPPrior`` fields the box model and the forcing coefficients
    move: the stacked box-model temperature mean and the forcing path."""
    forcings = [scenario_forcing(scen, model.forcing, model.agents) for scen in scenarios]
    means = [ebm.thermal_response(f, model.impulse, scen.grid)[1]
             for scen, f in zip(scenarios, forcings)]
    return dict(mean=np.concatenate(means), forcing_mean=np.concatenate(forcings))


def _response_blocks(scenarios: list[Scenario], impulse: ImpulseParams) -> dict:
    """The ``GPPrior`` fields only the box model moves: one block of L and
    one of Gamma per scenario."""
    return dict(
        response_blocks=[ebm.temperature_operator(impulse, scen.grid) for scen in scenarios],
        variability_blocks=[kernels.internal_variability_gram(impulse, scen.grid)
                            for scen in scenarios],
    )


def _prior_fields(
    scenarios: list[Scenario], model: EmulatorModel
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Every ``GPPrior`` field but the kernel matrix, scenario by scenario,
    and the kernel inputs: the distinct rows ``x_u`` of the stacked emission
    rows x, standardized when the kernel asks for it with the model's
    constants, or with constants fitted on x when the model has none, and
    the row map ``inv`` with x = x_u[inv] (futures repeat history rows)."""
    if not scenarios:
        raise GridMismatch("at least one scenario is required")
    steps = {s.grid.step for s in scenarios}
    if len(steps) > 1:
        raise GridMismatch(f"scenarios have inconsistent steps: {sorted(steps)}")
    fields = dict(
        sigma=model.impulse.variability_amplitude,
        index=[(scen.name, int(y)) for scen in scenarios for y in scen.grid.years().astype(int)],
        **_mean_paths(scenarios, model),
        **_response_blocks(scenarios, model.impulse),
    )
    x = np.vstack([scen.emission_matrix(model.agent_names) for scen in scenarios])
    if model.kernel.standardize_inputs:
        st = model.standardization
        x = (st if st is not None else Standardization.from_rows(x)).apply(x)
    x_u, inv = np.unique(x, axis=0, return_inverse=True)
    return fields, x_u, inv.reshape(-1)


def build_prior(scenarios: list[Scenario], model: EmulatorModel) -> GPPrior:
    """Assemble the model's prior over the stacked scenarios.

    Per-scenario means come from the discrete thermal response of that
    scenario's forcing.  Physics blocks between scenarios a and b are
    L_a K_ab L_b^T with K_ab the forcing kernel between their emission rows;
    the variability covariance has one block per scenario because
    internal-variability realizations of distinct runs are independent.
    """
    fields, x_u, inv = _prior_fields(scenarios, model)
    k_u = kernels.forcing_gram(x_u, x_u, model.kernel)
    return GPPrior(**fields, forcing_gram=k_u[inv][:, inv])


def locate_rows(prior: GPPrior, index: Sequence[tuple[str, int]]) -> np.ndarray:
    """Positions of (scenario, year) pairs within the prior index."""
    lookup = {pair: i for i, pair in enumerate(prior.index)}
    try:
        return np.array([lookup[pair] for pair in index], dtype=int)
    except KeyError as missing:
        raise GridMismatch(f"row {missing.args[0]} is not in the prior index") from None


def factorise(
    block: np.ndarray,
    residual: np.ndarray,
    jitter: float | None = None,
    ladder: Sequence[float] = JITTER_LADDER,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Factor, alpha, jitter and log-density of a zero-mean Gaussian with
    covariance ``block`` at ``residual`` (GPML Algorithm 2.1, lines 2-4).

    The only caller of ``cholesky``.  ``jitter`` is a frozen absolute
    diagonal regularizer; when None the ``ladder`` rungs, relative to the
    mean diagonal (1 when that is not positive), are tried in turn and the
    absolute jitter that succeeded returned.  Raises SingularGram when the
    last rung fails.
    """
    n = residual.size
    if n == 0:
        return np.empty((0, 0)), residual.copy(), 0.0, 0.0
    if jitter is None:
        scale = float(np.mean(np.diag(block)))
        rungs = [rel * (scale if scale > 0 else 1.0) for rel in ladder]
    else:
        rungs = [jitter]
    for jitter in rungs:
        try:
            factor = cholesky(block + jitter * np.eye(n), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise SingularGram(f"Cholesky failed at jitter {jitter:g} (n={n})")
    alpha = cho_solve((factor, True), residual)
    logdet = 2.0 * np.sum(np.log(np.diag(factor)))
    return factor, alpha, jitter, -0.5 * (n * LOG_2PI + logdet + float(residual @ alpha))


@dataclass
class Conditioned:
    """A prior conditioned on observed temperatures at rows ``positions``.

    ``factor`` is the lower Cholesky factor of the noisy block at those
    rows, ``alpha`` its solve against the observations minus the prior mean,
    ``jitter`` the absolute diagonal regularizer the factorization needed
    and ``log_likelihood`` the marginal log-density of the observations.
    """

    prior: GPPrior
    positions: np.ndarray
    factor: np.ndarray
    alpha: np.ndarray
    jitter: float
    log_likelihood: float

    def posterior(
        self, rows: np.ndarray, mean: np.ndarray, covariance: np.ndarray, cross: np.ndarray
    ) -> PosteriorDistribution:
        """Gaussian update of a quantity with prior ``mean`` and
        ``covariance`` at prior rows ``rows``, whose covariance with the
        observations is ``cross``."""
        if self.positions.size:
            mean = mean + cross @ self.alpha
            v = solve_triangular(self.factor, cross.T, lower=True)
            covariance = covariance - v.T @ v
            covariance = 0.5 * (covariance + covariance.T)
        return PosteriorDistribution(
            mean=mean, covariance=covariance, index=[self.prior.index[i] for i in rows]
        )


def condition(prior: GPPrior, train: TrainingSet, jitter: float | None = None) -> Conditioned:
    """Condition the prior on the training temperatures: one factorization
    of the noisy training block serves every query.  ``jitter`` is as in
    ``factorise``."""
    pos = locate_rows(prior, train.index)
    residual = train.temperatures - prior.mean[pos]
    return Conditioned(prior, pos, *factorise(prior.noisy_block(pos), residual, jitter))


def posterior_temperature(conditioned: Conditioned, rows: np.ndarray) -> PosteriorDistribution:
    """Exact posterior over the temperature process at prior rows ``rows``.

    The covariance is the posterior of the smooth (epistemic) temperature
    component; the predictive distribution for noisy observations adds
    sigma^2 times ``GPPrior.variability(rows)``.
    """
    rows = np.asarray(rows, dtype=int)
    prior = conditioned.prior
    k = prior.physics_gram
    return conditioned.posterior(
        rows, prior.mean[rows], k[np.ix_(rows, rows)], k[np.ix_(rows, conditioned.positions)]
    )


def posterior_forcing(conditioned: Conditioned, rows: np.ndarray) -> PosteriorDistribution:
    """Exact posterior over the radiative forcing at prior rows ``rows``,
    informed by temperature observations only."""
    rows = np.asarray(rows, dtype=int)
    prior = conditioned.prior
    k_f = prior.forcing_gram
    # Cov(F, T) = K_f L^T at (test, train) rows = (L K_f[:, test])[train]^T
    cross = prior.apply_response(k_f[:, rows])[conditioned.positions].T
    return conditioned.posterior(rows, prior.forcing_mean[rows], k_f[np.ix_(rows, rows)], cross)


def sample_posterior(
    posterior: PosteriorDistribution, count: int, seed: int
) -> np.ndarray:
    """Draw ``count`` joint samples; deterministic for a fixed seed.

    Uses the symmetric eigendecomposition square root so that singular (even
    zero) covariances sample exactly on their support.
    """
    cov = 0.5 * (posterior.covariance + posterior.covariance.T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((count, posterior.n))
    return draws @ root.T + posterior.mean


# ---------------------------------------------------------------------------
# Hyperparameter fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """The fitted model and how the fit went: ``starts`` holds each L-BFGS-B
    start's (converged, iterations, message, rejected evaluations), empty
    when nothing was free."""

    model: EmulatorModel
    trace: list[float]
    evaluations: int
    mll: float
    starts: list[tuple[bool, int, str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class Parameter:
    """One row of the table of fittable parameters.

    ``get`` reads the row's values from a model and ``put`` returns a copy
    of the model holding new values.  ``log`` rows are positive and travel
    in log space; the others (forcing coefficients, which may be negative)
    travel untransformed.  ``mll_and_gradient`` differentiates every row.
    """

    name: str
    get: Callable[[EmulatorModel], np.ndarray]
    put: Callable[[EmulatorModel, np.ndarray], EmulatorModel]
    log: bool


FORCING_COEFFICIENTS = ("alpha_log", "alpha_lin", "alpha_sqrt")


def _with_kernel(model: EmulatorModel, **changes) -> EmulatorModel:
    return dataclasses.replace(model, kernel=dataclasses.replace(model.kernel, **changes))


def _with_impulse(model: EmulatorModel, **changes) -> EmulatorModel:
    return dataclasses.replace(model, impulse=dataclasses.replace(model.impulse, **changes))


def _forcing_coefficients(model: EmulatorModel) -> np.ndarray:
    return np.array(
        [getattr(params, c) for params in model.forcing.values() for c in FORCING_COEFFICIENTS]
    )


def _with_forcing_coefficients(model: EmulatorModel, values: np.ndarray) -> EmulatorModel:
    values = iter(values.tolist())
    forcing = {
        name: dataclasses.replace(params, **{c: next(values) for c in FORCING_COEFFICIENTS})
        for name, params in model.forcing.items()
    }
    return dataclasses.replace(model, forcing=forcing)


# Table order is the order of the optimizer's vector, so it fixes the path
# L-BFGS-B takes.
PARAMETERS = (
    Parameter("lengthscales", lambda m: m.kernel.lengthscales,
              lambda m, v: _with_kernel(m, lengthscales=v), log=True),
    Parameter("variance", lambda m: np.array([m.kernel.variance]),
              lambda m, v: _with_kernel(m, variance=float(v[0])), log=True),
    Parameter("sigma", lambda m: np.array([m.impulse.variability_amplitude]),
              lambda m, v: _with_impulse(m, variability_amplitude=float(v[0])), log=True),
    Parameter("timescales", lambda m: m.impulse.timescales,
              lambda m, v: _with_impulse(m, timescales=v), log=True),
    Parameter("equilibrium_responses", lambda m: m.impulse.equilibrium_responses,
              lambda m, v: _with_impulse(m, equilibrium_responses=v), log=True),
    Parameter("forcing", _forcing_coefficients, _with_forcing_coefficients, log=False),
)
PARAMETER_NAMES = tuple(p.name for p in PARAMETERS)


class FreeParameters:
    """The rows of ``PARAMETERS`` named in ``free``, flattened in table
    order into the unconstrained vector ``theta0`` the optimizer moves."""

    def __init__(self, model: EmulatorModel, free: Sequence[str]):
        for name in free:
            if name not in PARAMETER_NAMES:
                raise ValueError(f"unknown fittable parameter '{name}'")
        self.model = model
        self.rows = [row for row in PARAMETERS if row.name in free]
        values = [row.get(model) for row in self.rows]
        for row, v in zip(self.rows, values):
            if row.log and np.any(v <= 0):
                raise ValueError(f"{row.name} must be positive to be fit on the log scale")
        self.splits = np.cumsum([v.size for v in values], dtype=int)[:-1]
        pieces = [np.log(v) if row.log else v for row, v in zip(self.rows, values)]
        self.theta0 = np.concatenate(pieces) if pieces else np.empty(0)

    def apply(self, theta: np.ndarray) -> EmulatorModel:
        """The model with the free parameters set from ``theta``."""
        model = self.model
        for row, chunk in zip(self.rows, np.split(theta, self.splits)):
            model = row.put(model, np.exp(chunk) if row.log else chunk)
        return model


BOX_MODEL = frozenset({"timescales", "equilibrium_responses"})


class FitGeometry:
    """What one fit's objective evaluations share, built once: the
    ``_prior_fields`` at the start model and its distinct kernel inputs, with
    a free forcing row the forcing paths dF at unit coefficients, and from
    the first ``prior`` M = (L S) at the training rows, where the N x m
    selection S picks each row's distinct input.  ``prior`` rebuilds L, Gamma
    and M only with a free box-model row, and the mean and forcing paths only
    with a free box-model or forcing row.  ``jitter`` is the rung the first
    factorisation through it found; only ``condition`` reads the training block."""

    def __init__(self, scenarios: list[Scenario], train: TrainingSet, model: EmulatorModel,
                 free: Sequence[str] = PARAMETER_NAMES):
        self.scenarios, self.train, self.free = scenarios, train, frozenset(free)
        self.fields, self.x_u, self.inv = _prior_fields(scenarios, model)
        self.jitter = self.operator = None
        if "forcing" in self.free:
            # F is linear in the coefficients: dF along one is F at that unit vector
            units = (_with_forcing_coefficients(model, u).forcing
                     for u in np.eye(_forcing_coefficients(model).size))
            self.forcing_units = np.column_stack([np.concatenate(
                [scenario_forcing(scen, unit, model.agents) for scen in scenarios]
            ) for unit in units])

    def prior(self, model: EmulatorModel, k_u: np.ndarray) -> GPPrior:
        """The prior at ``model`` whose kernel matrix on ``x_u`` is ``k_u``."""
        fields = dict(self.fields, sigma=model.impulse.variability_amplitude)
        if self.free & (BOX_MODEL | {"forcing"}):
            fields.update(_mean_paths(self.scenarios, model))
        if self.free & BOX_MODEL:
            fields.update(_response_blocks(self.scenarios, model.impulse))
        prior = GPPrior(**fields, forcing_gram=k_u[self.inv][:, self.inv])
        if self.operator is None or self.free & BOX_MODEL:
            selection = np.eye(len(self.x_u))[self.inv]
            self.operator = prior.apply_response(selection)[locate_rows(prior, self.train.index)]
        return prior


def mll_and_gradient(geometry: FitGeometry, model: EmulatorModel) -> tuple[float, np.ndarray]:
    """Marginal log-likelihood of the geometry's training temperatures under
    ``model``'s prior, and its gradient over the geometry's free rows of
    ``PARAMETERS``, in table order and the optimizer's coordinates.

    Both come from one ``condition`` at the geometry's jitter j: the value is
    its ``log_likelihood``, and the gradient takes its factor L_A of the noisy
    block A = M K_u M^T + sigma^2 Gamma + j I, alpha = A^{-1} r, through GPML
    section 5.4.1 with W = alpha alpha^T - A^{-1}: the kernel rows <B_u,
    dK_u> / 2 with the m x m B_u = M^T W M = (M^T alpha) (M^T alpha)^T - V^T V,
    V = L_A^{-1} M; sigma^2 tr(W Gamma) = alpha^T r - n - <B_u, K_u> - j
    (alpha^T alpha - tr A^{-1}) for sigma; with W scattered to the prior's
    rows, the sum over scenarios s of <(W L K)_ss + alpha_s F_s^T, dL_s> +
    sigma^2 <W_ss, dGamma_s> / 2 for the box model; (L dF)^T alpha for ``forcing``.
    """
    impulse, sigma = model.impulse, model.impulse.variability_amplitude
    k_u, dk_u = kernels.forcing_gram_gradients(geometry.x_u, model.kernel)
    conditioned = condition(geometry.prior(model, k_u), geometry.train, geometry.jitter)
    geometry.jitter = conditioned.jitter
    prior, factor, alpha_t = conditioned.prior, conditioned.factor, conditioned.alpha
    pos, operator = conditioned.positions, geometry.operator

    beta = operator.T @ alpha_t
    v = solve_triangular(factor, operator, lower=True, check_finite=False)
    b = np.outer(beta, beta) - v.T @ v
    # dpotri fills the lower triangle of A^{-1} and keeps the factor's zero upper one
    inv = lapack.dpotri(factor, lower=True)[0]
    variance = 0.5 * np.sum(b * k_u)
    grad = {"lengthscales": [0.5 * np.sum(b * g) for g in dk_u],
            "variance": [variance],
            "sigma": [alpha_t @ (geometry.train.temperatures - prior.mean[pos]) - pos.size
                      - 2.0 * variance - conditioned.jitter * (alpha_t @ alpha_t - np.trace(inv))]}
    if geometry.free & BOX_MODEL:
        alpha = np.zeros(prior.n)
        alpha[pos] = alpha_t
        scattered = np.zeros((prior.n, prior.n))
        scattered[np.ix_(pos, pos)] = np.outer(alpha_t, alpha_t) - (inv + np.tril(inv, -1).T)
        lk = prior.apply_response(prior.forcing_gram)
        box = 0.0
        edges = np.cumsum([0] + [scen.grid.n_steps for scen in geometry.scenarios])
        for scen, rows in zip(geometry.scenarios, map(slice, edges, edges[1:])):
            # mode i's operator is linear in q_i, so mode_series holds both derivatives
            series = np.array(ebm.mode_series(impulse, scen.grid))
            response = scattered[rows] @ lk[:, rows] + np.outer(alpha[rows], prior.forcing_mean[rows])
            noise = kernels.variability_gradient(impulse, scen.grid, scattered[rows, rows])
            box = box + series @ ebm.lag_sums(response) + 0.5 * sigma**2 * noise
        grad["equilibrium_responses"], grad["timescales"] = box
    if "forcing" in geometry.free:
        grad["forcing"] = prior.apply_response(geometry.forcing_units)[pos].T @ alpha_t
    return conditioned.log_likelihood, np.array(
        [g for row in PARAMETERS if row.name in geometry.free for g in grad[row.name]])


def _workers(starts: int) -> int:
    """Processes for a fit's ``starts`` L-BFGS-B starts: one per start, up to
    the usable CPUs over each process's BLAS threads (the first positive
    OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or OMP_NUM_THREADS, else BLAS's
    default of one per CPU); 1 (in-process) where ``os`` has no ``fork`` or
    ``sched_getaffinity``."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    pins = [os.environ.get(name, "")
            for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")]
    blas = next((int(v) for v in pins if v.isdigit() and int(v) > 0), cpus)
    return max(1, min(starts, cpus // blas))


_START: Callable | None = None  # the running fit's start runner, which forked workers inherit


def _forked_start(i: int):
    return _START(i)


def fit_hyperparameters(
    scenarios: list[Scenario],
    train: TrainingSet,
    model: EmulatorModel,
    seed: int = 0,
) -> FitResult:
    """Maximise the marginal log-likelihood over the parameters ``model.fit`` frees.

    The prior covers ``scenarios``, which hold (at least) the training rows.
    Runs L-BFGS-B on log-transformed positive parameters, once from the
    supplied model and ``model.fit.restarts`` more times from perturbed
    starts, all through one ``FitGeometry``.  The first evaluation, start 0's
    first point, is made here before any start runs (in ``_workers``
    processes), and later evaluations reuse the jitter rung it found; without
    a rung yet, the starts run in this process.  An evaluation that raises
    ``SingularGram``, ``ValueError`` or ``FloatingPointError``, or is not
    finite, is rejected and counted against its start.  The trace records
    the best marginal log-likelihood seen after each evaluation, in start
    order, so it never decreases.  With nothing free, the objective runs
    once, at the model, and a rejected evaluation there raises ``NonFinite``.
    """
    # Imported here: of all the commands only ``fit`` needs the optimizer.
    from scipy.optimize import minimize

    global _START
    free = model.fit.free
    params = FreeParameters(model, free)
    geometry = FitGeometry(scenarios, train, model, free)

    def evaluate(theta: np.ndarray) -> tuple[float, np.ndarray | None]:
        """The objective at ``theta``, or -inf and no gradient when rejected."""
        try:
            with np.errstate(over="raise", invalid="raise"):
                mll, grad = mll_and_gradient(geometry, params.apply(theta))
        except SingularGram:
            if geometry.jitter is None:
                raise  # the start block is singular on every rung
            return -np.inf, None
        except (ValueError, FloatingPointError):
            return -np.inf, None
        return (mll, grad) if np.isfinite(mll) else (-np.inf, None)

    first = evaluate(params.theta0)
    if not free:
        if not np.isfinite(first[0]):
            raise NonFinite("marginal log-likelihood is not finite at the fixed parameters")
        return FitResult(model=model, trace=[first[0]], evaluations=0, mll=first[0])

    rng = np.random.default_rng(seed)
    theta0 = params.theta0
    starts = [theta0]
    starts.extend(
        theta0 + rng.normal(scale=0.5, size=theta0.size) for _ in range(model.fit.restarts)
    )

    def run(i: int) -> tuple[list[float], tuple[bool, int, str, int], float, np.ndarray]:
        """Start ``i``: each evaluation's value (-inf when rejected), the
        start's outcome as ``FitResult.starts`` holds it, and its final
        value (-inf when not finite) and point."""
        values: list[float] = []

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            # L-BFGS-B's first call is at its start, so start 0's is ``first``
            mll, grad = first if i == 0 and not values else evaluate(theta)
            values.append(mll)
            if not np.isfinite(mll):
                return np.inf, np.zeros_like(theta)
            return -mll, -grad

        result = minimize(objective, starts[i], jac=True, method="L-BFGS-B",
                          options={"maxiter": model.fit.max_iterations})
        final = -result.fun if np.isfinite(result.fun) else -np.inf
        return values, (bool(result.success), int(result.nit), str(result.message),
                        values.count(-np.inf)), final, result.x

    workers = _workers(len(starts)) if geometry.jitter is not None else 1
    if workers > 1:
        import multiprocessing  # only a pooled fit loads it

        _START = run
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                runs = pool.map(_forked_start, range(len(starts)), chunksize=1)
        finally:
            _START = None
    else:
        runs = [run(i) for i in range(len(starts))]

    values = [v for run_values, *_ in runs for v in run_values]
    _, _, best_value, best_theta = runs[int(np.argmax([final for _, _, final, _ in runs]))]
    if not np.isfinite(best_value):
        raise NonFinite("marginal log-likelihood is not finite anywhere the optimizer looked")
    return FitResult(params.apply(best_theta), np.maximum.accumulate(values).tolist(),
                     len(values), best_value, [outcome for _, outcome, *_ in runs])
