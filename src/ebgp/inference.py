"""Gaussian-process prior assembly and exact posterior inference.

Builds the stacked multi-scenario prior (mean path from the box model,
physics-propagated covariance, per-scenario internal variability),
computes exact posteriors over temperature and radiative forcing, the
marginal log-likelihood and its gradients, and fits hyperparameters by
quasi-Newton ascent on log-parameters.

Inference is one exact Gaussian conditioning on the noisy training block
(Rasmussen & Williams, GPML, Algorithm 2.1): ``condition`` factorises the
block once, the temperature and forcing posteriors take the resulting
``Conditioned`` value, and the likelihood is its ``log_likelihood``.
``factorise`` is the one Cholesky routine and owns the jitter ladder;
explicit matrix inverses never appear on the solve path.
"""

from __future__ import annotations

import dataclasses
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
    covariance L K L^T, propagated from K when not given.
    """

    mean: np.ndarray
    sigma: float
    index: list[tuple[str, int]]
    forcing_mean: np.ndarray
    forcing_gram: np.ndarray
    response_blocks: list[np.ndarray]
    variability_blocks: list[np.ndarray]
    physics_gram: np.ndarray | None = None

    def __post_init__(self):
        if self.physics_gram is None:
            physics = self.propagate(self.forcing_gram)
            self.physics_gram = 0.5 * (physics + physics.T)

    @property
    def n(self) -> int:
        return self.mean.size

    def rows_for_scenario(self, name: str) -> np.ndarray:
        rows = np.array([i for i, (scen, _) in enumerate(self.index) if scen == name])
        if rows.size == 0:
            raise GridMismatch(f"scenario '{name}' is not part of this prior")
        return rows

    def apply_response(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """L x (L^T x with ``transpose``) for an array with one row per
        prior row, one scenario block at a time."""
        edges = np.cumsum([len(block) for block in self.response_blocks])
        if edges[-1] != len(x):
            raise DimensionMismatch(f"{len(x)} rows for a response operator of {edges[-1]} rows")
        parts = zip(self.response_blocks, np.split(x, edges[:-1]))
        return np.concatenate([(block.T if transpose else block) @ part for block, part in parts])

    def propagate(self, k: np.ndarray, transpose: bool = False) -> np.ndarray:
        """L k L^T (L^T k L with ``transpose``) for an array with one row
        and one column per prior row."""
        left = self.apply_response(k, transpose)
        return self.apply_response(left.T, transpose).T

    def variability(self, rows: np.ndarray) -> np.ndarray:
        """Gamma restricted to prior rows ``rows``, in their order: zero
        between rows of different scenarios."""
        rows = np.asarray(rows, dtype=int)
        out = np.zeros((rows.size, rows.size))
        edges = np.cumsum([0] + [len(block) for block in self.variability_blocks])
        for block, start, stop in zip(self.variability_blocks, edges, edges[1:]):
            mine = np.flatnonzero((rows >= start) & (rows < stop))
            local = rows[mine] - start
            out[np.ix_(mine, mine)] = block[np.ix_(local, local)]
        return out

    def noisy_block(self, pos: np.ndarray) -> np.ndarray:
        """Covariance of noisy observations at rows ``pos``: the physics
        block plus sigma^2 times the variability block."""
        return self.physics_gram[np.ix_(pos, pos)] + self.sigma**2 * self.variability(pos)


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


def _prior_fields(scenarios: list[Scenario], model: EmulatorModel) -> tuple[dict, np.ndarray]:
    """Every ``GPPrior`` field but the kernel matrix, scenario by scenario,
    and the kernel inputs: the stacked emission rows, standardized when the
    kernel asks for it with the model's constants, or with constants fitted
    on these rows when the model has none."""
    if not scenarios:
        raise GridMismatch("at least one scenario is required")
    steps = {s.grid.step for s in scenarios}
    if len(steps) > 1:
        raise GridMismatch(f"scenarios have inconsistent steps: {sorted(steps)}")
    impulse = model.impulse

    means = []
    forcings = []
    operators = []
    var_blocks = []
    raw_inputs = []
    index: list[tuple[str, int]] = []
    for scen in scenarios:
        f = scenario_forcing(scen, model.forcing, model.agents)
        _, temp = ebm.thermal_response(f, impulse, scen.grid)
        means.append(temp)
        forcings.append(f)
        operators.append(ebm.temperature_operator(impulse, scen.grid))
        var_blocks.append(kernels.internal_variability_gram(impulse, scen.grid))
        raw_inputs.append(scen.emission_matrix(model.agent_names))
        index.extend((scen.name, int(y)) for y in scen.grid.years().astype(int))

    x = np.vstack(raw_inputs)
    if model.kernel.standardize_inputs:
        st = model.standardization
        x = (st if st is not None else Standardization.from_rows(x)).apply(x)
    fields = dict(
        mean=np.concatenate(means),
        sigma=impulse.variability_amplitude,
        index=index,
        forcing_mean=np.concatenate(forcings),
        response_blocks=operators,
        variability_blocks=var_blocks,
    )
    return fields, x


def build_prior(scenarios: list[Scenario], model: EmulatorModel) -> GPPrior:
    """Assemble the model's prior over the stacked scenarios.

    Per-scenario means come from the discrete thermal response of that
    scenario's forcing.  Physics blocks between scenarios a and b are
    L_a K_ab L_b^T with K_ab the forcing kernel between their emission rows;
    the variability covariance has one block per scenario because
    internal-variability realizations of distinct runs are independent.
    """
    fields, x = _prior_fields(scenarios, model)
    return GPPrior(**fields, forcing_gram=kernels.forcing_gram(x, x, model.kernel))


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
    rows, ``residual`` the observations minus the prior mean, ``alpha`` the
    block's solve against the residual, ``jitter`` the absolute diagonal
    regularizer the factorization needed and ``log_likelihood`` the
    marginal log-density of the observations.
    """

    prior: GPPrior
    positions: np.ndarray
    residual: np.ndarray
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
    return Conditioned(prior, pos, residual, *factorise(prior.noisy_block(pos), residual, jitter))


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
    start's (converged, iterations, message), empty when nothing was free."""

    model: EmulatorModel
    trace: list[float]
    evaluations: int
    mll: float
    starts: list[tuple[bool, int, str]] = field(default_factory=list)


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


def mll_and_gradient(
    scenarios: list[Scenario],
    train: TrainingSet,
    model: EmulatorModel,
    free: Sequence[str] = PARAMETER_NAMES,
    jitter: float | None = None,
) -> tuple[float, np.ndarray]:
    """Marginal log-likelihood of the training temperatures under the
    model's prior over ``scenarios`` and its gradient over the ``free`` rows
    of ``PARAMETERS``, in table order and the optimizer's coordinates.

    Gradients use the trace identities of GPML section 5.4.1, with
    W = alpha alpha^T - A^{-1} scattered to the prior's rows: tr(L^T W L dK) / 2
    for the kernel, sigma^2 tr(W Gamma) for sigma, the sum over scenarios s
    of <(W L K)_ss + alpha_s F_s^T, dL_s> + sigma^2 <W_ss, dGamma_s> / 2 for
    the box model, and alpha^T L dF for the forcing coefficients.  ``jitter``
    is as in ``factorise``; the optimizer freezes it at its start point.
    """
    impulse, sigma = model.impulse, model.impulse.variability_amplitude
    fields, x = _prior_fields(scenarios, model)
    k_f, dk_dl = kernels.forcing_gram_gradients(x, model.kernel)
    prior = GPPrior(**fields, forcing_gram=k_f)
    conditioned = condition(prior, train, jitter)

    pos = conditioned.positions
    inv = lapack.dpotri(conditioned.factor, lower=True)[0]
    w = np.outer(conditioned.alpha, conditioned.alpha) - (np.tril(inv) + np.tril(inv, -1).T)
    scattered = np.zeros((prior.n, prior.n))
    scattered[np.ix_(pos, pos)] = w
    alpha = np.zeros(prior.n)
    alpha[pos] = conditioned.alpha
    b = prior.propagate(scattered, transpose=True)
    grad = {"lengthscales": [0.5 * np.sum(b * g) for g in dk_dl],
            "variance": [0.5 * np.sum(b * k_f)],
            "sigma": [sigma**2 * np.sum(w * prior.variability(pos))]}
    if {"timescales", "equilibrium_responses"} & set(free):
        lk = prior.apply_response(k_f)
        box = 0.0
        edges = np.cumsum([0] + [scen.grid.n_steps for scen in scenarios])
        for scen, rows in zip(scenarios, map(slice, edges, edges[1:])):
            # mode i's operator is linear in q_i, so mode_series holds both derivatives
            series = np.array(ebm.mode_series(impulse, scen.grid))
            response = scattered[rows] @ lk[:, rows] + np.outer(alpha[rows], prior.forcing_mean[rows])
            noise = kernels.variability_gradient(impulse, scen.grid, scattered[rows, rows])
            box = box + series @ ebm.lag_sums(response) + 0.5 * sigma**2 * noise
        grad["equilibrium_responses"], grad["timescales"] = box
    if "forcing" in free:
        # F is linear in the coefficients: dF along one is F at that unit vector
        units = (_with_forcing_coefficients(model, u).forcing
                 for u in np.eye(_forcing_coefficients(model).size))
        grad["forcing"] = np.array([np.concatenate(
            [scenario_forcing(scen, unit, model.agents) for scen in scenarios]
        ) for unit in units]) @ prior.apply_response(alpha, transpose=True)
    return conditioned.log_likelihood, np.concatenate(
        [np.asarray(grad[row.name], dtype=float) for row in PARAMETERS if row.name in free]
    )


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
    starts.  The trace records the best marginal log-likelihood seen after
    each objective evaluation (failed or overflowing ones rejected) and never
    decreases.
    """
    # Imported here: of all the commands only ``fit`` needs the optimizer.
    from scipy.optimize import minimize

    free = model.fit.free
    prior = build_prior(scenarios, model)
    if not free:
        try:
            with np.errstate(over="raise", invalid="raise"):
                mll = condition(prior, train).log_likelihood
        except FloatingPointError:
            mll = np.nan
        if not np.isfinite(mll):
            raise NonFinite("marginal log-likelihood is not finite at the fixed parameters")
        return FitResult(model=model, trace=[mll], evaluations=0, mll=mll)

    params = FreeParameters(model, free)
    # The jitter rung the start point's own factorization needs, frozen.
    pos = locate_rows(prior, train.index)
    jitter = factorise(prior.noisy_block(pos), np.zeros(pos.size))[2]

    trace: list[float] = []
    best = -np.inf
    evaluations = 0

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best, evaluations
        evaluations += 1
        try:
            with np.errstate(over="raise", invalid="raise"):
                mll, grad = mll_and_gradient(scenarios, train, params.apply(theta), free, jitter)
        except (ValueError, SingularGram, FloatingPointError):
            mll = -np.inf
        if not np.isfinite(mll):
            trace.append(best)
            return np.inf, np.zeros_like(theta)
        best = max(best, mll)
        trace.append(best)
        return -mll, -grad

    rng = np.random.default_rng(seed)
    theta0 = params.theta0
    starts = [theta0]
    starts.extend(
        theta0 + rng.normal(scale=0.5, size=theta0.size) for _ in range(model.fit.restarts)
    )

    best_theta = theta0
    best_value = -np.inf
    outcomes = []
    for start in starts:
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": model.fit.max_iterations},
        )
        outcomes.append((bool(result.success), int(result.nit), str(result.message)))
        value = -result.fun if np.isfinite(result.fun) else -np.inf
        if value > best_value:
            best_value = value
            best_theta = result.x
    if not np.isfinite(best_value):
        raise NonFinite("marginal log-likelihood is not finite anywhere the optimizer looked")

    fitted = params.apply(best_theta)
    return FitResult(fitted, trace, evaluations, best_value, outcomes)
