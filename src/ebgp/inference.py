"""Gaussian-process prior assembly and exact posterior inference.

Builds the stacked multi-scenario prior (mean path from the box model,
physics-propagated covariance, per-scenario internal variability),
computes exact posteriors over temperature and radiative forcing, the
marginal log-likelihood and its gradients, and fits hyperparameters by
quasi-Newton ascent on log-parameters.

Inference is one exact Gaussian conditioning on the noisy training block
(Rasmussen & Williams, GPML, Algorithm 2.1): ``condition`` is the only code
that assembles that block, and factors it in place (``factorise`` factors a
copy) through ``cholesky``, the one call of LAPACK's dpotrf, a new block for
each rung it tries of the jitter ladder ``jitter_rungs`` sets for it and for
``spatial``.  The posteriors take the ``Conditioned`` value it returns, with
one update for every training set, the empty one included; each fit objective
evaluation is one ``condition``: its ``log_likelihood`` is the value, its
factor and alpha give the gradient.  The kernel is kept on the distinct
emission rows, with a map from each row to them; a fit's evaluations share one
``FitGeometry`` and the first one's jitter rung.  That first evaluation stays
in the parent process; the L-BFGS-B starts then run in up to min(starts, usable
CPUs / BLAS threads) forked processes, which return only evaluation values and
optimizer outcomes, so the result is identical to a serial run.  They run
in-process with one start, BLAS on every CPU (its default) or no ``os.fork``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import blas, block_diag, cho_solve, lapack, solve_triangular

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
    as a (scenario name, year) pair, and a training set is always the first
    ``train.n`` rows, in order.  The response operator L and the variability
    covariance Gamma (without sigma^2) are block diagonal across scenarios:
    only their blocks are kept, in row order; each L_s is a causal
    convolution, so lower triangular.  The kernel matrix K of the forcing path
    ``forcing_mean`` over the (standardized) emission rows is kept once, as
    ``kernel_gram`` over their distinct rows, and ``kernel_rows`` maps each
    prior row to its row there (``forcing_gram`` expands it).  No field is
    N x N: the temperature covariance L K L^T is formed from the fields above
    only at the scenarios a caller asks for (``physics_gram``).
    """

    mean: np.ndarray
    sigma: float
    index: list[tuple[str, int]]
    forcing_mean: np.ndarray
    kernel_gram: np.ndarray
    kernel_rows: np.ndarray
    response_blocks: list[np.ndarray]
    variability_blocks: list[np.ndarray]

    @property
    def n(self) -> int:
        return self.mean.size

    def forcing_gram(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """K at the prior rows ``rows`` and columns ``cols``, a new array,
        gathered along the shorter index first."""
        r, c, k = self.kernel_rows[rows], self.kernel_rows[cols], self.kernel_gram
        return k.take(c, 1).take(r, 0) if r.size > c.size else k.take(r, 0).take(c, 1)

    @property
    def edges(self) -> list[int]:
        """First prior row of each scenario, then ``n``."""
        return np.cumsum([0] + [len(block) for block in self.response_blocks]).tolist()

    def scenarios(self, rows: slice) -> range:
        """The scenarios that hold the prior rows ``rows``.  Raises GridMismatch
        on a step other than 1 or a slice that cuts one."""
        edges, (start, stop, step) = self.edges, rows.indices(self.n)
        first, last = np.searchsorted(edges, start, "right") - 1, np.searchsorted(edges, stop)
        if step != 1 or edges[first] != start or edges[last] != max(start, stop):
            raise GridMismatch(f"prior rows {start}:{stop}:{step} cut a scenario")
        return range(first, max(first, last))

    def apply_response(self, x: np.ndarray) -> np.ndarray:
        """L x for an array with one row per prior row of the whole leading
        scenarios it covers (else GridMismatch), one scenario block at a time."""
        edges = self.edges
        if edges[-1] < len(x):
            raise DimensionMismatch(f"{len(x)} rows for a response operator of {edges[-1]} rows")
        return np.concatenate([_lower_product(self.response_blocks[s], x[edges[s]:edges[s + 1]])
                               for s in self.scenarios(slice(0, len(x)))] or [x])

    def variability(self, rows: slice) -> np.ndarray:
        """Gamma at the prior rows ``rows``, a slice of whole scenarios: the
        block diagonal of their blocks.  Raises GridMismatch on a slice that
        cuts a scenario."""
        blocks = [self.variability_blocks[s] for s in self.scenarios(rows)]
        return block_diag(*blocks) if blocks else np.empty((0, 0))

    def physics_gram(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """L K L^T at the prior rows ``rows`` and columns ``cols``, slices of
        whole scenarios (else GridMismatch), a new C-ordered array.  Block
        (a, b), b <= a, is L_b from the right on the strip L_a K[a, :end_a],
        symmetrised when b = a and transposed into (b, a), so the square matrix
        is exactly symmetric and each block is the same bits at every slice."""
        edges, blocks = self.edges, self.response_blocks
        r, c = self.scenarios(rows), self.scenarios(cols)
        at_r, at_c = (np.subtract(edges, edges[span.start]) for span in (r, c))
        out = np.empty((at_r[r.stop], at_c[c.stop]))
        for a, (i, j) in enumerate(zip(edges, edges[1:])):
            lower = [b for b in range(a + 1) if a in r and b in c or b in r and a in c]
            if lower:  # L_a K[a, :end_a]
                strip = _lower_product(blocks[a], self.forcing_gram(slice(i, j), slice(j)))
            for b in lower:
                block = _lower_product(blocks[b], strip[:, edges[b]:edges[b + 1]], right=True)
                if b == a:
                    block = 0.5 * (block + block.T)
                for x, y, part in ((a, b, block), (b, a, block.T)):
                    if x in r and y in c:
                        out[at_r[x]:at_r[x + 1], at_c[y]:at_c[y + 1]] = part
        return out

    def noisy_block(self, train: TrainingSet) -> np.ndarray:
        """Covariance of the noisy observations ``train``, a new Fortran-ordered
        array ``condition`` factors in place: the exactly symmetric physics block,
        transposed (the same bits), plus sigma^2 Gamma at the prior's first
        ``train.n`` rows.  GridMismatch unless those rows are ``train.index``, in order."""
        if self.index[:train.n] != train.index:
            raise GridMismatch("the training rows are not the prior's leading rows, in order")
        rows, edges = slice(0, train.n), self.edges
        block = self.physics_gram(rows, rows).T
        for s in self.scenarios(rows):
            i, j = edges[s:s + 2]
            block[i:j, i:j] += self.sigma**2 * self.variability_blocks[s]
        return block


def _lower_product(lower: np.ndarray, x: np.ndarray, right: bool = False) -> np.ndarray:
    """``lower @ x``, or ``x @ lower.T`` when ``right``, for a lower-triangular
    ``lower`` and a 1-D or 2-D ``x``: one BLAS triangular product (trmm)."""
    return blas.dtrmm(1.0, lower, x[:, None] if x.ndim == 1 else x, side=int(right),
                      lower=1, trans_a=int(right)).reshape(x.shape)


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
    """Deterministic forcing path for one scenario, as every mean path and a
    fit's unit forcing paths form it: without floating-point warnings, and
    NonFinite when not finite (a coefficient or ``c0`` overflowed it).

    Uses the scenario's concentration series when present; otherwise falls
    back to the linear accumulation rule for agents that configure one.
    """
    conc: dict[str, np.ndarray] = dict(scen.concentrations or {})
    with np.errstate(all="ignore"):
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
                scen.emissions[spec.name], params, scen.grid,
                cumulative=spec.input_mode == "cumulative_emission")
        path = ebm.forcing_response(conc, forcing, scen.grid)
    if not np.isfinite(path).all():
        raise NonFinite(f"the forcing path of scenario '{scen.name}' is not finite")
    return path


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


def _prior_fields(scenarios: list[Scenario], model: EmulatorModel) -> tuple[dict, np.ndarray]:
    """Every ``GPPrior`` field but ``kernel_gram``, scenario by scenario,
    and the kernel inputs: the distinct rows ``x_u`` of the stacked emission
    rows x, standardized when the kernel asks for it with the model's
    constants, or with constants fitted on x when the model has none.  The
    row map ``kernel_rows`` has x = x_u[kernel_rows] (futures repeat history
    rows)."""
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
    x_u, kernel_rows = np.unique(x, axis=0, return_inverse=True)
    return dict(fields, kernel_rows=kernel_rows.reshape(-1)), x_u


def build_prior(scenarios: list[Scenario], model: EmulatorModel) -> GPPrior:
    """Assemble the model's prior over the stacked scenarios.

    Per-scenario means come from the discrete thermal response of that
    scenario's forcing.  Physics blocks between scenarios a and b are
    L_a K_ab L_b^T with K_ab the forcing kernel between their emission rows;
    the variability covariance has one block per scenario because
    internal-variability realizations of distinct runs are independent.
    """
    fields, x_u = _prior_fields(scenarios, model)
    return GPPrior(**fields, kernel_gram=kernels.forcing_gram(x_u, x_u, model.kernel))


def jitter_rungs(block: np.ndarray, scale=1.0, noise=0.0,
                 ladder: Sequence[float] = JITTER_LADDER) -> np.ndarray:
    """The absolute jitter of each ``ladder`` rung, one row per rung: the rung
    times m = ``scale`` * (the training ``block``'s mean diagonal) + ``noise``
    (arrays: one column per cell), or times 1 where m is not positive.  A
    block or m that is not finite (it overflowed) is NonFinite."""
    with np.errstate(over="ignore"):
        mean_diagonal = scale * np.mean(np.diag(block)) + noise
    if not (np.all(np.isfinite(mean_diagonal)) and np.isfinite(block).all()):
        raise NonFinite(f"the training block (n={len(block)}) or its jitter is not finite")
    return np.multiply.outer(ladder, np.where(mean_diagonal > 0, mean_diagonal, 1.0))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower LAPACK ``dpotrf`` of ``a``, unchecked, in place if ``a`` is Fortran-ordered
    float; its strict upper triangle is untouched.  LinAlgError unless positive definite."""
    factor, info = lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return factor


def factorise(
    block: np.ndarray,
    residual: np.ndarray,
    jitter: float | None = None,
    ladder: Sequence[float] = JITTER_LADDER,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Factor, alpha, jitter and log-density of a zero-mean Gaussian with
    the exactly symmetric covariance ``block`` at ``residual`` (GPML
    Algorithm 2.1, lines 2-4); the factor's strict upper triangle is 0.

    Each rung tried, ``cholesky`` factors the lower triangle of a new copy
    of ``block``, which is left unchanged, so every rung factors the same
    matrix.  ``jitter`` is a frozen absolute diagonal regularizer, else the
    ``ladder``'s ``jitter_rungs`` are tried in turn and the one that
    succeeded returned.  NonFinite on a block that is not finite;
    SingularGram when the last rung fails."""
    return _factorise_each(lambda: np.array(block, float, order="F"), residual, jitter, ladder)


def _factorise_each(build, residual, jitter=None, ladder=JITTER_LADDER):
    """``factorise`` over a new F-ordered float block from ``build()`` for each rung it tries."""
    n = residual.size
    if n == 0:
        return np.empty((0, 0)), residual.copy(), 0.0, 0.0
    rungs = jitter_rungs(block := build(), ladder=ladder)  # checks finite
    for jitter in rungs if jitter is None else [jitter]:
        block = build() if block is None else block
        np.fill_diagonal(block, np.diag(block) + jitter)
        try:
            factor = cholesky(block)
            break
        except np.linalg.LinAlgError:
            block = None  # dropped before the next rung builds its own, so one is held
    else:
        raise SingularGram(f"Cholesky failed at jitter {jitter:g} (n={n})")
    for i in range(1, n):
        factor.T[i, :i] = 0.0
    alpha = cho_solve((factor, True), residual, check_finite=False)
    logdet = 2.0 * np.sum(np.log(np.diag(factor)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by the fit
        return factor, alpha, jitter, -0.5 * (n * LOG_2PI + logdet + float(residual @ alpha))


@dataclass
class Conditioned:
    """A prior conditioned on observed temperatures at its first
    ``alpha.size`` rows.

    ``factor`` is the lower Cholesky factor of the noisy block at those
    rows, ``alpha`` its solve against the observations minus the prior mean,
    ``jitter`` the absolute diagonal regularizer the factorization needed
    and ``log_likelihood`` the marginal log-density of the observations.
    """

    prior: GPPrior
    factor: np.ndarray
    alpha: np.ndarray
    jitter: float
    log_likelihood: float

    def posterior(
        self, rows: slice, mean: np.ndarray, covariance: np.ndarray, cross: np.ndarray
    ) -> PosteriorDistribution:
        """Gaussian update of a quantity with prior ``mean`` and
        ``covariance`` at prior rows ``rows``, whose covariance with the
        observations is ``cross``.  The result shares no memory with the
        prior, so callers may update it in place.  A mean or covariance
        that is not finite is NonFinite."""
        v = solve_triangular(self.factor, cross.T, lower=True, check_finite=False)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            covariance, mean = covariance - v.T @ v, mean + cross @ self.alpha
        if not (np.isfinite(mean).all() and np.isfinite(covariance).all()):
            raise NonFinite("the posterior at prior rows {}:{} is not finite".format(
                *rows.indices(self.prior.n)))
        return PosteriorDistribution(mean=mean, covariance=0.5 * (covariance + covariance.T),
                                     index=self.prior.index[rows])


def condition(prior: GPPrior, train: TrainingSet, jitter: float | None = None) -> Conditioned:
    """Condition the prior on the training temperatures, which must be its
    leading rows (``GPPrior.noisy_block``): one factorization of the noisy
    training block, in place, serves every query; ``jitter`` as in ``factorise``.
    A rung after a failed one factors a new noisy block."""
    residual = train.temperatures[:prior.n] - prior.mean[:train.n]  # shorter prior: GridMismatch
    return Conditioned(prior, *_factorise_each(lambda: prior.noisy_block(train), residual, jitter))


def posterior_temperature(conditioned: Conditioned, rows: slice) -> PosteriorDistribution:
    """Exact posterior over the temperature process at the prior rows
    ``rows``, a slice of whole scenarios (else GridMismatch).

    The covariance is the posterior of the smooth (epistemic) temperature
    component; the predictive distribution for noisy observations adds
    sigma^2 times ``GPPrior.variability(rows)``.
    """
    prior, n = conditioned.prior, conditioned.alpha.size
    k = prior.physics_gram(rows)
    return conditioned.posterior(rows, prior.mean[rows], k[:, rows], k[:, :n])


def posterior_forcing(conditioned: Conditioned, rows: slice) -> PosteriorDistribution:
    """Exact posterior over the radiative forcing at the prior slice
    ``rows``, informed by temperature observations only."""
    prior, n = conditioned.prior, conditioned.alpha.size
    # Cov(T, F) at (train, test) rows = L K_f, from the training scenarios' blocks of L
    cross = prior.apply_response(prior.forcing_gram(slice(0, n), rows))
    covariance = prior.forcing_gram(rows, rows)
    return conditioned.posterior(rows, prior.forcing_mean[rows], covariance, cross.T)


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
    the first ``prior`` M = (L S), where the N x m selection S picks each
    row's distinct input.  ``prior`` rebuilds L, Gamma and M only with a free
    box-model row, and the mean and forcing paths only with a free box-model
    or forcing row.  ``jitter`` is the rung the first factorisation through it
    found; only ``condition`` reads the training block.  The prior covers
    exactly the training rows: ``scenarios`` must stack to ``train.index``,
    in order, or GridMismatch is raised."""

    def __init__(self, scenarios: list[Scenario], train: TrainingSet, model: EmulatorModel,
                 free: Sequence[str] = PARAMETER_NAMES):
        self.scenarios, self.train, self.free = scenarios, train, frozenset(free)
        self.fields, self.x_u = _prior_fields(scenarios, model)
        if self.fields["index"] != train.index:
            raise GridMismatch("a fit's scenarios must stack to exactly its training rows")
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
        prior = GPPrior(**fields, kernel_gram=k_u)
        if self.operator is None or self.free & BOX_MODEL:
            selection = np.eye(len(self.x_u))[prior.kernel_rows]
            self.operator = prior.apply_response(selection)
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
    (alpha^T alpha - tr A^{-1}) for sigma; the sum over scenarios s of
    <(W L K)_ss + alpha_s F_s^T, dL_s> + sigma^2 <W_ss, dGamma_s> / 2 for the
    box model; (L dF)^T alpha for ``forcing``.
    """
    impulse, sigma = model.impulse, model.impulse.variability_amplitude
    k_u, dk_u = kernels.forcing_gram_gradients(geometry.x_u, model.kernel)
    conditioned = condition(geometry.prior(model, k_u), geometry.train, geometry.jitter)
    geometry.jitter = conditioned.jitter
    prior, factor, alpha = conditioned.prior, conditioned.factor, conditioned.alpha

    beta = geometry.operator.T @ alpha
    v = solve_triangular(factor, geometry.operator, lower=True, check_finite=False)
    b = np.outer(beta, beta) - v.T @ v
    # dpotri fills the lower triangle of A^{-1} and keeps the factor's zero upper one
    inv = lapack.dpotri(factor, lower=True)[0]
    variance = 0.5 * np.sum(b * k_u)
    grad = {"lengthscales": [0.5 * np.sum(b * g) for g in dk_u],
            "variance": [variance],
            "sigma": [alpha @ (geometry.train.temperatures - prior.mean) - alpha.size
                      - 2.0 * variance - conditioned.jitter * (alpha @ alpha - np.trace(inv))]}
    if geometry.free & BOX_MODEL:
        w = np.outer(alpha, alpha) - (inv + np.tril(inv, -1).T)
        lk = prior.apply_response(prior.forcing_gram())
        box = 0.0
        edges = prior.edges
        for scen, rows in zip(geometry.scenarios, map(slice, edges, edges[1:])):
            # mode i's operator is linear in q_i, so mode_series holds both derivatives
            series = np.array(ebm.mode_series(impulse, scen.grid))
            response = w[rows] @ lk[:, rows] + np.outer(alpha[rows], prior.forcing_mean[rows])
            noise = kernels.variability_gradient(impulse, scen.grid, w[rows, rows])
            box = box + series @ ebm.lag_sums(response) + 0.5 * sigma**2 * noise
        grad["equilibrium_responses"], grad["timescales"] = box
    if "forcing" in geometry.free:
        grad["forcing"] = prior.apply_response(geometry.forcing_units).T @ alpha
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

    The prior covers ``scenarios``, which stack to exactly the training rows.
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
        except (ValueError, FloatingPointError, NonFinite):
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
