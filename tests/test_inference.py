import ast
import dataclasses
import multiprocessing
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cho_solve, cholesky
from scipy.stats import multivariate_normal

from conftest import frozen_objective, make_scenario
from ebgp.ebm import AgentForcing, ImpulseParams, TimeGrid, temperature_operator
from ebgp.errors import GridMismatch, NonFinite, SingularGram
from ebgp.inference import (
    PARAMETER_NAMES,
    Conditioned,
    EmulatorModel,
    FitGeometry,
    FitSettings,
    FreeParameters,
    GPPrior,
    PosteriorDistribution,
    build_prior,
    condition,
    factorise,
    fit_hyperparameters,
    jitter_rungs,
    mll_and_gradient,
    posterior_forcing,
    posterior_temperature,
    sample_posterior,
)
from ebgp.kernels import (
    KERNEL_FAMILIES,
    KernelConfig,
    forcing_gram,
    forcing_gram_gradients,
    internal_variability_gram,
)
from ebgp.oracles import finite_difference_gradient, predictive_log_density
from ebgp.scenario import (
    AgentSpec,
    Scenario,
    Standardization,
    TrainingSet,
    assemble_training_set,
)

LOG_2PI = np.log(2.0 * np.pi)


def two_scenario_setup(toy_impulse, toy_forcing, toy_kernel, toy_agents, n=40, seed=3):
    """Two scenarios with temperatures drawn from the prior itself."""
    rng = np.random.default_rng(seed)

    def mk(name, f1, f2):
        grid = TimeGrid(1900, n)
        t = np.arange(n, dtype=float)
        return Scenario(
            name=name,
            grid=grid,
            emissions={"co2": np.cumsum(f1(t)), "so2": f2(t)},
        )

    s1 = mk("a", lambda t: 1 + 0.1 * t, lambda t: 2 + np.sin(t / 8))
    s2 = mk("b", lambda t: 1 + 0.05 * t, lambda t: 1 + 0.02 * t)
    prior = build_prior([s1, s2], EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel))
    cov = prior.physics_gram() + prior.sigma**2 * prior.variability(slice(None))
    y = prior.mean + np.linalg.cholesky(cov + 1e-10 * np.eye(2 * n)) @ rng.standard_normal(2 * n)
    s1.global_temperature = y[:n]
    s2.global_temperature = y[n:]
    return s1, s2


@pytest.fixture
def setup(toy_impulse, toy_forcing, toy_kernel, toy_agents):
    s1, s2 = two_scenario_setup(toy_impulse, toy_forcing, toy_kernel, toy_agents)
    train, _ = assemble_training_set([s1, s2], holdout=("b",))
    prior = build_prior([s1, s2], EmulatorModel(
        toy_agents, toy_impulse, toy_forcing, toy_kernel, train.standardization
    ))
    return s1, s2, train, prior


@pytest.fixture
def one_row(setup, toy_impulse, toy_forcing, toy_kernel, toy_agents):
    """A training set of one row, the first year of scenario a as a scenario
    of its own, and the prior over it and scenario b, with a's constants."""
    s1, s2, train, _ = setup
    first = dataclasses.replace(
        s1, name="a1", grid=TimeGrid(1900, 1),
        emissions={name: series[:1] for name, series in s1.emissions.items()},
        global_temperature=s1.global_temperature[:1],
    )
    one, _ = assemble_training_set([first, s2], holdout=("b",))
    prior = build_prior([first, s2], EmulatorModel(
        toy_agents, toy_impulse, toy_forcing, toy_kernel, train.standardization
    ))
    return one, prior


class TestBuildPrior:
    @pytest.mark.parametrize("rule", ["stored", "fitted", "raw"])
    def test_kernel_input_standardization(
        self, setup, toy_impulse, toy_forcing, toy_agents, rule
    ):
        """The kernel sees the emission rows standardized with the model's
        stored constants, or with constants fitted on the prior's own rows
        when it has none, and raw rows when the kernel does not standardize."""
        from ebgp.kernels import forcing_gram

        s1, s2, _, _ = setup
        raw = np.vstack([s.emission_matrix(["co2", "so2"]) for s in (s1, s2)])
        mean, std = np.array([0.5, -1.0]), np.array([2.0, 3.0])
        stored = None if rule == "fitted" else Standardization(mean, std)
        if rule == "stored":
            x = (raw - mean) / std
        elif rule == "fitted":
            x = (raw - raw.mean(axis=0)) / raw.std(axis=0)
        else:
            x = raw
        kernel = KernelConfig("matern32", [1.0, 1.5], 0.3, standardize_inputs=rule != "raw")
        model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, kernel, stored)
        prior = build_prior([s1, s2], model)
        np.testing.assert_allclose(
            prior.forcing_gram(), forcing_gram(x, x, kernel), rtol=1e-13, atol=0
        )

    def test_mean_matches_standalone_run(self, setup, toy_impulse, toy_forcing, toy_agents):
        from ebgp.ebm import thermal_response
        from ebgp.inference import scenario_forcing

        s1, _, _, prior = setup
        f = scenario_forcing(s1, toy_forcing, toy_agents)
        _, temp = thermal_response(f, toy_impulse, s1.grid)
        np.testing.assert_array_equal(prior.mean[:40], temp)

    def test_zero_emissions_at_preindustrial_gives_zero_mean(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        grid = TimeGrid(1850, 10)
        scen = Scenario(
            name="z",
            grid=grid,
            emissions={"co2": np.zeros(10), "so2": np.zeros(10)},
            concentrations={"co2": np.full(10, 278.0), "so2": np.full(10, 1.0)},
        )
        model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel)
        prior = build_prior([scen], model)
        np.testing.assert_array_equal(prior.mean, 0.0)

    def test_duplicate_scenario_blocks_equal(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        s1, _ = two_scenario_setup(toy_impulse, toy_forcing, toy_kernel, toy_agents)
        twin = dataclasses.replace(s1, name="a2")
        model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel)
        prior = build_prior([s1, twin], model)
        n = s1.grid.n_steps
        k = prior.physics_gram()
        np.testing.assert_allclose(k[:n, n:], k[:n, :n], atol=1e-12)

    def test_variability_block_diagonal(self, setup):
        _, _, _, prior = setup
        gamma = prior.variability(slice(None))
        n = 40
        np.testing.assert_array_equal(gamma[:n, n:], 0.0)
        assert np.all(np.diag(gamma) > 0)

    def test_step_mismatch_rejected(self, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        a = Scenario("a", TimeGrid(1900, 5), {"co2": np.ones(5), "so2": np.ones(5)})
        b = Scenario("b", TimeGrid(1900, 5, step=2.0), {"co2": np.ones(5), "so2": np.ones(5)})
        with pytest.raises(GridMismatch):
            build_prior([a, b], EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel))

    def test_gram_factorizable(self, setup):
        _, _, _, prior = setup
        noisy = prior.physics_gram() + prior.sigma**2 * prior.variability(slice(None))
        factorise(noisy, np.zeros(prior.n))

    def test_cross_scenario_blocks_match_joint_sampling(self, setup, toy_impulse):
        """The stacked physics Gram, including its cross-scenario blocks,
        must match the empirical covariance of jointly sampled forcing paths
        integrated scenario by scenario."""
        from ebgp.oracles import rk4_impulse_temperature, scaled_frobenius_distance

        _, _, _, prior = setup
        n = prior.n // 2
        eigvals, eigvecs = np.linalg.eigh(prior.forcing_gram())
        root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        rng = np.random.default_rng(12)
        paths = rng.standard_normal((3000, prior.n)) @ root.T
        grid = TimeGrid(1900, n)
        temps = np.concatenate(
            [
                rk4_impulse_temperature(toy_impulse, paths[:, :n], grid, substeps=20),
                rk4_impulse_temperature(toy_impulse, paths[:, n:], grid, substeps=20),
            ],
            axis=1,
        )
        empirical = np.cov(temps, rowvar=False, ddof=1)
        assert scaled_frobenius_distance(empirical, prior.physics_gram()) <= 0.05
        # the cross block itself is well estimated too
        assert scaled_frobenius_distance(
            empirical[:n, n:], prior.physics_gram()[:n, n:]
        ) <= 0.1


class TestBlockedPrior:
    """The per-scenario response and variability blocks against the dense
    block-diagonal operators, built here, on three scenarios of unequal
    length."""

    @pytest.fixture
    def blocked(self, toy_impulse, toy_forcing, toy_kernel, toy_agents, scenario_factory):
        from ebgp.ebm import temperature_operator
        from ebgp.kernels import internal_variability_gram

        rng = np.random.default_rng(11)
        shapes = [("a", 30, 1900), ("b", 45, 1900), ("c", 20, 1950)]
        scenarios = [
            scenario_factory(name, n, start, temperature=rng.normal(0.0, 0.2, n), seed=k)
            for k, (name, n, start) in enumerate(shapes)
        ]
        model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel)
        prior = build_prior(scenarios, model)
        op = block_diag(*(temperature_operator(toy_impulse, s.grid) for s in scenarios))
        gamma = block_diag(*(internal_variability_gram(toy_impulse, s.grid) for s in scenarios))
        return scenarios, prior, op, gamma

    def test_physics_gram_matches_dense(self, blocked):
        _, prior, op, _ = blocked
        dense = op @ prior.forcing_gram() @ op.T
        assert np.max(np.abs(prior.physics_gram() - dense)) <= 1e-14 * np.max(np.abs(dense))
        x = np.random.default_rng(2).normal(size=(prior.n, 3))
        # the rows of whole leading scenarios: none, a (0-29), a and b (0-74), all
        for k in (0, 30, 75, prior.n):
            np.testing.assert_allclose(prior.apply_response(x[:k]), op[:k, :k] @ x[:k],
                                       rtol=0, atol=1e-14)
        with pytest.raises(GridMismatch, match="cut a scenario"):
            prior.apply_response(x[:40])
        with pytest.raises(GridMismatch, match=f"{prior.n + 1} rows for a response operator of"):
            prior.apply_response(np.vstack([x, x[:1]]))

    def test_variability_rows_match_dense(self, blocked):
        """Gamma at slices of whole scenarios: a (rows 0-29), b (30-74) and
        c (75-94); a slice that cuts a scenario is an error."""
        _, prior, _, gamma = blocked
        for rows in (slice(None), slice(0, 30), slice(30, 95), slice(75, 95), slice(30, 30)):
            np.testing.assert_array_equal(prior.variability(rows), gamma[rows, rows])
        for rows in (slice(0, 29), slice(31, 75), slice(0, 95, 2)):
            with pytest.raises(GridMismatch):
                prior.variability(rows)

    def test_forcing_cross_matches_dense(self, blocked):
        scenarios, prior, op, _ = blocked
        train, _ = assemble_training_set(scenarios, holdout=("c",))
        rows = slice(train.n, prior.n)
        conditioned = condition(prior, train)
        k_f = prior.forcing_gram()
        dense = conditioned.posterior(
            rows, prior.forcing_mean[rows], k_f[rows, rows], k_f[rows, :] @ op[:train.n, :].T,
        )
        post = posterior_forcing(conditioned, rows)
        for got, want in [(post.mean, dense.mean), (post.covariance, dense.covariance)]:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_training_rows_must_lead_the_prior(self, blocked, toy_impulse, toy_forcing,
                                               toy_kernel, toy_agents):
        """Holding out the middle scenario b of a prior built in declared
        order leaves training rows that do not lead it: conditioning, the
        spatial posterior, its oracle and a fit's geometry all refuse them."""
        from ebgp.oracles import cell_posterior
        from ebgp.scenario import SpatialGrid
        from ebgp.spatial import PatternScalingMap, spatial_posterior

        scenarios, prior, _, _ = blocked
        train, _ = assemble_training_set(scenarios, holdout=("b",))
        grid = SpatialGrid([0.0], [0.0])
        pattern = PatternScalingMap(np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), grid)
        local = np.zeros((train.n, 1, 1))
        model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel)
        with pytest.raises(GridMismatch):
            condition(prior, train)
        with pytest.raises(GridMismatch):
            spatial_posterior(pattern, prior, train, local, slice(30, 75))
        with pytest.raises(GridMismatch):
            cell_posterior(pattern, prior, train, local, 0, 0, slice(30, 75))
        with pytest.raises(GridMismatch):
            FitGeometry(scenarios, train, model)
        FitGeometry([s for s in scenarios if s.name != "b"], train, model)

    def test_gradient_on_training_subset(
        self, blocked, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """The training scenarios a and c are a strict subset of the
        scenarios: the fit's prior covers them alone, every fittable row's
        gradient matches central differences, and the value is the
        conditioning of a prior that also covers the held-out b."""
        scenarios, _, _, _ = blocked
        train, held = assemble_training_set(scenarios, holdout=("b",))
        scenarios = [s for s in scenarios if s.name != "b"]
        model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel,
                              train.standardization)
        prior = build_prior(scenarios + held, model)
        jitter = condition(prior, train).jitter
        params = FreeParameters(
            dataclasses.replace(
                model,
                kernel=dataclasses.replace(toy_kernel, lengthscales=[1.3, 0.8], variance=0.4),
                impulse=dataclasses.replace(toy_impulse, variability_amplitude=0.15),
            ),
            PARAMETER_NAMES,
        )

        def mll(theta):
            return frozen_objective(scenarios, train, params.apply(theta), jitter=jitter)

        _, grad = mll(params.theta0)
        fd = finite_difference_gradient(lambda t: mll(t)[0], params.theta0)
        assert np.all(np.abs(grad - fd) <= 1e-4 * (np.abs(fd) + 1e-6))
        # at the prior's own parameters it is the conditioning's likelihood
        value, _ = frozen_objective(scenarios, train, model, jitter=jitter)
        assert value == condition(prior, train, jitter).log_likelihood


POSITIVE = st.floats(0.05, 5.0)


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    timescales=st.lists(st.floats(0.5, 300.0), min_size=1, max_size=3, unique=True),
    responses=st.lists(POSITIVE, min_size=3, max_size=3),
    sigma=st.floats(0.0, 0.5),
    family=st.sampled_from(KERNEL_FAMILIES),
    lengthscales=st.lists(POSITIVE, min_size=2, max_size=2),
    variance=POSITIVE,
    trained=st.integers(0, 5),
    shared=st.lists(st.integers(0, 40), min_size=4, max_size=4),
    cuts=st.lists(st.integers(0, 5), min_size=4, max_size=4),
)
@example(lengths=[1], timescales=[4.0], responses=[0.5, 0.5, 0.5], sigma=0.1,
         family="matern32", lengthscales=[1.0, 1.0], variance=0.3, trained=1,
         shared=[0, 0, 0, 0], cuts=[0, 1, 0, 1])
@example(lengths=[30, 40, 25, 1], timescales=[4.0, 60.0], responses=[0.5, 0.3, 0.5], sigma=0.1,
         family="matern12", lengthscales=[1.0, 2.0], variance=0.3, trained=2,
         shared=[30, 10, 1, 0], cuts=[1, 3, 0, 4])
def test_triangular_assembly_and_noisy_block(lengths, timescales, responses, sigma, family,
                                             lengthscales, variance, trained, shared, cuts):
    """The lower-block-triangle assembly of L K L^T against the dense
    blkdiag(L) K blkdiag(L)^T, on random scenario sets that include
    one-year scenarios and futures that repeat the first scenario's leading
    emission rows, so the kernel is kept on fewer rows than the prior has;
    K expanded by the row map is the kernel on the stacked rows, and L K L^T
    at whole-scenario slices is the same slice of the whole matrix, bit for
    bit, while a slice that cuts a scenario is an error, to the temperature
    posterior too; the noisy block is a fresh Fortran-ordered array each
    call, bit for bit the physics block plus sigma^2 Gamma, and
    ``factorise`` leaves its block as it found it on the first rung and on
    an escalated one."""
    timescales = sorted(timescales)
    impulse = ImpulseParams(timescales, responses[:len(timescales)], sigma)
    agents = [AgentSpec("co2", "cumulative_emission", "GtC"), AgentSpec("so2", "emission", "Mt")]
    forcing = {"co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
               "so2": AgentForcing(alpha_lin=-0.02, c0=1.0, concentration_per_emission=1.0)}
    scenarios = [make_scenario(f"s{k}", n, seed=k) for k, n in enumerate(lengths)]
    prefixes = [min(p, n, lengths[0]) for p, n in zip(shared, lengths[1:])]
    for scen, p in zip(scenarios[1:], prefixes):
        for name, series in scen.emissions.items():
            series[:p] = scenarios[0].emissions[name][:p]
    model = EmulatorModel(agents, impulse, forcing,
                          KernelConfig(family, lengthscales, variance))
    prior = build_prior(scenarios, model)

    raw = np.vstack([s.emission_matrix(model.agent_names) for s in scenarios])
    x = Standardization.from_rows(raw).apply(raw)
    assert prior.kernel_gram.shape[0] <= prior.n - sum(prefixes)
    i, j, k, m = (prior.edges[min(c, len(scenarios))] for c in cuts)
    rows, cols = slice(min(i, j), max(i, j)), slice(min(k, m), max(k, m))
    assert np.array_equal(prior.forcing_gram(rows, cols),
                          forcing_gram(x[rows], x[cols], model.kernel))

    op = block_diag(*(temperature_operator(impulse, s.grid) for s in scenarios))
    dense = op @ prior.forcing_gram() @ op.T
    physics = prior.physics_gram()
    assert np.max(np.abs(physics - dense)) <= 1e-13 * np.max(np.abs(dense))
    assert np.array_equal(physics, physics.T)
    part = prior.physics_gram(rows, cols)
    assert part.flags.c_contiguous and np.array_equal(part, physics[rows, cols])
    longest = int(np.argmax(lengths))
    cut = slice(prior.edges[longest] + 1, None) if lengths[longest] > 1 else slice(None, None, 2)
    with pytest.raises(GridMismatch):
        prior.physics_gram(cols=cut)
    with pytest.raises(GridMismatch):
        posterior_temperature(condition(prior, TrainingSet(np.empty(0), [])), cut)

    n = sum(lengths[:trained])
    train = TrainingSet(temperatures=np.zeros(n), index=prior.index[:n])
    block = prior.noisy_block(train)
    fields = [prior.mean, prior.forcing_mean, prior.kernel_gram, prior.kernel_rows,
              *prior.response_blocks, *prior.variability_blocks]
    assert not any(np.shares_memory(block, f) for f in fields)
    assert np.array_equal(block, prior.noisy_block(train))
    assert block.flags.f_contiguous
    assert np.array_equal(block, physics[:n, :n] + sigma**2 * prior.variability(slice(0, n)))
    gamma = block_diag(*(internal_variability_gram(impulse, s.grid) for s in scenarios))
    np.testing.assert_allclose(block, dense[:n, :n] + sigma**2 * gamma[:n, :n],
                               rtol=0, atol=1e-13 * np.max(np.abs(dense)))

    # 4 11^T fails the zero rung exactly, at its second pivot, and escalates
    for gram, ladder in [(block, (1e-6,)), (np.full((n + 2, n + 2), 4.0), (0.0, 1e-3))]:
        before = gram.copy()
        factor, _, jitter, _ = factorise(gram, np.ones(len(gram)), ladder=ladder)
        assert np.array_equal(gram, before)
        if len(gram):
            assert jitter == ladder[-1] * np.mean(np.diag(gram))
            expected = cholesky(gram + jitter * np.eye(len(gram)), lower=True)
            np.testing.assert_allclose(factor, expected, rtol=0,
                                       atol=1e-13 * np.max(np.abs(expected)))


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(3, 12), min_size=2, max_size=4),
    shared=st.lists(st.integers(0, 12), min_size=3, max_size=3),
    timescales=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=3, unique=True),
    responses=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    sigma=st.floats(0.3, 1.0),
    family=st.sampled_from(KERNEL_FAMILIES),
    lengthscales=st.lists(st.floats(0.5, 5.0), min_size=2, max_size=2),
    variance=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_posteriors_match_a_dense_gp(lengths, shared, timescales, responses, sigma, family,
                                     lengthscales, variance, seed):
    """``condition``'s temperature and forcing posteriors at the held-out
    last scenario against a dense GP written out here: L and Gamma as block
    diagonals, K on the stacked standardized rows, one dense solve with the
    noisy training block at the jitter ``condition`` found.  Futures share a
    prefix of the first scenario's emissions, so the kernel keeps fewer rows
    than the prior, and temperatures are drawn from the dense prior."""
    impulse = ImpulseParams(sorted(timescales), responses[:len(timescales)], sigma)
    agents = [AgentSpec("co2", "cumulative_emission", "GtC"), AgentSpec("so2", "emission", "Mt")]
    forcing = {"co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
               "so2": AgentForcing(alpha_lin=-0.02, c0=1.0, concentration_per_emission=1.0)}
    scenarios = [make_scenario(f"s{k}", n, seed=k) for k, n in enumerate(lengths)]
    for scen, p in zip(scenarios[1:], shared):
        p = min(p, scen.grid.n_steps, lengths[0])
        for name, series in scen.emissions.items():
            series[:p] = scenarios[0].emissions[name][:p]
    model = EmulatorModel(agents, impulse, forcing, KernelConfig(family, lengthscales, variance))
    raw = np.vstack([s.emission_matrix(model.agent_names) for s in scenarios])
    op = block_diag(*(temperature_operator(impulse, s.grid) for s in scenarios))
    gamma = block_diag(*(internal_variability_gram(impulse, s.grid) for s in scenarios))

    def dense_prior(standardization):
        x = standardization.apply(raw)
        k = forcing_gram(x, x, model.kernel)
        return k, op @ k @ op.T

    mean = build_prior(scenarios, model).mean
    _, physics = dense_prior(Standardization.from_rows(raw))
    noise = np.linalg.cholesky(physics + sigma**2 * gamma + 1e-9 * np.eye(len(raw)))
    draw = mean + noise @ np.random.default_rng(seed).standard_normal(len(raw))
    for scen, part in zip(scenarios, np.split(draw, np.cumsum(lengths)[:-1])):
        scen.global_temperature = part

    train, _ = assemble_training_set(scenarios, holdout=(scenarios[-1].name,))
    model = dataclasses.replace(model, standardization=train.standardization)
    prior = build_prior(scenarios, model)
    conditioned = condition(prior, train)
    k, physics = dense_prior(train.standardization)
    n, rows = train.n, slice(train.n, len(raw))
    noisy = physics[:n, :n] + sigma**2 * gamma[:n, :n] + conditioned.jitter * np.eye(n)
    residual = train.temperatures - prior.mean[:n]
    cases = [(posterior_temperature, prior.mean, physics, physics[:n]),
             (posterior_forcing, prior.forcing_mean, k, (op @ k)[:n])]
    for posterior, prior_mean, covariance, cross in cases:
        got = posterior(conditioned, rows)
        cross = cross[:, rows].T
        mean = prior_mean[rows] + cross @ np.linalg.solve(noisy, residual)
        cov = covariance[rows, rows] - cross @ np.linalg.solve(noisy, cross.T)
        assert np.max(np.abs(got.mean - mean)) <= 1e-12 * np.max(np.abs(mean))
        assert np.max(np.abs(got.covariance - cov)) <= 1e-12 * np.max(np.abs(cov))


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(st.integers(3, 12), min_size=2, max_size=4),
    shared=st.lists(st.integers(0, 12), min_size=3, max_size=3),
    fastest=st.floats(0.5, 2.5),
    ratios=st.lists(st.floats(1.5, 2.8), max_size=2),
    responses=st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3),
    sigma=st.floats(0.3, 1.0),
    family=st.sampled_from(KERNEL_FAMILIES),
    lengthscales=st.lists(st.floats(0.5, 5.0), min_size=2, max_size=2),
    variance=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
def test_gradient_matches_finite_differences_on_random_setups(
        lengths, shared, fastest, ratios, responses, sigma, family, lengthscales, variance, seed):
    """``mll_and_gradient`` against central differences of its own value,
    rung frozen, with every row of ``PARAMETER_NAMES`` free (the box model
    and the forcing coefficients included), on scenario sets whose futures
    share a prefix of the first scenario's emissions and whose temperatures
    are drawn from the prior; the ranges keep the noisy block well
    conditioned and the timescales apart, as in the dense-GP check.  The
    tolerance is the toy check's 1e-4 relative, with an absolute floor of
    1e-8: central differences of an objective of up to about 100 nats at
    step 1e-5 carry rounding errors near 1e-9, which a random set-up with a
    gradient entry near zero exposes (4e-10 at an entry of 9e-7)."""
    timescales = fastest * np.cumprod([1.0, *ratios])
    impulse = ImpulseParams(timescales, responses[:len(timescales)], sigma)
    agents = [AgentSpec("co2", "cumulative_emission", "GtC"), AgentSpec("so2", "emission", "Mt")]
    forcing = {"co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
               "so2": AgentForcing(alpha_lin=-0.02, c0=1.0, concentration_per_emission=1.0)}
    scenarios = [make_scenario(f"s{k}", n, seed=k) for k, n in enumerate(lengths)]
    for scen, p in zip(scenarios[1:], shared):
        p = min(p, scen.grid.n_steps, lengths[0])
        for name, series in scen.emissions.items():
            series[:p] = scenarios[0].emissions[name][:p]
    model = EmulatorModel(agents, impulse, forcing, KernelConfig(family, lengthscales, variance))
    prior = build_prior(scenarios, model)
    cov = prior.physics_gram() + sigma**2 * prior.variability(slice(None))
    noise = np.linalg.cholesky(cov + 1e-9 * np.eye(prior.n))
    draw = prior.mean + noise @ np.random.default_rng(seed).standard_normal(prior.n)
    for scen, part in zip(scenarios, np.split(draw, np.cumsum(lengths)[:-1])):
        scen.global_temperature = part

    train, _ = assemble_training_set(scenarios)
    model = dataclasses.replace(model, standardization=train.standardization)
    jitter = condition(build_prior(scenarios, model), train).jitter
    params = FreeParameters(model, PARAMETER_NAMES)

    def objective(theta):
        return frozen_objective(scenarios, train, params.apply(theta), jitter=jitter)[0]

    _, grad = frozen_objective(scenarios, train, model, jitter=jitter)
    fd = finite_difference_gradient(objective, params.theta0)
    assert np.all(np.abs(grad - fd) <= 1e-4 * (np.abs(fd) + 1e-4))


def shared_history_setup(toy_impulse, toy_forcing, toy_agents, family, seed=5):
    """A history and two futures that repeat its emissions bit for bit
    before they part, with temperatures drawn from the prior, so each
    future's history rows differ from the history's only in their weather.
    The training rows hold out the second future, which comes last, so they
    lead a prior over all three."""
    n_hist, n_future = 20, 35
    t = np.arange(n_future, dtype=float)

    def emissions(rise, period):
        flux = np.where(t < n_hist, 1.0 + 0.1 * t, 3.0 + rise * (t - n_hist))
        so2 = np.where(t < n_hist, 2.0 + np.sin(t / 8.0), 2.0 + np.sin(t / period))
        return {"co2": np.cumsum(flux), "so2": so2}

    futures = {"f1": emissions(0.2, 5.0), "f2": emissions(-0.05, 11.0)}
    history = {name: series[:n_hist] for name, series in futures["f1"].items()}
    scenarios = [Scenario("h", TimeGrid(1900, n_hist), history)] + [
        Scenario(name, TimeGrid(1900, n_future), series) for name, series in futures.items()
    ]
    kernel = KernelConfig(family, [1.2, 0.7], 0.3)
    model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, kernel)
    prior = build_prior(scenarios, model)
    cov = prior.physics_gram() + prior.sigma**2 * prior.variability(slice(None))
    rng = np.random.default_rng(seed)
    y = prior.mean + np.linalg.cholesky(cov + 1e-10 * np.eye(prior.n)) @ rng.standard_normal(prior.n)
    for scen, part in zip(scenarios, np.split(y, [n_hist, n_hist + n_future])):
        scen.global_temperature = part
    train, _ = assemble_training_set(scenarios, holdout=("f2",))
    return scenarios, train, dataclasses.replace(model, standardization=train.standardization)


class TestSharedHistory:
    """The kernel is evaluated on the distinct emission rows only; that must
    not change the prior, the likelihood or any gradient."""

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_kernel_on_distinct_rows_is_exact(
        self, toy_impulse, toy_forcing, toy_agents, family
    ):
        scenarios, train, model = shared_history_setup(
            toy_impulse, toy_forcing, toy_agents, family
        )
        x = model.standardization.apply(
            np.vstack([scen.emission_matrix(model.agent_names) for scen in scenarios])
        )
        everything, _ = assemble_training_set(scenarios)
        geometry = FitGeometry(scenarios, everything, model)
        assert len(geometry.x_u) == 50 and len(x) == 90
        rows = geometry.fields["kernel_rows"]
        np.testing.assert_array_equal(geometry.x_u[rows], x)
        np.testing.assert_array_equal(
            build_prior(scenarios, model).forcing_gram(), forcing_gram(x, x, model.kernel)
        )
        k, dk = forcing_gram_gradients(x, model.kernel)
        k_u, dk_u = forcing_gram_gradients(geometry.x_u, model.kernel)
        for got, want in zip([k_u, *dk_u], [k, *dk]):
            np.testing.assert_array_equal(got[rows][:, rows], want)

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_objective_is_the_conditioning(self, toy_impulse, toy_forcing, toy_agents, family):
        """The value is the likelihood of conditioning a prior that also
        covers the held-out future exactly, and every fittable row's
        gradient matches central differences."""
        scenarios, train, model = shared_history_setup(
            toy_impulse, toy_forcing, toy_agents, family
        )
        prior = build_prior(scenarios, model)
        assert train.n < prior.n
        jitter = condition(prior, train).jitter
        scenarios = scenarios[:-1]
        value, _ = frozen_objective(scenarios, train, model, jitter=jitter)
        assert value == condition(prior, train, jitter).log_likelihood

        params = FreeParameters(model, PARAMETER_NAMES)

        def mll(theta):
            return frozen_objective(scenarios, train, params.apply(theta), jitter=jitter)

        rng = np.random.default_rng(8)
        for _ in range(2):
            theta = params.theta0 + rng.normal(scale=0.3, size=params.theta0.size)
            _, grad = mll(theta)
            fd = finite_difference_gradient(lambda t: mll(t)[0], theta)
            assert np.all(np.abs(grad - fd) <= 1e-4 * (np.abs(fd) + 1e-6))

    @pytest.mark.parametrize("free", [
        PARAMETER_NAMES, ("lengthscales", "variance", "sigma", "forcing"), ("lengthscales", "sigma")
    ])
    def test_one_geometry_serves_every_evaluation(
        self, toy_impulse, toy_forcing, toy_agents, free
    ):
        """A fit reuses one geometry at every parameter value it tries: that
        gives exactly what a fresh geometry gives, whichever rows are free."""
        scenarios, train, model = shared_history_setup(
            toy_impulse, toy_forcing, toy_agents, "matern32"
        )
        scenarios = scenarios[:-1]
        jitter = condition(build_prior(scenarios, model), train).jitter
        params = FreeParameters(model, free)
        geometry = FitGeometry(scenarios, train, model, free)
        geometry.jitter = jitter
        rng = np.random.default_rng(9)
        for _ in range(3):
            moved = params.apply(params.theta0 + rng.normal(scale=0.3, size=params.theta0.size))
            reused = mll_and_gradient(geometry, moved)
            fresh = frozen_objective(scenarios, train, moved, free, jitter)
            assert reused[0] == fresh[0] and np.array_equal(reused[1], fresh[1])

    @pytest.mark.parametrize("frozen", ["ladder", 0.05])
    @pytest.mark.parametrize("free", [PARAMETER_NAMES, ("lengthscales", "variance", "sigma")])
    def test_sigma_row_is_the_variability_trace(
        self, toy_impulse, toy_forcing, toy_agents, free, frozen
    ):
        """The sigma row, taken from the noisy block without Gamma, equals
        sigma^2 (alpha^T Gamma alpha - tr(A^{-1} Gamma)) with Gamma at the
        training rows, at the ladder's rung and at a large frozen jitter."""
        scenarios, train, model = shared_history_setup(
            toy_impulse, toy_forcing, toy_agents, "matern32"
        )
        scenarios = scenarios[:-1]
        jitter = condition(build_prior(scenarios, model), train).jitter
        jitter = jitter if frozen == "ladder" else frozen
        params = FreeParameters(model, free)
        names = [row.name for row in params.rows]
        row = sum(r.get(model).size for r in params.rows[:names.index("sigma")])
        rng = np.random.default_rng(10)
        for _ in range(3):
            moved = params.apply(params.theta0 + rng.normal(scale=0.3, size=params.theta0.size))
            prior = build_prior(scenarios, moved)
            conditioned = condition(prior, train, jitter)
            gamma = prior.variability(slice(None))
            inverse = cho_solve((conditioned.factor, True), np.eye(train.n))
            alpha = conditioned.alpha
            want = prior.sigma**2 * (alpha @ gamma @ alpha - np.sum(inverse * gamma))
            got = frozen_objective(scenarios, train, moved, free, jitter)[1][row]
            assert got == pytest.approx(want, rel=1e-9, abs=0)


class TestPosteriorTemperature:
    def test_empty_training_returns_prior(self, setup):
        _, s2, _, prior = setup
        empty = TrainingSet(temperatures=np.empty(0), index=[])
        rows = slice(40, 80)
        post = posterior_temperature(condition(prior, empty), rows)
        np.testing.assert_array_equal(post.mean, prior.mean[rows])
        np.testing.assert_array_equal(post.covariance, prior.physics_gram()[rows, rows])

    def test_noiseless_interpolation(self):
        imp = ImpulseParams([0.2], [0.5], variability_amplitude=0.0)
        forcing = {"x": AgentForcing()}
        agents = [AgentSpec("x", "emission", "u")]
        n = 10
        rng = np.random.default_rng(0)
        scen = Scenario(
            "a", TimeGrid(2000, n),
            emissions={"x": 1.0 + 4.0 * np.arange(n, dtype=float)},
            global_temperature=0.5 * np.tanh(rng.normal(size=n)),
        )
        kc = KernelConfig("matern12", [1.0], 1.0, standardize_inputs=False)
        train, _ = assemble_training_set([scen])
        prior = build_prior([scen], EmulatorModel(agents, imp, forcing, kc))
        post = posterior_temperature(condition(prior, train), slice(None))
        assert np.max(np.abs(post.mean - scen.global_temperature)) <= 1e-6
        assert np.max(np.diag(post.covariance)) <= 1e-6

    def test_single_point_scalar_algebra(self, one_row):
        """One training row: the posterior must match the scalar update
        computed by hand from the Gram entries."""
        one, prior = one_row
        pos, t = 0, 6
        post = posterior_temperature(condition(prior, one), slice(one.n, prior.n))
        k = prior.physics_gram()
        noisy = k[pos, pos] + prior.sigma**2 * prior.variability(slice(0, 1))[0, 0]
        jitter = 1e-6 * noisy  # first ladder rung, relative to the 1x1 diagonal
        noisy = noisy + jitter
        resid = one.temperatures[0] - prior.mean[pos]
        expected_mean = prior.mean[t] + k[t, pos] / noisy * resid
        expected_var = k[t, t] - k[t, pos] ** 2 / noisy
        assert post.mean[t - one.n] == pytest.approx(expected_mean, rel=1e-12)
        assert post.covariance[t - one.n, t - one.n] == pytest.approx(expected_var, rel=1e-10)

    def test_posterior_variance_below_prior(self, setup):
        _, _, train, prior = setup
        rows = slice(train.n, prior.n)
        post = posterior_temperature(condition(prior, train), rows)
        prior_var = np.diag(prior.physics_gram()[rows, rows])
        assert np.all(np.diag(post.covariance) <= prior_var + 1e-9)

    def test_monotone_information(self, setup):
        """Conditioning on more observations never increases the variance."""
        s1, s2, train, prior = setup
        both, _ = assemble_training_set([s1, s2])
        rows = slice(train.n, prior.n)
        var_half = np.diag(posterior_temperature(condition(prior, train), rows).covariance)
        var_full = np.diag(posterior_temperature(condition(prior, both), rows).covariance)
        assert np.all(var_full <= var_half + 1e-9)

    def test_data_fit_improves(self, setup):
        _, _, train, prior = setup
        rows = slice(0, train.n)
        post = posterior_temperature(condition(prior, train), rows)
        prior_dist = PosteriorDistribution(
            mean=prior.mean[rows],
            covariance=prior.physics_gram()[rows, rows],
            index=train.index,
        )
        assert predictive_log_density(post, train.temperatures) >= predictive_log_density(
            prior_dist, train.temperatures
        )

    def test_missing_row_rejected(self, setup):
        _, _, train, prior = setup
        bad = dataclasses.replace(train, index=[("zz", 1900)] + train.index[1:])
        with pytest.raises(GridMismatch):
            condition(prior, bad)

    def test_prior_shorter_than_the_training_rows_rejected(
        self, setup, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """GridMismatch, not an error from forming the residual."""
        s1, s2, _, _ = setup
        both, _ = assemble_training_set([s1, s2])
        prior = build_prior([s1], EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel,
                                                both.standardization))
        with pytest.raises(GridMismatch, match="leading rows"):
            condition(prior, both)


def test_query_memory_stays_near_the_training_blocks(toy_impulse, toy_forcing, toy_kernel,
                                                     toy_agents):
    """No prior field holds N x N values, and building a prior of N = 700
    rows, conditioning it on its n = 550 training rows and querying the
    held-out scenario's temperature peaks below 4 n x n float arrays
    (traced): two for the noisy block and the factor's copy of it, about one
    for the prior's fields.  A prior that kept L K L^T whole peaked at 4.7."""
    history = make_scenario("h", 100, temperature=np.zeros(100))
    scenarios = [history]
    for k in range(1, 5):
        future = make_scenario(f"f{k}", 150, seed=k, temperature=np.zeros(150))
        for name, series in future.emissions.items():
            series[:100] = history.emissions[name]
        scenarios.append(future)
    train, _ = assemble_training_set(scenarios, holdout=("f4",))
    model = EmulatorModel(toy_agents, toy_impulse, toy_forcing, toy_kernel, train.standardization)
    tracemalloc.start()
    try:
        prior = build_prior(scenarios, model)
        posterior_temperature(condition(prior, train), slice(train.n, prior.n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prior.n, train.n) == (700, 550)
    for value in vars(prior).values():
        assert all(np.size(v) < prior.n**2 for v in (value if isinstance(value, list) else [value]))
    assert peak < 4 * train.n**2 * 8


@pytest.mark.parametrize("trained", [False, True])
def test_posteriors_share_no_memory_with_the_prior(setup, trained):
    """Slices of the prior are views: a posterior must not hand one back,
    with or without training rows, or an in-place update such as the CLI's
    added variability would write into the prior."""
    from ebgp.cli import _temperature

    _, _, train, prior = setup
    if not trained:
        train = TrainingSet(temperatures=np.empty(0), index=[])
    conditioned = condition(prior, train)
    rows = slice(40, 80)
    arrays = [prior.mean, prior.forcing_mean, prior.kernel_gram, prior.kernel_rows,
              *prior.response_blocks, *prior.variability_blocks]
    for post in (posterior_temperature(conditioned, rows), posterior_forcing(conditioned, rows)):
        for got in (post.mean, post.covariance):
            assert not any(np.shares_memory(got, array) for array in arrays)
    first = _temperature(conditioned, rows)[1].covariance.copy()
    np.testing.assert_array_equal(_temperature(conditioned, rows)[1].covariance, first)


class TestPosteriorForcing:
    def test_empty_training_returns_prior(self, setup):
        _, _, _, prior = setup
        empty = TrainingSet(temperatures=np.empty(0), index=[])
        rows = slice(40, 80)
        post = posterior_forcing(condition(prior, empty), rows)
        np.testing.assert_array_equal(post.mean, prior.forcing_mean[rows])
        np.testing.assert_array_equal(post.covariance, prior.forcing_gram(rows, rows))

    def test_consistency_with_temperature_posterior(self, setup):
        """Convolving the posterior forcing mean through the response
        operator must reproduce the posterior temperature mean."""
        _, _, train, prior = setup
        rows = slice(None)
        post_f = posterior_forcing(condition(prior, train), rows)
        post_t = posterior_temperature(condition(prior, train), rows)
        convolved = prior.apply_response(post_f.mean)
        assert np.max(np.abs(convolved - post_t.mean)) <= 1e-8

    def test_forcing_variance_below_prior(self, setup):
        _, _, train, prior = setup
        rows = slice(train.n, prior.n)
        post = posterior_forcing(condition(prior, train), rows)
        prior_var = np.diag(prior.forcing_gram(rows, rows))
        assert np.all(np.diag(post.covariance) <= prior_var + 1e-9)

    def test_single_point_scalar_algebra(self, one_row):
        one, prior = one_row
        pos, t = 0, 4
        post = posterior_forcing(condition(prior, one), slice(t, t + 1))
        k = prior.physics_gram()
        cross = prior.apply_response(prior.forcing_gram()[:, t])[pos]
        noisy = k[pos, pos] + prior.sigma**2 * prior.variability(slice(0, 1))[0, 0]
        noisy = noisy * (1.0 + 1e-6)
        resid = one.temperatures[0] - prior.mean[pos]
        assert post.mean[0] == pytest.approx(
            prior.forcing_mean[t] + cross / noisy * resid, rel=1e-12
        )
        assert post.covariance[0, 0] == pytest.approx(
            prior.forcing_gram()[t, t] - cross**2 / noisy, rel=1e-10
        )


class TestMarginalLogLikelihood:
    def _prior_from_cov(self, cov, mean=None, sigma=0.0):
        n = cov.shape[0]
        index = [("x", 2000 + i) for i in range(n)]
        return GPPrior(
            mean=np.zeros(n) if mean is None else mean,
            sigma=sigma,
            index=index,
            forcing_mean=np.zeros(n),
            kernel_gram=cov,
            kernel_rows=np.arange(n),
            response_blocks=[np.eye(n)],
            variability_blocks=[np.zeros((n, n))],
        )

    def _train(self, values):
        return TrainingSet(
            temperatures=np.asarray(values, dtype=float),
            index=[("x", 2000 + i) for i in range(len(values))],
        )

    def test_single_point_unit_variance(self):
        prior = self._prior_from_cov(np.array([[1.0]]))
        mll = condition(prior, self._train([0.0])).log_likelihood
        assert mll == pytest.approx(-0.9189385332046727, abs=1e-5)

    def test_two_point_diagonal_factorizes(self):
        cov = np.diag([1.0, 4.0])
        prior = self._prior_from_cov(cov)
        mll = condition(prior, self._train([0.5, -1.0])).log_likelihood
        singles = sum(
            -0.5 * (LOG_2PI + np.log(v) + y**2 / v)
            for v, y in [(1.0, 0.5), (4.0, -1.0)]
        )
        assert mll == pytest.approx(singles, abs=1e-4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        for n in (8, 16):
            a = rng.normal(size=(n, n))
            cov = a @ a.T + n * np.eye(n)
            y = rng.normal(size=n)
            prior = self._prior_from_cov(cov)
            mll = condition(prior, self._train(y)).log_likelihood
            jitter = 1e-6 * np.mean(np.diag(cov))
            oracle = multivariate_normal.logpdf(y, mean=np.zeros(n), cov=cov + jitter * np.eye(n))
            assert abs(mll - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_empty_training_set(self):
        prior = self._prior_from_cov(np.eye(2))
        empty = TrainingSet(temperatures=np.empty(0), index=[])
        assert condition(prior, empty).log_likelihood == 0.0

    def test_scenario_order_invariance(self, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        s1, s2 = two_scenario_setup(toy_impulse, toy_forcing, toy_kernel, toy_agents)
        values = {}
        for order in ([s1, s2], [s2, s1]):
            train, _ = assemble_training_set(order)
            prior = build_prior(order, EmulatorModel(
                toy_agents, toy_impulse, toy_forcing, toy_kernel, train.standardization
            ))
            values[tuple(s.name for s in order)] = condition(prior, train).log_likelihood
        a, b = values.values()
        assert a == pytest.approx(b, rel=1e-9)


class TestPredictiveDensity:
    def test_at_mean_unit_covariance(self):
        post = PosteriorDistribution(np.array([1.3]), np.array([[1.0]]), [("x", 0)])
        assert predictive_log_density(post, [1.3]) == pytest.approx(-0.5 * LOG_2PI, rel=1e-12)

    def test_diagonal_factorizes(self):
        post = PosteriorDistribution(
            np.array([0.0, 1.0]), np.diag([1.0, 4.0]), [("x", 0), ("x", 1)]
        )
        got = predictive_log_density(post, [0.5, 0.0])
        expected = (
            -0.5 * (LOG_2PI + np.log(1.0) + 0.25)
            - 0.5 * (LOG_2PI + np.log(4.0) + 0.25)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        n = 12
        a = rng.normal(size=(n, n))
        cov = a @ a.T + n * np.eye(n)
        mean = rng.normal(size=n)
        y = rng.normal(size=n)
        post = PosteriorDistribution(mean, cov, [("x", i) for i in range(n)])
        oracle = multivariate_normal.logpdf(y, mean=mean, cov=cov)
        assert predictive_log_density(post, y) == pytest.approx(oracle, abs=1e-10)

    def test_variability_term_added(self):
        post = PosteriorDistribution(np.array([0.0]), np.array([[1.0]]), [("x", 0)])
        got = predictive_log_density(post, [0.0], variability=(np.array([[3.0]]), 1.0))
        assert got == pytest.approx(-0.5 * (LOG_2PI + np.log(4.0)), rel=1e-12)

    def test_shape_mismatch(self):
        post = PosteriorDistribution(np.array([0.0]), np.array([[1.0]]), [("x", 0)])
        with pytest.raises(GridMismatch):
            predictive_log_density(post, [0.0, 1.0])


class TestSampling:
    def test_zero_covariance_returns_mean(self):
        post = PosteriorDistribution(
            np.array([3.0, 4.0]), np.zeros((2, 2)), [("x", 0), ("x", 1)]
        )
        draws = sample_posterior(post, 5, seed=1)
        np.testing.assert_array_equal(draws, np.tile([3.0, 4.0], (5, 1)))

    def test_deterministic_given_seed(self):
        post = PosteriorDistribution(
            np.array([0.0, 1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]), [("x", 0), ("x", 1)]
        )
        np.testing.assert_array_equal(
            sample_posterior(post, 100, seed=9), sample_posterior(post, 100, seed=9)
        )

    def test_identity_covariance_moments(self):
        m = 4
        post = PosteriorDistribution(np.zeros(m), np.eye(m), [("x", i) for i in range(m)])
        draws = sample_posterior(post, 10_000, seed=2)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.04)
        assert np.all((draws.var(axis=0) > 0.94) & (draws.var(axis=0) < 1.06))


class TestFit:
    def _model_and_scenarios(self, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        s1, s2 = two_scenario_setup(toy_impulse, toy_forcing, toy_kernel, toy_agents)
        train, _ = assemble_training_set([s1, s2])
        model = EmulatorModel(
            agents=toy_agents, impulse=toy_impulse, forcing=toy_forcing,
            kernel=toy_kernel, standardization=train.standardization,
        )
        return model, [s1, s2], train

    def test_all_fixed_returns_input(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch
    ):
        """The all-fixed likelihood comes from one ``condition``, through the
        fit's geometry: no separate prior is built."""
        from ebgp import inference

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        calls = {"condition": 0, "build_prior": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(inference, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(inference, name, counted)
        fixed = dataclasses.replace(model, fit=FitSettings(free=()))
        result = fit_hyperparameters(scenarios, train, fixed)
        assert result.evaluations == 0
        assert result.model is fixed
        assert len(result.trace) == 1
        assert calls == {"condition": 1, "build_prior": 0}

    def test_trace_nondecreasing_and_final_at_least_initial(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        initial = condition(build_prior(scenarios, model), train).log_likelihood
        model = dataclasses.replace(model, fit=FitSettings(
            free=("lengthscales", "variance", "sigma"), restarts=1, max_iterations=30
        ))
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        finite = [t for t in result.trace if np.isfinite(t)]
        assert np.all(np.diff(finite) >= 0)
        assert result.mll >= initial - 1e-9

    def test_gradient_matches_finite_differences(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """Every fittable row, the box model and the forcing coefficients
        (one of them negative) included."""
        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        jitter = condition(build_prior(scenarios, model), train).jitter
        params = FreeParameters(model, PARAMETER_NAMES)
        theta0, apply = params.theta0, params.apply
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = theta0 + rng.normal(scale=0.3, size=theta0.size)

            def objective(t):
                return frozen_objective(scenarios, train, apply(t), jitter=jitter)[0]

            _, grad = frozen_objective(scenarios, train, apply(theta), jitter=jitter)
            fd = finite_difference_gradient(objective, theta)
            assert np.all(np.abs(grad - fd) <= 1e-4 * (np.abs(fd) + 1e-6))

    def test_one_kernel_evaluation_per_evaluation(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch
    ):
        """With box-model parameters free, each objective evaluation
        evaluates the kernel once, with its gradients; the plain kernel is
        evaluated at most once in the whole fit."""
        from ebgp import kernels

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        calls = {"forcing_gram": 0, "forcing_gram_gradients": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(kernels, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(kernels, name, counted)
        model = dataclasses.replace(
            model, fit=FitSettings(free=("timescales", "sigma"), restarts=0, max_iterations=3)
        )
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        assert result.evaluations > 0
        assert calls["forcing_gram_gradients"] == result.evaluations
        assert calls["forcing_gram"] <= 1

    def test_fixed_parts_built_once_per_fit(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch
    ):
        """With only kernel rows and sigma free, the box-model blocks are
        built once per training scenario per fit, and each objective
        evaluation is one ``condition`` that factorises once: the start rung
        is the first evaluation's own."""
        from ebgp import ebm, inference, kernels

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        calls = {"temperature_operator": 0, "internal_variability_gram": 0, "cholesky": 0,
                 "condition": 0}
        for module, name in ((ebm, "temperature_operator"),
                             (kernels, "internal_variability_gram"), (inference, "cholesky"),
                             (inference, "condition")):

            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(inference, "_workers", lambda starts: 1)  # count in this process
        model = dataclasses.replace(model, fit=FitSettings(
            free=("lengthscales", "variance", "sigma"), restarts=1, max_iterations=10
        ))
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        assert result.evaluations > 2
        assert calls["temperature_operator"] == len(scenarios)
        assert calls["internal_variability_gram"] == len(scenarios)
        assert calls["cholesky"] == result.evaluations == calls["condition"]

    def test_rejected_evaluations_are_counted(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch
    ):
        """A later evaluation that is singular at the frozen rung is
        rejected and counted against its start, not raised."""
        from ebgp import inference

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        count = []

        def singular_second(*args, _original=inference.cholesky, **kwargs):
            count.append(1)
            if len(count) == 2:
                raise np.linalg.LinAlgError("2-th leading minor not positive definite")
            return _original(*args, **kwargs)

        monkeypatch.setattr(inference, "cholesky", singular_second)
        monkeypatch.setattr(inference, "_workers", lambda starts: 1)  # count in this process
        model = dataclasses.replace(
            model, fit=FitSettings(free=("variance", "sigma"), restarts=1, max_iterations=10)
        )
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        assert [start[3] for start in result.starts] == [1, 0]
        assert np.isfinite(result.mll)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the pool needs the fork start method")
    def test_worker_error_reraises_here(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch
    ):
        """An error raised inside a forked start re-raises in this process
        with its type, and no worker outlives the fit."""
        from ebgp import inference

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        here = os.getpid()

        def failing_in_workers(*args, _original=inference.mll_and_gradient, **kwargs):
            if os.getpid() != here:
                raise GridMismatch("raised in a worker")
            return _original(*args, **kwargs)

        monkeypatch.setattr(inference, "mll_and_gradient", failing_in_workers)
        monkeypatch.setattr(inference, "_workers", lambda starts: 2)
        model = dataclasses.replace(
            model, fit=FitSettings(free=("variance", "sigma"), restarts=1, max_iterations=5)
        )
        with pytest.raises(GridMismatch, match="raised in a worker"):
            fit_hyperparameters(scenarios, train, model, seed=0)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                        reason="the starts run in this process on this platform")
    @pytest.mark.parametrize("pins, starts, expected", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 6, 2),
        ({"MKL_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 6, 4),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "0"}, 6, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 6, 1),
        ({}, 6, 1),
    ])
    def test_workers_never_outnumber_the_cpus(self, monkeypatch, pins, starts, expected):
        """The pool runs at most one BLAS thread per usable CPU: with BLAS
        unpinned (one thread per CPU by default) the starts stay here."""
        from ebgp import inference

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in pins.items():
            monkeypatch.setenv(name, value)
        assert inference._workers(starts) == expected

    def test_singular_start_block_raises(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch
    ):
        """The first evaluation climbs the ladder: a start block singular on
        every rung is an error, not a rejected evaluation."""
        from ebgp import inference

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("1-th leading minor not positive definite")

        monkeypatch.setattr(inference, "cholesky", singular)
        model = dataclasses.replace(
            model, fit=FitSettings(free=("variance",), restarts=0, max_iterations=5)
        )
        with pytest.raises(SingularGram):
            fit_hyperparameters(scenarios, train, model, seed=0)

    def test_sigma_zero_cannot_be_freed(self, toy_forcing, toy_kernel, toy_agents):
        imp = ImpulseParams([3.5, 80.0], [0.45, 0.30], variability_amplitude=0.0)
        model = EmulatorModel(
            agents=toy_agents, impulse=imp, forcing=toy_forcing, kernel=toy_kernel
        )
        with pytest.raises(ValueError):
            FreeParameters(model, ("sigma",))

    def test_ebm_parameters_can_move(self, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        model = dataclasses.replace(
            model, fit=FitSettings(free=("equilibrium_responses",), restarts=0, max_iterations=5)
        )
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        assert result.model.impulse.equilibrium_responses.shape == (2,)
        assert np.isfinite(result.mll)

    def test_forcing_coefficients_can_move(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """Forcing sensitivities travel untransformed (they may be negative)
        and the objective still improves."""
        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        initial = condition(build_prior(scenarios, model), train).log_likelihood
        model = dataclasses.replace(
            model, fit=FitSettings(free=("forcing", "sigma"), restarts=0, max_iterations=10)
        )
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        assert result.mll >= initial - 1e-9
        assert result.model.forcing["so2"].alpha_lin != toy_forcing["so2"].alpha_lin \
            or result.model.impulse.variability_amplitude != toy_impulse.variability_amplitude

    def test_nonfinite_data_raises(self, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        from ebgp.errors import NonFinite

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        broken = dataclasses.replace(
            train, temperatures=np.full_like(train.temperatures, np.nan)
        )
        model = dataclasses.replace(
            model, fit=FitSettings(free=("variance",), restarts=0, max_iterations=5)
        )
        with pytest.raises(NonFinite):
            fit_hyperparameters(scenarios, broken, model, seed=0)

    def test_nonfinite_data_raises_when_all_fixed(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """An all-fixed fit is one evaluation of the free fit's objective, so
        a NaN training temperature is the same NonFinite error."""
        from ebgp.errors import NonFinite

        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        temperatures = train.temperatures.copy()
        temperatures[3] = np.nan
        broken = dataclasses.replace(train, temperatures=temperatures)
        model = dataclasses.replace(model, fit=FitSettings(free=()))
        with pytest.raises(NonFinite):
            fit_hyperparameters(scenarios, broken, model)

    @pytest.mark.parametrize(
        "free", [("lengthscales", "variance", "sigma"), ("timescales", "sigma")]
    )
    def test_variability_at_training_rows_once_per_evaluation(
        self, toy_impulse, toy_forcing, toy_kernel, toy_agents, monkeypatch, free
    ):
        """Gamma at the training rows is assembled only inside ``condition``,
        in its noisy block: once per objective evaluation, whichever rows are
        free, and never as a block-diagonal Gamma of its own."""
        model, scenarios, train = self._model_and_scenarios(
            toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        calls = []
        for name in ("variability", "noisy_block"):
            def counted(self, *args, _original=getattr(GPPrior, name), _name=name):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(GPPrior, name, counted)
        model = dataclasses.replace(
            model, fit=FitSettings(free=free, restarts=0, max_iterations=5)
        )
        result = fit_hyperparameters(scenarios, train, model, seed=0)
        assert result.evaluations > 1
        assert calls == ["noisy_block"] * result.evaluations


class TestCholeskyLadder:
    def test_escalates_then_fails(self):
        ones = np.ones((4, 4))  # rank one, needs jitter
        factor, _, jitter, _ = factorise(ones, np.zeros(4))
        assert jitter > 0
        with pytest.raises(SingularGram):
            factorise(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), ladder=(1e-12,))

    @pytest.mark.parametrize("block, jitter", [
        (np.array([[1e308, 0.0], [0.0, 1e308]]), None),  # the mean diagonal overflows
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), None),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), None),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-6),
    ], ids=["overflowing mean diagonal", "infinite entry", "nan entry",
            "nan entry at a frozen jitter"])
    def test_non_finite_block_or_rung(self, block, jitter):
        """A block, or a rung at its mean diagonal, that is not finite is
        NonFinite, without a warning; a frozen jitter skips the ladder, not
        the check."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=r"training block \(n=2\)"):
                factorise(block, np.zeros(2), jitter)

    def test_condition_factors_the_noisy_block_in_place(self, setup, monkeypatch):
        _, _, train, prior = setup
        blocks = []

        def captured(self, train, _original=GPPrior.noisy_block):
            blocks.append(_original(self, train))
            return blocks[-1]

        monkeypatch.setattr(GPPrior, "noisy_block", captured)
        assert np.shares_memory(condition(prior, train).factor, blocks[0])

    def test_failed_rung_restores_the_block_exactly(self, setup, monkeypatch):
        """A rung that fails after writing its factor over the block leaves
        the next rung the same block as ``factorise``'s copy; on every path
        the factor's strict upper triangle is exactly 0."""
        from ebgp import inference

        _, _, train, prior = setup
        block, residual = prior.noisy_block(train), train.temperatures - prior.mean[:train.n]
        first, frozen = condition(prior, train), condition(prior, train, jitter=1e-3)
        calls = []

        def singular_first(*args, _original=inference.cholesky, **kwargs):
            calls.append(1)
            factor = _original(*args, **kwargs)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("2-th leading minor not positive definite")
            return factor

        monkeypatch.setattr(inference, "cholesky", singular_first)
        escalated = condition(prior, train)
        monkeypatch.undo()
        expected = factorise(block, residual, jitter=jitter_rungs(block)[1])
        got = (escalated.factor, escalated.alpha, escalated.jitter, escalated.log_likelihood)
        assert len(calls) == 2 and all(map(np.array_equal, got, expected))
        for factor in (first.factor, escalated.factor, frozen.factor, expected[0]):
            assert not np.triu(factor, 1).any()

    def test_failed_rung_builds_the_block_again(self, setup, monkeypatch):
        """A rung that fails after overwriting both triangles of its block
        leaves nothing the next rung reads: ``condition`` builds the noisy
        block again, and the escalated result is bit for bit ``factorise`` at
        the second rung."""
        from ebgp import inference

        _, _, train, prior = setup
        block, residual = prior.noisy_block(train), train.temperatures - prior.mean[:train.n]
        builds, calls = [], []

        def counted(self, train, _original=GPPrior.noisy_block):
            builds.append(1)
            return _original(self, train)

        def poisoning_first(a, _original=inference.cholesky):
            calls.append(1)
            if len(calls) == 1:
                a[...] = np.nan
                raise np.linalg.LinAlgError("1-th leading minor not positive definite")
            return _original(a)

        monkeypatch.setattr(GPPrior, "noisy_block", counted)
        monkeypatch.setattr(inference, "cholesky", poisoning_first)
        escalated = condition(prior, train)
        monkeypatch.undo()
        expected = factorise(block, residual, jitter=jitter_rungs(block)[1])
        got = (escalated.factor, escalated.alpha, escalated.jitter, escalated.log_likelihood)
        assert len(calls) == len(builds) == 2 and all(map(np.array_equal, got, expected))

    def test_escalated_rung_factors_the_callers_block(self, monkeypatch):
        """``factorise`` on a block that is symmetric only to rounding: a rung
        after a failed one factors the caller's lower triangle again, as the
        first rung did, not the mirrored upper one, and the block is unchanged."""
        from ebgp import inference

        rng = np.random.default_rng(4)
        root = rng.normal(size=(6, 6))
        block = root @ root.T + np.triu(rng.normal(scale=1e-12, size=(6, 6)), 1)
        before, residual = block.copy(), rng.normal(size=6)
        calls = []

        def singular_first(*args, _original=inference.cholesky, **kwargs):
            calls.append(1)
            factor = _original(*args, **kwargs)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("2-th leading minor not positive definite")
            return factor

        monkeypatch.setattr(inference, "cholesky", singular_first)
        escalated = factorise(block, residual)
        monkeypatch.undo()
        expected = factorise(block, residual, jitter=jitter_rungs(block)[1])
        assert len(calls) == 2 and all(map(np.array_equal, escalated, expected))
        assert np.array_equal(block, before)

    def test_posterior_that_is_not_finite(self, setup):
        """An infinite residual or cross-covariance is NonFinite, naming the
        queried rows, not a LAPACK or finite-check error."""
        _, _, train, prior = setup
        n, rows = train.n, slice(train.n, prior.n)
        block, residual = prior.noisy_block(train), train.temperatures - prior.mean[:n]
        cross = prior.physics_gram(rows, slice(0, n))
        poisoned = [residual.copy(), cross.copy()]
        poisoned[0][3] = poisoned[1][2, 5] = np.inf
        for r, c in ((poisoned[0], cross), (residual, poisoned[1])):
            conditioned = Conditioned(prior, *factorise(block, r))
            with pytest.raises(NonFinite, match=f"prior rows {n}:{prior.n} is not finite"):
                conditioned.posterior(rows, prior.mean[rows], prior.physics_gram(rows, rows), c)


def test_one_cholesky_route():
    """``inference.cholesky`` is the package's only route to a Cholesky
    factorisation: no other code names scipy's ``cholesky`` or
    ``cho_factor``, numpy's ``cholesky`` or LAPACK's ``dpotrf``."""
    routines = {"cholesky", "cho_factor", "dpotrf"}
    found = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Attribute) and node.attr in routines:
            found.add(f"{module}.{scope}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(f"{module}.{alias.asname or alias.name}" for alias in node.names
                         if alias.name.split(".")[-1] in routines)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in (Path(__file__).resolve().parents[1] / "src" / "ebgp").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    assert found == {"inference.cholesky"}
