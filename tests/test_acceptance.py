"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import csv
import dataclasses
from contextlib import contextmanager

import numpy as np
from scipy.stats import multivariate_normal

from conftest import DATA_DIR, frozen_objective
from ebgp.cli import main as cli_main
from ebgp.ebm import AgentForcing, ImpulseParams, TimeGrid, thermal_response
from ebgp.inference import (
    PARAMETER_NAMES,
    EmulatorModel,
    FitSettings,
    FreeParameters,
    GPPrior,
    build_prior,
    condition,
    fit_hyperparameters,
    posterior_forcing,
    posterior_temperature,
)
from ebgp.kernels import KernelConfig, forcing_gram, internal_variability_gram
from ebgp.metrics import (
    area_weighted_mean,
    deterministic_scores,
    gaussian_crps,
    probabilistic_scores,
)
from ebgp.oracles import (
    BoxModelParams,
    box_ode,
    cell_posterior,
    diagonalization,
    diagonalize,
    exact_variability_gram,
    finite_difference_gradient,
    mc_crps,
    mc_temperature_covariance,
    quadrature_thermal_covariance,
    response_times,
    rk4_box_temperature,
    scaled_frobenius_distance,
    sde_variability_covariance,
    temperature_gram,
)
from ebgp.scenario import (
    AgentSpec,
    Scenario,
    SpatialGrid,
    TrainingSet,
    assemble_training_set,
)
from ebgp.spatial import PatternScalingMap, fit_pattern_scaling, spatial_posterior


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def random_box(rng, k=None):
    k = k if k is not None else int(rng.integers(1, 4))
    return BoxModelParams(
        heat_capacities=rng.uniform(3.0, 120.0, size=k),
        heat_transfer=rng.uniform(0.4, 3.0, size=k),
        deep_ocean_efficacy=float(rng.uniform(0.6, 1.6)),
    )


def test_criterion_01_diagonalization_fidelity():
    with criterion(1, "diagonalization fidelity"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            box = random_box(rng)
            a, b = box_ode(box)
            evals, evecs = diagonalization(a)
            rebuilt = evecs @ np.diag(evals) @ np.linalg.inv(evecs)
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
            impulse = diagonalize(box)
            gain = np.linalg.solve(a, -b)[0]
            assert abs(impulse.equilibrium_responses.sum() - gain) <= 1e-10 * abs(gain)


def test_criterion_02_impulse_vs_box_equivalence():
    with criterion(2, "impulse-vs-box equivalence"):
        rng = np.random.default_rng(2024)
        grid = TimeGrid(1850, 250)
        forcing = np.full(250, 3.0)
        for _ in range(20):
            box = random_box(rng)
            impulse = diagonalize(box)
            _, temp = thermal_response(forcing, impulse, grid)
            reference = rk4_box_temperature(box, forcing, grid, substeps=60)
            rel = np.max(np.abs(temp - reference)) / np.max(np.abs(reference))
            assert rel <= 1e-6


TOY_IMPULSE = ImpulseParams([3.5, 80.0], [0.45, 0.30])
TOY_GRID = TimeGrid(2000, 30)
_toy_t = np.arange(30, dtype=float)
TOY_EMISSIONS = np.column_stack([_toy_t / 10.0, np.sin(_toy_t / 9.0)])
TOY_KERNEL = KernelConfig("matern32", [3.0, 4.0], 0.5, standardize_inputs=False)


def test_criterion_03_covariance_oracles():
    with criterion(3, "covariance oracle agreement"):
        analytic = temperature_gram(
            forcing_gram(TOY_EMISSIONS, TOY_EMISSIONS, TOY_KERNEL), TOY_IMPULSE, TOY_GRID
        )
        monte_carlo = mc_temperature_covariance(
            TOY_KERNEL, TOY_EMISSIONS, TOY_IMPULSE, TOY_GRID, n_samples=2000, seed=0
        )
        assert scaled_frobenius_distance(monte_carlo, analytic) <= 0.05
        quadrature = quadrature_thermal_covariance(
            TOY_KERNEL, TOY_EMISSIONS, TOY_IMPULSE, TOY_GRID, substeps=16
        )
        assert scaled_frobenius_distance(analytic, quadrature) <= 0.02


def test_criterion_04_internal_variability():
    with criterion(4, "internal variability"):
        # stationary variance of a single noisy mode
        one = ImpulseParams([4.0], [0.5])
        sigma = 0.3
        emp = sde_variability_covariance(one, sigma, TimeGrid(1900, 60), 5000, seed=1)
        target = sigma**2 * 0.5**2 / (2.0 * 4.0)
        assert abs(emp[-1, -1] - target) <= 0.05 * target

        # the exact covariance is the better early-time description
        two = ImpulseParams([3.0, 40.0], [0.4, 0.3])
        early_grid = TimeGrid(1900, 10)
        emp = sde_variability_covariance(two, sigma, early_grid, 5000, seed=2)
        exact = sigma**2 * exact_variability_gram(two, early_grid)
        stationary = sigma**2 * internal_variability_gram(two, early_grid)
        assert scaled_frobenius_distance(emp, exact) < scaled_frobenius_distance(
            emp, stationary
        )

        # and it relaxes onto the stationary form within one percent
        tail = ImpulseParams([3.0, 8.0], [0.4, 0.3])
        tail_grid = TimeGrid(1900, 120)
        exact = exact_variability_gram(tail, tail_grid)
        stationary = internal_variability_gram(tail, tail_grid)
        t = response_times(tail_grid)
        late = np.minimum(t[:, None], t[None, :]) > 10.0 * tail.timescales.max()
        gap = np.max(np.abs((exact - stationary)[late]))
        assert gap <= 0.01 * np.max(np.abs(stationary))


def _posterior_setup():
    impulse = ImpulseParams([3.5, 80.0], [0.45, 0.30], variability_amplitude=0.12)
    forcing = {
        "co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
        "so2": AgentForcing(alpha_lin=-0.02, c0=1.0, concentration_per_emission=1.0),
    }
    agents = [AgentSpec("co2", "cumulative_emission"), AgentSpec("so2", "emission")]
    kernel = KernelConfig("matern32", [1.0, 1.5], 0.3)
    n = 40
    t = np.arange(n, dtype=float)
    s1 = Scenario("a", TimeGrid(1900, n), {"co2": np.cumsum(1 + 0.1 * t), "so2": 2 + np.sin(t / 8)})
    s2 = Scenario("b", TimeGrid(1900, n), {"co2": np.cumsum(1 + 0.05 * t), "so2": 1 + 0.02 * t})
    prior0 = build_prior([s1, s2], EmulatorModel(agents, impulse, forcing, kernel))
    rng = np.random.default_rng(3)
    cov = prior0.physics_gram() + impulse.variability_amplitude**2 * prior0.variability(slice(None))
    y = prior0.mean + np.linalg.cholesky(cov + 1e-10 * np.eye(2 * n)) @ rng.standard_normal(2 * n)
    s1.global_temperature = y[:n]
    s2.global_temperature = y[n:]
    train, _ = assemble_training_set([s1, s2], holdout=("b",))
    model = EmulatorModel(agents=agents, impulse=impulse, forcing=forcing, kernel=kernel,
                          standardization=train.standardization)
    return train, build_prior([s1, s2], model), [s1, s2], model


def test_criterion_05_posterior_exactness():
    with criterion(5, "posterior exactness"):
        train, prior, _, _ = _posterior_setup()

        # empty training set: posterior is the prior, exactly
        empty = TrainingSet(temperatures=np.empty(0), index=[])
        rows = slice(train.n, prior.n)
        post = posterior_temperature(condition(prior, empty), rows)
        assert np.max(np.abs(post.mean - prior.mean[rows])) <= 1e-12
        assert np.max(np.abs(post.covariance - prior.physics_gram()[rows, rows])) <= 1e-12

        # noiseless interpolation reproduces the training values
        imp0 = ImpulseParams([0.2], [0.5], variability_amplitude=0.0)
        agents = [AgentSpec("x", "emission")]
        n = 10
        rng = np.random.default_rng(0)
        scen = Scenario(
            "i", TimeGrid(2000, n),
            emissions={"x": 1.0 + 4.0 * np.arange(n, dtype=float)},
            global_temperature=0.5 * np.tanh(rng.normal(size=n)),
        )
        itrain, _ = assemble_training_set([scen])
        iprior = build_prior([scen], EmulatorModel(
            agents, imp0, {"x": AgentForcing()},
            KernelConfig("matern12", [1.0], 1.0, standardize_inputs=False),
        ))
        ipost = posterior_temperature(condition(iprior, itrain), slice(None))
        assert np.max(np.abs(ipost.mean - scen.global_temperature)) <= 1e-6
        assert np.max(np.diag(ipost.covariance)) <= 1e-6

        # the forcing posterior convolves to the temperature posterior
        full = slice(None)
        post_f = posterior_forcing(condition(prior, train), full)
        post_t = posterior_temperature(condition(prior, train), full)
        convolved = prior.apply_response(post_f.mean)
        assert np.max(np.abs(convolved - post_t.mean)) <= 1e-8


def _degenerate_prior(cov):
    n = cov.shape[0]
    return GPPrior(
        mean=np.zeros(n),
        sigma=0.0,
        index=[("x", 2000 + i) for i in range(n)],
        forcing_mean=np.zeros(n),
        kernel_gram=cov,
        kernel_rows=np.arange(n),
        response_blocks=[np.eye(n)],
        variability_blocks=[np.zeros((n, n))],
    )


def test_criterion_06_mll_and_gradients():
    with criterion(6, "marginal likelihood and gradients"):
        rng = np.random.default_rng(66)
        for _ in range(10):
            n = int(rng.integers(8, 33))
            a = rng.normal(size=(n, n))
            cov = a @ a.T + n * np.eye(n)
            y = rng.normal(size=n)
            prior = _degenerate_prior(cov)
            train = TrainingSet(temperatures=y, index=list(prior.index))
            mll = condition(prior, train).log_likelihood
            jitter = 1e-6 * np.mean(np.diag(cov))
            oracle = multivariate_normal.logpdf(
                y, mean=np.zeros(n), cov=cov + jitter * np.eye(n)
            )
            assert abs(mll - oracle) <= 1e-10 * max(1.0, abs(oracle))

        # analytic gradients of every fittable row against central
        # differences, on the training scenario's prior
        train, prior, scenarios, model = _posterior_setup()
        scenarios = scenarios[:1]
        jitter = condition(prior, train).jitter
        params = FreeParameters(model, PARAMETER_NAMES)
        theta0, apply = params.theta0, params.apply

        def objective(theta):
            return frozen_objective(scenarios, train, apply(theta), jitter=jitter)[0]

        rng = np.random.default_rng(67)
        for _ in range(20):
            theta = theta0 + rng.normal(scale=0.4, size=theta0.size)
            _, grad = frozen_objective(scenarios, train, apply(theta), jitter=jitter)
            fd = finite_difference_gradient(objective, theta)
            assert np.all(np.abs(grad - fd) <= 1e-4 * (np.abs(fd) + 1e-6))


def test_criterion_07_hyperparameter_recovery():
    with criterion(7, "hyperparameter recovery"):
        true_ell, true_var, true_sigma = 1.0, 0.5, 0.4
        impulse_true = ImpulseParams([0.5, 8.0], [0.45, 0.30], variability_amplitude=true_sigma)
        forcing = {"x": AgentForcing()}
        agents = [AgentSpec("x", "emission")]
        kernel_true = KernelConfig("matern32", [true_ell], true_var, standardize_inputs=False)

        n = 100
        t = np.arange(n, dtype=float)
        s1 = Scenario("a", TimeGrid(1900, n), {"x": 4.0 + 3.8 * np.sin(t / 13.0)})
        s2 = Scenario("b", TimeGrid(1900, n), {"x": 4.0 + 3.8 * np.sin(t / 9.0 + 2.0)})
        truth = EmulatorModel(agents=agents, impulse=impulse_true, forcing=forcing,
                              kernel=kernel_true)
        prior = build_prior([s1, s2], truth)
        cov = prior.physics_gram() + true_sigma**2 * prior.variability(slice(None))
        rng = np.random.default_rng(123)
        y = np.linalg.cholesky(cov + 1e-10 * np.eye(2 * n)) @ rng.standard_normal(2 * n)
        s1.global_temperature = y[:n]
        s2.global_temperature = y[n:]
        train, _ = assemble_training_set([s1, s2])
        assert train.n == 200

        start = dataclasses.replace(
            truth,
            impulse=dataclasses.replace(impulse_true, variability_amplitude=0.15),
            kernel=dataclasses.replace(kernel_true, lengthscales=np.array([3.0])),
            fit=FitSettings(free=("lengthscales", "sigma"), restarts=2, max_iterations=150),
        )
        result = fit_hyperparameters([s1, s2], train, start, seed=0)
        fitted_ell = result.model.kernel.lengthscales[0]
        fitted_sigma = result.model.impulse.variability_amplitude
        assert abs(fitted_ell - true_ell) <= 0.2 * true_ell
        assert abs(fitted_sigma - true_sigma) <= 0.2 * true_sigma
        finite = [v for v in result.trace if np.isfinite(v)]
        assert np.all(np.diff(finite) >= 0)


def test_criterion_08_metrics():
    with criterion(8, "metrics"):
        # closed-form CRPS against the million-sample estimator
        for mean, std, value, seed in [(0.0, 1.0, 0.0, 0), (0.3, 1.0, 0.0, 1), (-1.0, 0.5, 0.5, 2)]:
            closed = float(gaussian_crps(mean, std, value)[0])
            assert abs(closed - mc_crps(mean, std, value, 1_000_000, seed)) <= 1e-3

        # calibration of self-generated predictions
        rng = np.random.default_rng(8)
        n = 10_000
        mean = rng.normal(size=n)
        variance = rng.uniform(0.5, 2.0, size=n)
        truth = mean + np.sqrt(variance) * rng.standard_normal(n)
        _, calib, _ = probabilistic_scores(mean, variance, truth)
        assert 0.93 <= calib <= 0.97

        # score ordering on random pairs
        for _ in range(1000):
            pred = rng.normal(size=int(rng.integers(1, 20)))
            target = rng.normal(size=pred.size)
            rmse, mae, bias = deterministic_scores(pred, target)
            assert rmse >= mae - 1e-12
            assert mae >= abs(bias) - 1e-12

        # uniform field averages to the constant
        grid = SpatialGrid([-60.0, 0.0, 60.0], [0.0, 120.0, 240.0])
        assert abs(area_weighted_mean(np.full((3, 3), 2.5), grid) - 2.5) <= 1e-12


def test_criterion_09_spatial_reduction():
    with criterion(9, "spatial reduction"):
        train, prior, _, _ = _posterior_setup()
        grid = SpatialGrid([-45.0, 45.0], [0.0, 180.0])
        pattern = PatternScalingMap(
            slope=np.ones(grid.shape), intercept=np.zeros(grid.shape),
            residual_variance=np.zeros(grid.shape), grid=grid,
        )
        rows = slice(None)
        local = np.repeat(train.temperatures, 4).reshape(train.n, 2, 2)
        reference = posterior_temperature(condition(prior, train), rows)
        for i in range(2):
            for j in range(2):
                cell = cell_posterior(pattern, prior, train, local, i, j, rows)
                assert np.max(np.abs(cell.mean - reference.mean)) <= 1e-10
                assert np.max(np.abs(cell.covariance - reference.covariance)) <= 1e-10
        mean, variance = spatial_posterior(pattern, prior, train, local, rows)
        for cell_mean, cell_variance in zip(mean.reshape(4, -1), variance.reshape(4, -1)):
            assert np.max(np.abs(cell_mean - reference.mean)) <= 1e-10
            assert np.max(np.abs(cell_variance - np.diag(reference.covariance))) <= 1e-10

        # pattern-scaling regression against the normal-equations oracle
        rng = np.random.default_rng(9)
        g = np.cumsum(rng.normal(size=60))
        slope = rng.normal(size=grid.shape)
        intercept = rng.normal(size=grid.shape)
        cube = (
            slope[None] * g[:, None, None]
            + intercept[None]
            + 0.2 * rng.normal(size=(60, 2, 2))
        )
        fitted = fit_pattern_scaling(g, cube, grid)
        design = np.column_stack([g, np.ones(60)])
        for i in range(2):
            for j in range(2):
                coef = np.linalg.solve(design.T @ design, design.T @ cube[:, i, j])
                assert abs(fitted.slope[i, j] - coef[0]) <= 1e-10
                assert abs(fitted.intercept[i, j] - coef[1]) <= 1e-10


def test_criterion_10_end_to_end_cli(tmp_path):
    with criterion(10, "end-to-end emulation protocol"):
        assert DATA_DIR.exists(), "bundled synthetic dataset is missing"
        config = DATA_DIR / "model_config.txt"
        scenario_paths = [
            str(DATA_DIR / f"{name}.csv")
            for name in ("historical", "ssp_low", "ssp_mid", "ssp_high")
        ]
        for holdout in ("ssp_low", "ssp_mid", "ssp_high"):
            model_path = tmp_path / f"model_{holdout}.txt"
            pred_path = tmp_path / f"pred_{holdout}.csv"
            score_path = tmp_path / f"scores_{holdout}.csv"
            assert cli_main([
                "fit", "--config", str(config), "--scenario", *scenario_paths,
                "--holdout", holdout, "--out", str(model_path), "--seed", "7",
            ]) == 0
            assert cli_main([
                "emulate", "--model", str(model_path), "--scenario", *scenario_paths,
                "--holdout", holdout, "--out", str(pred_path),
            ]) == 0
            assert cli_main([
                "evaluate", "--predictions", str(pred_path),
                "--scenario", str(DATA_DIR / f"{holdout}.csv"),
                "--period", "2015:2050", "--out", str(score_path),
            ]) == 0
            with open(score_path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            posterior = {k: rows[0][k] for k in rows[0]}
            prior = {k: rows[1][k] for k in rows[1]}
            assert posterior["label"] == "posterior" and prior["label"] == "prior"
            assert float(posterior["rmse"]) < float(prior["rmse"])
            assert 0.85 <= float(posterior["calib95"]) <= 1.0

        # byte-identical rerun under a fixed seed
        again_model = tmp_path / "model_again.txt"
        again_pred = tmp_path / "pred_again.csv"
        assert cli_main([
            "fit", "--config", str(config), "--scenario", *scenario_paths,
            "--holdout", "ssp_mid", "--out", str(again_model), "--seed", "7",
        ]) == 0
        assert cli_main([
            "emulate", "--model", str(again_model), "--scenario", *scenario_paths,
            "--holdout", "ssp_mid", "--out", str(again_pred),
        ]) == 0
        assert again_model.read_bytes() == (tmp_path / "model_ssp_mid.txt").read_bytes()
        assert again_pred.read_bytes() == (tmp_path / "pred_ssp_mid.csv").read_bytes()
