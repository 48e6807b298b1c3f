import numpy as np
import pytest

from ebgp.errors import GridMismatch, SchemaError, SingularGram
from ebgp.inference import (
    Conditioned,
    EmulatorModel,
    build_prior,
    condition,
    factorise,
    posterior_temperature,
)
from ebgp.metrics import area_weighted_mean
from ebgp.oracles import cell_posterior, cell_prior
from ebgp.scenario import SpatialGrid, TrainingSet, assemble_training_set
from ebgp.spatial import PatternScalingMap, fit_pattern_scaling, spatial_posterior

GRID = SpatialGrid([-45.0, 0.0, 45.0], [0.0, 120.0, 240.0])


def cube_from(global_series, slope, intercept, noise=None):
    cube = slope[None, :, :] * np.asarray(global_series)[:, None, None] + intercept[None, :, :]
    if noise is not None:
        cube = cube + noise
    return cube


class TestPatternScaling:
    def test_identity_pattern(self):
        g = np.linspace(0.0, 2.0, 30)
        ones = np.ones(GRID.shape)
        pattern = fit_pattern_scaling(g, cube_from(g, ones, 0.0 * ones), GRID)
        np.testing.assert_allclose(pattern.slope, 1.0, atol=1e-12)
        np.testing.assert_allclose(pattern.intercept, 0.0, atol=1e-12)
        np.testing.assert_allclose(pattern.residual_variance, 0.0, atol=1e-20)

    def test_exact_affine_cell(self):
        g = np.linspace(-1.0, 3.0, 25)
        slope = np.full(GRID.shape, 2.0)
        intercept = np.full(GRID.shape, 0.5)
        pattern = fit_pattern_scaling(g, cube_from(g, slope, intercept), GRID)
        np.testing.assert_allclose(pattern.slope, 2.0, atol=1e-12)
        np.testing.assert_allclose(pattern.intercept, 0.5, atol=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        g1 = np.cumsum(rng.normal(size=40))
        g2 = np.cumsum(rng.normal(size=30))
        slope = rng.normal(size=GRID.shape)
        intercept = rng.normal(size=GRID.shape)
        noise1 = 0.3 * rng.normal(size=(40, *GRID.shape))
        noise2 = 0.3 * rng.normal(size=(30, *GRID.shape))
        g = np.concatenate([g1, g2])
        local = np.concatenate(
            [cube_from(g1, slope, intercept, noise1), cube_from(g2, slope, intercept, noise2)]
        )
        pattern = fit_pattern_scaling(g, local, GRID)
        design = np.column_stack([g, np.ones(g.size)])
        for i in range(3):
            for j in range(3):
                coef = np.linalg.solve(design.T @ design, design.T @ local[:, i, j])
                assert pattern.slope[i, j] == pytest.approx(coef[0], abs=1e-10)
                assert pattern.intercept[i, j] == pytest.approx(coef[1], abs=1e-10)
                resid = local[:, i, j] - design @ coef
                assert pattern.residual_variance[i, j] == pytest.approx(
                    resid @ resid / (g.size - 2), rel=1e-10
                )

    def test_residuals_orthogonal_to_regressor(self):
        rng = np.random.default_rng(1)
        g = np.cumsum(rng.normal(size=50))
        local = cube_from(
            g, rng.normal(size=GRID.shape), rng.normal(size=GRID.shape),
            0.5 * rng.normal(size=(50, *GRID.shape)),
        )
        pattern = fit_pattern_scaling(g, local, GRID)
        fitted = (
            pattern.slope[None] * g[:, None, None] + pattern.intercept[None]
        )
        residual = local - fitted
        dots = np.einsum("t,tij->ij", g - g.mean(), residual)
        scale = np.linalg.norm(g - g.mean()) * np.sqrt(
            np.einsum("tij,tij->ij", residual, residual)
        )
        assert np.all(np.abs(dots) <= 1e-8 * np.maximum(scale, 1e-12))

    def test_constant_global_rejected(self):
        g = np.full(20, 1.5)
        with pytest.raises(SchemaError, match="global temperature series is constant"):
            fit_pattern_scaling(g, cube_from(g, np.ones(GRID.shape), np.zeros(GRID.shape)), GRID)

    def test_too_few_points(self):
        with pytest.raises(Exception):
            fit_pattern_scaling(np.array([1.0]), np.ones((1, 3, 3)), GRID)


def global_setup(scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents):
    rng = np.random.default_rng(5)
    s1 = scenario_factory("a", 30, temperature=None)
    s1.global_temperature = rng.normal(size=30).cumsum() * 0.05
    train, _ = assemble_training_set([s1])
    prior = build_prior([s1], EmulatorModel(
        toy_agents, toy_impulse, toy_forcing, toy_kernel, train.standardization
    ))
    return s1, train, prior


class TestSpatialPrior:
    def pattern(self, slope, intercept, residual=0.0):
        shape = GRID.shape
        return PatternScalingMap(
            slope=np.full(shape, slope),
            intercept=np.full(shape, intercept),
            residual_variance=np.full(shape, residual),
            grid=GRID,
        )

    def test_zero_slope(self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        _, _, prior = global_setup(scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents)
        cell, _ = cell_prior(self.pattern(0.0, 0.7), prior, 1, 1)
        np.testing.assert_allclose(cell.mean, 0.7)
        np.testing.assert_array_equal(cell.physics_gram(), 0.0)

    def test_unit_slope_is_global_prior(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        _, _, prior = global_setup(scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents)
        cell, _ = cell_prior(self.pattern(1.0, 0.0), prior, 0, 2)
        np.testing.assert_array_equal(cell.mean, prior.mean)
        np.testing.assert_array_equal(cell.physics_gram(), prior.physics_gram())

    def test_negative_slope_scales_quadratically(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        _, _, prior = global_setup(scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents)
        cell, _ = cell_prior(self.pattern(-0.5, 0.2), prior, 2, 0)
        np.testing.assert_allclose(cell.mean, -0.5 * prior.mean + 0.2)
        np.testing.assert_allclose(
            cell.physics_gram(), 0.25 * prior.physics_gram()
        )
        np.testing.assert_allclose(
            np.diag(cell.physics_gram()),
            0.25 * np.diag(prior.physics_gram()),
            atol=0,
        )

    def test_residual_variance_becomes_white_noise(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        _, _, prior = global_setup(scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents)
        _, noise = cell_prior(self.pattern(1.0, 0.0, residual=0.04), prior, 0, 0)
        np.testing.assert_allclose(noise, 0.04)


def oracle_field(pattern, prior, train, local, rows):
    """Per-cell Cholesky posteriors of every cell, keyed by (i, j)."""
    n_lat, n_lon = pattern.grid.shape
    return {
        (i, j): cell_posterior(pattern, prior, train, local, i, j, rows)
        for i in range(n_lat)
        for j in range(n_lon)
    }


def column_relative_error(got, reference):
    """Largest deviation relative to the largest magnitude of the reference."""
    scale = np.max(np.abs(reference))
    return np.max(np.abs(got - reference)) / (scale if scale > 0 else 1.0)


class TestSpatialPosterior:
    def test_no_observations_returns_cell_priors(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        _, _, prior = global_setup(scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents)
        pattern = PatternScalingMap(
            slope=np.full(GRID.shape, 0.8),
            intercept=np.full(GRID.shape, 0.1),
            residual_variance=np.zeros(GRID.shape),
            grid=GRID,
        )
        empty = TrainingSet(temperatures=np.empty(0), index=[])
        rows = slice(None)
        local = np.empty((0, *GRID.shape))
        for cell in oracle_field(pattern, prior, empty, local, rows).values():
            np.testing.assert_allclose(cell.mean, 0.8 * prior.mean + 0.1)
            np.testing.assert_allclose(cell.covariance, 0.64 * prior.physics_gram())
        mean, variance = spatial_posterior(pattern, prior, empty, local, rows)
        for cell_mean, cell_variance in zip(mean.reshape(-1, prior.n),
                                            variance.reshape(-1, prior.n)):
            np.testing.assert_allclose(cell_mean, 0.8 * prior.mean + 0.1)
            np.testing.assert_allclose(cell_variance, 0.64 * np.diag(prior.physics_gram()))

    def test_identity_pattern_reduces_to_global(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        _, train, prior = global_setup(
            scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        pattern = PatternScalingMap(
            slope=np.ones(GRID.shape), intercept=np.zeros(GRID.shape),
            residual_variance=np.zeros(GRID.shape), grid=GRID,
        )
        rows = slice(None)
        local = np.repeat(
            train.temperatures[:, None, None], GRID.shape[0] * GRID.shape[1], axis=1
        ).reshape(train.n, *GRID.shape)
        reference = posterior_temperature(condition(prior, train), rows)
        for cell in oracle_field(pattern, prior, train, local, rows).values():
            np.testing.assert_allclose(cell.mean, reference.mean, atol=1e-10)
            np.testing.assert_allclose(cell.covariance, reference.covariance, atol=1e-10)
        mean, variance = spatial_posterior(pattern, prior, train, local, rows)
        for cell_mean, cell_variance in zip(mean.reshape(-1, prior.n),
                                            variance.reshape(-1, prior.n)):
            np.testing.assert_allclose(cell_mean, reference.mean, atol=1e-10)
            np.testing.assert_allclose(cell_variance, np.diag(reference.covariance), atol=1e-10)

    def test_two_cells_match_independent_posteriors(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """Each cell must equal a standalone posterior with the cell's
        scaled prior and its own observations."""
        _, train, prior = global_setup(
            scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        assert train.n == prior.n  # the training rows are all prior rows, in order
        grid2 = SpatialGrid([0.0], [0.0, 180.0])
        pattern = PatternScalingMap(
            slope=np.array([[1.4, -0.6]]), intercept=np.array([[0.2, -0.1]]),
            residual_variance=np.array([[0.01, 0.02]]), grid=grid2,
        )
        rng = np.random.default_rng(8)
        local = rng.normal(size=(train.n, 1, 2))
        rows = slice(None)
        field = oracle_field(pattern, prior, train, local, rows)
        mean, variance = spatial_posterior(pattern, prior, train, local, rows)
        for j in range(2):
            cell, noise = cell_prior(pattern, prior, 0, j)
            y = local[:, 0, j] - cell.mean
            k = cell.physics_gram()
            block = k + (cell.sigma**2 * cell.variability(rows) + np.diag(noise))
            reference = Conditioned(cell, *factorise(block, y)).posterior(
                rows, cell.mean, k, k
            )
            np.testing.assert_allclose(field[(0, j)].mean, reference.mean, atol=0)
            np.testing.assert_allclose(field[(0, j)].covariance, reference.covariance, atol=0)
            assert column_relative_error(mean[0, j], reference.mean) <= 1e-12
            assert column_relative_error(variance[0, j], np.diag(reference.covariance)) <= 1e-12

    def test_batched_matches_per_cell_oracle(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """The eigenbasis path against one Cholesky factorization per cell,
        on held-out rows, with positive, negative and zero slopes.  Cell
        (1, 1) has zero slope and zero residual variance, so its block is
        zero and its jitter rests on the unit scale of a non-positive
        mean diagonal."""
        rng = np.random.default_rng(11)
        s1 = scenario_factory("a", 30, seed=0)
        s2 = scenario_factory("b", 30, seed=4)
        s1.global_temperature = rng.normal(size=30).cumsum() * 0.05
        train, _ = assemble_training_set([s1, s2], holdout=("b",))
        prior = build_prior([s1, s2], EmulatorModel(
            toy_agents, toy_impulse, toy_forcing, toy_kernel, train.standardization
        ))
        grid = SpatialGrid([-30.0, 30.0], [0.0, 120.0, 240.0])
        pattern = PatternScalingMap(
            slope=np.array([[1.3, -0.7, 0.0], [0.4, 0.0, -1.1]]),
            intercept=rng.normal(size=grid.shape),
            residual_variance=np.array([[0.01, 0.02, 0.03], [0.005, 0.0, 0.015]]),
            grid=grid,
        )
        local = (
            pattern.slope * train.temperatures[:, None, None] + pattern.intercept
            + 0.1 * rng.normal(size=(train.n, *grid.shape))
        )
        rows = slice(train.n, prior.n)
        field = oracle_field(pattern, prior, train, local, rows)
        reference_mean = np.array([[field[(i, j)].mean for j in range(3)] for i in range(2)])
        reference_variance = np.array(
            [[np.diag(field[(i, j)].covariance) for j in range(3)] for i in range(2)]
        )
        mean, variance = spatial_posterior(pattern, prior, train, local, rows)
        assert mean.shape == variance.shape == (2, 3, 30)
        assert column_relative_error(mean, reference_mean) <= 1e-12
        assert column_relative_error(variance, reference_variance) <= 1e-12
        np.testing.assert_array_equal(variance[1, 1], 0.0)

    def test_singular_cell_block_raises(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        """A cell block that no jitter rung makes positive definite is an
        error on both paths."""
        _, train, prior = global_setup(
            scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        grid = SpatialGrid([0.0], [0.0, 180.0])
        pattern = PatternScalingMap(
            slope=np.array([[1.0, 0.0]]), intercept=np.zeros(grid.shape),
            residual_variance=np.array([[0.0, -1.0]]), grid=grid,
        )
        local = np.zeros((train.n, *grid.shape))
        rows = slice(None)
        with pytest.raises(SingularGram):
            cell_posterior(pattern, prior, train, local, 0, 1, rows)
        with pytest.raises(SingularGram):
            spatial_posterior(pattern, prior, train, local, rows)

    def test_posterior_variance_below_prior_per_cell(
        self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
    ):
        _, train, prior = global_setup(
            scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        pattern = PatternScalingMap(
            slope=np.full(GRID.shape, 0.9), intercept=np.zeros(GRID.shape),
            residual_variance=np.full(GRID.shape, 0.01), grid=GRID,
        )
        rng = np.random.default_rng(9)
        local = rng.normal(size=(train.n, *GRID.shape))
        rows = slice(None)
        _, variance = spatial_posterior(pattern, prior, train, local, rows)
        for i in range(GRID.shape[0]):
            for j in range(GRID.shape[1]):
                prior_var = np.diag(cell_prior(pattern, prior, i, j)[0].physics_gram())
                assert np.all(variance[i, j] <= prior_var + 1e-9)

    def test_shape_mismatch(self, scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents):
        _, train, prior = global_setup(
            scenario_factory, toy_impulse, toy_forcing, toy_kernel, toy_agents
        )
        pattern = PatternScalingMap(
            slope=np.ones(GRID.shape), intercept=np.zeros(GRID.shape),
            residual_variance=np.zeros(GRID.shape), grid=GRID,
        )
        with pytest.raises(GridMismatch):
            spatial_posterior(pattern, prior, train, np.zeros((train.n, 2, 2)), slice(0, 3))


class TestAreaWeightedMean:
    def test_uniform_field(self):
        assert area_weighted_mean(np.full(GRID.shape, 3.7), GRID) == pytest.approx(3.7, abs=1e-12)

    def test_two_row_arithmetic(self):
        grid = SpatialGrid([0.0, 60.0], [0.0, 90.0, 180.0])
        field = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        assert area_weighted_mean(field, grid) == pytest.approx(
            1.0 / (1.0 + 0.5), rel=1e-12
        )

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        field = rng.normal(size=GRID.shape)
        weights = np.cos(np.radians(GRID.latitudes))
        total = 0.0
        for i in range(GRID.shape[0]):
            for j in range(GRID.shape[1]):
                total += weights[i] * field[i, j]
        expected = total / (GRID.shape[1] * weights.sum())
        assert area_weighted_mean(field, GRID) == pytest.approx(expected, abs=1e-12)

    def test_linear_and_bounded(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=GRID.shape)
        b = rng.normal(size=GRID.shape)
        left = area_weighted_mean(2.0 * a - 0.5 * b, GRID)
        right = 2.0 * area_weighted_mean(a, GRID) - 0.5 * area_weighted_mean(b, GRID)
        assert left == pytest.approx(right, abs=1e-12)
        assert a.min() <= area_weighted_mean(a, GRID) <= a.max()

    def test_errors(self):
        with pytest.raises(GridMismatch):
            area_weighted_mean(np.zeros((2, 2)), GRID)
        with pytest.raises(SchemaError, match="cannot average an empty field"):
            area_weighted_mean(np.zeros((0, 0)), GRID)
