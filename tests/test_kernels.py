from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from ebgp.ebm import ImpulseParams, TimeGrid, temperature_operator
from ebgp.errors import DimensionMismatch
from ebgp.inference import _prior_fields, factorise
from ebgp.kernels import (
    SQRT3,
    KernelConfig,
    forcing_gram,
    forcing_gram_gradients,
    internal_variability_gram,
    variability_weights,
)
from ebgp.model_io import load_model
from ebgp.oracles import (
    convolution_operator,
    exact_variability_gram,
    forcing_temperature_cross_gram,
    matern,
    quadrature_thermal_covariance,
    response_times,
    scaled_frobenius_distance,
    temperature_gram,
    thermal_cross_gram,
)
from ebgp.scenario import load_scenario

DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic"


def bundled_kernel_inputs():
    """The distinct standardized emission rows of the bundled scenarios."""
    model = load_model(DATA / "model_config.txt")
    scenarios = [load_scenario(DATA / f"{name}.csv", model.agents)
                 for name in ("historical", "ssp_low", "ssp_mid", "ssp_high")]
    return model.kernel, _prior_fields(scenarios, model)[1]


class TestMatern:
    def test_zero_distance(self):
        cfg = KernelConfig("matern32", [1.0, 2.0], 1.0)
        assert matern([1.0, 2.0], [1.0, 2.0], cfg) == pytest.approx(1.0, abs=0)

    def test_matern12_unit_distance(self):
        cfg = KernelConfig("matern12", [1.0], 1.0)
        assert matern([0.0], [1.0], cfg) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_matern32_printed_value(self):
        cfg = KernelConfig("matern32", [1.0, 2.0], 1.0)
        expected = (1.0 + np.sqrt(6.0)) * np.exp(-np.sqrt(6.0))
        assert matern([0.0, 0.0], [1.0, 2.0], cfg) == pytest.approx(expected, rel=1e-14)

    def test_variance_scaling(self):
        cfg = KernelConfig("matern32", [1.0], 2.5)
        assert matern([0.3], [0.3], cfg) == pytest.approx(2.5)

    def test_dimension_mismatch(self):
        cfg = KernelConfig("matern32", [1.0, 1.0], 1.0)
        with pytest.raises(DimensionMismatch):
            matern([1.0], [1.0, 2.0], cfg)
        with pytest.raises(DimensionMismatch):
            matern([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], cfg)

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        y=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        family=st.sampled_from(["matern12", "matern32"]),
    )
    def test_symmetry(self, x, y, family):
        cfg = KernelConfig(family, [0.7, 1.3, 2.0], 0.8)
        assert matern(x, y, cfg) == matern(y, x, cfg)


class TestForcingGram:
    def test_single_row(self):
        cfg = KernelConfig("matern32", [1.0, 1.0], 0.7)
        x = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(forcing_gram(x, x, cfg), [[0.7]])

    def test_duplicate_rows_constant_block(self):
        cfg = KernelConfig("matern32", [1.0], 0.9)
        x = np.array([[2.0], [2.0]])
        gram = forcing_gram(x, x, cfg)
        np.testing.assert_allclose(gram, 0.9)
        assert np.linalg.matrix_rank(gram) == 1

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        xa = rng.normal(size=(5, 4))
        xb = rng.normal(size=(6, 4))
        cfg = KernelConfig("matern32", [0.7, 1.1, 2.0, 0.5], 1.3)
        gram = forcing_gram(xa, xb, cfg)
        loop = np.array([[matern(a, b, cfg) for b in xb] for a in xa])
        np.testing.assert_allclose(gram, loop, rtol=0, atol=0)

    def test_symmetry_and_cholesky_after_jitter(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 2))
        cfg = KernelConfig("matern12", [1.0, 1.0], 0.5)
        values = forcing_gram(x, x, cfg)
        assert np.max(np.abs(values - values.T)) <= 1e-12
        factorise(values, np.zeros(len(values)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 3))
        for family in ("matern12", "matern32"):
            cfg = KernelConfig(family, [0.9, 1.4, 0.6], 0.8)
            grad_v, grads = forcing_gram_gradients(x, cfg)  # dK/dlog variance is K
            h = 1e-6
            for dim in range(3):
                up = cfg.lengthscales.copy()
                down = cfg.lengthscales.copy()
                up[dim] *= np.exp(h)
                down[dim] *= np.exp(-h)
                fd = (
                    forcing_gram(x, x, KernelConfig(family, up, 0.8))
                    - forcing_gram(x, x, KernelConfig(family, down, 0.8))
                ) / (2 * h)
                np.testing.assert_allclose(grads[dim], fd, atol=1e-8)
            fd_v = (
                forcing_gram(x, x, KernelConfig(family, cfg.lengthscales, 0.8 * np.exp(h)))
                - forcing_gram(x, x, KernelConfig(family, cfg.lengthscales, 0.8 * np.exp(-h)))
            ) / (2 * h)
            np.testing.assert_allclose(grad_v, fd_v, atol=1e-8)


class TestKernelOverflow:
    """A scaled distance past the float range gives each kernel and
    derivative its limit 0; every other entry keeps the plain formula's bits."""

    @staticmethod
    def plain(x, config):
        """Both Matérn families and their log-lengthscale derivatives, written
        out with no overflow handling."""
        sq = [((a[:, None] - a[None, :]) / ell) ** 2 for a, ell in zip(x.T, config.lengthscales)]
        r, v = np.sqrt(sum(sq)), config.variance
        if config.family == "matern12":
            k = v * np.exp(-r)
            safe_r = np.where(r > 0, r, 1.0)
            return k, [np.where(r > 0, k * s / safe_r, 0.0) for s in sq]
        e = np.exp(-SQRT3 * r)
        return v * (1.0 + SQRT3 * r) * e, [3.0 * v * e * s for s in sq]

    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    @pytest.mark.parametrize("scale", [1.0, 0.05, 7.0])
    def test_bundled_inputs_keep_their_bits(self, family, scale):
        kernel, x = bundled_kernel_inputs()
        config = KernelConfig(family, kernel.lengthscales * scale, kernel.variance)
        k, grads = self.plain(x, config)
        assert np.array_equal(forcing_gram(x, x, config), k)
        k_again, grads_again = forcing_gram_gradients(x, config)
        assert np.array_equal(k_again, k)
        assert all(np.array_equal(a, b) for a, b in zip(grads_again, grads))

    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_overflowing_distance_gives_zero(self, family):
        """With one lengthscale at 1e-200 every pair of rows that differs in
        that input is at infinite distance: no warning, no NaN, exactly 0."""
        kernel, x = bundled_kernel_inputs()
        config = KernelConfig(family, [1e-200, 1.0, 1.0], kernel.variance)
        apart = x[:, 0][:, None] != x[:, 0][None, :]
        k = forcing_gram(x, x, config)
        k_again, grads = forcing_gram_gradients(x, config)
        assert apart.any() and np.all(k[apart] == 0.0)
        assert np.array_equal(k_again, k)
        assert np.all(np.diag(k) == kernel.variance)
        for grad in grads:
            assert np.all(np.isfinite(grad)) and np.all(grad[apart] == 0.0)


class TestThermalGrams:
    grid = TimeGrid(2000, 20)

    def test_zero_kernel(self, toy_impulse):
        zero = np.zeros((20, 20))
        op = convolution_operator(toy_impulse, 0, self.grid)
        np.testing.assert_array_equal(thermal_cross_gram(zero, op, op), 0.0)
        np.testing.assert_array_equal(temperature_gram(zero, toy_impulse, self.grid), 0.0)

    def test_single_step_algebra(self):
        imp = ImpulseParams([4.0], [0.5])
        grid = TimeGrid(2000, 1)
        op = convolution_operator(imp, 0, grid)
        k11 = 0.8
        gram = thermal_cross_gram(np.array([[k11]]), op, op)
        gain = 0.5 * (1.0 - np.exp(-1.0 / 4.0))
        assert gram[0, 0] == pytest.approx(gain**2 * k11, rel=1e-14)

    def test_single_mode_equals_cross_gram(self):
        imp = ImpulseParams([4.0], [0.5])
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 1))
        cfg = KernelConfig("matern32", [1.0], 0.4)
        k = forcing_gram(x, x, cfg)
        op = convolution_operator(imp, 0, self.grid)
        np.testing.assert_allclose(
            temperature_gram(k, imp, self.grid), thermal_cross_gram(k, op, op), atol=0
        )

    def test_psd_random_probes(self, toy_impulse):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        cfg = KernelConfig("matern32", [1.0, 1.0], 0.4)
        gram = temperature_gram(forcing_gram(x, x, cfg), toy_impulse, self.grid)
        assert np.max(np.abs(gram - gram.T)) <= 1e-12
        for _ in range(20):
            v = rng.normal(size=20)
            assert v @ gram @ v >= -1e-10

    def test_quadrature_oracle_agreement(self, toy_impulse):
        t = np.arange(20, dtype=float)
        emissions = np.column_stack([t / 10.0, np.sin(t / 9.0)])
        cfg = KernelConfig("matern32", [3.0, 4.0], 0.5, standardize_inputs=False)
        production = temperature_gram(
            forcing_gram(emissions, emissions, cfg), toy_impulse, self.grid
        )
        quad = quadrature_thermal_covariance(cfg, emissions, toy_impulse, self.grid, 16)
        assert scaled_frobenius_distance(production, quad) <= 0.02

    def test_dimension_mismatch(self, toy_impulse):
        op = convolution_operator(toy_impulse, 0, self.grid)
        with pytest.raises(DimensionMismatch):
            thermal_cross_gram(np.zeros((5, 5)), op, op)


class TestVariabilityGram:
    def test_long_time_diagonal_single_mode(self):
        imp = ImpulseParams([4.0], [0.5])
        gram = internal_variability_gram(imp, TimeGrid(2000, 6))
        np.testing.assert_allclose(np.diag(gram), 0.5**2 / (2.0 * 4.0))

    def test_single_mode_weight_is_one(self):
        assert variability_weights(ImpulseParams([4.0], [0.5]))[0] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.lists(st.floats(0.5, 300.0), min_size=2, max_size=3, unique=True),
        q=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    )
    def test_weights_positive(self, d, q):
        imp = ImpulseParams(sorted(d), q[: len(d)])
        assert np.all(variability_weights(imp) > 0)

    def test_exact_symmetric_psd(self, toy_impulse):
        grid = TimeGrid(2000, 40)
        gram = exact_variability_gram(toy_impulse, grid)
        assert np.max(np.abs(gram - gram.T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10

    def test_exact_converges_to_long_time(self):
        imp = ImpulseParams([3.0, 8.0], [0.4, 0.3])
        grid = TimeGrid(1900, 120)
        exact = exact_variability_gram(imp, grid)
        stationary = internal_variability_gram(imp, grid)
        t = response_times(grid)
        late = np.minimum(t[:, None], t[None, :]) > 10.0 * imp.timescales.max()
        gap = np.max(np.abs((exact - stationary)[late]))
        assert gap <= 0.01 * np.max(np.abs(stationary))

    def test_exact_below_stationary_at_start(self, toy_impulse):
        grid = TimeGrid(2000, 10)
        exact = exact_variability_gram(toy_impulse, grid)
        stationary = internal_variability_gram(toy_impulse, grid)
        assert np.all(np.diag(exact) < np.diag(stationary))


class TestForcingTemperatureCross:
    def test_zero_kernel(self, toy_impulse):
        grid = TimeGrid(2000, 8)
        out = forcing_temperature_cross_gram(np.zeros((8, 8)), toy_impulse, grid)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_step_algebra(self, toy_impulse):
        grid = TimeGrid(2000, 1)
        k11 = 0.6
        out = forcing_temperature_cross_gram(np.array([[k11]]), toy_impulse, grid)
        gains = toy_impulse.equilibrium_responses * (
            1.0 - np.exp(-1.0 / toy_impulse.timescales)
        )
        assert out[0, 0] == pytest.approx(k11 * gains.sum(), rel=1e-14)

    def test_equals_kernel_times_operator(self, toy_impulse):
        grid = TimeGrid(2000, 12)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 2))
        cfg = KernelConfig("matern32", [1.0, 1.0], 0.4)
        k = forcing_gram(x, x, cfg)
        expected = k @ temperature_operator(toy_impulse, grid).T
        np.testing.assert_allclose(
            forcing_temperature_cross_gram(k, toy_impulse, grid), expected, atol=0
        )

    def test_matches_joint_monte_carlo_cross_covariance(self, toy_impulse):
        """Sample forcing paths, integrate them to temperatures, and compare
        the empirical Cov(F, T) with the analytic cross Gram."""
        from ebgp.oracles import rk4_impulse_temperature, scaled_frobenius_distance

        grid = TimeGrid(2000, 20)
        t = np.arange(20, dtype=float)
        emissions = np.column_stack([t / 10.0, np.sin(t / 9.0)])
        cfg = KernelConfig("matern32", [3.0, 4.0], 0.5, standardize_inputs=False)
        k = forcing_gram(emissions, emissions, cfg)
        analytic = forcing_temperature_cross_gram(k, toy_impulse, grid)

        eigvals, eigvecs = np.linalg.eigh(k)
        root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        rng = np.random.default_rng(11)
        paths = rng.standard_normal((4000, 20)) @ root.T
        temps = rk4_impulse_temperature(toy_impulse, paths, grid, substeps=20)
        f_centered = paths - paths.mean(axis=0)
        t_centered = temps - temps.mean(axis=0)
        empirical = f_centered.T @ t_centered / (paths.shape[0] - 1)
        assert scaled_frobenius_distance(empirical, analytic) <= 0.05

    def test_dimension_mismatch(self, toy_impulse):
        with pytest.raises(DimensionMismatch):
            forcing_temperature_cross_gram(np.zeros((4, 5)), toy_impulse, TimeGrid(2000, 4))


class TestKernelConfigValidation:
    def test_family_checked(self):
        with pytest.raises(ValueError):
            KernelConfig("gaussian", [1.0], 1.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            KernelConfig("matern32", [0.0], 1.0)
        with pytest.raises(ValueError):
            KernelConfig("matern32", [1.0], -1.0)
