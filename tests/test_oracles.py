import ast
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from ebgp.ebm import ImpulseParams, TimeGrid, thermal_response
from ebgp.errors import NonDiagonalizable
from ebgp.kernels import KernelConfig, forcing_gram, internal_variability_gram
from ebgp.oracles import (
    BoxModelParams,
    VerificationCheck,
    box_ode,
    diagonalization,
    diagonalize,
    exact_variability_gram,
    finite_difference_gradient,
    mc_crps,
    mc_temperature_covariance,
    quadrature_thermal_covariance,
    response_times,
    rk4_box_temperature,
    rk4_impulse_temperature,
    scaled_frobenius_distance,
    sde_variability_covariance,
    temperature_gram,
)
from ebgp.oracles import _cumtrapz2d, _random_box

IMPULSE = ImpulseParams([3.5, 80.0], [0.45, 0.30])
GRID = TimeGrid(2000, 20)
T = np.arange(20, dtype=float)
EMISSIONS = np.column_stack([T / 10.0, np.sin(T / 9.0)])
KERNEL = KernelConfig("matern32", [3.0, 4.0], 0.5, standardize_inputs=False)


class TestFeedbackMatrix:
    def test_single_box(self):
        a = box_ode(BoxModelParams([5.0], [1.0]))[0]
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(-0.2, abs=0)

    def test_two_box_upper_entry(self):
        a = box_ode(BoxModelParams([5.0, 20.0], [1.0, 0.5], 1.0))[0]
        assert a[0, 1] == pytest.approx(0.1, abs=0)

    def test_three_box_matches_transcription(self):
        """Entry-by-entry transcription of the printed tridiagonal pattern,
        written independently of the production row loop."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.uniform(2.0, 150.0, size=3)
            kap = rng.uniform(0.3, 3.0, size=3)
            eps = float(rng.uniform(0.5, 2.0))
            expected = np.array(
                [
                    [-(kap[0] + kap[1]) / c[0], kap[1] / c[0], 0.0],
                    [kap[1] / c[1], -(kap[1] + eps * kap[2]) / c[1], eps * kap[2] / c[1]],
                    [0.0, kap[2] / c[2], -kap[2] / c[2]],
                ]
            )
            got = box_ode(BoxModelParams(c, kap, eps))[0]
            np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_two_box_efficacy_modifies_first_row(self):
        a = box_ode(BoxModelParams([5.0, 20.0], [1.0, 0.5], 1.3))[0]
        assert a[0, 1] == pytest.approx(1.3 * 0.5 / 5.0)
        assert a[0, 0] == pytest.approx(-(1.0 + 1.3 * 0.5) / 5.0)
        # the last row never carries the efficacy
        assert a[1, 0] == pytest.approx(0.5 / 20.0)


class TestDiagonalize:
    def test_single_box(self):
        imp = diagonalize(BoxModelParams([5.0], [1.0]))
        assert imp.timescales[0] == pytest.approx(5.0, rel=1e-12)
        assert imp.equilibrium_responses[0] == pytest.approx(1.0, rel=1e-12)

    def test_two_box_against_eigendecomposition_oracle(self):
        # Frozen output of a scipy.linalg.eig run on the transcribed matrix.
        imp = diagonalize(BoxModelParams([8.0, 100.0], [1.7, 0.6], 1.0))
        np.testing.assert_allclose(
            imp.timescales, [3.4591351284216985, 226.7369433029509], rtol=1e-8
        )
        np.testing.assert_allclose(
            imp.equilibrium_responses,
            [0.4299774845584793, 0.15825780955916796],
            rtol=1e-8,
        )

    def test_timescales_sorted(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            imp = diagonalize(_random_box(rng))
            assert np.all(np.diff(imp.timescales) > 0)

    def test_gain_identity(self):
        """Sum of equilibrium responses equals the steady-state gain of the
        box system, obtained from the independent linear solve."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            box = _random_box(rng)
            imp = diagonalize(box)
            a, b = box_ode(box)
            gain = np.linalg.solve(a, -b)[0]
            assert imp.equilibrium_responses.sum() == pytest.approx(gain, rel=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = box_ode(_random_box(rng))[0]
            evals, evecs = diagonalization(a)
            rebuilt = evecs @ np.diag(evals) @ np.linalg.inv(evecs)
            assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(NonDiagonalizable):
            diagonalization(np.array([[-1.0, 1.0], [0.0, -1.0]]))

    def test_complex_eigenvalues_rejected(self):
        with pytest.raises(NonDiagonalizable):
            diagonalization(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_surface_decoupled_mode_rejected(self):
        with pytest.raises(NonDiagonalizable):
            diagonalization(np.array([[-1.0, 0.0], [0.0, -2.0]]))


class TestValidation:
    def test_invalid_box_params(self):
        with pytest.raises(ValueError):
            BoxModelParams([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            BoxModelParams([1.0], [1.0], deep_ocean_efficacy=0.0)


@settings(max_examples=40, deadline=None)
@given(
    capacities=st.lists(st.floats(2.0, 150.0), min_size=2, max_size=2),
    transfers=st.lists(st.floats(0.3, 3.0), min_size=2, max_size=2),
    efficacy=st.floats(0.5, 2.0),
)
def test_gain_identity_property(capacities, transfers, efficacy):
    box = BoxModelParams(capacities, transfers, efficacy)
    imp = diagonalize(box)
    a, b = box_ode(box)
    gain = np.linalg.solve(a, -b)[0]
    assert imp.equilibrium_responses.sum() == pytest.approx(gain, rel=1e-9)


class TestRungeKutta:
    def test_box_and_impulse_integrators_agree(self):
        box = BoxModelParams([8.0, 100.0], [1.7, 0.6], 1.0)
        imp = diagonalize(box)
        forcing = np.full(GRID.n_steps, 2.0)
        t_box = rk4_box_temperature(box, forcing, GRID, substeps=60)
        t_imp = rk4_impulse_temperature(imp, forcing, GRID, substeps=60)
        np.testing.assert_allclose(t_box, t_imp, rtol=1e-9)

    def test_impulse_integrator_matches_discrete_solver(self):
        rng = np.random.default_rng(0)
        forcing = rng.normal(size=GRID.n_steps)
        _, temp = thermal_response(forcing, IMPULSE, GRID)
        oracle = rk4_impulse_temperature(IMPULSE, forcing, GRID, substeps=40)
        assert np.max(np.abs(temp - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("integrator", ["box", "impulse"])
    def test_fourth_order_convergence(self, integrator):
        """``thermal_response`` is exact for forcing held constant over each
        step, so each halving of the substep must cut the error about 2**4."""
        box = BoxModelParams([8.0, 100.0], [1.7, 0.6], 1.0)
        forcing = np.random.default_rng(0).normal(size=GRID.n_steps)
        impulse = diagonalize(box)
        exact = thermal_response(forcing, impulse, GRID)[1]
        params, integrate = {
            "box": (box, rk4_box_temperature), "impulse": (impulse, rk4_impulse_temperature)
        }[integrator]
        errors = [np.max(np.abs(integrate(params, forcing, GRID, substeps=s) - exact))
                  for s in (2, 4, 8)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 20.0

    def test_batch_shape(self):
        paths = np.zeros((7, GRID.n_steps))
        out = rk4_impulse_temperature(IMPULSE, paths, GRID)
        assert out.shape == (7, GRID.n_steps)
        np.testing.assert_array_equal(out, 0.0)


class TestMonteCarloCovariance:
    def test_zero_kernel_gives_zero_covariance(self):
        tiny = KernelConfig("matern32", [1.0, 1.0], 1e-30, standardize_inputs=False)
        emp = mc_temperature_covariance(tiny, EMISSIONS, IMPULSE, GRID, 200, seed=0)
        assert np.max(np.abs(emp)) <= 1e-25

    def test_matches_analytic_gram(self):
        analytic = temperature_gram(
            forcing_gram(EMISSIONS, EMISSIONS, KERNEL), IMPULSE, GRID
        )
        emp = mc_temperature_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, 2000, seed=0)
        assert scaled_frobenius_distance(emp, analytic) <= 0.05

    def test_deterministic_given_seed(self):
        a = mc_temperature_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, 300, seed=3)
        b = mc_temperature_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, 300, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_more_samples_shrink_discrepancy(self):
        """Monte Carlo error should decay roughly as 1/sqrt(samples)."""
        analytic = temperature_gram(
            forcing_gram(EMISSIONS, EMISSIONS, KERNEL), IMPULSE, GRID
        )
        small = mc_temperature_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, 2000, seed=1)
        large = mc_temperature_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, 8000, seed=2)
        ratio = scaled_frobenius_distance(large, analytic) / scaled_frobenius_distance(
            small, analytic
        )
        assert 0.2 <= ratio <= 0.95  # expect about 1/2 for a 4x sample increase


class TestSdeCovariance:
    def test_zero_amplitude(self):
        emp = sde_variability_covariance(IMPULSE, 0.0, GRID, 200, seed=0)
        np.testing.assert_array_equal(emp, 0.0)

    def test_single_mode_stationary_variance(self):
        one = ImpulseParams([4.0], [0.5])
        sigma = 0.3
        grid = TimeGrid(1900, 60)
        emp = sde_variability_covariance(one, sigma, grid, 5000, seed=1)
        target = sigma**2 * 0.5**2 / (2.0 * 4.0)
        assert abs(emp[-1, -1] - target) <= 0.05 * target

    def test_exact_mode_beats_long_time_early(self):
        imp = ImpulseParams([3.0, 40.0], [0.4, 0.3])
        sigma = 0.3
        grid = TimeGrid(1900, 10)
        emp = sde_variability_covariance(imp, sigma, grid, 5000, seed=2)
        exact = sigma**2 * exact_variability_gram(imp, grid)
        stationary = sigma**2 * internal_variability_gram(imp, grid)
        assert scaled_frobenius_distance(emp, exact) < scaled_frobenius_distance(
            emp, stationary
        )

    def test_exact_gram_close_to_simulated_paths(self):
        imp = ImpulseParams([3.0, 40.0], [0.4, 0.3])
        sigma = 0.3
        grid = TimeGrid(1900, 25)
        emp = sde_variability_covariance(imp, sigma, grid, 5000, seed=6)
        exact = sigma**2 * exact_variability_gram(imp, grid)
        assert scaled_frobenius_distance(emp, exact) <= 0.05

    def test_deterministic_given_seed(self):
        a = sde_variability_covariance(IMPULSE, 0.2, GRID, 300, seed=4)
        b = sde_variability_covariance(IMPULSE, 0.2, GRID, 300, seed=4)
        np.testing.assert_array_equal(a, b)


class TestQuadrature:
    def test_cumulative_trapezoid_boundaries(self):
        values = np.ones((5, 5))
        out = _cumtrapz2d(values, h=0.5)
        np.testing.assert_array_equal(out[0, :], 0.0)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert out[-1, -1] == pytest.approx((0.5 * 4) ** 2)

    def test_constant_kernel_closed_form(self):
        """Constant forcing covariance: the double integral factorizes into
        exponential saturation terms with a closed antiderivative."""
        const = np.ones((GRID.n_steps, 1))
        cfg = KernelConfig("matern32", [1.0], 0.7, standardize_inputs=False)
        quad = quadrature_thermal_covariance(cfg, const, IMPULSE, GRID, substeps=64)
        t = response_times(GRID)
        expected = np.zeros((GRID.n_steps, GRID.n_steps))
        d = IMPULSE.timescales
        q = IMPULSE.equilibrium_responses
        for i in range(2):
            for j in range(2):
                expected += (
                    q[i] * q[j] * 0.7
                    * np.outer(1.0 - np.exp(-t / d[i]), 1.0 - np.exp(-t / d[j]))
                )
        assert np.max(np.abs(quad - expected)) <= 1e-4 * np.max(np.abs(expected))

    def test_agrees_with_production_gram(self):
        production = temperature_gram(
            forcing_gram(EMISSIONS, EMISSIONS, KERNEL), IMPULSE, GRID
        )
        quad = quadrature_thermal_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, substeps=16)
        assert scaled_frobenius_distance(production, quad) <= 0.02

    def test_substep_refinement_converges(self):
        limit = quadrature_thermal_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, substeps=64)
        gaps = [
            scaled_frobenius_distance(
                quadrature_thermal_covariance(KERNEL, EMISSIONS, IMPULSE, GRID, substeps=s),
                limit,
            )
            for s in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestSmallOracles:
    def test_mc_crps_deterministic(self):
        assert mc_crps(0.0, 1.0, 0.3, 10_000, seed=5) == mc_crps(0.0, 1.0, 0.3, 10_000, seed=5)

    def test_finite_difference_gradient(self):
        grad = finite_difference_gradient(lambda x: float(x @ x), np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-8)

    def test_scaled_frobenius(self):
        a = np.eye(3)
        assert scaled_frobenius_distance(a, a) == 0.0
        assert scaled_frobenius_distance(2 * a, a) == pytest.approx(1.0)

    def test_verification_check_pass(self):
        assert VerificationCheck("x", 0.01, 0.05).passed
        assert not VerificationCheck("x", 0.06, 0.05).passed


def test_only_cli_imports_oracles():
    """Reference code never becomes a production dependency: of the
    package's modules only ``cli`` (for ``verify``) imports ``oracles``."""
    package = Path(__file__).resolve().parents[1] / "src" / "ebgp"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("oracles" in target.split(".") for target in targets):
                importers.add(path.name)
    assert importers == {"cli.py"}
