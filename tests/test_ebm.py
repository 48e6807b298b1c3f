import numpy as np
import pytest

from ebgp.ebm import (
    AgentForcing,
    ImpulseParams,
    TimeGrid,
    forcing_response,
    linear_concentrations,
    temperature_operator,
    thermal_response,
)
from ebgp.errors import SchemaError
from ebgp.oracles import (
    _random_box,
    convolution_operator,
    diagonalize,
    response_times,
    rk4_box_temperature,
    rk4_impulse_temperature,
)


class TestForcingResponse:
    grid = TimeGrid(1850, 4)

    def test_zero_at_preindustrial(self):
        params = {
            "a": AgentForcing(alpha_log=3.0, alpha_lin=1.0, alpha_sqrt=0.5, c0=280.0)
        }
        conc = {"a": np.full(4, 280.0)}
        np.testing.assert_array_equal(forcing_response(conc, params, self.grid), 0.0)

    def test_linear_term(self):
        params = {"a": AgentForcing(alpha_lin=2.0, c0=5.0)}
        conc = {"a": np.full(4, 8.0)}
        np.testing.assert_allclose(forcing_response(conc, params, self.grid), 6.0)

    def test_log_term(self):
        params = {"a": AgentForcing(alpha_log=5.35, c0=278.0)}
        conc = {"a": np.full(4, 556.0)}
        np.testing.assert_allclose(
            forcing_response(conc, params, self.grid), 5.35 * np.log(2.0), rtol=1e-15
        )

    def test_agents_combine(self):
        params = {
            "a": AgentForcing(alpha_lin=2.0, c0=5.0),
            "b": AgentForcing(alpha_sqrt=3.0, c0=4.0),
        }
        conc = {"a": np.full(4, 6.0), "b": np.full(4, 9.0)}
        np.testing.assert_allclose(forcing_response(conc, params, self.grid), 2.0 + 3.0)

    def test_nonpositive_concentration(self):
        params = {"a": AgentForcing(alpha_log=1.0, c0=1.0)}
        with pytest.raises(SchemaError, match="agent 'a' has non-positive concentrations"):
            forcing_response({"a": np.array([1.0, -2.0, 1.0, 1.0])}, params, self.grid)

    def test_linear_concentration_rule(self):
        agent = AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.5)
        grid = TimeGrid(1850, 3)
        conc = linear_concentrations(np.array([1.0, 2.0, 3.0]), agent, grid)
        np.testing.assert_allclose(conc, 278.0 + 0.5 * np.array([1.0, 3.0, 6.0]))
        cum = linear_concentrations(np.array([1.0, 3.0, 6.0]), agent, grid, cumulative=True)
        np.testing.assert_allclose(conc, cum)


class TestThermalResponse:
    def test_zero_forcing(self, toy_impulse):
        grid = TimeGrid(1850, 30)
        _, temp = thermal_response(np.zeros(30), toy_impulse, grid)
        np.testing.assert_array_equal(temp, 0.0)

    def test_step_forcing_closed_form(self, toy_impulse):
        grid = TimeGrid(1850, 120)
        f0 = 3.0
        responses, _ = thermal_response(np.full(120, f0), toy_impulse, grid)
        t = response_times(grid)
        for i in range(toy_impulse.n_boxes):
            expected = (
                toy_impulse.equilibrium_responses[i]
                * f0
                * (1.0 - np.exp(-t / toy_impulse.timescales[i]))
            )
            np.testing.assert_allclose(responses[i], expected, rtol=1e-12)

    def test_box_form_equivalence(self):
        """Impulse-form solution against RK4 integration of the coupled ODE."""
        rng = np.random.default_rng(7)
        grid = TimeGrid(1850, 100)
        forcing = np.full(100, 2.5)
        for _ in range(3):
            box = _random_box(rng, k=2)
            imp = diagonalize(box)
            _, temp = thermal_response(forcing, imp, grid)
            reference = rk4_box_temperature(box, forcing, grid, substeps=100)
            assert np.max(np.abs(temp - reference)) <= 1e-6 * np.max(np.abs(reference))

    def test_linearity(self, toy_impulse):
        grid = TimeGrid(1850, 40)
        rng = np.random.default_rng(8)
        f1 = rng.normal(size=40)
        f2 = rng.normal(size=40)
        _, t1 = thermal_response(f1, toy_impulse, grid)
        _, t2 = thermal_response(f2, toy_impulse, grid)
        _, t12 = thermal_response(2.0 * f1 - 3.0 * f2, toy_impulse, grid)
        np.testing.assert_allclose(t12, 2.0 * t1 - 3.0 * t2, atol=1e-12)

    def test_impulse_decay_against_ode_oracle(self, toy_impulse):
        grid = TimeGrid(1850, 25)
        pulse = np.zeros(25)
        pulse[0] = 1.0
        op = convolution_operator(toy_impulse, 0, grid)
        response = op @ pulse
        d = toy_impulse.timescales[0]
        # geometric decay after the pulse
        ratios = response[1:] / response[:-1]
        np.testing.assert_allclose(ratios, np.exp(-1.0 / d), rtol=1e-12)
        # and agreement with direct fine-substep integration of the mode ODE
        one = ImpulseParams([d], [toy_impulse.equilibrium_responses[0]])
        oracle = rk4_impulse_temperature(one, pulse, grid, substeps=50)
        assert np.max(np.abs(response - oracle)) <= 1e-6 * np.max(np.abs(oracle))


class TestConvolutionOperator:
    def test_zero_forcing(self, toy_impulse):
        grid = TimeGrid(1850, 10)
        op = convolution_operator(toy_impulse, 0, grid)
        np.testing.assert_array_equal(op @ np.zeros(10), 0.0)

    def test_constant_forcing_reaches_equilibrium(self):
        imp = ImpulseParams([3.0], [0.6])
        grid = TimeGrid(1850, 400)
        op = convolution_operator(imp, 0, grid)
        last = (op @ np.full(400, 2.0))[-1]
        assert last == pytest.approx(0.6 * 2.0, rel=1e-12)

    def test_lower_triangular(self, toy_impulse):
        grid = TimeGrid(1850, 15)
        for i in range(toy_impulse.n_boxes):
            op = convolution_operator(toy_impulse, i, grid)
            np.testing.assert_array_equal(op, np.tril(op))
            assert np.all(np.diag(op) > 0)

    def test_causality(self, toy_impulse):
        grid = TimeGrid(1850, 20)
        rng = np.random.default_rng(9)
        f = rng.normal(size=20)
        bumped = f.copy()
        bumped[12] += 1.0
        _, base = thermal_response(f, toy_impulse, grid)
        _, after = thermal_response(bumped, toy_impulse, grid)
        np.testing.assert_array_equal(base[:12], after[:12])
        assert np.all(np.abs(after[12:] - base[12:]) > 0)

    def test_monotone_decay_after_impulse(self, toy_impulse):
        grid = TimeGrid(1850, 30)
        pulse = np.zeros(30)
        pulse[0] = 1.0
        for i in range(toy_impulse.n_boxes):
            response = convolution_operator(toy_impulse, i, grid) @ pulse
            assert np.all(np.diff(response) < 0)

    def test_operator_matches_recursion(self, toy_impulse):
        grid = TimeGrid(1850, 35)
        rng = np.random.default_rng(10)
        f = rng.normal(size=35)
        _, temp = thermal_response(f, toy_impulse, grid)
        np.testing.assert_allclose(
            temperature_operator(toy_impulse, grid) @ f, temp, atol=1e-12
        )


class TestValidation:
    def test_impulse_ordering_required(self):
        with pytest.raises(ValueError):
            ImpulseParams([5.0, 3.0], [0.4, 0.3])

    def test_forcing_c0_required_for_log(self):
        with pytest.raises(ValueError):
            AgentForcing(alpha_log=1.0, c0=0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1850, 0)
        with pytest.raises(ValueError):
            TimeGrid(1850, 5, step=0.0)
