import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebgp.ebm import AgentForcing, ImpulseParams
from ebgp.errors import ParseError, SchemaError
from ebgp.inference import EmulatorModel, FitSettings
from ebgp.kernels import KernelConfig
from ebgp.model_io import load_model, parse_model, save_model, serialize_model
from ebgp.scenario import AgentSpec, Standardization


def example_model(**overrides):
    fields = dict(
        agents=[
            AgentSpec("co2", "cumulative_emission", "GtC"),
            AgentSpec("so2", "emission", "Mt"),
        ],
        impulse=ImpulseParams([4.1, 239.0], [0.41, 0.33], variability_amplitude=0.7),
        forcing={
            "co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
            "so2": AgentForcing(alpha_lin=-0.004, c0=10.0),
        },
        kernel=KernelConfig("matern32", [1.0, 2.0], 0.25),
        standardization=Standardization([0.5, -1.0], [2.0, 3.0]),
        fit=FitSettings(free=("lengthscales", "sigma"), restarts=2, max_iterations=50),
    )
    fields.update(overrides)
    return EmulatorModel(**fields)


def assert_models_equal(a, b):
    assert [x.name for x in a.agents] == [x.name for x in b.agents]
    assert [x.input_mode for x in a.agents] == [x.input_mode for x in b.agents]
    assert [x.unit for x in a.agents] == [x.unit for x in b.agents]
    np.testing.assert_array_equal(a.impulse.timescales, b.impulse.timescales)
    np.testing.assert_array_equal(
        a.impulse.equilibrium_responses, b.impulse.equilibrium_responses
    )
    assert a.impulse.variability_amplitude == b.impulse.variability_amplitude
    for name in a.forcing:
        for field in ("alpha_log", "alpha_lin", "alpha_sqrt", "c0", "concentration_per_emission"):
            assert getattr(a.forcing[name], field) == getattr(b.forcing[name], field)
    assert a.kernel.family == b.kernel.family
    np.testing.assert_array_equal(a.kernel.lengthscales, b.kernel.lengthscales)
    assert a.kernel.variance == b.kernel.variance
    assert a.kernel.standardize_inputs == b.kernel.standardize_inputs
    if a.standardization is None:
        assert b.standardization is None
    else:
        np.testing.assert_array_equal(a.standardization.mean, b.standardization.mean)
        np.testing.assert_array_equal(a.standardization.std, b.standardization.std)
    assert a.fit == b.fit


class TestRoundTrip:
    def test_default_model(self):
        model = example_model()
        assert_models_equal(model, parse_model(serialize_model(model)))

    def test_awkward_floats_bit_exact(self):
        model = example_model(
            impulse=ImpulseParams(
                [np.pi, 239.0000000001], [np.nextafter(0.41, 1.0), 1e-300 + 0.33],
                variability_amplitude=0.1 + 0.2,
            ),
            kernel=KernelConfig("matern12", [1e-7, 123456.789012345678], 1 / 3),
            standardization=None,
        )
        assert_models_equal(model, parse_model(serialize_model(model)))

    def test_serialization_is_stable(self):
        model = example_model()
        text = serialize_model(model)
        assert serialize_model(parse_model(text)) == text

    def test_file_round_trip(self, tmp_path):
        model = example_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert_models_equal(model, load_model(path))

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_real_fields_survive(self, values):
        model = example_model(
            kernel=KernelConfig("matern32", values, 0.25), standardization=None
        )
        back = parse_model(serialize_model(model))
        np.testing.assert_array_equal(back.kernel.lengthscales, np.array(values))


class TestErrors:
    def test_unsupported_version(self):
        text = serialize_model(example_model()).replace(
            "format_version = 1", "format_version = 99"
        )
        with pytest.raises(ParseError, match="format_version"):
            parse_model(text)

    def test_missing_section(self):
        text = serialize_model(example_model()).replace("[kernel]", "[krnl]")
        with pytest.raises(SchemaError, match="kernel"):
            parse_model(text)

    def test_bad_float(self):
        text = serialize_model(example_model()).replace(
            "variance = 0.25", "variance = wat"
        )
        with pytest.raises(ParseError, match="wat"):
            parse_model(text)

    def test_lengthscale_count_checked(self):
        text = serialize_model(example_model()).replace(
            "lengthscales = 1.0, 2.0", "lengthscales = 1.0"
        )
        with pytest.raises(SchemaError, match="lengthscales"):
            parse_model(text)

    def test_unserializable_agent_name(self):
        model = example_model()
        model.agents[0].name = "co,2"
        model.forcing["co,2"] = model.forcing.pop("co2")
        with pytest.raises(SchemaError):
            serialize_model(model)


class TestFitSection:
    def test_unknown_free_parameter_names_the_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            serialize_model(example_model()).replace(
                "free = lengthscales, sigma", "free = lengthscale, sigma"
            )
        )
        with pytest.raises(SchemaError, match=r"model\.txt.*'lengthscale'"):
            load_model(path)

    @pytest.mark.parametrize(
        "line", ["restarts = 1.9", "restarts = -1", "max_iterations = many", "max_iterations = -5"]
    )
    def test_counts_must_be_non_negative_integers(self, tmp_path, line):
        key = line.split(" = ")[0]
        default = "restarts = 2" if key == "restarts" else "max_iterations = 50"
        path = tmp_path / "model.txt"
        path.write_text(serialize_model(example_model()).replace(default, line))
        with pytest.raises(SchemaError, match=rf"model\.txt.*{key}"):
            load_model(path)


    def test_sigma_at_zero_loads_unless_named_free(self):
        """A zero variability amplitude is a valid model; only a [fit] free
        list that names sigma, fit on the log scale, rejects it."""
        zero = ImpulseParams([4.1, 239.0], [0.41, 0.33], variability_amplitude=0.0)
        text = serialize_model(example_model(impulse=zero))
        with pytest.raises(SchemaError, match=r"<model>: \[fit\] free: sigma needs "
                                              r"\[response\] variability_amplitude > 0"):
            parse_model(text)
        for old, new in (("free = lengthscales, sigma", "free = lengthscales"),
                         ("free = lengthscales, sigma\n", "")):
            assert parse_model(text.replace(old, new)).impulse.variability_amplitude == 0.0

class TestRejectedWhereRead:
    """Anything the layout does not declare, a repeated name and a number
    that is not finite are rejected naming the file, section and key."""

    def load_edited(self, tmp_path, old, new):
        text = serialize_model(example_model())
        assert old in text
        path = tmp_path / "model.txt"
        path.write_text(text.replace(old, new, 1))
        return load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_nonfinite_scalar(self, tmp_path, value):
        with pytest.raises(ParseError, match=rf"model\.txt: \[kernel\] variance: .*'{value}'"):
            self.load_edited(tmp_path, "variance = 0.25", f"variance = {value}")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_nonfinite_list_entry(self, tmp_path, value):
        with pytest.raises(ParseError, match=rf"model\.txt: \[response\] timescales: .*'{value}'"):
            self.load_edited(tmp_path, "timescales = 4.1, 239.0", f"timescales = 4.1, {value}")

    def test_agent_named_twice(self, tmp_path):
        with pytest.raises(SchemaError, match=r"model\.txt: \[agents\] order: 'co2' is named twice"):
            self.load_edited(tmp_path, "order = co2, so2", "order = co2, so2, co2")

    def test_free_parameter_named_twice(self, tmp_path):
        with pytest.raises(SchemaError, match=r"model\.txt: \[fit\] free: 'sigma' is named twice"):
            self.load_edited(tmp_path, "free = lengthscales, sigma", "free = sigma, lengthscales, sigma")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("max_iterations = 50", "max_iteration = 5", r"unknown key 'max_iteration' in \[fit\]"),
            ("co2.unit = GtC", "co2.units = GtC", r"unknown key 'co2.units' in \[agents\]"),
            ("concentration_per_emission = 0.47", "concentration_per_emision = 0.47",
             r"unknown key 'concentration_per_emision' in \[forcing.co2\]"),
            ("lengthscales = 1.0, 2.0", "lengthscales = 1.0, 2.0\nlengthscale = 3.0",
             r"unknown key 'lengthscale' in \[kernel\]"),
            ("[fit]", "[kernal]\nfamily = matern12\n\n[fit]", r"unknown section \[kernal\]"),
            ("[meta]", "[DEFAULT]\n\n[meta]", r"unknown section \[DEFAULT\]"),
        ],
        ids=["fit-key", "agents-key", "forcing-key", "kernel-key", "section", "default-section"],
    )
    def test_undeclared_names(self, tmp_path, old, new, message):
        with pytest.raises(SchemaError, match=rf"model\.txt: {message}"):
            self.load_edited(tmp_path, old, new)

    @pytest.mark.parametrize(
        "old, new, error, message",
        [
            ("std = 2.0, 3.0", "std = 2.0, 3.0\nstd 4.0", ParseError,
             "line 38: expected 'key = value'"),
            ("[meta]", "format_version = 1\n[meta]", ParseError,
             "line 1: a key before any section header"),
            ("[fit]", "[agents]\n\n[fit]", ParseError,
             "line 39: section 'agents' already exists"),
            ("restarts = 2", "restarts = 2\nrestarts = 3", ParseError,
             "line 42: option 'restarts' in section 'fit' already exists"),
            ("timescales = 4.1, 239.0\n", "", SchemaError,
             "missing key 'timescales' in [response]"),
            ("order = co2, so2", "order =", SchemaError, "[agents] order is empty"),
            ("co2.mode = cumulative_emission", "co2.mode = flux", SchemaError,
             "agent 'co2': unknown input mode 'flux'"),
            ("standardize_inputs = true", "standardize_inputs = maybe", ParseError,
             "[kernel] standardize_inputs: cannot parse 'maybe' as a boolean"),
        ],
        ids=["no-equals", "key-before-header", "repeated-section", "repeated-key",
             "missing-key", "empty-order", "unknown-mode", "non-boolean"],
    )
    def test_one_line_naming_the_file(self, tmp_path, old, new, error, message):
        """A syntax error names the file and its line, not configparser's
        '<string>', and every rejection is one line."""
        with pytest.raises(error) as raised:
            self.load_edited(tmp_path, old, new)
        assert str(raised.value) == f"{tmp_path / 'model.txt'}: {message}"

    def test_sections_checked_in_file_order(self):
        """With faults in several sections the first in file order is
        reported, and an unknown section only once the others are sound."""
        faults = [
            ("[response]", "variability_amplitude = 0.7", "variability_amplitude = -1.0"),
            ("[forcing.co2]", "c0 = 278.0", "c0 = -1.0"),
            ("[kernel]", "variance = 0.25", "variance = -1.0"),
            ("[extra]", "", ""),
        ]
        text = serialize_model(example_model()) + "[extra]\n"
        for _, good, bad in faults[:-1]:
            text = text.replace(good, bad)
        for section, good, bad in faults:
            with pytest.raises(SchemaError, match=re.escape(section)):
                parse_model(text)
            text = text.replace(bad, good)
