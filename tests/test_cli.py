import contextlib
import csv
import io
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from ebgp.cli import DEFAULT_SEED, main
from ebgp.ebm import AgentForcing, ImpulseParams, TimeGrid
from ebgp.errors import (
    CompatibilityError,
    EmulatorError,
    GridMismatch,
    NonFinite,
    ParseError,
    SchemaError,
    SingularGram,
)
from ebgp.inference import EmulatorModel, FitSettings, build_prior
from ebgp.kernels import KernelConfig
from ebgp.metrics import SCORE_FIELDS, Z95
from ebgp.model_io import load_model, save_model, serialize_model
from ebgp.scenario import AgentSpec, Scenario, SpatialGrid, save_scenario, save_spatial

AGENTS = [
    AgentSpec("co2", "cumulative_emission", "GtC"),
    AgentSpec("so2", "emission", "Mt"),
]
FORCING = {
    "co2": AgentForcing(alpha_log=5.35, c0=278.0, concentration_per_emission=0.47),
    "so2": AgentForcing(alpha_lin=-0.02, c0=1.0, concentration_per_emission=0.1),
}
IMPULSE = ImpulseParams([3.5, 80.0], [0.45, 0.30], variability_amplitude=0.3)
KERNEL = KernelConfig("matern32", [1.0, 1.0], 0.2)
SPATIAL = SpatialGrid([-30.0, 30.0], [0.0, 180.0])


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def parse_report(row):
    """Scores from one row of an evaluate file: an empty cell is an absent score."""
    return {name: float(row[name]) for name in SCORE_FIELDS if row[name].strip()}


@pytest.fixture
def workspace(tmp_path):
    """Three small scenarios drawn from the model family, plus a config."""
    n = 30
    scenarios = []
    rng = np.random.default_rng(42)
    for i, name in enumerate(("hist", "mid", "target")):
        grid = TimeGrid(1980, n)
        t = np.arange(n, dtype=float)
        flux = 1.0 + (0.08 + 0.03 * i) * t
        emissions = {
            "co2": np.cumsum(flux),
            "so2": 2.0 + np.sin((t + 5 * i) / 7.0),
        }
        conc = {
            "co2": 278.0 + 0.47 * np.cumsum(flux),
            "so2": 1.0 + 0.1 * emissions["so2"],
        }
        scenarios.append(
            Scenario(name=name, grid=grid, emissions=emissions, concentrations=conc)
        )
    prior = build_prior(scenarios, EmulatorModel(AGENTS, IMPULSE, FORCING, KERNEL))
    cov = prior.physics_gram() + IMPULSE.variability_amplitude**2 * prior.variability(slice(None))
    y = prior.mean + np.linalg.cholesky(cov + 1e-9 * np.eye(prior.n)) @ rng.standard_normal(prior.n)
    beta = np.array([[0.8, 1.1], [1.0, 1.3]])
    beta0 = np.array([[0.05, -0.05], [0.0, 0.1]])
    for i, scen in enumerate(scenarios):
        scen.global_temperature = y[i * n : (i + 1) * n]
        cube = beta[None] * scen.global_temperature[:, None, None] + beta0[None]
        save_scenario(scen, tmp_path / f"{scen.name}.csv", AGENTS)
        save_spatial(tmp_path / f"{scen.name}.csv", scen.grid, SPATIAL,
                     cube + 0.02 * rng.standard_normal(cube.shape))

    model = EmulatorModel(
        agents=AGENTS, impulse=IMPULSE, forcing=FORCING, kernel=KERNEL,
        fit=FitSettings(free=(), restarts=0, max_iterations=30),
    )
    config = tmp_path / "config.txt"
    save_model(model, config)
    paths = [str(tmp_path / f"{s.name}.csv") for s in scenarios]
    return tmp_path, config, paths


class TestFit:
    def test_all_fixed_writes_config_model(self, workspace):
        tmp, config, paths = workspace
        out = tmp / "model.txt"
        rc = main(["fit", "--config", str(config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == serialize_model(load_model(config))

    def test_fit_improves_mll(self, workspace, capsys):
        tmp, config, paths = workspace
        model = load_model(config)
        model.fit = FitSettings(free=("variance", "sigma"), restarts=0, max_iterations=25)
        free_config = tmp / "config_free.txt"
        save_model(model, free_config)
        out = tmp / "model_fit.txt"
        rc = main(["fit", "--config", str(free_config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(out), "--seed", "3"])
        assert rc == 0
        lines = capsys.readouterr().out
        initial = float(lines.split("initial_mll=")[1].split()[0])
        final = float(lines.split("final_mll=")[1].split()[0])
        assert final >= initial
        fitted = load_model(out)
        assert fitted.standardization is not None

    def test_invalid_scenario_exits_2(self, workspace, tmp_path, capsys):
        tmp, config, paths = workspace
        bad = tmp_path / "bad.csv"
        bad.write_text("year,emission:co2,emission:so2\n2000,oops,1\n")
        rc = main(["fit", "--config", str(config), "--scenario", str(bad),
                   "--out", str(tmp / "m.txt")])
        assert rc == 2
        assert "oops" in capsys.readouterr().err

    @staticmethod
    def _overflowing_scenario(tmp):
        """hist.csv with temperatures so large that they overflow the
        likelihood everywhere (NaN input is rejected when the file is read)."""
        broken = tmp / "broken.csv"
        text = (tmp / "hist.csv").read_text().splitlines()
        header = text[0].split(",")
        tas = header.index("tas_global")
        rows = [text[0]]
        for line in text[1:]:
            cells = line.split(",")
            cells[tas] = "1e200"
            rows.append(",".join(cells))
        broken.write_text("\n".join(rows) + "\n")
        return broken

    def test_degenerate_optimization_exits_3(self, workspace, capsys):
        tmp, config, paths = workspace
        model = load_model(config)
        model.fit = FitSettings(free=("variance",), restarts=0, max_iterations=5)
        free_config = tmp / "config_nan.txt"
        save_model(model, free_config)
        broken = self._overflowing_scenario(tmp)
        rc = main(["fit", "--config", str(free_config), "--scenario", str(broken),
                   "--out", str(tmp / "m.txt")])
        assert rc == 3
        assert "finite" in capsys.readouterr().err

    def test_all_fixed_nonfinite_likelihood_exits_3(self, workspace, capsys):
        """With nothing free the likelihood is evaluated once, under the
        same overflow policy as the optimizer's objective: no model file."""
        tmp, config, paths = workspace
        broken = self._overflowing_scenario(tmp)
        out = tmp / "m.txt"
        rc = main(["fit", "--config", str(config), "--scenario", str(broken),
                   "--out", str(out)])
        assert rc == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_converged_starts_are_reported(self, workspace, capsys):
        """One stderr line per L-BFGS-B start that stops short of converging,
        none when every start converges; stdout is unchanged."""
        tmp, config, paths = workspace
        model = load_model(config)
        free_config = tmp / "config_free.txt"
        err = {}
        for iterations in (1, 200):
            model.fit = FitSettings(free=("variance", "sigma"), restarts=1,
                                    max_iterations=iterations)
            save_model(model, free_config)
            rc = main(["fit", "--config", str(free_config), "--scenario", *paths,
                       "--holdout", "target", "--out", str(tmp / "m.txt")])
            assert rc == 0
            captured = capsys.readouterr()
            assert "final_mll=" in captured.out
            err[iterations] = captured.err.splitlines()
        assert [line.split(" did not converge")[0] for line in err[1]] == [
            "fit: start 0", "fit: start 1"]
        assert not any("evaluations=" in line or "final_mll=" in line for line in err[1])
        assert err[200] == []

    def test_free_sigma_at_zero_by_default_names_the_config(self, workspace, capsys):
        """With no free key the default list frees sigma, so a config with
        zero variability gets the message of an explicit key, which says the
        list is the default; the model itself is valid for queries."""
        tmp, config, paths = workspace
        model = load_model(config)
        model.impulse = ImpulseParams([3.5, 80.0], [0.45, 0.30], variability_amplitude=0.0)
        zero = tmp / "config_zero.txt"
        save_model(model, zero)
        text = zero.read_text()
        assert "free = " in text
        zero.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith("free = ")))
        rc = main(["fit", "--config", str(zero), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "m.txt")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {zero}: [fit] free: sigma needs [response] variability_amplitude > 0 "
            "(with no free key, the default list lengthscales, variance, sigma)\n")
        assert not (tmp / "m.txt").exists()
        assert main(["emulate", "--model", str(zero), "--scenario", *paths,
                     "--holdout", "target", "--out", str(tmp / "pred.csv")]) == 0

    def test_non_finite_block_is_a_rejected_evaluation(self, workspace, capsys, monkeypatch):
        """An evaluation whose training block overflows (NonFinite) is
        rejected and counted like any other."""
        from ebgp import inference
        from ebgp.errors import NonFinite

        tmp, config, paths = workspace
        model = load_model(config)
        model.fit = FitSettings(free=("variance", "sigma"), restarts=0, max_iterations=200)
        free_config = tmp / "config_free.txt"
        save_model(model, free_config)
        calls = []

        def overflowing(*args, _original=inference.mll_and_gradient, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NonFinite("the training block (n=60) or its jitter is not finite")
            return _original(*args, **kwargs)

        monkeypatch.setattr(inference, "mll_and_gradient", overflowing)
        rc = main(["fit", "--config", str(free_config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "m.txt")])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "fit: start 0 rejected 1 objective evaluations (singular, overflowing or not finite)"]

    def test_rejected_evaluations_are_reported(self, workspace, capsys, monkeypatch):
        """One stderr line per L-BFGS-B start that rejected an objective
        evaluation (here one overflow and one non-finite value, both in
        start 0); stdout and the exit code are unchanged."""
        from ebgp import inference

        tmp, config, paths = workspace
        model = load_model(config)
        model.fit = FitSettings(free=("variance", "sigma"), restarts=1, max_iterations=200)
        free_config = tmp / "config_free.txt"
        save_model(model, free_config)
        calls = []

        def flaky(*args, _original=inference.mll_and_gradient, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("overflow encountered in exp")
            value, grad = _original(*args, **kwargs)
            return (np.nan if len(calls) == 3 else value), grad

        monkeypatch.setattr(inference, "mll_and_gradient", flaky)
        monkeypatch.setattr(inference, "_workers", lambda starts: 1)  # count in this process
        rc = main(["fit", "--config", str(free_config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "m.txt")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "final_mll=" in captured.out
        assert captured.err.splitlines() == [
            "fit: start 0 rejected 2 objective evaluations (singular, overflowing or not finite)"]

    @pytest.mark.parametrize("broken, message", [
        ("missing", "no accumulation rule"),
        ("non-positive", "non-positive concentrations"),
    ])
    def test_unevaluable_free_forcing_term_exits_2(self, workspace, capsys, broken, message):
        """A free forcing row differentiates every coefficient, zero or not:
        so2's log and sqrt terms are zero here, yet a missing so2
        concentration with no accumulation rule, or a non-positive one, is a
        data error."""
        tmp, config, paths = workspace
        model = load_model(config)
        model.fit = FitSettings(free=("forcing",), restarts=0, max_iterations=5)
        if broken == "missing":
            model.forcing["so2"] = AgentForcing(alpha_lin=-0.02, c0=1.0)
        free_config = tmp / "config_forcing.txt"
        save_model(model, free_config)
        for path in paths:
            rows = [line.split(",") for line in Path(path).read_text().splitlines()]
            column = rows[0].index("concentration:so2")
            for cells in rows:
                if broken == "missing":
                    del cells[column]
                elif cells is not rows[0]:
                    cells[column] = "0.0"
            Path(path).write_text("\n".join(",".join(cells) for cells in rows) + "\n")
        rc = main(["fit", "--config", str(free_config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "m.txt")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_everything_held_out_with_free_parameters(self, workspace, capsys):
        tmp, config, paths = workspace
        model = load_model(config)
        model.fit = FitSettings(free=("variance", "sigma"), restarts=0, max_iterations=5)
        free_config = tmp / "config_free.txt"
        save_model(model, free_config)
        held = [arg for name in ("hist", "mid", "target") for arg in ("--holdout", name)]
        err = _rejected(capsys, ["fit", "--config", str(free_config), "--scenario", *paths,
                                 *held, "--out", str(tmp / "m.txt")])
        assert err == "error: cannot fit hyperparameters with an empty training set\n"
        assert not (tmp / "m.txt").exists()

    def test_free_sigma_at_zero_names_the_config(self, workspace, capsys):
        """sigma is fit on the log scale, so a config that frees it at 0 is a
        data error naming the file, [fit] free and the key that holds it."""
        tmp, config, paths = workspace
        model = load_model(config)
        model.impulse = ImpulseParams([3.5, 80.0], [0.45, 0.30], variability_amplitude=0.0)
        model.fit = FitSettings(free=("variance", "sigma"), restarts=0, max_iterations=5)
        zero = tmp / "config_zero.txt"
        save_model(model, zero)
        rc = main(["fit", "--config", str(zero), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "m.txt")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {zero}: [fit] free: sigma needs "
                                           "[response] variability_amplitude > 0\n")
        assert not (tmp / "m.txt").exists()


class TestEmulate:
    def run_emulate(self, workspace, holdout="target", name="pred.csv"):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", holdout, "--out", str(model)]) == 0
        out = tmp / name
        rc = main(["emulate", "--model", str(model), "--scenario", *paths,
                   "--holdout", holdout, "--out", str(out)])
        assert rc == 0
        return out

    def test_columns_and_interval_definition(self, workspace):
        out = self.run_emulate(workspace)
        rows = read_csv(out)
        assert list(rows[0].keys()) == [
            "year", "prior_mean", "posterior_mean", "posterior_std", "lower95", "upper95",
        ]
        for row in rows:
            mean = float(row["posterior_mean"])
            std = float(row["posterior_std"])
            assert float(row["upper95"]) - mean == pytest.approx(Z95 * std, abs=1e-12)
            assert mean - float(row["lower95"]) == pytest.approx(Z95 * std, abs=1e-12)

    def test_prior_only_when_trained_on_nothing(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        out = tmp / "prior_only.csv"
        target_only = [p for p in paths if p.endswith("target.csv")]
        rc = main(["emulate", "--model", str(model), "--scenario", *target_only,
                   "--holdout", "target", "--out", str(out)])
        assert rc == 0
        for row in read_csv(out):
            assert row["posterior_mean"] == row["prior_mean"]

    def test_deterministic_output(self, workspace):
        a = self.run_emulate(workspace, name="p1.csv")
        b = self.run_emulate(workspace, name="p2.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_agent_mismatch_exits_4(self, workspace, tmp_path):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        alien = tmp_path / "alien.csv"
        alien.write_text("year,emission:xx\n2000,1.0\n")
        rc = main(["emulate", "--model", str(model), "--scenario", str(alien),
                   "--holdout", "alien", "--out", str(tmp / "x.csv")])
        assert rc == 4

    def test_repeated_scenario_exits_2(self, workspace, capsys):
        tmp, config, paths = workspace
        hist = [p for p in paths if p.endswith("hist.csv")]
        rc = main(["emulate", "--model", str(config), "--scenario", *hist, *paths,
                   "--holdout", "target", "--out", str(tmp / "x.csv")])
        assert rc == 2
        assert "'hist' is given more than once" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    def test_same_scenario_name_from_two_directories_exits_2(self, workspace, capsys):
        tmp, config, paths = workspace
        other = tmp / "other"
        other.mkdir()
        (other / "target.csv").write_text((tmp / "target.csv").read_text())
        rc = main(["emulate", "--model", str(config), "--scenario", *paths,
                   str(other / "target.csv"), "--holdout", "target", "--out", str(tmp / "x.csv")])
        assert rc == 2
        assert "'target' is given more than once" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    def test_unknown_holdout_exits_2(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        rc = main(["emulate", "--model", str(model), "--scenario", *paths,
                   "--holdout", "nope", "--out", str(tmp / "x.csv")])
        assert rc == 2


class TestForcing:
    def test_runs_and_reverts_to_prior_without_training(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        out = tmp / "forcing.csv"
        target_only = [p for p in paths if p.endswith("target.csv")]
        rc = main(["forcing", "--model", str(model), "--scenario", *target_only,
                   "--holdout", "target", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        for row in rows:
            assert row["posterior_mean"] == row["prior_mean"]

    def test_posterior_forcing_respects_training(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        out = tmp / "forcing.csv"
        rc = main(["forcing", "--model", str(model), "--scenario", *paths,
                   "--holdout", "target", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert any(row["posterior_mean"] != row["prior_mean"] for row in rows)


class TestSample:
    def test_deterministic_and_shaped(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        a = tmp / "s1.csv"
        b = tmp / "s2.csv"
        for out in (a, b):
            rc = main(["sample", "--model", str(model), "--scenario", *paths,
                       "--holdout", "target", "--count", "7", "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv(a)
        assert len(rows[0]) == 8  # year + 7 draws
        c = tmp / "s3.csv"
        rc = main(["sample", "--model", str(model), "--scenario", *paths,
                   "--holdout", "target", "--count", "7", "--seed", "6", "--out", str(c)])
        assert rc == 0
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_rejected(self, workspace, capsys, count):
        tmp, config, paths = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(["sample", "--model", str(config), "--scenario", *paths,
                  "--holdout", "target", "--count", count, "--out", str(tmp / "s.csv")])
        assert exit_info.value.code == 2
        assert "--count" in capsys.readouterr().err
        assert not (tmp / "s.csv").exists()


def _edit_csv(path, line, column, value):
    """Set one cell (1-based file line, column name) of a CSV file."""
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    cells = rows[line - 1].split(",")
    cells[header.index(column)] = value
    rows[line - 1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


class TestInputValidation:
    """Bad scenario values are rejected where they are read, naming the file,
    line and column, with exit code 2.  Spatial companions are read by
    ``spatial-emulate`` (training scenarios) and ``evaluate`` (truth) only."""

    def emulate(self, workspace, command="emulate"):
        tmp, config, paths = workspace
        return main([command, "--model", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(tmp / "x.csv")])

    def spatial_emulate(self, workspace):
        return self.emulate(workspace, "spatial-emulate")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_scenario_value(self, workspace, capsys, value):
        tmp, _, _ = workspace
        _edit_csv(tmp / "hist.csv", 4, "tas_global", value)
        assert self.emulate(workspace) == 2
        assert "hist.csv: line 4, column 'tas_global'" in capsys.readouterr().err

    @pytest.mark.parametrize("year", ["9" * 400, "10000000000000000000", "9223372036854775807"],
                             ids=["float", "int64", "inexact"])
    def test_year_too_large(self, workspace, capsys, year):
        """A year a float cannot hold exactly is a data error, not a traceback
        or a grid error naming the wrong years."""
        tmp, _, _ = workspace
        _edit_csv(tmp / "hist.csv", 4, "year", year)
        assert self.emulate(workspace) == 2
        err = capsys.readouterr().err
        assert (f"hist.csv: line 4, column 'year': cannot parse '{year}' as an integer "
                "below 2**53 in magnitude") in err

    def test_repeated_column(self, workspace, capsys):
        """A second column of the same name is an error, not a silent
        replacement of the first."""
        tmp, _, _ = workspace
        path = tmp / "hist.csv"
        rows = [row.split(",") for row in path.read_text().splitlines()]
        name = rows[0][1]
        rows[0].append(name)
        for row in rows[1:]:
            row.append(repr(10.0 * float(row[1])))
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert self.emulate(workspace) == 2
        assert f"hist.csv: column '{name}' appears more than once" in capsys.readouterr().err

    def test_directory_as_scenario(self, workspace, capsys):
        """A path that cannot be read as a file is a data error, not a traceback."""
        tmp, config, paths = workspace
        (tmp / "folder.csv").mkdir()
        rc = main(["emulate", "--model", str(config), "--scenario", *paths,
                   str(tmp / "folder.csv"), "--holdout", "target", "--out", str(tmp / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "folder.csv" in err

    def test_directory_as_predictions(self, workspace, capsys):
        tmp, _, _ = workspace
        (tmp / "folder.csv").mkdir()
        rc = main(["evaluate", "--predictions", str(tmp / "folder.csv"),
                   "--scenario", str(tmp / "target.csv"), "--out", str(tmp / "s.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "folder.csv" in err

    def test_nonfinite_model_value(self, workspace, capsys):
        _, config, _ = workspace
        config.write_text(config.read_text().replace("variance = 0.2", "variance = nan"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.emulate(workspace) == 2
        assert f"{config}: [kernel] variance: value 'nan' is not finite" in capsys.readouterr().err

    def test_nonfinite_spatial_value(self, workspace, capsys):
        tmp, _, _ = workspace
        _edit_csv(tmp / "mid_spatial.csv", 7, "tas", "-inf")
        assert self.spatial_emulate(workspace) == 2
        assert "mid_spatial.csv: line 7, column 'tas'" in capsys.readouterr().err

    def test_duplicate_spatial_row(self, workspace, capsys):
        tmp, _, _ = workspace
        spatial = tmp / "hist_spatial.csv"
        rows = spatial.read_text().splitlines()
        duplicate = rows[1].split(",")[:3] + ["99.0"]
        spatial.write_text("\n".join(rows + [",".join(duplicate)]) + "\n")
        assert self.spatial_emulate(workspace) == 2
        assert f"hist_spatial.csv: line {len(rows) + 1}: duplicate" in capsys.readouterr().err

    def test_spatial_year_off_the_grid(self, workspace, capsys):
        tmp, _, _ = workspace
        _edit_csv(tmp / "hist_spatial.csv", 3, "year", "2050")
        assert self.spatial_emulate(workspace) == 2
        assert "hist_spatial.csv: line 3: year 2050" in capsys.readouterr().err

    def test_short_spatial_row(self, workspace, capsys):
        tmp, _, _ = workspace
        spatial = tmp / "hist_spatial.csv"
        rows = spatial.read_text().splitlines()
        rows[5] = ",".join(rows[5].split(",")[:3])
        spatial.write_text("\n".join(rows) + "\n")
        assert self.spatial_emulate(workspace) == 2
        assert "hist_spatial.csv: line 6: expected 4 fields, found 3" in capsys.readouterr().err

    def test_spatial_grids_differ_in_shape(self, workspace, capsys):
        """A 2x1 and a 1x2 grid with the same coordinate values."""
        tmp, config, paths = workspace
        for name, cells in (("hist", [(0.0, 20.0), (10.0, 20.0)]),
                            ("mid", [(0.0, 10.0), (0.0, 20.0)])):
            lines = ["lat,lon,year,tas"] + [
                f"{lat!r},{lon!r},{year},0.5" for year in range(1980, 2010) for lat, lon in cells
            ]
            (tmp / f"{name}_spatial.csv").write_text("\n".join(lines) + "\n")
        rc = main(["spatial-emulate", "--model", str(config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "s.csv")])
        assert rc == 2
        assert "different spatial grids" in capsys.readouterr().err

    def evaluate_edited(self, workspace, edit, command="emulate"):
        """Run ``command``, apply ``edit`` to its prediction rows (header
        first), then evaluate them."""
        tmp, config, paths = workspace
        assert main([command, "--model", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(tmp / "x.csv")]) == 0
        predictions = tmp / "x.csv"
        rows = [row.split(",") for row in predictions.read_text().splitlines()]
        edit(rows)
        predictions.write_text("\n".join(",".join(row) for row in rows) + "\n")
        return main(["evaluate", "--predictions", str(predictions),
                     "--scenario", str(tmp / "target.csv"), "--out", str(tmp / "s.csv")])

    def test_truncated_prediction_row(self, workspace, capsys):
        def truncate(rows):
            rows[4] = rows[4][:3]

        assert self.evaluate_edited(workspace, truncate) == 2
        assert "x.csv: line 5: expected 6 fields, found 3" in capsys.readouterr().err

    def test_nan_posterior_mean(self, workspace, capsys):
        def poison(rows):
            rows[2][rows[0].index("posterior_mean")] = "nan"

        assert self.evaluate_edited(workspace, poison) == 2
        assert "x.csv: line 3, column 'posterior_mean'" in capsys.readouterr().err

        # A negative std is an error too, not scored as its absolute value.
        def negate(rows):
            rows[6][rows[0].index("posterior_std")] = "-0.25"

        assert self.evaluate_edited(workspace, negate) == 2
        assert ("x.csv: line 7, column 'posterior_std': value -0.25 is negative"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("column", ["year", "prior_mean", "posterior_std"])
    def test_unparseable_prediction_value(self, workspace, capsys, column):
        def garble(rows):
            rows[7][rows[0].index(column)] = "abc"

        assert self.evaluate_edited(workspace, garble) == 2
        assert f"x.csv: line 8, column '{column}': cannot parse 'abc'" in capsys.readouterr().err

    def test_nonfinite_truth_value(self, workspace, capsys):
        tmp, _, _ = workspace
        assert self.emulate(workspace) == 0
        _edit_csv(tmp / "target.csv", 5, "tas_global", "nan")
        rc = main(["evaluate", "--predictions", str(tmp / "x.csv"),
                   "--scenario", str(tmp / "target.csv"), "--out", str(tmp / "s.csv")])
        assert rc == 2
        assert "target.csv: line 5, column 'tas_global'" in capsys.readouterr().err

    def test_repeated_truth_year(self, workspace, capsys):
        tmp, _, _ = workspace
        assert self.emulate(workspace) == 0
        truth = tmp / "target.csv"
        rows = truth.read_text().splitlines()
        repeated = rows[5].split(",")
        repeated[-1] = "99.0"
        truth.write_text("\n".join(rows + [",".join(repeated)]) + "\n")
        rc = main(["evaluate", "--predictions", str(tmp / "x.csv"),
                   "--scenario", str(truth), "--out", str(tmp / "s.csv")])
        assert rc == 2
        assert "target.csv: years are not uniformly spaced" in capsys.readouterr().err

    def test_spatial_truth_year_off_the_grid(self, workspace, capsys):
        tmp, _, _ = workspace

        def move_truth_year(_):
            _edit_csv(tmp / "target_spatial.csv", 3, "year", "2050")

        assert self.evaluate_edited(workspace, move_truth_year, "spatial-emulate") == 2
        assert "target_spatial.csv: line 3: year 2050 is not on" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["emulate", "spatial-emulate"])
    def test_duplicate_prediction_row(self, workspace, capsys, command):
        """A repeated row with a shifted mean is rejected, not scored twice."""
        appended = []

        def repeat(rows):
            column = rows[0].index("posterior_mean")
            rows.append(list(rows[5]))
            rows[-1][column] = repr(float(rows[-1][column]) + 5.0)
            appended.append(len(rows))

        assert self.evaluate_edited(workspace, repeat, command) == 2
        assert f"x.csv: line {appended[0]}: duplicate row" in capsys.readouterr().err

    def test_duplicate_row_is_reported_before_missing_truth(self, workspace, capsys):
        """The prediction rows are checked as a cube before they are joined to
        the truth, so a duplicate row is named even when a year lacks truth."""
        appended = []

        def extend(rows):
            rows.append([str(int(rows[-1][0]) + 1), *rows[-1][1:]])  # after the truth's last year
            rows.append(list(rows[5]))
            appended.append(len(rows))

        assert self.evaluate_edited(workspace, extend) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"x.csv: line {appended[0]}: duplicate row for (1984,)\n")

    def test_spatial_truth_lacking_a_latitude(self, workspace, capsys):
        """A complete spatial prediction grid whose latitude the truth lacks is
        a data error naming that latitude."""
        def move(rows):
            for row in rows[1:]:
                row[0] = "5.0" if row[0] == "-30.0" else row[0]

        assert self.evaluate_edited(workspace, move, "spatial-emulate") == 2
        assert capsys.readouterr().err == (
            "error: truth has no value for lat 5.0 inside the requested period\n")

    def test_incomplete_spatial_predictions(self, workspace, capsys):
        def drop(rows):
            del rows[3]

        assert self.evaluate_edited(workspace, drop, "spatial-emulate") == 2
        assert "x.csv: missing cell (-30.0, 0.0, 1982)" in capsys.readouterr().err

    @pytest.mark.parametrize("edited", ["hist.csv", "hist_spatial.csv", "x.csv"])
    def test_blank_rows_are_skipped(self, workspace, edited):
        """An empty row and whitespace-only rows change no output."""
        tmp, config, paths = workspace
        predict = ["spatial-emulate", "--model", str(config), "--scenario", *paths,
                   "--holdout", "target", "--out", str(tmp / "x.csv")]
        score = ["evaluate", "--predictions", str(tmp / "x.csv"),
                 "--scenario", str(tmp / "target.csv"), "--out", str(tmp / "s.csv")]
        steps = [score] if edited == "x.csv" else [predict, score]
        outputs = [tmp / argv[argv.index("--out") + 1] for argv in steps]

        def run():
            for argv in steps:
                assert main(argv) == 0
            return [path.read_bytes() for path in outputs]

        assert main(predict) == 0
        before = run()
        rows = (tmp / edited).read_text().splitlines()
        (tmp / edited).write_text("\n".join([*rows[:3], "", " \t ", *rows[3:], "  ,  "]) + "\n")
        assert run() == before


class TestSpatialEmulate:
    def test_runs_with_expected_columns(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        out = tmp / "spred.csv"
        rc = main(["spatial-emulate", "--model", str(model), "--scenario", *paths,
                   "--holdout", "target", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == [
            "lat", "lon", "year", "prior_mean", "posterior_mean", "posterior_std",
            "lower95", "upper95",
        ]
        assert len(rows) == 2 * 2 * 30
        cells = {(row["lat"], row["lon"]) for row in rows}
        assert len(cells) == 4


class TestSpatialCompanions:
    """A ``_spatial.csv`` companion is read by ``spatial-emulate`` for the
    training scenarios and by ``evaluate`` for a spatial truth, and by no
    other command."""

    MALFORMED = "lat,lon,year,tas\n0.0,0.0,oops\n"

    def run(self, workspace, capsys, command, holdout="target"):
        """Exit code, stdout, stderr and output bytes of ``command`` over the
        workspace scenarios."""
        tmp, config, paths = workspace
        out = tmp / f"{command}.out"
        source = "--config" if command == "fit" else "--model"
        rc = main([command, source, str(config), "--scenario", *paths,
                   "--holdout", holdout, "--out", str(out)])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err, out.read_bytes() if rc == 0 else None

    @pytest.mark.parametrize("command", ["fit", "emulate", "forcing", "sample"])
    def test_global_commands_ignore_malformed_companions(self, workspace, capsys, command):
        tmp, _, _ = workspace
        before = self.run(workspace, capsys, command)
        assert before[0] == 0
        for name in ("hist", "mid", "target"):
            (tmp / f"{name}_spatial.csv").write_text(self.MALFORMED)
        assert self.run(workspace, capsys, command) == before

    def test_held_out_companion_is_not_read(self, workspace, capsys):
        tmp, _, _ = workspace
        before = self.run(workspace, capsys, "spatial-emulate")
        assert before[0] == 0
        companion = tmp / "target_spatial.csv"
        companion.write_text(self.MALFORMED)
        assert self.run(workspace, capsys, "spatial-emulate") == before
        companion.unlink()
        assert self.run(workspace, capsys, "spatial-emulate") == before

    def test_missing_training_companion_exits_2(self, workspace, capsys):
        tmp, _, _ = workspace
        (tmp / "mid_spatial.csv").unlink()
        rc, _, err, _ = self.run(workspace, capsys, "spatial-emulate")
        assert rc == 2
        assert "mid_spatial.csv: spatial file not found" in err

    def test_spatial_emulate_without_training_exits_2(self, workspace, capsys):
        tmp, config, paths = workspace
        target = [p for p in paths if p.endswith("target.csv")]
        rc = main(["spatial-emulate", "--model", str(config), "--scenario", *target,
                   "--holdout", "target", "--out", str(tmp / "x.csv")])
        assert rc == 2
        assert "at least one training scenario" in capsys.readouterr().err

    def test_each_command_reads_only_what_it_uses(self, workspace, capsys, monkeypatch):
        """The name of every file ``scenario.read_table`` opens, per command."""
        from ebgp import cli, scenario

        tmp, _, _ = workspace
        opened = []

        def recording(path, columns, _read=scenario.read_table):
            opened.append(Path(path).name)
            return _read(path, columns)

        monkeypatch.setattr(scenario, "read_table", recording)
        monkeypatch.setattr(cli, "read_table", recording)
        scenarios = ["hist.csv", "mid.csv", "target.csv"]
        for command in ("fit", "emulate", "forcing", "sample"):
            opened.clear()
            assert self.run(workspace, capsys, command)[0] == 0
            assert opened == scenarios
        opened.clear()
        assert self.run(workspace, capsys, "spatial-emulate")[0] == 0
        assert opened == [*scenarios, "hist_spatial.csv", "mid_spatial.csv"]
        opened.clear()
        assert main(["evaluate", "--predictions", str(tmp / "spatial-emulate.out"),
                     "--scenario", str(tmp / "target.csv"), "--out", str(tmp / "s.csv")]) == 0
        assert opened == ["spatial-emulate.out", "target.csv", "target_spatial.csv"]


def _rejected(capsys, argv):
    """stderr of ``main(argv)``, which must exit 2 with one ``error:`` line and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _with_columns(path, edit):
    """Rewrite a CSV file with ``edit`` applied to each row's list of cells."""
    rows = [edit(line.split(",")) for line in path.read_text().splitlines()]
    path.write_text("".join(",".join(row) + "\n" for row in rows))


class TestRejectedFiles:
    """A scenario, companion or truth file of the wrong shape exits 2 with one
    ``error:`` line naming the file."""

    @pytest.mark.parametrize("edit, message", [
        (lambda path: path.write_text(""), "file is empty"),
        (lambda path: path.write_text(path.read_text().splitlines()[0] + "\n"),
         "file contains no data rows"),
        (lambda path: _with_columns(path, lambda row: row[1:]),  # year is the first column
         "missing required column 'year'"),
        (lambda path: _with_columns(path, lambda row: row + ["extra" if row[0] == "year" else "1"]),
         "unknown columns ['extra']"),
    ], ids=["empty", "header-only", "no-year", "extra-column"])
    def test_scenario_file(self, workspace, capsys, edit, message):
        tmp, config, paths = workspace
        edit(tmp / "hist.csv")
        err = _rejected(capsys, ["emulate", "--model", str(config), "--scenario", *paths,
                                 "--holdout", "target", "--out", str(tmp / "x.csv")])
        assert err == f"error: {tmp / 'hist.csv'}: {message}\n"

    def test_companion_header(self, workspace, capsys):
        tmp, config, paths = workspace
        companion = tmp / "hist_spatial.csv"
        companion.write_text(companion.read_text().replace("lat,lon,year,tas", "lat,lon,year,t", 1))
        err = _rejected(capsys, ["spatial-emulate", "--model", str(config), "--scenario", *paths,
                                 "--holdout", "target", "--out", str(tmp / "x.csv")])
        assert err == f"error: {companion}: expected columns lat, lon, year, tas\n"

    def test_truth_without_global_temperature(self, workspace, capsys):
        tmp, config, paths = workspace
        predictions, truth = tmp / "x.csv", tmp / "target.csv"
        assert main(["emulate", "--model", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(predictions)]) == 0
        capsys.readouterr()
        at = truth.read_text().splitlines()[0].split(",").index("tas_global")
        _with_columns(truth, lambda row: row[:at] + row[at + 1:])
        err = _rejected(capsys, ["evaluate", "--predictions", str(predictions),
                                 "--scenario", str(truth), "--out", str(tmp / "s.csv")])
        assert err == f"error: {truth}: truth scenario needs columns year, tas_global\n"


class TestEvaluate:
    def _write_predictions(self, path, years, mean, std, prior=None):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["year", "prior_mean", "posterior_mean", "posterior_std", "lower95", "upper95"]
            )
            for y, m, s in zip(years, mean, std):
                p = m if prior is None else prior[list(years).index(y)]
                writer.writerow([y, repr(p), repr(m), repr(s),
                                 repr(m - Z95 * s), repr(m + Z95 * s)])

    def test_perfect_prediction_scores_zero(self, workspace):
        tmp, config, paths = workspace
        truth = read_csv(tmp / "target.csv")
        years = [int(r["year"]) for r in truth]
        values = [float(r["tas_global"]) for r in truth]
        pred = tmp / "perfect.csv"
        self._write_predictions(pred, years, values, [0.1] * len(years))
        out = tmp / "scores.csv"
        rc = main(["evaluate", "--predictions", str(pred),
                   "--scenario", str(tmp / "target.csv"), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["label"] == "posterior"
        assert float(rows[0]["rmse"]) == 0.0
        assert float(rows[0]["mae"]) == 0.0
        assert float(rows[0]["bias"]) == 0.0
        assert float(rows[0]["calib95"]) == 1.0

    def test_report_rows_parse_back(self, workspace):
        tmp, config, paths = workspace
        truth = read_csv(tmp / "target.csv")
        years = [int(r["year"]) for r in truth]
        values = [float(r["tas_global"]) for r in truth]
        pred = tmp / "p.csv"
        self._write_predictions(pred, years, [v + 0.1 for v in values], [0.2] * len(years))
        out = tmp / "scores.csv"
        assert main(["evaluate", "--predictions", str(pred),
                     "--scenario", str(tmp / "target.csv"), "--out", str(out)]) == 0
        rows = read_csv(out)
        posterior = parse_report(rows[0])
        prior = parse_report(rows[1])
        assert posterior["rmse"] == pytest.approx(0.1)
        assert "log_likelihood" not in prior

    def test_period_filter_and_mismatch(self, workspace):
        tmp, config, paths = workspace
        truth = read_csv(tmp / "target.csv")
        years = [int(r["year"]) for r in truth]
        values = [float(r["tas_global"]) for r in truth]
        pred = tmp / "p.csv"
        self._write_predictions(pred, years, values, [0.1] * len(years))
        out = tmp / "scores.csv"
        assert main(["evaluate", "--predictions", str(pred),
                     "--scenario", str(tmp / "target.csv"),
                     "--period", "1990:2000", "--out", str(out)]) == 0
        rc = main(["evaluate", "--predictions", str(pred),
                   "--scenario", str(tmp / "target.csv"),
                   "--period", "2200:2300", "--out", str(out)])
        assert rc == 2

    def test_missing_global_truth_year_is_named(self, workspace, capsys):
        tmp, config, paths = workspace
        truth = read_csv(tmp / "target.csv")
        years = [int(r["year"]) for r in truth] + [2010, 2011]
        values = [float(r["tas_global"]) for r in truth] + [1.0, 1.0]
        pred = tmp / "p.csv"
        self._write_predictions(pred, years, values, [0.1] * len(years))
        rc = main(["evaluate", "--predictions", str(pred),
                   "--scenario", str(tmp / "target.csv"),
                   "--period", "2000:2011", "--out", str(tmp / "s.csv")])
        assert rc == 2
        assert "truth has no value for year 2010 inside" in capsys.readouterr().err

    def test_period_start_after_end(self, workspace, capsys):
        tmp, config, paths = workspace
        err = _rejected(capsys, ["evaluate", "--predictions", str(tmp / "target.csv"),
                                 "--scenario", str(tmp / "target.csv"),
                                 "--period", "2050:2015", "--out", str(tmp / "s.csv")])
        assert err == "error: period start 2050 is after end 2015\n"

    def test_bad_period_syntax(self, workspace):
        tmp, config, paths = workspace
        rc = main(["evaluate", "--predictions", str(tmp / "target.csv"),
                   "--scenario", str(tmp / "target.csv"),
                   "--period", "x-y", "--out", str(tmp / "s.csv")])
        assert rc == 2

    def test_spatial_predictions_aggregate(self, workspace):
        tmp, config, paths = workspace
        model = tmp / "model.txt"
        assert main(["fit", "--config", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(model)]) == 0
        pred = tmp / "spred.csv"
        assert main(["spatial-emulate", "--model", str(model), "--scenario", *paths,
                     "--holdout", "target", "--out", str(pred)]) == 0
        out = tmp / "sscores.csv"
        rc = main(["evaluate", "--predictions", str(pred),
                   "--scenario", str(tmp / "target.csv"), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0]["label"] == "posterior"
        assert float(rows[0]["rmse"]) > 0

    def test_spatial_columns_are_found_by_name(self, workspace, capsys):
        """A spatial prediction file is known by its lat and lon columns, in
        any position: reordered, it scores byte for byte as written, and
        without one of them it is a schema error that names the column."""
        tmp, config, paths = workspace
        pred = tmp / "spred.csv"
        assert main(["spatial-emulate", "--model", str(config), "--scenario", *paths,
                     "--holdout", "target", "--out", str(pred)]) == 0
        with pred.open(newline="") as handle:
            table = list(csv.reader(handle))

        def score(order):
            path, out = tmp / "edited.csv", tmp / "edited_scores.csv"
            with path.open("w", newline="") as handle:
                csv.writer(handle).writerows([[row[i] for i in order] for row in table])
            rc = main(["evaluate", "--predictions", str(path),
                       "--scenario", str(tmp / "target.csv"), "--out", str(out)])
            return rc, out.read_bytes() if rc == 0 else None

        written = score(range(8))
        assert written[0] == 0
        assert score([2, 0, 1, *range(3, 8)]) == written
        assert score([2, 7, 3, 1, 4, 0, 5, 6]) == written
        assert score([2, 1, *range(3, 8)])[0] == 2
        assert "missing column 'lat'" in capsys.readouterr().err


class TestVerify:
    def test_writes_check_rows(self, workspace):
        tmp, _, _ = workspace
        out = tmp / "checks.csv"
        rc = main(["verify", "--out", str(out), "--seed", "0"])
        assert rc == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["check", "statistic", "tolerance", "pass"]
        assert len(rows) >= 5
        assert all(row["pass"] == "true" for row in rows)


@pytest.mark.parametrize("command", ["emulate", "forcing", "spatial-emulate"])
def test_seed_is_not_an_option(workspace, capsys, command):
    """Only fit, sample and verify draw random numbers."""
    tmp, config, paths = workspace
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--model", str(config), "--scenario", *paths,
              "--holdout", "target", "--out", str(tmp / "x.csv"), "--seed", "3"])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "sample", "verify"])
def test_negative_seed_rejected(workspace, capsys, command):
    """--seed is validated where it enters, before anything is read or drawn."""
    tmp, config, paths = workspace
    out = tmp / "x.csv"
    inputs = {"fit": ["--config", str(config)], "sample": ["--model", str(config)]}
    argv = [command, "--out", str(out), "--seed", "-1"]
    if command != "verify":
        argv += [*inputs[command], "--scenario", *paths, "--holdout", "target"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_one_factorisation_per_command(tmp_path, monkeypatch, capsys):
    """Every command that conditions on the training rows factorises their
    block once; spatial-emulate reads an eigendecomposition instead."""
    from ebgp import inference

    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    model = load_model(data / "model_config.txt")
    model.fit = FitSettings(free=())
    fixed = tmp_path / "fixed.txt"
    save_model(model, fixed)
    calls = []

    def counting(*args, _cholesky=inference.cholesky, **kwargs):
        calls.append(1)
        return _cholesky(*args, **kwargs)

    monkeypatch.setattr(inference, "cholesky", counting)
    scenarios = ["--scenario", *(str(data / f"{name}.csv")
                                 for name in ("historical", "ssp_low", "ssp_mid", "ssp_high"))]
    query = ["--model", str(data / "model_config.txt"), *scenarios, "--holdout", "ssp_mid"]
    expected = {"emulate": 1, "forcing": 1, "sample": 1, "spatial-emulate": 0, "fit": 1}
    for command, count in expected.items():
        calls.clear()
        argv = ["fit", "--config", str(fixed), *query[2:]] if command == "fit" else [command, *query]
        assert main([*argv, "--out", str(tmp_path / f"{command}.out")]) == 0
        assert len(calls) == count, command


def csv_writer_bytes(path):
    """The file at ``path`` as ``csv.writer`` writes its parsed cells: years as
    ints, other numbers as Python floats, labels and empty cells as strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    text = ("label", "check", "pass")
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([cell if column in text or cell == "" else
                      int(cell) if column == "year" else float(cell)
                      for column, cell in zip(header, row)] for row in rows)
    return buffer.getvalue().encode("utf-8")


def test_outputs_are_written_with_repr(tmp_path):
    """On the bundled data every number each command writes is the ``repr`` of
    its float and every year the ``str`` of its int, so reading a file back
    gives the values the command computed; and each file holds the bytes
    ``csv.writer`` writes for its parsed cells."""
    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    scenarios = [str(data / f"{name}.csv") for name in ("historical", "ssp_low", "ssp_mid")]
    query = ["--model", str(data / "model_config.txt"), "--scenario", *scenarios,
             "--holdout", "ssp_mid"]
    runs = {
        "emulate": ["emulate", *query],
        "forcing": ["forcing", *query],
        "sample": ["sample", *query, "--count", "3", "--seed", "7"],
        "spatial": ["spatial-emulate", *query],
        "scores": ["evaluate", "--predictions", str(tmp_path / "emulate.csv"),
                   "--scenario", scenarios[-1]],
        "spatial_scores": ["evaluate", "--predictions", str(tmp_path / "spatial.csv"),
                           "--scenario", scenarios[-1], "--period", "2015:2050"],
        "verify": ["verify", "--seed", "0"],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(out)]) == 0, name
        rows = read_csv(out)
        assert rows, name
        for row in rows:
            for column, field in row.items():
                if column == "year":
                    assert field == str(int(field)), (name, column, field)
                elif column not in ("label", "check", "pass") and field != "":
                    assert field == repr(float(field)), (name, column, field)
        assert out.read_bytes() == csv_writer_bytes(out), name


def test_overflowing_kernel_distance_is_the_kernel_limit(tmp_path, capsys):
    """A lengthscale so small that scaled distances overflow gives the kernel's
    limit 0 there: each query command on the bundled data exits 0 with finite
    values and no warning."""
    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    text = (data / "model_config.txt").read_text()
    assert "lengthscales = 1.0, 1.0, 1.0\n" in text
    config = tmp_path / "model.txt"
    config.write_text(text.replace("lengthscales = 1.0, 1.0, 1.0\n",
                                   "lengthscales = 1e-200, 1.0, 1.0\n"))
    scenarios = [str(data / f"{name}.csv") for name in ("historical", "ssp_low", "ssp_mid")]
    for command in ("emulate", "forcing", "sample", "spatial-emulate"):
        out = tmp_path / f"{command}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--model", str(config), "--scenario", *scenarios,
                         "--holdout", "ssp_mid", "--out", str(out)]) == 0, command
        assert capsys.readouterr().err == ""
        rows = read_csv(out)
        values = [float(v) for row in rows for k, v in row.items() if k not in ("year", "lat", "lon")]
        assert rows and np.all(np.isfinite(values)), command


@pytest.mark.parametrize("variance", ["1e307", "1.7e308"])
def test_overflowing_training_block_exits_3(tmp_path, capsys, variance):
    """A kernel variance that overflows the training block (1.7e308) or its
    mean diagonal (1e307) is a numerical failure: each query command exits 3
    with one error line and no warning, and ``fit`` rejects every evaluation."""
    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    text = (data / "model_config.txt").read_text()
    assert "variance = 0.25\n" in text
    config = tmp_path / "model.txt"
    config.write_text(text.replace("variance = 0.25\n", f"variance = {variance}\n"))
    scenarios = [str(data / f"{name}.csv") for name in ("historical", "ssp_low", "ssp_mid")]
    for command in ("emulate", "forcing", "sample", "spatial-emulate"):
        out = tmp_path / f"{command}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--model", str(config), "--scenario", *scenarios,
                         "--holdout", "ssp_mid", "--out", str(out)]) == 3, command
        assert capsys.readouterr().err == (
            "error: the training block (n=366) or its jitter is not finite\n"), command
        assert not out.exists()
    assert main(["fit", "--config", str(config), "--scenario", *scenarios,
                 "--holdout", "ssp_mid", "--out", str(tmp_path / "m.txt")]) == 3
    assert "error: marginal log-likelihood is not finite" in capsys.readouterr().err


def test_spatial_overflow_exits_3(tmp_path, capsys):
    """A kernel variance whose spatial posterior variance overflows is a
    numerical failure, not a clipped zero variance and a warning."""
    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    text = (data / "model_config.txt").read_text()
    assert "variance = 0.25\n" in text
    config = tmp_path / "model.txt"
    config.write_text(text.replace("variance = 0.25\n", "variance = 1e305\n"))
    out = tmp_path / "spatial.csv"
    scenarios = [str(data / f"{name}.csv") for name in ("historical", "ssp_low", "ssp_mid")]
    assert main(["spatial-emulate", "--model", str(config), "--scenario", *scenarios,
                 "--holdout", "ssp_mid", "--out", str(out)]) == 3
    assert "error: spatial posterior mean or variance of cell" in capsys.readouterr().err
    assert not out.exists()


QUERY_COMMANDS = ("emulate", "forcing", "sample", "spatial-emulate")
# A bundled model-file line and a finite value for it that overflows a
# quantity, each with its exit code and error message.
OVERFLOWS = {
    "alpha_log = 5.35|alpha_log = 1.7e308": (3, "the forcing path of scenario"),
    "c0 = 278.0|c0 = 1e-320": (3, "the forcing path of scenario"),
    "alpha_sqrt = 0.036|alpha_sqrt = 1e308": (3, "the forcing path of scenario"),
    "alpha_lin = -0.004|alpha_lin = -1e308": (3, "the forcing path of scenario"),
    "variability_amplitude = 0.7|variability_amplitude = 1e160":
        (2, "[response]: variability_amplitude 1e+160 is too large"),
    "equilibrium_responses = 0.41, 0.33|equilibrium_responses = 1e307, 0.33":
        (3, "the training block (n=366) or its jitter is not finite"),
    "alpha_log = 5.35|alpha_log = 1e307": (0, None),  # only the unused likelihood overflows
}


@pytest.mark.parametrize("edit, command", [
    *[(edit, command) for edit in list(OVERFLOWS)[:5] for command in QUERY_COMMANDS],
    *[(edit, "emulate") for edit in list(OVERFLOWS)[5:]],
    ("variability_amplitude = 0.7|variability_amplitude = 1e160", "fit"),
])
def test_overflowing_model_value_is_one_error_line(tmp_path, capsys, edit, command):
    """A finite model-file value whose forcing path, sigma^2, variability
    column or log-likelihood overflows never reaches stderr as a warning or a
    traceback: the command exits 0 with finite values, or with its code and
    one ``error:`` line (a rejected model file names itself)."""
    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    (old, new), (code, message) = edit.split("|"), OVERFLOWS[edit]
    text = (data / "model_config.txt").read_text()
    assert text.count(f"\n{old}\n") == 1
    config, out = tmp_path / "model.txt", tmp_path / "out.csv"
    config.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    scenarios = [str(data / f"{name}.csv") for name in ("historical", "ssp_low", "ssp_mid")]
    model = ["--config" if command == "fit" else "--model", str(config)]
    rc = main([command, *model, "--scenario", *scenarios, "--holdout", "ssp_mid",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    if code == 0:
        rows = read_csv(out)
        values = [float(v) for row in rows for k, v in row.items() if k != "year"]
        assert err == "" and rows and np.all(np.isfinite(values))
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert code != 2 or err.startswith(f"error: {config}: [response]")
        assert not out.exists()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool needs the fork start method")
def test_pooled_fit_matches_in_process(tmp_path, monkeypatch, capsys):
    """On the bundled data with more starts than workers, a fit whose starts
    run in forked workers gives the same FitResult, output and model file as
    one that runs them in this process.  Only the first objective evaluation
    runs here, and no worker outlives the fit."""
    from ebgp import cli, inference

    data = Path(__file__).resolve().parents[1] / "data" / "synthetic"
    model = load_model(data / "model_config.txt")
    model.fit = FitSettings(free=model.fit.free, restarts=2, max_iterations=10)
    config = tmp_path / "config.txt"
    save_model(model, config)
    results, calls = [], []

    def recorded(*args, _fit=inference.fit_hyperparameters, **kwargs):
        results.append(_fit(*args, **kwargs))
        return results[-1]

    def counted(*args, _original=inference.mll_and_gradient, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_hyperparameters", recorded)
    monkeypatch.setattr(inference, "mll_and_gradient", counted)
    scenarios = [str(data / f"{name}.csv")
                 for name in ("historical", "ssp_low", "ssp_mid", "ssp_high")]
    outputs, here = [], []
    for workers in (1, 2):
        calls.clear()
        monkeypatch.setattr(inference, "_workers", lambda starts, _workers=workers: _workers)
        out = tmp_path / str(workers) / "model.txt"
        out.parent.mkdir()
        assert main(["fit", "--config", str(config), "--scenario", *scenarios,
                     "--holdout", "ssp_mid", "--out", str(out), "--seed", "7"]) == 0
        assert multiprocessing.active_children() == []
        captured = capsys.readouterr()
        stdout = captured.out.replace(str(out), "model.txt")
        outputs.append((stdout, captured.err, out.read_bytes()))
        here.append(len(calls))
    serial, pooled = results
    assert len(serial.starts) == 3
    assert (pooled.trace, pooled.evaluations, pooled.starts, pooled.mll) == (
        serial.trace, serial.evaluations, serial.starts, serial.mll)
    assert outputs[0] == outputs[1]
    assert here == [serial.evaluations, 1]


def test_default_seed_documented():
    assert isinstance(DEFAULT_SEED, int)


def test_cli_import_leaves_the_optimizer_unloaded():
    """Only ``fit`` uses scipy.optimize; the other commands do not pay for
    importing it."""
    import ebgp

    src = str(Path(ebgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, ebgp.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_special_functions_and_optimizer_unloaded():
    """Only ``evaluate`` uses scipy.special and only ``fit`` scipy.optimize;
    importing the CLI in a fresh interpreter loads neither."""
    import ebgp

    src = str(Path(ebgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, ebgp.cli; "
            "print(sorted(m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["ebgp.scenario", "ebgp.metrics"])
def test_scenario_import_leaves_inference_unloaded(module):
    """The package exports nothing itself, so importing one module loads
    only what that module imports: reading scenarios and scoring need no
    inference, no spatial posterior and no scipy.linalg."""
    import ebgp

    src = str(Path(ebgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (f"import sys, {module}; print(sorted(m for m in "
            "('ebgp.inference', 'ebgp.spatial', 'scipy.linalg') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# Span targets in perfbench/spans.py whose functions were deleted or renamed
# before this check existed; every other target must still resolve.
STALE_SPAN_TARGETS = {
    "inference._train_factor", "spatial.spatial_prior", "cli._read_prediction_csv",
    "cli._read_truth_global", "cli._read_truth_spatial",
}


def test_benchmark_span_targets_resolve():
    """The benchmark's traced run wraps functions by module and name; a
    renamed function would silently zero its per-layer metric.  After the
    CLI import, installing the span recorder finds every target but the
    known-stale ones, and removing it restores the originals."""
    import importlib.util

    from ebgp import inference, kernels

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (kernels.forcing_gram, inference.build_prior, inference.cholesky)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.remove()
    assert set(tracer.missing) <= STALE_SPAN_TARGETS
    assert (kernels.forcing_gram, inference.build_prior, inference.cholesky) == originals


# Each error class the commands may raise, with the exit code ``main`` returns for it.
EXIT_CODES = {
    EmulatorError: 2, ParseError: 2, SchemaError: 2, GridMismatch: 2,
    CompatibilityError: 4, NonFinite: 3, SingularGram: 3, OSError: 2, ValueError: 2,
}


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda error: error.__name__)
def test_exit_code_table(monkeypatch, capsys, tmp_path, error):
    """A command that raises one of errors.py's seven classes, an OSError or
    a ValueError exits with its code and one ``error: <message>`` line."""
    from ebgp import cli, errors

    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {e.__name__ for e in EXIT_CODES} - {"OSError", "ValueError"}

    def failing(args):
        raise error("the message")

    monkeypatch.setattr(cli, "cmd_verify", failing)
    assert main(["verify", "--out", str(tmp_path / "checks.csv")]) == EXIT_CODES[error]
    assert capsys.readouterr() == ("", "error: the message\n")


# Raises of other classes, each caught before it could reach ``main``.
CAUGHT_WHERE_RAISED = {
    ("inference.py", "np.linalg.LinAlgError"),  # _factorise_each climbs to the next jitter rung
    ("cli.py", "argparse.ArgumentTypeError"),  # argparse prints its usage error, exit 2
}


def test_every_raise_is_an_error_line():
    """Every exception the package raises, outside the test-only oracles, is
    one of errors.py's classes, a ValueError or an OSError, which ``main``
    prints as one ``error:`` line, or is caught where it is raised: none
    escapes as a traceback."""
    import ast
    import builtins

    from ebgp import errors

    src = Path(errors.__file__).parent
    allowed = {name for name, value in vars(errors).items() if isinstance(value, type)}
    allowed |= {name for name, value in vars(builtins).items()
                if isinstance(value, type) and issubclass(value, (OSError, ValueError))}
    escaping = []
    for path in sorted(src.glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc)
                if name not in allowed and (path.name, name) not in CAUGHT_WHERE_RAISED:
                    escaping.append(f"{path.name}:{node.lineno}: {name}")
    assert escaping == []


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, seen", [({}, "1 1 1"), ({"OMP_NUM_THREADS": "2"}, "1 2 1")])
def test_one_blas_thread_unless_set(given, seen):
    """``python -m ebgp.cli`` sets each BLAS thread variable its environment
    lacks to 1, before numpy is imported, and keeps one that is set."""
    import ebgp

    src = str(Path(ebgp.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(given, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # Runs the module as ``-m`` does, then reports what the process saw.
    code = ("import os, runpy, sys\n"
            "sys.argv = ['ebgp', '--help']\n"
            "try:\n"
            "    runpy.run_module('ebgp.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0\n"
            f"print(*(os.environ[v] for v in {BLAS_THREAD_VARIABLES!r}), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.startswith("usage: ebgp") and out.stderr == seen + "\n"


BUNDLED = Path(__file__).resolve().parents[1] / "data" / "synthetic"
# Twenty years of each bundled scenario and its companion, so a draw runs in milliseconds.
SMALL_YEARS = {"historical": range(1995, 2015), "ssp_low": range(2015, 2035),
               "ssp_mid": range(2015, 2035), "ssp_high": range(2015, 2035)}


@pytest.fixture(scope="module")
def small_scenarios(tmp_path_factory):
    """Paths of the bundled scenarios cut to SMALL_YEARS, with their companions."""
    out = tmp_path_factory.mktemp("small")
    for name, years in SMALL_YEARS.items():
        for suffix, year_column in (("", 0), ("_spatial", 2)):
            header, *rows = (BUNDLED / f"{name}{suffix}.csv").read_text().splitlines()
            kept = [row for row in rows if int(row.split(",")[year_column]) in years]
            (out / f"{name}{suffix}.csv").write_text("\n".join([header, *kept]) + "\n")
    return {name: str(out / f"{name}.csv") for name in SMALL_YEARS}


def _model_text(values):
    """The bundled model file with ``values``, {(section, key): text}, replacing its own, and
    one short start for ``fit``."""
    values = {("fit", "restarts"): "0", ("fit", "max_iterations"): "3", **values}
    lines, section = [], None
    for line in (BUNDLED / "model_config.txt").read_text().splitlines():
        section = line[1:-1] if line.startswith("[") else section
        key = line.split(" = ")[0]
        lines.append(f"{key} = {values[section, key]}" if (section, key) in values else line)
    return "\n".join(lines) + "\n"


POSITIVE = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)  # log-uniform
SIGNED = st.one_of(st.just(0.0), POSITIVE, POSITIVE.map(lambda value: -value))


def _listed(values):
    """A model-file list of each drawn sequence of floats."""
    return values.map(lambda drawn: ", ".join(map(repr, drawn)))


# Every numeric value of the bundled model file, drawn over its valid range.
MODEL_VALUES = st.fixed_dictionaries({}, optional={
    ("response", "timescales"): _listed(st.tuples(POSITIVE, POSITIVE).map(sorted)),
    ("response", "equilibrium_responses"): _listed(st.tuples(POSITIVE, POSITIVE)),
    ("response", "variability_amplitude"): st.one_of(st.just(0.0), POSITIVE).map(repr),
    ("kernel", "lengthscales"): _listed(st.tuples(POSITIVE, POSITIVE, POSITIVE)),
    ("kernel", "variance"): POSITIVE.map(repr),
    **{(f"forcing.{agent}", key): SIGNED.map(repr)
       for agent in ("co2", "ch4", "so2") for key in ("alpha_log", "alpha_lin", "alpha_sqrt")},
    **{(f"forcing.{agent}", "c0"): POSITIVE.map(repr) for agent in ("co2", "ch4", "so2")},
    ("forcing.co2", "concentration_per_emission"): POSITIVE.map(repr),
})
# The scenarios given, in order; the last one is held out.
SCENARIO_SETS = st.lists(st.sampled_from(list(SMALL_YEARS)), min_size=1, max_size=4, unique=True)
ALL_FOUR = ["historical", "ssp_low", "ssp_high", "ssp_mid"]
# Seeds: the robustness probe's extreme model values, each on every scenario, then the draws
# that printed a warning or wrote an infinite std before the checks they now meet.
PROBES = [({key: value}, ALL_FOUR) for key, value in [
    (("kernel", "lengthscales"), "1e-200, 1.0, 1.0"),
    (("kernel", "variance"), "1e300"),
    (("kernel", "variance"), "1e305"),
    (("kernel", "variance"), "1e307"),
    (("kernel", "variance"), "1.7e308"),
    (("response", "timescales"), "1e-300, 239.0"),
    (("response", "equilibrium_responses"), "1e307, 0.33"),
    (("response", "variability_amplitude"), "1e160"),
    (("forcing.co2", "alpha_log"), "1e307"),
    (("forcing.co2", "alpha_log"), "1.7e308"),
    (("forcing.co2", "c0"), "1e-320"),
    (("forcing.ch4", "alpha_sqrt"), "1e300"),
    (("forcing.ch4", "alpha_sqrt"), "1e308"),
    (("forcing.so2", "alpha_lin"), "-1e308"),
]] + [
    ({("response", "equilibrium_responses"): "1.0, 1e155"}, ["historical"]),  # predictive cov.
    ({("response", "variability_amplitude"): "1e154",
      ("response", "equilibrium_responses"): "10.0, 0.33"}, ["historical"]),  # and its sigma^2
    ({("response", "timescales"): "1.0, 10.0", ("response", "equilibrium_responses"): "1.0, 1e11",
      ("forcing.so2", "c0"): "1e300"}, ["historical"]),  # temperature mean
    ({("response", "equilibrium_responses"): "2.138133545761537e154, 1.4268502930692814e113"},
     ALL_FOUR),  # L K L^T
    ({("response", "variability_amplitude"): "1e150",
      ("response", "equilibrium_responses"): "1e5, 0.33"}, ALL_FOUR),  # sigma^2 Gamma
    ({("response", "equilibrium_responses"): "1e-200, 1e200"}, ALL_FOUR),  # mode weights
    ({("response", "timescales"): "1e-300, 239.0",
      ("response", "equilibrium_responses"): "1e10, 0.33"}, ALL_FOUR),  # dL/dlog d
]


def _seeded(test):
    for values, names in PROBES:
        test = example(values, names)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MODEL_VALUES, SCENARIO_SETS)
@_seeded
def test_any_model_value_gives_finite_output_or_one_error_line(small_scenarios, values, names):
    """Whatever finite values a model file holds, each command that reads one
    exits 0 with finite outputs (and a non-negative std), or exits 2, 3 or 4
    with exactly one ``error:`` line; none prints a traceback or a warning."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "model.txt"
        config.write_text(_model_text(values))
        scenarios = [small_scenarios[name] for name in names]
        for command in ("fit", "emulate", "forcing", "sample", "spatial-emulate"):
            out = Path(tmp) / f"{command}.out"
            model = ["--config" if command == "fit" else "--model", str(config)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
                warnings.simplefilter("always")
                code = main([command, *model, "--scenario", *scenarios, "--holdout", names[-1],
                             "--out", str(out)])
            err = stderr.getvalue()
            assert caught == [], (command, [str(w.message) for w in caught])
            if code != 0:
                assert code in (2, 3, 4) and err.startswith("error: ") and err.count("\n") == 1, (
                    command, code, err)
            elif command == "fit":
                load_model(out)  # a fitted value that is not finite is a ParseError
                assert all(line.startswith("fit: start ") for line in err.splitlines()), err
            else:
                rows = read_csv(out)
                values_out = np.array([[float(v) for k, v in row.items() if k != "year"]
                                       for row in rows])
                assert err == "" and rows and np.all(np.isfinite(values_out)), command
                if "posterior_std" in rows[0]:
                    assert min(float(row["posterior_std"]) for row in rows) >= 0.0, command
