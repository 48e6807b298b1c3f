import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebgp.errors import GridMismatch, LengthMismatch, NonPositiveVariance
from ebgp.metrics import (
    SCORE_FIELDS,
    Z95,
    deterministic_scores,
    gaussian_crps,
    probabilistic_scores,
    score_table,
    spatial_scores,
)
from ebgp.oracles import mc_crps
from ebgp.scenario import SpatialGrid

LOG_2PI = np.log(2.0 * np.pi)


def parse_report(values):
    """Scores from their CSV cells: an empty cell is an absent score."""
    return {name: float(text) for name, text in zip(SCORE_FIELDS, values) if text.strip()}


def csv_cells(scores):
    """Scores' cells as ``evaluate`` writes them, read back: it hands
    ``csv.writer`` each score as a Python float, or None for an absent one."""
    out = io.StringIO()
    csv.writer(out).writerow(float(scores[name]) if name in scores else None
                             for name in SCORE_FIELDS)
    return next(csv.reader(io.StringIO(out.getvalue())))


class TestDeterministic:
    def test_perfect_prediction(self):
        assert deterministic_scores([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        rmse, mae, bias = deterministic_scores([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert (rmse, mae, bias) == (1.0, 1.0, 1.0)

    def test_two_point_arithmetic(self):
        rmse, mae, bias = deterministic_scores([0.0, 2.0], [0.0, 0.0])
        assert rmse == pytest.approx(np.sqrt(2.0))
        assert mae == 1.0
        assert bias == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            deterministic_scores([1.0], [1.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=30
        )
    )
    def test_rmse_mae_bias_ordering(self, pairs):
        pred = np.array([p for p, _ in pairs])
        truth = np.array([t for _, t in pairs])
        rmse, mae, bias = deterministic_scores(pred, truth)
        assert rmse >= mae - 1e-12
        assert mae >= abs(bias) - 1e-12


class TestProbabilistic:
    def test_log_likelihood_at_mean_unit_variance(self):
        ll, calib, _ = probabilistic_scores([0.0], [1.0], [0.0])
        assert ll == pytest.approx(-0.5 * LOG_2PI, rel=1e-12)
        assert calib == 1.0

    def test_crps_at_mean_unit_scale(self):
        _, _, crps = probabilistic_scores([0.0], [1.0], [0.0])
        expected = 2.0 / np.sqrt(2.0 * np.pi) - 1.0 / np.sqrt(np.pi)
        assert crps == pytest.approx(expected, rel=1e-12)
        assert crps == pytest.approx(0.2336949, abs=1e-6)

    def test_crps_against_monte_carlo_oracle(self):
        # unit-scale cases; the estimator error grows with the forecast scale
        for mean, std, value, seed in [
            (0.0, 1.0, 0.0, 0),
            (0.3, 1.0, 0.0, 1),
            (-1.0, 0.5, 0.5, 2),
        ]:
            closed = float(gaussian_crps(mean, std, value)[0])
            estimate = mc_crps(mean, std, value, 1_000_000, seed)
            assert abs(closed - estimate) <= 1e-3

    def test_degenerate_variance_counts_exact_hits(self):
        _, calib, crps = probabilistic_scores([1.0, 1.0], [0.0, 0.0], [1.0, 2.0])
        assert calib == 0.5
        assert crps == pytest.approx(0.5)  # absolute-error fallback

    def test_calibration_of_self_generated_data(self):
        rng = np.random.default_rng(5)
        n = 10_000
        mean = rng.normal(size=n)
        var = rng.uniform(0.5, 2.0, size=n)
        truth = mean + np.sqrt(var) * rng.standard_normal(n)
        _, calib, _ = probabilistic_scores(mean, var, truth)
        assert 0.93 <= calib <= 0.97

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        mean = rng.normal(size=50)
        var = rng.uniform(0.3, 2.0, size=50)
        truth = rng.normal(size=50)
        base = probabilistic_scores(mean, var, truth)
        perm = rng.permutation(50)
        shuffled = probabilistic_scores(mean[perm], var[perm], truth[perm])
        np.testing.assert_allclose(base, shuffled, rtol=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(NonPositiveVariance):
            probabilistic_scores([0.0], [-1.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            probabilistic_scores([0.0, 1.0], [1.0], [0.0])

    def test_interval_uses_z95(self):
        std = 2.0
        inside = Z95 * std - 1e-9
        outside = Z95 * std + 1e-9
        _, calib_in, _ = probabilistic_scores([0.0], [std**2], [inside])
        _, calib_out, _ = probabilistic_scores([0.0], [std**2], [outside])
        assert calib_in == 1.0 and calib_out == 0.0

    def test_cube_matches_series_one_at_a_time(self):
        """Scores of a cube reduce over its last axis, bit for bit as when
        each series is scored alone."""
        rng = np.random.default_rng(3)
        mean, truth = rng.normal(size=(2, 3, 4, 36))
        variance = rng.uniform(0.1, 1.0, size=(3, 4, 36))
        cube = (*deterministic_scores(mean, truth), *probabilistic_scores(mean, variance, truth))
        for i in range(3):
            for j in range(4):
                series = (*deterministic_scores(mean[i, j], truth[i, j]),
                          *probabilistic_scores(mean[i, j], variance[i, j], truth[i, j]))
                assert [score[i, j] for score in cube] == list(series)


class TestScoreReport:
    """Scores are a dict keyed by ``SCORE_FIELDS`` names, as ``evaluate``
    builds them, without the scores that do not apply."""

    def test_csv_round_trip(self):
        report = dict(rmse=np.float64(0.1), mae=0.08, bias=-0.01, log_likelihood=0.5,
                      calib95=0.95, crps=0.06)
        back = parse_report(csv_cells(report))
        assert back == report

    def test_partial_report_round_trip(self):
        report = dict(rmse=0.25, mae=0.2, bias=0.1)
        cells = csv_cells(report)
        assert cells[3:] == ["", "", ""]
        back = parse_report(cells)
        assert back == report
        assert "log_likelihood" not in back

    def test_table_rendering(self):
        table = score_table(dict(rmse=np.float64(0.5), crps=0.25)).splitlines()
        assert table[0] == "          rmse  0.500000"
        assert table[1] == "           mae  -"
        assert table[5] == "          crps  0.250000"
        assert len(table) == len(SCORE_FIELDS)


class TestSpatialScores:
    grid = SpatialGrid([0.0, 60.0], [0.0, 180.0])

    def test_identical_reports_pass_through(self):
        values = dict(rmse=0.3, mae=0.2, bias=0.0, log_likelihood=1.0, calib95=0.9, crps=0.1)
        out = spatial_scores({k: np.full((2, 2), v) for k, v in values.items()}, self.grid)
        for name in SCORE_FIELDS:
            assert out[name] == pytest.approx(values[name], abs=1e-12)

    def test_two_row_cosine_weights(self):
        out = spatial_scores({"rmse": np.array([[1.0, 1.0], [0.0, 0.0]])}, self.grid)
        assert out["rmse"] == pytest.approx(1.0 / 1.5, rel=1e-12)
        assert "mae" not in out

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.0, size=(2, 2))
        weights = np.cos(np.radians(self.grid.latitudes))
        expected = sum(
            weights[i] * values[i, j] for i in range(2) for j in range(2)
        ) / (2 * weights.sum())
        out = spatial_scores({"crps": values}, self.grid)
        assert out["crps"] == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(GridMismatch):
            spatial_scores({"rmse": np.zeros((1, 1))}, self.grid)
