"""Deterministic and probabilistic evaluation scores.

Probabilistic scores evaluate the marginal (per-point) predictive Gaussians:
the reported log-likelihood is the mean per-point log-density, which keeps
values comparable across series lengths.  The joint log-density of a full
posterior is available separately via ``oracles.predictive_log_density``.
Scores are dicts keyed by ``SCORE_FIELDS`` names, without those that do not
apply; gridded scores reduce to one number with cos(latitude) area weights.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch, SchemaError
from .scenario import SpatialGrid

# Two-sided 95% normal quantile used for credible intervals everywhere.
Z95 = 1.959964

SCORE_FIELDS = ("rmse", "mae", "bias", "log_likelihood", "calib95", "crps")


def score_table(scores: dict) -> str:
    """One line per ``SCORE_FIELDS`` name: its score to six decimals, or ``-``."""
    return "\n".join(f"{name:>14}  " + ("-" if scores.get(name) is None else f"{scores[name]:.6f}")
                     for name in SCORE_FIELDS)


def deterministic_scores(prediction: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """(rmse, mae, bias) of a point prediction against the ground truth.

    Scores reduce over the last axis, so a cube of series gives one score
    per series.
    """
    prediction = np.atleast_1d(np.asarray(prediction, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if prediction.shape != truth.shape or prediction.size == 0:
        raise GridMismatch(
            f"prediction has shape {prediction.shape}, truth has {truth.shape}"
        )
    err = prediction - truth
    return (
        np.sqrt(np.mean(err**2, axis=-1)),
        np.mean(np.abs(err), axis=-1),
        np.mean(err, axis=-1),
    )


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)


def gaussian_crps(mean: np.ndarray, std: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Closed-form CRPS of Gaussian forecasts, elementwise.

    Degenerate forecasts (std == 0) reduce to the absolute error.
    """
    # Imported here: of all the commands only ``evaluate`` scores forecasts.
    from scipy.special import ndtr

    mean, std, value = np.broadcast_arrays(
        np.atleast_1d(np.asarray(mean, dtype=float)),
        np.atleast_1d(np.asarray(std, dtype=float)),
        np.atleast_1d(np.asarray(value, dtype=float)),
    )
    out = np.abs(value - mean)
    positive = std > 0
    if np.any(positive):
        z = (value[positive] - mean[positive]) / std[positive]
        out = out.copy()
        out[positive] = std[positive] * (
            z * (2.0 * ndtr(z) - 1.0) + 2.0 * _phi(z) - 1.0 / np.sqrt(np.pi)
        )
    return out


def probabilistic_scores(
    mean: np.ndarray, variance: np.ndarray, truth: np.ndarray
) -> tuple[float, float, float]:
    """(mean per-point log-likelihood, calib95, mean CRPS) of marginal
    Gaussian predictions, reduced over the last axis.

    Zero variances are permitted: the calibration check then counts exact
    hits, CRPS degrades to absolute error and the log-likelihood diverges.
    Negative variances raise SchemaError.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    variance = np.atleast_1d(np.asarray(variance, dtype=float))
    truth = np.atleast_1d(np.asarray(truth, dtype=float))
    if not (mean.shape == variance.shape == truth.shape) or mean.size == 0:
        raise GridMismatch(
            f"shapes differ: mean {mean.shape}, variance {variance.shape}, truth {truth.shape}"
        )
    if np.any(variance < 0):
        raise SchemaError("negative predictive variance")
    std = np.sqrt(variance)

    with np.errstate(divide="ignore"):
        log_density = -0.5 * (
            np.log(2.0 * np.pi) + np.log(variance) + (truth - mean) ** 2 / np.where(variance > 0, variance, 1.0)
        )
    log_density = np.where(variance > 0, log_density, np.where(truth == mean, np.inf, -np.inf))
    calib = np.mean(np.abs(truth - mean) <= Z95 * std, axis=-1)
    crps = np.mean(gaussian_crps(mean, std, truth), axis=-1)
    with np.errstate(invalid="ignore"):
        mean_ll = np.mean(log_density, axis=-1)
    return mean_ll, calib, crps


def area_weighted_mean(field: np.ndarray, grid: SpatialGrid) -> float:
    """Mean over the grid with cos(latitude) row weights."""
    field = np.asarray(field, dtype=float)
    if field.size == 0:
        raise SchemaError("cannot average an empty field")
    if field.shape != grid.shape:
        raise GridMismatch(f"field has shape {field.shape}, grid is {grid.shape}")
    weights = np.cos(np.radians(grid.latitudes))
    n_lon = grid.longitudes.size
    return float(np.sum(weights[:, None] * field) / (n_lon * np.sum(weights)))


def spatial_scores(cells: dict[str, np.ndarray], grid: SpatialGrid) -> dict[str, float]:
    """Aggregate per-cell score arrays, keyed by score name and each shaped
    like the grid, with cos-latitude area weights, into scores under the
    same names."""
    return {name: area_weighted_mean(values, grid) for name, values in cells.items()}
