"""Pattern scaling and per-location inference.

Local temperature at each grid cell is modelled as an affine function of
global temperature; the fitted map turns the global prior into independent
per-cell priors whose posteriors are computed with the exact machinery from
the inference module.  Cells never interact, so everything here is
embarrassingly parallel; iteration order is fixed for determinism.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRegressor, DimensionMismatch, EmptyGrid, GridMismatch
from .inference import GPPrior, PosteriorDistribution, posterior_temperature
from .scenario import SpatialGrid, TrainingSet


@dataclass
class PatternScalingMap:
    """Per-cell regression slope, intercept and residual variance."""

    slope: np.ndarray
    intercept: np.ndarray
    residual_variance: np.ndarray
    grid: SpatialGrid

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("slope", "intercept", "residual_variance"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise GridMismatch(f"{name} has shape {value.shape}, grid is {shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, value)


def fit_pattern_scaling(
    global_series: Sequence[np.ndarray],
    local_cubes: Sequence[np.ndarray],
    grid: SpatialGrid,
) -> PatternScalingMap:
    """Ordinary least squares of local on global temperature, per cell.

    ``global_series`` and ``local_cubes`` are parallel per-scenario lists;
    cubes have shape (n_time, n_lat, n_lon).  Residual variance is the sum of
    squared residuals over max(n - 2, 1), stored per cell.
    """
    if len(global_series) != len(local_cubes) or not global_series:
        raise DimensionMismatch("need matching, nonempty global and local inputs")
    g = np.concatenate([np.asarray(s, dtype=float) for s in global_series])
    local = np.concatenate([np.asarray(c, dtype=float) for c in local_cubes], axis=0)
    if local.shape != (g.size, *grid.shape):
        raise GridMismatch(f"local cube has shape {local.shape}, expected {(g.size, *grid.shape)}")
    if g.size < 2:
        raise DimensionMismatch("pattern scaling needs at least two time points")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(local))):
        raise ValueError("pattern scaling inputs must be finite")

    gc = g - g.mean()
    var = float(gc @ gc) / g.size
    if var == 0.0:
        raise DegenerateRegressor("global temperature series is constant")
    cov = np.einsum("t,tij->ij", gc, local - local.mean(axis=0)) / g.size
    slope = cov / var
    intercept = local.mean(axis=0) - slope * g.mean()
    residual = local - (slope[None, :, :] * g[:, None, None] + intercept[None, :, :])
    residual_variance = np.einsum("tij,tij->ij", residual, residual) / max(g.size - 2, 1)
    return PatternScalingMap(
        slope=slope, intercept=intercept, residual_variance=residual_variance, grid=grid
    )


def spatial_prior(pattern: PatternScalingMap, prior: GPPrior, i: int, j: int) -> GPPrior:
    """Prior over one grid cell: affinely mapped mean, covariance scaled by
    slope squared.

    The cell's noise model keeps the global variability Gram scaled
    consistently with the prior (slope squared) and adds the regression
    residual variance as per-row white noise, covering local fluctuations
    the pattern cannot express.
    """
    beta = float(pattern.slope[i, j])
    beta0 = float(pattern.intercept[i, j])
    res = float(pattern.residual_variance[i, j])
    scale = beta**2
    return dataclasses.replace(
        prior,
        mean=beta * prior.mean + beta0,
        physics_gram=scale * prior.physics_gram,
        variability_gram=scale * prior.variability_gram,
        extra_noise=np.full(prior.n, res),
    )


def spatial_posterior(
    pattern: PatternScalingMap,
    prior: GPPrior,
    train: TrainingSet,
    local_observations: np.ndarray,
    test_rows: np.ndarray,
) -> dict[tuple[int, int], PosteriorDistribution]:
    """Independent exact posterior at every grid cell.

    ``local_observations`` has shape (train.n, n_lat, n_lon), with rows
    aligned to ``train.index``.  Returns a dict keyed by (lat index, lon
    index) in row-major order.
    """
    local_observations = np.asarray(local_observations, dtype=float)
    n_lat, n_lon = pattern.grid.shape
    if local_observations.shape != (train.n, n_lat, n_lon):
        raise GridMismatch(
            f"local observations have shape {local_observations.shape}, "
            f"expected {(train.n, n_lat, n_lon)}"
        )
    field: dict[tuple[int, int], PosteriorDistribution] = {}
    for i in range(n_lat):
        for j in range(n_lon):
            cell_prior = spatial_prior(pattern, prior, i, j)
            cell_train = dataclasses.replace(
                train, temperatures=local_observations[:, i, j]
            )
            field[(i, j)] = posterior_temperature(cell_prior, cell_train, test_rows)
    return field


def area_weighted_mean(field: np.ndarray, grid: SpatialGrid) -> float:
    """Mean over the grid with cos(latitude) row weights."""
    field = np.asarray(field, dtype=float)
    if field.size == 0:
        raise EmptyGrid("cannot average an empty field")
    if field.shape != grid.shape:
        raise GridMismatch(f"field has shape {field.shape}, grid is {grid.shape}")
    weights = np.cos(np.radians(grid.latitudes))
    n_lon = grid.longitudes.size
    return float(np.sum(weights[:, None] * field) / (n_lon * np.sum(weights)))
