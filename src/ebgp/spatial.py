"""Pattern scaling and per-location inference.

Local temperature at each grid cell is an affine function of global
temperature, fitted by least squares on the stacked training rows; the
fitted map turns the global prior into independent per-cell priors.  Every
cell's noisy training block is the global one scaled by the slope squared
plus the cell's residual variance on the diagonal, so one eigendecomposition
of the global block gives the exact posterior mean and marginal variance of
all cells at once, with ``factorise``'s jitter rule (``jitter_rungs``) per
cell.  The per-cell Cholesky form is the reference in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegressor, DimensionMismatch, GridMismatch, NonFinite, SingularGram
from .inference import GPPrior, jitter_rungs
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
    global_temperatures: np.ndarray, local: np.ndarray, grid: SpatialGrid
) -> PatternScalingMap:
    """Ordinary least squares of local on global temperature, per cell.

    ``global_temperatures`` holds the stacked (n,) training rows and ``local``
    their (n, n_lat, n_lon) cube, row for row, as ``spatial_posterior`` takes
    them.  Residual variance is the sum of squared residuals over
    max(n - 2, 1), stored per cell.
    """
    g = np.asarray(global_temperatures, dtype=float)
    local = np.asarray(local, dtype=float)
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


def spatial_posterior(
    pattern: PatternScalingMap,
    prior: GPPrior,
    train: TrainingSet,
    local_observations: np.ndarray,
    test_rows: slice,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact posterior mean and epistemic marginal variance of every cell at
    the prior rows ``test_rows``, each of shape (n_lat, n_lon, rows).

    A cell with slope b, intercept b0 and residual variance r has the noisy
    training block b^2 A + r I, A the global one.  So with A = V diag(lam) V^T,
    D = b^2 lam + r + jitter, P = K[test, train] V and y the cell's
    residuals, mean = b m* + b0 + b^2 P ((V^T y) / D) and
    variance = b^2 diag K** - b^4 (P * P) (1 / D).  The jitter is the first
    of the ``jitter_rungs`` at the cell block's mean diagonal that makes
    every D positive.  ``local_observations`` has shape (train.n, n_lat,
    n_lon), rows aligned to ``train.index``, which must be the prior's
    leading rows (``GPPrior.noisy_block``).  A cell whose mean or variance
    overflows to a non-finite value is a NonFinite error.
    """
    local_observations = np.asarray(local_observations, dtype=float)
    n_lat, n_lon = pattern.grid.shape
    if local_observations.shape != (train.n, n_lat, n_lon):
        raise GridMismatch(
            f"local observations have shape {local_observations.shape}, "
            f"expected {(train.n, n_lat, n_lon)}"
        )
    slope = pattern.slope.ravel()
    intercept = pattern.intercept.ravel()
    noise = pattern.residual_variance.ravel()
    scale = slope**2

    block = prior.noisy_block(train)
    rungs = jitter_rungs(block, scale, noise) if train.n else None
    eigvals, eigvecs = np.linalg.eigh(block)
    jitter = np.zeros_like(noise)
    if train.n:
        # b^2 lam_min + r + jitter is the smallest D of a cell
        positive = scale * eigvals[0] + noise + rungs > 0
        if not np.all(positive[-1]):
            raise SingularGram(f"a cell block is singular at maximum jitter (n={train.n})")
        jitter = rungs[np.argmax(positive, axis=0), np.arange(slope.size)]

    k = prior.physics_gram(test_rows)
    proj = k[:, :train.n] @ eigvecs
    residual = local_observations.reshape(train.n, slope.size) - (
        slope * prior.mean[:train.n, None] + intercept
    )
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        d = scale * eigvals[:, None] + noise + jitter
        mean = (
            slope * prior.mean[test_rows, None] + intercept
            + scale * (proj @ ((eigvecs.T @ residual) / d))
        )
        variance = scale * np.diag(k[:, test_rows])[:, None] - scale**2 * ((proj * proj) @ (1.0 / d))
    finite = np.isfinite(mean) & np.isfinite(variance)
    if not np.all(finite):
        i, j = np.unravel_index(np.argmin(finite.all(axis=0)), (n_lat, n_lon))
        cell = (float(pattern.grid.latitudes[i]), float(pattern.grid.longitudes[j]))
        raise NonFinite(f"spatial posterior mean or variance of cell {cell} is not finite")
    return mean.T.reshape(n_lat, n_lon, -1), variance.T.reshape(n_lat, n_lon, -1)
