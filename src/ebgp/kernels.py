"""Covariance functions.

Matérn kernels with automatic relevance determination over emission inputs
and the stationary internal-variability covariance.  A prior keeps the
forcing kernel once, evaluated on its distinct emission rows
(``inference.GPPrior.kernel_gram``), and propagates it to L K L^T; the
reference forms of the propagated Grams, and the exact start-from-rest
variability covariance, live in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from . import ebm
from .errors import DimensionMismatch

KERNEL_FAMILIES = ("matern12", "matern32")

SQRT3 = np.sqrt(3.0)
BIG = np.finfo(float).max


@dataclass
class KernelConfig:
    """Matérn kernel configuration with one lengthscale per input dimension."""

    family: str
    lengthscales: np.ndarray
    variance: float
    standardize_inputs: bool = True

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family '{self.family}'")
        self.lengthscales = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if np.any(self.lengthscales <= 0):
            raise ValueError("lengthscales must be positive")
        if self.variance <= 0:
            raise ValueError("variance must be positive")

    @property
    def n_dims(self) -> int:
        return self.lengthscales.size


def _sq_diffs(xa: np.ndarray, xb: np.ndarray, config: KernelConfig) -> tuple[list, np.ndarray]:
    """Squared scaled differences, one (n, m) array per input dimension, and the scaled
    distance r.  Where r overflows, both stand at the top of the float range instead, where
    every kernel and derivative reaches its limit 0; finite values keep their bits."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != xb.shape[1]:
        raise DimensionMismatch(
            f"input matrices have {xa.shape[1]} and {xb.shape[1]} columns"
        )
    if xa.shape[1] != config.n_dims:
        raise DimensionMismatch(
            f"{xa.shape[1]} input dimensions for {config.n_dims} lengthscales"
        )
    with np.errstate(over="ignore"):
        sq = [((a[:, None] - b[None, :]) / ell) ** 2
              for a, b, ell in zip(xa.T, xb.T, config.lengthscales)]
        r = np.sqrt(sum(sq))
    if np.isinf(r.max(initial=0.0)):
        sq, r = [np.minimum(s, BIG) for s in sq], np.minimum(r, np.sqrt(BIG))
    return sq, r


def forcing_gram(xa: np.ndarray, xb: np.ndarray, config: KernelConfig) -> np.ndarray:
    """Kernel matrix between two sets of emission input rows (inf where it overflows)."""
    r = _sq_diffs(xa, xb, config)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        if config.family == "matern12":
            return config.variance * np.exp(-r)
        u = SQRT3 * r
        return config.variance * (1.0 + u) * np.exp(-u)


def forcing_gram_gradients(
    x: np.ndarray, config: KernelConfig
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Kernel matrix over one input set plus its log-lengthscale derivatives.

    Returns (K, [dK/dlog lengthscale_chi ...]).  Used by the
    marginal-likelihood optimizer; the derivative with respect to the log
    variance is K itself.
    """
    sq, r = _sq_diffs(x, x, config)
    v = config.variance
    if config.family == "matern12":
        k = v * np.exp(-r)
        # dK/dlog l = K * sq_chi / r, with the r -> 0 diagonal limit of zero
        safe_r = np.where(r > 0, r, 1.0)
        return k, [np.where(r > 0, k * s / safe_r, 0.0) for s in sq]
    e = np.exp(-SQRT3 * r)
    return v * (1.0 + SQRT3 * r) * e, [3.0 * v * e * s for s in sq]


def variability_weights(impulse: ebm.ImpulseParams) -> np.ndarray:
    """Dimensionless mode weights folding the cross terms of the noise
    responses into a per-mode sum: nu_i = sum_j 2 d_i q_j / (q_i (d_i + d_j))."""
    d = impulse.timescales
    q = impulse.equilibrium_responses
    return np.array(
        [2.0 * d[i] * np.sum(q / (d[i] + d)) / q[i] for i in range(impulse.n_boxes)]
    )


def internal_variability_gram(impulse: ebm.ImpulseParams, grid: ebm.TimeGrid) -> np.ndarray:
    """Stationary internal-variability covariance on the grid, without the
    sigma^2 factor: sum_i nu_i (q_i^2 / 2 d_i) exp(-|t-t'| / d_i), a
    symmetric Toeplitz matrix built from its first column."""
    d = impulse.timescales
    q = impulse.equilibrium_responses
    nu = variability_weights(impulse)
    lag = grid.step * np.arange(grid.n_steps)
    column = np.zeros(grid.n_steps)
    # An overflow is left inf or nan: the training block's finite check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(impulse.n_boxes):
            column += nu[i] * (q[i] ** 2 / (2.0 * d[i])) * np.exp(-lag / d[i])
    return toeplitz(column)


def variability_gradient(
    impulse: ebm.ImpulseParams, grid: ebm.TimeGrid, weights: np.ndarray
) -> np.ndarray:
    """Gradient of <weights, internal_variability_gram> with respect to log q
    (first row) and log d (second row), closed form in c_ij = q_i q_j / (d_i + d_j):
    the Gram is sum_ij c_ij exp(-|t-t'| / d_i)."""
    d = impulse.timescales
    lag = grid.step * np.arange(grid.n_steps) / d[:, None]
    sums = ebm.lag_sums(np.tril(weights) + np.triu(weights, 1).T)
    e, f = np.array([np.exp(-lag), lag * np.exp(-lag)]) @ sums
    pair = np.add.outer(d, d)
    c = np.outer(impulse.equilibrium_responses, impulse.equilibrium_responses) / pair
    r = c / pair
    return np.array([c.sum(1) * e + c @ e, c.sum(1) * f - d * (r.sum(1) * e + r @ e)])
