"""Covariance functions.

Matérn kernels with automatic relevance determination over emission inputs
and the stationary internal-variability covariance.  The physics-propagated
Grams are assembled in ``inference.build_prior``; their reference forms, and
the exact start-from-rest variability covariance, live in ``oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ebm
from .errors import DimensionMismatch

KERNEL_FAMILIES = ("matern12", "matern32")

SQRT3 = np.sqrt(3.0)


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


def _sq_diffs(xa: np.ndarray, xb: np.ndarray, config: KernelConfig) -> np.ndarray:
    """Per-dimension squared scaled differences, shape (d, n, m)."""
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
    diff = xa[:, None, :] - xb[None, :, :]
    return np.moveaxis((diff / config.lengthscales) ** 2, -1, 0)


def forcing_gram(xa: np.ndarray, xb: np.ndarray, config: KernelConfig) -> np.ndarray:
    """Kernel matrix between two sets of emission input rows."""
    sq = _sq_diffs(xa, xb, config)
    r = np.sqrt(np.sum(sq, axis=0))
    if config.family == "matern12":
        return config.variance * np.exp(-r)
    u = SQRT3 * r
    return config.variance * (1.0 + u) * np.exp(-u)


def forcing_gram_gradients(
    x: np.ndarray, config: KernelConfig
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Kernel matrix over one input set plus its log-parameter derivatives.

    Returns (K, [dK/dlog lengthscale_chi ...], dK/dlog variance).  Used by the
    marginal-likelihood optimizer; derivatives are with respect to the log of
    each positive hyperparameter.
    """
    sq = _sq_diffs(x, x, config)
    r = np.sqrt(np.sum(sq, axis=0))
    v = config.variance
    if config.family == "matern12":
        k = v * np.exp(-r)
        # dK/dlog l = K * sq_chi / r, with the r -> 0 diagonal limit of zero
        safe_r = np.where(r > 0, r, 1.0)
        grads = [np.where(r > 0, k * sq[c] / safe_r, 0.0) for c in range(config.n_dims)]
    else:
        e = np.exp(-SQRT3 * r)
        k = v * (1.0 + SQRT3 * r) * e
        grads = [3.0 * v * e * sq[c] for c in range(config.n_dims)]
    return k, grads, k.copy()


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
    sigma^2 factor: sum_i nu_i (q_i^2 / 2 d_i) exp(-|t-t'| / d_i)."""
    d = impulse.timescales
    q = impulse.equilibrium_responses
    t = grid.response_times()
    nu = variability_weights(impulse)
    lag = np.abs(t[:, None] - t[None, :])
    gram = np.zeros((grid.n_steps, grid.n_steps))
    for i in range(impulse.n_boxes):
        gram += nu[i] * (q[i] ** 2 / (2.0 * d[i])) * np.exp(-lag / d[i])
    return gram


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
