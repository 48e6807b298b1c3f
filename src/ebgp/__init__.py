"""Gaussian-process surface temperature emulator with a k-box energy balance
prior: exact posteriors over temperature and radiative forcing, spatial
pattern-scaling extension, marginal-likelihood fitting and a brute-force
oracle suite."""

__version__ = "0.1.0"
