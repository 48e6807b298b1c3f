"""Gaussian-process surface temperature emulator with a k-box energy balance
prior: exact posteriors over temperature and radiative forcing, spatial
pattern-scaling extension, marginal-likelihood fitting and a brute-force
oracle suite."""

from .ebm import (
    AgentForcing,
    ForcingParams,
    ImpulseParams,
    TimeGrid,
    forcing_response,
    thermal_response,
)
from .inference import (
    Conditioned,
    EmulatorModel,
    FitSettings,
    GPPrior,
    PosteriorDistribution,
    build_prior,
    condition,
    fit_hyperparameters,
    posterior_forcing,
    posterior_temperature,
    sample_posterior,
)
from .kernels import KernelConfig, forcing_gram, internal_variability_gram
from .metrics import ScoreReport, deterministic_scores, probabilistic_scores, spatial_scores
from .model_io import load_model, parse_model, save_model, serialize_model
from .scenario import (
    AgentSpec,
    Scenario,
    SpatialGrid,
    Standardization,
    TrainingSet,
    assemble_training_set,
    load_scenario,
    save_scenario,
    save_spatial,
)
from .spatial import (
    PatternScalingMap,
    area_weighted_mean,
    fit_pattern_scaling,
    spatial_posterior,
)

__version__ = "0.1.0"
