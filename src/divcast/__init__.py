"""Forecast combination with time-varying weights estimated by particle
filtering, including a diversity-driven latent process, classical baselines
(equal weighting, recursive and rolling BMA), proper-score evaluation, and
synthetic benchmark generators."""

from .combine import CombinerResult, bma_weights, run_combiner, single_model_result
from .core import (
    ConfigError,
    DataFormatError,
    DegeneracyError,
    ForecastSeries,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    default_sigma_obs,
)
from .dgp import SimSpec, gen_complete_ar, gen_nonlinear_incomplete, generate
from .diversity import diversity_vector, scaled_diversity
from .filtering import FilterOutput, FilterState, ParticleFilter, run_filter, systematic_resample
from .latent import (
    ADAPTIVE_TVW,
    DTVW,
    TVW,
    LatentMode,
    ParticleCloud,
    init_particles,
    theta_from_alpha,
)
from .metrics import DMResult, dm_test, log_score, rmsfe, score_forecasts
from .tune import GridSpec, grid_search, make_crps_runner

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE_TVW",
    "DTVW",
    "TVW",
    "CombinerResult",
    "ConfigError",
    "DMResult",
    "DataFormatError",
    "DegeneracyError",
    "FilterOutput",
    "FilterState",
    "ForecastSeries",
    "GridSpec",
    "InputError",
    "LatentMode",
    "NoiseConfig",
    "ObservationSeries",
    "ParticleCloud",
    "ParticleFilter",
    "PredictorPanel",
    "SimSpec",
    "bma_weights",
    "default_sigma_obs",
    "diversity_vector",
    "dm_test",
    "gen_complete_ar",
    "gen_nonlinear_incomplete",
    "generate",
    "grid_search",
    "init_particles",
    "log_score",
    "make_crps_runner",
    "rmsfe",
    "run_combiner",
    "run_filter",
    "score_forecasts",
    "single_model_result",
    "systematic_resample",
    "theta_from_alpha",
]
