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
from .latent import ADAPTIVE_TVW, DTVW, TVW, LatentMode
from .metrics import DMResult, dm_test
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
    "make_crps_runner",
    "run_combiner",
    "run_filter",
    "single_model_result",
    "systematic_resample",
]
