"""Forecast combination with time-varying weights estimated by particle
filtering, including a diversity-driven latent process, classical baselines
(equal weighting, recursive and rolling BMA), proper-score evaluation, and
synthetic benchmark generators."""

import os

# divcast runs one compute process per CPU (tune._map_forked), so a BLAS
# thread pool beside them only spins.  OpenBLAS sizes its pool when numpy
# first loads it, so this comes before the first import of numpy; a caller's
# own setting is kept, and forked workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
from .dgp import SimSpec, generate
from .filtering import FilterOutput, ParticleFilter, run_filter
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
    "dm_test",
    "generate",
    "grid_search",
    "make_crps_runner",
    "run_combiner",
    "run_filter",
    "single_model_result",
]
