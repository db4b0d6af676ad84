"""Domain types shared across the package.

Conventions used throughout:

* Observations are a (T, L) array: T time steps, L target variables.
* A predictor panel is a dense (T, K, L, H, D) array of predictive draws:
  K candidate models, H forecast horizons, D draws per cell.  Cell
  ``(t, k, l, h)`` holds model k's draws for variable l *at target time t*,
  issued at time t-h (so the horizon-1 cell for time t is the one-step-ahead
  forecast made at t-1).
* A weight matrix is a (K, L) array whose columns live on the K-simplex.
* Latent weight vectors are vectorized column-major (variable-major):
  entry ``l*K + k`` of x corresponds to matrix entry (k, l).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InputError(ValueError):
    """Invalid data passed to an operation (exit code 2 at the CLI)."""


class ConfigError(InputError):
    """Invalid configuration value (exit code 2 at the CLI)."""


class DataFormatError(InputError):
    """Malformed input file contents (exit code 2 at the CLI)."""


class DegeneracyError(RuntimeError):
    """Numerical failure of the filter (exit code 3 at the CLI)."""


@dataclass(frozen=True)
class ObservationSeries:
    """Observed target path: values has shape (T, L).  No variable may be
    named `average` or `joint`, the summary rows of the score tables."""

    values: np.ndarray
    variable_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1:
            raise InputError("observations must be a (T, L) array with T >= 1")
        if len(self.variable_names) != values.shape[1]:
            raise InputError(
                f"{len(self.variable_names)} variable names for "
                f"{values.shape[1]} columns"
            )
        if not np.all(np.isfinite(values)):
            raise InputError("observations contain non-finite values")
        for name in ("average", "joint"):
            if name in self.variable_names:
                raise InputError(f"variable name {name!r} is reserved for the score tables' summary rows")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PredictorPanel:
    """Dense panel of predictive draws, shape (T, K, L, H, D)."""

    draws: np.ndarray
    model_names: tuple[str, ...]
    variable_names: tuple[str, ...] | None = None
    _means: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 5:
            raise InputError("panel draws must be a (T, K, L, H, D) array")
        T, K, L, H, D = draws.shape
        if min(T, K, L, H, D) < 1:
            raise InputError("panel dimensions must all be >= 1")
        if len(self.model_names) != K:
            raise InputError(f"{len(self.model_names)} model names for {K} models")
        if self.variable_names is not None and len(self.variable_names) != L:
            raise InputError(f"{len(self.variable_names)} variable names for {L} variables")
        if not np.all(np.isfinite(draws)):
            raise InputError("panel draws contain non-finite values")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "model_names", tuple(self.model_names))
        if self.variable_names is not None:
            object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "_means", draws.mean(axis=4))

    @property
    def n_steps(self) -> int:
        return self.draws.shape[0]

    @property
    def n_models(self) -> int:
        return self.draws.shape[1]

    @property
    def n_vars(self) -> int:
        return self.draws.shape[2]

    @property
    def n_horizons(self) -> int:
        return self.draws.shape[3]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[4]

    def mean_matrix(self, t: int, h: int = 1) -> np.ndarray:
        """Per-cell draw means at target time t (1-based), shape (K, L)."""
        self._check_index(t, h)
        return self._means[t - 1, :, :, h - 1]

    def draw_block(self, t: int, h: int = 1) -> np.ndarray:
        """All draws at target time t (1-based), shape (K, L, D)."""
        self._check_index(t, h)
        return self.draws[t - 1, :, :, h - 1, :]

    def _check_index(self, t: int, h: int) -> None:
        if not 1 <= t <= self.n_steps:
            raise InputError(f"time index {t} outside 1..{self.n_steps}")
        if not 1 <= h <= self.n_horizons:
            raise InputError(f"horizon {h} outside 1..{self.n_horizons}")


@dataclass(frozen=True)
class NoiseConfig:
    """Noise scales: sigma_obs is the (L,) diagonal of the observation
    covariance; sigma_x and sigma_alpha drive the latent random walks.

    Zero sigma_x / sigma_alpha are permitted (deterministic-limit mode);
    sigma_obs must be strictly positive, with a square (the observation
    variance) above 0 and finite.
    """

    sigma_obs: np.ndarray
    sigma_x: float = 0.25
    sigma_alpha: float = 0.05

    def __post_init__(self):
        sigma_obs = np.atleast_1d(np.asarray(self.sigma_obs, dtype=float))
        if sigma_obs.ndim != 1:
            raise ConfigError("sigma_obs must be a vector")
        with np.errstate(over="ignore"):
            square = sigma_obs * sigma_obs
        if not np.all((sigma_obs > 0) & (square > 0) & np.isfinite(square)):
            raise ConfigError("sigma_obs must be > 0, and its square above 0 and finite")
        if not (0 <= self.sigma_x < np.inf and 0 <= self.sigma_alpha < np.inf):
            raise ConfigError("sigma_x and sigma_alpha must be finite and >= 0")
        object.__setattr__(self, "sigma_obs", sigma_obs)
        object.__setattr__(self, "sigma_x", float(self.sigma_x))
        object.__setattr__(self, "sigma_alpha", float(self.sigma_alpha))


@dataclass(frozen=True)
class ForecastSeries:
    """Out-of-sample forecasts of one method at one horizon.

    targets are ascending 1-based target-time indices; point is (S, L);
    log_pred is the joint log predictive density at the realized outcome,
    log_pred_marginal the per-variable marginals, and crps (S, L) the
    sample CRPS of each target's equally weighted predictive draws at the
    realized outcome.  The draws are scored where they are made and not
    kept; a caller that wants them passes the maker a per-target function
    (ParticleFilter.run_block, run_combiner).
    """

    horizon: int
    targets: np.ndarray
    point: np.ndarray
    log_pred: np.ndarray
    log_pred_marginal: np.ndarray
    crps: np.ndarray


def _check_alignment(obs: ObservationSeries, panel: PredictorPanel) -> None:
    """Reject a panel of other variables than obs, or of fewer steps."""
    if panel.n_vars != obs.n_vars:
        raise InputError(f"panel has {panel.n_vars} variables, observations have {obs.n_vars}")
    if panel.variable_names is not None and panel.variable_names != obs.variable_names:
        raise InputError(f"panel variables {panel.variable_names} do not match observations {obs.variable_names}")
    if panel.n_steps < obs.n_steps:
        raise InputError("panel does not cover the observation range")


def matrix_to_latent(m: np.ndarray) -> np.ndarray:
    """Vectorize a (K, L) matrix column by column (variable-major); a
    (T, K, L) stack gives a (T, K*L) array, one row per matrix."""
    m = np.asarray(m, dtype=float)
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], -1)


def default_sigma_obs(obs: ObservationSeries, panel: PredictorPanel) -> np.ndarray:
    """Scale-adaptive default for the observation noise: the per-variable
    sample standard deviation of equal-weight combination residuals over the
    first max(10, T/10) steps, floored away from zero.
    """
    T = obs.n_steps
    n_cal = min(T, max(10, T // 10))
    means = panel._means[:n_cal, :, :, 0]  # (n_cal, K, L)
    resid = obs.values[:n_cal] - means.mean(axis=1)
    ddof = 1 if n_cal > 1 else 0
    sd = resid.std(axis=0, ddof=ddof)
    scale = np.abs(obs.values[:n_cal]).mean(axis=0)
    floor = np.maximum(1e-6, 1e-3 * np.maximum(scale, 1e-6))
    return np.maximum(sd, floor)
