"""Non-filter combination baselines under a common result shape: equal
weighting, recursive Bayesian model averaging on cumulative log predictive
likelihoods, and its rolling-window variant.  Individual panel models are
exposed through the same result shape, as slices of the panel, so score
tables can mix models and combiners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ForecastSeries,
    InputError,
    ObservationSeries,
    PredictorPanel,
    _check_alignment,
)
from .filtering import _gaussian_logpdf, _mixture_log_predictives, systematic_resample
from .rng import substream

VAR_FLOOR = 1e-8


@dataclass
class CombinerResult:
    """Per-time combination weights (identical across variables for these
    baselines) plus the out-of-sample forecast block at one horizon."""

    method: str
    weights: np.ndarray  # (T, K, L)
    forecasts: ForecastSeries


def model_log_predictive_matrix(
    panel: PredictorPanel,
    obs: ObservationSeries,
    fallback_sigma: float = 0.1,
    horizon: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable and joint log predictives of every model at every target
    time, from a diagonal Gaussian moment-fitted to each panel cell of the
    horizon: returns (T, K) joint and (T, K, L) marginal arrays.

    With a single draw, or a degenerate draw spread, the configured fallback
    bandwidth acts as the standard deviation; otherwise the sample variance
    is floored at 1e-8.
    """
    cells = (slice(obs.n_steps), slice(None), slice(None), horizon - 1)
    marginal = _fit_cells(panel.draws[cells], panel._means[cells], obs.values[:, None, :], fallback_sigma)
    return marginal.sum(axis=2), marginal


def _fit_cells(draws: np.ndarray, means: np.ndarray, y: np.ndarray, fallback_sigma: float) -> np.ndarray:
    """Per-variable log predictives at y of the diagonal Gaussians fitted to
    panel cells, draws (..., L, D) with their means (..., L), as
    model_log_predictive_matrix describes.  Each cell's fit reads only its
    own draws, so a subset of the cells has the bits of the whole."""
    if fallback_sigma <= 0:
        raise InputError("fallback_sigma must be positive")
    if draws.shape[-1] >= 2:
        var = draws.var(axis=-1, ddof=1)
        s = np.where(var == 0.0, fallback_sigma, np.sqrt(np.maximum(var, VAR_FLOOR)))
    else:
        s = np.full_like(means, fallback_sigma)
    return _gaussian_logpdf(y, means, s)


def bma_weights(log_pred_per_model: np.ndarray, window: int | None = None) -> np.ndarray:
    """Recursive model-averaging weights from per-step log predictive scores.

    Row t is the softmax over models of the summed scores in the trailing
    window ending at t-1 (the full sample 1..t-1 when window is None), so
    weights at t never touch data from t onward.  Row 1 is uniform.
    """
    lp = np.asarray(log_pred_per_model, dtype=float)
    if lp.ndim != 2:
        raise InputError("log predictive scores must be a (T, K) matrix")
    if not np.all(np.isfinite(lp)):
        raise InputError("log predictive scores must be finite")
    if window is not None and window < 1:
        raise InputError("window must be >= 1")
    T, K = lp.shape
    cum = np.vstack([np.zeros(K), np.cumsum(lp, axis=0)])  # cum[t] = sum of rows < t
    lo = 0 if window is None else np.maximum(0, np.arange(T) - window)
    scores = cum[:T] - cum[lo]
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def run_combiner(
    method: str,
    obs: ObservationSeries,
    panel: PredictorPanel,
    horizon: int = 1,
    window: int | None = None,
    fallback_sigma: float = 0.1,
    n_pred_draws: int = 1000,
    seed: int = 0,
) -> CombinerResult:
    """Run one of the baselines: 'equal', 'bma' or 'bma_roll'.

    Their (T, K) weight rows hold for every variable.  The forecast of
    target s, for s in h..T, mixes the Gaussian-fitted panel cells with the
    weight row at s-h+1 (information through s-h), scored as a mixture of the
    models (_mixture_log_predictives).  Equal weighting pools every model's
    draws; BMA resamples models by their weights."""
    T, K, L = obs.n_steps, panel.n_models, panel.n_vars
    _check_alignment(obs, panel)
    if method not in ("equal", "bma", "bma_roll"):
        raise InputError(f"unknown combiner {method!r}")
    if method == "bma_roll" and window is None:
        raise InputError("bma_roll requires a window")

    joint, marginal = model_log_predictive_matrix(panel, obs, fallback_sigma, horizon)
    if method == "equal":
        weight_rows = np.full((T, K), 1.0 / K)
    else:
        joint_1 = joint if horizon == 1 else model_log_predictive_matrix(panel, obs, fallback_sigma)[0]
        weight_rows = bma_weights(joint_1, window=window if method == "bma_roll" else None)

    targets = np.arange(horizon, T + 1)
    w = weight_rows[targets - horizon]  # (S, K): the 0-based row of s-h+1
    point = np.einsum("sk,skl->sl", w, panel._means[targets - 1, :, :, horizon - 1])
    with np.errstate(divide="ignore"):
        logw = np.where(w > 0, np.log(w), -np.inf)
    log_pred, log_pred_marginal = _mixture_log_predictives(logw, marginal[targets - 1])
    if method == "equal":
        # Pooled draws across models: the exact equal-weight mixture sample.
        block = panel.draws[targets - 1, :, :, horizon - 1, :]  # (S, K, L, D)
        draws = np.moveaxis(block, 3, 2).reshape(len(targets), K * panel.n_draws, L)
    else:
        rng = substream(seed, "combine")
        draws = np.empty((len(targets), n_pred_draws, L))
        for i, s in enumerate(targets):
            models = systematic_resample(w[i], rng, n=n_pred_draws)
            d = rng.integers(0, panel.n_draws, size=n_pred_draws)
            draws[i] = panel.draws[s - 1, models, :, horizon - 1, d]
    forecasts = ForecastSeries(horizon, targets, point, log_pred, log_pred_marginal, draws)
    return CombinerResult(method, np.repeat(weight_rows[:, :, None], L, axis=2), forecasts)


def single_model_result(
    obs: ObservationSeries,
    panel: PredictorPanel,
    k: int,
    horizon: int = 1,
    fallback_sigma: float = 0.1,
) -> CombinerResult:
    """Panel model k (1-based) through the combiner interface: weight one on
    k, and the forecasts of its own cells of the panel at the horizon (the
    Gaussian-fitted log predictives of model_log_predictive_matrix, fitted
    to model k's cells only)."""
    _check_alignment(obs, panel)
    if not 1 <= k <= panel.n_models:
        raise InputError(f"model index {k} outside 1..{panel.n_models}")
    targets = np.arange(horizon, obs.n_steps + 1)
    cells = (targets - 1, k - 1, slice(None), horizon - 1)
    point, draws = panel._means[cells], panel.draws[cells]  # (S, L) and (S, L, D)
    marginal = _fit_cells(draws, point, obs.values[targets - 1], fallback_sigma)
    forecasts = ForecastSeries(horizon, targets, point, marginal.sum(axis=1), marginal, np.moveaxis(draws, 2, 1))
    weights = np.zeros((obs.n_steps, panel.n_models, obs.n_vars))
    weights[:, k - 1] = 1.0
    return CombinerResult(panel.model_names[k - 1], weights, forecasts)
