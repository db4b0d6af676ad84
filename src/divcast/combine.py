"""Non-filter combination baselines under a common result shape: equal
weighting, recursive Bayesian model averaging on cumulative log predictive
likelihoods, and its rolling-window variant.  Individual panel models are
exposed through the same interface (as degenerate one-hot combinations) so
score tables can mix models and combiners.  Each of them only chooses its
weight rows and its predictive draws; one assembly turns those into the
result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ForecastSeries,
    InputError,
    ObservationSeries,
    PredictorPanel,
)
from .filtering import _gaussian_logpdf, _logsumexp, systematic_resample
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
    if fallback_sigma <= 0:
        raise InputError("fallback_sigma must be positive")
    T = obs.n_steps
    m = panel._means[:T, :, :, horizon - 1]
    if panel.n_draws >= 2:
        var = panel.draws[:T, :, :, horizon - 1].var(axis=-1, ddof=1)
        s = np.where(var == 0.0, fallback_sigma, np.sqrt(np.maximum(var, VAR_FLOOR)))
    else:
        s = np.full_like(m, fallback_sigma)
    marginal = _gaussian_logpdf(obs.values[:, None, :], m, s)
    return marginal.sum(axis=2), marginal


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
    out = np.empty((T, K))
    cum = np.vstack([np.zeros(K), np.cumsum(lp, axis=0)])  # cum[t] = sum of rows < t
    for t in range(T):
        lo = 0 if window is None else max(0, t - window)
        scores = cum[t] - cum[lo]
        z = np.exp(scores - scores.max())
        out[t] = z / z.sum()
    return out


def _combined_result(
    method: str,
    panel: PredictorPanel,
    obs: ObservationSeries,
    weight_rows: np.ndarray,
    horizon: int,
    fallback_sigma: float,
    draws_fn,
) -> CombinerResult:
    """The result of a baseline whose (T, K) weight rows hold for every
    variable.  Its forecast of target s, for s in h..T, mixes the
    Gaussian-fitted panel cells with the weight row at s-h+1 (information
    through s-h); its draws are draws_fn(targets, w), w the (S, K) rows used."""
    T, L = obs.n_steps, obs.n_vars
    targets = np.arange(horizon, T + 1)
    w = weight_rows[targets - horizon]  # (S, K): the 0-based row of s-h+1
    point = np.einsum("sk,skl->sl", w, panel._means[targets - 1, :, :, horizon - 1])
    joint, marginal = model_log_predictive_matrix(panel, obs, fallback_sigma, horizon)
    with np.errstate(divide="ignore"):
        logw = np.where(w > 0, np.log(w), -np.inf)
    log_pred = _logsumexp(logw + joint[targets - 1], axis=1)
    log_pred_marginal = np.stack(
        [_logsumexp(logw + marginal[targets - 1, :, l], axis=1) for l in range(L)], axis=1
    )
    forecasts = ForecastSeries(horizon, targets, point, log_pred, log_pred_marginal, draws_fn(targets, w))
    return CombinerResult(method, np.repeat(weight_rows[:, :, None], L, axis=2), forecasts)


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
    """Run one of the baselines: 'equal', 'bma' or 'bma_roll'."""
    T, K, L = obs.n_steps, panel.n_models, panel.n_vars
    if panel.n_steps < T:
        raise InputError("panel does not cover the observation range")
    if obs.n_vars != panel.n_vars:
        raise InputError("observation and panel variable counts differ")

    if method == "equal":
        weight_rows = np.full((T, K), 1.0 / K)

        def draws_fn(targets, w):
            # Pooled draws across models: the exact equal-weight mixture sample.
            block = panel.draws[targets - 1, :, :, horizon - 1, :]  # (S, K, L, D)
            return np.moveaxis(block, 3, 2).reshape(len(targets), K * panel.n_draws, L)

    elif method in ("bma", "bma_roll"):
        if method == "bma_roll" and window is None:
            raise InputError("bma_roll requires a window")
        joint_lp, _ = model_log_predictive_matrix(panel, obs, fallback_sigma)
        weight_rows = bma_weights(joint_lp, window=window if method == "bma_roll" else None)
        rng = substream(seed, "combine")

        def draws_fn(targets, w):
            out = np.empty((len(targets), n_pred_draws, L))
            for i, s in enumerate(targets):
                models = systematic_resample(w[i], rng, n=n_pred_draws)
                d = rng.integers(0, panel.n_draws, size=n_pred_draws)
                out[i] = panel.draws[s - 1, models, :, horizon - 1, d]
            return out

    else:
        raise InputError(f"unknown combiner {method!r}")

    return _combined_result(method, panel, obs, weight_rows, horizon, fallback_sigma, draws_fn)


def single_model_result(
    obs: ObservationSeries,
    panel: PredictorPanel,
    k: int,
    horizon: int = 1,
    fallback_sigma: float = 0.1,
) -> CombinerResult:
    """Expose panel model k (1-based) through the combiner interface."""
    if not 1 <= k <= panel.n_models:
        raise InputError(f"model index {k} outside 1..{panel.n_models}")
    weight_rows = np.zeros((obs.n_steps, panel.n_models))
    weight_rows[:, k - 1] = 1.0

    def draws_fn(targets, w):
        block = panel.draws[targets - 1, k - 1, :, horizon - 1, :]  # (S, L, D)
        return np.moveaxis(block, 2, 1)

    return _combined_result(panel.model_names[k - 1], panel, obs, weight_rows, horizon, fallback_sigma, draws_fn)
