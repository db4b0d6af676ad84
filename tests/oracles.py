"""Scalar reference implementations the tests check the vectorized kernels
against.  Nothing in the package imports them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from divcast.core import ConfigError, InputError, NoiseConfig
from divcast.filtering import run_filter
from divcast.latent import DTVW, LatentMode, ParticleCloud, propagate_cloud
from divcast.metrics import crps_series


SIMPLEX_TOL = 1e-10


def validate_weight_matrix(w: np.ndarray, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Check the (K, L) weight-matrix invariants and return w as float array."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if np.any(w < -tol) or np.any(w > 1 + tol):
        raise InputError("weight entries must lie in [0, 1]")
    if np.any(np.abs(w.sum(axis=0) - 1.0) > tol):
        raise InputError("weight columns must sum to 1")
    return w


def softmax_link(x_col: np.ndarray) -> np.ndarray:
    """Map a latent K-vector to simplex weights, exp(x_k)/sum(exp(x)).

    Computed with max-subtraction so arbitrarily large inputs cannot
    overflow.
    """
    x_col = np.asarray(x_col, dtype=float)
    if not np.all(np.isfinite(x_col)):
        raise InputError("softmax input must be finite")
    z = np.exp(x_col - x_col.max())
    return z / z.sum()


def cloud_weight_tensor_numpy(cloud_x: np.ndarray, n_models: int, n_vars: int) -> np.ndarray:
    """Softmax over the model axis of ([P,] N, K*L) latent states, reduced by
    numpy over the last axis: the expression the column-wise kernel must
    reproduce bit for bit."""
    xm = cloud_x.reshape(*cloud_x.shape[:-1], n_vars, n_models)
    z = np.exp(xm - xm.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def combine_cloud_numpy(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Combined forecasts of (P, N, L, K) weights against a (K, L) mean
    matrix, summed by numpy over the model axis."""
    return (weights * means.T).sum(axis=-1)


def latent_to_matrix(x: np.ndarray, n_models: int, n_vars: int) -> np.ndarray:
    """Un-vectorize a latent K*L vector into its (K, L) matrix."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n_models * n_vars,):
        raise InputError(f"latent vector must have length {n_models * n_vars}")
    return x.reshape(n_vars, n_models).T


def weights_from_latent(x: np.ndarray, n_models: int, n_vars: int) -> np.ndarray:
    """Apply the softmax link per variable: column l of the result is the
    softmax of the latent entries for variable l."""
    xm = latent_to_matrix(x, n_models, n_vars)
    if not np.all(np.isfinite(xm)):
        raise InputError("latent vector must be finite")
    z = np.exp(xm - xm.max(axis=0, keepdims=True))
    return z / z.sum(axis=0, keepdims=True)


def combined_point(w: np.ndarray, ytilde: np.ndarray) -> np.ndarray:
    """Weight-combined point forecast: component l is sum_k w[k,l]*ytilde[k,l]."""
    w = np.asarray(w, dtype=float)
    ytilde = np.asarray(ytilde, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if ytilde.ndim == 1:
        ytilde = ytilde[:, None]
    if w.shape != ytilde.shape:
        raise InputError(f"shape mismatch: weights {w.shape} vs forecasts {ytilde.shape}")
    return (w * ytilde).sum(axis=0)


def gaussian_logpdf_diag(y: np.ndarray, mean: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Sum over the last axis of independent Gaussian log densities."""
    r = (np.asarray(y, dtype=float) - mean) / sigma
    return -0.5 * (np.log(2.0 * np.pi * sigma**2) + r**2).sum(axis=-1)


def log_likelihood(y: np.ndarray, w: np.ndarray, ytilde: np.ndarray, cfg: NoiseConfig) -> float:
    """Log of the Gaussian combination density of y given weights and
    predictor values, with diagonal observation covariance.

    Includes the -0.5*sum(log(2 pi sigma_l^2)) normalizer, so exp of the
    result integrates to one over y.
    """
    if np.any(cfg.sigma_obs <= 0):
        raise ConfigError("sigma_obs must be strictly positive for likelihoods")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise InputError("observation must be finite")
    c = combined_point(w, ytilde)
    if y.shape != c.shape:
        raise InputError(f"observation has {y.shape[0]} entries, expected {c.shape[0]}")
    return float(gaussian_logpdf_diag(y, c, cfg.sigma_obs))


def rmsfe(actuals: np.ndarray, forecasts: np.ndarray) -> float:
    """Root mean squared forecast error over the evaluation window."""
    return float(np.sqrt(np.mean((np.asarray(actuals) - np.asarray(forecasts)) ** 2)))


def log_score(log_predictives: np.ndarray) -> float:
    """Negative mean log predictive density; lower is better."""
    return float(-np.mean(log_predictives))


def crps_from_draws(draws: np.ndarray, y: float) -> float:
    """Sample CRPS of an ensemble against a scalar outcome, from the sorted
    form of the pairwise term."""
    draws = np.sort(np.asarray(draws, dtype=float))
    D = draws.size
    if D < 2:
        raise InputError("CRPS needs at least two draws")
    term1 = np.mean(np.abs(draws - y))
    # sum_{i,j} |x_i - x_j| = 2 * sum_i (2i - D - 1) x_i for sorted x, i 1-based
    coeff = 2.0 * np.arange(1, D + 1) - D - 1
    pairwise = 2.0 * np.dot(coeff, draws)
    return float(term1 - 0.5 * pairwise / (D * D))


def long_tuple_rows(labels: list, *values) -> list[tuple]:
    """Rows of a long-format table as tuples, for ``csv.writer().writerows``:
    one per cell of the label axes in C order, the labels first and then one
    entry from each value array."""
    cols = [np.ravel(v).tolist() for v in values]
    return [(*key, *vals) for key, *vals in zip(itertools.product(*labels), *cols, strict=True)]


@dataclass(frozen=True)
class LatentParticle:
    """One particle: latent weights x (length K*L), coefficient state alpha
    (length 3) and its importance weight omega."""

    x: np.ndarray
    alpha: np.ndarray
    omega: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (3,):
            raise InputError("alpha must have length 3")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(alpha))):
            raise InputError("particle state must be finite")
        if self.omega < 0:
            raise InputError("importance weight must be >= 0")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", float(self.omega))


def particles(cloud: ParticleCloud) -> list[LatentParticle]:
    """The particles of a one-point (1, N, ...) cloud, one by one."""
    return [LatentParticle(x, a, float(o)) for x, a, o in zip(cloud.x[0], cloud.alpha[0], cloud.omega[0])]


def propagate_particle(
    p: LatentParticle,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: np.random.Generator,
) -> LatentParticle:
    """Propagate a single particle (the cloud kernel with P = N = 1)."""
    cloud = ParticleCloud(p.x[None, None], p.alpha[None, None], np.array([[p.omega]]))
    return particles(propagate_cloud(cloud, div, mode, cfg, [rng]))[0]


def crps_objective(obs, panel, point, seed, eval_window=None, variable=None, **filter_kw) -> float:
    """The grid objective at one point, run alone: one diversity-driven
    filter run scored by mean CRPS over the window, +inf if the run fails."""
    try:
        out = run_filter(obs, panel, DTVW, seed=seed, alpha0=(0.0, *point), **filter_kw)
    except (RuntimeError, InputError):
        return np.inf
    fs = out.forecasts
    mask = np.ones(len(fs.targets), dtype=bool)
    if eval_window is not None:
        mask = (fs.targets >= eval_window[0]) & (fs.targets <= eval_window[1])
    y = obs.values[fs.targets[mask] - 1]
    cols = range(obs.n_vars) if variable is None else [variable]
    return float(np.mean([crps_series(fs.draws[mask][:, :, l], y[:, l]).mean() for l in cols]))
