"""Scalar reference implementations the tests check the vectorized kernels
against.  Nothing in the package imports them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from divcast.combine import model_log_predictive_matrix
from divcast.core import ConfigError, DegeneracyError, ForecastSeries, InputError, NoiseConfig
from divcast.filtering import (
    FilterOutput,
    FilterState,
    BAND_HI,
    BAND_LO,
    _STEP_FIELDS,
    _gaussian_logpdf,
    effective_sample_size,
    run_filter,
)
from divcast.latent import DTVW, LatentMode, ParticleCloud, propagate_cloud, theta_from_alpha
from divcast.metrics import crps_series


SIMPLEX_TOL = 1e-10


def logsumexp(logv: np.ndarray, axis: int = 0) -> np.ndarray:
    """log(sum(exp(logv))) over an axis, max-shifted, each term a new
    array: numpy's own reductions, apart from the package's kernel."""
    m = np.max(logv, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(logv - m), axis=axis))


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
    numpy over the last axis: the expression the entry-major kernel matches,
    bit for bit below eight models and to round-off from eight on."""
    xm = cloud_x.reshape(*cloud_x.shape[:-1], n_vars, n_models)
    z = np.exp(xm - xm.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def combine_cloud_numpy(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Combined forecasts of (P, N, L, K) weights against a (K, L) mean
    matrix, summed by numpy over the model axis."""
    return (weights * means.T).sum(axis=-1)


def band_stats(values: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mean and 95% band of particle-major statistics (P, N, M)
    under the weights omega (P, N), three (P, M) arrays, each band widened
    to contain the mean: the particle axis reduced as a middle axis."""
    mean = (omega[:, None, :] @ values)[:, 0]
    order = np.argsort(values, axis=1)
    sorted_vals = np.take_along_axis(values, order, axis=1)
    cum = np.cumsum(np.take_along_axis(omega[:, :, None], order, axis=1), axis=1)
    cum /= cum[:, -1:]
    lo, hi = (
        np.take_along_axis(sorted_vals, (cum >= q).argmax(axis=1)[:, None], axis=1)[:, 0]
        for q in (BAND_LO, BAND_HI)
    )
    return mean, np.minimum(lo, mean), np.maximum(hi, mean)


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


def crps_series_allocating(draws: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """crps_series' expression with a new array for every step, including
    |X - y| before the pairwise term: the bits the kernel, which reuses its
    sorted copy, must reproduce."""
    srt = np.sort(np.asarray(draws, dtype=float), axis=1)
    D = srt.shape[1]
    term1 = np.mean(np.abs(srt - np.asarray(ys, dtype=float)[:, None]), axis=1)
    coeff = 2.0 * np.arange(1, D + 1) - D - 1
    pairwise = 2.0 * (srt @ coeff)
    return term1 - 0.5 * pairwise / (D * D)


def bma_weights_loop(lp: np.ndarray, window: int | None = None) -> np.ndarray:
    """Recursive model-averaging weights one row at a time: row t is the
    softmax of the summed scores of rows max(0, t - window)..t-1 (all rows
    before t when window is None)."""
    T, K = lp.shape
    out = np.empty((T, K))
    cum = np.vstack([np.zeros(K), np.cumsum(lp, axis=0)])  # cum[t] = sum of rows < t
    for t in range(T):
        lo = 0 if window is None else max(0, t - window)
        scores = cum[t] - cum[lo]
        z = np.exp(scores - scores.max())
        out[t] = z / z.sum()
    return out


def one_hot_mixture(obs, panel, k: int, horizon: int = 1, fallback_sigma: float = 0.1) -> ForecastSeries:
    """Model k's forecasts as a mixture of all K Gaussian-fitted panel cells
    with weight one on k and zero elsewhere: the weighted sum of the means,
    the log-sum-exp of the weighted log predictives and model k's draws."""
    T, K, L = obs.n_steps, panel.n_models, obs.n_vars
    targets = np.arange(horizon, T + 1)
    w = np.zeros((len(targets), K))
    w[:, k - 1] = 1.0
    point = np.einsum("sk,skl->sl", w, panel._means[targets - 1, :, :, horizon - 1])
    log_pred, log_pred_marginal = weighted_log_predictives(obs, panel, w, horizon, fallback_sigma)
    draws = np.moveaxis(panel.draws[targets - 1, k - 1, :, horizon - 1, :], 2, 1)
    return ForecastSeries(horizon, targets, point, log_pred, log_pred_marginal, draws)


def weighted_log_predictives(obs, panel, w: np.ndarray, horizon: int = 1, fallback_sigma: float = 0.1):
    """Joint (S,) and marginal (S, L) log predictives of the mixtures of the
    Gaussian-fitted panel cells of targets horizon..T under the (S, K)
    weight rows w: each a log-sum-exp over the models of a contiguous
    (S, K) array, one variable at a time."""
    targets = np.arange(horizon, obs.n_steps + 1)
    joint, marginal = model_log_predictive_matrix(panel, obs, fallback_sigma, horizon)
    with np.errstate(divide="ignore"):
        logw = np.where(w > 0, np.log(w), -np.inf)
    log_pred = logsumexp(logw + joint[targets - 1], axis=1)
    log_pred_marginal = np.stack(
        [logsumexp(logw + marginal[targets - 1, :, l], axis=1) for l in range(obs.n_vars)], axis=1
    )
    return log_pred, log_pred_marginal


def long_tuple_rows(labels: list, *values) -> list[tuple]:
    """Rows of a long-format table as tuples, for ``csv.writer().writerows``:
    one per cell of the label axes in C order, the labels first and then one
    entry from each value array."""
    cols = [np.ravel(v).tolist() for v in values]
    return [(*key, *vals) for key, *vals in zip(itertools.product(*labels), *cols, strict=True)]


@dataclass(frozen=True)
class LatentParticle:
    """One particle: latent weights x (length K*L), coefficient state alpha
    = (alpha1, alpha2) and its importance weight omega."""

    x: np.ndarray
    alpha: np.ndarray
    omega: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (2,):
            raise InputError("alpha must have length 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(alpha))):
            raise InputError("particle state must be finite")
        if self.omega < 0:
            raise InputError("importance weight must be >= 0")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", float(self.omega))


def particles(cloud: ParticleCloud) -> list[LatentParticle]:
    """The particles of a one-point (., 1, N) cloud, one by one."""
    return [LatentParticle(x, a, float(o)) for x, a, o in zip(cloud.x[:, 0].T, cloud.alpha[:, 0].T, cloud.omega[0])]


def propagate_particle(
    p: LatentParticle,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: np.random.Generator,
) -> LatentParticle:
    """Propagate a single particle (the cloud kernel with P = N = 1); p
    itself is left as it was."""
    cloud = ParticleCloud(p.x[:, None, None].copy(), p.alpha[:, None, None].copy(), np.array([[p.omega]]))
    return particles(propagate_cloud(cloud, div, mode, cfg, rng))[0]


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


def systematic_indices(w: np.ndarray, offset: float, n: int) -> np.ndarray:
    """Systematic choices of a (P, N) block of weight rows with one offset,
    one binary search per row."""
    positions = (np.arange(n) + offset) / n
    idx = np.empty((len(w), n), dtype=np.intp)
    for row, out in zip(w, idx):
        cum = np.minimum(np.cumsum(row), 1.0)
        cum[-1] = 1.0
        out[:] = np.minimum(cum.searchsorted(positions, side="right"), len(row) - 1)
    return idx


@dataclass
class AllocatingState:
    """step_allocating's filter position.  Its block cloud keeps the
    coefficient state as (alpha0, alpha1, alpha2), alpha (P, N, 3), beside
    x (P, N, K*L) and omega (P, N): the allocating step's arithmetic runs on
    the three columns, and the entry-major filter state, viewed (P, N, .),
    must match columns 1 and 2."""

    x: np.ndarray
    alpha: np.ndarray
    omega: np.ndarray
    t: int
    rng: np.random.Generator


def allocating_state(state: FilterState, alpha0: np.ndarray) -> AllocatingState:
    """A (P, N, .) copy of an entry-major filter state (sharing its
    Generator) with each point's constant alpha0[p] put before its
    (alpha1, alpha2) columns."""
    c = state.cloud
    const = np.broadcast_to(np.asarray(alpha0, dtype=float)[:, None, None], (*c.omega.shape, 1))
    x, alpha = np.moveaxis(c.x, 0, -1).copy(), np.moveaxis(c.alpha, 0, -1)
    return AllocatingState(x, np.concatenate([const, alpha], axis=-1), c.omega.copy(), state.t, state.rng)


def propagate_cloud_allocating(cloud: AllocatingState, div, mode, cfg, rng) -> tuple:
    """One transition of a block of three-column clouds into new arrays, each
    term its own temporary: the expressions the in-place kernel reproduces.
    Each noise term is drawn at one point's shape and broadcast over the
    points.  Returns the new (x, alpha, omega)."""
    n, dim = cloud.x.shape[1:]
    if mode.tag == "tvw":
        alpha = cloud.alpha
        x = cloud.x.copy()
    else:
        m = 2 if mode.uses_diversity else 1
        noise = np.zeros((n, 3))
        noise[:, 1 : m + 1] = rng.standard_normal((n, m))
        alpha = cloud.alpha + cfg.sigma_alpha * noise
        theta = theta_from_alpha(alpha)
        x = theta[..., 1:2] * cloud.x
        if mode.uses_diversity:
            x = x + theta[..., 2:3] * div
    x += cfg.sigma_x * rng.standard_normal((n, dim))
    return x, alpha, cloud.omega.copy()


def step_allocating(pf, state: AllocatingState, y_t: np.ndarray, y_target: np.ndarray | None = None):
    """ParticleFilter.step followed by its posterior bands, written with a
    new array for every intermediate and numpy's reductions, on a cloud that
    keeps alpha0's column; leaves state untouched (but for its Generator,
    which it advances) and returns a new state and the record.  Given
    y_target, the record holds the forecast's point and, unscored, its
    particle mixture: the particle means and log prior weights
    (mixture_log_predictives scores them).  The bands come from the
    resampled weight tensor; the coefficient bands have three columns."""
    panel, cfg = pf.panel, pf.cfg
    K, L = panel.n_models, panel.n_vars
    t = state.t + 1
    y_t = np.atleast_1d(np.asarray(y_t, dtype=float))
    means_t = panel.mean_matrix(t, 1)
    rng = state.rng
    div = pf.diversity_path[t - 1] if pf.mode.uses_diversity else np.zeros(K * L)
    x, alpha, omega = propagate_cloud_allocating(state, div, pf.mode, cfg, rng)
    P, n = omega.shape
    weights = cloud_weight_tensor_numpy(x, K, L)
    omega_prior = omega / omega.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        log_prior = np.where(omega_prior > 0, np.log(omega_prior), -np.inf)

    def logpdf(y, mean):
        r = (y - mean) / cfg.sigma_obs
        with np.errstate(over="ignore"):
            return -0.5 * (np.log(2.0 * np.pi * cfg.sigma_obs**2) + r**2)

    record: dict = {}
    target = t + pf.horizon - 1
    if target <= panel.n_steps:
        if y_target is not None:
            pred_means = combine_cloud_numpy(weights, panel.mean_matrix(target, pf.horizon))
            record["point"] = (omega_prior[:, None, :] @ pred_means)[:, 0]
            record["pred_means"] = pred_means
            record["log_prior"] = log_prior
        J = pf.n_pred_draws
        idx = systematic_indices(omega_prior, rng.random(), J)
        d = rng.integers(0, panel.n_draws, size=J)
        ysel = np.broadcast_to(panel.draw_block(target, pf.horizon)[:, :, d].transpose(2, 0, 1), (P, J, K, L))
        comb = np.einsum("pjlk,pjkl->pjl", weights[np.arange(P)[:, None], idx], ysel)
        record["draws"] = comb + cfg.sigma_obs * rng.standard_normal((J, L))

    logw = log_prior + logpdf(y_t, combine_cloud_numpy(weights, means_t)).sum(axis=-1)
    shift = logw.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise DegeneracyError(f"all particle likelihoods vanished at t={t}")
    w = np.exp(logw - shift)
    total = w.sum(axis=-1, keepdims=True)
    omega = w / total
    record["one_step_log_pred"] = (shift + np.log(total))[:, 0]
    ess = effective_sample_size(omega)
    record["ess"] = ess
    resampled = ess < pf.kappa
    record["resampled"] = resampled
    offset = rng.random()  # drawn on every step
    if resampled.any():
        which = np.flatnonzero(resampled)
        idx = np.tile(np.arange(n), (P, 1))
        idx[which] = systematic_indices(omega[which], offset, n)
        omega[which] = 1.0 / n
        rows = np.arange(P)[:, None]
        x, alpha, weights = x[rows, idx], alpha[rows, idx], weights[rows, idx]
    for stat, band in zip(("mean", "lo", "hi"), band_stats(weights.reshape(P, n, L * K), omega)):
        record[f"weights_{stat}"] = band.reshape(P, L, K).transpose(0, 2, 1)
    for stat, band in zip(("mean", "lo", "hi"), band_stats(alpha, omega)):
        record[f"alpha_{stat}"] = band
    return AllocatingState(x, alpha, omega, t, rng), record


def mixture_log_predictives(y: np.ndarray, pred_means: np.ndarray, log_prior: np.ndarray, sigma: np.ndarray):
    """Joint (...,) and marginal (..., L) log predictives at y (..., L) of
    particle mixtures with (..., N, L) particle means under (..., N) log
    prior weights, each term a new array; the joint sums the variables along
    the last axis."""
    marg = _gaussian_logpdf(y[..., None, :], pred_means, sigma)
    joint = logsumexp(log_prior + marg.sum(axis=-1), axis=-1)
    return joint, logsumexp(log_prior[..., None] + marg, axis=-2)


def run_block_stacked(pf, obs, n_particles, alpha0, rng, x0_spread=0.0, bands=True) -> list:
    """ParticleFilter.run_block through step_allocating, scoring its
    forecasts after the last step: every step's records are kept, stacked
    by key, and the log predictives are evaluated on the stacked
    (P, S, N, L) particle means and (P, S, N) log prior weights.  Steps past
    S = T - h + 1 are dropped from the forecast keys."""
    T, h = obs.n_steps, pf.horizon
    S = T - h + 1
    alpha0 = np.asarray(alpha0, dtype=float)
    state = allocating_state(pf.init_state(n_particles, alpha0[:, 1:], x0_spread, rng), alpha0[:, 0])
    records = []
    for t, y_t in enumerate(obs.values, start=1):
        state, record = step_allocating(pf, state, y_t, obs.values[t + h - 2] if t <= S else None)
        records.append(record)
    forecast_keys = ("point", "pred_means", "log_prior", "draws")
    out = {
        key: np.stack([r[key] for r in (records[:S] if key in forecast_keys else records)], axis=1)
        for key in records[0]
    }
    for key in ("alpha_mean", "alpha_lo", "alpha_hi"):
        if bands:
            out[key][..., 0] = alpha0[:, None, 0]  # a constant of the run, not a weighted mean
        else:
            del out[key], out[key.replace("alpha", "weights")]
    targets = np.arange(h, T + 1)
    out["log_pred"], out["log_pred_marginal"] = mixture_log_predictives(
        obs.values[targets - 1], out.pop("pred_means"), out.pop("log_prior"), pf.cfg.sigma_obs
    )

    def at(key, p):
        return out[key][p] if key in out else None

    return [
        FilterOutput(
            h,
            *(at(key, p) for key in _STEP_FIELDS),
            forecasts=ForecastSeries(
                h, targets, at("point", p), at("log_pred", p), at("log_pred_marginal", p), out["draws"][p]
            ),
        )
        for p in range(len(alpha0))
    ]
