"""Sequential Monte Carlo loop for the time-varying combination weights.

Each step propagates the particle cloud through the latent dynamics, updates
the importance weights with the one-step Gaussian combination likelihood,
records the prior-side (pre-update) predictive quantities, and resamples
systematically when the normalized effective sample size drops below the
threshold.  Forecasts emitted at step t target time t+h-1: they pair the
prior-side particle weights (information through t-1) with the panel's
horizon-h cell for that target, so every emitted forecast is out-of-sample.

The filter advances a block of P points: every cloud array is (P, N, ...),
every point has its own random stream, from which it draws exactly what a
run of that point alone would, and every record entry carries the point
axis.  Every random kernel takes one Generator per point.  A single run is
the block with P = 1; the grid search advances many lattice points at once.

The panel is frozen, so each filter builds its diversity path, the vector
for every step t, once, on its first step, and every block it runs reads
that path.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DegeneracyError,
    ForecastSeries,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    default_sigma_obs,
)
from .diversity import diversity_vector
from .latent import (
    PAIRWISE_FROM,
    LatentMode,
    ParticleCloud,
    cloud_weight_tensor,
    init_particles,
    propagate_cloud,
    reduce_models,
)
from .rng import standard_normal, substream

BAND_LO = 0.025
BAND_HI = 0.975


def systematic_resample(
    weights: np.ndarray, rngs: Sequence[np.random.Generator] | np.random.Generator, n: int | None = None
) -> np.ndarray:
    """Systematic (single-offset stratified) resampling of each row of a
    (P, N) block of weight vectors, one Generator per row.

    Returns (P, n) index choices (default n: N), row p with expected
    multiplicity n*w[p, i] and total variance below one per index.  A single
    (N,) vector with one Generator is the one-row block and returns (n,)
    choices.
    """
    w = np.asarray(weights, dtype=float)
    if single := w.ndim == 1:
        w, rngs = w[None], [rngs]
    if w.ndim != 2:
        raise InputError("weights must be a vector or a (P, N) block")
    if np.any(w < -1e-12):
        raise InputError("weights must be non-negative")
    sums = w.sum(axis=-1)
    if np.any(bad := np.abs(sums - 1.0) > 1e-8):
        raise InputError(f"weights sum to {sums[bad][0]:.6g}, expected 1")
    if len(rngs) != len(w):
        raise InputError("need one Generator per point")
    n_out = w.shape[-1] if n is None else int(n)
    offset = np.array([g.uniform() for g in rngs])[:, None]
    positions = (np.arange(n_out) + offset) / n_out
    cum = np.cumsum(w, axis=-1)
    cum[:, -1] = 1.0  # guard accumulated rounding
    idx = np.array([c.searchsorted(q, side="right") for c, q in zip(cum, positions)])
    idx = np.minimum(idx, w.shape[-1] - 1)
    return idx[0] if single else idx


def effective_sample_size(omega: np.ndarray) -> float | np.ndarray:
    """Normalized ESS, 1/(N * sum(omega^2)); 1 iff the weights are uniform.
    Computed along the last axis, so a (P, N) block gives one ESS per point."""
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (omega.shape[-1] * np.sum(omega**2, axis=-1))


def _band_stats(values: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mean and 95% band of per-particle statistics (P, N, M) under
    the weights omega (P, N): three (P, M) arrays.

    Bands are widened to contain the mean in degenerate heavy-tail cases.
    """
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


def _logsumexp(logv: np.ndarray, axis: int = 0) -> np.ndarray:
    m = np.max(logv, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(logv - m), axis=axis))


def _gaussian_logpdf(y: np.ndarray, mean: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per-variable Gaussian log densities of y around mean with scales
    sigma (all broadcast over the last, variable axis); overflow of extreme
    residuals legitimately maps to -inf."""
    r = (y - mean) / sigma
    with np.errstate(over="ignore"):
        return -0.5 * (np.log(2.0 * np.pi * sigma**2) + r**2)


def _combine_cloud(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per-particle combined forecasts: (P, N, L, K) weights against a
    (K, L) mean matrix.  For a handful of models the products are
    accumulated model by model, as reduce_models does: the bits of numpy's
    sum over the model axis, in a fraction of its time."""
    if len(means) >= PAIRWISE_FROM:
        return reduce_models(np.add, weights * means.T)
    out = weights[..., 0] * means[0] + 0.0  # numpy's sum starts from +0.0
    for k in range(1, len(means)):
        out += weights[..., k] * means[k]
    return out


def _gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row idx[p, j] of point p's (N, ...) slab of a (P, N, ...) block, as a
    (P, J, ...) array, through one flat index into the (P*N, ...) view."""
    P, n = a.shape[:2]
    flat = (idx + n * np.arange(P)[:, None]).ravel()
    return a.reshape(P * n, *a.shape[2:])[flat].reshape(*idx.shape, *a.shape[2:])


@dataclass
class FilterState:
    """Mutable filter position of a block of P points: the cloud, whose
    arrays are (P, N, ...), the time index of the last processed
    observation, and one Generator per point."""

    cloud: ParticleCloud
    t: int
    rng: Sequence[np.random.Generator]


@dataclass
class FilterOutput:
    """One point's run: posterior weight (T, K, L) and coefficient (T, 3)
    trajectories with 95% bands, the ESS path and resample flags, the
    one-step log predictives (T,), and the out-of-sample forecast block at
    the run's horizon.  A run without bands leaves the six band fields as
    None, and one without summaries the forecasts' point and log
    predictives; the draws are always there."""

    horizon: int
    weights_mean: np.ndarray | None
    weights_lo: np.ndarray | None
    weights_hi: np.ndarray | None
    alpha_mean: np.ndarray | None
    alpha_lo: np.ndarray | None
    alpha_hi: np.ndarray | None
    ess: np.ndarray
    resampled: np.ndarray
    one_step_log_pred: np.ndarray
    forecasts: ForecastSeries


# FilterOutput fields taken from one record entry per step, and the record
# entries of the forecast emitted at a step.
_STEP_FIELDS = (
    "weights_mean", "weights_lo", "weights_hi", "alpha_mean", "alpha_lo", "alpha_hi",
    "ess", "resampled", "one_step_log_pred",
)
_FORECAST_KEYS = ("point", "pred_means", "log_prior", "draws")


class ParticleFilter:
    """Weight estimation and prediction loop for one combination method."""

    def __init__(
        self,
        panel: PredictorPanel,
        mode: LatentMode,
        cfg: NoiseConfig,
        horizon: int = 1,
        kappa: float = 0.5,
        n_pred_draws: int = 1000,
    ):
        if not 0 < kappa <= 1:
            raise InputError("ess threshold must lie in (0, 1]")
        if not 1 <= horizon <= panel.n_horizons:
            raise InputError(f"horizon {horizon} outside panel range 1..{panel.n_horizons}")
        if len(cfg.sigma_obs) != panel.n_vars:
            raise InputError(
                f"sigma_obs has {len(cfg.sigma_obs)} entries for {panel.n_vars} variables"
            )
        if n_pred_draws < 1:
            raise InputError("need at least one predictive draw")
        self.panel = panel
        self.mode = mode
        self.cfg = cfg
        self.horizon = horizon
        self.kappa = kappa
        self.n_pred_draws = n_pred_draws

    @cached_property
    def diversity_path(self) -> np.ndarray:
        """(T, K*L): row t-1 is the diversity vector the step at t injects,
        for every t of the panel.  The panel is frozen, so the path is built
        on the first step that needs it and shared by every later block."""
        h = self.horizon
        return np.stack([diversity_vector(self.panel, t, h) for t in range(1, self.panel.n_steps + 1)])

    def init_state(
        self,
        n_particles: int,
        alpha0: np.ndarray,
        x0_spread: float,
        rngs: Sequence[np.random.Generator],
    ) -> FilterState:
        """Initial state of a block: point p starts from alpha0[p] (a (P, 3)
        array) with its own Generator rngs[p]."""
        cloud = init_particles(
            n_particles, self.panel.n_models, self.panel.n_vars, alpha0, x0_spread, rngs
        )
        return FilterState(cloud=cloud, t=0, rng=rngs)

    def step(
        self, state: FilterState, y_t: np.ndarray, summaries: bool = True, bands: bool = True
    ) -> tuple[FilterState, dict]:
        """Advance every point of the block by one observation; returns the
        new state and a record of everything emitted at this step, each
        entry with the point axis first.

        Every point draws exactly what it would draw alone.  summaries=False
        skips the forecast's point, particle means and log prior weights;
        bands=False skips the weight and coefficient bands.  Neither draws
        from the random streams.
        """
        panel, cfg = self.panel, self.cfg
        K, L = panel.n_models, panel.n_vars
        t = state.t + 1
        y_t = np.atleast_1d(np.asarray(y_t, dtype=float))
        if y_t.shape != (L,):
            raise InputError(f"observation at t={t} must have {L} entries")
        if not np.all(np.isfinite(y_t)):
            raise InputError(f"observation at t={t} is not finite")

        means_t = panel.mean_matrix(t, 1)  # rejects a t past the panel's end
        rngs = state.rng
        div = self.diversity_path[t - 1] if self.mode.uses_diversity else np.zeros(K * L)
        cloud = propagate_cloud(state.cloud, div, self.mode, cfg, rngs)
        P, n = cloud.omega.shape
        weights = cloud_weight_tensor(cloud.x, K, L)  # (P, N, L, K)
        omega_prior = cloud.omega / cloud.omega.sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore"):
            log_prior = np.where(omega_prior > 0, np.log(omega_prior), -np.inf)

        # Out-of-sample forecast for target s = t + h - 1, prior-side weights.
        record: dict = {}
        target = t + self.horizon - 1
        if target <= panel.n_steps:
            if summaries:
                pred_means = _combine_cloud(weights, panel.mean_matrix(target, self.horizon))
                record["point"] = (omega_prior[:, None, :] @ pred_means)[:, 0]
                record["pred_means"] = pred_means
                record["log_prior"] = log_prior
            record["draws"] = self._predictive_draws(weights, omega_prior, target, rngs)

        # One-step likelihood update (log-space, max-shifted).
        c1 = _combine_cloud(weights, means_t)
        logw = log_prior + reduce_models(np.add, _gaussian_logpdf(y_t, c1, cfg.sigma_obs))
        shift = logw.max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(shift)):
            raise DegeneracyError(
                f"all particle likelihoods vanished at t={t}; "
                "raise sigma_obs or the particle count"
            )
        w = np.exp(logw - shift)
        total = w.sum(axis=-1, keepdims=True)
        if not np.all((total > 0) & np.isfinite(total)):
            raise DegeneracyError(
                f"importance weights degenerated at t={t}; "
                "raise sigma_obs or the particle count"
            )
        omega = w / total
        record["one_step_log_pred"] = (shift + np.log(total))[:, 0]

        # Resample, per point, the points whose ESS fell below the threshold.
        ess = effective_sample_size(omega)
        record["ess"] = ess
        resampled = ess < self.kappa
        record["resampled"] = resampled
        x, alpha = cloud.x, cloud.alpha
        if resampled.any():
            which = np.flatnonzero(resampled)
            idx = np.tile(np.arange(n), (P, 1))
            idx[which] = systematic_resample(omega[which], [rngs[p] for p in which])
            omega[which] = 1.0 / n
            x, alpha = _gather(x, idx), _gather(alpha, idx)
            if bands:
                weights = _gather(weights, idx)

        if bands:
            for stat, band in zip(("mean", "lo", "hi"), _band_stats(weights.reshape(P, n, L * K), omega)):
                record[f"weights_{stat}"] = band.reshape(P, L, K).transpose(0, 2, 1)
            for stat, band in zip(("mean", "lo", "hi"), _band_stats(alpha, omega)):
                record[f"alpha_{stat}"] = band
        return FilterState(cloud=ParticleCloud(x, alpha, omega), t=t, rng=rngs), record

    def _predictive_draws(
        self,
        weights: np.ndarray,
        omega_prior: np.ndarray,
        target: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Sample each point's combined predictive mixture: pick particles by
        their prior weights, one panel draw per pick, plus observation noise.
        Returns (P, J, L)."""
        J, L = self.n_pred_draws, self.panel.n_vars
        P = len(rngs)
        idx = systematic_resample(omega_prior, rngs, n=J)  # (P, J)
        d = np.array([rng.integers(0, self.panel.n_draws, size=J) for rng in rngs])
        block = self.panel.draw_block(target, self.horizon)  # (K, L, D)
        ysel = block[:, :, d].transpose(2, 3, 0, 1)  # (P, J, K, L)
        comb = np.einsum("pjlk,pjkl->pjl", _gather(weights, idx), ysel)
        return comb + self.cfg.sigma_obs * standard_normal(rngs, (P, J, L))

    def run(
        self,
        obs: ObservationSeries,
        n_particles: int,
        alpha0: np.ndarray,
        rng: np.random.Generator,
        x0_spread: float = 0.0,
        bands: bool = True,
    ) -> FilterOutput:
        """Filter one point: the block run with P = 1."""
        alpha0 = np.asarray(alpha0, dtype=float)
        return self.run_block(obs, n_particles, alpha0[None], (rng,), x0_spread, bands=bands)[0]

    def run_block(
        self,
        obs: ObservationSeries,
        n_particles: int,
        alpha0: np.ndarray,
        rngs: Sequence[np.random.Generator],
        x0_spread: float = 0.0,
        summaries: bool = True,
        bands: bool = True,
    ) -> list[FilterOutput]:
        """Filter a block of P points at once, point p starting from
        alpha0[p] (a (P, 3) array) with its own Generator rngs[p]; returns one
        output per point, each equal to that point's run alone.  Any point's
        failure raises for the whole block.

        Steps 1..S, S = T - h + 1, emit the forecasts of targets h..T.  Their
        joint and marginal log predictives are the prior-side particle
        mixtures evaluated at the realized targets, for every horizon at
        once; at horizon one they equal the update's one-step predictives.
        """
        panel, h = self.panel, self.horizon
        T = obs.n_steps
        if obs.n_vars != panel.n_vars:
            raise InputError("observation and panel variable counts differ")
        if panel.n_steps < T:
            raise InputError("panel does not cover the observation range")
        if T < h:
            raise InputError(f"horizon {h} leaves no forecast target among {T} observations")

        state = self.init_state(n_particles, alpha0, x0_spread, rngs)
        records = []
        for y_t in obs.values:
            state, record = self.step(state, y_t, summaries, bands)
            records.append(record)

        # Each key's per-step arrays are popped, so they are freed once stacked.
        S = T - h + 1
        out = {
            key: np.stack([r.pop(key) for r in (records[:S] if key in _FORECAST_KEYS else records)], axis=1)
            for key in list(records[0])
        }
        targets = np.arange(h, T + 1)
        if summaries:
            marg = _gaussian_logpdf(obs.values[targets - 1][:, None], out.pop("pred_means"), self.cfg.sigma_obs)
            log_prior = out.pop("log_prior")  # (P, S, N), against marg (P, S, N, L)
            out["log_pred"] = _logsumexp(log_prior + reduce_models(np.add, marg), axis=-1)
            out["log_pred_marginal"] = _logsumexp(log_prior[..., None] + marg, axis=2)

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
            for p in range(len(rngs))
        ]


def run_filter(
    obs: ObservationSeries,
    panel: PredictorPanel,
    mode: LatentMode,
    cfg: NoiseConfig | None = None,
    horizon: int = 1,
    n_particles: int = 1000,
    kappa: float = 0.5,
    seed: int = 0,
    alpha0: np.ndarray = (0.0, 0.0, 0.0),
    x0_spread: float = 0.0,
    n_pred_draws: int = 1000,
) -> FilterOutput:
    """Configure and run the filter; sigma_obs defaults to the calibrated
    equal-weight residual scale when no NoiseConfig is given."""
    if cfg is None:
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
    pf = ParticleFilter(panel, mode, cfg, horizon=horizon, kappa=kappa, n_pred_draws=n_pred_draws)
    rng = substream(seed, "filter")
    return pf.run(obs, n_particles, np.asarray(alpha0, dtype=float), rng, x0_spread=x0_spread)
