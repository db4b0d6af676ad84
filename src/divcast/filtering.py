"""Sequential Monte Carlo loop for the time-varying combination weights.

Each step propagates the particle cloud through the latent dynamics, updates
the importance weights with the one-step Gaussian combination likelihood,
records the prior-side (pre-update) predictive quantities, and resamples
systematically when the normalized effective sample size drops below the
threshold.  Forecasts emitted at step t target time t+h-1: they pair the
prior-side particle weights (information through t-1) with the panel's
horizon-h cell for that target, so every emitted forecast is out-of-sample.

The same step advances a block of P lattice points of the grid search at
once: the cloud arrays carry a leading point axis and every point has its
own random stream, from which it draws exactly what a run of that point
alone would.  A single run is the block with P = 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
from .latent import LatentMode, ParticleCloud, cloud_weight_tensor, init_particles, propagate_cloud
from .rng import Streams, standard_normal, substream

BAND_LO = 0.025
BAND_HI = 0.975


def systematic_resample(weights: np.ndarray, rng: Streams, n: int | None = None) -> np.ndarray:
    """Systematic (single-offset stratified) resampling.

    Returns n index choices (default: len(weights)) with expected
    multiplicity n*w_i and total variance below one per index.  A (P, N)
    block of weight vectors with one Generator per row returns (P, n)
    choices, each row drawn exactly as it would be alone.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2):
        raise InputError("weights must be a vector")
    if np.any(w < -1e-12):
        raise InputError("weights must be non-negative")
    sums = np.atleast_1d(w.sum(axis=-1))
    if np.any(bad := np.abs(sums - 1.0) > 1e-8):
        raise InputError(f"weights sum to {sums[bad][0]:.6g}, expected 1")
    n_out = w.shape[-1] if n is None else int(n)
    if w.ndim == 1:
        offset = rng.uniform()
    else:
        offset = np.array([g.uniform() for g in rng])[:, None]
    positions = (np.arange(n_out) + offset) / n_out
    cum = np.cumsum(w, axis=-1)
    cum[..., -1] = 1.0  # guard accumulated rounding
    if w.ndim == 1:
        idx = np.searchsorted(cum, positions, side="right")
    else:
        idx = np.stack([np.searchsorted(c, q, side="right") for c, q in zip(cum, positions)])
    return np.minimum(idx, w.shape[-1] - 1)


def effective_sample_size(omega: np.ndarray) -> float | np.ndarray:
    """Normalized ESS, 1/(N * sum(omega^2)); 1 iff the weights are uniform.
    Computed along the last axis, so a (P, N) block gives one ESS per point."""
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (omega.shape[-1] * np.sum(omega**2, axis=-1))


def _weighted_quantiles(values: np.ndarray, omega: np.ndarray, qs: tuple[float, ...]) -> list[np.ndarray]:
    """Weighted quantiles along axis 0 of a (N, M) array."""
    order = np.argsort(values, axis=0)
    sorted_vals = np.take_along_axis(values, order, axis=0)
    cum = np.cumsum(omega[order], axis=0)
    cum /= cum[-1:, :]
    out = []
    for q in qs:
        first = (cum >= q).argmax(axis=0)
        out.append(np.take_along_axis(sorted_vals, first[None, :], axis=0)[0])
    return out


def _band_stats(values: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mean and 95% band of per-particle statistics (N, M).

    Bands are widened to contain the mean in degenerate heavy-tail cases.
    """
    mean = omega @ values
    lo, hi = _weighted_quantiles(values, omega, (BAND_LO, BAND_HI))
    return mean, np.minimum(lo, mean), np.maximum(hi, mean)


def _logsumexp(logv: np.ndarray, axis: int = 0) -> np.ndarray:
    m = np.max(logv, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(logv - m), axis=axis))


def _stack_points(per_point: list[np.ndarray]) -> np.ndarray:
    """Per-point results stacked along a leading point axis; a one-point
    block takes no copy."""
    return per_point[0][None] if len(per_point) == 1 else np.stack(per_point)


def _combine_cloud(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per-particle combined forecasts: ([P,] N, L, K) weights against a
    (K, L) mean matrix.  Summed model-by-model so a single-particle run
    reproduces a plain accumulation loop bit-for-bit."""
    return (weights * means.T).sum(axis=-1)


@dataclass
class FilterState:
    """Mutable filter position: the cloud, the time index of the last
    processed observation, the latest normalized ESS and the random stream.

    A block of P lattice points advances as one state: the cloud arrays
    carry a leading point axis, ess is a (P,) array and rng holds one
    Generator per point."""

    cloud: ParticleCloud
    t: int
    ess: float | np.ndarray
    rng: Streams


@dataclass
class FilterOutput:
    """Per-run summaries: posterior weight/coefficient trajectories with 95%
    bands, ESS path, one-step log predictives, and the out-of-sample
    forecast block at the run's horizon.  A run without summaries leaves the
    bands, prior weights, marginal log predictives and the forecasts' point
    and log predictives as None; the draws are always there."""

    horizon: int
    n_particles: int
    times: np.ndarray
    weights_mean: np.ndarray | None
    weights_lo: np.ndarray | None
    weights_hi: np.ndarray | None
    prior_weights_mean: np.ndarray | None
    alpha_mean: np.ndarray | None
    alpha_lo: np.ndarray | None
    alpha_hi: np.ndarray | None
    ess: np.ndarray
    resampled: np.ndarray
    one_step_log_pred: np.ndarray
    one_step_log_pred_marginal: np.ndarray | None
    forecasts: ForecastSeries


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

    def init_state(
        self,
        n_particles: int,
        alpha0: np.ndarray,
        x0_spread: float,
        rng: Streams,
    ) -> FilterState:
        """Initial state of one point, or of a block when alpha0 is (P, 3)
        and rng holds P Generators."""
        cloud = init_particles(
            n_particles, self.panel.n_models, self.panel.n_vars, alpha0, x0_spread, rng
        )
        ess = 1.0 if cloud.x.ndim == 2 else np.ones(len(cloud.omega))
        return FilterState(cloud=cloud, t=0, ess=ess, rng=rng)

    def step(self, state: FilterState, y_t: np.ndarray, summaries: bool = True) -> tuple[FilterState, dict]:
        """Advance the filter by one observation; returns the new state and a
        record of everything emitted at this step.

        The kernel works on a block of P points, each with its own cloud and
        Generator; an unbatched state is the block with P = 1, and gets its
        state and record back without the point axis.  Every point draws
        exactly what it would draw alone.  summaries=False skips the weight
        and coefficient bands, the prior weights, the point forecast and the
        marginal log predictive.
        """
        single = state.cloud.x.ndim == 2
        if single:
            c = state.cloud
            state = FilterState(
                ParticleCloud(c.x[None], c.alpha[None], c.omega[None]), state.t, state.ess, (state.rng,)
            )
        panel, cfg = self.panel, self.cfg
        K, L = panel.n_models, panel.n_vars
        t = state.t + 1
        y_t = np.atleast_1d(np.asarray(y_t, dtype=float))
        if y_t.shape != (L,):
            raise InputError(f"observation at t={t} must have {L} entries")
        if not np.all(np.isfinite(y_t)):
            raise InputError(f"observation at t={t} is not finite")

        rngs = state.rng
        if self.mode.uses_diversity:
            div = diversity_vector(panel, t, self.horizon)
        else:
            div = np.zeros(K * L)
        cloud = propagate_cloud(state.cloud, div, self.mode, cfg, rngs)
        P, n = cloud.omega.shape
        weights = cloud_weight_tensor(cloud.x, K, L)  # (P, N, L, K)
        omega_prior = cloud.omega / cloud.omega.sum(axis=-1, keepdims=True)

        record: dict = {"t": t}
        if summaries:
            record["prior_weights_mean"] = _stack_points(
                [np.einsum("n,nlk->kl", o, w) for o, w in zip(omega_prior, weights)]
            )

        # Out-of-sample forecast for target s = t + h - 1, prior-side weights.
        target = t + self.horizon - 1
        if target <= panel.n_steps:
            record["target"] = target
            if summaries:
                pred_means = _combine_cloud(weights, panel.mean_matrix(target, self.horizon))
                record["point"] = _stack_points([o @ m for o, m in zip(omega_prior, pred_means)])
                record["pred_omega"] = omega_prior.copy()
                record["pred_means"] = pred_means
            record["draws"] = self._predictive_draws(weights, omega_prior, target, rngs)

        # One-step likelihood update (log-space, max-shifted); overflow of
        # extreme residuals legitimately maps to -inf likelihoods.
        c1 = _combine_cloud(weights, panel.mean_matrix(t, 1))
        r = (y_t - c1) / cfg.sigma_obs
        with np.errstate(over="ignore"):
            loglik_marg = -0.5 * (np.log(2.0 * np.pi * cfg.sigma_obs**2) + r**2)
        loglik = loglik_marg.sum(axis=-1)
        with np.errstate(divide="ignore"):
            log_prior = np.where(omega_prior > 0, np.log(omega_prior), -np.inf)
        logw = log_prior + loglik
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
        if summaries:
            record["one_step_log_pred_marginal"] = _stack_points(
                [_logsumexp(lp[:, None] + lm, axis=0) for lp, lm in zip(log_prior, loglik_marg)]
            )

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
            rows = np.arange(P)[:, None]
            x, alpha, weights = x[rows, idx], alpha[rows, idx], weights[rows, idx]
        cloud = ParticleCloud(x, alpha, omega)

        if summaries:
            for name, values in (("weights", weights.reshape(P, n, L * K)), ("alpha", alpha)):
                bands = [_band_stats(v, o) for v, o in zip(values, omega)]
                for i, stat in enumerate(("mean", "lo", "hi")):
                    record[f"{name}_{stat}"] = _stack_points([b[i] for b in bands])
            for key in ("weights_mean", "weights_lo", "weights_hi"):
                record[key] = record[key].reshape(P, L, K).transpose(0, 2, 1)

        if single:
            cloud = ParticleCloud(x[0], alpha[0], omega[0])
            record = {k: v[0] if isinstance(v, np.ndarray) else v for k, v in record.items()}
            return FilterState(cloud=cloud, t=t, ess=float(ess[0]), rng=rngs[0]), record
        return FilterState(cloud=cloud, t=t, ess=ess, rng=rngs), record

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
        d = np.stack([rng.integers(0, self.panel.n_draws, size=J) for rng in rngs])
        block = self.panel.draw_block(target, self.horizon)  # (K, L, D)
        ysel = np.moveaxis(block[:, :, d], (2, 3), (0, 1))  # (P, J, K, L)
        comb = np.einsum("pjlk,pjkl->pjl", weights[np.arange(P)[:, None], idx], ysel)
        return comb + self.cfg.sigma_obs * standard_normal(rngs, (P, J, L))

    def run(
        self,
        obs: ObservationSeries,
        n_particles: int,
        alpha0: np.ndarray,
        rng: np.random.Generator,
        x0_spread: float = 0.0,
    ) -> FilterOutput:
        """Filter one point: the block run with P = 1."""
        alpha0 = np.asarray(alpha0, dtype=float)
        return self.run_block(obs, n_particles, alpha0[None], (rng,), x0_spread)[0]

    def run_block(
        self,
        obs: ObservationSeries,
        n_particles: int,
        alpha0: np.ndarray,
        rngs: Sequence[np.random.Generator],
        x0_spread: float = 0.0,
        summaries: bool = True,
    ) -> list[FilterOutput]:
        """Filter a block of P points at once, point p starting from
        alpha0[p] (a (P, 3) array) with its own Generator rngs[p]; returns one
        output per point, each equal to that point's run alone.  Any point's
        failure raises for the whole block."""
        panel = self.panel
        T, L = obs.n_steps, panel.n_vars
        if obs.n_vars != L:
            raise InputError("observation and panel variable counts differ")
        if panel.n_steps < T:
            raise InputError("panel does not cover the observation range")

        state = self.init_state(n_particles, alpha0, x0_spread, rngs)
        records = []
        for t in range(1, T + 1):
            state, record = self.step(state, obs.values[t - 1], summaries)
            records.append(record)

        P = len(rngs)
        forecast_records = [r for r in records if "target" in r and r["target"] <= T]
        targets = np.array([r["target"] for r in forecast_records], dtype=int)
        if forecast_records:
            draws = _stack_records(forecast_records, "draws")
        else:
            draws = np.zeros((P, 0, self.n_pred_draws, L))
        point = log_pred = log_pred_marg = None
        if summaries:
            point, log_pred, log_pred_marg = self._forecast_summaries(obs, forecast_records, P)
        per_step = {key: _stack_records(records, key) for key in _STEP_FIELDS}

        def at(a, p):
            return None if a is None else a[p]

        return [
            FilterOutput(
                horizon=self.horizon,
                n_particles=n_particles,
                times=np.arange(1, T + 1),
                **{key: at(a, p) for key, a in per_step.items()},
                forecasts=ForecastSeries(
                    horizon=self.horizon,
                    targets=targets,
                    point=at(point, p),
                    log_pred=at(log_pred, p),
                    log_pred_marginal=at(log_pred_marg, p),
                    draws=draws[p],
                ),
            )
            for p in range(P)
        ]

    def _forecast_summaries(self, obs: ObservationSeries, forecast_records: list, P: int):
        """Point forecasts (P, S, L) and the joint and marginal log predictive
        densities of the realized targets, (P, S) and (P, S, L).  At horizon
        one these are the update's one-step predictives; beyond it they are
        evaluated from the recorded prior-side particle means and weights."""
        S, L = len(forecast_records), self.panel.n_vars
        if S == 0:
            return np.zeros((P, 0, L)), np.empty((P, 0)), np.empty((P, 0, L))
        point = _stack_records(forecast_records, "point")
        if self.horizon == 1:
            return (
                point,
                _stack_records(forecast_records, "one_step_log_pred"),
                _stack_records(forecast_records, "one_step_log_pred_marginal"),
            )
        log_pred = np.empty((P, S))
        log_pred_marg = np.empty((P, S, L))
        sigma = self.cfg.sigma_obs
        for i, r in enumerate(forecast_records):
            y_s = obs.values[r["target"] - 1]
            for p in range(P):
                resid = (y_s[None, :] - r["pred_means"][p]) / sigma[None, :]
                marg = -0.5 * (np.log(2.0 * np.pi * sigma**2)[None, :] + resid**2)
                with np.errstate(divide="ignore"):
                    lo = np.where(r["pred_omega"][p] > 0, np.log(r["pred_omega"][p]), -np.inf)
                log_pred[p, i] = float(_logsumexp(lo + marg.sum(axis=1)))
                log_pred_marg[p, i] = _logsumexp(lo[:, None] + marg, axis=0)
        return point, log_pred, log_pred_marg


def _stack_records(records: list[dict], key: str) -> np.ndarray | None:
    """(P, len(records), ...) from the records' (P, ...) entries; None for a
    summary the run skipped."""
    return np.stack([r[key] for r in records], axis=1) if key in records[0] else None


# FilterOutput fields stacked from one record entry per step.
_STEP_FIELDS = (
    "weights_mean", "weights_lo", "weights_hi", "prior_weights_mean", "alpha_mean", "alpha_lo", "alpha_hi",
    "ess", "resampled", "one_step_log_pred", "one_step_log_pred_marginal",
)


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
    sigma_x: float = 0.25,
    sigma_alpha: float = 0.05,
) -> FilterOutput:
    """Configure and run the filter; sigma_obs defaults to the calibrated
    equal-weight residual scale when no NoiseConfig is given."""
    if cfg is None:
        cfg = NoiseConfig(default_sigma_obs(obs, panel), sigma_x=sigma_x, sigma_alpha=sigma_alpha)
    pf = ParticleFilter(panel, mode, cfg, horizon=horizon, kappa=kappa, n_pred_draws=n_pred_draws)
    rng = substream(seed, "filter")
    return pf.run(obs, n_particles, np.asarray(alpha0, dtype=float), rng, x0_spread=x0_spread)
