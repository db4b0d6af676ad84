"""Sequential Monte Carlo loop for the time-varying combination weights.

Each step propagates the particle cloud through the latent dynamics, scores
and samples the prior-side (pre-update) predictive, updates the importance
weights with the one-step Gaussian combination likelihood, and resamples
systematically when the normalized effective sample size drops below the
threshold.  Forecasts emitted at step t target time t+h-1: they pair the
prior-side particle weights (information through t-1) with the panel's
horizon-h cell for that target, so every emitted forecast is out-of-sample.

The filter advances a block of P points: every record entry carries the
point axis first, and the cloud is stored entry-major (see latent), x
(K*L, P, N) and alpha (2, P, N), so the propagation, the softmax, the
combined forecasts and the resampling gather run elementwise over
contiguous (P, N) slabs.  Every reduction runs on that layout: the sums over
the models and the variables are loops over slabs, and the weighted means,
the bands and the mixtures' log-sum-exps reduce along the last, particle
axis.  A single run is the block with P = 1; the grid search advances many
lattice points at once.

Every step makes the same draws whatever the data: the coefficient noise
(of alpha1, and of alpha2 under dtvw), the latent noise, the predictive
picks' offset, the panel-draw indices and the observation noise, then the
resampling offset, which is drawn whether or not any point resamples.  So
the points of a block share one Generator: each draw is made once, at one
point's shape and in one point's order, and applies to every point, and
each point gets exactly the numbers it would get in a run alone.

The panel is frozen, so each filter builds its diversity path, the vector
for every step t, in one call on its first step, and every block it runs
reads that path.

A step given its forecast's realized target scores its own particle
mixture with _mixture_log_predictives, run_combiner's kernel too, from the
log densities of its (L, P, N) particle means and its (P, N) log prior
weights, which die inside the step.  run_block writes every step's entries
into outputs made before the first step, so a run holds the cloud, its
scratch and the outputs, and nothing of the size steps x particles.

A step advances the block's state in place.  The state carries one scratch
array the size of the latent cloud x and one the size of the coefficient
cloud alpha, (alpha1, alpha2): alpha0 drives no weight (see latent), and only
run_block reads it.  The propagation's coefficients and diversity term and
the softmax weights are written into the scratch, and resampling gathers
the rows of x and alpha of the points that resample into it and copies them
back; the posterior bands, read from the state after the step, recompute
the softmax into it.  So a step holds no temporary of the cloud's size, and
larger blocks fit in the same memory.  The in-place operations keep the
operand order of the allocating expressions; the reductions' order is the
layout's own, so a result may differ from an allocating expression on
another layout in its last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DegeneracyError,
    ForecastSeries,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    _check_alignment,
    default_sigma_obs,
)
from .diversity import diversity_vector
from .latent import (
    LatentMode,
    ParticleCloud,
    cloud_weight_tensor,
    init_particles,
    propagate_cloud,
)
from .rng import substream

BAND_LO = 0.025
BAND_HI = 0.975


def systematic_resample(weights: np.ndarray, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Systematic (single-offset stratified) resampling of each row of a
    (P, N) block of weight vectors, every row with the same offset.

    Returns (P, n) index choices (default n: N), row p with expected
    multiplicity n*w[p, i] and total variance below one per index.  A single
    (N,) vector is the one-row block and returns (n,) choices.
    """
    w = np.asarray(weights, dtype=float)
    if single := w.ndim == 1:
        w = w[None]
    if w.ndim != 2:
        raise InputError("weights must be a vector or a (P, N) block")
    if not np.all(np.isfinite(w)):
        raise InputError("weights must be finite")
    if np.any(w < -1e-12):
        raise InputError("weights must be non-negative")
    sums = w.sum(axis=-1)
    if np.any(bad := np.abs(sums - 1.0) > 1e-8):
        raise InputError(f"weights sum to {sums[bad][0]:.6g}, expected 1")
    idx = _resample_indices(w, rng.random(), w.shape[-1] if n is None else int(n))
    return idx[0] if single else idx


def _resample_indices(w: np.ndarray, offset: float, n: int) -> np.ndarray:
    """systematic_resample's (P, n) choices for a (P, N) block of weight
    rows already known to be normalized, every row with the given offset;
    nothing is checked.

    Choice j of a row counts its cumulative weights at or below the
    position (j + offset) / n: one binary search of the row's cumulative
    weights for all n positions, which every row shares."""
    N = w.shape[-1]
    cum = np.cumsum(w, axis=-1)
    # Guard accumulated rounding: each row rises to exactly 1.
    np.minimum(cum, 1.0, out=cum)
    cum[:, -1] = 1.0
    positions = (np.arange(n) + offset) / n
    idx = np.empty((len(w), n), dtype=np.intp)
    for row, out in zip(cum, idx):
        out[:] = row.searchsorted(positions, side="right")
    return np.minimum(idx, N - 1, out=idx)


def effective_sample_size(omega: np.ndarray) -> float | np.ndarray:
    """Normalized ESS, 1/(N * sum(omega^2)); 1 iff the weights are uniform.
    Computed along the last axis, so a (P, N) block gives one ESS per point."""
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (omega.shape[-1] * np.sum(omega**2, axis=-1))


def _band_stats(values: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted mean and 95% band of entry-major per-particle statistics
    (M, P, N) under the weights omega (P, N), reduced along the particle
    axis: three (M, P) arrays.

    Bands are widened to contain the mean in degenerate heavy-tail cases.
    The mean, like the forecast's point, is an einsum and not a BLAS @:
    OpenBLAS spreads a large product over threads, which doubled a large
    run's CPU time without shortening it and made its bits depend on the
    thread count.
    """
    mean = np.einsum("mpn,pn->mp", values, omega)
    order = np.argsort(values, axis=-1)
    sorted_vals = np.take_along_axis(values, order, axis=-1)
    cum = np.cumsum(np.take_along_axis(omega[None], order, axis=-1), axis=-1)
    cum /= cum[..., -1:]
    lo, hi = (
        np.take_along_axis(sorted_vals, (cum >= q).argmax(axis=-1)[..., None], axis=-1)[..., 0]
        for q in (BAND_LO, BAND_HI)
    )
    return mean, np.minimum(lo, mean), np.maximum(hi, mean)


def _logsumexp(logv: np.ndarray, axis: int = 0) -> np.ndarray:
    """log(sum(exp(logv))) over an axis, in logv, which it overwrites."""
    m = logv.max(axis=axis)
    m = np.where(np.isfinite(m), m, 0.0)
    logv -= np.expand_dims(m, axis)
    with np.errstate(divide="ignore"):
        return m + np.log(np.exp(logv, out=logv).sum(axis=axis))


def _mixture_log_predictives(log_w: np.ndarray, comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint (...) and marginal (..., L) log predictives of mixtures under log
    weights log_w (..., M), from their M components' per-variable log densities
    comp (..., M, L), which it overwrites; comp may be a view of any layout,
    such as the step's entry-major (L, P, N) array with its first axis moved last."""
    joint = _logsumexp(log_w + comp.sum(axis=-1), axis=-1)
    comp += log_w[..., None]
    return joint, _logsumexp(comp, axis=-2)


def _gaussian_logpdf(
    y: np.ndarray, mean: np.ndarray, sigma: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-variable Gaussian log densities of y around mean with scales
    sigma (broadcast together, each variable's sigma against its own
    entries), written into out (which may be mean) when given; overflow of
    extreme residuals legitimately maps to -inf."""
    r = np.subtract(y, mean, out=out)
    r /= sigma
    with np.errstate(over="ignore"):
        np.square(r, out=r)
    r += np.log(2.0 * np.pi * sigma**2)
    r *= -0.5
    return r


def _combine_cloud(weights: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per-particle combined forecasts (L, P, N): (L, K, P, N) weights
    against a (K, L) mean matrix, summed model by model, with one product
    alive at a time."""
    means = means[:, :, None, None]
    out = weights[:, 0] * means[0] + 0.0  # a sum starts from +0.0
    for k in range(1, len(means)):
        out += weights[:, k] * means[k]
    return out


def _gather(
    a: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None, rows: np.ndarray | None = None
) -> np.ndarray:
    """Particle idx[i, j] of point rows[i] (default: of point i), from every
    (P, N) slab of an entry-major (..., P, N) block, as a (..., len(idx), J)
    array, through one flat index into each slab's (P*N,) view; written into
    out (C-contiguous, not overlapping a) when given."""
    *lead, P, n = a.shape
    flat = (idx + n * (np.arange(P) if rows is None else rows)[:, None]).ravel()
    if out is None:
        out = np.empty((*lead, *idx.shape), dtype=a.dtype)
    # mode="clip" writes straight into out; the default mode buffers it.
    np.take(a.reshape(-1, P * n), flat, axis=1, out=out.reshape(-1, flat.size), mode="clip")
    return out


@dataclass
class FilterState:
    """Mutable filter position of a block of P points: the entry-major
    cloud, x (K*L, P, N), alpha (2, P, N) and omega (P, N), the time index
    of the last processed observation, and the Generator the points share.

    step advances the state in place.  Its scratch, one (K*L, P, N) array
    and one (2, P, N) array, made with the state, holds the step's
    temporaries, the weight tensor among them, and the weights the bands
    recompute; a resampling step gathers the rows of x and alpha of the
    points that resample into it and copies them back into the cloud."""

    cloud: ParticleCloud
    t: int
    rng: np.random.Generator
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty(self.cloud.x.shape), np.empty(self.cloud.alpha.shape))


@dataclass
class FilterOutput:
    """One point's run: posterior weight (T, K, L) and coefficient (T, 3)
    trajectories with 95% bands (alpha0's are its initial value), the ESS
    path and resample flags, the one-step log predictives (T,), and the
    out-of-sample forecast block at the run's horizon.  A run without bands
    leaves the six band fields as None, and one whose steps score nothing
    the forecasts' point and log predictives; the draws are always there."""

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


# FilterOutput fields written at every step, in FilterOutput's order.
_STEP_FIELDS = (
    "weights_mean", "weights_lo", "weights_hi", "alpha_mean", "alpha_lo", "alpha_hi",
    "ess", "resampled", "one_step_log_pred",
)


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
        for every t of the panel, from one diversity_vector call.  The panel
        is frozen, so the path is built on the first step that needs it and
        shared by every later block."""
        return diversity_vector(self.panel, self.horizon)

    def init_state(
        self,
        n_particles: int,
        alpha0: np.ndarray,
        x0_spread: float,
        rng: np.random.Generator,
    ) -> FilterState:
        """Initial state of a block: point p starts from alpha0[p] (a (P, 2)
        array of (alpha1, alpha2)), and every point draws from rng."""
        cloud = init_particles(n_particles, self.panel.n_models, self.panel.n_vars, alpha0, x0_spread, rng)
        return FilterState(cloud=cloud, t=0, rng=rng)

    def step(
        self, state: FilterState, y_t: np.ndarray, y_target: np.ndarray | None = None
    ) -> tuple[FilterState, dict]:
        """Advance every point of the block by one observation, in place;
        returns the state and a record of everything emitted at this step,
        each entry with the point axis first.  A step that raises leaves the
        state undefined.

        The record holds the one-step log predictives, the ESS, the resample
        flags and, while target t+h-1 lies in the panel, the forecast's
        draws.  Given the target's realized value y_target (L,), the step
        also scores its particle mixture before the update: the forecast's
        point and joint and marginal log predictives.  The target changes no draw.
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
        rng, cloud = state.rng, state.cloud
        div = self.diversity_path[t - 1] if self.mode.uses_diversity else np.zeros(K * L)
        sigma = cfg.sigma_obs[:, None, None]
        propagate_cloud(cloud, div, self.mode, cfg, rng, state.scratch)
        P, n = cloud.omega.shape
        weights = cloud_weight_tensor(cloud.x, K, L, out=state.scratch[0].reshape(L, K, P, n))
        omega_prior = cloud.omega  # renormalized in place; the update overwrites it
        omega_prior /= omega_prior.sum(axis=-1, keepdims=True)
        log_prior = np.full_like(omega_prior, -np.inf)
        np.log(omega_prior, out=log_prior, where=omega_prior > 0)

        # Out-of-sample forecast for target s = t + h - 1, prior-side weights.
        record: dict = {}
        target = t + self.horizon - 1
        if target <= panel.n_steps:
            if y_target is not None:
                pred_means = _combine_cloud(weights, panel.mean_matrix(target, self.horizon))  # (L, P, N)
                record["point"] = np.einsum("lpn,pn->pl", pred_means, omega_prior)
                comp = _gaussian_logpdf(y_target[:, None, None], pred_means, sigma, out=pred_means)
                record["log_pred"], record["log_pred_marginal"] = _mixture_log_predictives(
                    log_prior, np.moveaxis(comp, 0, -1)
                )
                del pred_means, comp
            record["draws"] = self._predictive_draws(weights, omega_prior, target, rng)

        # One-step likelihood update (log-space, max-shifted), each array
        # rewritten in place.
        logw = _combine_cloud(weights, means_t)
        logw = _gaussian_logpdf(y_t[:, None, None], logw, sigma, out=logw)
        logw = logw.sum(axis=0)
        logw += log_prior
        shift = logw.max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(shift)):
            raise DegeneracyError(
                f"all particle likelihoods vanished at t={t}; "
                "raise sigma_obs or the particle count"
            )
        logw -= shift
        total = np.exp(logw, out=logw).sum(axis=-1, keepdims=True)
        if not np.all((total > 0) & np.isfinite(total)):
            raise DegeneracyError(
                f"importance weights degenerated at t={t}; "
                "raise sigma_obs or the particle count"
            )
        omega = np.divide(logw, total, out=cloud.omega)
        record["one_step_log_pred"] = (shift + np.log(total))[:, 0]
        del logw, log_prior  # free them before resampling

        # Resample the points whose ESS fell below the threshold.  The offset
        # is drawn whether or not any point resamples.
        ess = effective_sample_size(omega)
        record["ess"] = ess
        resampled = ess < self.kappa
        record["resampled"] = resampled
        offset = rng.random()
        if resampled.any():
            which = np.flatnonzero(resampled)
            idx = _resample_indices(omega[which], offset, n)
            omega[which] = 1.0 / n
            # Only the resampled points' rows are gathered, each array's into
            # the head of a scratch buffer, and written back.
            for a, buf in zip((cloud.x, cloud.alpha), state.scratch):
                rows = buf.reshape(-1)[: a.size // P * len(which)].reshape(*a.shape[:-2], *idx.shape)
                a[..., which, :] = _gather(a, idx, out=rows, rows=which)
        state.t = t
        return state, record

    def _bands(self, state: FilterState) -> dict:
        """Posterior means and 95% bands of the weights, (P, K, L), and of
        (alpha1, alpha2), (P, 2), after a step.  The softmax is recomputed
        into the scratch: a particle's weights depend only on its own latent
        column, so they keep the bits of the tensor the step resampled."""
        K, L = self.panel.n_models, self.panel.n_vars
        cloud = state.cloud
        P, n = cloud.omega.shape
        weights = cloud_weight_tensor(cloud.x, K, L, out=state.scratch[0].reshape(L, K, P, n))
        bands = {}
        for stat, band in zip(("mean", "lo", "hi"), _band_stats(weights.reshape(L * K, P, n), cloud.omega)):
            bands[f"weights_{stat}"] = band.reshape(L, K, P).T
        for stat, band in zip(("mean", "lo", "hi"), _band_stats(cloud.alpha, cloud.omega)):
            bands[f"alpha_{stat}"] = band.T
        return bands

    def _predictive_draws(
        self,
        weights: np.ndarray,
        omega_prior: np.ndarray,
        target: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample each point's combined predictive mixture: pick particles by
        their prior weights, one panel draw per pick, plus observation noise.
        Takes the (L, K, P, N) weight tensor and returns (P, J, L); the picks'
        offset, the panel draws and the noise are the same for every point."""
        J, L = self.n_pred_draws, self.panel.n_vars
        idx = _resample_indices(omega_prior, rng.random(), J)  # (P, J)
        d = rng.integers(0, self.panel.n_draws, size=J)
        ysel = self.panel.draw_block(target, self.horizon)[:, :, d]  # (K, L, J)
        comb = np.einsum("lkpj,klj->pjl", _gather(weights, idx), ysel)
        comb += self.cfg.sigma_obs * rng.standard_normal((J, L))
        return comb

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
        return self.run_block(obs, n_particles, np.asarray(alpha0, dtype=float)[None], rng, x0_spread, bands=bands)[0]

    def run_block(
        self,
        obs: ObservationSeries,
        n_particles: int,
        alpha0: np.ndarray,
        rng: np.random.Generator,
        x0_spread: float = 0.0,
        summaries: bool = True,
        bands: bool = True,
    ) -> list[FilterOutput]:
        """Filter a block of P points at once, point p starting from
        alpha0[p] (a (P, 3) array), every point drawing from rng; returns
        one output per point, each equal to that point's run alone with a
        Generator in rng's state.  Any point's failure raises for the whole
        block.  alpha0[p, 0] is point p's alpha0 mean and both band ends.

        Steps 1..S, S = T - h + 1, emit the forecasts of targets h..T; with
        summaries each step scores its own (at horizon one, its log
        predictive is the update's one-step predictive), and with bands the
        posterior bands are read from each step's state.  Every entry is
        written into outputs made before the first step.  A panel longer
        than the observations also emits forecasts after step S; their
        targets are not observed, and they are dropped.
        """
        panel, h = self.panel, self.horizon
        T = obs.n_steps
        _check_alignment(obs, panel)
        if T < h:
            raise InputError(f"horizon {h} leaves no forecast target among {T} observations")
        alpha0 = np.asarray(alpha0, dtype=float)
        if alpha0.ndim != 2 or alpha0.shape[-1] != 3:
            raise InputError("alpha0 must be a (P, 3) array")

        state = self.init_state(n_particles, alpha0[:, 1:], x0_spread, rng)
        P, S, K, L = len(alpha0), T - h + 1, panel.n_models, panel.n_vars
        shapes = {"ess": (T,), "resampled": (T,), "one_step_log_pred": (T,), "draws": (S, self.n_pred_draws, L)}
        if summaries:
            shapes |= {"point": (S, L), "log_pred": (S,), "log_pred_marginal": (S, L)}
        for stat in ("mean", "lo", "hi") if bands else ():
            shapes |= {f"weights_{stat}": (T, K, L), f"alpha_{stat}": (T, 3)}
        out = {key: np.empty((P, *shape), dtype=bool if key == "resampled" else float) for key, shape in shapes.items()}
        # Where each step writes: alpha0's band column is its configured value.
        dest = dict(out)
        for key in ("alpha_mean", "alpha_lo", "alpha_hi") if bands else ():
            out[key][..., 0] = alpha0[:, :1]
            dest[key] = out[key][..., 1:]
        for t, y_t in enumerate(obs.values, start=1):
            state, record = self.step(state, y_t, obs.values[t + h - 2] if summaries and t <= S else None)
            if bands:
                record |= self._bands(state)
            for key, value in record.items():
                if t <= S or key != "draws":
                    dest[key][:, t - 1] = value
        targets = np.arange(h, T + 1)

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
            for p in range(P)
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
