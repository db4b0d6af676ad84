"""Scalar reference implementations the tests check the vectorized kernels
against.  Nothing in the package imports them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from divcast.core import InputError, NoiseConfig
from divcast.filtering import run_filter
from divcast.latent import DTVW, LatentMode, ParticleCloud, propagate_cloud
from divcast.metrics import crps_series


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
    """The particles of an unbatched (N, ...) cloud, one by one."""
    return [LatentParticle(x, a, float(o)) for x, a, o in zip(cloud.x, cloud.alpha, cloud.omega)]


def propagate_particle(
    p: LatentParticle,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: np.random.Generator,
) -> LatentParticle:
    """Propagate a single particle (the cloud kernel with N = 1)."""
    cloud = ParticleCloud(p.x[None, :], p.alpha[None, :], np.array([p.omega]))
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
