"""Latent state dynamics for the time-varying combination weights.

Three schemes share one propagation kernel:

* ``tvw``          -- pure random walk on the latent weights x; the
                      regression coefficients are pinned at (0, 1, 0) and the
                      coefficient state alpha never moves.
* ``adaptive_tvw`` -- intercept and persistence coefficients are learned
                      through their own random walks, the diversity term is
                      hard-excluded from the regression.
* ``dtvw``         -- the full regression x' = th0 + th1*x + th2*div + noise
                      with all three coefficients learned.

Coefficients are kept in (-1, 1) by th_i = tanh(alpha_i / 2), where alpha
follows a Gaussian random walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, InputError, NoiseConfig
from .rng import Streams, standard_normal

MODE_TAGS = ("tvw", "adaptive_tvw", "dtvw")


def theta_from_alpha(alpha: np.ndarray) -> np.ndarray:
    """Squash unconstrained alpha into (-1, 1): 2*(logistic(a) - 1/2)."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise InputError("alpha must be finite")
    return np.tanh(alpha / 2.0)


@dataclass(frozen=True)
class LatentMode:
    """Which latent scheme drives the weights."""

    tag: str

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise ConfigError(f"unknown latent mode {self.tag!r}; expected one of {MODE_TAGS}")

    @property
    def uses_diversity(self) -> bool:
        return self.tag == "dtvw"


TVW = LatentMode("tvw")
ADAPTIVE_TVW = LatentMode("adaptive_tvw")
DTVW = LatentMode("dtvw")


class ParticleCloud:
    """Vectorized particle set: latent weights x (N, K*L), coefficient states
    alpha (N, 3) and importance weights omega (N,).  A block of P lattice
    points carries a leading point axis, (P, N, ...), one cloud per point."""

    def __init__(self, x: np.ndarray, alpha: np.ndarray, omega: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        if self.x.ndim not in (2, 3) or self.alpha.shape != (*self.x.shape[:-1], 3):
            raise InputError("cloud arrays must be ([P,] N, K*L) and ([P,] N, 3)")
        if self.omega.shape != self.x.shape[:-1]:
            raise InputError("omega must be an ([P,] N) array")

    def __len__(self) -> int:
        """Particle count, summed over the points of a block."""
        return self.omega.size

    def copy(self) -> "ParticleCloud":
        return ParticleCloud(self.x.copy(), self.alpha.copy(), self.omega.copy())


def init_particles(
    n: int,
    n_models: int,
    n_vars: int,
    alpha0: np.ndarray,
    x0_spread: float,
    rng: Streams,
) -> ParticleCloud:
    """Draw the initial cloud: x ~ N(0, x0_spread^2 I) (zero spread gives
    all-equal initial weights), alpha set to alpha0 exactly, omega = 1/n.
    A (P, 3) alpha0 with a sequence of P Generators gives a block cloud."""
    if n < 1:
        raise InputError("need at least one particle")
    alpha0 = np.asarray(alpha0, dtype=float)
    if alpha0.ndim not in (1, 2) or alpha0.shape[-1] != 3:
        raise InputError("alpha0 must have length 3")
    single = isinstance(rng, np.random.Generator)
    if single != (alpha0.ndim == 1) or (not single and len(rng) != len(alpha0)):
        raise InputError("need one Generator per point")
    lead = alpha0.shape[:-1]
    shape = (*lead, n, n_models * n_vars)
    x = x0_spread * standard_normal(rng, shape) if x0_spread > 0 else np.zeros(shape)
    alpha = np.broadcast_to(alpha0[..., None, :], (*lead, n, 3)).copy()
    omega = np.full((*lead, n), 1.0 / n)
    return ParticleCloud(x, alpha, omega)


def propagate_cloud(
    cloud: ParticleCloud,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: Streams,
) -> ParticleCloud:
    """One transition of the whole cloud (or block of clouds, with one
    Generator per point); importance weights pass through."""
    dim = cloud.x.shape[-1]
    div = np.asarray(div, dtype=float)
    if mode.uses_diversity and div.shape != (dim,):
        raise InputError(f"diversity vector must have length {dim}")

    if mode.tag == "tvw":
        alpha = cloud.alpha
        x = cloud.x.copy()
    else:
        if mode.tag == "adaptive_tvw":
            alpha = cloud.alpha.copy()
            alpha[..., :2] += cfg.sigma_alpha * standard_normal(rng, (*alpha.shape[:-1], 2))
        else:
            alpha = cloud.alpha + cfg.sigma_alpha * standard_normal(rng, cloud.alpha.shape)
        theta = theta_from_alpha(alpha)
        x = theta[..., 0:1] + theta[..., 1:2] * cloud.x
        if mode.uses_diversity:  # adaptive_tvw hard-excludes the diversity term
            x = x + theta[..., 2:3] * div
    x += cfg.sigma_x * standard_normal(rng, x.shape)
    return ParticleCloud(x, alpha, cloud.omega.copy())


# numpy sums a reduction axis of this many entries or more pairwise.
PAIRWISE_FROM = 8


def reduce_models(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1) for np.add or np.maximum, bit for bit.

    numpy reduces slowly over a short last axis, so below eight entries the
    columns are accumulated one by one into the first; numpy's own reduction
    runs in the same left-to-right order there, starting a sum from its
    identity (0.0 + -0.0 is +0.0).  From eight entries on, numpy sums
    pairwise, so longer axes keep its reduction.  Only a NaN input may come
    out with another sign or payload.
    """
    K = a.shape[-1]
    if K >= PAIRWISE_FROM:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0] + 0.0 if ufunc is np.add else a[..., 0].copy()
    for k in range(1, K):
        ufunc(out, a[..., k], out=out)
    return out


def cloud_weight_tensor(cloud_x: np.ndarray, n_models: int, n_vars: int) -> np.ndarray:
    """Per-particle weight matrices from latent states.

    Input ([P,] N, K*L), output ([P,] N, L, K): softmax over the model axis
    for each particle and variable.  The max and the sum over the models go
    through reduce_models: the same bits as a numpy reduction over the last
    axis, in a fraction of its time for a handful of models.
    """
    xm = cloud_x.reshape(*cloud_x.shape[:-1], n_vars, n_models)
    z = np.exp(xm - reduce_models(np.maximum, xm)[..., None])
    return z / reduce_models(np.add, z)[..., None]
