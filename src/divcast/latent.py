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

Clouds are blocks: every array carries a leading axis of P points, and each
point draws from its own Generator exactly what it would draw alone.  One
point's cloud is the block with P = 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, InputError, NoiseConfig
from .rng import standard_normal

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
    """Vectorized particle sets of a block of P points: latent weights x
    (P, N, K*L), coefficient states alpha (P, N, 3) and importance weights
    omega (P, N), one cloud per point."""

    def __init__(self, x: np.ndarray, alpha: np.ndarray, omega: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        if self.x.ndim != 3 or self.alpha.shape != (*self.x.shape[:-1], 3):
            raise InputError("cloud arrays must be (P, N, K*L) and (P, N, 3)")
        if self.omega.shape != self.x.shape[:-1]:
            raise InputError("omega must be a (P, N) array")

    def __len__(self) -> int:
        """Particle count, summed over the points of the block."""
        return self.omega.size


def init_particles(
    n: int,
    n_models: int,
    n_vars: int,
    alpha0: np.ndarray,
    x0_spread: float,
    rngs: Sequence[np.random.Generator],
) -> ParticleCloud:
    """Draw the initial block cloud: point p starts from alpha0[p] (a (P, 3)
    array) with its own Generator rngs[p]; x ~ N(0, x0_spread^2 I) (zero
    spread gives all-equal initial weights), alpha set to alpha0 exactly,
    omega = 1/n."""
    if n < 1:
        raise InputError("need at least one particle")
    alpha0 = np.asarray(alpha0, dtype=float)
    if alpha0.ndim != 2 or alpha0.shape[-1] != 3:
        raise InputError("alpha0 must be a (P, 3) array")
    if len(rngs) != len(alpha0):
        raise InputError("need one Generator per point")
    P = len(alpha0)
    shape = (P, n, n_models * n_vars)
    x = x0_spread * standard_normal(rngs, shape) if x0_spread > 0 else np.zeros(shape)
    alpha = np.broadcast_to(alpha0[:, None, :], (P, n, 3)).copy()
    omega = np.full((P, n), 1.0 / n)
    return ParticleCloud(x, alpha, omega)


def propagate_cloud(
    cloud: ParticleCloud,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rngs: Sequence[np.random.Generator],
) -> ParticleCloud:
    """One transition of a block of clouds, with one Generator per point;
    importance weights pass through."""
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
            alpha[..., :2] += cfg.sigma_alpha * standard_normal(rngs, (*alpha.shape[:-1], 2))
        else:
            alpha = cloud.alpha + cfg.sigma_alpha * standard_normal(rngs, cloud.alpha.shape)
        theta = theta_from_alpha(alpha)
        x = theta[..., 0:1] + theta[..., 1:2] * cloud.x
        if mode.uses_diversity:  # adaptive_tvw hard-excludes the diversity term
            x = x + theta[..., 2:3] * div
    x += cfg.sigma_x * standard_normal(rngs, x.shape)
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
