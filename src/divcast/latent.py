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

MODE_TAGS = ("tvw", "adaptive_tvw", "dtvw")


def theta_from_alpha(alpha: np.ndarray) -> np.ndarray:
    """Squash unconstrained alpha into (-1, 1): 2*(logistic(a) - 1/2)."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise InputError("alpha must be finite")
    return np.tanh(alpha / 2.0)


@dataclass(frozen=True)
class LatentMode:
    """Which latent scheme drives the weights.

    fixed_theta applies to the tvw tag only; it defaults to (0, 1, 0) and is
    exposed so degenerate variants can be tested.
    """

    tag: str
    fixed_theta: tuple[float, float, float] | None = None

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise ConfigError(f"unknown latent mode {self.tag!r}; expected one of {MODE_TAGS}")
        if self.fixed_theta is not None and self.tag != "tvw":
            raise ConfigError("fixed_theta only applies to the tvw mode")

    @property
    def theta_fixed(self) -> np.ndarray:
        theta = (0.0, 1.0, 0.0) if self.fixed_theta is None else self.fixed_theta
        return np.asarray(theta, dtype=float)

    @property
    def uses_diversity(self) -> bool:
        if self.tag == "dtvw":
            return True
        return self.tag == "tvw" and self.theta_fixed[2] != 0.0


TVW = LatentMode("tvw")
ADAPTIVE_TVW = LatentMode("adaptive_tvw")
DTVW = LatentMode("dtvw")


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


class ParticleCloud:
    """Vectorized particle set behaving like a sequence of LatentParticle."""

    def __init__(self, x: np.ndarray, alpha: np.ndarray, omega: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        if self.x.ndim != 2 or self.alpha.shape != (len(self.x), 3):
            raise InputError("cloud arrays must be (N, K*L) and (N, 3)")
        if self.omega.shape != (len(self.x),):
            raise InputError("omega must be an (N,) vector")

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, i: int) -> LatentParticle:
        return LatentParticle(self.x[i], self.alpha[i], float(self.omega[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def copy(self) -> "ParticleCloud":
        return ParticleCloud(self.x.copy(), self.alpha.copy(), self.omega.copy())


def init_particles(
    n: int,
    n_models: int,
    n_vars: int,
    alpha0: np.ndarray,
    x0_spread: float,
    rng: np.random.Generator,
) -> ParticleCloud:
    """Draw the initial cloud: x ~ N(0, x0_spread^2 I) (zero spread gives
    all-equal initial weights), alpha set to alpha0 exactly, omega = 1/n."""
    if n < 1:
        raise InputError("need at least one particle")
    alpha0 = np.asarray(alpha0, dtype=float)
    if alpha0.shape != (3,):
        raise InputError("alpha0 must have length 3")
    dim = n_models * n_vars
    if x0_spread > 0:
        x = x0_spread * rng.standard_normal((n, dim))
    else:
        x = np.zeros((n, dim))
    alpha = np.tile(alpha0, (n, 1))
    omega = np.full(n, 1.0 / n)
    return ParticleCloud(x, alpha, omega)


def propagate_cloud(
    cloud: ParticleCloud,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: np.random.Generator,
) -> ParticleCloud:
    """One transition of the whole cloud; importance weights pass through."""
    n, dim = cloud.x.shape
    div = np.asarray(div, dtype=float)
    if mode.uses_diversity and div.shape != (dim,):
        raise InputError(f"diversity vector must have length {dim}")

    if mode.tag == "tvw":
        alpha = cloud.alpha
        theta = np.tile(mode.theta_fixed, (n, 1))
    elif mode.tag == "adaptive_tvw":
        alpha = cloud.alpha.copy()
        alpha[:, :2] += cfg.sigma_alpha * rng.standard_normal((n, 2))
        theta = theta_from_alpha(alpha)
        theta[:, 2] = 0.0  # diversity term hard-excluded
    else:
        alpha = cloud.alpha + cfg.sigma_alpha * rng.standard_normal((n, 3))
        theta = theta_from_alpha(alpha)

    if mode.tag == "tvw" and mode.fixed_theta is None:
        x = cloud.x.copy()
    else:
        x = theta[:, 0:1] + theta[:, 1:2] * cloud.x
        if mode.uses_diversity:
            x = x + theta[:, 2:3] * div[None, :]
    x += cfg.sigma_x * rng.standard_normal((n, dim))
    return ParticleCloud(x, alpha, cloud.omega.copy())


def propagate_particle(
    p: LatentParticle,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: np.random.Generator,
) -> LatentParticle:
    """Propagate a single particle (the cloud kernel with N = 1)."""
    cloud = ParticleCloud(p.x[None, :], p.alpha[None, :], np.array([p.omega]))
    out = propagate_cloud(cloud, div, mode, cfg, rng)
    return out[0]


def cloud_weight_tensor(cloud_x: np.ndarray, n_models: int, n_vars: int) -> np.ndarray:
    """Per-particle weight matrices from latent states.

    Input (N, K*L), output (N, L, K): softmax over the model axis for each
    particle and variable.
    """
    xm = cloud_x.reshape(len(cloud_x), n_vars, n_models)
    z = np.exp(xm - xm.max(axis=2, keepdims=True))
    return z / z.sum(axis=2, keepdims=True)

