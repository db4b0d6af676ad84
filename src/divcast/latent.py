"""Latent state dynamics for the time-varying combination weights.

Three schemes share one propagation kernel:

* ``tvw``          -- pure random walk on the latent weights x; the
                      regression coefficients are pinned at (1, 0) and the
                      coefficient state alpha never moves.
* ``adaptive_tvw`` -- the persistence coefficient is learned through its own
                      random walk, the diversity term is hard-excluded from
                      the regression.
* ``dtvw``         -- the full regression x' = th1*x + th2*div + noise with
                      both coefficients learned.

Coefficients are kept in (-1, 1) by th_i = tanh(alpha_i / 2), where alpha =
(alpha1, alpha2) follows a Gaussian random walk.  No cloud carries alpha0:
the paper's th0 shifts every entry of x alike, which the softmax ignores.

Clouds are blocks of P points that share one Generator, stored entry-major:
x is (K*L, P, N) and alpha (2, P, N), so each latent entry x[e] and each
coefficient alpha[j] is one contiguous (P, N) slab, and every per-entry
operation is a long elementwise loop over a slab.  Each draw is made once at
one point's (N, .) shape, in the order a run alone makes it, and its
transpose is added to every point, so every point moves exactly as it would
alone with that Generator.  One point's cloud is the block with P = 1.

The kernels write into the buffers they are given: propagate_cloud advances
a cloud's arrays in place, with its temporaries in a scratch pair, and
cloud_weight_tensor writes its softmax into out.  Every in-place operation
keeps the operand order of the expression it replaces (x *= th1; x += d
gives the bits of th1*x + d).  The softmax's max and sum run over the model
axis of the (L, K, P, N) view, so each is an elementwise loop over (P, N)
slabs, in model order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, InputError, NoiseConfig

MODE_TAGS = ("tvw", "adaptive_tvw", "dtvw")


def theta_from_alpha(alpha: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squash unconstrained alpha into (-1, 1): 2*(logistic(a) - 1/2),
    written into out when given."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise InputError("alpha must be finite")
    return np.tanh(np.divide(alpha, 2.0, out=out), out=out)


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
    """Vectorized particle sets of a block of P points, entry-major: latent
    weights x (K*L, P, N), coefficient states (alpha1, alpha2) as alpha
    (2, P, N) and importance weights omega (P, N); x[e, p] is point p's
    (N,) column of latent entry e."""

    def __init__(self, x: np.ndarray, alpha: np.ndarray, omega: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        if self.x.ndim != 3 or self.alpha.shape != (2, *self.x.shape[1:]):
            raise InputError("cloud arrays must be (K*L, P, N) and (2, P, N)")
        if self.omega.shape != self.x.shape[1:]:
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
    rng: np.random.Generator,
) -> ParticleCloud:
    """Draw the initial block cloud: point p starts from alpha0[p], its
    (alpha1, alpha2), and every point from the same x ~ N(0, x0_spread^2 I),
    drawn as one (n, K*L) array (zero spread gives all-equal initial
    weights); alpha set to alpha0 exactly, omega = 1/n."""
    if n < 1:
        raise InputError("need at least one particle")
    alpha0 = np.asarray(alpha0, dtype=float)
    if alpha0.ndim != 2 or alpha0.shape[-1] != 2:
        raise InputError("alpha0 must be a (P, 2) array")
    P = len(alpha0)
    x = np.zeros((n_models * n_vars, P, n))
    if x0_spread > 0:
        x[:] = (x0_spread * rng.standard_normal((n, n_models * n_vars))).T[:, None]
    alpha = np.broadcast_to(alpha0.T[:, :, None], (2, P, n)).copy()
    omega = np.full((P, n), 1.0 / n)
    return ParticleCloud(x, alpha, omega)


def propagate_cloud(
    cloud: ParticleCloud,
    div: np.ndarray,
    mode: LatentMode,
    cfg: NoiseConfig,
    rng: np.random.Generator,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> ParticleCloud:
    """One transition of a block of clouds, in place; returns the cloud.
    Each noise term is drawn once at one point's (N, .) shape and its
    transpose added to every point.

    The coefficients and the diversity term are written into scratch, a
    pair of C-contiguous float arrays shaped like cloud.x and cloud.alpha
    (allocated when not given), whose contents are then undefined.
    Importance weights pass through.  A transition that raises leaves the
    cloud undefined.
    """
    dim, _, n = cloud.x.shape
    div = np.asarray(div, dtype=float)
    if mode.uses_diversity and div.shape != (dim,):
        raise InputError(f"diversity vector must have length {dim}")
    x, alpha = cloud.x, cloud.alpha
    big, small = scratch or (np.empty(x.shape), np.empty(alpha.shape))

    if mode.tag != "tvw":
        # adaptive_tvw's diversity coefficient stays put.
        m = 2 if mode.uses_diversity else 1
        pad = np.zeros((2, n))
        pad[:m] = rng.standard_normal((n, m)).T
        pad *= cfg.sigma_alpha
        alpha += pad[:, None]
        theta = theta_from_alpha(alpha, out=small)
        x *= theta[0]
        if mode.uses_diversity:  # adaptive_tvw hard-excludes the diversity term
            x += np.multiply(theta[1], div[:, None, None], out=big)
    z = np.ascontiguousarray(rng.standard_normal((n, dim)).T)
    z *= cfg.sigma_x
    x += z[:, None]
    return cloud


def cloud_weight_tensor(
    cloud_x: np.ndarray, n_models: int, n_vars: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-particle weight matrices from entry-major latent states.

    Input (K*L, ...), output (L, K, ...): softmax over the model axis for
    each particle and variable, written into out when given.
    """
    xm = cloud_x.reshape(n_vars, n_models, *cloud_x.shape[1:])
    z = np.subtract(xm, xm.max(axis=1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z
