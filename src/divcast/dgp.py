"""Synthetic data generators for the two Monte Carlo designs.

``DESIGNS`` maps each design name to its truth step, its candidate models,
its pre-sample value and its default innovation ``sigma``, and ``generate``
reads that table.  ``complete_ar`` draws the target path from the first of
three stationary AR models with distinct unconditional means (the true
process is in the candidate set).  ``nonlinear_incomplete`` uses a strongly
nonlinear truth with a cosine forcing and six misspecified candidates (the
truth is not in the set).

Every candidate's (t, h) panel cell is built by iterating that candidate h
steps forward from the *realized* truth's lagged values with fresh
innovations, one path per draw, so simulated and empirical runs share the
same panel semantics: cell (t, h) is a forecast of target time t issued at
t-h.  Pre-sample lags are pinned at the initial value.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import InputError, ObservationSeries, PredictorPanel
from .rng import substream


def _forcing(s: int) -> float:
    return 8.0 * np.cos(1.2 * (s - 1))


# Step functions f(lag1, lag2, s) -> conditional mean of y_s.
COMPLETE_AR_MODELS = {
    "M1": lambda l1, l2, s: 0.1 + 0.6 * l1,
    "M2": lambda l1, l2, s: 0.3 + 0.2 * l2,
    "M3": lambda l1, l2, s: 0.5 + 0.1 * l1,
}

NONLINEAR_TRUTH = lambda l1, l2, s: 0.5 * l1 + 25.0 * l1 / (1.0 + l1**2) + _forcing(s)

NONLINEAR_MODELS = {
    "M1": lambda l1, l2, s: 0.5 * l1 + 15.0 * l1 / (1.0 + l1**2) + _forcing(s),
    "M2": lambda l1, l2, s: 0.5 * l1 + 25.0 * l2 / (1.0 + l2**2) + _forcing(s),
    "M3": lambda l1, l2, s: 0.5 * l1 + 5.0 * l1 / (1.0 + np.abs(l1)) + _forcing(s),
    "M4": lambda l1, l2, s: 0.5 * l1 + 0.5 * l2 + 9.0 * np.cos(1.2 * (s - 1)),
    "M5": lambda l1, l2, s: l1 + _forcing(s),
    "M6": lambda l1, l2, s: 30.0 * l1 / (1.0 + l1**2) + _forcing(s),
}


# Each design's truth step, candidate models, pre-sample value y0 and
# default innovation sigma.
Design = namedtuple("Design", "truth models y0 sigma")
DESIGNS = {
    "complete_ar": Design(COMPLETE_AR_MODELS["M1"], COMPLETE_AR_MODELS, y0=0.25, sigma=0.05),
    "nonlinear_incomplete": Design(NONLINEAR_TRUTH, NONLINEAR_MODELS, y0=0.1, sigma=0.5),
}

# Largest T x K x H x D draw tensor simulate allocates: 0.8 GB of float64.
MAX_PANEL_CELLS = 10**8


@dataclass(frozen=True)
class SimSpec:
    """One Monte Carlo configuration."""

    design: str
    T: int = 100
    sigma: float | None = None
    seed: int = 0
    n_pred_draws: int = 10
    horizons: int = 1

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise InputError(f"unknown design {self.design!r}; expected one of {tuple(DESIGNS)}")
        if self.T < 2:
            raise InputError("T must be >= 2")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.sigma is None:
            object.__setattr__(self, "sigma", DESIGNS[self.design].sigma)
        if not 0 < self.sigma < np.inf:
            raise InputError("sigma must be finite and > 0")
        if self.n_pred_draws < 1 or self.horizons < 1:
            raise InputError("n_pred_draws and horizons must be >= 1")
        cells = self.T * len(DESIGNS[self.design].models) * self.horizons * self.n_pred_draws
        if cells > MAX_PANEL_CELLS:
            raise InputError(f"the panel would hold {cells:,} draws (T x K x H x D), above {MAX_PANEL_CELLS:,}")


def _simulate_truth(step, y0: float, T: int, sigma: float, rng: np.random.Generator) -> np.ndarray:
    y = np.empty(T + 1)
    y[0] = y0
    lag2 = y0
    for t in range(1, T + 1):
        y[t] = step(y[t - 1], lag2, t) + sigma * rng.standard_normal()
        lag2 = y[t - 1]
    return y[1:]


def _simulate_panel(
    models: dict,
    truth: np.ndarray,
    y0: float,
    spec: SimSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fill the (T, K, 1, H, D) draw tensor by iterating each candidate from
    the truth's lags with fresh innovations per draw."""
    T, K, H, D = spec.T, len(models), spec.horizons, spec.n_pred_draws

    def truth_at(i: int) -> float:  # 1-based truth with pre-sample pinned at y0
        return truth[i - 1] if i >= 1 else y0

    draws = np.empty((T, K, 1, H, D))
    steps = list(models.values())
    for t in range(1, T + 1):
        for h in range(1, H + 1):
            origin = t - h
            prev1 = np.full(D, truth_at(origin))
            prev2 = np.full(D, truth_at(origin - 1))
            for k, step in enumerate(steps):
                z1, z2 = prev1, prev2
                for s in range(origin + 1, t + 1):
                    z = step(z1, z2, s) + spec.sigma * rng.standard_normal(D)
                    z1, z2 = z, z1
                draws[t - 1, k, 0, h - 1, :] = z1
    return draws


def generate(spec: SimSpec) -> tuple[ObservationSeries, PredictorPanel]:
    """Generate (observations, panel) for the spec's design."""
    step, models, y0, _ = DESIGNS[spec.design]
    truth = _simulate_truth(step, y0, spec.T, spec.sigma, substream(spec.seed, "truth"))
    draws = _simulate_panel(models, truth, y0, spec, substream(spec.seed, "panel"))
    return ObservationSeries(truth[:, None], ("y",)), PredictorPanel(draws, tuple(models))
