"""Synthetic data generators for the two Monte Carlo designs.

``complete_ar`` draws the target path from the first of three stationary
AR models with distinct unconditional means (the true process is in the
candidate set).  ``nonlinear_incomplete`` uses a strongly nonlinear truth
with a cosine forcing and six misspecified candidates (the truth is not in
the set).

Every candidate's (t, h) panel cell is built by iterating that candidate h
steps forward from the *realized* truth's lagged values with fresh
innovations, one path per draw, so simulated and empirical runs share the
same panel semantics: cell (t, h) is a forecast of target time t issued at
t-h.  Pre-sample lags are pinned at the initial value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, ObservationSeries, PredictorPanel
from .rng import substream

DESIGNS = ("complete_ar", "nonlinear_incomplete")


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
            raise InputError(f"unknown design {self.design!r}; expected one of {DESIGNS}")
        if self.T < 2:
            raise InputError("T must be >= 2")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.sigma is None:
            default = 0.05 if self.design == "complete_ar" else 0.5
            object.__setattr__(self, "sigma", default)
        if self.sigma <= 0:
            raise InputError("sigma must be > 0")
        if self.n_pred_draws < 1 or self.horizons < 1:
            raise InputError("n_pred_draws and horizons must be >= 1")


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
    """Generate (observations, panel) for the given design."""
    if spec.design == "complete_ar":
        return gen_complete_ar(spec)
    return gen_nonlinear_incomplete(spec)


def gen_complete_ar(spec: SimSpec) -> tuple[ObservationSeries, PredictorPanel]:
    """Three-AR complete design: the first candidate is the true process."""
    if spec.design != "complete_ar":
        raise InputError("spec design must be complete_ar")
    y0 = 0.25
    truth = _simulate_truth(COMPLETE_AR_MODELS["M1"], y0, spec.T, spec.sigma, substream(spec.seed, "truth"))
    draws = _simulate_panel(COMPLETE_AR_MODELS, truth, y0, spec, substream(spec.seed, "panel"))
    obs = ObservationSeries(truth[:, None], ("y",))
    panel = PredictorPanel(draws, tuple(COMPLETE_AR_MODELS))
    return obs, panel


def gen_nonlinear_incomplete(spec: SimSpec) -> tuple[ObservationSeries, PredictorPanel]:
    """Nonlinear incomplete design: six candidates, none equal to the truth."""
    if spec.design != "nonlinear_incomplete":
        raise InputError("spec design must be nonlinear_incomplete")
    y0 = 0.1
    truth = _simulate_truth(NONLINEAR_TRUTH, y0, spec.T, spec.sigma, substream(spec.seed, "truth"))
    draws = _simulate_panel(NONLINEAR_MODELS, truth, y0, spec, substream(spec.seed, "panel"))
    obs = ObservationSeries(truth[:, None], ("y",))
    panel = PredictorPanel(draws, tuple(NONLINEAR_MODELS))
    return obs, panel
