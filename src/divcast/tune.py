"""Grid search for the diversity-driven filter's coefficient initialization
(alpha1_0, alpha2_0), with alpha0_0 pinned at zero.

Supports a one-stage fine grid and a two-stage coarse-then-fine strategy:
stage two refines a rectangle of coarse cells around the stage-one incumbent.
Every grid point is evaluated with the same seed (common random numbers) so
the surface is comparable across points; the reported optimum is the global
minimum over all evaluated points with deterministic tie-breaking (smaller
L1 norm first, then lexicographic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, NoiseConfig, ObservationSeries, PredictorPanel
from .filtering import run_filter
from .latent import DTVW
from .metrics import crps_series

Axis = tuple[float, float, float]  # (lo, hi, step)


@dataclass(frozen=True)
class GridSpec:
    """Search lattice: stage1 bounds/step per axis, optional refinement step,
    refinement margin in coarse cells, and the objective's draw budget."""

    stage1: tuple[Axis, Axis] = ((-10.0, 10.0, 2.0), (-10.0, 10.0, 2.0))
    stage2_step: float | None = 0.5
    stage2_margin: int = 1
    stage2_bounds: tuple[tuple[float, float], tuple[float, float]] | None = None
    eval_draws: int = 10

    def __post_init__(self):
        for lo, hi, step in self.stage1:
            if step <= 0:
                raise InputError("grid step must be > 0")
            if lo >= hi:
                raise InputError("grid lower bound must be below upper bound")
        if self.stage2_step is not None and self.stage2_step <= 0:
            raise InputError("stage2_step must be > 0")
        if self.stage2_margin < 0:
            raise InputError("stage2_margin must be >= 0")
        if self.eval_draws < 2:
            raise InputError("eval_draws must be >= 2 for a CRPS objective")


def _lattice(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)


def _point_key(a1: float, a2: float) -> tuple[float, float]:
    return (round(a1, 9), round(a2, 9))


def grid_search(
    spec: GridSpec,
    runner,
    seed: int = 0,
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """Minimize runner(alpha_pair, seed) over the lattice.

    Returns the best (alpha1, alpha2) and the full evaluated surface as
    (alpha1, alpha2, value) triples, each point exactly once.  A runner
    failure (a RuntimeError such as filter degeneracy, or an InputError) is
    recorded as +inf and the search continues; any other exception
    propagates.
    """
    cache: dict[tuple[float, float], float] = {}
    surface: list[tuple[float, float, float]] = []

    def evaluate_batch(points: list[tuple[float, float]]) -> None:
        for p in points:
            if _point_key(*p) in cache:
                continue
            try:
                v = float(runner(np.asarray(p), seed))
            except (RuntimeError, InputError):
                v = np.inf
            cache[_point_key(*p)] = v
            surface.append((p[0], p[1], v))

    (lo1, hi1, st1), (lo2, hi2, st2) = spec.stage1
    stage1_points = [(a1, a2) for a1 in _lattice(lo1, hi1, st1) for a2 in _lattice(lo2, hi2, st2)]
    evaluate_batch(stage1_points)

    def best_of(points):
        keyed = [
            (cache[_point_key(*p)], abs(p[0]) + abs(p[1]), (p[0], p[1])) for p in points
        ]
        return min(keyed)[2]

    incumbent = best_of(stage1_points)

    if spec.stage2_step is not None:
        if spec.stage2_bounds is not None:
            (b1lo, b1hi), (b2lo, b2hi) = spec.stage2_bounds
        else:
            b1lo = max(lo1, incumbent[0] - spec.stage2_margin * st1)
            b1hi = min(hi1, incumbent[0] + spec.stage2_margin * st1)
            b2lo = max(lo2, incumbent[1] - spec.stage2_margin * st2)
            b2hi = min(hi2, incumbent[1] + spec.stage2_margin * st2)
        stage2_points = [
            (a1, a2)
            for a1 in _lattice(b1lo, b1hi, spec.stage2_step)
            for a2 in _lattice(b2lo, b2hi, spec.stage2_step)
        ]
        evaluate_batch(stage2_points)

    all_points = [(a1, a2) for a1, a2, _ in surface]
    best = best_of(all_points)
    return np.asarray(best), surface


def make_crps_runner(
    obs: ObservationSeries,
    panel: PredictorPanel,
    cfg: NoiseConfig | None = None,
    horizon: int = 1,
    n_particles: int = 250,
    kappa: float = 0.5,
    eval_draws: int = 10,
    x0_spread: float = 0.0,
    eval_window: tuple[int, int] | None = None,
    variable: int | None = None,
    sigma_x: float = 0.25,
    sigma_alpha: float = 0.05,
):
    """Objective factory: a reduced-cost diversity-driven filter run scored by
    mean CRPS over the evaluation window (one variable, or the average)."""

    def runner(alpha_pair: np.ndarray, seed: int) -> float:
        a1, a2 = float(alpha_pair[0]), float(alpha_pair[1])
        out = run_filter(
            obs,
            panel,
            DTVW,
            cfg=cfg,
            horizon=horizon,
            n_particles=n_particles,
            kappa=kappa,
            seed=seed,
            alpha0=(0.0, a1, a2),
            x0_spread=x0_spread,
            n_pred_draws=eval_draws,
            sigma_x=sigma_x,
            sigma_alpha=sigma_alpha,
        )
        fs = out.forecasts
        mask = np.ones(len(fs.targets), dtype=bool)
        if eval_window is not None:
            mask = (fs.targets >= eval_window[0]) & (fs.targets <= eval_window[1])
        y = obs.values[fs.targets[mask] - 1]
        cols = range(obs.n_vars) if variable is None else [variable]
        per_var = [crps_series(fs.draws[mask][:, :, l], y[:, l]).mean() for l in cols]
        return float(np.mean(per_var))

    return runner
