"""Grid search for the diversity-driven filter's coefficient initialization
(alpha1_0, alpha2_0), with alpha0_0 pinned at zero.

Supports a one-stage fine grid and a two-stage coarse-then-fine strategy:
stage two refines a rectangle of coarse cells around the stage-one incumbent.
Every grid point is evaluated with the same seed (common random numbers) so
the surface is comparable across points; the reported optimum is the global
minimum over all evaluated points with deterministic tie-breaking (smaller
L1 norm first, then lexicographic).

The CRPS objective advances the lattice points in blocks, one particle
cloud per point stacked along a leading axis, so the per-step interpreter
overhead is paid once per block rather than once per point.  Each point
keeps its own random stream, the same one for every point, and draws from
it exactly what a run of that point alone would: the surface does not
depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, NoiseConfig, ObservationSeries, PredictorPanel, default_sigma_obs
from .filtering import ParticleFilter
from .latent import DTVW
from .metrics import crps_series
from .rng import substream

Axis = tuple[float, float, float]  # (lo, hi, step)

# Points x particles x latent entries advanced as one block.  Bigger blocks
# run faster but hold more memory.  On the nonlinear design (T = 100, 250
# particles, K*L = 6, 193 points; median of 7 searches in one process each,
# 2-vCPU Xeon, numpy 2.4) 8-point blocks took 2.3 s at 39 MB peak RSS,
# 32-point blocks 1.7 s at 42 MB and 133-point blocks 1.8 s at 50 MB.  Blocks
# stay at 8 points because the benchmark bounds peak RSS at 5% above its
# baseline.
BLOCK_ELEMENTS = 12_000


@dataclass(frozen=True)
class GridSpec:
    """Search lattice: stage1 bounds/step per axis, optional refinement step,
    refinement margin in coarse cells, and the objective's draw budget,
    particle count (None: a quarter of the run's) and scored variable (None:
    the average over all)."""

    stage1: tuple[Axis, Axis] = ((-10.0, 10.0, 2.0), (-10.0, 10.0, 2.0))
    stage2_step: float | None = 0.5
    stage2_margin: int = 1
    stage2_bounds: tuple[tuple[float, float], tuple[float, float]] | None = None
    eval_draws: int = 10
    grid_particles: int | None = None
    variable: str | None = None

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
        if self.grid_particles is not None and self.grid_particles < 1:
            raise InputError("grid_particles must be >= 1")


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return (lo + step * np.arange(n)).tolist()


def _point_key(a1: float, a2: float) -> tuple[float, float]:
    return (round(a1, 9), round(a2, 9))


def grid_search(
    spec: GridSpec,
    runner,
    seed: int = 0,
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """Minimize the objective over the lattice.

    runner(points, seed) takes a (P, 2) array of (alpha1, alpha2) points and
    returns one value per point; each stage passes its not yet evaluated
    points in lattice order, in one call.  Returns the best (alpha1, alpha2)
    and the full evaluated surface as (alpha1, alpha2, value) triples, each
    point exactly once.  A failed point is the runner's to report (the CRPS
    runner scores it +inf); any exception the runner raises propagates.
    """
    cache: dict[tuple[float, float], float] = {}
    surface: list[tuple[float, float, float]] = []

    def evaluate_batch(points: list[tuple[float, float]]) -> None:
        new = list({_point_key(*p): p for p in points if _point_key(*p) not in cache}.values())
        if not new:
            return
        values = np.asarray(runner(np.asarray(new), seed), dtype=float)
        if values.shape != (len(new),):
            raise ValueError(f"runner returned {values.shape} values for {len(new)} points")
        for p, v in zip(new, values.tolist()):
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
):
    """Objective factory: a reduced-cost diversity-driven filter run per
    point, scored by mean CRPS over the evaluation window (one variable, or
    the average).  A point whose filter run fails alone (a RuntimeError such
    as degeneracy, or an InputError) scores +inf."""
    if cfg is None:
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
    pf = ParticleFilter(panel, DTVW, cfg, horizon=horizon, kappa=kappa, n_pred_draws=eval_draws)
    block = max(1, BLOCK_ELEMENTS // (n_particles * panel.n_models * panel.n_vars))
    cols = range(obs.n_vars) if variable is None else [variable]

    def score(fs) -> float:
        mask = np.ones(len(fs.targets), dtype=bool)
        if eval_window is not None:
            mask = (fs.targets >= eval_window[0]) & (fs.targets <= eval_window[1])
        y = obs.values[fs.targets[mask] - 1]
        per_var = [crps_series(fs.draws[mask][:, :, l], y[:, l]).mean() for l in cols]
        return float(np.mean(per_var))

    def run_points(points: np.ndarray, seed: int) -> list[float]:
        alpha0 = np.column_stack([np.zeros(len(points)), points])
        rngs = [substream(seed, "filter") for _ in points]
        try:
            outs = pf.run_block(obs, n_particles, alpha0, rngs, x0_spread=x0_spread, summaries=False, bands=False)
        except (RuntimeError, InputError):
            if len(points) == 1:
                return [np.inf]
            # Rerun the points one at a time, so only the failing ones score inf.
            return [v for p in points for v in run_points(p[None], seed)]
        return [score(out.forecasts) for out in outs]

    def runner(points: np.ndarray, seed: int) -> np.ndarray:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        values = [v for i in range(0, len(points), block) for v in run_points(points[i : i + block], seed)]
        return np.asarray(values)

    return runner
