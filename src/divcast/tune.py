"""Grid search for the diversity-driven filter's coefficient initialization
(alpha1_0, alpha2_0), with alpha0_0 pinned at zero: alpha0 drives no weight
(see latent), so its value cannot change the objective.

Supports a one-stage fine grid and a two-stage coarse-then-fine strategy:
stage two refines a rectangle of coarse cells around the stage-one incumbent.
Every grid point is evaluated with the same seed (common random numbers) so
the surface is comparable across points; the reported optimum is the global
minimum over all evaluated points with deterministic tie-breaking (smaller
L1 norm first, then lexicographic).

The CRPS objective advances the lattice points in blocks, one particle
cloud per point stacked along a leading axis, so the per-step interpreter
overhead is paid once per block rather than once per point.  Every block
draws from its own substream(seed, "filter"), the stream a run of one point
alone draws from, and the filter's draws do not depend on the data (see
filtering), so every point gets exactly the numbers that run would: the
surface does not depend on the block size.

Each stage's new points are split into one contiguous chunk per CPU the
process may run on (see _cpus), and never more chunks than points.  The
first chunk runs in this process and every other one in a forked child, at
the same time (see _map_forked); each chunk is cut into blocks as above.
For the same reason, the surface does not depend on the number of workers
either.  The same two helpers spread `run`'s horizons (experiment) and the
rows of a long table (dataio.write_long) over the CPUs.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .core import InputError, NoiseConfig, ObservationSeries, PredictorPanel, default_sigma_obs
from .filtering import ParticleFilter
from .latent import DTVW
from .metrics import _eval_mask, crps_series
from .rng import substream

Axis = tuple[float, float, float]  # (lo, hi, step)

# Points x particles x latent entries advanced as one block; each worker cuts
# its own chunk of a stage's points into blocks of this size.  Bigger blocks
# run faster, as their points share more of the random draws and pay the
# per-step overhead once, but hold more memory: a block's filter state and
# its scratch hold two (points, particles, K*L) arrays and two (points,
# particles, 3) arrays (see filtering).
# On the nonlinear design (T = 100, 250 particles, K*L = 6, 193 points;
# perfbench's grid_nonlinear, median of 10 alternating pairs against the
# allocating step at 24,000 elements; 2-vCPU Xeon, numpy 2.4):
#
#   elements  points  op seconds     peak RSS MB
#     48,000      32  2.28 -> 1.76   40.18 -> 38.64 (-3.8%)
#     72,000      48  1.10 -> 0.82   40.18 -> 39.54 (-1.6%)
#     96,000      64  0.99 -> 0.74   40.20 -> 40.42 (+0.5%)
#
# (The shared machine ran faster during the later sizes' pairs, so only the
# seconds within a row compare.)  Blocks hold 64 points, the largest size
# measured whose peak RSS stayed within 2.5% of the allocating step's (the
# benchmark bounds it at 5%).  These sizes were measured with one process
# scoring every point.  Two workers split the 121 and 72 new points of the
# two stages into chunks of 61 + 60 and 36 + 36 points, so every chunk now
# fits in one block, and each process holds at most one block's state.
BLOCK_ELEMENTS = 96_000

# The most lattice points one stage may hold, far above any useful grid: a
# larger stage fails validation, before any data is read, rather than
# failing to allocate its lattice after the data is loaded.
MAX_STAGE_POINTS = 10**6

# The most particles one filter run may hold, far above any useful count: a
# run or a search with more fails validation before any data is read, rather
# than failing to allocate its particle cloud after the data is loaded.
MAX_PARTICLES = 10**6


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
        for key in ("stage1", "stage2_step", "stage2_bounds"):
            value = getattr(self, key)
            if value is not None and not np.all(np.isfinite(value)):
                raise InputError(f"{key} must be finite")
        if self.stage2_margin < 0:
            raise InputError("stage2_margin must be >= 0")
        for lo, hi, step in self.stage1:
            if step <= 0:
                raise InputError("grid step must be > 0")
            if lo >= hi:
                raise InputError("grid lower bound must be below upper bound")
        _check_points("stage1", [_count(*axis) for axis in self.stage1])
        if self.stage2_step is not None:
            if self.stage2_step <= 0:
                raise InputError("stage2_step must be > 0")
            if self.stage2_bounds is not None:
                key, spans = "stage2_bounds", [hi - lo for lo, hi in self.stage2_bounds]
            else:  # at most stage2_margin coarse cells on each side of the incumbent
                key = "stage2_step"
                spans = [min(hi - lo, 2 * self.stage2_margin * step) for lo, hi, step in self.stage1]
            _check_points(key, [_count(0.0, span, self.stage2_step) for span in spans])
        if self.eval_draws < 2:
            raise InputError("eval_draws must be >= 2 for a CRPS objective")
        if self.grid_particles is not None and not 1 <= self.grid_particles <= MAX_PARTICLES:
            raise InputError(f"grid_particles must lie in 1..{MAX_PARTICLES:,}")


def _count(lo: float, hi: float, step: float) -> float:
    return np.floor((hi - lo) / step + 1e-9) + 1


def _check_points(key: str, counts: list[float]) -> None:
    counts = np.maximum(counts, 0.0)  # a reversed axis holds no points
    if counts.max() > MAX_STAGE_POINTS or counts.prod() > MAX_STAGE_POINTS:
        raise InputError(f"{key} gives more than {MAX_STAGE_POINTS:,} grid points in one stage")


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    return (lo + step * np.arange(int(_count(lo, hi, step)))).tolist()


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
        mask = _eval_mask(fs.targets, eval_window)
        y = obs.values[fs.targets[mask] - 1]
        per_var = [crps_series(fs.draws[mask][:, :, l], y[:, l]).mean() for l in cols]
        return float(np.mean(per_var))

    def run_points(points: np.ndarray, seed: int) -> list[float]:
        alpha0 = np.column_stack([np.zeros(len(points)), points])
        try:
            outs = pf.run_block(
                obs, n_particles, alpha0, substream(seed, "filter"), x0_spread=x0_spread, summaries=False, bands=False
            )
        except (RuntimeError, InputError):
            if len(points) == 1:
                return [np.inf]
            # Rerun the points one at a time, so only the failing ones score inf.
            return [v for p in points for v in run_points(p[None], seed)]
        return [score(out.forecasts) for out in outs]

    def runner(points: np.ndarray, seed: int) -> np.ndarray:
        def run_chunk(chunk: np.ndarray) -> list[float]:
            return [v for i in range(0, len(chunk), block) for v in run_points(chunk[i : i + block], seed)]

        points = np.asarray(points, dtype=float).reshape(-1, 2)
        chunks = np.array_split(points, max(1, min(_cpus(), len(points))))
        return np.asarray(_map_forked(run_chunk, chunks))

    return runner


def _cpus() -> int:
    """The number of CPUs this process may run on: one worker each.  Callers
    look it up on this module at call time, so patching it here sets the
    worker count of all of them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _map_forked(fn, chunks: list) -> list:
    """fn(chunk) for every chunk, concatenated in chunk order: the first chunk
    in this process, every other one in a forked child at the same time.

    A child pipes back its list or its exception as a pickle and leaves by
    os._exit, so it flushes no stdio buffer it shares with this process.  A
    child's exception is re-raised here unchanged; a child that exits without
    a result raises ChildProcessError.  Every child is killed and reaped
    before this returns or raises.
    """
    children: dict[int, object] = {}  # pid -> read end of its pipe
    try:
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: never returns into the caller
                code = 1
                try:
                    os.close(read_fd)
                    try:
                        payload = pickle.dumps((fn(chunk), None))
                    except BaseException as exc:
                        payload = pickle.dumps((None, exc))
                    with os.fdopen(write_fd, "wb") as fh:
                        fh.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        values = list(fn(chunks[0]))
        for pid, fh in list(children.items()):
            with fh:
                payload = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0:
                code = os.waitstatus_to_exitcode(status)  # -N: killed by signal N
                raise ChildProcessError(f"worker {pid} exited with code {code} without a result")
            result, exc = pickle.loads(payload)
            if exc is not None:
                raise exc
            values.extend(result)
        return values
    finally:
        for pid, fh in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
