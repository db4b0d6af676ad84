"""Grid search for the diversity-driven filter's coefficient initialization
(alpha1_0, alpha2_0).  The runner gives the filter alpha0 = 0, which drives
no weight (see latent), so its value cannot change the objective.

Supports a one-stage fine grid and a two-stage coarse-then-fine strategy:
stage two refines a rectangle (_stage2_axes: stage2_bounds, or coarse cells
around the stage-one incumbent).  Every grid point is evaluated with the same
seed (common random numbers) so the surface is comparable across points; one
dict of the evaluated points, in evaluation order, is the cache, the returned
surface and the source of the optimum: the global minimum with deterministic
tie-breaking (smaller L1 norm first, then lexicographic).

The CRPS objective advances the lattice points in blocks, the particle
clouds of the points stacked along a point axis, so the per-step interpreter
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
either.  The same two helpers spread `run`'s horizons over the CPUs
(experiment.run_experiment).
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .core import InputError, NoiseConfig, ObservationSeries, PredictorPanel, default_sigma_obs
from .filtering import ParticleFilter
from .latent import DTVW
# The filter scores its own draws, so nothing here calls crps_series; the
# benchmark's tracer (perfbench/tracer.py) still wraps it as tune.crps_series.
from .metrics import _eval_slice, crps_series  # noqa: F401
from .rng import substream

Axis = tuple[float, float, float]  # (lo, hi, step)

# Points x particles x latent entries advanced as one block; each worker cuts
# its own chunk of a stage's points into blocks of this size.  Bigger blocks
# run faster, as their points share more of the random draws and pay the
# per-step overhead once, but hold more memory: a block's filter state and
# its scratch hold two (K*L, points, particles) arrays and two (2, points,
# particles) arrays, stored entry-major (see latent), so each step's
# elementwise loops run over whole (points, particles) slabs.  Its outputs
# keep each point's (T, L) CRPS and not its (T, draws, L) predictive draws,
# which every step scores and drops (see filtering), so the draw count adds
# one step's draws to a block and nothing that grows with T.
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
# The sizes were measured while the cloud was stored (points, particles, K*L);
# storing it entry-major kept a block's memory and cut its time.
BLOCK_ELEMENTS = 96_000

# The most lattice points one stage may hold, far above any useful grid: a
# larger stage fails validation, before any data is read, rather than
# failing to allocate its lattice after the data is loaded.
MAX_STAGE_POINTS = 10**6

# The most particles one filter run may hold, far above any useful count: a
# run or a search with more fails validation before any data is read, rather
# than failing to allocate its particle cloud after the data is loaded.
MAX_PARTICLES = 10**6

# The most predictive draws one forecast may take, for the same reason: a run
# or a search asking for more fails validation before any data is read.
MAX_DRAWS = 10**6


@dataclass(frozen=True)
class GridSpec:
    """Search lattice: stage1 bounds/step per axis, optional refinement step,
    refinement margin in coarse cells or bounds (lo <= hi), and the objective's
    draw budget, particle count (None: a quarter of the run's) and scored
    variable (None: the average over all).  No stage may hold more than
    MAX_STAGE_POINTS points; stage two's are counted at a mid-axis incumbent,
    whose rectangle is the largest."""

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
        if self.stage2_bounds is not None and any(lo > hi for lo, hi in self.stage2_bounds):
            raise InputError("stage2_bounds must give lo <= hi on each axis")
        if self.stage2_bounds is not None and self.stage2_step is None:
            raise InputError("stage2_bounds needs a stage2_step; with stage2_step = none there is no stage two")
        for lo, hi, step in self.stage1:
            if step <= 0:
                raise InputError("grid step must be > 0")
            if lo >= hi:
                raise InputError("grid lower bound must be below upper bound")
        _check_points("stage1", self.stage1)
        if self.stage2_step is not None:
            if self.stage2_step <= 0:
                raise InputError("stage2_step must be > 0")
            mid = [(lo + hi) / 2 for lo, hi, _ in self.stage1]
            _check_points("stage2_step" if self.stage2_bounds is None else "stage2_bounds", _stage2_axes(self, mid))
        if self.eval_draws < 2:
            raise InputError("eval_draws must be >= 2 for a CRPS objective")
        if self.eval_draws > MAX_DRAWS:
            raise InputError(f"eval_draws must be at most {MAX_DRAWS:,}")
        if self.grid_particles is not None and not 1 <= self.grid_particles <= MAX_PARTICLES:
            raise InputError(f"grid_particles must lie in 1..{MAX_PARTICLES:,}")


def _count(lo: float, hi: float, step: float) -> float:
    return np.floor((hi - lo) / step + 1e-9) + 1


def _check_points(key: str, axes: tuple[Axis, Axis]) -> None:
    counts = [_count(*axis) for axis in axes]
    if max(counts) > MAX_STAGE_POINTS or np.prod(counts) > MAX_STAGE_POINTS:
        raise InputError(f"{key} gives more than {MAX_STAGE_POINTS:,} grid points in one stage")


def _stage2_axes(spec: GridSpec, incumbent: tuple[float, float]) -> tuple[Axis, Axis]:
    """Stage two's lattice axes: stage2_bounds when set, otherwise
    stage2_margin coarse cells on each side of the stage-one incumbent,
    clipped to stage one."""
    bounds = spec.stage2_bounds if spec.stage2_bounds is not None else [
        (max(lo, a - spec.stage2_margin * step), min(hi, a + spec.stage2_margin * step))
        for a, (lo, hi, step) in zip(incumbent, spec.stage1)
    ]
    return tuple((lo, hi, spec.stage2_step) for lo, hi in bounds)


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
    surface: dict[tuple[float, float], tuple[float, float, float]] = {}

    def evaluate(axes: tuple[Axis, Axis]) -> tuple[float, float]:
        """Evaluate the lattice's new points; returns the best point so far."""
        points = itertools.product(*(_lattice(*axis) for axis in axes))
        new = list({_point_key(*p): p for p in points if _point_key(*p) not in surface}.values())
        if new:
            values = np.asarray(runner(np.asarray(new), seed), dtype=float)
            if values.shape != (len(new),):
                raise ValueError(f"runner returned {values.shape} values for {len(new)} points")
            for p, v in zip(new, values.tolist()):
                surface[_point_key(*p)] = (p[0], p[1], v)
        return min((v, abs(a1) + abs(a2), (a1, a2)) for a1, a2, v in surface.values())[2]

    best = evaluate(spec.stage1)
    if spec.stage2_step is not None:
        best = evaluate(_stage2_axes(spec, best))
    return np.asarray(best), list(surface.values())


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
    as degeneracy, or an InputError) scores +inf.  The filter scores each
    step's draws itself, so a block keeps (points, T, L) CRPS values and no
    draws."""
    if cfg is None:
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
    pf = ParticleFilter(panel, DTVW, cfg, horizon=horizon, kappa=kappa, n_pred_draws=eval_draws)
    block = max(1, BLOCK_ELEMENTS // (n_particles * panel.n_models * panel.n_vars))
    cols = range(obs.n_vars) if variable is None else [variable]

    def score(fs) -> float:
        crps = fs.crps[_eval_slice(fs.targets, eval_window)]
        return float(np.mean([crps[:, l].mean() for l in cols]))

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
