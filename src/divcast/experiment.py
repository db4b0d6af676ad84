"""Experiment driver: runs one combination method on an observation/panel
pair, scores it against the individual models and a named baseline, and
emits the result files (scores, weight and coefficient trajectories,
cumulative log-score differences, forecasts and predictive draws).  One
table, METRICS, names the scores: the columns and DM cells of every score
row, and the metric rows of a report."""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import shutil
import tempfile

import numpy as np

from . import tune
from .combine import CombinerResult, run_combiner, single_model_result
from .core import (
    ConfigError,
    DataFormatError,
    DegeneracyError,
    ForecastSeries,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    _check_alignment,
    default_sigma_obs,
)
from .dataio import FILTER_METHODS, METHODS, RunConfig, _decoding, _write_rows, read_table, write_table
from .filtering import FilterOutput, ParticleFilter
from .latent import LatentMode
from .metrics import dm_test, loss_series
from .rng import substream
from .tune import GridSpec, grid_search, make_crps_runner


def _noise_config(cfg: RunConfig, obs: ObservationSeries, panel: PredictorPanel) -> NoiseConfig:
    if cfg.sigma_obs is not None:
        sigma = np.atleast_1d(np.asarray(cfg.sigma_obs, dtype=float))
        if sigma.size == 1:
            sigma = np.full(obs.n_vars, sigma[0])
        if sigma.size != obs.n_vars:
            raise ConfigError(f"sigma_obs needs {obs.n_vars} entries, got {sigma.size}")
    else:
        sigma = default_sigma_obs(obs, panel)
    return NoiseConfig(sigma, sigma_x=cfg.sigma_x, sigma_alpha=cfg.sigma_alpha)


def run_method(
    method: str,
    obs: ObservationSeries,
    panel: PredictorPanel,
    cfg: RunConfig,
    horizon: int,
    noise: NoiseConfig,
    rng_role: str = "filter",
    bands: bool = True,
) -> FilterOutput | CombinerResult:
    """Run one combination method at one horizon: a filter run for the
    filter methods, whose steps score their own forecasts, with the weight
    and coefficient bands read from each step's state only if asked; a
    combiner result for the others."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if method in FILTER_METHODS:
        pf = ParticleFilter(
            panel,
            LatentMode(method),
            noise,
            horizon=horizon,
            kappa=cfg.kappa,
            n_pred_draws=cfg.n_pred_draws,
        )
        rng = substream(cfg.seed, rng_role, horizon)
        return pf.run(
            obs,
            cfg.n_particles,
            np.asarray(cfg.alpha0, dtype=float),
            rng,
            x0_spread=cfg.x0_spread,
            bands=bands,
        )
    return run_combiner(
        method,
        obs,
        panel,
        horizon=horizon,
        window=cfg.window,
        fallback_sigma=cfg.fallback_sigma,
        n_pred_draws=cfg.n_pred_draws,
        seed=cfg.seed,
    )


def _eval_window(cfg: RunConfig, horizon: int, T: int) -> tuple[int, int]:
    lo = max(cfg.eval_start or 1, horizon)
    hi = min(cfg.eval_end or T, T)
    if lo > hi:
        raise ConfigError(f"empty evaluation window for horizon {horizon}")
    return lo, hi


FORECAST_COLUMNS = (
    ("target", int),
    ("horizon", int),
    ("variable", str),
    ("point", float),
    ("log_pred", float),
    ("lo95", float),
    ("median", float),
    ("hi95", float),
)
DRAWS_COLUMNS = (("target", int), ("horizon", int), ("variable", str), ("draw", int), ("value", float))
# Each score: its column, its loss_series key and the map from the mean
# loss over the evaluated targets to the score.
METRICS = (("rmsfe", "sq_err", np.sqrt), ("ls", "neg_log_pred", float), ("crps", "crps", float))
SCORE_HEADER = [
    "horizon", "variable", *(name for name, _, _ in METRICS), "n_eval",
    *(f"dm_{name}_{cell}" for name, _, _ in METRICS for cell in ("stat", "p")),
]


def _score_rows(horizon: int, losses: dict, base_losses: dict | None, obs: ObservationSeries) -> list[tuple]:
    """Score rows of one forecast block from its loss_series, in
    SCORE_HEADER's columns: one row per variable, then an unweighted
    `average` row, then a `joint` row (log score only) when there is more
    than one variable and the joint log predictives are finite.

    A per-variable row carries Diebold-Mariano statistics and p-values
    against base_losses for every metric when base_losses is given, at
    least 10 targets are scored and both score the same targets; the
    summary rows leave those cells blank.
    """
    n_eval = len(losses["targets"])
    per_var = [[float(fn(losses[key][:, l].mean())) for _, key, fn in METRICS] for l in range(obs.n_vars)]
    compare = (
        base_losses is not None
        and n_eval >= 10
        and np.array_equal(losses["targets"], base_losses["targets"])
    )
    no_dm = [""] * 2 * len(METRICS)
    rows = []
    for l, (variable, scores) in enumerate(zip(obs.variable_names, per_var)):
        dm_cells = no_dm
        if compare:
            dm_cells = []
            for _, key, _ in METRICS:
                dm = dm_test(losses[key][:, l], base_losses[key][:, l], h=horizon)
                dm_cells += [float(dm.statistic), float(dm.p_value)]
        rows.append((horizon, variable, *map(_nan_blank, scores), n_eval, *dm_cells))
    average = [float(np.mean(column)) for column in zip(*per_var)]
    rows.append((horizon, "average", *map(_nan_blank, average), n_eval, *no_dm))
    if obs.n_vars > 1 and np.all(np.isfinite(losses["neg_log_pred_joint"])):
        joint = [float(losses["neg_log_pred_joint"].mean()) if key == "neg_log_pred" else "" for _, key, _ in METRICS]
        rows.append((horizon, "joint", *joint, n_eval, *no_dm))
    return rows


TABLE_HEADERS = {
    "forecast.csv": [name for name, _ in FORECAST_COLUMNS],
    "cumls.csv": ["target", "horizon", "variable", "cum_ls_diff"],
    "weights.csv": ["t", "model", "variable", "mean", "lo95", "hi95"],
    "draws.csv": [name for name, _ in DRAWS_COLUMNS],
    "alphas.csv": ["t", "param", "mean", "lo95", "hi95"],
}


def _run_horizon(
    cfg: RunConfig,
    obs: ObservationSeries,
    panel: PredictorPanel,
    noise: NoiseConfig,
    baseline: str,
    horizon: int,
    window: tuple[int, int],
    files: dict,
) -> tuple[list[tuple], list[str]]:
    """Everything one horizon contributes to the outputs.  It writes its
    rows of each long table into that table's file in ``files`` and returns
    its score rows and the names of the tables it wrote.  Only the smallest
    configured horizon runs its filter with bands and writes rows of the
    weight and coefficient tables.

    Each forecast block is scored as soon as it is made, and only its
    loss_series is kept.  A baseline method runs, is scored and is dropped
    before the main method runs, so the horizon never holds two methods'
    predictive draws at once; every method draws from its own substream,
    so the order changes no output.  The models' panel forecasts are scored
    after the methods have run."""
    K = panel.n_models
    names = obs.variable_names
    base_runs = []
    if baseline in panel.model_names:
        base = panel.model_names.index(baseline)
    elif baseline == cfg.method:
        base = K
    else:
        base_fs = run_method(baseline, obs, panel, cfg, horizon, noise, rng_role="baseline", bands=False).forecasts
        base_runs.append((baseline, "combiner", loss_series(base_fs, obs, window)))
        del base_fs  # its draws go before the main method's are made
        base = K + 1
    is_lead = horizon == min(cfg.horizons)
    main = run_method(cfg.method, obs, panel, cfg, horizon, noise, bands=is_lead)
    runs = [
        (r.method, "model", loss_series(r.forecasts, obs, window))
        for r in (single_model_result(obs, panel, k, horizon, cfg.fallback_sigma) for k in range(1, K + 1))
    ]
    runs += [(cfg.method, "combiner", loss_series(main.forecasts, obs, window)), *base_runs]

    base_name, _, base_losses = runs[base]
    scores = [
        (name, kind, *row, base_name)
        for name, kind, run_losses in runs
        for row in _score_rows(horizon, run_losses, None if name == base_name else base_losses, obs)
    ]

    # Forecasts, predictive-draw quantiles and draws cover all targets;
    # the evaluation window only restricts scoring.  The quantiles are
    # taken one variable at a time, so the draws block is not copied whole.
    fs = main.forecasts
    targets = fs.targets.tolist()
    q = np.stack([np.percentile(fs.draws[:, :, l], [2.5, 50.0, 97.5], axis=1) for l in range(obs.n_vars)], axis=-1)
    tables = {"forecast.csv": [([targets, [horizon], names], fs.point, fs.log_pred_marginal, *q)]}
    if cfg.emit_draws:
        draw_ids = range(1, fs.draws.shape[1] + 1)
        tables["draws.csv"] = [([targets, [horizon], names, draw_ids], fs.draws.transpose(0, 2, 1))]

    # Cumulative log-score differences vs the baseline over the window.
    main_l = runs[K][2]
    targets_w = main_l["targets"].tolist()
    diff_m = -(main_l["neg_log_pred"] - base_losses["neg_log_pred"])  # (S, L)
    tables["cumls.csv"] = [([targets_w, [horizon], names], np.cumsum(diff_m, axis=0))]
    if obs.n_vars > 1:
        diff_j = -(main_l["neg_log_pred_joint"] - base_losses["neg_log_pred_joint"])
        tables["cumls.csv"].append(([targets_w, [horizon], ["joint"]], np.cumsum(diff_j)))

    if is_lead:
        # Weight / coefficient trajectories; a combiner's weights are their own band.
        times = range(1, obs.n_steps + 1)
        if isinstance(main, FilterOutput):
            bands = (main.weights_mean, main.weights_lo, main.weights_hi)
            alphas = ([times, ("alpha0", "alpha1", "alpha2")], main.alpha_mean, main.alpha_lo, main.alpha_hi)
            tables["alphas.csv"] = [alphas]
        else:
            bands = (main.weights,) * 3
        tables["weights.csv"] = [([times, panel.model_names, names], *bands)]
    for name, blocks in tables.items():
        _write_rows(files[name], blocks)
    return scores, list(tables)


def run_experiment(cfg: RunConfig, obs: ObservationSeries, panel: PredictorPanel) -> dict:
    """Execute the configured experiment and write all output files after
    the last horizon, so a run that fails in a horizon writes none.

    The horizons are split into one contiguous chunk per CPU (tune._cpus),
    and never more chunks than horizons; the first chunk runs in this
    process and every other one in a forked worker, at the same time
    (tune._map_forked).  Each chunk writes its rows of every long table into
    an anonymous temporary file of its own in out_dir, opened here before
    the chunks start; a chunk returns only its score rows and the names of
    the tables it wrote.  Every horizon draws from its own substreams, and
    each table is its header followed by the chunks' files in order, so the
    outputs do not depend on the number of workers.  A horizon's exception
    is raised here unchanged; the first horizon's in order wins.

    Returns the mapping of logical output names to written paths.
    """
    _check_alignment(obs, panel)
    if max(cfg.horizons) > panel.n_horizons:
        raise ConfigError(
            f"configured horizon {max(cfg.horizons)} exceeds panel horizons {panel.n_horizons}"
        )
    if panel.n_draws < 2:
        raise InputError("the panel holds a single draw per cell; scoring each model's CRPS needs at least two")
    noise = _noise_config(cfg, obs, panel)
    baseline = cfg.baseline or panel.model_names[0]
    if baseline not in panel.model_names and baseline not in METHODS:
        raise ConfigError(f"baseline {baseline!r} is neither a panel model nor a method")
    windows = [_eval_window(cfg, horizon, obs.n_steps) for horizon in cfg.horizons]

    os.makedirs(cfg.out_dir, exist_ok=True)
    chunks = np.array_split(np.arange(len(cfg.horizons)), min(tune._cpus(), len(cfg.horizons)))
    with contextlib.ExitStack() as stack:  # closes every chunk's files
        temporary = functools.partial(tempfile.TemporaryFile, "w+", newline="", encoding="utf-8", dir=cfg.out_dir)
        files = [{name: stack.enter_context(temporary()) for name in TABLE_HEADERS} for _ in chunks]

        def run_chunk(job: tuple) -> list[tuple]:
            chunk, out = job
            return [_run_horizon(cfg, obs, panel, noise, baseline, cfg.horizons[i], windows[i], out) for i in chunk]

        scores: list[tuple] = []
        written: set[str] = set()
        for rows, names in tune._map_forked(run_chunk, list(zip(chunks, files))):
            scores += rows
            written.update(names)

        paths = {"scores.csv": os.path.join(cfg.out_dir, "scores.csv")}
        write_table(paths["scores.csv"], ["method", "kind", *SCORE_HEADER, "baseline"], scores)
        for name, header in TABLE_HEADERS.items():
            if name not in written:
                continue
            paths[name] = os.path.join(cfg.out_dir, name)
            with open(paths[name], "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(header)
                fh.flush()
                for part in (out[name] for out in files):
                    part.seek(0)
                    shutil.copyfileobj(part.buffer, fh.buffer)
        return paths


def _nan_blank(x: float):
    return "" if x != x else float(x)


def run_grid_search(
    cfg: RunConfig,
    grid: GridSpec,
    obs: ObservationSeries,
    panel: PredictorPanel,
) -> tuple[np.ndarray, list]:
    """Two-stage (or one-stage) initialization search minimizing CRPS.  A
    search in which every point failed (scored inf) has no best point and
    raises DegeneracyError."""
    _check_alignment(obs, panel)
    noise = _noise_config(cfg, obs, panel)
    horizon = min(cfg.horizons)
    window = _eval_window(cfg, horizon, obs.n_steps)
    variable = None
    if grid.variable is not None:
        if grid.variable not in obs.variable_names:
            raise ConfigError(f"unknown variable {grid.variable!r}")
        variable = obs.variable_names.index(grid.variable)
    runner = make_crps_runner(
        obs,
        panel,
        cfg=noise,
        horizon=horizon,
        n_particles=grid.grid_particles or max(1, cfg.n_particles // 4),
        kappa=cfg.kappa,
        eval_draws=grid.eval_draws,
        x0_spread=cfg.x0_spread,
        eval_window=window,
        variable=variable,
    )
    best, surface = grid_search(grid, runner, seed=cfg.seed)
    if all(v == np.inf for _, _, v in surface):
        raise DegeneracyError(f"all {len(surface)} grid points failed, so the search has no best point")
    return best, surface


def _load_forecast_dir(directory: str, obs: ObservationSeries) -> dict[int, ForecastSeries]:
    """Rebuild per-horizon forecast blocks from an emitted run directory.

    Joint log predictives are not recoverable from the per-variable files,
    so file-based scoring reports marginal log scores only.
    """
    forecast_path = os.path.join(directory, "forecast.csv")
    draws_path = os.path.join(directory, "draws.csv")
    (_, _, f_names), f_values, f_seen = read_table(forecast_path, FORECAST_COLUMNS, finite=False)
    (_, _, d_names, _), d_values, d_seen = read_table(draws_path, DRAWS_COLUMNS, finite=False)
    f_cols = _variable_columns(f_names, obs, forecast_path)
    d_cols = _variable_columns(d_names, obs, draws_path)
    f_values, f_seen = f_values[:, :, f_cols], f_seen[:, :, f_cols]
    d_values, d_seen = d_values[:, :, d_cols], d_seen[:, :, d_cols]
    if d_seen.shape[:2] != f_seen.shape[:2]:
        raise DataFormatError(f"{draws_path}: targets or horizons differ from {forecast_path}")
    if len(f_seen) > obs.n_steps:
        raise DataFormatError(f"{forecast_path}: target {len(f_seen)} lies past the last observation, {obs.n_steps}")
    out: dict[int, ForecastSeries] = {}
    for h in (np.flatnonzero(f_seen.any(axis=(0, 2))) + 1).tolist():
        rows = np.flatnonzero(f_seen[:, h - 1].any(axis=1))
        if not (f_seen[rows, h - 1].all() and d_seen[rows, h - 1].all()):
            raise DataFormatError(f"{directory}: incomplete forecasts or draws at horizon {h}")
        out[h] = ForecastSeries(
            horizon=h,
            targets=rows + 1,
            point=f_values[rows, h - 1, :, 0],
            log_pred=np.full(len(rows), np.nan),
            log_pred_marginal=f_values[rows, h - 1, :, 1],
            draws=d_values[rows, h - 1, :, :, 0].transpose(0, 2, 1),
        )
    return out


def _variable_columns(names: list[str], obs: ObservationSeries, path: str) -> list[int]:
    missing = [v for v in obs.variable_names if v not in names]
    if missing:
        raise DataFormatError(f"{path}: no rows for variables {missing}")
    return [names.index(v) for v in obs.variable_names]


def score_runs(obs: ObservationSeries, named_dirs: list[tuple[str, str]]) -> tuple[list[str], list[tuple]]:
    """Score emitted forecast directories against observations, with DM
    comparisons of every run to the first-listed one."""
    losses = [
        (name, {h: loss_series(fs, obs) for h, fs in _load_forecast_dir(directory, obs).items()})
        for name, directory in named_dirs
    ]
    base_name, base_losses = losses[0]
    rows: list[tuple] = []
    for name, by_horizon in losses:
        for h, run_losses in sorted(by_horizon.items()):
            for row in _score_rows(h, run_losses, None if name == base_name else base_losses.get(h), obs):
                rows.append((name, *row, base_name))
    return ["method", *SCORE_HEADER, "baseline"], rows


REPORT_COLUMNS = ("method", "horizon", "variable", *(name for name, _, _ in METRICS))


def build_report(score_files: list[str]) -> tuple[list[str], list[list]]:
    """Merge score files into one comparison table: rows are
    (horizon, variable, metric), columns are methods with individual models
    on the left and combiners on the right.  A method's cell may repeat
    across rows and files, as every run repeats the model rows, but a
    repeat that differs raises DataFormatError naming both files."""
    entries: dict[tuple, dict] = {}
    model_order: list[str] = []
    combiner_order: list[str] = []
    for path in score_files:
        with _decoding(path, DataFormatError), open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in REPORT_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataFormatError(f"{path}: score header lacks {','.join(missing)}")
            for row in reader:
                method = row["method"]
                kind = row.get("kind", "combiner")
                order = model_order if kind == "model" else combiner_order
                if method not in order:
                    order.append(method)
                try:
                    horizon = int(row["horizon"])
                except (TypeError, ValueError):
                    raise DataFormatError(f"{path}:{reader.line_num}: non-integer horizon {row['horizon']!r}") from None
                for metric in REPORT_COLUMNS[3:]:
                    cells = entries.setdefault((horizon, row["variable"], metric), {})
                    if row[metric] == "":
                        continue
                    value, first = cells.setdefault(method, (row[metric], path))
                    if value != row[metric]:
                        raise DataFormatError(
                            f"{method} {metric} at horizon {horizon}, variable {row['variable']!r}"
                            f" is {value} in {first} but {row[metric]} in {path}"
                        )
    combiners = [m for m in METHODS if m in combiner_order]
    combiners += [m for m in combiner_order if m not in combiners]
    methods = model_order + combiners
    header = ["horizon", "variable", "metric"] + methods
    rows = []
    for key in sorted(entries, key=lambda k: (k[0], k[1], REPORT_COLUMNS.index(k[2]))):
        horizon, variable, metric = key
        rows.append([horizon, variable, metric] + [entries[key].get(m, ("",))[0] for m in methods])
    return header, rows
