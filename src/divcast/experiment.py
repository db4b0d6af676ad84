"""Experiment driver: runs one combination method on an observation/panel
pair, scores it against the individual models and a named baseline, and
emits the result files (scores, weight and coefficient trajectories,
cumulative log-score differences, forecasts and predictive draws)."""

from __future__ import annotations

import os

import numpy as np

from . import tune
from .combine import CombinerResult, run_combiner, single_model_result
from .core import (
    ConfigError,
    DataFormatError,
    ForecastSeries,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    default_sigma_obs,
)
from .dataio import FILTER_METHODS, METHODS, RunConfig, read_table, write_long, write_table
from .filtering import FilterOutput, ParticleFilter
from .latent import LatentMode
from .metrics import dm_test, loss_series, score_forecasts
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
    filter methods, with weight and coefficient bands only if asked, a
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


def _check_alignment(obs: ObservationSeries, panel: PredictorPanel) -> None:
    if panel.n_vars != obs.n_vars:
        raise InputError(
            f"panel has {panel.n_vars} variables, observations have {obs.n_vars}"
        )
    if panel.variable_names is not None and panel.variable_names != obs.variable_names:
        raise InputError(
            f"panel variables {panel.variable_names} do not match "
            f"observations {obs.variable_names}"
        )
    if panel.n_steps < obs.n_steps:
        raise InputError("panel does not cover the observation range")


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
SCORE_HEADER = [
    "horizon", "variable", "rmsfe", "ls", "crps", "n_eval",
    "dm_rmsfe_stat", "dm_rmsfe_p", "dm_ls_stat", "dm_ls_p", "dm_crps_stat", "dm_crps_p",
]


def _score_rows(
    name: str,
    horizon: int,
    losses: dict,
    base_name: str,
    base_losses: dict | None,
    obs: ObservationSeries,
) -> list[tuple]:
    """Score rows of one forecast block from its loss_series, in
    SCORE_HEADER's columns.

    A per-variable row carries Diebold-Mariano statistics and p-values
    against the baseline's losses for squared error, log score and CRPS when
    the method is not the baseline, at least 10 targets are scored and both
    score the same targets; other rows leave the six cells blank.
    """
    rows = []
    for row in score_forecasts(name, horizon, losses, obs.variable_names):
        dm_cells: list = [""] * 6
        if (
            name != base_name
            and base_losses is not None
            and row.variable in obs.variable_names
            and row.n_eval >= 10
            and np.array_equal(losses["targets"], base_losses["targets"])
        ):
            l = obs.variable_names.index(row.variable)
            dm_cells = []
            for key in ("sq_err", "neg_log_pred", "crps"):
                dm = dm_test(losses[key][:, l], base_losses[key][:, l], h=horizon)
                dm_cells += [float(dm.statistic), float(dm.p_value)]
        rows.append(
            (
                row.horizon,
                row.variable,
                _nan_blank(row.rmsfe),
                _nan_blank(row.ls),
                _nan_blank(row.crps),
                row.n_eval,
                *dm_cells,
            )
        )
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
) -> tuple[list[tuple], dict[str, list[tuple]]]:
    """Everything one horizon contributes to the outputs: its score rows and
    its write_long blocks by table name.  Only the smallest configured
    horizon runs its filter with bands and gives the weight and coefficient
    tables their one block each."""
    K = panel.n_models
    names = obs.variable_names
    runs = [
        (r.method, "model", r.forecasts)
        for r in (single_model_result(obs, panel, k, horizon, cfg.fallback_sigma) for k in range(1, K + 1))
    ]
    is_lead = horizon == min(cfg.horizons)
    main = run_method(cfg.method, obs, panel, cfg, horizon, noise, bands=is_lead)
    runs.append((cfg.method, "combiner", main.forecasts))
    if baseline in panel.model_names:
        base = panel.model_names.index(baseline)
    elif baseline == cfg.method:
        base = K
    else:
        base_fs = run_method(
            baseline, obs, panel, cfg, horizon, noise, rng_role="baseline", bands=False
        ).forecasts
        runs.append((baseline, "combiner", base_fs))
        base = K + 1

    losses = [loss_series(fs, obs, window) for _, _, fs in runs]
    base_name, base_losses = runs[base][0], losses[base]
    scores = [
        (name, kind, *row, base_name)
        for (name, kind, _), run_losses in zip(runs, losses)
        for row in _score_rows(name, horizon, run_losses, base_name, base_losses, obs)
    ]

    # Forecasts, predictive-draw quantiles and draws cover all targets;
    # the evaluation window only restricts scoring.
    fs = main.forecasts
    targets = fs.targets.tolist()
    q = np.percentile(fs.draws, [2.5, 50.0, 97.5], axis=1)  # (3, S, L)
    tables = {"forecast.csv": [([targets, [horizon], names], fs.point, fs.log_pred_marginal, *q)]}
    if cfg.emit_draws:
        draw_ids = range(1, fs.draws.shape[1] + 1)
        tables["draws.csv"] = [([targets, [horizon], names, draw_ids], fs.draws.transpose(0, 2, 1))]

    # Cumulative log-score differences vs the baseline over the window.
    main_l = losses[K]
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
    return scores, tables


def run_experiment(cfg: RunConfig, obs: ObservationSeries, panel: PredictorPanel) -> dict:
    """Execute the configured experiment and write all output files after
    the last horizon, so a run that fails in a horizon writes none.

    The horizons are split into one contiguous chunk per CPU (tune._cpus),
    and never more chunks than horizons; the first chunk runs in this
    process and every other one in a forked worker, at the same time
    (tune._map_forked).  Every horizon draws from its own substreams, and
    the results are joined in the configured horizon order, so the outputs
    do not depend on the number of workers.  A horizon's exception is
    raised here unchanged; the first horizon's in order wins.

    Returns the mapping of logical output names to written paths.
    """
    _check_alignment(obs, panel)
    if max(cfg.horizons) > panel.n_horizons:
        raise ConfigError(
            f"configured horizon {max(cfg.horizons)} exceeds panel horizons {panel.n_horizons}"
        )
    noise = _noise_config(cfg, obs, panel)
    baseline = cfg.baseline or panel.model_names[0]
    if baseline not in panel.model_names and baseline not in METHODS:
        raise ConfigError(f"baseline {baseline!r} is neither a panel model nor a method")
    windows = [_eval_window(cfg, horizon, obs.n_steps) for horizon in cfg.horizons]

    os.makedirs(cfg.out_dir, exist_ok=True)

    def run_chunk(chunk: np.ndarray) -> list[tuple]:
        return [_run_horizon(cfg, obs, panel, noise, baseline, cfg.horizons[i], windows[i]) for i in chunk]

    chunks = np.array_split(np.arange(len(cfg.horizons)), min(tune._cpus(), len(cfg.horizons)))
    scores: list[tuple] = []
    tables: dict[str, list[tuple]] = {name: [] for name in TABLE_HEADERS}
    for rows, blocks in tune._map_forked(run_chunk, chunks):
        scores += rows
        for name, table_blocks in blocks.items():
            tables[name] += table_blocks

    paths = {"scores.csv": os.path.join(cfg.out_dir, "scores.csv")}
    write_table(paths["scores.csv"], ["method", "kind", *SCORE_HEADER, "baseline"], scores)
    for name, blocks in tables.items():
        if blocks:
            paths[name] = os.path.join(cfg.out_dir, name)
            write_long(paths[name], TABLE_HEADERS[name], blocks)
    return paths


def _nan_blank(x: float):
    return "" if x != x else float(x)


def run_grid_search(
    cfg: RunConfig,
    grid: GridSpec,
    obs: ObservationSeries,
    panel: PredictorPanel,
) -> tuple[np.ndarray, list]:
    """Two-stage (or one-stage) initialization search minimizing CRPS."""
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
    return grid_search(grid, runner, seed=cfg.seed)


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
            for row in _score_rows(name, h, run_losses, base_name, base_losses.get(h), obs):
                rows.append((name, *row, base_name))
    return ["method", *SCORE_HEADER, "baseline"], rows


REPORT_COLUMNS = ("method", "horizon", "variable", "rmsfe", "ls", "crps")


def build_report(score_files: list[str]) -> tuple[list[str], list[list]]:
    """Merge score files into one comparison table: rows are
    (horizon, variable, metric), columns are methods with individual models
    on the left and combiners on the right.  A method's cell may repeat
    across rows and files, as every run repeats the model rows, but a
    repeat that differs raises DataFormatError naming both files."""
    import csv as _csv

    entries: dict[tuple, dict] = {}
    model_order: list[str] = []
    combiner_order: list[str] = []
    for path in score_files:
        with open(path, newline="") as fh:
            reader = _csv.DictReader(fh)
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
                for metric in ("rmsfe", "ls", "crps"):
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
    for key in sorted(entries, key=lambda k: (k[0], k[1], ("rmsfe", "ls", "crps").index(k[2]))):
        horizon, variable, metric = key
        rows.append([horizon, variable, metric] + [entries[key].get(m, ("",))[0] for m in methods])
    return header, rows
