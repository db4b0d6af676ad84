"""CSV interchange formats and experiment configuration.

Two long-format inputs drive every run:

* observations: header ``t,variable,value`` — one row per (t, variable),
  t contiguous from 1, variable order fixed by first occurrence.
* panel: header ``t,model,variable,horizon,draw,value`` — dense over
  models, variables, horizons 1..H and draws 1..D for every t.

Every long-format table, these two and the run outputs alike, is parsed by
``read_table`` and has its rows written by ``_write_rows``: label columns
first, in C order over a dense array, then the value columns.  Floats are
written with Python's shortest round-trip representation, so a load/emit
cycle reproduces values bit-exactly.  ``write_long`` writes a whole table in
one process; `run`'s horizon workers write their rows into files of their
own, which `run` joins (see experiment.run_experiment).
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import itertools
import operator
from dataclasses import dataclass, fields

import numpy as np

from .core import ConfigError, DataFormatError, ObservationSeries, PredictorPanel
from .latent import MODE_TAGS as FILTER_METHODS
from .tune import MAX_DRAWS, MAX_PARTICLES, GridSpec

METHODS = ("equal", "bma", "bma_roll", *FILTER_METHODS)

OBS_COLUMNS = (("t", int), ("variable", str), ("value", float))
PANEL_COLUMNS = (
    ("t", int),
    ("model", str),
    ("variable", str),
    ("horizon", int),
    ("draw", int),
    ("value", float),
)

# Rows parsed per block, bounding the text held at once.  A chunk's row
# lists go back to Python's allocator, which numpy's buffers never reuse, so
# small chunks keep the process small: loading a 360,001-row panel (200
# steps, 6 models, 3 horizons, 100 draws; 2-vCPU Xeon, Python 3.11, numpy
# 2.4, three runs each) took 1.36-1.53 s at a peak RSS of 99-100 MB with
# 65,536-row chunks, and 0.92-1.06 s at 80 MB with 1,024-row chunks.
_CHUNK_ROWS = 1 << 10

def read_table(
    path: str, columns: tuple, cell: str = "entry", finite: bool = True
) -> tuple[list, np.ndarray, np.ndarray]:
    """Parse a long-format CSV into one dense array.

    ``columns`` is the expected header as (name, type) pairs: label columns
    first, each ``int`` (a 1-based index) or ``str`` (a name), then the
    ``float`` value columns.  Returns the levels of every label column
    (``range(1, max + 1)`` for an index, names in order of first occurrence),
    the values with shape (n_level_1, ..., n_level_k, n_values), NaN where
    no row gives the cell, and the boolean mask of the cells the file gives.
    Errors name the file line; ``cell`` is the noun of the duplicate-row
    message, and ``finite`` rejects NaN and infinite values.  An index above
    twice the row count is rejected before the dense array is allocated:
    the tables read here keep their indices below that (a forecast table's
    targets start at their horizon), and a smaller gap is left to the
    caller's own checks.
    """
    names = [name for name, _ in columns]
    kinds = [kind for _, kind in columns]
    n_labels = kinds.index(float)
    codes: list[dict] = [{} for _ in names]
    parts: list[list[np.ndarray]] = [[] for _ in names]
    n = 0
    with _decoding(path, DataFormatError), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != names:
            raise DataFormatError(
                f"{path}: expected header {','.join(names)}, got {','.join(header or [])}"
            )
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            rows = [row for row in chunk if row]
            for i, row in enumerate(rows):
                if len(row) != len(names):
                    raise DataFormatError(f"{path}:{_line_of(path, n + i)}: expected {len(names)} fields")
            for j, col in enumerate(zip(*rows)):
                if kinds[j] is str:
                    seen = codes[j]
                    coded = (seen.setdefault(v, len(seen)) for v in col)
                    parts[j].append(np.fromiter(coded, int, len(col)))
                else:
                    parts[j].append(_parse_column(col, kinds[j], path, n, names[j], finite))
            n += len(rows)
    if n == 0:
        raise DataFormatError(f"{path}: no data rows")
    cols = [np.concatenate(part) for part in parts]
    for j in range(n_labels):
        if kinds[j] is int:
            if (bad := np.flatnonzero(cols[j] < 1)).size:
                raise DataFormatError(f"{path}:{_line_of(path, int(bad[0]))}: indices must be >= 1")
            if (bad := np.flatnonzero(cols[j] > 2 * n)).size:
                i = int(bad[0])
                raise DataFormatError(
                    f"{path}:{_line_of(path, i)}: {names[j]} {cols[j][i]} is above twice the row count {n}"
                )
            cols[j] = cols[j] - 1
    levels = [
        list(codes[j]) if kinds[j] is str else range(1, int(cols[j].max()) + 2)
        for j in range(n_labels)
    ]
    shape = tuple(len(level) for level in levels)
    flat = np.ravel_multi_index(cols[:n_labels], shape)
    _, first = np.unique(flat, return_index=True)
    if len(first) < n:
        repeat = np.ones(n, dtype=bool)
        repeat[first] = False
        i = int(np.argmax(repeat))
        key = ", ".join(f"{names[j]}={levels[j][cols[j][i]]!r}" for j in range(n_labels))
        raise DataFormatError(f"{path}:{_line_of(path, i)}: duplicate {cell} for {key}")
    values = np.full((np.prod(shape), len(names) - n_labels), np.nan)
    values[flat] = np.column_stack(cols[n_labels:])
    present = np.zeros(len(values), dtype=bool)
    present[flat] = True
    return levels, values.reshape(*shape, -1), present.reshape(shape)


@contextlib.contextmanager
def _decoding(path: str, error: type):
    """Raise ``error`` naming ``path`` for a byte of it that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text, byte {exc.object[exc.start]:#04x} does not decode") from None


def _parse_column(col: tuple, kind, path: str, start: int, name: str, finite: bool) -> np.ndarray:
    """One block of a numeric column as an int or float array."""
    try:
        parsed = np.fromiter(map(kind, col), kind, len(col))
    except (ValueError, OverflowError):
        for i, raw in enumerate(col):
            try:
                np.array(kind(raw), dtype=kind)
                continue
            except OverflowError:
                what = "out-of-range"
            except ValueError:
                what = "non-integer" if kind is int else "non-numeric"
            raise DataFormatError(f"{path}:{_line_of(path, start + i)}: {what} {name} {raw!r}") from None
    if finite and not np.all(np.isfinite(parsed)):
        i = int(np.argmin(np.isfinite(parsed)))
        raise DataFormatError(f"{path}:{_line_of(path, start + i)}: non-finite {name} {col[i]!r}")
    return parsed


def _line_of(path: str, record: int) -> int:
    """File line of the 0-based data record (blank lines are not records)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, record, None))


def load_observations(path: str) -> ObservationSeries:
    """Read an observation series, validating contiguity and completeness."""
    (_, variables), values, present = read_table(path, OBS_COLUMNS)
    times = np.flatnonzero(present.any(axis=1)) + 1
    if len(times) < present.shape[0]:
        raise DataFormatError(
            f"{path}: time index must be contiguous from 1 (got {times[:5].tolist()}...)"
        )
    if not present.all():
        t, l = np.argwhere(~present)[0]
        raise DataFormatError(f"{path}: missing value for t={t + 1}, variable={variables[l]!r}")
    return ObservationSeries(values[:, :, 0], tuple(variables))


def save_observations(obs: ObservationSeries, path: str) -> None:
    labels = [range(1, obs.n_steps + 1), obs.variable_names]
    write_long(path, [name for name, _ in OBS_COLUMNS], [(labels, obs.values)])


def load_panel(path: str) -> PredictorPanel:
    """Read a predictor panel, validating dense (t, model, variable,
    horizon, draw) coverage; model/variable order follows first occurrence."""
    (_, models, variables, _, _), values, present = read_table(path, PANEL_COLUMNS, cell="draw")
    if not present.all():
        missing = np.argwhere(~present)
        shown = ", ".join(
            f"(t={t + 1}, model={models[k]}, variable={variables[l]}, horizon={h + 1}, draw={d + 1})"
            for t, k, l, h, d in missing[:5]
        )
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise DataFormatError(f"{path}: ragged panel, missing cells {shown}{more}")
    return PredictorPanel(values[..., 0], tuple(models), tuple(variables))


def save_panel(panel: PredictorPanel, path: str, variable_names: tuple[str, ...] | None = None) -> None:
    names = variable_names or panel.variable_names
    if names is None:
        names = ("y",) if panel.n_vars == 1 else tuple(f"y{l+1}" for l in range(panel.n_vars))
    T, K, L, H, D = panel.draws.shape
    labels = [range(1, T + 1), panel.model_names, names, range(1, H + 1), range(1, D + 1)]
    write_long(path, [name for name, _ in PANEL_COLUMNS], [(labels, panel.draws)])


def write_long(path: str, header: list[str], blocks: list[tuple]) -> None:
    """Write a long-format table in one process: the header, then the rows
    of blocks (see _write_rows)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        _write_rows(fh, blocks)


def _write_rows(fh, blocks: list[tuple]) -> None:
    """Write the rows of long-format blocks into a text file and flush it.
    Each block ``(labels, *values)`` gives one row per cell of its label
    axes in C order: the labels, then one entry from each value array.  The
    text equals ``csv`` ``writerows`` over those rows, but each label is
    quoted once per block, each value is written as its repr, and the rows
    go out one prefix of all but the last label (one "head") at a time.
    Every block is checked before any row is written.  Each value array is
    viewed in the labels' shape and each head's row read from it, so a
    strided block (the transposed draws) is never copied whole.
    """
    parts = []  # (heads, their indices, last label's cells, one label-shaped array per value column)
    for labels, *values in blocks:
        *outer, inner = [list(map(_label_cell, axis)) for axis in labels]
        heads = list(map("".join, itertools.product(*outer)))
        shape = [len(axis) for axis in labels]
        # np.reshape raises ValueError when a value's size is not the labels'
        parts.append((heads, np.ndindex(*shape[:-1]), inner, [np.reshape(v, shape) for v in values]))
    for heads, indices, inner, cols in parts:
        for head, index in zip(heads, indices):
            cells = map(",".join, zip(*(map(repr, col[index].tolist()) for col in cols)))
            # joining on the line break plus the head puts the head before every row
            fh.write(head + ("\r\n" + head).join(map(operator.add, inner, cells)) + "\r\n")
    fh.flush()


def _label_cell(label) -> str:
    """A label as its CSV field and the delimiter.  The empty field after it
    keeps ``csv`` from quoting an empty label as it would a row's only field."""
    buf = io.StringIO()
    csv.writer(buf).writerow((label, ""))
    return buf.getvalue()[:-2]


def write_table(path: str, header: list[str], rows: list[tuple]) -> None:
    """Write rows as given: ``scores.csv``, ``surface.csv`` and the outputs
    of ``score`` and ``report``.  A Python float is written as its repr, the
    shortest round-trip text, so rows must hold Python floats
    (ndarray.tolist() gives them), not numpy scalars."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class RunConfig:
    """Everything one experiment needs; mirrors the config file keys."""

    method: str
    observations: str
    panel: str
    horizons: tuple[int, ...] = (1,)
    n_particles: int = 1000
    kappa: float = 0.5
    seed: int = 0
    n_pred_draws: int = 1000
    sigma_obs: tuple[float, ...] | None = None
    sigma_x: float = 0.25
    sigma_alpha: float = 0.05
    alpha0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    x0_spread: float = 0.0
    window: int | None = None
    fallback_sigma: float = 0.1
    eval_start: int | None = None
    eval_end: int | None = None
    baseline: str | None = None
    out_dir: str = "out"
    emit_draws: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if "bma_roll" in (self.method, self.baseline) and self.window is None:
            raise ConfigError("bma_roll requires a window")
        samplers = (*FILTER_METHODS, "bma", "bma_roll")
        if self.n_pred_draws < 2 and (self.method in samplers or self.baseline in samplers):
            raise ConfigError("n_pred_draws must be >= 2: CRPS needs at least two draws")
        if self.n_pred_draws > MAX_DRAWS:
            raise ConfigError(f"n_pred_draws must be at most {MAX_DRAWS:,}")
        if not 0 < self.kappa <= 1:
            raise ConfigError("ess_threshold must lie in (0, 1]")
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise ConfigError(f"n_particles must lie in 1..{MAX_PARTICLES:,}")
        if any(h < 1 for h in self.horizons) or not self.horizons:
            raise ConfigError("horizons must be a non-empty list of positive integers")
        if len(set(self.horizons)) < len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got {', '.join(map(str, self.horizons))}")
        if len(self.alpha0) != 3:
            raise ConfigError("alpha0 must have three components")
        if not np.all(np.isfinite(self.alpha0)):
            raise ConfigError("alpha0 must be finite")
        if not 0 <= self.x0_spread < np.inf:
            raise ConfigError("x0_spread must be finite and >= 0")
        if self.sigma_obs is not None and not all(s > 0 and 0 < s * s < np.inf for s in self.sigma_obs):
            raise ConfigError("sigma_obs must be > 0, and its square above 0 and finite")
        if not (0 <= self.sigma_x < np.inf and 0 <= self.sigma_alpha < np.inf):
            raise ConfigError("sigma_x and sigma_alpha must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if not 0 < self.fallback_sigma < np.inf:
            raise ConfigError("fallback_sigma must be finite and > 0")
        if any(v is not None and v < 1 for v in (self.eval_start, self.eval_end)):
            raise ConfigError("eval_start and eval_end must be >= 1")


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.replace(",", " ").split())


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def load_config(path: str, overrides: dict | None = None, search: bool = False) -> tuple[RunConfig, GridSpec | None]:
    """Parse an INI-style config file; overrides (from CLI flags) win.

    Only a grid search (``search``) reads ``[gridsearch]``: otherwise the
    section is neither read nor checked, and the GridSpec returned is None.
    A grid search reads neither ``[run] n_pred_draws``, ``[run] baseline``,
    ``alpha0`` nor ``fallback_sigma``, so their defaults stand and none is
    checked.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    # ConfigParser.read would skip a file that cannot be opened, a directory say
    with _decoding(path, ConfigError), open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def get(section, key, cast=str):
        """section.key converted by cast, or None when absent or blank."""
        if not parser.has_option(section, key):
            return None
        raw = parser.get(section, key).strip()
        if not raw:
            return None
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from None

    values: dict = {"method": get("run", "method") or "equal"}
    for section, key, name, cast in [
        ("data", "observations", "observations", str),
        ("data", "panel", "panel", str),
        ("run", "horizons", "horizons", _parse_ints),
        ("run", "n_particles", "n_particles", int),
        ("run", "seed", "seed", int),
        ("run", "n_pred_draws", "n_pred_draws", int),
        ("run", "eval_start", "eval_start", int),
        ("run", "eval_end", "eval_end", int),
        ("run", "ess_threshold", "kappa", float),
        ("run", "baseline", "baseline", str),
        ("run", "out_dir", "out_dir", str),
        ("run", "emit_draws", "emit_draws", _parse_bool),
        ("noise", "sigma_obs", "sigma_obs", _parse_floats),
        ("noise", "sigma_x", "sigma_x", float),
        ("noise", "sigma_alpha", "sigma_alpha", float),
    ]:
        if search and name in ("n_pred_draws", "baseline"):
            continue
        if (value := get(section, key, cast)) is not None:
            values[name] = value

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    method = overrides.get("method") or values["method"]
    baseline = overrides.get("baseline") or values.get("baseline")
    section_keys = [(method, "alpha0", _parse_floats), (method, "x0_spread", float), (method, "fallback_sigma", float)]
    if "bma_roll" in (method, baseline):
        section_keys.append(("bma_roll", "window", int))
    for section, key, cast in section_keys:
        if search and key in ("alpha0", "fallback_sigma"):
            continue
        if (value := get(section, key, cast)) is not None:
            values[key] = value

    known = {f.name for f in fields(RunConfig)}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config override {key!r}")
        values[key] = value

    if not values.get("observations") or not values.get("panel"):
        raise ConfigError(f"{path}: [data] must name observations and panel files")
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not search:
        return cfg, None

    grid: dict = {}
    stage1 = get("gridsearch", "stage1", _parse_floats)
    if stage1 is not None:
        if len(stage1) != 3:
            raise ConfigError("stage1 expects lo, hi, step")
        grid["stage1"] = (stage1, stage1)
    step = get("gridsearch", "stage2_step")
    if step is not None:
        grid["stage2_step"] = None if step.lower() == "none" else get("gridsearch", "stage2_step", float)
    bounds = get("gridsearch", "stage2_bounds", _parse_floats)
    if bounds is not None:
        if len(bounds) != 4:
            raise ConfigError("stage2_bounds expects lo1, hi1, lo2, hi2")
        grid["stage2_bounds"] = ((bounds[0], bounds[1]), (bounds[2], bounds[3]))
    for key, cast in [("stage2_margin", int), ("eval_draws", int), ("grid_particles", int), ("variable", str)]:
        if (value := get("gridsearch", key, cast)) is not None:
            grid[key] = value
    return cfg, GridSpec(**grid)
