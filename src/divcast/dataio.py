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

from .core import ConfigError, DataFormatError, NoiseConfig, ObservationSeries, PredictorPanel
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
    with _decoding(path, DataFormatError), open(path, newline="", encoding="utf-8-sig") as fh:
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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    parts = [_block([list(map(_label_cell, axis)) for axis in labels], values) for labels, *values in blocks]
    for part in parts:
        _write_block(fh, *part)
    fh.flush()


def _block_writer(fh, labels: list):
    """write(first, *values) writes the rows of the block
    ``([[first], *labels], *values)`` as _write_rows does, without a flush.
    The cells of ``labels`` are quoted once, for every block written, so a
    run writes one target's draws at a time and quotes the draw indices
    once per horizon."""
    cells = [list(map(_label_cell, axis)) for axis in labels]

    def write(first, *values) -> None:
        _write_block(fh, *_block([[_label_cell(first)], *cells], values))

    return write


def _block(cells: list[list[str]], values) -> tuple:
    """A block's heads, their indices, the last label's cells, and one
    label-shaped view of each value array, from the label axes' cells."""
    *outer, inner = cells
    shape = [len(axis) for axis in cells]
    heads = list(map("".join, itertools.product(*outer)))
    # np.reshape raises ValueError when a value's size is not the labels'
    return heads, np.ndindex(*shape[:-1]), inner, [np.reshape(v, shape) for v in values]


def _write_block(fh, heads, indices, inner, cols) -> None:
    for head, index in zip(heads, indices):
        cells = map(",".join, zip(*(map(repr, col[index].tolist()) for col in cols)))
        # joining on the line break plus the head puts the head before every row
        fh.write(head + ("\r\n" + head).join(map(operator.add, inner, cells)) + "\r\n")


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
        if not 2 <= self.n_pred_draws <= MAX_DRAWS:
            raise ConfigError(f"n_pred_draws must lie in 2..{MAX_DRAWS:,}: CRPS needs at least two draws")
        if not 0 < self.kappa <= 1:
            raise ConfigError("ess_threshold must lie in (0, 1]")
        if not 1 <= self.n_particles <= MAX_PARTICLES:
            raise ConfigError(f"n_particles must lie in 1..{MAX_PARTICLES:,}")
        if any(h < 1 for h in self.horizons) or not self.horizons:
            raise ConfigError("horizons must be a non-empty list of positive integers")
        if len(set(self.horizons)) < len(self.horizons):
            raise ConfigError(f"horizons must not repeat, got {', '.join(map(str, self.horizons))}")
        if len(self.alpha0) != 3 or not np.all(np.isfinite(self.alpha0)):
            raise ConfigError("alpha0 must be three finite values")
        if not 0 <= self.x0_spread < np.inf:
            raise ConfigError("x0_spread must be finite and >= 0")
        NoiseConfig(1.0 if self.sigma_obs is None else self.sigma_obs, self.sigma_x, self.sigma_alpha)
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


def _floats_of(raw: str, form: str) -> tuple[float, ...]:
    """As many comma-separated floats as form names."""
    if len(values := _parse_floats(raw)) != form.count(",") + 1:
        raise ValueError(f"expects {form}")
    return values


def _stage2_bounds(raw: str) -> tuple:
    bounds = _floats_of(raw, "lo1, hi1, lo2, hi2")
    return bounds[:2], bounds[2:]


RUNS = frozenset(METHODS)
FILTERS = frozenset(FILTER_METHODS)
LEARNERS = frozenset({"adaptive_tvw", "dtvw"})  # the filter methods that move a coefficient
SEARCH = frozenset({"gridsearch"})
# Every config key: its section (None: the one named after the run's method,
# which a baseline method reads too, and [dtvw] for gridsearch), its field of
# RunConfig (of GridSpec under [gridsearch]), its parser, and the methods and
# commands that read it.  A run reads the keys of its method and of a
# baseline that is a method, gridsearch those of its dtvw search; a key that
# nothing in the command reads keeps its default and is not checked.
KEYS = (
    ("data", "observations", "observations", str, RUNS | SEARCH),
    ("data", "panel", "panel", str, RUNS | SEARCH),
    ("run", "method", "method", str, RUNS),
    ("run", "horizons", "horizons", _parse_ints, RUNS | SEARCH),
    ("run", "n_particles", "n_particles", int, FILTERS | SEARCH),
    ("run", "seed", "seed", int, RUNS | SEARCH),
    ("run", "n_pred_draws", "n_pred_draws", int, FILTERS | {"bma", "bma_roll"}),
    ("run", "eval_start", "eval_start", int, RUNS | SEARCH),
    ("run", "eval_end", "eval_end", int, RUNS | SEARCH),
    ("run", "ess_threshold", "kappa", float, FILTERS | SEARCH),
    ("run", "baseline", "baseline", str, RUNS),
    ("run", "out_dir", "out_dir", str, RUNS | SEARCH),
    ("run", "emit_draws", "emit_draws", _parse_bool, RUNS),
    ("noise", "sigma_obs", "sigma_obs", _parse_floats, FILTERS | SEARCH),
    ("noise", "sigma_x", "sigma_x", float, FILTERS | SEARCH),
    ("noise", "sigma_alpha", "sigma_alpha", float, LEARNERS | SEARCH),
    (None, "alpha0", "alpha0", _parse_floats, LEARNERS),
    (None, "x0_spread", "x0_spread", float, FILTERS | SEARCH),
    (None, "fallback_sigma", "fallback_sigma", float, RUNS),
    ("bma_roll", "window", "window", int, frozenset({"bma_roll"})),
    ("gridsearch", "stage1", "stage1", lambda raw: (_floats_of(raw, "lo, hi, step"),) * 2, SEARCH),
    ("gridsearch", "stage2_step", "stage2_step", lambda raw: None if raw.lower() == "none" else float(raw), SEARCH),
    ("gridsearch", "stage2_bounds", "stage2_bounds", _stage2_bounds, SEARCH),
    ("gridsearch", "stage2_margin", "stage2_margin", int, SEARCH),
    ("gridsearch", "eval_draws", "eval_draws", int, SEARCH),
    ("gridsearch", "grid_particles", "grid_particles", int, SEARCH),
    ("gridsearch", "variable", "variable", str, SEARCH),
)
# The values of a key that a method reads but that move no output, by
# position (None: every value); each is still checked.  No cloud carries
# alpha0's first value and adaptive_tvw never moves its third, so alphas.csv
# only repeats them; equal weighting pools the panel's draws and draws
# nothing at random.
INERT = {("alpha0", "adaptive_tvw"): (0, 2), ("alpha0", "dtvw"): (0,), ("seed", "equal"): None}


def load_config(path: str, overrides: dict | None = None, search: bool = False) -> tuple[RunConfig, GridSpec | None]:
    """Parse an INI-style config file; overrides (from CLI flags) win.

    KEYS decides which keys are read: those of the run's method and of a
    baseline method, or under ``search`` those of gridsearch, which alone
    reads ``[gridsearch]``; otherwise the GridSpec returned is None.  An
    unknown method reads no key, and RunConfig names it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    # ConfigParser.read would skip a file that cannot be opened, a directory say
    with _decoding(path, ConfigError), open(path, encoding="utf-8-sig") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def get(section, key, cast=str):
        """section.key converted by cast; None when absent or blank."""
        raw = parser.get(section, key, fallback="").strip()
        try:
            return cast(raw) if raw else None
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from None

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    method = overrides.get("method") or get("run", "method") or "equal"
    readers = SEARCH if search else {method, overrides.get("baseline") or get("run", "baseline")}
    values: dict = {"method": method, "observations": "", "panel": ""}
    grid: dict = {}
    for section, key, name, cast, users in KEYS:
        if readers & users and parser.get(section or method, key, fallback="").strip():
            (grid if section == "gridsearch" else values)[name] = get(section or method, key, cast)

    known = {f.name for f in fields(RunConfig)}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config override {key!r}")
        values[key] = value
    cfg = RunConfig(**values)
    if not cfg.observations or not cfg.panel:
        raise ConfigError(f"{path}: [data] must name observations and panel files")
    return cfg, GridSpec(**grid) if search else None
