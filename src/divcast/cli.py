"""Command-line entry point.

Subcommands: ``simulate`` (write synthetic fixture files), ``run`` (execute a
configured experiment), ``gridsearch`` (initialization search), ``score``
(re-score emitted forecast files against observations) and ``report`` (merge
score files into one comparison table).

A single INI-style config file is the canonical input for ``run`` and
``gridsearch``; command-line flags override its values.  No environment
variable of divcast's own is read; importing the package sets
OPENBLAS_NUM_THREADS=1 when the caller has not set it.  ``main`` keeps
OpenSSL out of its process and its forked workers: numpy.random would load
OpenSSL's libcrypto for hmac, which divcast never uses.  A library ``import
divcast`` leaves the host's hashlib as it is.  Every command is
deterministic for a given seed.

Exit codes: 0 success, 2 validation/configuration error, 3 numeric failure
(filter degeneracy), 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .core import ConfigError, DegeneracyError, InputError
from .dataio import _parse_ints, load_config, load_observations, load_panel, save_observations, save_panel, write_table
from .dgp import DESIGNS, SimSpec, generate
from .experiment import build_report, run_experiment, run_grid_search, score_runs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="divcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic observation/panel fixtures")
    sim.add_argument("--design", choices=DESIGNS, required=True)
    sim.add_argument("--length", type=int, default=100, help="number of time steps")
    sim.add_argument("--sigma", type=float, default=None, help="innovation standard deviation")
    sim.add_argument("--draws", type=int, default=10, help="predictive draws per cell")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--horizons", type=int, default=1, help="max forecast horizon")
    sim.add_argument("--out-dir", default=".")

    run = sub.add_parser("run", help="run a configured combination experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--method", default=None)
    _add_overrides(run)

    grid = sub.add_parser("gridsearch", help="search the latent initialization")
    grid.add_argument("--config", required=True)
    grid.add_argument("--surface", default=None, help="surface CSV path (default out_dir/surface.csv)")
    _add_overrides(grid)

    score = sub.add_parser("score", help="score emitted forecasts against observations")
    score.add_argument("--observations", required=True)
    score.add_argument(
        "--run",
        dest="runs",
        action="append",
        required=True,
        metavar="NAME=DIR",
        help="named run directory containing forecast.csv (+ draws.csv); repeatable",
    )
    score.add_argument("--out", default="scores.csv")

    report = sub.add_parser("report", help="merge score files into a comparison table")
    report.add_argument("scores", nargs="+", help="scores.csv files to merge")
    report.add_argument("--out", default="report.csv")
    return parser


def _add_overrides(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--n-particles", type=int, default=None)
    cmd.add_argument("--horizons", default=None, help="comma-separated horizon list")
    cmd.add_argument("--observations", default=None)
    cmd.add_argument("--panel", default=None)
    cmd.add_argument("--out-dir", default=None)


def _overrides(args: argparse.Namespace, method: str | None) -> dict:
    over = {
        "method": method,
        "seed": args.seed,
        "n_particles": args.n_particles,
        "observations": args.observations,
        "panel": args.panel,
        "out_dir": args.out_dir,
    }
    if args.horizons is not None:
        try:
            over["horizons"] = _parse_ints(args.horizons)
        except ValueError:
            over["horizons"] = ()
        if not over["horizons"]:
            raise ConfigError(f"--horizons expects comma-separated integers, got {args.horizons!r}")
    return over


def _cmd_simulate(args) -> int:
    spec = SimSpec(
        design=args.design,
        T=args.length,
        sigma=args.sigma,
        seed=args.seed,
        n_pred_draws=args.draws,
        horizons=args.horizons,
    )
    obs, panel = generate(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    obs_path = os.path.join(args.out_dir, "observations.csv")
    panel_path = os.path.join(args.out_dir, "panel.csv")
    save_observations(obs, obs_path)
    save_panel(panel, panel_path, obs.variable_names)
    print(f"wrote {obs_path} and {panel_path}")
    return 0


def _cmd_run(args) -> int:
    cfg, _ = load_config(args.config, _overrides(args, args.method))
    obs = load_observations(cfg.observations)
    panel = load_panel(cfg.panel)
    paths = run_experiment(cfg, obs, panel)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_gridsearch(args) -> int:
    if args.surface == "":
        raise ConfigError("--surface expects a file path, got ''")
    # The search always tunes dtvw, so the [dtvw] section applies.
    cfg, grid = load_config(args.config, _overrides(args, "dtvw"), search=True)
    # An unwritable output fails before the search, not after it.
    os.makedirs(cfg.out_dir, exist_ok=True)
    surface_path = args.surface or os.path.join(cfg.out_dir, "surface.csv")
    surface_dir = os.path.dirname(surface_path) or "."
    if not os.path.isdir(surface_dir):
        raise FileNotFoundError(errno.ENOENT, "no directory for the surface file", surface_dir)
    if os.path.isdir(surface_path):
        raise IsADirectoryError(errno.EISDIR, "the surface file names a directory", surface_path)
    obs = load_observations(cfg.observations)
    panel = load_panel(cfg.panel)
    best, surface = run_grid_search(cfg, grid, obs, panel)
    write_table(surface_path, ["alpha1", "alpha2", "crps"], surface)
    best_value = min(v for _, _, v in surface)
    print(f"best alpha1={best[0]:g} alpha2={best[1]:g} crps={best_value:.6g}")
    print(f"wrote {surface_path}")
    return 0


def _cmd_score(args) -> int:
    named = []
    for item in args.runs:
        name, eq, directory = item.partition("=")
        if not eq or not name:
            raise InputError(f"--run expects NAME=DIR with a non-empty NAME, got {item!r}")
        if name in dict(named):
            raise InputError(f"--run NAME {name!r} is given twice")
        named.append((name, directory))
    obs = load_observations(args.observations)
    header, rows = score_runs(obs, named)
    write_table(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    header, rows = build_report(args.scores)
    write_table(args.out, header, rows)
    print(f"wrote {args.out}")
    return 0


COMMANDS = {
    "simulate": _cmd_simulate,
    "run": _cmd_run,
    "gridsearch": _cmd_gridsearch,
    "score": _cmd_score,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  main owns its process, so
    it keeps OpenSSL out of it; a library import of divcast does not."""
    # numpy.random imports secrets, whose hmac and hashlib map OpenSSL's
    # libcrypto through _hashlib: about 3.4 MB of a command's peak memory.
    # numpy uses secrets only to seed a SeedSequence made without entropy,
    # which divcast never makes (every stream comes from rng.substream).
    # Without _hashlib both use CPython's built-in digests; setdefault keeps
    # a _hashlib the process has already loaded.
    sys.modules.setdefault("_hashlib", None)
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
