"""Byte-for-byte fingerprint of the CLI's outputs over a fixed command matrix.

    python tests/output_manifest.py OUT_DIR [--src SRC] [--cpus N]

Runs every command of MATRIX as `python -m divcast.cli ...` with SRC on
PYTHONPATH (default: the src/ next to this file), from inside OUT_DIR and with
relative paths only, so two checkouts write comparable bytes.  Prints the
sha256 of every file the commands leave in OUT_DIR and of each command's
stdout, each command's exit code, and last the manifest digest: the sha256 of
all the lines before it.  Two checkouts with the same digest wrote the same
files, printed the same stdout and exited with the same codes.  Stderr is not
fingerprinted: numpy's warnings name source lines.

--cpus N pins this script to the first N CPUs it may run on before any
command starts, so every command inherits the pin: `gridsearch` splits its
lattice points and `run` its horizons over one worker per allowed CPU (a
`run` worker also writes its horizons' table rows), and the outputs must
not depend on how many.

Every command runs in this script's own environment, PYTHONPATH aside, so
`OPENBLAS_NUM_THREADS=2 python tests/output_manifest.py OUT_DIR` runs every
process with two BLAS threads, where divcast otherwise sets one; the outputs
must not depend on that either.

Give a checkout's own src/ to fingerprint it, e.g. a `git clone` of the parent
commit:  python tests/output_manifest.py /tmp/m_parent --src ../parent/src

--compare OTHER_DIR, the OUT_DIR of an earlier run, measures how far the two
runs' outputs are apart when the digests differ.  After the manifest it
prints one line for every CSV file both directories hold: the largest
|a - b| / max(1, |b|) over the cells both parse as numbers (a from OUT_DIR,
b from OTHER_DIR), the count of other cells that differ, and the two row
counts when they differ.  A file only one directory holds is named too.  A
last line sums them up: the largest max_rel over every file, the total
text_diffs, and the counts of files with unequal row counts or held by one
directory only, when there are any.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "pseudo_empirical")

RUN_FIXTURE = """\
[data]
observations = fixture/observations.csv
panel = fixture/panel.csv

[run]
method = dtvw
horizons = 1,3
n_particles = 1000
n_pred_draws = 1000
baseline = bma
emit_draws = true
seed = 1

[dtvw]
alpha0 = 0, 10, 8.5
"""

BMA_ROLL = """\
[data]
observations = fixture/observations.csv
panel = fixture/panel.csv

[run]
method = bma_roll
horizons = 1,2
n_pred_draws = 200
baseline = equal
seed = 2

[bma_roll]
window = 24
"""

COMPLETE = """\
[data]
observations = complete/observations.csv
panel = complete/panel.csv

[run]
horizons = 1,2
n_particles = 300
n_pred_draws = 100
baseline = tvw
seed = 3
"""

GRID_NONLINEAR = """\
[data]
observations = nonlinear/observations.csv
panel = nonlinear/panel.csv

[run]
method = dtvw
horizons = 1
n_particles = 400
seed = 1

[gridsearch]
stage1 = -6, 6, 3
stage2_step = 1
eval_draws = 10
"""

GRID_COMPLETE = """\
[data]
observations = complete/observations.csv
panel = complete/panel.csv

[run]
method = dtvw
horizons = 2
n_particles = 200
seed = 4

[gridsearch]
stage1 = -4, 4, 4
stage2_step = none
eval_draws = 10
"""

DEGENERATE = """\
[data]
observations = degenerate/observations.csv
panel = degenerate/panel.csv

[run]
method = tvw
n_particles = 50
seed = 0

[noise]
sigma_obs = 0.001
"""

# (name, argv); every path is relative to OUT_DIR.
MATRIX = [
    ("simulate_nonlinear", ["simulate", "--design", "nonlinear_incomplete", "--length", "60",
                            "--draws", "10", "--seed", "1", "--out-dir", "nonlinear"]),
    ("simulate_complete", ["simulate", "--design", "complete_ar", "--length", "60", "--draws", "5",
                           "--horizons", "2", "--seed", "3", "--out-dir", "complete"]),
    ("run_dtvw_fixture", ["run", "--config", "run_fixture.ini", "--out-dir", "run_dtvw_fixture"]),
    ("run_bma_roll", ["run", "--config", "bma_roll.ini", "--out-dir", "run_bma_roll"]),
    ("run_tvw", ["run", "--config", "complete.ini", "--method", "tvw", "--out-dir", "run_tvw"]),
    ("run_adaptive_tvw", ["run", "--config", "complete.ini", "--method", "adaptive_tvw",
                          "--out-dir", "run_adaptive_tvw"]),
    ("gridsearch_nonlinear", ["gridsearch", "--config", "grid_nonlinear.ini", "--out-dir", "grid_nonlinear"]),
    ("gridsearch_h2", ["gridsearch", "--config", "grid_complete.ini", "--out-dir", "grid_h2"]),
    ("score", ["score", "--observations", "fixture/observations.csv", "--run", "dtvw=run_dtvw_fixture",
               "--run", "bma_roll=run_bma_roll", "--out", "score.csv"]),
    ("report", ["report", "run_dtvw_fixture/scores.csv", "run_bma_roll/scores.csv", "score.csv",
                "--out", "report.csv"]),
    ("run_degenerate", ["run", "--config", "degenerate.ini", "--out-dir", "run_degenerate"]),
]


def write_inputs(out: str) -> None:
    """The configs, a copy of the bundled fixture, and a panel on which every
    particle likelihood vanishes at t=5 (the run exits 3)."""
    configs = {
        "run_fixture.ini": RUN_FIXTURE,
        "bma_roll.ini": BMA_ROLL,
        "complete.ini": COMPLETE,
        "grid_nonlinear.ini": GRID_NONLINEAR,
        "grid_complete.ini": GRID_COMPLETE,
        "degenerate.ini": DEGENERATE,
    }
    for name, text in configs.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    shutil.copytree(FIXTURE, os.path.join(out, "fixture"))
    os.makedirs(os.path.join(out, "degenerate"))
    obs = ["t,variable,value"] + [f"{t},y,{'1e200' if t == 5 else '0.1'}" for t in range(1, 15)]
    panel = ["t,model,variable,horizon,draw,value"] + [
        f"{t},{m},y,1,{d},0.1" for t in range(1, 15) for m in "ab" for d in (1, 2)  # run needs two draws per cell
    ]
    for name, rows in (("observations.csv", obs), ("panel.csv", panel)):
        with open(os.path.join(out, "degenerate", name), "w") as fh:
            fh.write("\n".join(rows) + "\n")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cells(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(path: str, other: str) -> tuple[float, int, int, int]:
    """How far the CSV at path is from the one at other: the largest relative
    difference of its numeric cells, the count of other cells that differ,
    and the two row counts."""
    rows, other_rows = _cells(path), _cells(other)
    worst, text_diffs = 0.0, 0
    for row, other_row in zip(rows, other_rows):
        text_diffs += abs(len(row) - len(other_row))
        for a, b in zip(row, other_row):
            if a == b:
                continue
            x, y = _as_float(a), _as_float(b)
            if x is None or y is None:
                text_diffs += 1
            else:
                rel = abs(x - y) / max(1.0, abs(y))
                worst = max(worst, math.inf if math.isnan(rel) else rel)
    return worst, text_diffs, len(rows), len(other_rows)


def compare_dirs(out: str, other: str) -> list[str]:
    """The --compare lines: one per CSV file of out or other, by relative
    path, and the summary line."""
    def csvs(top):
        return {
            os.path.relpath(os.path.join(root, f), top)
            for root, _, files in os.walk(top)
            for f in files
            if f.endswith(".csv")
        }

    mine, theirs = csvs(out), csvs(other)
    lines = []
    worst, text_diffs, row_diffs = 0.0, 0, 0
    for rel in sorted(mine | theirs):
        if rel not in theirs:
            lines.append(f"compare {rel}  only in {out}")
        elif rel not in mine:
            lines.append(f"compare {rel}  only in {other}")
        else:
            rel_max, diffs, n, n_other = compare_csv(os.path.join(out, rel), os.path.join(other, rel))
            line = f"compare {rel}  max_rel {rel_max:.3g}  text_diffs {diffs}"
            if n != n_other:
                line += f"  rows {n} vs {n_other}"
                row_diffs += 1
            lines.append(line)
            worst, text_diffs = max(worst, rel_max), text_diffs + diffs
    summary = f"compare all  max_rel {worst:.3g}  text_diffs {text_diffs}"
    if row_diffs:
        summary += f"  files_with_other_row_counts {row_diffs}"
    if mine ^ theirs:
        summary += f"  files_in_one_dir_only {len(mine ^ theirs)}"
    return lines + [summary]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", help="new or empty directory the commands write into")
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"), help="package source to run")
    parser.add_argument("--cpus", type=int, default=None, help="run every command on the first N allowed CPUs")
    parser.add_argument("--compare", metavar="OTHER_DIR", default=None, help="an earlier run's OUT_DIR to diff against")
    args = parser.parse_args(argv)
    if args.compare is not None and not os.path.isdir(args.compare):
        parser.error(f"{args.compare} is not a directory")
    if args.cpus is not None:
        if args.cpus < 1:
            parser.error("--cpus must be >= 1")
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: args.cpus])
    out = os.path.abspath(args.out_dir)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        parser.error(f"{out} is not empty")
    write_inputs(out)

    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}
    lines = []
    for name, argv_ in MATRIX:
        proc = subprocess.run(
            [sys.executable, "-m", "divcast.cli", *argv_], cwd=out, env=env, capture_output=True
        )
        lines.append(f"{hashlib.sha256(proc.stdout).hexdigest()}  {name}.stdout")
        lines.append(f"exit {proc.returncode}  {name}")
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(root, f)
            lines.append(f"{sha256_file(path)}  {os.path.relpath(path, out)}")
    for line in lines:
        print(line)
    print(f"manifest {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    if args.compare is not None:
        for line in compare_dirs(out, os.path.abspath(args.compare)):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
