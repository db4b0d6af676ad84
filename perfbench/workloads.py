"""The benchmark's workloads: how each one makes its inputs from the seed,
which CLI operation it times, and how that operation's outputs are checked.

Each workload is a plain description (`Workload`); `run.py` drives it.  The
`tiny` sizes exist only so the self-test can run every workload in seconds.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
from dataclasses import dataclass, field

NONLINEAR_MODELS = ("M1", "M2", "M3", "M4", "M5", "M6")
FIXTURE_MODELS = ("mdl_a", "mdl_b", "mdl_c")
FIXTURE_DIR = os.path.join("tests", "fixtures", "pseudo_empirical")

HEADERS = {
    "surface.csv": "alpha1,alpha2,crps",
    "scores.csv": "method,kind,horizon,variable,rmsfe,ls,crps,n_eval,"
    "dm_rmsfe_stat,dm_rmsfe_p,dm_ls_stat,dm_ls_p,dm_crps_stat,dm_crps_p,baseline",
    "forecast.csv": "target,horizon,variable,point,log_pred,lo95,median,hi95",
    "draws.csv": "target,horizon,variable,draw,value",
    "cumls.csv": "target,horizon,variable,cum_ls_diff",
    "weights.csv": "t,model,variable,mean,lo95,hi95",
    "alphas.csv": "t,param,mean,lo95,hi95",
}

BEST_LINE = re.compile(r"^best alpha1=(\S+) alpha2=(\S+) crps=(\S+)$", re.M)


class CheckError(Exception):
    """An operation's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Grid:
    """The gridsearch lattice written into the config.  Stage two is pinned
    to a fixed interior rectangle (see README.md, "grid_nonlinear")."""

    stage1: tuple[float, float, float]
    stage2_step: float
    stage2_bounds: tuple[float, float, float, float]

    def points(self) -> set[tuple[float, float]]:
        lo, hi, step = self.stage1
        coarse = _lattice(lo, hi, step)
        b1lo, b1hi, b2lo, b2hi = self.stage2_bounds
        fine = {
            (a1, a2)
            for a1 in _lattice(b1lo, b1hi, self.stage2_step)
            for a2 in _lattice(b2lo, b2hi, self.stage2_step)
        }
        return {(a1, a2) for a1 in coarse for a2 in coarse} | fine


def _scan(path: str) -> tuple[str, int, str]:
    """Header line, newline count and sha256 of a file.  It is read in
    chunks: a child spawned later reports at least the harness's own peak
    RSS as its ru_maxrss, so the harness must never hold a whole output."""
    with open(path, "rb") as fh:
        head = fh.readline()
        digest = hashlib.sha256(head)
        lines = head.count(b"\n")
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return head.decode().rstrip("\r\n"), lines, digest.hexdigest()


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    n = int((hi - lo) / step + 1e-9) + 1
    return [round(lo + step * i, 9) for i in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the divcast subcommand each op runs
    simulate: tuple[int, int, int] | None  # (length, draws, horizons) of a nonlinear panel
    models: tuple[str, ...]
    variables: tuple[str, ...]
    run: dict  # [run] section of the config
    method_section: dict = field(default_factory=dict)
    grid: Grid | None = None
    outputs: tuple[str, ...] = ()

    # ---- inputs -------------------------------------------------------

    def simulate_argv(self, seed: int, data_dir: str) -> list[str] | None:
        if self.simulate is None:
            return None
        length, draws, horizons = self.simulate
        return [
            "simulate", "--design", "nonlinear_incomplete", "--length", str(length),
            "--draws", str(draws), "--horizons", str(horizons), "--seed", str(seed),
            "--out-dir", data_dir,
        ]

    def write_config(self, path: str, seed: int, data_dir: str, root: str) -> None:
        src = data_dir if self.simulate is not None else os.path.join(root, FIXTURE_DIR)
        lines = [
            "[data]",
            f"observations = {os.path.join(src, 'observations.csv')}",
            f"panel = {os.path.join(src, 'panel.csv')}",
            "",
            "[run]",
            *(f"{k} = {v}" for k, v in self.run.items()),
            f"seed = {seed}",
        ]
        if self.method_section:
            lines += ["", f"[{self.run['method']}]"]
            lines += [f"{k} = {v}" for k, v in self.method_section.items()]
        if self.grid is not None:
            g = self.grid
            lines += [
                "",
                "[gridsearch]",
                "stage1 = " + ", ".join(f"{x:g}" for x in g.stage1),
                f"stage2_step = {g.stage2_step:g}",
                "stage2_bounds = " + ", ".join(f"{x:g}" for x in g.stage2_bounds),
                "eval_draws = 10",
            ]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def op_argv(self, config: str, out_dir: str) -> list[str]:
        return [self.command, "--config", config, "--out-dir", out_dir]

    # ---- output checks ------------------------------------------------

    def check(self, out_dir: str, stdout: str) -> dict:
        """Validate one op's outputs; returns informational fields (digests
        and headline scores) or raises CheckError."""
        present = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        missing = [f for f in self.outputs if f not in present]
        if missing:
            raise CheckError(f"missing outputs {missing}")
        digests = {}
        for name in self.outputs:
            first, lines, digests[name] = _scan(os.path.join(out_dir, name))
            if first != HEADERS[name]:
                raise CheckError(f"{name}: header {first!r}")
            if lines < 2:
                raise CheckError(f"{name}: no data rows")
            if name == "draws.csv":
                rows = lines - 1
                if rows != self.expected_draw_rows():
                    raise CheckError(f"draws.csv: {rows} rows, expected {self.expected_draw_rows()}")
        info = {"digests": digests}
        if self.grid is not None:
            info["grid_best_crps"] = self._check_surface(os.path.join(out_dir, "surface.csv"), stdout)
        else:
            info["main_avg_crps"] = self._check_scores(os.path.join(out_dir, "scores.csv"))
        return info

    def expected_draw_rows(self) -> int:
        T = 120  # bundled fixture length
        n = int(self.run["n_pred_draws"])
        return sum((T - h + 1) * len(self.variables) * n for h in self.horizons())

    def horizons(self) -> list[int]:
        return [int(h) for h in str(self.run["horizons"]).split(",")]

    def _check_surface(self, path: str, stdout: str) -> float:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        try:
            surface = [(float(a1), float(a2), float(v)) for a1, a2, v in rows]
        except ValueError as exc:
            raise CheckError(f"surface.csv: {exc}") from None
        keys = [(round(a1, 9), round(a2, 9)) for a1, a2, _ in surface]
        if len(set(keys)) != len(keys):
            raise CheckError("surface.csv: repeated grid points")
        expected = self.grid.points()
        if set(keys) != expected:
            raise CheckError(f"surface.csv: {len(keys)} points, expected the {len(expected)}-point lattice")
        failed = [p for p in surface if p[2] != p[2] or p[2] in (float("inf"), float("-inf"))]
        if failed:
            raise CheckError(f"surface.csv: {len(failed)} grid points failed")
        best = min(surface, key=lambda p: (p[2], abs(p[0]) + abs(p[1]), (p[0], p[1])))
        printed = BEST_LINE.search(stdout)
        if printed is None:
            raise CheckError("no 'best' line on stdout")
        want = (f"{best[0]:g}", f"{best[1]:g}", f"{best[2]:.6g}")
        if printed.groups() != want:
            raise CheckError(f"printed best {printed.groups()} != surface minimum {want}")
        return best[2]

    def _check_scores(self, path: str) -> dict:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        main, baseline = self.run["method"], self.run["baseline"]
        methods = set(self.models) | {main, baseline}
        seen: dict[tuple, int] = {}
        for r in rows:
            key = (r["method"], int(r["horizon"]), r["variable"])
            seen[key] = seen.get(key, 0) + 1
        avg = {}
        for h in self.horizons():
            for m in methods:
                for v in (*self.variables, "average"):
                    if seen.get((m, h, v)) != 1:
                        raise CheckError(f"scores.csv: {seen.get((m, h, v), 0)} rows for {m}, h={h}, {v}")
            row = next(r for r in rows if (r["method"], int(r["horizon"]), r["variable"]) == (main, h, "average"))
            avg[f"h{h}"] = float(row["crps"])
        unknown = {r["method"] for r in rows} - methods
        if unknown:
            raise CheckError(f"scores.csv: unexpected methods {sorted(unknown)}")
        return avg


def _grid_nonlinear(tiny: bool) -> Workload:
    if tiny:
        grid = Grid((-2.0, 2.0, 2.0), 1.0, (-1.0, 1.0, -1.0, 1.0))
    else:
        grid = Grid((-10.0, 10.0, 2.0), 0.5, (-2.0, 2.0, -2.0, 2.0))
    return Workload(
        name="grid_nonlinear",
        command="gridsearch",
        simulate=(30, 5, 1) if tiny else (100, 10, 1),
        models=NONLINEAR_MODELS,
        variables=("y",),
        run={"method": "dtvw", "horizons": "1", "n_particles": 40 if tiny else 1000},
        method_section={"alpha0": "0, 10, 8.5"},
        grid=grid,
        outputs=("surface.csv",),
    )


def _run_fixture(tiny: bool) -> Workload:
    return Workload(
        name="run_fixture",
        command="run",
        simulate=None,
        models=FIXTURE_MODELS,
        variables=("infl", "growth"),
        run={
            "method": "dtvw",
            "horizons": "1" if tiny else "1,3",
            "n_particles": 50 if tiny else 1000,
            "n_pred_draws": 20 if tiny else 1000,
            "baseline": "bma",
            "emit_draws": "true",
        },
        method_section={"alpha0": "0, 10, 8.5"},
        outputs=("alphas.csv", "cumls.csv", "draws.csv", "forecast.csv", "scores.csv", "weights.csv"),
    )


def _run_bigpanel(tiny: bool) -> Workload:
    return Workload(
        name="run_bigpanel",
        command="run",
        simulate=(30, 5, 3) if tiny else (200, 100, 3),
        models=NONLINEAR_MODELS,
        variables=("y",),
        run={
            "method": "bma_roll",
            "horizons": "1,2,3",
            "n_pred_draws": 20 if tiny else 1000,
            "baseline": "equal",
            "emit_draws": "false",
        },
        method_section={"window": 5 if tiny else 24},
        outputs=("cumls.csv", "forecast.csv", "scores.csv", "weights.csv"),
    )


WORKLOADS = {w.__name__.lstrip("_"): w for w in (_grid_nonlinear, _run_fixture, _run_bigpanel)}


def get(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](tiny)
