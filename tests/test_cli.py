import csv
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import divcast
from divcast import experiment, tune
from divcast.cli import main
from divcast.core import DegeneracyError, ObservationSeries, PredictorPanel
from divcast.dataio import save_observations, save_panel
from divcast.dgp import SimSpec, generate
from divcast.filtering import ParticleFilter

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pseudo_empirical")


def write_config(tmp_path, **kw):
    out_dir = kw.pop("out_dir", str(tmp_path / "out"))
    text = (
        "[data]\n"
        f"observations = {kw.pop('observations', os.path.join(FIXTURE, 'observations.csv'))}\n"
        f"panel = {kw.pop('panel', os.path.join(FIXTURE, 'panel.csv'))}\n\n"
        "[run]\n"
        f"method = {kw.pop('method', 'equal')}\n"
        f"seed = {kw.pop('seed', 1)}\n"
        f"horizons = {kw.pop('horizons', '1')}\n"
        f"n_particles = {kw.pop('n_particles', 100)}\n"
        f"n_pred_draws = {kw.pop('n_pred_draws', 30)}\n"
        f"out_dir = {out_dir}\n"
        + kw.pop("extra", "")
    )
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path), out_dir


class TestSimulate:
    def test_writes_fixture_files(self, tmp_path):
        rc = main([
            "simulate", "--design", "complete_ar", "--length", "12",
            "--draws", "3", "--seed", "5", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert os.path.exists(tmp_path / "observations.csv")
        assert os.path.exists(tmp_path / "panel.csv")

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--design", "complete_ar", "--seed", "-1", "--out-dir", str(out_dir)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exit_2(self, tmp_path, capsys, sigma):
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--design", "complete_ar", "--sigma", sigma, "--out-dir", str(out_dir)]) == 2
        assert "sigma must be finite and > 0" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("flag", ["--draws", "--length"])
    def test_unallocatable_panel_exit_2(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "sim"
        argv = ["simulate", "--design", "complete_ar", flag, "1000000000000", "--out-dir", str(out_dir)]
        assert main(argv) == 2
        assert "above 100,000,000" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_one_draw_panel_run_exit_2_before_any_method(self, tmp_path, monkeypatch, capsys):
        # CRPS needs two draws of each model; gridsearch scores the filter's
        # draws instead, so only run rejects such a panel
        argv = ["simulate", "--design", "complete_ar", "--length", "20", "--draws", "1", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        monkeypatch.setattr(experiment, "run_method", lambda *a, **k: pytest.fail("a method ran"))
        grid = "[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 5\ngrid_particles = 40\n"
        cfg, out_dir = write_config(
            tmp_path, observations=str(tmp_path / "observations.csv"), panel=str(tmp_path / "panel.csv"),
            method="dtvw", extra=grid,
        )
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 2
        assert "single draw per cell" in capsys.readouterr().err
        assert not os.path.exists(out_dir)
        assert main(["gridsearch", "--config", cfg]) == 0
        surface = list(csv.DictReader(open(os.path.join(out_dir, "surface.csv"))))
        assert len(surface) == 9 and all(np.isfinite(float(row["crps"])) for row in surface)

    def test_simulate_then_run(self, tmp_path):
        main([
            "simulate", "--design", "nonlinear_incomplete", "--length", "30",
            "--draws", "4", "--seed", "2", "--out-dir", str(tmp_path),
        ])
        cfg, out_dir = write_config(
            tmp_path,
            observations=str(tmp_path / "observations.csv"),
            panel=str(tmp_path / "panel.csv"),
            method="bma",
        )
        assert main(["run", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out_dir, "scores.csv"))


class TestRun:
    def test_equal_run(self, tmp_path):
        cfg, out_dir = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        for name in ("scores.csv", "forecast.csv", "weights.csv", "cumls.csv"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_override_method(self, tmp_path):
        cfg, out_dir = write_config(tmp_path, extra="[bma_roll]\nwindow = 24\n")
        assert main(["run", "--config", cfg, "--method", "bma_roll"]) == 0
        rows = list(csv.DictReader(open(os.path.join(out_dir, "scores.csv"))))
        assert any(r["method"] == "bma_roll" for r in rows)

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nobservations = x\npanel = y\n\n[run]\nmethod = nope\n")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file_exit_4(self, tmp_path):
        cfg, _ = write_config(tmp_path, observations=str(tmp_path / "absent.csv"))
        assert main(["run", "--config", cfg]) == 4

    def test_config_directory_exit_4(self, tmp_path, capsys):
        # ConfigParser.read skips a file it cannot open, and the run then
        # stopped on the missing [data] section instead
        for command in ("run", "gridsearch"):
            assert main([command, "--config", str(tmp_path)]) == 4
            assert "Is a directory" in capsys.readouterr().err

    def test_undecodable_config_exit_2(self, tmp_path, capsys):
        cfg, out_dir = write_config(tmp_path, method="dtvw\xff")
        Path(cfg).write_bytes(Path(cfg).read_text().encode("latin-1"))
        for command in ("run", "gridsearch"):
            assert main([command, "--config", cfg]) == 2
            assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_undecodable_observations_exit_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_bytes(b"t,variable,value\n1,infl,0.1\n1,gr\xffowth,0.2\n")
        cfg, out_dir = write_config(tmp_path, observations=str(obs))
        assert main(["run", "--config", cfg]) == 2
        assert f"{obs}: not UTF-8 text" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_malformed_data_exit_2(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("t,variable,value\n1,y,0.1\n1,y,0.2\n")
        cfg, _ = write_config(tmp_path, observations=str(obs))
        assert main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize("t", ["1000000000000", "9" * 30], ids=["absurd_index", "overflowing_index"])
    def test_huge_index_exit_2(self, tmp_path, t, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"t,variable,value\n1,infl,0.1\n1,growth,0.2\n{t},infl,0.3\n")
        cfg, _ = write_config(tmp_path, observations=str(obs))
        assert main(["run", "--config", cfg]) == 2
        assert "obs.csv:4: " in capsys.readouterr().err

    def test_degeneracy_exit_3(self, tmp_path):
        # an observation astronomically far from every forecast under a tiny
        # noise scale drives all particle likelihoods to zero
        obs = tmp_path / "obs.csv"
        rows = ["t,variable,value"] + [f"{t},y,0.1" for t in range(1, 15)]
        rows[5] = "5,y,1e200"
        obs.write_text("\n".join(rows) + "\n")
        panel = tmp_path / "panel.csv"
        prows = ["t,model,variable,horizon,draw,value"]
        for t in range(1, 15):
            for m in ("a", "b"):
                prows += [f"{t},{m},y,1,1,0.1", f"{t},{m},y,1,2,0.1"]  # run needs two draws per cell
        panel.write_text("\n".join(prows) + "\n")
        cfg, out_dir = write_config(
            tmp_path, observations=str(obs), panel=str(panel), method="tvw",
            extra="[noise]\nsigma_obs = 0.001\n",
        )
        assert main(["run", "--config", cfg]) == 3
        # tables are written only after the last horizon
        assert not [name for name in os.listdir(out_dir) if name.endswith(".csv")]

    @pytest.mark.parametrize(
        "settings",
        [
            {"n_particles": "abc"},
            {"method": "dtvw", "n_pred_draws": 1, "commands": ("run",)},
            {"method": "dtvw", "extra": "baseline = bma_roll\n", "commands": ("run",)},
            {"method": "dtvw", "extra": "[gridsearch]\ngrid_particles = -5\n"},
            {"method": "dtvw", "extra": "[gridsearch]\neval_draws = 1\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_step = -1\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_obs = -1\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_obs = 0\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_obs = 1e200\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_obs = 1, 1e-200\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_x = -1\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_alpha = nan\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage1 = 0, inf, 1\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage1 = nan, 1, 1\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_step = nan\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_step = inf\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_bounds = -2, nan, -2, 2\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage1 = 0, 1e12, 1e-9\n"},
            {"method": "dtvw", "extra": "[dtvw]\nx0_spread = -1\n"},
            {"method": "dtvw", "extra": "[dtvw]\nx0_spread = nan\n"},
            {"method": "dtvw", "extra": "[dtvw]\nalpha0 = 0, nan, 1\n", "commands": ("run",)},
            {"method": "dtvw", "extra": "[gridsearch]\nstage1 = 0, 1e9, 1e-9\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_step = 1e-6\n"},
            {"method": "dtvw", "horizons": "1,1"},
            {"method": "dtvw", "horizons": "1, 3, 1"},
            {"seed": -1},
            {"method": "bma_roll", "extra": "[bma_roll]\nwindow = 0\n", "commands": ("run",)},
            {"method": "dtvw", "extra": "[dtvw]\nfallback_sigma = -1\n", "commands": ("run",)},
            {"method": "dtvw", "extra": "[dtvw]\nfallback_sigma = nan\n", "commands": ("run",)},
            {"method": "dtvw", "extra": "eval_end = 0\n"},
            {"method": "dtvw", "extra": "eval_start = -5\n"},
            {"method": "dtvw", "n_particles": 10**10},
            {"method": "dtvw", "extra": f"[gridsearch]\ngrid_particles = {10**10}\n"},
            {"method": "dtvw", "n_pred_draws": 10**12, "commands": ("run",)},
            {"method": "dtvw", "extra": f"[gridsearch]\neval_draws = {10**12}\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_bounds = 1, -1, -1, 1\n"},
            {
                "method": "dtvw",
                "extra": "[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\nstage2_bounds = -1, 1, -1, 1\n",
            },
        ],
        ids=[
            "unparsable_int", "one_pred_draw", "baseline_bma_roll_without_window",
            "negative_grid_particles", "one_eval_draw", "negative_stage2_step",
            "negative_sigma_obs", "zero_sigma_obs", "overflowing_sigma_obs_square",
            "underflowing_sigma_obs_square", "negative_sigma_x", "nan_sigma_alpha",
            "infinite_stage1", "nan_stage1", "nan_stage2_step", "infinite_stage2_step",
            "nan_stage2_bounds", "unindexable_stage1", "negative_x0_spread", "nan_x0_spread",
            "nan_alpha0", "huge_stage1", "huge_stage2", "repeated_horizon", "horizon_repeated_later",
            "negative_seed", "zero_window", "negative_fallback_sigma", "nan_fallback_sigma",
            "zero_eval_end", "negative_eval_start", "unallocatable_particles", "unallocatable_grid_particles",
            "unallocatable_pred_draws", "unallocatable_eval_draws", "reversed_stage2_bounds",
            "stage2_bounds_without_step",
        ],
    )
    def test_config_error_exit_2_before_loading(self, tmp_path, settings):
        # absent data files would exit 4 if they were opened before the check;
        # a key only `run` reads is checked only by `run`, and a [gridsearch]
        # key only by `gridsearch`
        settings = dict(settings)
        search_only = "[gridsearch]" in settings.get("extra", "")
        commands = settings.pop("commands", ("gridsearch",) if search_only else ("run", "gridsearch"))
        cfg, out_dir = write_config(
            tmp_path,
            observations=str(tmp_path / "absent_obs.csv"),
            panel=str(tmp_path / "absent_panel.csv"),
            **settings,
        )
        for command in commands:
            assert main([command, "--config", cfg]) == 2
        assert not os.path.exists(out_dir)
        if search_only:
            cfg, out_dir = write_config(tmp_path, **settings)
            assert main(["run", "--config", cfg]) == 0
            assert os.path.exists(os.path.join(out_dir, "scores.csv"))

    @pytest.mark.parametrize(
        "flags, message, commands",
        [
            (["--seed", "-1"], "seed must be >= 0", ("run", "gridsearch")),
            (["--horizons", "x"], "--horizons", ("run", "gridsearch")),
            (["--horizons", "1,2.5"], "--horizons", ("run", "gridsearch")),
            (["--horizons", ""], "--horizons", ("run", "gridsearch")),
            (["--surface", ""], "--surface", ("gridsearch",)),
        ],
        ids=["negative_seed", "unparsable_horizon", "fractional_horizon", "empty_horizons", "empty_surface"],
    )
    def test_flag_error_exit_2_before_loading(self, tmp_path, capsys, flags, message, commands):
        cfg, out_dir = write_config(
            tmp_path, method="dtvw",
            observations=str(tmp_path / "absent_obs.csv"), panel=str(tmp_path / "absent_panel.csv"),
        )
        for command in commands:
            assert main([command, "--config", cfg, *flags]) == 2
            assert message in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    def test_empty_window_at_a_later_horizon_exit_2_before_any_filter(self, tmp_path, monkeypatch):
        from divcast import experiment

        def fail(*args, **kwargs):
            raise AssertionError("a method ran before the evaluation windows were checked")

        monkeypatch.setattr(experiment, "run_method", fail)
        cfg, out_dir = write_config(
            tmp_path, method="dtvw", horizons="1,3", extra="eval_end = 2\nbaseline = bma\n"
        )
        assert main(["run", "--config", cfg]) == 2
        assert not os.path.exists(out_dir)

    def test_names_needing_quotes_survive_run_and_score(self, tmp_path):
        rng = np.random.default_rng(4)
        names = ('in,fl', 'gr"owth')
        obs = ObservationSeries(rng.normal(size=(30, 2)), names)
        panel = PredictorPanel(rng.normal(size=(30, 2, 2, 1, 4)), ('m,1', 'm"2'), names)
        save_observations(obs, str(tmp_path / "obs.csv"))
        save_panel(panel, str(tmp_path / "panel.csv"))
        cfg, out_dir = write_config(
            tmp_path,
            observations=str(tmp_path / "obs.csv"),
            panel=str(tmp_path / "panel.csv"),
            method="bma",
        )
        assert main(["run", "--config", cfg]) == 0
        scored = str(tmp_path / "scored.csv")
        rc = main([
            "score", "--observations", str(tmp_path / "obs.csv"),
            "--run", f"first={out_dir}", "--run", f"again={out_dir}", "--out", scored,
        ])
        assert rc == 0
        run_rows = {
            r["variable"]: r for r in csv.DictReader(open(os.path.join(out_dir, "scores.csv")))
            if r["method"] == "bma"
        }
        score_rows = [r for r in csv.DictReader(open(scored)) if r["method"] == "again"]
        assert [r["variable"] for r in score_rows] == [*names, "average"]
        for r in score_rows:
            in_run = run_rows[r["variable"]]
            assert (r["rmsfe"], r["crps"]) == (in_run["rmsfe"], in_run["crps"])
        weights = list(csv.DictReader(open(os.path.join(out_dir, "weights.csv"))))
        assert {(r["model"], r["variable"]) for r in weights} == {
            (m, v) for m in ('m,1', 'm"2') for v in names
        }

    @pytest.mark.parametrize("reserved", ["average", "joint"])
    def test_reserved_variable_name_exit_2(self, tmp_path, capsys, reserved):
        # scores.csv would hold two rows named `reserved` per method, and
        # `report` would reject run's own output
        rng = np.random.default_rng(5)
        names = (reserved, "y")
        rows = "".join(f"{t},{v},{rng.normal()!r}\n" for t in range(1, 31) for v in names)
        (tmp_path / "obs.csv").write_text("t,variable,value\n" + rows)
        panel = PredictorPanel(rng.normal(size=(30, 2, 2, 1, 4)), ("m1", "m2"), names)
        save_panel(panel, str(tmp_path / "panel.csv"))
        cfg, out_dir = write_config(
            tmp_path, observations=str(tmp_path / "obs.csv"), panel=str(tmp_path / "panel.csv")
        )
        assert main(["run", "--config", cfg]) == 2
        assert f"variable name {reserved!r} is reserved" in capsys.readouterr().err
        assert not os.path.exists(out_dir)


class TestGridsearch:
    def test_small_grid(self, tmp_path):
        cfg, out_dir = write_config(
            tmp_path,
            method="dtvw",
            n_particles=60,
            extra=(
                "[dtvw]\nalpha0 = 0, 5, 1\n\n"
                "[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 5\n"
                "grid_particles = 40\n"
            ),
        )
        assert main(["gridsearch", "--config", cfg]) == 0
        surface = list(csv.DictReader(open(os.path.join(out_dir, "surface.csv"))))
        assert len(surface) == 9
        assert {"alpha1", "alpha2", "crps"} == set(surface[0])
        for row in surface:
            for cell in row.values():
                assert cell == repr(float(cell))  # Python float text, never np.float64(...)

    def test_reads_the_dtvw_section_whatever_the_run_method(self, tmp_path):
        # the search always tunes dtvw: [dtvw] applies, [run] method and the
        # section it names do not
        grid = "[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 5\ngrid_particles = 40\n"
        cases = {
            "dtvw": ("dtvw", "[dtvw]\nx0_spread = 3\n\n"),
            "tvw": ("tvw", "[tvw]\nx0_spread = 0.5\n\n[dtvw]\nx0_spread = 3\n\n"),
            "no_spread": ("dtvw", ""),
        }
        surfaces = {}
        for name, (method, section) in cases.items():
            (tmp_path / name).mkdir()
            cfg, out_dir = write_config(tmp_path / name, method=method, n_particles=60, extra=section + grid)
            assert main(["gridsearch", "--config", cfg]) == 0
            with open(os.path.join(out_dir, "surface.csv"), "rb") as fh:
                surfaces[name] = fh.read()
        assert surfaces["tvw"] == surfaces["dtvw"]
        assert surfaces["no_spread"] != surfaces["dtvw"]

    @pytest.mark.parametrize(
        "settings",
        [
            {"n_pred_draws": 1},
            {"extra": "baseline = bma_roll\n"},
            {"extra": "baseline = nope\n"},
            {"extra": "[dtvw]\nfallback_sigma = -1\n"},
            {"extra": "[dtvw]\nalpha0 = nan, 1, 2\n"},
        ],
        ids=[
            "one_pred_draw", "baseline_bma_roll_without_window", "unknown_baseline", "negative_fallback_sigma",
            "non_finite_alpha0",
        ],
    )
    def test_ignores_the_run_only_keys(self, tmp_path, settings):
        # the search samples eval_draws, scores neither a baseline nor the
        # single models, and starts every point from its own lattice
        # coefficients, so a [run] n_pred_draws or baseline, a fallback_sigma
        # or an alpha0 that `run` would reject leaves it unchanged
        grid = "[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 5\ngrid_particles = 40\n"
        surfaces = []
        for name, keyed in (("plain", {}), ("keyed", settings)):
            (tmp_path / name).mkdir()
            kw = dict(method="dtvw", n_particles=60, **keyed)
            kw["extra"] = kw.get("extra", "") + grid
            cfg, out_dir = write_config(tmp_path / name, **kw)
            assert main(["gridsearch", "--config", cfg]) == 0
            with open(os.path.join(out_dir, "surface.csv"), "rb") as fh:
                surfaces.append(fh.read())
        assert surfaces[0] == surfaces[1]

    def test_horizon_beyond_panel_exit_2_before_filtering(self, tmp_path, capsys):
        # the fixture panel has horizons 1..3; the objective's filter is built
        # once, so the search stops before any point instead of scoring all inf
        cfg, out_dir = write_config(
            tmp_path,
            method="dtvw",
            horizons="5",
            extra="[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 5\n",
        )
        assert main(["gridsearch", "--config", cfg]) == 2
        assert "horizon 5 outside panel range 1..3" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out_dir, "surface.csv"))


def write_degenerate_inputs(tmp_path, problem, grid="stage1 = -4, 4, 4\nstage2_step = 1\n"):
    """The degenerate_problem fixture as files, and a search config, by
    default of two stages: alpha1 <= 0 fails at every lattice point,
    alpha1 = 4 at none."""
    obs, panel, _ = problem
    save_observations(obs, str(tmp_path / "obs.csv"))
    save_panel(panel, str(tmp_path / "panel.csv"))
    return write_config(
        tmp_path,
        observations=str(tmp_path / "obs.csv"),
        panel=str(tmp_path / "panel.csv"),
        method="dtvw",
        n_particles=256,
        extra=(
            "[noise]\nsigma_obs = 1e-154\n\n[dtvw]\nx0_spread = 5\n\n"
            f"[gridsearch]\n{grid}eval_draws = 5\n"
        ),
    )


class TestGridWorkers:
    """gridsearch runs one forked worker per CPU; tune._cpus sets the count."""

    def test_surface_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, forked, degenerate_problem):
        # stage one's 9 points split 5 + 4 at two workers and 3 + 3 + 3 at
        # three, so a child's chunk holds failing points, alone or beside
        # healthy ones
        cfg, out_dir = write_degenerate_inputs(tmp_path, degenerate_problem)
        surfaces = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tune, "_cpus", lambda: workers)
            before = len(forked)
            surface = str(tmp_path / f"surface{workers}.csv")
            assert main(["gridsearch", "--config", cfg, "--surface", surface]) == 0
            assert len(forked) - before == 2 * (workers - 1)  # two stages
            with open(surface, "rb") as fh:
                surfaces.append(fh.read())
        rows = list(csv.reader(surfaces[0].decode().splitlines()))[1:]
        assert [r[2] == "inf" for r in rows[:9]] == [True] * 6 + [False] * 3
        assert len(rows) == 9 + 21
        assert surfaces[1] == surfaces[0] and surfaces[2] == surfaces[0]

    def test_every_point_failed_exit_3(self, tmp_path, capsys, degenerate_problem):
        # alpha1 in {-4, 0}: no point has a CRPS, so there is no best point
        grid = "stage1 = -4, 0, 4\nstage2_step = none\n"
        cfg, out_dir = write_degenerate_inputs(tmp_path, degenerate_problem, grid)
        assert main(["gridsearch", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert "best" not in out
        assert "all 4 grid points failed" in err
        assert not os.path.exists(os.path.join(out_dir, "surface.csv"))

    def test_lost_worker_exit_4(self, tmp_path, monkeypatch, capsys, forked, degenerate_problem):
        parent, run_block = os.getpid(), ParticleFilter.run_block

        def die_in_child(self, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_block(self, *args, **kwargs)

        monkeypatch.setattr(ParticleFilter, "run_block", die_in_child)
        monkeypatch.setattr(tune, "_cpus", lambda: 2)
        cfg, out_dir = write_degenerate_inputs(tmp_path, degenerate_problem)
        assert main(["gridsearch", "--config", cfg]) == 4
        assert "exited with code -9 without a result" in capsys.readouterr().err
        assert len(forked) == 1
        assert not os.path.exists(os.path.join(out_dir, "surface.csv"))

    def test_unwritable_surface_exit_4_before_the_search(self, tmp_path, monkeypatch, degenerate_problem):
        def fail(*args, **kwargs):
            raise AssertionError("the search ran before the output was checked")

        monkeypatch.setattr(ParticleFilter, "run_block", fail)
        cfg, _ = write_degenerate_inputs(tmp_path, degenerate_problem)
        surface = str(tmp_path / "missing" / "dir" / "surface.csv")
        assert main(["gridsearch", "--config", cfg, "--surface", surface]) == 4
        os.mkdir(tmp_path / "adir")
        assert main(["gridsearch", "--config", cfg, "--surface", str(tmp_path / "adir")]) == 4


RUN_TABLES = ("alphas.csv", "cumls.csv", "draws.csv", "forecast.csv", "scores.csv", "weights.csv")


def three_horizon_inputs(tmp_path):
    """Config keys of a simulated three-horizon panel run at horizons 2, 3
    and 1: two workers take 2 + 1 horizons, and the smallest one is always
    in a worker's chunk."""
    obs, panel = generate(SimSpec(design="complete_ar", T=30, seed=3, n_pred_draws=4, horizons=3))
    save_observations(obs, str(tmp_path / "obs.csv"))
    save_panel(panel, str(tmp_path / "panel.csv"))
    return {"observations": str(tmp_path / "obs.csv"), "panel": str(tmp_path / "panel.csv"), "horizons": "2,3,1"}


def die_in_a_worker(fn):
    """fn, but a forked child that calls it kills itself first."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)

    return wrapped


class TestRunWorkers:
    """run splits its horizons over one forked worker per CPU, and each
    worker writes its own rows of every table; tune._cpus sets the count."""

    @pytest.mark.parametrize(
        "inputs",
        ["fixture", "three_horizons", "large_draws"],
        ids=["fixture-tables_whole", "three_horizons-tables_whole", "fixture-large_draws"],
    )
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, forked, inputs):
        # large_draws: 238 targets over the two horizons x 2 variables x 210
        # draws, a draws.csv of 99,960 rows joined from the workers' files
        data = {
            "fixture": {"horizons": "1,3"},
            "large_draws": {"horizons": "1,3", "n_pred_draws": 210},
        }.get(inputs) or three_horizon_inputs(tmp_path)
        n_horizons = len(data["horizons"].split(","))
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tune, "_cpus", lambda: workers)
            cfg, out_dir = write_config(
                tmp_path, method="dtvw", out_dir=str(tmp_path / f"out{workers}"), extra="baseline = bma\n", **data
            )
            before = len(forked)
            assert main(["run", "--config", cfg]) == 0
            assert len(forked) - before == min(workers, n_horizons) - 1
            assert sorted(os.listdir(out_dir)) == list(RUN_TABLES)  # no temporary file left
            outs.append({name: (tmp_path / f"out{workers}" / name).read_bytes() for name in RUN_TABLES})
        assert outs[1] == outs[0] and outs[2] == outs[0]
        if inputs == "large_draws":
            assert outs[0]["draws.csv"].count(b"\n") == 1 + 99_960

    def test_degeneracy_in_a_worker_horizon_exit_3(self, tmp_path, monkeypatch, capsys, forked):
        run_method = experiment.run_method

        def degenerate_at_3(method, obs, panel, cfg, horizon, *args, **kwargs):
            if horizon == 3:
                raise DegeneracyError("every particle weight vanished at horizon 3")
            return run_method(method, obs, panel, cfg, horizon, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_method", degenerate_at_3)
        errors = []
        for workers in (1, 2):  # at two, horizon 3 runs in the worker
            monkeypatch.setattr(tune, "_cpus", lambda: workers)
            cfg, out_dir = write_config(tmp_path, method="dtvw", horizons="1,3")
            assert main(["run", "--config", cfg]) == 3
            errors.append(capsys.readouterr().err)
            assert os.listdir(out_dir) == []
        assert len(forked) == 1
        assert errors[1] == errors[0] == "numeric failure: every particle weight vanished at horizon 3\n"

    def test_lost_horizon_worker_exit_4(self, tmp_path, monkeypatch, capsys, forked):
        monkeypatch.setattr(experiment, "run_method", die_in_a_worker(experiment.run_method))
        monkeypatch.setattr(tune, "_cpus", lambda: 2)
        cfg, out_dir = write_config(tmp_path, method="dtvw", horizons="1,3")
        assert main(["run", "--config", cfg]) == 4
        assert "exited with code -9 without a result" in capsys.readouterr().err
        assert len(forked) == 1
        assert os.listdir(out_dir) == []

    def test_failed_row_write_in_a_worker_exit_4(self, tmp_path, monkeypatch, capsys, forked):
        parent, write_rows = os.getpid(), experiment._write_rows

        def fail_in_child(fh, blocks):
            if os.getpid() != parent:
                raise OSError(28, "No space left on device")
            write_rows(fh, blocks)

        monkeypatch.setattr(experiment, "_write_rows", fail_in_child)
        monkeypatch.setattr(tune, "_cpus", lambda: 2)
        cfg, out_dir = write_config(tmp_path, method="dtvw", horizons="1,3")
        assert main(["run", "--config", cfg]) == 4
        assert "No space left on device" in capsys.readouterr().err
        assert len(forked) == 1
        assert os.listdir(out_dir) == []  # no table and no temporary file


class TestScoreReport:
    def test_score_and_report(self, tmp_path):
        cfg_a, out_a = write_config(tmp_path, out_dir=str(tmp_path / "a"))
        main(["run", "--config", cfg_a])
        cfg_b, out_b = write_config(tmp_path, method="bma", out_dir=str(tmp_path / "b"), seed=2)
        main(["run", "--config", cfg_b])
        score_out = str(tmp_path / "scored.csv")
        rc = main([
            "score", "--observations", os.path.join(FIXTURE, "observations.csv"),
            "--run", f"equal={out_a}", "--run", f"bma={out_b}", "--out", score_out,
        ])
        assert rc == 0
        rows = list(csv.DictReader(open(score_out)))
        assert {r["method"] for r in rows} == {"equal", "bma"}
        report_out = str(tmp_path / "report.csv")
        rc = main([
            "report", os.path.join(out_a, "scores.csv"), os.path.join(out_b, "scores.csv"),
            "--out", report_out,
        ])
        assert rc == 0
        header = open(report_out).readline().strip().split(",")
        assert header[:3] == ["horizon", "variable", "metric"]
        assert "equal" in header and "bma" in header

    def test_conflicting_cells_exit_2_naming_both_files(self, tmp_path, capsys):
        header = "method,kind,horizon,variable,rmsfe,ls,crps\n"
        for name, crps in (("a.csv", "3.0"), ("b.csv", "9.0")):
            (tmp_path / name).write_text(header + f"dtvw,combiner,1,y,1.0,-1.0,{crps}\n")
        out = tmp_path / "report.csv"
        assert main(["report", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dtvw crps at horizon 1, variable 'y' is 3.0 in " in err
        assert "a.csv" in err and "but 9.0 in " in err and "b.csv" in err
        assert not out.exists()

    def test_identical_repeats_merge(self, tmp_path):
        header = "method,kind,horizon,variable,rmsfe,ls,crps\n"
        rows = {"a.csv": "M1,model,1,y,1.0,-1.0,0.5\ndtvw,combiner,1,y,0.9,,0.4\n",
                "b.csv": "M1,model,1,y,1.0,-1.0,0.5\ntvw,combiner,1,y,0.8,-0.7,0.3\n"}
        for name, text in rows.items():
            (tmp_path / name).write_text(header + text)
        out = tmp_path / "report.csv"
        assert main(["report", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "horizon,variable,metric,M1,tvw,dtvw",
            "1,y,rmsfe,1.0,0.8,0.9",
            "1,y,ls,-1.0,-0.7,",
            "1,y,crps,0.5,0.3,0.4",
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("method,variable,rmsfe,ls,crps\nequal,y,1.0,-1.0,0.5\n", "scores.csv: score header lacks horizon"),
            ("method,horizon,variable,rmsfe,ls,crps\nequal,one,y,1.0,-1.0,0.5\n", "scores.csv:2: non-integer horizon 'one'"),
        ],
        ids=["no_horizon_column", "non_integer_horizon"],
    )
    def test_malformed_score_file_exit_2(self, tmp_path, capsys, text, message):
        scores = tmp_path / "scores.csv"
        scores.write_text(text)
        assert main(["report", str(scores), "--out", str(tmp_path / "report.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.csv")

    def test_undecodable_score_file_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"method,kind,horizon,variable,rmsfe,ls,crps\nM\xff1,model,1,y,1.0,-1.0,0.5\n")
        assert main(["report", str(scores), "--out", str(tmp_path / "report.csv")]) == 2
        assert f"{scores}: not UTF-8 text" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.csv")

    def test_target_past_the_observations_exit_2(self, tmp_path, capsys):
        # the fixture run forecasts targets 1..120; the observations end at 100
        cfg, out_dir = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        lines = open(os.path.join(FIXTURE, "observations.csv")).read().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(line for line in lines if line[0] == "t" or int(line.split(",")[0]) <= 100) + "\n")
        scored = tmp_path / "scored.csv"
        assert main(["score", "--observations", str(short), "--run", f"equal={out_dir}", "--out", str(scored)]) == 2
        err = capsys.readouterr().err
        assert "forecast.csv: target 120 lies past the last observation, 100" in err
        assert not scored.exists()

    def test_bad_run_spec_exit_2(self, tmp_path):
        rc = main([
            "score", "--observations", os.path.join(FIXTURE, "observations.csv"),
            "--run", "missing-equals-sign",
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "runs, message",
        [
            (["a={out}", "a={absent}"], "--run NAME 'a' is given twice"),
            (["={out}"], "--run expects NAME=DIR with a non-empty NAME"),
        ],
        ids=["repeated_name", "empty_name"],
    )
    def test_run_name_exit_2_before_reading(self, tmp_path, capsys, runs, message):
        # a readable first directory and an absent second one: reading either
        # before the names are checked would write rows or exit 4
        cfg, out_dir = write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 0
        args = []
        for spec in runs:
            args += ["--run", spec.format(out=out_dir, absent=tmp_path / "absent")]
        scored = tmp_path / "scored.csv"
        rc = main([
            "score", "--observations", os.path.join(FIXTURE, "observations.csv"), *args,
            "--out", str(scored),
        ])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not scored.exists()


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "divcast.cli", "simulate", "--design", "complete_ar",
             "--length", "5", "--draws", "2", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert os.path.exists(tmp_path / "panel.csv")


def child_env(**overrides):
    """This process's environment for a fresh divcast process, without
    OPENBLAS_NUM_THREADS, which importing divcast here has already set."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    return env | {"PYTHONPATH": os.path.dirname(os.path.dirname(divcast.__file__))} | overrides


class TestStartup:
    def test_import_simulate_and_gridsearch_load_no_scipy(self, tmp_path):
        # scipy would be most of the start-up time of a command; none of
        # these three needs it
        cfg, _ = write_config(
            tmp_path,
            observations="observations.csv",
            panel="panel.csv",
            method="dtvw",
            n_particles=20,
            extra="[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 2\n",
        )
        code = textwrap.dedent(f"""
            import sys
            from divcast.cli import main
            assert "scipy" not in sys.modules, "import divcast.cli"
            args = ["--design", "complete_ar", "--length", "15", "--draws", "2", "--out-dir", "."]
            assert main(["simulate", *args]) == 0
            assert "scipy" not in sys.modules, "simulate"
            assert main(["gridsearch", "--config", {cfg!r}]) == 0
            assert "scipy" not in sys.modules, "gridsearch"
        """)
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status") or len(os.sched_getaffinity(0)) < 2,
        reason="needs /proc/self/status and two CPUs: OpenBLAS starts no thread pool on one",
    )
    def test_one_thread_after_a_fresh_import(self):
        # divcast runs one process per CPU, so importing it must start no
        # BLAS thread pool beside the main thread
        code = 'import divcast.cli; print(next(l for l in open("/proc/self/status") if l.startswith("Threads:")))'
        result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["Threads:", "1"]

    def test_a_callers_blas_thread_count_is_kept(self):
        code = 'import os, divcast.cli; print(os.environ["OPENBLAS_NUM_THREADS"])'
        env = child_env(OPENBLAS_NUM_THREADS="2")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "2"

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # no output may depend on the BLAS thread count: OpenBLAS splits a
        # product over threads from 9,216 entries, which is why crps_series
        # takes its pairwise term with einsum and not a (targets, draws) @
        # (draws,) product, about 120 x 200 here
        outputs = {}
        for threads in ("2", None):
            run_dir = tmp_path / f"threads_{threads}"
            run_dir.mkdir()
            cfg, out_dir = write_config(run_dir, method="dtvw", horizons="1,3", n_particles=200, n_pred_draws=200)
            env = child_env(**({"OPENBLAS_NUM_THREADS": threads} if threads else {}))
            argv = [sys.executable, "-m", "divcast.cli", "run", "--config", cfg]
            result = subprocess.run(argv, env=env, capture_output=True)
            assert result.returncode == 0, result.stderr
            outputs[threads] = {name: (Path(out_dir) / name).read_bytes() for name in sorted(os.listdir(out_dir))}
        assert "scores.csv" in outputs[None]
        assert outputs["2"] == outputs[None]

    def test_commands_load_no_openssl(self, tmp_path):
        # numpy.random's secrets, hmac and hashlib would load OpenSSL's
        # libcrypto (3.4 MB resident) through _hashlib; main blocks it, and
        # hashlib falls back to CPython's built-in digests without a word
        cfg, out_dir = write_config(
            tmp_path,
            observations="observations.csv",
            panel="panel.csv",
            method="dtvw",
            n_particles=20,
            n_pred_draws=20,
            extra="[gridsearch]\nstage1 = -2, 2, 2\nstage2_step = none\neval_draws = 2\n",
        )
        code = textwrap.dedent(f"""
            import sys
            from divcast import tune
            from divcast.cli import main
            tune._cpus = lambda: 2
            commands = [
                ["simulate", "--design", "complete_ar", "--length", "15", "--draws", "2", "--out-dir", "."],
                ["gridsearch", "--config", {cfg!r}],
                ["run", "--config", {cfg!r}],
                ["score", "--observations", "observations.csv", "--run", "dtvw={out_dir}", "--out", "scored.csv"],
                ["report", "scored.csv", "--out", "report.csv"],
            ]
            for argv in commands:
                assert main(argv) == 0, argv[0]
                assert sys.modules.get("_hashlib") is None, argv[0]
        """)
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert (tmp_path / "report.csv").exists()

    def test_run_loads_no_numpy_ma(self, tmp_path):
        # np.percentile loads numpy.ma (about 1.2 MB) through np.unique;
        # run takes forecast.csv's quantiles with metrics.percentiles
        cfg, out_dir = write_config(tmp_path, method="dtvw", n_particles=20, n_pred_draws=20, extra="baseline = bma\n")
        code = textwrap.dedent(f"""
            import sys
            from divcast.cli import main
            assert main(["run", "--config", {cfg!r}]) == 0
            assert "numpy.ma" not in sys.modules
        """)
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert len(list(csv.DictReader(open(os.path.join(out_dir, "forecast.csv"))))) == 2 * 120

    def test_a_library_import_keeps_openssl(self):
        # only main owns its process; a host program that imports divcast
        # keeps OpenSSL-only functions such as hashlib.scrypt
        pytest.importorskip("_hashlib")
        code = textwrap.dedent("""
            import sys, types
            import divcast.cli
            from divcast.rng import substream
            substream(1, "filter").normal()
            import hashlib
            assert isinstance(sys.modules["_hashlib"], types.ModuleType)
            assert hasattr(hashlib, "scrypt")
        """)
        result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_no_command_needs_scipy(self, tmp_path):
        # with scipy unimportable, run (DM against a bma baseline over the
        # fixture's 120 targets), score over two runs and report still work
        cfg_equal, out_equal = write_config(tmp_path, out_dir=str(tmp_path / "equal"), extra="baseline = bma\n")
        (tmp_path / "b").mkdir()
        cfg_bma, out_bma = write_config(tmp_path / "b", method="bma", out_dir=str(tmp_path / "bma"))
        observations = os.path.join(FIXTURE, "observations.csv")
        code = textwrap.dedent(f"""
            import sys
            sys.modules["scipy"] = None  # any import of scipy now raises
            from divcast.cli import main
            assert main(["run", "--config", {cfg_equal!r}]) == 0, "run"
            assert main(["run", "--config", {cfg_bma!r}]) == 0, "run"
            args = ["--run", "equal={out_equal}", "--run", "bma={out_bma}", "--out", "scored.csv"]
            assert main(["score", "--observations", {observations!r}, *args]) == 0, "score"
            assert main(["report", "scored.csv", "--out", "report.csv"]) == 0, "report"
        """)
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        for path, method in ((os.path.join(out_equal, "scores.csv"), "equal"), (tmp_path / "scored.csv", "bma")):
            rows = [r for r in csv.DictReader(open(path)) if r["method"] == method and r["variable"] in ("infl", "growth")]
            assert len(rows) == 2 and all(r["dm_crps_p"] != "" for r in rows)
        assert (tmp_path / "report.csv").exists()
