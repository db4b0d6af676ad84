import csv
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import divcast
from divcast.cli import main
from divcast.core import ObservationSeries, PredictorPanel
from divcast.dataio import save_observations, save_panel

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
                prows.append(f"{t},{m},y,1,1,0.1")
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
            {"method": "dtvw", "n_pred_draws": 1},
            {"method": "dtvw", "extra": "baseline = bma_roll\n"},
            {"method": "dtvw", "extra": "[gridsearch]\ngrid_particles = -5\n"},
            {"method": "dtvw", "extra": "[gridsearch]\neval_draws = 1\n"},
            {"method": "dtvw", "extra": "[gridsearch]\nstage2_step = -1\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_obs = -1\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_obs = 0\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_x = -1\n"},
            {"method": "dtvw", "extra": "[noise]\nsigma_alpha = nan\n"},
        ],
        ids=[
            "unparsable_int", "one_pred_draw", "baseline_bma_roll_without_window",
            "negative_grid_particles", "one_eval_draw", "negative_stage2_step",
            "negative_sigma_obs", "zero_sigma_obs", "negative_sigma_x", "nan_sigma_alpha",
        ],
    )
    def test_config_error_exit_2_before_loading(self, tmp_path, settings):
        # absent data files would exit 4 if they were opened before the check
        cfg, out_dir = write_config(
            tmp_path,
            observations=str(tmp_path / "absent_obs.csv"),
            panel=str(tmp_path / "absent_panel.csv"),
            **settings,
        )
        for command in ("run", "gridsearch"):
            assert main([command, "--config", cfg]) == 2
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

    def test_bad_run_spec_exit_2(self, tmp_path):
        rc = main([
            "score", "--observations", os.path.join(FIXTURE, "observations.csv"),
            "--run", "missing-equals-sign",
        ])
        assert rc == 2


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "divcast.cli", "simulate", "--design", "complete_ar",
             "--length", "5", "--draws", "2", "--out-dir", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert os.path.exists(tmp_path / "panel.csv")


class TestStartup:
    def test_scipy_imported_only_by_the_dm_test(self, tmp_path):
        # scipy.special is most of the start-up time of a command that never
        # scores forecasts
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
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(divcast.__file__)))
        result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
