import csv
import os

import numpy as np
import pytest

from divcast.core import ConfigError, DataFormatError, InputError, ObservationSeries, PredictorPanel
from divcast.dataio import RunConfig, load_observations, load_panel
from divcast.experiment import build_report, run_experiment, run_method, score_runs, _noise_config
from divcast.metrics import loss_series

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pseudo_empirical")


@pytest.fixture(scope="module")
def pseudo_data():
    obs = load_observations(os.path.join(FIXTURE, "observations.csv"))
    panel = load_panel(os.path.join(FIXTURE, "panel.csv"))
    return obs, panel


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_bma_roll_multi_horizon(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        cfg = RunConfig(
            method="bma_roll",
            observations="-",
            panel="-",
            horizons=(1, 3),
            window=24,
            seed=3,
            n_pred_draws=50,
            out_dir=str(tmp_path / "out"),
        )
        paths = run_experiment(cfg, obs, panel)
        for name in ("scores.csv", "forecast.csv", "draws.csv", "cumls.csv", "weights.csv"):
            assert name in paths and os.path.exists(paths[name])
        assert "alphas.csv" not in paths  # not a filter method

        scores = read_csv(paths["scores.csv"])
        methods = {r["method"] for r in scores}
        assert methods == {"mdl_a", "mdl_b", "mdl_c", "bma_roll"}
        # per-variable rows + average + joint, for both horizons
        bma_rows = [r for r in scores if r["method"] == "bma_roll"]
        assert {r["variable"] for r in bma_rows} == {"infl", "growth", "average", "joint"}
        assert {r["horizon"] for r in bma_rows} == {"1", "3"}
        # DM annotations vs the default baseline (first model) are populated
        row = next(r for r in bma_rows if r["variable"] == "infl" and r["horizon"] == "1")
        assert row["baseline"] == "mdl_a"
        assert row["dm_rmsfe_stat"] != "" and float(row["dm_rmsfe_p"]) <= 1.0
        base_row = next(r for r in scores if r["method"] == "mdl_a" and r["variable"] == "infl")
        assert base_row["dm_rmsfe_stat"] == ""

        # BMA weights identical across variables
        weights = read_csv(paths["weights.csv"])
        by_tm = {}
        for r in weights:
            by_tm.setdefault((r["t"], r["model"]), set()).add(r["mean"])
        assert all(len(v) == 1 for v in by_tm.values())

        cumls = read_csv(paths["cumls.csv"])
        assert {r["variable"] for r in cumls} == {"infl", "growth", "joint"}

    def test_dtvw_emits_alphas_and_converges(self, tmp_path):
        from divcast.dgp import SimSpec, generate

        obs, panel = generate(SimSpec(design="complete_ar", T=60, seed=4, n_pred_draws=10))
        cfg = RunConfig(
            method="dtvw",
            observations="-",
            panel="-",
            alpha0=(0.0, 10.0, 8.5),
            n_particles=400,
            seed=4,
            n_pred_draws=100,
            out_dir=str(tmp_path / "out"),
        )
        paths = run_experiment(cfg, obs, panel)
        assert os.path.exists(paths["alphas.csv"])
        weights = read_csv(paths["weights.csv"])
        w1_final = [float(r["mean"]) for r in weights if r["model"] == "M1" and r["t"] == "60"]
        assert w1_final[0] > 0.8

    def test_bands_only_at_the_smallest_horizon(self, pseudo_data, tmp_path, monkeypatch):
        import divcast.experiment as experiment
        from divcast import tune

        # the recorder sees this process's calls only: run every horizon here
        monkeypatch.setattr(tune, "_cpus", lambda: 1)
        asked = []
        run_method = experiment.run_method

        def recording(method, *args, bands=True, **kwargs):
            out = run_method(method, *args, bands=bands, **kwargs)
            asked.append((method, args[3], bands, out.weights_mean is not None))
            return out

        monkeypatch.setattr(experiment, "run_method", recording)
        obs, panel = pseudo_data
        cfg = RunConfig(
            method="dtvw", observations="-", panel="-", horizons=(3, 1), baseline="tvw",
            n_particles=30, n_pred_draws=10, seed=2, out_dir=str(tmp_path / "out"),
        )
        paths = run_experiment(cfg, obs, panel)
        assert sorted(asked) == [
            ("dtvw", 1, True, True), ("dtvw", 3, False, False), ("tvw", 1, False, False), ("tvw", 3, False, False),
        ]
        assert len(read_csv(paths["alphas.csv"])) == 3 * obs.n_steps

    @staticmethod
    def _traced_peak_blocks(pseudo_data, tmp_path, monkeypatch, n_pred_draws, emit_draws, eval_start):
        # The traced peak of one fixture run (dtvw, 50 particles, baseline
        # bma, horizon 1), in (S, J, L) draws blocks.
        import tracemalloc

        from divcast import tune

        monkeypatch.setattr(tune, "_cpus", lambda: 1)  # trace every horizon in this process
        obs, panel = pseudo_data

        def run(draws, out):
            cfg = RunConfig(
                method="dtvw", observations="-", panel="-", alpha0=(0.0, 10.0, 8.5), n_particles=50,
                n_pred_draws=draws, baseline="bma", emit_draws=emit_draws, eval_start=eval_start,
                out_dir=str(tmp_path / out),
            )
            run_experiment(cfg, obs, panel)

        run(20, "warm")  # lazy imports are not a draws block
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(n_pred_draws, "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - start) / (obs.n_steps * n_pred_draws * obs.n_vars * 8)

    @pytest.mark.parametrize(
        "n_pred_draws, emit_draws, eval_start",
        [(5000, False, None), (1000, True, None), (5000, False, 2)],
        ids=["5000-False", "1000-True", "5000-False-eval_start2"],
    )
    def test_a_horizon_holds_one_draws_block_and_one_working_copy(
        self, pseudo_data, tmp_path, monkeypatch, n_pred_draws, emit_draws, eval_start
    ):
        # The ceiling: a horizon never holds more than one (S, J, L) draws
        # block and one working copy of it, with or without draws.csv rows
        # and with an evaluation window that cuts targets. Holding both
        # methods' blocks at once reached 3.5 blocks, copying a window's
        # kept rows 2.5.
        blocks = self._traced_peak_blocks(pseudo_data, tmp_path, monkeypatch, n_pred_draws, emit_draws, eval_start)
        assert blocks < 2, f"peaked at {blocks:.3f} blocks"

    @pytest.mark.parametrize(
        "n_pred_draws, emit_draws, eval_start",
        [(5000, False, None), (1000, True, None), (5000, False, 2)],
        ids=["5000-False", "1000-True", "5000-False-eval_start2"],
    )
    def test_a_horizon_holds_one_targets_draws(
        self, pseudo_data, tmp_path, monkeypatch, n_pred_draws, emit_draws, eval_start
    ):
        # Every method scores each target's draws as they are made, and the
        # main method's quantiles and draws.csv rows are taken one target at
        # a time: the traced peak stays under a quarter of one (S, J, L)
        # draws block, where holding a method's block and a working copy of
        # one variable reached 1.5 blocks.
        blocks = self._traced_peak_blocks(pseudo_data, tmp_path, monkeypatch, n_pred_draws, emit_draws, eval_start)
        assert blocks < 0.25, f"peaked at {blocks:.3f} blocks"

    def test_a_targets_crps_does_not_depend_on_the_window(self, pseudo_data):
        # Each target's CRPS is scored where its draws are made, so a window
        # that drops target 1 leaves every other target's bits as they were;
        # scoring the window's rows in one BLAS product moved 4 of the 238.
        obs, panel = pseudo_data
        cfg = RunConfig(
            method="dtvw", observations="-", panel="-", alpha0=(0.0, 10.0, 8.5),
            n_particles=1000, n_pred_draws=1000, seed=1,
        )
        fs = run_method("dtvw", obs, panel, cfg, 1, _noise_config(cfg, obs, panel), bands=False).forecasts
        whole, cut = loss_series(fs, obs), loss_series(fs, obs, (2, obs.n_steps))
        assert cut["crps"].shape == (obs.n_steps - 1, obs.n_vars) == (119, 2)
        assert cut["crps"].tobytes() == whole["crps"][1:].tobytes()

    def test_equal_on_two_model_panel_constant_half(self, tmp_path):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=(12, 2, 1, 1, 4))
        panel = PredictorPanel(draws, ("a", "b"), ("y",))
        obs = ObservationSeries(rng.normal(size=(12, 1)), ("y",))
        cfg = RunConfig(
            method="equal", observations="-", panel="-", seed=0,
            out_dir=str(tmp_path / "out"), emit_draws=False,
        )
        paths = run_experiment(cfg, obs, panel)
        weights = read_csv(paths["weights.csv"])
        assert all(float(r["mean"]) == 0.5 for r in weights)

    def test_determinism_byte_identical(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        outs = []
        for sub in ("a", "b"):
            cfg = RunConfig(
                method="equal", observations="-", panel="-", seed=9,
                horizons=(1,), out_dir=str(tmp_path / sub), emit_draws=False,
            )
            paths = run_experiment(cfg, obs, panel)
            outs.append(paths["scores.csv"])
        with open(outs[0], "rb") as fa, open(outs[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_evaluation_window_restricts_scores(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        cfg = RunConfig(
            method="equal", observations="-", panel="-", seed=1,
            eval_start=25, eval_end=60, out_dir=str(tmp_path / "out"), emit_draws=False,
        )
        paths = run_experiment(cfg, obs, panel)
        rows = read_csv(paths["scores.csv"])
        assert all(r["n_eval"] == "36" for r in rows)
        cumls = read_csv(paths["cumls.csv"])
        targets = sorted({int(r["target"]) for r in cumls})
        assert targets[0] == 25 and targets[-1] == 60

    def test_validation_errors(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        cfg = RunConfig(
            method="equal", observations="-", panel="-",
            horizons=(9,), out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError, match="horizon"):
            run_experiment(cfg, obs, panel)
        cfg2 = RunConfig(
            method="equal", observations="-", panel="-",
            baseline="nope", out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError, match="baseline"):
            run_experiment(cfg2, obs, panel)

    def test_variable_name_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        panel = PredictorPanel(rng.normal(size=(5, 2, 1, 1, 2)), ("a", "b"), ("x",))
        obs = ObservationSeries(rng.normal(size=(5, 1)), ("y",))
        cfg = RunConfig(method="equal", observations="-", panel="-", out_dir=str(tmp_path / "o"))
        with pytest.raises(InputError, match="variables"):
            run_experiment(cfg, obs, panel)


class TestScoreAndReport:
    def test_score_runs_consistency(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        dirs = []
        for method in ("equal", "bma"):
            cfg = RunConfig(
                method=method, observations="-", panel="-", seed=2,
                n_pred_draws=40, out_dir=str(tmp_path / method),
            )
            paths = run_experiment(cfg, obs, panel)
            dirs.append((method, cfg.out_dir))
            in_memory = {
                (r["method"], r["horizon"], r["variable"]): r
                for r in read_csv(paths["scores.csv"])
            }
        header, rows = score_runs(obs, dirs)
        assert rows, "score_runs produced no rows"
        by_key = {(r[0], str(r[1]), r[2]): r for r in rows}
        # RMSFE recomputed from emitted files matches the in-run value
        key = ("bma", "1", "infl")
        emitted = by_key[key]
        assert float(emitted[3]) == pytest.approx(float(in_memory[key]["rmsfe"]), rel=1e-12)
        # CRPS from draws.csv, a block per horizon, has the bits of the run's, scored target by target
        assert emitted[header.index("crps")] == float(in_memory[key]["crps"])
        assert emitted[-1] == "equal"  # first-listed run is the DM baseline

    def test_incomplete_draws_rejected(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        cfg = RunConfig(
            method="equal", observations="-", panel="-", n_pred_draws=5, out_dir=str(tmp_path / "run"),
        )
        paths = run_experiment(cfg, obs, panel)
        with open(paths["draws.csv"]) as fh:
            lines = fh.readlines()
        with open(paths["draws.csv"], "w") as fh:
            fh.writelines(lines[:-1])
        with pytest.raises(DataFormatError, match="incomplete forecasts or draws at horizon 1"):
            score_runs(obs, [("equal", cfg.out_dir)])

    def test_build_report_layout(self, pseudo_data, tmp_path):
        obs, panel = pseudo_data
        score_files = []
        for method in ("equal", "bma"):
            cfg = RunConfig(
                method=method, observations="-", panel="-", seed=2,
                n_pred_draws=30, out_dir=str(tmp_path / ("r_" + method)), emit_draws=False,
            )
            paths = run_experiment(cfg, obs, panel)
            score_files.append(paths["scores.csv"])
        header, rows = build_report(score_files)
        # models on the left, combiners on the right
        assert header[:3] == ["horizon", "variable", "metric"]
        assert header[3:6] == ["mdl_a", "mdl_b", "mdl_c"]
        assert header[6:] == ["equal", "bma"]
        metrics = {r[2] for r in rows}
        assert metrics == {"rmsfe", "ls", "crps"}
        filled = [r for r in rows if r[1] == "infl" and r[0] == 1]
        assert all(all(cell != "" for cell in r[3:]) for r in filled)

    def test_report_reads_a_score_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("\ufeffmethod,kind,horizon,variable,rmsfe,ls,crps\nequal,combiner,1,y,0.5,1.5,0.25\n", encoding="utf-8")
        header, rows = build_report([str(path)])
        assert header == ["horizon", "variable", "metric", "equal"]
        assert rows == [[1, "y", "rmsfe", "0.5"], [1, "y", "ls", "1.5"], [1, "y", "crps", "0.25"]]


class TestNoiseConfigDefaults:
    def test_scalar_broadcast(self, pseudo_data):
        obs, panel = pseudo_data
        cfg = RunConfig(method="equal", observations="-", panel="-", sigma_obs=(0.5,))
        noise = _noise_config(cfg, obs, panel)
        np.testing.assert_array_equal(noise.sigma_obs, [0.5, 0.5])

    def test_wrong_length_rejected(self, pseudo_data):
        obs, panel = pseudo_data
        cfg = RunConfig(method="equal", observations="-", panel="-", sigma_obs=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            _noise_config(cfg, obs, panel)

    def test_calibrated_when_absent(self, pseudo_data):
        obs, panel = pseudo_data
        cfg = RunConfig(method="equal", observations="-", panel="-")
        noise = _noise_config(cfg, obs, panel)
        assert noise.sigma_obs.shape == (2,) and np.all(noise.sigma_obs > 0)
