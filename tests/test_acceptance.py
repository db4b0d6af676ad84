"""Acceptance suite.

Part A are exact/oracle checks; part B reproduces the qualitative simulation
findings at desk scale (T=100, N=1000 particles, D=10 draws, 20 seeds).
Each test prints one pass/fail line for its criterion.

Known-red criteria: B9's middle inequality (diversity-driven weights never
dominate the plain random-walk weights on RMSFE), B11's first leg, and B12's
incumbent-sign count share one structural cause documented in the project
notes; they are asserted as stated and allowed to fail.
"""

import csv
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from divcast import tune
from divcast.combine import bma_weights, single_model_result
from divcast.core import NoiseConfig
from divcast.dgp import SimSpec, generate
from divcast.filtering import run_filter, systematic_resample
from divcast.latent import ADAPTIVE_TVW, DTVW, TVW
from divcast.metrics import crps_series, dm_test
from divcast.tune import GridSpec, grid_search, make_crps_runner

N_SEEDS = 20
SEEDS = range(N_SEEDS)
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pseudo_empirical")


def report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------------- part A


class TestA1DiversityInvariants:
    def test_a1(self):
        from divcast.diversity import scaled_diversity

        rng = np.random.default_rng(101)
        t0 = time.time()
        preds = rng.normal(scale=rng.uniform(0.1, 10.0), size=(5, 10_000))
        d = scaled_diversity(preds)
        col_ok = np.allclose(d.sum(axis=0), 1.0, atol=1e-10)
        shift = scaled_diversity(preds + rng.normal(scale=100.0, size=(1, 10_000)))
        loc_ok = np.allclose(shift, d, atol=1e-10)
        scale_ok = np.allclose(scaled_diversity(-2.5 * preds), d, atol=1e-10)
        two = scaled_diversity(rng.normal(size=(2, 10_000)))
        sym_ok = np.allclose(two, 0.5, atol=1e-10)
        elapsed = time.time() - t0
        ok = col_ok and loc_ok and scale_ok and sym_ok and elapsed < 1.0
        assert report(
            "A1",
            ok,
            f"column sums/location/scale/K=2 symmetry over 1e4 cases in {elapsed:.2f}s",
        )


class TestA2Crps:
    def test_a2(self):
        rng = np.random.default_rng(202)
        t0 = time.time()
        worst = 0.0
        for _ in range(50):
            D = int(rng.integers(2, 201))
            draws = rng.normal(scale=rng.uniform(0.3, 3.0), size=D)
            y = rng.normal()
            naive = np.abs(draws - y).mean() - 0.5 * np.abs(draws[:, None] - draws[None, :]).mean()
            worst = max(worst, abs(crps_series(draws[None], [y])[0] - naive))
        sample = crps_series(rng.standard_normal((1, 10_000)), [0.0])[0]
        analytic = 0.23370
        rel = abs(sample - analytic) / analytic
        elapsed = time.time() - t0
        ok = worst < 1e-10 and rel < 0.02 and elapsed < 1.0
        assert report(
            "A2", ok, f"sorted-form vs naive max err {worst:.2e}; N(0,1) rel err {rel:.3%} in {elapsed:.2f}s"
        )


class TestA3DmBruteForce:
    def test_a3(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(50):
            T = int(rng.integers(20, 150))
            a = rng.normal(size=T) ** 2
            b = rng.normal(size=T) ** 2
            for h in (1, 3):
                d = a - b
                dbar = d.mean()
                gam = [np.sum((d[lag:] - dbar) * (d[:T - lag] - dbar)) / T for lag in range(h)]
                var = gam[0] + 2 * sum((1 - lag / h) * gam[lag] for lag in range(1, h))
                ref = dbar / np.sqrt(var / T) * np.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T)
                got = dm_test(a, b, h=h)
                worst = max(worst, abs(got.statistic - ref))
                worst = max(worst, abs(got.p_value - 2 * stats.t.sf(abs(ref), df=T - 1)))
        assert report("A3", worst < 1e-10, f"max |stat/p - reference| = {worst:.2e} over 50 pairs")


class TestA4DeterministicLimit:
    def test_a4(self):
        obs, panel = generate(SimSpec(design="complete_ar", T=200, seed=42, n_pred_draws=5))
        cfg = NoiseConfig(np.array([0.2]), sigma_x=0.0, sigma_alpha=0.0)
        out = run_filter(obs, panel, TVW, cfg=cfg, n_particles=1, seed=0, n_pred_draws=2)
        K = panel.n_models
        direct = np.empty((200, 1))
        for t in range(1, 201):
            acc = 0.0
            for k in range(K):
                acc += (1.0 / K) * panel.mean_matrix(t, 1)[k, 0]
            direct[t - 1, 0] = acc
        ok = np.array_equal(out.forecasts.point, direct) and np.all(out.weights_mean == 1.0 / K)
        assert report("A4", ok, "single-particle zero-noise run equals direct recursion bitwise (T=200)")


class TestA5BmaClosedForm:
    def test_a5(self):
        lp = np.zeros((2, 2))
        lp[0] = [0.0, -np.log(3.0)]
        w = bma_weights(lp)[1]
        err = max(abs(w[0] - 0.75), abs(w[1] - 0.25))
        assert report("A5", err < 1e-12, f"cumulative scores (0, -ln 3) -> weights off by {err:.2e}")


class TestA6SystematicResample:
    def test_a6(self):
        ok = True
        for seed in range(10):
            idx = systematic_resample(np.full(4, 0.25), np.random.default_rng(seed))
            ok &= sorted(idx.tolist()) == [0, 1, 2, 3]
        w = np.zeros(16)
        w[11] = 1.0
        idx = systematic_resample(w, np.random.default_rng(0))
        ok &= bool(np.all(idx == 11))
        assert report("A6", ok, "uniform N=4 selects each index once; degenerate selects one index N times")


class TestA7Determinism:
    def test_a7(self, tmp_path):
        data_dir = tmp_path / "data"
        rc = subprocess.run(
            [sys.executable, "-m", "divcast.cli", "simulate", "--design", "complete_ar",
             "--length", "40", "--draws", "5", "--seed", "3", "--out-dir", str(data_dir)],
            capture_output=True, text=True,
        )
        assert rc.returncode == 0, rc.stderr
        outputs = []
        for tag in ("first", "second"):
            out_dir = tmp_path / tag
            cfg = tmp_path / f"{tag}.ini"
            cfg.write_text(
                "[data]\n"
                f"observations = {data_dir / 'observations.csv'}\n"
                f"panel = {data_dir / 'panel.csv'}\n\n"
                "[run]\nmethod = dtvw\nseed = 12\nn_particles = 200\nn_pred_draws = 50\n"
                f"out_dir = {out_dir}\n\n[dtvw]\nalpha0 = 0, 10, 8.5\n\n"
                "[gridsearch]\nstage1 = -4, 4, 2\nstage2_step = none\neval_draws = 5\n"
                "grid_particles = 50\n"
            )
            for command in ("run", "gridsearch"):
                rc = subprocess.run(
                    [sys.executable, "-m", "divcast.cli", command, "--config", str(cfg)],
                    capture_output=True, text=True,
                )
                assert rc.returncode == 0, rc.stderr
            outputs.append(
                ((out_dir / "scores.csv").read_bytes(), (out_dir / "surface.csv").read_bytes())
            )
        ok = outputs[0] == outputs[1]
        assert report("A7", ok, "scores.csv and surface.csv byte-identical across two same-seed runs")


# ----------------------------------------------------------------- part B


def _rmsfe_of(fs, obs):
    y = obs.values[fs.targets - 1]
    return float(np.sqrt(((y - fs.point) ** 2).mean()))


def _ls_of(fs):
    return float(-fs.log_pred.mean())


def _crps_of(fs):
    return float(fs.crps[:, 0].mean())


def _over_seeds(fn):
    """[fn(s) for s in SEEDS], with the seeds split into one contiguous chunk
    per CPU and the chunks run at the same time by tune._map_forked.  Inside
    a seed tune._cpus is pinned to 1, so a grid search does not fork again;
    its surface does not depend on the worker count."""

    def run_chunk(chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tune, "_cpus", lambda: 1)
            return [fn(s) for s in chunk.tolist()]

    return tune._map_forked(run_chunk, np.array_split(np.array(SEEDS), min(tune._cpus(), N_SEEDS)))


@pytest.fixture(scope="module")
def complete_batch():
    """Eq 4.1 design at desk scale: per-seed DTVW/TVW/adaptive runs."""
    t0 = time.time()

    def one_seed(s):
        obs, panel = generate(SimSpec(design="complete_ar", T=100, seed=s, n_pred_draws=10))
        dtvw = run_filter(obs, panel, DTVW, n_particles=1000, seed=s, alpha0=(0.0, 10.0, 8.5))
        tvw = run_filter(obs, panel, TVW, n_particles=1000, seed=s)
        adaptive = run_filter(obs, panel, ADAPTIVE_TVW, n_particles=1000, seed=s, alpha0=(0.0, 9.0, 0.0))
        model_rmsfe = [
            _rmsfe_of(single_model_result(obs, panel, k).forecasts, obs) for k in (1, 2, 3)
        ]
        return {
            "obs": obs, "panel": panel, "dtvw": dtvw, "tvw": tvw, "adaptive": adaptive,
            "model_rmsfe": model_rmsfe,
        }

    batch = _over_seeds(one_seed)
    print(f"[B-setup] complete-design batch: {time.time() - t0:.1f}s for {N_SEEDS} seeds x 3 methods")
    return batch


@pytest.fixture(scope="module")
def nonlinear_batch():
    """Eq 4.3 design: per-seed two-stage-tuned DTVW vs TVW plus model scores."""
    t0 = time.time()
    spec = GridSpec(stage1=((-10.0, 10.0, 2.0), (-10.0, 10.0, 2.0)), stage2_step=0.5)

    def one_seed(s):
        obs, panel = generate(
            SimSpec(design="nonlinear_incomplete", T=100, seed=s, n_pred_draws=10)
        )
        runner = make_crps_runner(obs, panel, n_particles=250, eval_draws=10)
        best, _ = grid_search(spec, runner, seed=s)
        dtvw = run_filter(
            obs, panel, DTVW, n_particles=1000, seed=s, alpha0=(0.0, best[0], best[1])
        )
        # run at the design's published initialization (7, 7) as well, for
        # the coefficient-trajectory criterion
        dtvw_ref = run_filter(obs, panel, DTVW, n_particles=1000, seed=s, alpha0=(0.0, 7.0, 7.0))
        tvw = run_filter(obs, panel, TVW, n_particles=1000, seed=s)
        model_crps = [
            _crps_of(single_model_result(obs, panel, k).forecasts)
            for k in range(1, panel.n_models + 1)
        ]
        return {
            "obs": obs, "best": best, "dtvw": dtvw, "dtvw_ref": dtvw_ref, "tvw": tvw,
            "model_crps": model_crps,
        }

    batch = _over_seeds(one_seed)
    print(f"[B-setup] nonlinear batch incl. per-seed two-stage tuning: {time.time() - t0:.1f}s")
    return batch


class TestB8TrueModelIdentification:
    def test_b8(self, complete_batch):
        W1 = np.stack([b["dtvw"].weights_mean[:, 0, 0] for b in complete_batch])
        med = np.median(W1, axis=0)
        worst = med[39:].min()
        assert report("B8", worst > 0.9, f"median M1 weight min over t>=40 is {worst:.3f} (need > 0.9)")


class TestB9AccuracyOrdering:
    def test_b9_rmsfe_band(self, complete_batch):
        vals = [_rmsfe_of(b["dtvw"].forecasts, b["obs"]) for b in complete_batch]
        med = float(np.median(vals))
        ok = 0.05 <= med <= 0.08
        assert report("B9-band", ok, f"median DTVW RMSFE {med:.4f} within [0.05, 0.08] (paper 0.063)")

    def test_b9_ls_sanity(self, complete_batch):
        # loose check against the published -0.952: our log scores include the
        # Gaussian normalizer with a calibrated scale, so only the sign and
        # order of magnitude are comparable
        med = float(np.median([_ls_of(b["dtvw"].forecasts) for b in complete_batch]))
        assert report("B9-ls", med < 0.0, f"median DTVW LS {med:.3f} (published value -0.952)")

    def test_b9_ordering_chain(self, complete_batch):
        hits = 0
        for b in complete_batch:
            m1, m2, m3 = b["model_rmsfe"]
            d = _rmsfe_of(b["dtvw"].forecasts, b["obs"])
            t = _rmsfe_of(b["tvw"].forecasts, b["obs"])
            if m1 < d <= t < m2 < m3:
                hits += 1
        # Known-red: the diversity drift keeps a weight floor on the most
        # distant model, so DTVW <= TVW fails systematically (see notes).
        assert report(
            "B9-order", hits >= 16, f"RMSFE chain M1<DTVW<=TVW<M2<M3 holds in {hits}/20 seeds (need 16)"
        )


class TestB10AdaptiveRecovery:
    def test_b10(self, complete_batch):
        A = np.stack([b["adaptive"].alpha_mean for b in complete_batch])  # (S, T, 3)
        med_a1 = np.median(A[:, :, 1], axis=0)
        med_a0 = np.median(A[:, :, 0], axis=0)
        ok = bool(np.all(med_a1 >= 7.0) and np.all(med_a1 <= 11.0) and np.all(np.abs(med_a0) < 1.0))
        assert report(
            "B10", ok,
            f"median alpha1 in [{med_a1.min():.2f},{med_a1.max():.2f}] (need [7,11]); "
            f"max |alpha0| {np.abs(med_a0).max():.3f} (need < 1)",
        )


class TestB11IncompleteDesign:
    def test_b11_combiners_beat_individual_models(self, nonlinear_batch):
        med_model = np.median(np.stack([b["model_crps"] for b in nonlinear_batch]), axis=0)
        med_dtvw = float(np.median([_crps_of(b["dtvw"].forecasts) for b in nonlinear_batch]))
        med_tvw = float(np.median([_crps_of(b["tvw"].forecasts) for b in nonlinear_batch]))
        best_model = float(med_model.min())
        ok = med_dtvw < best_model and med_tvw < best_model
        assert report(
            "B11-models", ok,
            f"median CRPS: DTVW {med_dtvw:.3f}, TVW {med_tvw:.3f}, best individual {best_model:.3f}",
        )

    def test_b11_dtvw_beats_tvw(self, nonlinear_batch):
        ls_d = np.array([_ls_of(b["dtvw"].forecasts) for b in nonlinear_batch])
        ls_t = np.array([_ls_of(b["tvw"].forecasts) for b in nonlinear_batch])
        cr_d = np.array([_crps_of(b["dtvw"].forecasts) for b in nonlinear_batch])
        cr_t = np.array([_crps_of(b["tvw"].forecasts) for b in nonlinear_batch])
        ls_gain = float(np.median(ls_t) - np.median(ls_d))
        cr_gain = float(np.median(cr_t) - np.median(cr_d))
        p_ls = stats.binomtest(int((ls_d < ls_t).sum()), N_SEEDS, alternative="greater").pvalue
        p_cr = stats.binomtest(int((cr_d < cr_t).sum()), N_SEEDS, alternative="greater").pvalue
        ok = ls_gain > 0 and cr_gain > 0 and p_ls < 0.05 and p_cr < 0.05
        # Known-red: see the blocking analysis in the project notes.
        assert report(
            "B11-vs-TVW", ok,
            f"median gains LS {ls_gain:+.4f} (sign-test p={p_ls:.3f}), "
            f"CRPS {cr_gain:+.4f} (p={p_cr:.3f}); need both > 0 with p < 0.05",
        )


class TestB12GridSearchSanity:
    def test_b12(self):
        t0 = time.time()
        spec = GridSpec(stage1=((-10.0, 10.0, 2.0), (-10.0, 10.0, 2.0)), stage2_step=0.5)

        def one_seed(s):
            obs, panel = generate(
                SimSpec(design="complete_ar", T=100, seed=s, n_pred_draws=10)
            )
            runner = make_crps_runner(obs, panel, n_particles=250, eval_draws=10)
            best, _ = grid_search(spec, runner, seed=s)
            return float(best[0]), float(best[1])

        # The seeds run in parallel, so the elapsed time is the wall time of
        # all 20 searches at once.
        incumbents = _over_seeds(one_seed)
        hits = sum(a2 >= 0 and a1 >= 3 for a1, a2 in incumbents)
        elapsed = time.time() - t0
        in_time = elapsed < 600
        # Known-red: the CRPS surface is flat in the incumbent region
        # |alpha2| <= 1, so the sign is undetermined (see notes).
        assert report(
            "B12", hits >= 15 and in_time,
            f"incumbent alpha2>=0 & alpha1>=3 in {hits}/20 seeds (need 15); {elapsed:.0f}s (< 600s)",
        )


class TestB13DiversityCoefficientSign:
    def test_b13(self, nonlinear_batch):
        # trajectory stability at the design's published initialization (7, 7)
        fracs = [float((b["dtvw_ref"].alpha_mean[:, 2] > 0).mean()) for b in nonlinear_batch]
        med = float(np.median(fracs))
        assert report("B13", med >= 0.9, f"median fraction of t with alpha2>0 is {med:.3f} (need >= 0.9)")


class TestPseudoEmpiricalPipeline:
    def test_end_to_end(self, tmp_path):
        """Multi-horizon scoring, rolling BMA (window 24) and DM annotations
        on the bundled pseudo-empirical fixture, via the CLI."""
        cfg = tmp_path / "run.ini"
        out_dir = tmp_path / "out"
        cfg.write_text(
            "[data]\n"
            f"observations = {os.path.join(FIXTURE, 'observations.csv')}\n"
            f"panel = {os.path.join(FIXTURE, 'panel.csv')}\n\n"
            "[run]\nmethod = bma_roll\nhorizons = 1,3\nseed = 5\nn_pred_draws = 100\n"
            f"out_dir = {out_dir}\n\n[bma_roll]\nwindow = 24\n"
        )
        rc = subprocess.run(
            [sys.executable, "-m", "divcast.cli", "run", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert rc.returncode == 0, rc.stderr
        rows = list(csv.DictReader(open(out_dir / "scores.csv")))
        horizons = {r["horizon"] for r in rows}
        annotated = [r for r in rows if r["dm_crps_p"] != ""]
        ok = horizons == {"1", "3"} and len(annotated) > 0
        assert report("pipeline", ok, "rolling BMA(24), horizons {1,3}, DM-annotated scores emitted")
