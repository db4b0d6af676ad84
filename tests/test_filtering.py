import numpy as np
import pytest

from divcast.core import (
    DegeneracyError,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    default_sigma_obs,
)
from divcast.dgp import SimSpec, gen_complete_ar
from divcast.diversity import diversity_vector
from divcast.filtering import (
    ParticleFilter,
    _combine_cloud,
    _gather,
    _gaussian_logpdf,
    effective_sample_size,
    run_filter,
    systematic_resample,
)
from divcast.latent import DTVW, TVW
from divcast.rng import standard_normal, substream
from oracles import combine_cloud_numpy, gaussian_logpdf_diag


class TestSystematicResample:
    def test_uniform_each_once(self):
        for seed in range(20):
            idx = systematic_resample(np.full(4, 0.25), np.random.default_rng(seed))
            assert sorted(idx.tolist()) == [0, 1, 2, 3]

    def test_degenerate_all_same(self):
        w = np.zeros(8)
        w[0] = 1.0
        idx = systematic_resample(w, np.random.default_rng(0))
        assert np.all(idx == 0)
        w = np.zeros(8)
        w[5] = 1.0
        idx = systematic_resample(w, np.random.default_rng(0))
        assert np.all(idx == 5)

    def test_half_half_counts(self):
        for seed in range(10):
            idx = systematic_resample(np.array([0.5, 0.5]), np.random.default_rng(seed), n=1000)
            counts = np.bincount(idx, minlength=2)
            assert abs(counts[0] - 500) <= 1 and abs(counts[1] - 500) <= 1

    def test_expected_multiplicity(self):
        rng = np.random.default_rng(1)
        w = rng.dirichlet(np.ones(6))
        counts = np.zeros(6)
        for rep in range(2000):
            counts += np.bincount(systematic_resample(w, np.random.default_rng(rep)), minlength=6)
        np.testing.assert_allclose(counts / (2000 * 6), w, atol=0.01)

    def test_block_rows_match_single_rows(self):
        w = np.random.default_rng(3).dirichlet(np.ones(12), size=4)
        block = systematic_resample(w, [np.random.default_rng(s) for s in range(4)], n=7)
        for s in range(4):
            np.testing.assert_array_equal(block[s], systematic_resample(w[s], np.random.default_rng(s), n=7))

    @pytest.mark.parametrize("n_rngs", [1, 3, 5])
    def test_block_needs_one_generator_per_row(self, n_rngs):
        w = np.full((4, 6), 1 / 6)
        with pytest.raises(InputError, match="one Generator per point"):
            systematic_resample(w, [np.random.default_rng(s) for s in range(n_rngs)], n=3)

    def test_unnormalized_rejected(self):
        with pytest.raises(InputError):
            systematic_resample(np.array([0.5, 0.6]), np.random.default_rng(0))
        with pytest.raises(InputError):
            systematic_resample(np.array([1.5, -0.5]), np.random.default_rng(0))


class TestStandardNormalBlock:
    @pytest.mark.parametrize("n_rngs", [2, 4])
    def test_needs_one_generator_per_slab(self, n_rngs):
        # zip would stop at the shorter side and leave slabs uninitialised
        with pytest.raises(InputError, match="one Generator per point"):
            standard_normal([np.random.default_rng(s) for s in range(n_rngs)], (3, 2))


class TestKernels:
    def test_combine_cloud_bitwise_equal_to_numpy_sum(self):
        rng = np.random.default_rng(5)
        for K in range(2, 13):
            for L in range(1, 4):
                weights = rng.dirichlet(np.ones(K), size=(3, 40, L))
                means = rng.normal(scale=rng.choice([1.0, 1e3]), size=(K, L))
                if L > 1:  # products all -0.0: numpy's sum starts from +0.0
                    means[:, -1] = -0.0
                got = _combine_cloud(weights, means)
                expected = combine_cloud_numpy(weights, means)
                assert got.shape == expected.shape == (3, 40, L)
                assert got.tobytes() == expected.tobytes(), (K, L)

    def test_gather_equals_fancy_indexing(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 10, 2, 4))
        idx = rng.integers(0, 10, size=(3, 7))
        np.testing.assert_array_equal(_gather(a, idx), a[np.arange(3)[:, None], idx])


class TestDiversityPath:
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_rows_are_the_diversity_vectors(self, horizon):
        obs, panel = gen_complete_ar(SimSpec(design="complete_ar", T=15, seed=4, n_pred_draws=4, horizons=2))
        pf = ParticleFilter(panel, DTVW, NoiseConfig(np.array([0.1])), horizon=horizon)
        assert pf.diversity_path.shape == (panel.n_steps, panel.n_models * panel.n_vars)
        for t in range(1, panel.n_steps + 1):
            assert pf.diversity_path[t - 1].tobytes() == diversity_vector(panel, t, horizon).tobytes()

    def test_built_once_per_filter(self, monkeypatch):
        import divcast.filtering as filtering

        calls = []

        def counting(panel, t, h):
            calls.append(t)
            return diversity_vector(panel, t, h)

        monkeypatch.setattr(filtering, "diversity_vector", counting)
        obs, panel = make_problem(T=12, seed=1)
        pf = ParticleFilter(panel, DTVW, NoiseConfig(np.array([0.1])), n_pred_draws=4)
        for seed in range(3):
            pf.run_block(obs, 16, np.zeros((2, 3)), [substream(seed, "filter") for _ in range(2)])
        assert calls == list(range(1, panel.n_steps + 1))


class TestEss:
    def test_uniform_is_one(self):
        assert effective_sample_size(np.full(10, 0.1)) == pytest.approx(1.0)

    def test_one_hot(self):
        w = np.zeros(8)
        w[3] = 1.0
        assert effective_sample_size(w) == pytest.approx(1 / 8)

    def test_range_and_uniform_iff_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            w = rng.dirichlet(np.ones(16))
            e = effective_sample_size(w)
            assert 1 / 16 - 1e-12 <= e <= 1 + 1e-12
            if not np.allclose(w, 1 / 16):
                assert e < 1


def make_problem(T=30, seed=0):
    obs, panel = gen_complete_ar(SimSpec(design="complete_ar", T=T, seed=seed, n_pred_draws=5))
    return obs, panel


class TestStep:
    def test_omega_normalized_and_ess_recorded(self):
        obs, panel = make_problem()
        cfg = NoiseConfig(np.array([0.1]))
        pf = ParticleFilter(panel, DTVW, cfg, n_pred_draws=8)
        state = pf.init_state(64, np.array([0.0, 2.0, 1.0])[None], 0.0, [substream(0, "filter")])
        for t in range(1, 11):
            state, rec = pf.step(state, obs.values[t - 1])
            assert abs(state.cloud.omega.sum() - 1.0) < 1e-10
            assert 1 / 64 - 1e-9 <= rec["ess"][0] <= 1 + 1e-9

    def test_log_predictive_prior_side(self):
        # the recorded predictive must equal logsumexp(log w_prior + loglik),
        # recomputed here by replaying the propagation from a state snapshot
        from divcast.latent import cloud_weight_tensor, propagate_cloud

        obs, panel = make_problem()
        cfg = NoiseConfig(np.array([0.1]))
        pf = ParticleFilter(panel, TVW, cfg, n_pred_draws=4)
        state = pf.init_state(32, np.zeros(3)[None], 0.5, [substream(1, "filter")])
        for t in range(1, 8):
            cloud_before = state.cloud  # step builds a new cloud; this one is not mutated
            rng_state = state.rng[0].bit_generator.state
            state, rec = pf.step(state, obs.values[t - 1])

            replay_rng = np.random.default_rng()
            replay_rng.bit_generator.state = rng_state
            cloud = propagate_cloud(cloud_before, np.zeros(3), TVW, cfg, [replay_rng])
            w_prior = cloud.omega[0] / cloud.omega[0].sum()
            weights = cloud_weight_tensor(cloud.x[0], panel.n_models, panel.n_vars)
            c = np.einsum("nlk,kl->nl", weights, panel.mean_matrix(t, 1))
            r = (obs.values[t - 1][None, :] - c) / cfg.sigma_obs[None, :]
            loglik = (-0.5 * (np.log(2 * np.pi * cfg.sigma_obs**2)[None, :] + r**2)).sum(axis=1)
            logv = np.log(w_prior) + loglik
            m = logv.max()
            expected = m + np.log(np.exp(logv - m).sum())
            assert rec["one_step_log_pred"][0] == pytest.approx(expected, abs=1e-10)

    def test_future_perturbation_invariance(self):
        obs, panel = make_problem(T=20, seed=3)
        cfg = NoiseConfig(np.array([0.1]))
        y2 = obs.values.copy()
        y2[12:] += 5.0  # perturb strictly after the record point
        obs2 = ObservationSeries(y2, obs.variable_names)
        out1 = run_filter(obs, panel, DTVW, cfg=cfg, n_particles=50, seed=5, alpha0=(0, 2, 1))
        out2 = run_filter(obs2, panel, DTVW, cfg=cfg, n_particles=50, seed=5, alpha0=(0, 2, 1))
        np.testing.assert_array_equal(out1.one_step_log_pred[:12], out2.one_step_log_pred[:12])
        np.testing.assert_array_equal(out1.forecasts.point[:12], out2.forecasts.point[:12])
        assert not np.array_equal(out1.one_step_log_pred[12:], out2.one_step_log_pred[12:])

    def test_degeneracy_error_names_time(self):
        obs, panel = make_problem(T=5)
        bad = obs.values.copy()
        bad[2] = 1e200
        cfg = NoiseConfig(np.array([1e-3]))
        pf = ParticleFilter(panel, TVW, cfg, n_pred_draws=2)
        state = pf.init_state(8, np.zeros(3)[None], 0.0, [substream(0, "filter")])
        state, _ = pf.step(state, bad[0])
        state, _ = pf.step(state, bad[1])
        with pytest.raises(DegeneracyError, match="t=3"):
            pf.step(state, bad[2])


    def test_step_past_the_panel_rejected(self):
        obs, panel = make_problem(T=5)
        pf = ParticleFilter(panel, DTVW, NoiseConfig(np.array([0.1])), n_pred_draws=2)
        state = pf.init_state(4, np.zeros((1, 3)), 0.0, [substream(0, "filter")])
        for y in obs.values:
            state, _ = pf.step(state, y)
        with pytest.raises(InputError, match="time index 6 outside 1..5"):
            pf.step(state, obs.values[0])


class TestDeterministicLimit:
    def test_single_particle_matches_direct_recursion(self):
        # zero noise, random-walk mode, one particle: the filter must emit the
        # fixed equal-weight combination bitwise over T=200
        obs, panel = make_problem(T=200, seed=7)
        cfg = NoiseConfig(np.array([0.25]), sigma_x=0.0, sigma_alpha=0.0)
        out = run_filter(obs, panel, TVW, cfg=cfg, n_particles=1, seed=0, n_pred_draws=2)
        K = panel.n_models
        direct = np.empty((200, 1))
        for t in range(1, 201):
            acc = 0.0
            for k in range(K):
                acc += (1.0 / K) * panel.mean_matrix(t, 1)[k, 0]
            direct[t - 1, 0] = acc
        np.testing.assert_array_equal(out.forecasts.point, direct)
        assert np.all(out.weights_mean == 1.0 / K)
        assert np.all(out.ess == 1.0)


class TestRun:
    def test_same_seed_bitwise_identical(self):
        obs, panel = make_problem(T=25, seed=2)
        kw = dict(n_particles=100, seed=11, alpha0=(0.0, 5.0, 2.0), n_pred_draws=16)
        a = run_filter(obs, panel, DTVW, **kw)
        b = run_filter(obs, panel, DTVW, **kw)
        np.testing.assert_array_equal(a.forecasts.point, b.forecasts.point)
        np.testing.assert_array_equal(a.forecasts.draws, b.forecasts.draws)
        np.testing.assert_array_equal(a.weights_mean, b.weights_mean)
        np.testing.assert_array_equal(a.alpha_mean, b.alpha_mean)
        np.testing.assert_array_equal(a.one_step_log_pred, b.one_step_log_pred)

    def test_output_invariants(self):
        obs, panel = make_problem(T=30, seed=4)
        out = run_filter(obs, panel, DTVW, n_particles=200, seed=3, alpha0=(0.0, 8.0, 4.0))
        sums = out.weights_mean.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-10)
        assert np.all(out.weights_lo <= out.weights_mean + 1e-12)
        assert np.all(out.weights_hi >= out.weights_mean - 1e-12)
        assert np.all(out.alpha_lo <= out.alpha_mean + 1e-12)
        assert np.all(out.alpha_hi >= out.alpha_mean - 1e-12)
        assert out.forecasts.draws.shape == (30, 1000, 1)

    def test_multi_horizon_targets(self):
        obs, panel = gen_complete_ar(
            SimSpec(design="complete_ar", T=20, seed=1, n_pred_draws=4, horizons=3)
        )
        out = run_filter(obs, panel, TVW, n_particles=30, seed=0, horizon=3, n_pred_draws=8)
        np.testing.assert_array_equal(out.forecasts.targets, np.arange(3, 21))
        assert out.forecasts.point.shape == (18, 1)
        assert np.all(np.isfinite(out.forecasts.log_pred))

    def test_resampling_mean_preservation(self):
        # resampling keeps the weighted mean of a particle statistic in
        # expectation: Monte Carlo over 1000 replications, 3 sigma band
        rng = np.random.default_rng(0)
        values = rng.normal(size=50)
        w = rng.dirichlet(np.ones(50))
        target = float(w @ values)
        reps = 1000
        means = np.empty(reps)
        for r in range(reps):
            idx = systematic_resample(w, np.random.default_rng(r + 1))
            means[r] = values[idx].mean()
        se = means.std(ddof=1) / np.sqrt(reps)
        assert abs(means.mean() - target) < 3 * se + 1e-12

    def test_bivariate_run_shapes(self):
        rng = np.random.default_rng(6)
        T, K, L = 15, 3, 2
        draws = rng.normal(size=(T, K, L, 1, 4))
        panel = PredictorPanel(draws, ("a", "b", "c"))
        obs = ObservationSeries(rng.normal(size=(T, L)), ("u", "v"))
        out = run_filter(obs, panel, DTVW, n_particles=80, seed=2, alpha0=(0.0, 3.0, 1.0),
                         n_pred_draws=25)
        assert out.weights_mean.shape == (T, K, L)
        np.testing.assert_allclose(out.weights_mean.sum(axis=1), 1.0, atol=1e-10)
        assert out.forecasts.point.shape == (T, L)
        assert out.forecasts.log_pred_marginal.shape == (T, L)
        assert out.forecasts.draws.shape == (T, 25, L)
        assert np.all(np.isfinite(out.forecasts.log_pred))

    def test_horizon_one_log_pred_is_the_update_predictive(self):
        obs, panel = make_problem(T=25, seed=2)
        out = run_filter(obs, panel, DTVW, n_particles=100, seed=11, alpha0=(0.0, 5.0, 2.0), n_pred_draws=16)
        np.testing.assert_array_equal(out.forecasts.log_pred, out.one_step_log_pred)

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_block_summaries_match_each_point_alone(self, horizon):
        obs, panel = gen_complete_ar(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
        pf = ParticleFilter(panel, DTVW, cfg, horizon=horizon, kappa=0.9, n_pred_draws=8)
        alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0]])
        block = pf.run_block(obs, 40, alpha0, [substream(3, "filter") for _ in alpha0], x0_spread=0.5)
        for a0, got in zip(alpha0, block):
            alone = pf.run(obs, 40, a0, substream(3, "filter"), x0_spread=0.5)
            for name in ("weights_mean", "weights_lo", "weights_hi", "alpha_mean", "alpha_lo", "alpha_hi",
                         "ess", "resampled", "one_step_log_pred"):
                np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
            for name in ("targets", "point", "log_pred", "log_pred_marginal", "draws"):
                np.testing.assert_array_equal(getattr(got.forecasts, name), getattr(alone.forecasts, name))

    def test_bands_flag_drops_only_the_bands(self):
        obs, panel = gen_complete_ar(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        pf = ParticleFilter(panel, DTVW, NoiseConfig(default_sigma_obs(obs, panel)), kappa=0.9, n_pred_draws=8)
        full = pf.run(obs, 40, np.array([0.0, 1.0, 0.5]), substream(3, "filter"), x0_spread=0.5)
        lean = pf.run(obs, 40, np.array([0.0, 1.0, 0.5]), substream(3, "filter"), x0_spread=0.5, bands=False)
        for name in ("weights_mean", "weights_lo", "weights_hi", "alpha_mean", "alpha_lo", "alpha_hi"):
            assert getattr(lean, name) is None and getattr(full, name) is not None
        for name in ("ess", "resampled", "one_step_log_pred"):
            np.testing.assert_array_equal(getattr(lean, name), getattr(full, name))
        for name in ("targets", "point", "log_pred", "log_pred_marginal", "draws"):
            np.testing.assert_array_equal(getattr(lean.forecasts, name), getattr(full.forecasts, name))

    def test_horizon_beyond_observations_rejected(self):
        obs, panel = gen_complete_ar(SimSpec(design="complete_ar", T=20, seed=1, n_pred_draws=4, horizons=3))
        short = ObservationSeries(obs.values[:2], obs.variable_names)
        with pytest.raises(InputError, match="no forecast target"):
            run_filter(short, panel, TVW, n_particles=10, horizon=3, n_pred_draws=4)

    def test_gaussian_logpdf_matches_oracle(self):
        rng = np.random.default_rng(4)
        y, mean, sigma = rng.normal(size=3), rng.normal(size=(50, 3)), rng.uniform(0.1, 2.0, size=3)
        np.testing.assert_allclose(
            _gaussian_logpdf(y, mean, sigma).sum(axis=-1), gaussian_logpdf_diag(y, mean, sigma), rtol=1e-14
        )

    def test_invalid_kappa_and_horizon(self):
        obs, panel = make_problem(T=5)
        cfg = NoiseConfig(np.array([0.1]))
        with pytest.raises(InputError):
            ParticleFilter(panel, TVW, cfg, kappa=0.0)
        with pytest.raises(InputError):
            ParticleFilter(panel, TVW, cfg, horizon=2)
