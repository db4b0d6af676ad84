import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcast.core import (
    DegeneracyError,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    default_sigma_obs,
    matrix_to_latent,
)
from divcast.dgp import SimSpec, generate
from divcast.diversity import diversity_vector, scaled_diversity
from divcast.filtering import (
    ParticleFilter,
    _band_stats,
    _combine_cloud,
    _gather,
    _gaussian_logpdf,
    _mixture_log_predictives,
    _resample_indices,
    effective_sample_size,
    run_filter,
    systematic_resample,
)
from divcast.latent import ADAPTIVE_TVW, DTVW, TVW, cloud_weight_tensor
from divcast.rng import substream
from oracles import (
    allocating_state,
    band_stats,
    cloud_weight_tensor_numpy,
    combine_cloud_numpy,
    gaussian_logpdf_diag,
    mixture_log_predictives,
    run_block_stacked,
    step_allocating,
    systematic_indices,
)


# The kernels sum over the model axis of the entry-major cloud, one slab at a
# time, and the allocating oracles over a last axis of models, which numpy
# sums pairwise from eight entries on: there the two agree within TOL.
TOL = 1e-12
# The step's weighted means over the particles and the draws' sums over the
# models run on the entry-major layout and the oracles' on a particle-major
# one, so these record entries agree within TOL at any model count.  A band
# end is the mean where the band is widened to contain it.
ROUND_OFF = {"point", "log_pred", "log_pred_marginal", "draws"} | {
    f"{name}_{stat}" for name in ("weights", "alpha") for stat in ("mean", "lo", "hi")
}


def assert_matches(got, want, exact, what, scale=1.0):
    """got has want's shape, and its bits when exact, else its values within
    TOL, the absolute tolerance taken relative to scale."""
    assert got.shape == want.shape, what
    if exact:
        assert got.tobytes() == want.tobytes(), what
    else:
        np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL * scale, err_msg=str(what))


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
        # the rows of a block share one offset: each is the row resampled
        # alone with a Generator in the same state
        w = np.random.default_rng(3).dirichlet(np.ones(12), size=4)
        block = systematic_resample(w, np.random.default_rng(0), n=7)
        for s in range(4):
            np.testing.assert_array_equal(block[s], systematic_resample(w[s], np.random.default_rng(0), n=7))

    @pytest.mark.parametrize("n", [1, 7, 12, 40])
    def test_matches_one_search_per_row(self, n):
        # rows with zero weights and cumulative weights that repeat or round
        # past 1 before the last one, at offsets including both ends of
        # [0, 1), choose as one binary search per row does
        rng = np.random.default_rng(n)
        w = rng.dirichlet(np.ones(12), size=300)
        w[rng.random(w.shape) < 0.3] = 0.0
        w[:, 0] += w.sum(axis=-1) == 0
        w /= w.sum(axis=-1, keepdims=True)
        assert (np.cumsum(w, axis=-1)[:, :-1] > 1.0).any()
        for offset in (0.0, 0.5, np.nextafter(1.0, 0.0), *rng.random(5)):
            assert _resample_indices(w, offset, n).tobytes() == systematic_indices(w, offset, n).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # nan slipped past the sum check (abs(nan - 1) > 1e-8 is False)
        with pytest.raises(InputError, match="finite"):
            systematic_resample(np.array([bad, 1.0]), np.random.default_rng(0))
        with pytest.raises(InputError, match="finite"):
            systematic_resample(np.array([[0.5, 0.5], [bad, 1.0]]), np.random.default_rng(0))

    def test_unnormalized_rejected(self):
        with pytest.raises(InputError):
            systematic_resample(np.array([0.5, 0.6]), np.random.default_rng(0))
        with pytest.raises(InputError):
            systematic_resample(np.array([1.5, -0.5]), np.random.default_rng(0))


class TestKernels:
    @staticmethod
    def _assert_combine_cloud_matches_numpy_sum(models):
        """_combine_cloud against numpy's sum for K = 2..12 models and
        L = 1..3 variables, checked for K in models; every K draws its input,
        so each K sees the same input whichever models are checked."""
        rng = np.random.default_rng(5)
        for K in range(2, 13):
            for L in range(1, 4):
                weights = rng.dirichlet(np.ones(K), size=(3, 40, L))
                means = rng.normal(scale=rng.choice([1.0, 1e3]), size=(K, L))
                if K not in models:
                    continue
                if L > 1:  # products all -0.0: numpy's sum starts from +0.0
                    means[:, -1] = -0.0
                # the kernel takes (L, K, P, N) weights and returns (L, P, N)
                got = _combine_cloud(np.ascontiguousarray(weights.transpose(2, 3, 0, 1)), means)
                assert got.shape == (L, 3, 40)
                got = np.moveaxis(got, 0, -1)
                expected = combine_cloud_numpy(weights, means)
                assert got.shape == expected.shape == (3, 40, L)
                assert_matches(got, expected, K < 8, (K, L), scale=np.abs(means).max())

    def test_combine_cloud_bitwise_equal_to_numpy_sum(self):
        self._assert_combine_cloud_matches_numpy_sum(range(2, 8))

    def test_combine_cloud_matches_numpy_sum_from_eight_models(self):
        # numpy sums a last axis of eight or more models pairwise
        self._assert_combine_cloud_matches_numpy_sum(range(8, 13))

    @pytest.mark.parametrize("n_models", range(1, 17))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_match_the_allocating_oracles(self, n_models, data):
        # The softmax, the combined forecasts, the bands and the mixture's log
        # scores on the entry-major layout, each against its allocating
        # oracle on the same inputs, which reduces over a last axis.  The
        # softmax and the combined forecasts keep the oracles' bits below
        # eight models, where both sum in model order.
        K = n_models
        L, P, N = (data.draw(st.integers(1, hi), label=name) for name, hi in (("L", 3), ("P", 4), ("N", 60)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.normal(scale=data.draw(st.sampled_from([1.0, 30.0, 400.0]), label="scale"), size=(P, N, K * L))
        weights = cloud_weight_tensor(np.ascontiguousarray(np.moveaxis(x, -1, 0)), K, L)  # (L, K, P, N)
        particle_major = np.moveaxis(weights, (0, 1), (-2, -1))  # (P, N, L, K)
        assert_matches(particle_major, cloud_weight_tensor_numpy(x, K, L), K < 8, "softmax")

        means = rng.normal(scale=rng.choice([1.0, 1e3]), size=(K, L))
        comb = _combine_cloud(weights, means)  # (L, P, N)
        expected = combine_cloud_numpy(particle_major, means)
        assert_matches(np.moveaxis(comb, 0, -1), expected, K < 8, "combine", scale=np.abs(means).max())

        omega = rng.dirichlet(np.ones(N), size=P)
        omega[:, rng.random(N) < 0.2] = 0.0  # particles of no weight
        omega[:, 0] += omega.sum(axis=-1) == 0
        omega /= omega.sum(axis=-1, keepdims=True)
        got = _band_stats(weights.reshape(L * K, P, N), omega)  # (L*K, P) each
        for name, g, e in zip(("mean", "lo", "hi"), got, band_stats(particle_major.reshape(P, N, L * K), omega)):
            assert_matches(g.T, e, False, name)

        y, sigma = rng.normal(size=(P, L)), rng.uniform(0.1, 2.0, size=L)
        with np.errstate(divide="ignore"):
            log_prior = np.log(omega)
        comp = _gaussian_logpdf(y.T[:, :, None], comb.copy(), sigma[:, None, None])  # (L, P, N)
        got = _mixture_log_predictives(log_prior, np.moveaxis(comp, 0, -1))
        expected = mixture_log_predictives(y, np.moveaxis(comb, 0, -1).copy(), log_prior, sigma)
        for name, g, e in zip(("joint", "marginal"), got, expected):
            assert_matches(g, e, False, name)

    def test_gather_equals_fancy_indexing(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 4, 3, 10))
        idx = rng.integers(0, 10, size=(3, 7))
        np.testing.assert_array_equal(_gather(a, idx), a[:, :, np.arange(3)[:, None], idx])


class TestDiversityPath:
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_rows_are_the_diversity_vectors(self, horizon):
        obs, panel = generate(SimSpec(design="complete_ar", T=15, seed=4, n_pred_draws=4, horizons=2))
        pf = ParticleFilter(panel, DTVW, NoiseConfig(np.array([0.1])), horizon=horizon)
        assert pf.diversity_path.shape == (panel.n_steps, panel.n_models * panel.n_vars)
        for t in range(1, panel.n_steps + 1):
            expected = matrix_to_latent(scaled_diversity(panel.mean_matrix(t, horizon)))
            assert pf.diversity_path[t - 1].tobytes() == expected.tobytes()

    def test_built_once_per_filter(self, monkeypatch):
        import divcast.filtering as filtering

        calls = []

        def counting(panel, h):
            calls.append(h)
            return diversity_vector(panel, h)

        monkeypatch.setattr(filtering, "diversity_vector", counting)
        obs, panel = make_problem(T=12, seed=1)
        pf = ParticleFilter(panel, DTVW, NoiseConfig(np.array([0.1])), n_pred_draws=4)
        for seed in range(3):
            pf.run_block(obs, 16, np.zeros((2, 3)), substream(seed, "filter"))
        assert calls == [1]


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
    obs, panel = generate(SimSpec(design="complete_ar", T=T, seed=seed, n_pred_draws=5))
    return obs, panel


class TestStep:
    def test_omega_normalized_and_ess_recorded(self):
        obs, panel = make_problem()
        cfg = NoiseConfig(np.array([0.1]))
        pf = ParticleFilter(panel, DTVW, cfg, n_pred_draws=8)
        state = pf.init_state(64, np.array([2.0, 1.0])[None], 0.0, substream(0, "filter"))
        for t in range(1, 11):
            state, rec = pf.step(state, obs.values[t - 1])
            assert abs(state.cloud.omega.sum() - 1.0) < 1e-10
            assert 1 / 64 - 1e-9 <= rec["ess"][0] <= 1 + 1e-9

    def test_log_predictive_prior_side(self):
        # the recorded predictive must equal logsumexp(log w_prior + loglik),
        # recomputed here by replaying the propagation from a state snapshot
        from divcast.latent import ParticleCloud, cloud_weight_tensor, propagate_cloud

        obs, panel = make_problem()
        cfg = NoiseConfig(np.array([0.1]))
        pf = ParticleFilter(panel, TVW, cfg, n_pred_draws=4)
        state = pf.init_state(32, np.zeros(2)[None], 0.5, substream(1, "filter"))
        for t in range(1, 8):
            # step advances the state's arrays in place, so replay from copies
            cloud_before = ParticleCloud(state.cloud.x.copy(), state.cloud.alpha.copy(), state.cloud.omega.copy())
            rng_state = state.rng.bit_generator.state
            state, rec = pf.step(state, obs.values[t - 1])

            replay_rng = np.random.default_rng()
            replay_rng.bit_generator.state = rng_state
            cloud = propagate_cloud(cloud_before, np.zeros(3), TVW, cfg, replay_rng)
            w_prior = cloud.omega[0] / cloud.omega[0].sum()
            weights = cloud_weight_tensor(cloud.x[:, 0], panel.n_models, panel.n_vars)
            c = np.einsum("lkn,kl->nl", weights, panel.mean_matrix(t, 1))
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
        state = pf.init_state(8, np.zeros(2)[None], 0.0, substream(0, "filter"))
        state, _ = pf.step(state, bad[0])
        state, _ = pf.step(state, bad[1])
        with pytest.raises(DegeneracyError, match="t=3"):
            pf.step(state, bad[2])


    def test_step_past_the_panel_rejected(self):
        obs, panel = make_problem(T=5)
        pf = ParticleFilter(panel, DTVW, NoiseConfig(np.array([0.1])), n_pred_draws=2)
        state = pf.init_state(4, np.zeros((1, 2)), 0.0, substream(0, "filter"))
        for y in obs.values:
            state, _ = pf.step(state, y)
        with pytest.raises(InputError, match="time index 6 outside 1..5"):
            pf.step(state, obs.values[0])


def random_problem(K, L, T, seed, horizons=2, n_draws=4):
    """A random walk of L variables and a panel of K models around it, each
    with its own bias and spread."""
    rng = np.random.default_rng(seed)
    truth = 0.3 * rng.normal(size=(T, L)).cumsum(axis=0)
    bias = rng.normal(scale=0.5, size=(1, K, L, 1, 1))
    spread = rng.uniform(0.1, 2.0, size=(1, K, 1, 1, 1))
    draws = truth[:, None, :, None, None] + bias + spread * rng.normal(size=(T, K, L, horizons, n_draws))
    names = tuple(f"y{l}" for l in range(L))
    panel = PredictorPanel(draws, tuple(f"M{k}" for k in range(K)), names)
    return ObservationSeries(truth + 0.2 * rng.normal(size=(T, L)), names), panel


class TestInPlaceStep:
    @staticmethod
    def _assert_steps_match(obs, panel, mode, summaries, bands, exact, bitwise):
        """Step a block of five points in place and by the allocating oracle
        through every observation, given the forecast's realized target when
        scoring summaries, and read the bands from the state when asked.  The
        latent and coefficient clouds in their (P, N, .) view and the
        Generator match bit for bit, and the records and the importance
        weights bit for bit when exact (but for the ROUND_OFF entries) and
        within TOL otherwise; bitwise checks the bit-for-bit matches only,
        and not bitwise the matches within TOL only."""
        cfg = NoiseConfig(default_sigma_obs(obs, panel), sigma_x=0.3, sigma_alpha=0.2)
        pf = ParticleFilter(panel, mode, cfg, horizon=2, kappa=0.9, n_pred_draws=8)
        alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0], [0.5, 0.0, 0.0], [0.0, 8.0, 8.0]])
        # The state carries (alpha1, alpha2); the allocating reference keeps
        # the alpha0 column, and the state and the records must match its
        # columns 1 and 2.
        state = pf.init_state(40, alpha0[:, 1:], 0.5, substream(3, "filter"))
        ref = allocating_state(pf.init_state(40, alpha0[:, 1:], 0.5, substream(3, "filter")), alpha0[:, 0])
        some_resample = False
        for t, y in enumerate(obs.values, start=1):
            y_target = obs.values[t] if summaries and t < obs.n_steps else None  # target t + 1
            ref, expected = step_allocating(pf, ref, y, y_target)
            state, got = pf.step(state, y, y_target)
            if y_target is not None:
                expected["log_pred"], expected["log_pred_marginal"] = mixture_log_predictives(
                    y_target, expected.pop("pred_means"), expected.pop("log_prior"), cfg.sigma_obs
                )
            if bands:
                got |= pf._bands(state)
            else:
                expected = {key: value for key, value in expected.items() if not key.startswith(("weights_", "alpha_"))}
            assert state.cloud.x.shape == (panel.n_models * panel.n_vars, 5, 40)
            assert state.cloud.alpha.shape == (2, 5, 40)
            assert got.keys() == expected.keys()
            for key, value in expected.items():
                value = value[..., 1:] if key.startswith("alpha_") else value
                if (exact and key not in ROUND_OFF) == bitwise:
                    assert_matches(got[key], value, bitwise, (t, key))
            if exact == bitwise:
                assert_matches(state.cloud.omega, ref.omega, exact, t)
            if bitwise:
                view = {"x": np.moveaxis(state.cloud.x, 0, -1), "alpha": np.moveaxis(state.cloud.alpha, 0, -1)}
                for name, value in (("x", ref.x), ("alpha", ref.alpha[..., 1:])):
                    assert view[name].tobytes() == value.tobytes(), (t, name)
                assert state.t == ref.t == t
                assert state.rng.bit_generator.state == ref.rng.bit_generator.state
            some_resample |= 0 < got["resampled"].sum() < len(alpha0)
        # Some steps resample some points and not others; tvw ignores alpha0,
        # so its points move as one.
        assert some_resample != (mode == TVW)

    @pytest.mark.parametrize("stream", ["shared"])  # the block's points share one Generator
    @pytest.mark.parametrize("summaries,bands", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_bitwise_equal_to_allocating_step(self, mode, summaries, bands, stream):
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        self._assert_steps_match(obs, panel, mode, summaries, bands, exact=True, bitwise=True)

    @pytest.mark.parametrize("summaries,bands", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_round_off_entries_match_allocating_step(self, mode, summaries, bands):
        # The weighted means and the draws' model sums take other orders
        # than the oracle's last-axis sums.
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        self._assert_steps_match(obs, panel, mode, summaries, bands, exact=True, bitwise=False)

    @pytest.mark.parametrize("summaries,bands", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    @pytest.mark.parametrize("n_models", [8, 9])
    def test_bitwise_equal_at_many_models(self, n_models, mode, summaries, bands):
        # Two variables give each particle two softmaxes.
        obs, panel = random_problem(n_models, 2, 20, seed=n_models)
        self._assert_steps_match(obs, panel, mode, summaries, bands, exact=False, bitwise=True)

    @pytest.mark.parametrize("summaries,bands", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    @pytest.mark.parametrize("n_models", [8, 9])
    def test_records_and_weights_match_at_many_models(self, n_models, mode, summaries, bands):
        # From eight models on, numpy sums the oracles' last axis of models
        # pairwise, so the records and the importance weights match within TOL.
        obs, panel = random_problem(n_models, 2, 20, seed=n_models)
        self._assert_steps_match(obs, panel, mode, summaries, bands, exact=False, bitwise=False)

    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_the_target_changes_no_draw(self, mode):
        # A step scores its forecast only when given the realized target;
        # the grid's steps are given none, and its blocks share one
        # Generator, so both kinds of step must make the same draws and
        # leave the same cloud.
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
        pf = ParticleFilter(panel, mode, cfg, horizon=2, kappa=0.9, n_pred_draws=8)
        alpha0 = np.array([[1.0, 0.5], [-2.0, 3.0], [4.0, -1.0], [0.0, 0.0], [8.0, 8.0]])
        scored, plain = (pf.init_state(40, alpha0, 0.5, substream(3, "filter")) for _ in range(2))
        for state in (scored, plain):  # spread the points apart: tvw ignores alpha0
            state.cloud.x *= np.arange(1.0, 6.0)[:, None]
        some_resample = False
        for t, y in enumerate(obs.values, start=1):
            y_target = obs.values[t] if t < obs.n_steps else None
            scored, with_target = pf.step(scored, y, y_target)
            plain, without = pf.step(plain, y)
            assert ("log_pred" in with_target) == (y_target is not None) and "log_pred" not in without
            assert without.keys() == with_target.keys() - {"point", "log_pred", "log_pred_marginal"}
            for key, value in without.items():
                assert value.tobytes() == with_target[key].tobytes(), (t, key)
            for name in ("x", "alpha", "omega"):
                assert getattr(plain.cloud, name).tobytes() == getattr(scored.cloud, name).tobytes(), (t, name)
            assert plain.rng.bit_generator.state == scored.rng.bit_generator.state
            some_resample |= 0 < without["resampled"].sum() < len(alpha0)
        assert some_resample

    def test_run_block_working_set(self):
        # F is one (K*L, P, N) float array, the entry-major latent cloud.  The
        # state and its scratch hold 2.67 F: two such arrays and two (2, P, N)
        # coefficient arrays.  The (P, S, J, L) draws, 0.67 F, and the (P, T)
        # ESS, flags and one-step predictives, 0.14 F, are allocated before
        # the first step, and a step's temporaries stay below 1 F: the latent
        # noise is one (N, K*L) draw and its transpose, and the models are
        # summed one (P, N) slab at a time.  The traced peak is 4.19 F.
        obs, panel = generate(SimSpec(design="nonlinear_incomplete", T=100, seed=1, n_pred_draws=10))
        assert panel.n_models * panel.n_vars == 6
        pf = ParticleFilter(panel, DTVW, NoiseConfig(default_sigma_obs(obs, panel)), n_pred_draws=10)
        pf.diversity_path  # built once per filter, outside the traced run
        P, N = 64, 250
        axis = np.linspace(-10.0, 10.0, 8)
        alpha0 = np.column_stack([np.zeros(P), np.repeat(axis, 8), np.tile(axis, 8)])
        F = P * N * 6 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pf.run_block(obs, N, alpha0, substream(0, "filter"), summaries=False, bands=False)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 5 * F, f"run_block peaked {peak / F:.2f} F above its start"

    def test_run_block_working_set_with_summaries(self):
        # Each step scores its own forecast, so its (P, N, L) particle means
        # and (P, N) log prior weights die inside the step.  F is the
        # (K*L, P, N) cloud of one point.  The state holds 2.67 F, a step's
        # temporaries about 2.7 F (at P = 1 the latent noise's (N, K*L) draw
        # and its transpose are 1 F each), and the outputs, allocated before
        # the first step, 0.3 F: the traced peak is 6.0 F.
        # Kept to the last step, the means and weights alone would be 60 F.
        obs, panel = random_problem(3, 2, 120, seed=1)
        pf = ParticleFilter(panel, DTVW, NoiseConfig(default_sigma_obs(obs, panel)), n_pred_draws=10)
        pf.diversity_path  # built once per filter, outside the traced run
        N = 2000
        F = N * 6 * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            (out,) = pf.run_block(obs, N, np.zeros((1, 3)), substream(0, "filter"), bands=False)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (out.ess, out.resampled, out.one_step_log_pred, *vars(out.forecasts).values())
                   if isinstance(a, np.ndarray))
        assert out.forecasts.log_pred is not None
        assert peak < 10 * F + kept, f"run_block peaked {peak / F:.2f} F above its start, {kept / F:.2f} F kept"


class TestScoredPerStep:
    """Each step of run_block scores its own forecast; the log predictives
    and draws must equal those of the stacked tail, which runs
    the allocating step and evaluates every step's particle mixture after
    the last step; below eight models bit for bit (but for the ROUND_OFF
    entries), and from eight on within TOL."""

    @staticmethod
    def _assert_equals_stacked_tail(obs, panel, horizon, n_points, bands):
        cfg = NoiseConfig(default_sigma_obs(obs, panel), sigma_x=0.3, sigma_alpha=0.2)
        pf = ParticleFilter(panel, DTVW, cfg, horizon=horizon, kappa=0.9, n_pred_draws=12)
        alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0], [0.0, 8.0, 8.0]])[:n_points]
        kw = dict(x0_spread=0.5, bands=bands)
        got = pf.run_block(obs, 60, alpha0, substream(3, "filter"), **kw)
        expected = run_block_stacked(pf, obs, 60, alpha0, substream(3, "filter"), **kw)
        exact = panel.n_models < 8
        assert len(got) == len(expected) == n_points
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g.forecasts.targets, np.arange(horizon, obs.n_steps + 1))
            for name in ("targets", "point", "log_pred", "log_pred_marginal", "draws"):
                a, b = getattr(g.forecasts, name), getattr(e.forecasts, name)
                assert_matches(a, b, exact and name not in ROUND_OFF, name)
            for name in ("weights_mean", "alpha_mean", "ess", "resampled", "one_step_log_pred"):
                a, b = getattr(g, name), getattr(e, name)
                assert (a is None) == (b is None) == (name.endswith("_mean") and not bands), name
                if a is not None:
                    assert_matches(a, b, exact and name not in ROUND_OFF, name)

    @pytest.mark.parametrize("bands", [True, False], ids=["bands", "no_bands"])
    @pytest.mark.parametrize("n_points", [1, 4])
    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("n_models,n_vars", [(2, 3), (5, 1), (8, 2), (12, 3)])
    def test_equals_the_stacked_tail(self, n_models, n_vars, horizon, n_points, bands):
        # The (K, L) pairs cover both ways each of the oracle's sums runs:
        # numpy sums eight or more models pairwise, and the marginal's
        # particles pairwise for one variable but in sequence, as a strided
        # reduction, for several.
        obs, panel = random_problem(n_models, n_vars, 24, seed=10 * n_models + n_vars, horizons=3)
        self._assert_equals_stacked_tail(obs, panel, horizon, n_points, bands)

    @pytest.mark.parametrize("n_points", [1, 4])
    def test_panel_longer_than_the_observations(self, n_points):
        # The steps after S = T - h + 1 emit forecasts of targets past the
        # observations; they are dropped, not scored.
        obs, panel = random_problem(4, 2, 24, seed=7, horizons=3)
        short = ObservationSeries(obs.values[:18], obs.variable_names)
        assert panel.n_steps > short.n_steps
        self._assert_equals_stacked_tail(short, panel, 3, n_points, bands=True)


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

    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_alpha0_changes_nothing_but_its_own_row(self, mode):
        # the softmax ignores a shift common to every model, so the intercept
        # is left out of the transition and alpha0 stays at its initial value
        obs, panel = generate(SimSpec(design="nonlinear_incomplete", T=40, seed=3))
        kw = dict(n_particles=120, seed=5, n_pred_draws=24)
        ref = run_filter(obs, panel, mode, alpha0=(0.0, 5.0, 2.0), **kw)
        assert ref.resampled.any()
        for a0 in (0.3, -5.0):
            out = run_filter(obs, panel, mode, alpha0=(a0, 5.0, 2.0), **kw)
            for name in ("weights_mean", "weights_lo", "weights_hi", "ess", "resampled", "one_step_log_pred"):
                np.testing.assert_array_equal(getattr(out, name), getattr(ref, name), err_msg=name)
            for name in ("point", "log_pred", "log_pred_marginal", "draws"):
                np.testing.assert_array_equal(getattr(out.forecasts, name), getattr(ref.forecasts, name), err_msg=name)
            for name in ("alpha_mean", "alpha_lo", "alpha_hi"):
                np.testing.assert_array_equal(getattr(out, name)[:, 1:], getattr(ref, name)[:, 1:], err_msg=name)
                np.testing.assert_allclose(getattr(out, name)[:, 0], a0, rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("a0", [0.3, -5.0])
    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_alpha0_row_is_the_configured_value(self, mode, a0):
        # alpha0 is a constant of the run, not a weighted particle mean, so
        # its mean and both band ends are the configured value, bit for bit
        obs, panel = generate(SimSpec(design="nonlinear_incomplete", T=100, seed=3))
        out = run_filter(obs, panel, mode, n_particles=500, seed=5, alpha0=(a0, 5.0, 2.0), n_pred_draws=8)
        for name in ("alpha_mean", "alpha_lo", "alpha_hi"):
            column = getattr(out, name)[:, 0]
            assert column.tobytes() == np.full(100, a0).tobytes(), (name, np.count_nonzero(column != a0))

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
        obs, panel = generate(
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
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
        pf = ParticleFilter(panel, DTVW, cfg, horizon=horizon, kappa=0.9, n_pred_draws=8)
        alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0]])
        block = pf.run_block(obs, 40, alpha0, substream(3, "filter"), x0_spread=0.5)
        for a0, got in zip(alpha0, block):
            alone = pf.run(obs, 40, a0, substream(3, "filter"), x0_spread=0.5)
            for name in ("weights_mean", "weights_lo", "weights_hi", "alpha_mean", "alpha_lo", "alpha_hi",
                         "ess", "resampled", "one_step_log_pred"):
                np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
            for name in ("targets", "point", "log_pred", "log_pred_marginal", "draws"):
                np.testing.assert_array_equal(getattr(got.forecasts, name), getattr(alone.forecasts, name))

    @pytest.mark.parametrize("horizon", [1, 2])
    @pytest.mark.parametrize("summaries,bands", [(True, True), (True, False), (False, True), (False, False)])
    def test_points_sharing_one_generator_match_each_point_alone(self, horizon, summaries, bands):
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
        cfg = NoiseConfig(default_sigma_obs(obs, panel))
        pf = ParticleFilter(panel, DTVW, cfg, horizon=horizon, kappa=0.9, n_pred_draws=8)
        alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0], [0.0, 0.0, 0.0], [0.0, 8.0, 8.0]])
        kw = dict(x0_spread=0.5, summaries=summaries, bands=bands)
        for n_points in (3, 5):
            block = pf.run_block(obs, 40, alpha0[:n_points], substream(3, "filter"), **kw)
            # the points resample at different steps
            assert len({out.resampled.tobytes() for out in block}) > 1
            for a0, got in zip(alpha0, block):
                (alone,) = pf.run_block(obs, 40, a0[None], substream(3, "filter"), **kw)
                for name in ("weights_mean", "weights_lo", "weights_hi", "alpha_mean", "alpha_lo", "alpha_hi",
                             "ess", "resampled", "one_step_log_pred"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
                for name in ("targets", "point", "log_pred", "log_pred_marginal", "draws"):
                    np.testing.assert_array_equal(getattr(got.forecasts, name), getattr(alone.forecasts, name))

    def test_bands_flag_drops_only_the_bands(self):
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=5, n_pred_draws=4, horizons=2))
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
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=1, n_pred_draws=4, horizons=3))
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
