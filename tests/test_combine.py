import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcast import combine
from divcast.combine import (
    bma_weights,
    model_log_predictive_matrix,
    run_combiner,
    single_model_result,
)
from divcast.core import InputError, ObservationSeries, PredictorPanel
from oracles import bma_weights_loop, one_hot_mixture, rmsfe, weighted_log_predictives


class TestBmaWeights:
    def test_closed_form(self):
        # cumulative scores (0, -ln 3) by time t: softmax gives (0.75, 0.25)
        lp = np.zeros((2, 2))
        lp[0] = [0.0, -np.log(3.0)]
        w = bma_weights(lp)
        np.testing.assert_allclose(w[1], [0.75, 0.25], atol=1e-12)

    def test_first_row_uniform(self):
        rng = np.random.default_rng(0)
        w = bma_weights(rng.normal(size=(5, 4)))
        np.testing.assert_allclose(w[0], 0.25)

    def test_identical_scores_uniform(self):
        lp = np.tile(np.array([[1.3, 1.3, 1.3]]), (6, 1))
        w = bma_weights(lp)
        np.testing.assert_allclose(w, 1 / 3)

    def test_dominance_limit(self):
        lp = np.zeros((21, 2))
        lp[:, 0] = 10.0
        w = bma_weights(lp)
        assert w[20, 0] > 1 - 1e-8

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        lp = rng.normal(size=(8, 3))
        shifted = lp + rng.normal(size=(8, 1))  # same constant across models per t
        np.testing.assert_allclose(bma_weights(shifted), bma_weights(lp), atol=1e-12)

    def test_no_lookahead(self):
        rng = np.random.default_rng(2)
        lp = rng.normal(size=(10, 3))
        lp2 = lp.copy()
        lp2[6:] += rng.normal(size=(4, 3))
        np.testing.assert_array_equal(bma_weights(lp)[:7], bma_weights(lp2)[:7])

    def test_rolling_equals_full_when_window_covers(self):
        rng = np.random.default_rng(3)
        lp = rng.normal(size=(12, 4))
        np.testing.assert_array_equal(bma_weights(lp, window=12), bma_weights(lp))
        np.testing.assert_array_equal(bma_weights(lp, window=50), bma_weights(lp))

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(4)
        w = bma_weights(rng.normal(scale=5, size=(30, 5)), window=7)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_window(self):
        with pytest.raises(InputError):
            bma_weights(np.zeros((3, 2)), window=0)

    @settings(max_examples=300, deadline=None)
    @given(
        T=st.integers(1, 299),
        K=st.integers(1, 24),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        window=st.sampled_from([None, 1, 3, 24, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_the_row_loop(self, T, K, scale, window, seed):
        # K >= 8 reaches numpy's pairwise summation of each row
        lp = scale * np.random.default_rng(seed).normal(size=(T, K))
        np.testing.assert_array_equal(bma_weights(lp, window=window), bma_weights_loop(lp, window))


def _panel_from_means(means, D=1, spread=None):
    """means: (T, K) for L=1; optional per-draw offsets."""
    T, K = means.shape
    draws = np.repeat(means[:, :, None, None, None], D, axis=4)
    if spread is not None:
        draws = draws + spread
    return PredictorPanel(draws, tuple(f"m{k}" for k in range(1, K + 1)), ("y",))


class TestModelLogPredictive:
    def test_point_mass_uses_fallback(self):
        # all draws equal to y_t: density is the Gaussian normalizer at the
        # fallback bandwidth
        means = np.array([[2.0, 5.0]])
        panel = _panel_from_means(means, D=4)
        obs = ObservationSeries(np.array([[2.0]]), ("y",))
        sigma0 = 0.3
        lp = model_log_predictive_matrix(panel, obs, fallback_sigma=sigma0)[0][0, 0]
        assert lp == pytest.approx(-0.5 * np.log(2 * np.pi * sigma0**2), abs=1e-12)

    def test_one_sigma_off(self):
        rng = np.random.default_rng(0)
        draws = np.zeros((1, 1, 1, 1, 500))
        draws[0, 0, 0, 0] = rng.normal(size=500)
        panel = PredictorPanel(draws, ("m1",), ("y",))
        mu = draws[0, 0, 0, 0].mean()
        sd = draws[0, 0, 0, 0].std(ddof=1)
        obs = ObservationSeries(np.array([[mu + sd]]), ("y",))
        lp = model_log_predictive_matrix(panel, obs)[0][0, 0]
        assert lp == pytest.approx(-0.5 * np.log(2 * np.pi * sd**2) - 0.5, abs=1e-12)

    def test_sharper_correct_density_scores_higher(self):
        rng = np.random.default_rng(1)
        draws = np.zeros((1, 2, 1, 1, 200))
        draws[0, 0, 0, 0] = rng.normal(scale=0.5, size=200)
        draws[0, 1, 0, 0] = rng.normal(scale=5.0, size=200)
        panel = PredictorPanel(draws, ("tight", "diffuse"), ("y",))
        obs = ObservationSeries(np.array([[0.0]]), ("y",))
        joint, _ = model_log_predictive_matrix(panel, obs)
        tight, diffuse = joint[0, 0], joint[0, 1]
        assert tight > diffuse

    def test_matrix_shape(self):
        rng = np.random.default_rng(2)
        draws = rng.normal(size=(6, 3, 2, 1, 5))
        panel = PredictorPanel(draws, ("a", "b", "c"))
        obs = ObservationSeries(rng.normal(size=(6, 2)), ("u", "v"))
        joint, marginal = model_log_predictive_matrix(panel, obs)
        assert joint.shape == (6, 3) and marginal.shape == (6, 3, 2)
        np.testing.assert_allclose(joint, marginal.sum(axis=2), atol=1e-12)


class TestEqualCombiner:
    def test_five_models_weight(self):
        rng = np.random.default_rng(0)
        means = rng.normal(size=(4, 5))
        panel = _panel_from_means(means, D=3, spread=0.01 * rng.normal(size=(4, 5, 1, 1, 3)))
        obs = ObservationSeries(rng.normal(size=(4, 1)), ("y",))
        res = run_combiner("equal", obs, panel)
        assert np.all(res.weights == 0.2)

    def test_single_model(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=(3, 1))
        panel = _panel_from_means(means, D=2, spread=0.01 * rng.normal(size=(3, 1, 1, 1, 2)))
        obs = ObservationSeries(rng.normal(size=(3, 1)), ("y",))
        res = run_combiner("equal", obs, panel)
        assert np.all(res.weights == 1.0)
        np.testing.assert_allclose(
            res.forecasts.point[:, 0], panel.draws.mean(axis=4)[:, 0, 0, 0], atol=1e-12
        )

    def test_two_model_mean(self):
        means = np.array([[1.0, 3.0], [5.0, 7.0]])
        panel = _panel_from_means(means, D=2, spread=np.zeros((2, 2, 1, 1, 2)))
        obs = ObservationSeries(np.array([[2.0], [6.0]]), ("y",))
        res = run_combiner("equal", obs, panel)
        np.testing.assert_allclose(res.forecasts.point[:, 0], [2.0, 6.0])

    def test_rmsfe_matches_direct_mean_oracle(self):
        rng = np.random.default_rng(5)
        means = rng.normal(size=(30, 4))
        panel = _panel_from_means(means, D=6, spread=0.1 * rng.normal(size=(30, 4, 1, 1, 6)))
        obs = ObservationSeries(rng.normal(size=(30, 1)), ("y",))
        res = run_combiner("equal", obs, panel)
        direct = panel.draws.mean(axis=4)[:, :, 0, 0].mean(axis=1)
        assert rmsfe(obs.values[:, 0], res.forecasts.point[:, 0]) == pytest.approx(
            rmsfe(obs.values[:, 0], direct), abs=1e-12
        )

    def test_pooled_draws(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(size=(3, 2, 1, 1, 4))
        panel = PredictorPanel(draws, ("a", "b"), ("y",))
        obs = ObservationSeries(rng.normal(size=(3, 1)), ("y",))
        res = run_combiner("equal", obs, panel)
        assert res.forecasts.draws.shape == (3, 8, 1)
        np.testing.assert_allclose(
            np.sort(res.forecasts.draws[1, :, 0]), np.sort(draws[1, :, 0, 0].ravel())
        )


class TestBmaCombiner:
    def test_weights_track_accuracy(self):
        rng = np.random.default_rng(7)
        T = 40
        obs_vals = rng.normal(size=(T, 1))
        means = np.column_stack([obs_vals[:, 0] + 0.05 * rng.normal(size=T),
                                 obs_vals[:, 0] + 2.0 + 0.05 * rng.normal(size=T)])
        panel = _panel_from_means(means, D=5, spread=0.2 * rng.normal(size=(T, 2, 1, 1, 5)))
        obs = ObservationSeries(obs_vals, ("y",))
        res = run_combiner("bma", obs, panel)
        assert res.weights[-1, 0, 0] > 0.99

    def test_rolling_requires_window(self):
        rng = np.random.default_rng(8)
        panel = _panel_from_means(rng.normal(size=(5, 2)), D=2,
                                  spread=0.1 * rng.normal(size=(5, 2, 1, 1, 2)))
        obs = ObservationSeries(rng.normal(size=(5, 1)), ("y",))
        with pytest.raises(InputError):
            run_combiner("bma_roll", obs, panel)

    def test_rolling_with_big_window_matches_full(self):
        rng = np.random.default_rng(9)
        panel = _panel_from_means(rng.normal(size=(15, 3)), D=4,
                                  spread=0.3 * rng.normal(size=(15, 3, 1, 1, 4)))
        obs = ObservationSeries(rng.normal(size=(15, 1)), ("y",))
        full = run_combiner("bma", obs, panel)
        roll = run_combiner("bma_roll", obs, panel, window=100)
        np.testing.assert_array_equal(full.weights, roll.weights)
        np.testing.assert_array_equal(full.forecasts.point, roll.forecasts.point)

    def test_unknown_method(self):
        rng = np.random.default_rng(10)
        panel = _panel_from_means(rng.normal(size=(3, 2)), D=2,
                                  spread=0.1 * rng.normal(size=(3, 2, 1, 1, 2)))
        obs = ObservationSeries(rng.normal(size=(3, 1)), ("y",))
        with pytest.raises(InputError):
            run_combiner("stack", obs, panel)


class TestSingleModel:
    def test_one_hot_weights_and_point(self):
        rng = np.random.default_rng(11)
        means = rng.normal(size=(8, 3))
        panel = _panel_from_means(means, D=4, spread=0.1 * rng.normal(size=(8, 3, 1, 1, 4)))
        obs = ObservationSeries(rng.normal(size=(8, 1)), ("y",))
        res = single_model_result(obs, panel, 2)
        assert res.method == "m2"
        np.testing.assert_allclose(res.weights[:, 1, 0], 1.0)
        np.testing.assert_allclose(res.weights[:, 0, 0], 0.0)
        np.testing.assert_allclose(
            res.forecasts.point[:, 0], panel.draws.mean(axis=4)[:, 1, 0, 0], atol=1e-12
        )

    def test_bad_index(self):
        rng = np.random.default_rng(12)
        panel = _panel_from_means(rng.normal(size=(3, 2)), D=2,
                                  spread=0.1 * rng.normal(size=(3, 2, 1, 1, 2)))
        obs = ObservationSeries(rng.normal(size=(3, 1)), ("y",))
        with pytest.raises(InputError):
            single_model_result(obs, panel, 3)

    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("D", [1, 2, 7])
    def test_bitwise_equal_to_the_one_hot_mixture(self, D, horizon):
        rng = np.random.default_rng(100 * D + horizon)
        for _ in range(8):
            T, K, L = int(rng.integers(4, 30)), int(rng.integers(2, 13)), int(rng.integers(1, 4))
            draws = rng.normal(scale=rng.uniform(0.1, 5.0, size=(1, K, 1, 1, 1)), size=(T, K, L, 3, D))
            panel = PredictorPanel(draws, tuple(f"m{k}" for k in range(1, K + 1)))
            obs = ObservationSeries(rng.normal(size=(T, L)), tuple(f"y{l}" for l in range(L)))
            sigma = float(rng.uniform(0.05, 2.0))
            for k in range(1, K + 1):
                res = single_model_result(obs, panel, k, horizon, sigma)
                ref = one_hot_mixture(obs, panel, k, horizon, sigma)
                for field in ("targets", "point", "log_pred", "log_pred_marginal", "draws"):
                    got, want = getattr(res.forecasts, field), getattr(ref, field)
                    assert got.shape == want.shape
                    np.testing.assert_array_equal(got, want)
                assert res.forecasts.horizon == horizon
                one_hot = np.zeros((T, K, L))
                one_hot[:, k - 1] = 1.0
                np.testing.assert_array_equal(res.weights, one_hot)


class TestMixtureKernel:
    @staticmethod
    def _assert_log_scores_match(method, wide):
        """The kernel's log scores against the per-variable form on 60 random
        problems, checked on those of eight or more models when wide and on
        the others when not; returns how many checked problems have eight or
        more models and two or more variables.  Every problem draws its
        input, so each sees the same input whichever are checked."""
        rng = np.random.default_rng({"equal": 1, "bma": 2, "bma_roll": 3}[method])
        wide_count = 0
        for _ in range(60):
            K, L, H, D = (int(rng.integers(lo, hi + 1)) for lo, hi in ((1, 20), (1, 3), (1, 3), (2, 8)))
            T, h = int(rng.integers(5, 30)), int(rng.integers(1, H + 1))
            draws = rng.normal(scale=rng.uniform(0.1, 5.0, size=(1, K, 1, 1, 1)), size=(T, K, L, H, D))
            if rng.random() < 0.3:  # a constant cell takes the fallback bandwidth
                draws[rng.integers(T), rng.integers(K)] = 1.5
            panel = PredictorPanel(draws, tuple(f"m{k}" for k in range(1, K + 1)))
            obs = ObservationSeries(rng.normal(size=(T, L)), tuple(f"y{l}" for l in range(L)))
            sigma = float(rng.uniform(0.05, 2.0))
            if (K >= 8) != wide:
                continue
            res = run_combiner(method, obs, panel, horizon=h, window=3, fallback_sigma=sigma)
            w = res.weights[res.forecasts.targets - h, :, 0]
            for got, want in zip(
                (res.forecasts.log_pred, res.forecasts.log_pred_marginal),
                weighted_log_predictives(obs, panel, w, h, sigma),
            ):
                assert got.shape == want.shape
                if K < 8:
                    assert got.tobytes() == want.tobytes()
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            wide_count += K >= 8 and L >= 2
        return wide_count

    @pytest.mark.parametrize("method", ["equal", "bma", "bma_roll"])
    def test_log_scores_bitwise_equal_to_the_per_variable_form(self, method):
        # Below eight models the kernel sums the (S, K, L) log densities over
        # the models in the order numpy sums each variable's contiguous
        # (S, K) array.
        self._assert_log_scores_match(method, wide=False)

    @pytest.mark.parametrize("method", ["equal", "bma", "bma_roll"])
    def test_log_scores_match_the_per_variable_form_from_eight_models(self, method):
        # From eight models on numpy sums each variable's (S, K) array
        # pairwise, and the two agree within 1e-12.
        assert self._assert_log_scores_match(method, wide=True) >= 10


class TestFitsPerHorizon:
    @pytest.mark.parametrize(
        "method, horizon, fits",
        [("bma", 1, [1]), ("bma", 3, [1, 3]), ("bma_roll", 1, [1]), ("bma_roll", 3, [1, 3]),
         ("equal", 1, [1]), ("equal", 3, [3])],
    )
    def test_each_gaussian_fitted_once(self, monkeypatch, method, horizon, fits):
        # the horizons of the model_log_predictive_matrix calls one run makes
        rng = np.random.default_rng(14)
        panel = PredictorPanel(rng.normal(size=(12, 3, 1, 3, 4)), ("a", "b", "c"))
        obs = ObservationSeries(rng.normal(size=(12, 1)), ("y",))
        calls = []
        fit = combine.model_log_predictive_matrix

        def counting(panel, obs, fallback_sigma=0.1, horizon=1):
            calls.append(horizon)
            return fit(panel, obs, fallback_sigma, horizon)

        monkeypatch.setattr(combine, "model_log_predictive_matrix", counting)
        run_combiner(method, obs, panel, horizon=horizon, window=4)
        assert sorted(calls) == fits


    @pytest.mark.parametrize("horizon", [1, 3])
    def test_single_models_fit_each_cell_once(self, monkeypatch, horizon):
        # the K single models of a horizon evaluate, between them, one
        # Gaussian per cell of the horizon's targets: one fit, not K
        rng = np.random.default_rng(14)
        panel = PredictorPanel(rng.normal(size=(12, 3, 2, 3, 4)), ("a", "b", "c"))
        obs = ObservationSeries(rng.normal(size=(12, 2)), ("y", "z"))
        cells = []
        logpdf = combine._gaussian_logpdf

        def counting(y, mean, sigma, out=None):
            cells.append(np.size(mean))
            return logpdf(y, mean, sigma, out)

        monkeypatch.setattr(combine, "_gaussian_logpdf", counting)
        for k in (1, 2, 3):
            single_model_result(obs, panel, k, horizon)
        assert sum(cells) == (12 - horizon + 1) * 3 * 2


class TestMultiHorizon:
    def test_targets_and_weight_rows(self):
        # at horizon 2 the forecast of target s must use the weight row s-1
        rng = np.random.default_rng(13)
        T = 12
        draws = rng.normal(size=(T, 2, 1, 2, 3))
        panel = PredictorPanel(draws, ("a", "b"), ("y",))
        obs = ObservationSeries(rng.normal(size=(T, 1)), ("y",))
        res = run_combiner("bma", obs, panel, horizon=2)
        np.testing.assert_array_equal(res.forecasts.targets, np.arange(2, T + 1))
        means = panel.draws.mean(axis=4)
        s = 5  # weight row is time s-h+1 = 4, i.e. 0-based index s-2
        w_row = res.weights[s - 2, :, 0]
        expected = (w_row * means[s - 1, :, 0, 1]).sum()
        i = list(res.forecasts.targets).index(s)
        assert res.forecasts.point[i, 0] == pytest.approx(expected, abs=1e-12)
