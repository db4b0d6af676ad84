import numpy as np
import pytest

from divcast.core import (
    ConfigError,
    InputError,
    NoiseConfig,
    ObservationSeries,
    PredictorPanel,
    default_sigma_obs,
    matrix_to_latent,
)
from divcast.latent import cloud_weight_tensor
from oracles import (
    combined_point,
    latent_to_matrix,
    log_likelihood,
    softmax_link,
    validate_weight_matrix,
    weights_from_latent,
)


class TestSoftmaxLink:
    # cloud_weight_tensor(x, K, 1)[0] is the softmax of one latent K-vector
    def test_symmetry(self):
        np.testing.assert_allclose(cloud_weight_tensor(np.zeros(3), 3, 1)[0], np.full(3, 1 / 3), atol=1e-15)

    def test_direct_value(self):
        # exp(ln 2) = 2 against exp(0) = 1 gives 2/3, 1/3
        w = cloud_weight_tensor(np.array([np.log(2.0), 0.0]), 2, 1)[0]
        np.testing.assert_allclose(w, [2 / 3, 1 / 3], atol=1e-15)

    def test_large_input_no_overflow(self):
        w = cloud_weight_tensor(np.array([1000.0, 0.0, 0.0]), 3, 1)[0]
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0], atol=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10_000, 5), scale=3.0)
        c = rng.normal(size=(10_000, 1), scale=50.0)
        np.testing.assert_allclose(cloud_weight_tensor(x + c, 5, 1), cloud_weight_tensor(x, 5, 1), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            softmax_link([np.nan, 0.0])
        with pytest.raises(InputError):
            softmax_link([np.inf, 0.0])


class TestWeightsFromLatent:
    # cloud_weight_tensor returns the transpose, (L, K), of the (K, L) matrix
    def test_all_zero(self):
        w = cloud_weight_tensor(np.zeros(6), 3, 2)
        np.testing.assert_allclose(w.T, np.full((3, 2), 1 / 3), atol=1e-15)

    def test_degenerate_column(self):
        w = cloud_weight_tensor(np.array([0.0, -1e6, -1e6]), 3, 1)
        np.testing.assert_allclose(w[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_direct_value(self):
        w = cloud_weight_tensor(np.array([np.log(3.0), 0.0]), 2, 1)
        np.testing.assert_allclose(w[0], [0.75, 0.25], atol=1e-15)

    def test_wrong_length(self):
        with pytest.raises(InputError):
            weights_from_latent(np.zeros(5), 3, 2)

    def test_simplex_property_bulk(self):
        # 1e4 random latent vectors always map to valid weight matrices
        rng = np.random.default_rng(11)
        K, L = 4, 3
        xs = rng.normal(scale=20.0, size=(10_000, K * L))
        w = cloud_weight_tensor(xs, K, L)
        assert np.all(w >= 0) and np.all(w <= 1)
        np.testing.assert_allclose(w.sum(axis=2), 1.0, atol=1e-10)
        # spot-check against the scalar oracle
        for x, wx in zip(xs[:50], w[:50]):
            validate_weight_matrix(weights_from_latent(x, K, L))
            np.testing.assert_allclose(wx.T, weights_from_latent(x, K, L), atol=1e-15)

    def test_layout_variable_major(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        m = latent_to_matrix(x, 2, 3)
        assert m.shape == (2, 3)
        np.testing.assert_array_equal(m[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(m[:, 2], [5.0, 6.0])
        np.testing.assert_array_equal(matrix_to_latent(m), x)


class TestCombinedPoint:
    def test_equal_weights_mean(self):
        out = combined_point(np.array([[0.5], [0.5]]), np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [2.0])

    def test_degenerate_weight(self):
        out = combined_point(np.array([[1.0], [0.0]]), np.array([[5.0], [99.0]]))
        np.testing.assert_allclose(out, [5.0])

    def test_dot_product(self):
        out = combined_point(np.array([[0.25], [0.75]]), np.array([[0.0], [4.0]]))
        np.testing.assert_allclose(out, [3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            combined_point(np.ones((2, 1)) / 2, np.ones((3, 1)))


class TestLogLikelihood:
    def setup_method(self):
        self.cfg = NoiseConfig(np.array([1.0]), sigma_x=0.1, sigma_alpha=0.05)

    def test_standard_normal_at_mode(self):
        w = np.array([[0.5], [0.5]])
        ytilde = np.array([[1.0], [3.0]])
        ll = log_likelihood(np.array([2.0]), w, ytilde, self.cfg)
        np.testing.assert_allclose(ll, -0.5 * np.log(2 * np.pi), atol=1e-12)

    def test_unit_residual(self):
        w = np.array([[1.0], [0.0]])
        ytilde = np.array([[0.0], [9.0]])
        ll = log_likelihood(np.array([1.0]), w, ytilde, self.cfg)
        np.testing.assert_allclose(ll, -0.5 * np.log(2 * np.pi) - 0.5, atol=1e-12)

    def test_maximal_at_mode(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = weights_from_latent(rng.normal(size=4), 2, 2)
            ytilde = rng.normal(size=(2, 2))
            cfg = NoiseConfig(rng.uniform(0.5, 2.0, size=2))
            mode = combined_point(w, ytilde)
            at_mode = log_likelihood(mode, w, ytilde, cfg)
            off = log_likelihood(mode + rng.normal(size=2), w, ytilde, cfg)
            assert off <= at_mode + 1e-12

    def test_density_integrates_to_one(self):
        w = np.array([[0.3], [0.7]])
        ytilde = np.array([[1.0], [2.0]])
        cfg = NoiseConfig(np.array([0.7]))
        center = combined_point(w, ytilde)[0]
        grid = np.linspace(center - 8 * 0.7, center + 8 * 0.7, 4001)
        dens = np.array([np.exp(log_likelihood([y], w, ytilde, cfg)) for y in grid])
        integral = np.trapezoid(dens, grid)
        assert abs(integral - 1.0) < 1e-4

    def test_bad_sigma(self):
        with pytest.raises(ConfigError):
            log_likelihood([0.0], np.ones((1, 1)), np.ones((1, 1)), NoiseConfig(np.array([0.0])))


class TestDomainTypes:
    def test_observation_validation(self):
        with pytest.raises(InputError):
            ObservationSeries(np.array([[np.nan]]), ("y",))
        with pytest.raises(InputError):
            ObservationSeries(np.ones((3, 2)), ("y",))

    def test_panel_validation(self):
        with pytest.raises(InputError):
            PredictorPanel(np.ones((2, 2, 1, 1)), ("a", "b"))
        with pytest.raises(InputError):
            PredictorPanel(np.full((2, 2, 1, 1, 1), np.inf), ("a", "b"))
        panel = PredictorPanel(np.ones((2, 2, 1, 1, 3)), ("a", "b"))
        assert panel.n_draws == 3
        with pytest.raises(InputError):
            panel.mean_matrix(3, 1)
        with pytest.raises(InputError):
            panel.mean_matrix(1, 2)

    def test_weight_matrix_validation(self):
        validate_weight_matrix(np.array([[0.5, 1.0], [0.5, 0.0]]))
        with pytest.raises(InputError):
            validate_weight_matrix(np.array([[0.6], [0.6]]))
        with pytest.raises(InputError):
            validate_weight_matrix(np.array([[1.2], [-0.2]]))

    def test_noise_config_validation(self):
        with pytest.raises(ConfigError):
            NoiseConfig(np.array([1.0]), sigma_x=-0.1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                NoiseConfig(np.array([1.0]), sigma_x=bad)
            with pytest.raises(ConfigError):
                NoiseConfig(np.array([1.0]), sigma_alpha=bad)
        cfg = NoiseConfig([1.0, 2.0])
        assert cfg.sigma_obs.shape == (2,)


class TestSigmaCalibration:
    def test_positive_and_shaped(self, tiny_obs, tiny_panel):
        sd = default_sigma_obs(tiny_obs, tiny_panel)
        assert sd.shape == (1,)
        assert np.all(sd > 0)

    def test_matches_residual_std(self):
        rng = np.random.default_rng(5)
        T, K = 40, 3
        draws = rng.normal(size=(T, K, 1, 1, 4))
        obs = ObservationSeries(rng.normal(size=(T, 1)), ("y",))
        panel = PredictorPanel(draws, ("a", "b", "c"))
        n_cal = max(10, T // 10)
        resid = obs.values[:n_cal, 0] - draws.mean(axis=4)[:n_cal, :, 0, 0].mean(axis=1)
        np.testing.assert_allclose(default_sigma_obs(obs, panel)[0], resid.std(ddof=1))
