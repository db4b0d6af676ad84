import numpy as np
import pytest

from divcast.core import InputError
from divcast.dgp import (
    COMPLETE_AR_MODELS,
    DESIGNS,
    MAX_PANEL_CELLS,
    NONLINEAR_MODELS,
    NONLINEAR_TRUTH,
    SimSpec,
    generate,
)


class TestStepFunctions:
    def test_complete_hand_values(self):
        # noise-free one-step values from y0 = 0.25
        assert COMPLETE_AR_MODELS["M1"](0.25, 0.25, 1) == pytest.approx(0.25)  # fixed point
        assert COMPLETE_AR_MODELS["M2"](0.25, 0.25, 1) == pytest.approx(0.35)
        assert COMPLETE_AR_MODELS["M3"](0.25, 0.25, 1) == pytest.approx(0.525)

    def test_nonlinear_hand_values(self):
        # truth from y0 = 0.1 at t=1: 0.05 + 2.5/1.01... + 8cos(0)
        expected = 0.5 * 0.1 + 25 * 0.1 / 1.01 + 8.0
        assert NONLINEAR_TRUTH(0.1, 0.1, 1) == pytest.approx(10.525247524752475)
        assert NONLINEAR_TRUTH(0.1, 0.1, 1) == pytest.approx(expected)
        assert NONLINEAR_MODELS["M6"](0.1, 0.1, 1) == pytest.approx(30 * 0.1 / 1.01 + 8.0)
        assert NONLINEAR_MODELS["M6"](0.1, 0.1, 1) == pytest.approx(10.97029702970297)
        assert NONLINEAR_MODELS["M4"](0.1, 0.1, 1) == pytest.approx(9.1)

    def test_m2_uses_second_lag(self):
        assert COMPLETE_AR_MODELS["M2"](99.0, 0.5, 1) == pytest.approx(0.3 + 0.2 * 0.5)
        assert NONLINEAR_MODELS["M2"](1.0, 3.0, 1) == pytest.approx(
            0.5 * 1.0 + 25 * 3.0 / 10.0 + 8.0
        )

    def test_cosine_time_origin(self):
        # forcing is 8cos(1.2(t-1)): zero phase at t=1
        assert NONLINEAR_MODELS["M5"](0.0, 0.0, 1) == pytest.approx(8.0)
        assert NONLINEAR_MODELS["M5"](0.0, 0.0, 2) == pytest.approx(8 * np.cos(1.2))


class TestSimSpec:
    def test_defaults(self):
        assert SimSpec(design="complete_ar").sigma == 0.05
        assert SimSpec(design="nonlinear_incomplete").sigma == 0.5

    def test_validation(self):
        with pytest.raises(InputError):
            SimSpec(design="unknown")
        with pytest.raises(InputError):
            SimSpec(design="complete_ar", T=1)
        with pytest.raises(InputError):
            SimSpec(design="complete_ar", sigma=0.0)

    def test_unknown_design_message(self):
        with pytest.raises(InputError) as exc:
            SimSpec(design="unknown")
        assert str(exc.value) == "unknown design 'unknown'; expected one of ('complete_ar', 'nonlinear_incomplete')"

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_panel_cells_bounded(self, design):
        # T x K x H x D, with K the design's model count, may reach the bound
        # but not pass it; nothing is simulated by the spec itself
        K = len(DESIGNS[design].models)
        T = MAX_PANEL_CELLS // (K * 10)
        assert SimSpec(design=design, T=T, n_pred_draws=10).T == T
        with pytest.raises(InputError, match="above 100,000,000"):
            SimSpec(design=design, T=T + 1, n_pred_draws=10)
        with pytest.raises(InputError, match="above 100,000,000"):
            SimSpec(design=design, T=2, horizons=10**6, n_pred_draws=10**6)


class TestGeneration:
    def test_shapes_and_names(self):
        obs, panel = generate(SimSpec(design="complete_ar", T=20, seed=0, n_pred_draws=3))
        assert obs.n_steps == 20 and obs.n_vars == 1
        assert panel.model_names == ("M1", "M2", "M3")
        assert panel.draws.shape == (20, 3, 1, 1, 3)
        obs2, panel2 = generate(
            SimSpec(design="nonlinear_incomplete", T=15, seed=0, n_pred_draws=2, horizons=3)
        )
        assert panel2.model_names == ("M1", "M2", "M3", "M4", "M5", "M6")
        assert panel2.draws.shape == (15, 6, 1, 3, 2)

    def test_determinism(self):
        spec = SimSpec(design="nonlinear_incomplete", T=12, seed=9, n_pred_draws=4)
        a_obs, a_panel = generate(spec)
        b_obs, b_panel = generate(spec)
        np.testing.assert_array_equal(a_obs.values, b_obs.values)
        np.testing.assert_array_equal(a_panel.draws, b_panel.draws)

    def test_tiny_sigma_collapses_to_truth_lags(self):
        spec = SimSpec(design="complete_ar", T=10, seed=1, sigma=1e-12, n_pred_draws=3)
        obs, panel = generate(spec)
        y = obs.values[:, 0]
        for t in range(2, 11):
            for k, f in enumerate(COMPLETE_AR_MODELS.values()):
                expected = f(y[t - 2], y[t - 3] if t >= 3 else 0.25, t)
                np.testing.assert_allclose(
                    panel.draws[t - 1, k, 0, 0, :], expected, atol=1e-9
                )

    def test_true_model_error_variance(self):
        # M1 is the truth: its one-step forecast error variance is ~ sigma^2
        spec = SimSpec(design="complete_ar", T=4000, seed=5, n_pred_draws=50)
        obs, panel = generate(spec)
        err = obs.values[:, 0] - panel.draws.mean(axis=4)[:, 0, 0, 0]
        assert err.var() == pytest.approx(spec.sigma**2 * (1 + 1 / 50), rel=0.1)

    def test_long_run_mean(self):
        spec = SimSpec(design="complete_ar", T=4000, seed=8, n_pred_draws=1)
        obs, _ = generate(spec)
        mean = obs.values[:, 0].mean()
        # AR(1) stationary mean 0.1/0.4 = 0.25; tolerance 3*sigma/sqrt(0.64*T)
        assert abs(mean - 0.25) < 3 * spec.sigma / np.sqrt(0.64 * spec.T)

    def test_multi_step_iterates_model(self):
        # at horizon 2 the draw is a two-step iteration of the candidate from
        # the truth's lags; with tiny noise it must hit the deterministic value
        spec = SimSpec(design="complete_ar", T=8, seed=2, sigma=1e-12, n_pred_draws=2, horizons=2)
        obs, panel = generate(spec)
        y = obs.values[:, 0]
        t = 6
        f = COMPLETE_AR_MODELS["M3"]
        z1 = f(y[t - 3], y[t - 4], t - 1)
        z2 = f(z1, y[t - 3], t)
        np.testing.assert_allclose(panel.draws[t - 1, 2, 0, 1, :], z2, atol=1e-9)
