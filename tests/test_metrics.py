import numpy as np
import pytest
from scipy import stats

from divcast.core import InputError
from divcast.metrics import crps_series, dm_test, score_forecasts
from oracles import crps_from_draws, log_score, rmsfe


def scored(errors, log_pred):
    """score_forecasts' row for one variable, over a hand-built loss_series
    dict of the given forecast errors and log predictives."""
    errors, log_pred = np.asarray(errors, dtype=float), np.asarray(log_pred, dtype=float)
    losses = {
        "targets": np.arange(1, len(errors) + 1),
        "sq_err": errors[:, None] ** 2,
        "neg_log_pred": -log_pred[:, None],
        "neg_log_pred_joint": -log_pred,
        "crps": np.zeros((len(errors), 1)),
    }
    return score_forecasts("m", 1, losses, ("y",))[0]


class TestRmsfe:
    def test_perfect(self):
        actuals, forecasts = np.array([1.0, 2.0]), np.array([1.0, 2.0])
        row = scored(actuals - forecasts, np.zeros(2))
        assert row.rmsfe == 0.0 == rmsfe(actuals, forecasts)

    def test_constant_error(self):
        row = scored(np.zeros(5) - np.full(5, 2.0), np.zeros(5))
        assert row.rmsfe == pytest.approx(2.0)
        assert row.rmsfe == rmsfe(np.zeros(5), np.full(5, 2.0))

    def test_direct(self):
        row = scored(np.array([3.0, 4.0]) - np.zeros(2), np.zeros(2))
        assert row.rmsfe == pytest.approx(np.sqrt(12.5))
        assert row.rmsfe == rmsfe(np.array([3.0, 4.0]), np.zeros(2))


class TestLogScore:
    def test_standard_normal_mode(self):
        lp = np.array([-0.5 * np.log(2 * np.pi)])
        row = scored(np.zeros(1), lp)
        assert row.ls == pytest.approx(0.9189385332046727)
        assert row.ls == log_score(lp)

    def test_doubling_density(self):
        rng = np.random.default_rng(0)
        lp = rng.normal(size=50)
        doubled = scored(np.zeros(50), lp + np.log(2.0)).ls
        assert doubled == pytest.approx(scored(np.zeros(50), lp).ls - np.log(2.0))
        assert doubled == log_score(lp + np.log(2.0))


def naive_crps(draws, y):
    draws = np.asarray(draws, dtype=float)
    term1 = np.abs(draws - y).mean()
    term2 = np.abs(draws[:, None] - draws[None, :]).mean()
    return term1 - 0.5 * term2


def crps(draws, y):
    """crps_series on one ensemble."""
    return crps_series(np.asarray(draws, dtype=float)[None], [y])[0]


class TestCrps:
    def test_point_mass(self):
        assert crps(np.full(5, 3.0), 3.0) == pytest.approx(0.0)

    def test_two_draws(self):
        assert crps(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5)

    def test_matches_naive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            D = rng.integers(2, 200)
            draws = rng.normal(scale=rng.uniform(0.5, 4.0), size=D)
            y = rng.normal()
            assert crps(draws, y) == pytest.approx(naive_crps(draws, y), abs=1e-10)

    def test_gaussian_analytic(self):
        rng = np.random.default_rng(42)
        draws = rng.standard_normal(10_000)
        # analytic CRPS of N(0,1) at y=0: 2*phi(0) - 1/sqrt(pi)
        analytic = 2 / np.sqrt(2 * np.pi) - 1 / np.sqrt(np.pi)
        assert crps(draws, 0.0) == pytest.approx(analytic, rel=0.02)

    def test_nonnegative_zero_iff_point_mass(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            draws = rng.normal(size=rng.integers(2, 30))
            assert crps(draws, rng.normal()) >= 0
        assert crps(np.array([1.0, 1.0, 1.0]), 1.0) == 0.0
        assert crps(np.array([1.0, 1.0]), 1.1) > 0

    def test_series_matches_scalar(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(size=(7, 23))
        ys = rng.normal(size=7)
        out = crps_series(draws, ys)
        for i in range(7):
            assert out[i] == pytest.approx(crps_from_draws(draws[i], ys[i]), abs=1e-12)

    def test_single_draw_rejected(self):
        with pytest.raises(InputError):
            crps(np.array([1.0]), 0.0)


def reference_dm(loss_a, loss_b, h):
    """Brute-force reference with explicit loops."""
    d = [a - b for a, b in zip(loss_a, loss_b)]
    T = len(d)
    dbar = sum(d) / T
    gam = []
    for lag in range(h):
        acc = 0.0
        for t in range(lag, T):
            acc += (d[t] - dbar) * (d[t - lag] - dbar)
        gam.append(acc / T)
    var = gam[0]
    for lag in range(1, h):
        var += 2.0 * (1.0 - lag / h) * gam[lag]
    if var <= 0:
        return 0.0, 1.0
    stat = dbar / np.sqrt(var / T)
    stat *= np.sqrt((T + 1 - 2 * h + h * (h - 1) / T) / T)
    return stat, 2 * stats.t.sf(abs(stat), df=T - 1)


class TestDmTest:
    def test_identical_losses(self):
        res = dm_test(np.ones(30), np.ones(30), h=1)
        assert res.statistic == 0.0 and res.p_value == 1.0 and res.degenerate

    def test_matches_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            T = rng.integers(20, 120)
            a = rng.normal(size=T) ** 2
            b = rng.normal(size=T) ** 2
            for h in (1, 3):
                res = dm_test(a, b, h=h)
                stat, p = reference_dm(a, b, h)
                assert res.statistic == pytest.approx(stat, abs=1e-10)
                assert res.p_value == pytest.approx(p, abs=1e-10)

    def test_separation(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=60) ** 2
        a = b + 1.0 + 0.001 * rng.normal(size=60)
        res = dm_test(a, b, h=1)
        assert res.p_value < 0.01 and res.statistic > 0

    def test_antisymmetric(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=40) ** 2, rng.normal(size=40) ** 2
        r1, r2 = dm_test(a, b, h=2), dm_test(b, a, h=2)
        assert r1.statistic == pytest.approx(-r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)

    def test_short_series_rejected(self):
        with pytest.raises(InputError):
            dm_test(np.ones(5), np.zeros(5), h=1)

    def test_unequal_lengths_rejected_before_subtracting(self):
        with pytest.raises(InputError, match="loss series must have equal length"):
            dm_test(np.zeros(12), np.zeros(13))
