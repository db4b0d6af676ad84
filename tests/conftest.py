import os

import numpy as np
import pytest

from divcast.core import NoiseConfig, ObservationSeries, PredictorPanel


@pytest.fixture
def tiny_panel():
    """K=2 models, L=1 variable, H=1, D=1, T=3 with fixed values."""
    draws = np.zeros((3, 2, 1, 1, 1))
    draws[:, 0, 0, 0, 0] = [1.0, 2.0, 3.0]
    draws[:, 1, 0, 0, 0] = [3.0, 4.0, 5.0]
    return PredictorPanel(draws, ("A", "B"), ("y",))


@pytest.fixture
def tiny_obs():
    return ObservationSeries(np.array([[2.0], [3.0], [4.0]]), ("y",))


@pytest.fixture
def degenerate_problem():
    """(obs, panel, cfg): model A forecasts y exactly, B and C sit 10 above
    it; with sigma_obs = 1e-154 a particle survives a step only if its
    combined forecast lies within ~1.3 of y.  alpha1 = 0 wipes an x0 spread
    of 5, the cloud keeps near-equal weights and every likelihood underflows;
    a positive alpha1 keeps particles that favour model A."""
    T = 8
    y = np.random.default_rng(0).normal(size=T)
    draws = np.empty((T, 3, 1, 1, 2))
    for k, offset in enumerate((0.0, 10.0, 10.5)):
        draws[:, k, 0, 0, :] = (y + offset)[:, None]
    panel = PredictorPanel(draws, ("A", "B", "C"))
    obs = ObservationSeries(y[:, None], ("y",))
    return obs, panel, NoiseConfig(np.array([1e-154]))


@pytest.fixture
def forked(monkeypatch):
    """The pids of every child os.fork makes during the test; on teardown
    each one must already be reaped."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
