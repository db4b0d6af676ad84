from collections import Counter

import numpy as np

from divcast.core import NoiseConfig, ObservationSeries, default_sigma_obs
from divcast.dgp import SimSpec, generate
from divcast.filtering import ParticleFilter
from divcast.latent import DTVW
from divcast.rng import substream


class CountingGenerator:
    """A Generator that counts its draw calls by method."""

    def __init__(self, g):
        self.g = g
        self.calls = Counter()

    def _count(self, name):
        def draw(*args, **kwargs):
            self.calls[name] += 1
            return getattr(self.g, name)(*args, **kwargs)

        return draw

    def __getattr__(self, name):
        if name in ("standard_normal", "integers", "random"):
            return self._count(name)
        return getattr(self.g, name)


def test_uniform_offset_equals_random():
    # systematic_resample draws its offset with random(); uniform() on [0, 1)
    # returns the same double and leaves the stream in the same state.
    for s in range(1000):
        a, b = np.random.default_rng(s), np.random.default_rng(s)
        assert a.uniform() == b.random()
        np.testing.assert_array_equal(a.standard_normal(5), b.standard_normal(5))


def test_shared_stream_draws_once_without_resampling():
    obs, panel = generate(SimSpec(design="complete_ar", T=15, seed=2, n_pred_draws=4))
    cfg = NoiseConfig(default_sigma_obs(obs, panel))
    alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0], [0.0, 0.0, 0.0]])
    perturbed = ObservationSeries(1.5 * obs.values + 0.3, obs.variable_names)

    def run(kappa, observations, points):
        pf = ParticleFilter(panel, DTVW, cfg, kappa=kappa, n_pred_draws=6)
        g = CountingGenerator(substream(3, "filter"))
        return pf.run_block(observations, 30, points, g, x0_spread=0.5), g

    # kappa below 1/N: the ESS never falls under it, so nothing resamples
    alone, one = run(1e-3, obs, alpha0[:1])
    block, shared = run(1e-3, obs, alpha0)
    assert not any(out.resampled.any() for out in block)
    assert shared.calls == one.calls
    # x0, then alpha, x and draw noise per step; the picks' and the
    # resampling offsets per step
    assert shared.calls["standard_normal"] == 1 + 3 * obs.n_steps
    assert shared.calls["random"] == 2 * obs.n_steps
    np.testing.assert_array_equal(block[0].forecasts.draws, alone[0].forecasts.draws)

    # Resampling, and other data, leave the stream's use as it was.
    resampling, g_resampling = run(0.9, obs, alpha0)
    moved, g_moved = run(0.9, perturbed, alpha0)
    flags = [np.array([out.resampled for out in outs]) for outs in (resampling, moved)]
    assert flags[0].any() and not np.array_equal(flags[0], flags[1])
    for g in (g_resampling, g_moved):
        assert g.calls == one.calls
        assert g.bit_generator.state == one.bit_generator.state
