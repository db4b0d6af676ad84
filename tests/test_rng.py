import copy
from collections import Counter

import numpy as np

from divcast.core import NoiseConfig, default_sigma_obs
from divcast.dgp import SimSpec, gen_complete_ar
from divcast.filtering import ParticleFilter
from divcast.latent import DTVW
from divcast.rng import distinct_streams, split_streams, standard_normal, substream


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


def state(g):
    return g.bit_generator.state["state"]


def test_uniform_offset_equals_random():
    # systematic_resample draws its offset with random(); uniform() on [0, 1)
    # returns the same double and leaves the stream in the same state.
    for s in range(1000):
        a, b = np.random.default_rng(s), np.random.default_rng(s)
        assert a.uniform() == b.random()
        np.testing.assert_array_equal(a.standard_normal(5), b.standard_normal(5))


class TestDistinctStreams:
    def test_all_distinct_has_no_index(self):
        rngs = [np.random.default_rng(s) for s in range(3)]
        uniq, where = distinct_streams(rngs)
        assert uniq == rngs and where is None

    def test_first_use_order(self):
        g, h, k = (np.random.default_rng(s) for s in range(3))
        uniq, where = distinct_streams([h, g, h, k, g])
        assert uniq[0] is h and uniq[1] is g and uniq[2] is k
        assert where.tolist() == [0, 1, 0, 2, 1]


class TestStandardNormalShared:
    def test_shared_generator_shares_its_slab(self):
        g, h = np.random.default_rng(1), np.random.default_rng(2)
        g_alone, h_alone = copy.deepcopy(g), copy.deepcopy(h)
        out = standard_normal([g, g, h], (3, 4, 2))
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], g_alone.standard_normal((4, 2)))
        np.testing.assert_array_equal(out[2], h_alone.standard_normal((4, 2)))
        assert state(g) == state(g_alone) and state(h) == state(h_alone)


class TestSplitStreams:
    def test_moves_only_masked_members_of_mixed_groups(self):
        g, h, k = (np.random.default_rng(s) for s in range(3))
        before = [state(x) for x in (g, h, k)]
        rngs = [g, g, g, h, h, k]
        split = split_streams(rngs, np.array([True, True, False, True, True, False]))
        # g is held inside and outside the mask: its masked holders share one copy
        assert split[0] is split[1] and split[0] is not g and split[2] is g
        assert state(split[0]) == state(g)
        # h is held only inside, k only outside: both keep their object
        assert split[3] is h and split[4] is h and split[5] is k
        assert [state(x) for x in (g, h, k)] == before
        assert rngs == [g, g, g, h, h, k]

    def test_nothing_shared_is_unchanged(self):
        rngs = [np.random.default_rng(s) for s in range(3)]
        split = split_streams(rngs, np.array([True, False, True]))
        assert all(a is b for a, b in zip(split, rngs))


def test_shared_stream_draws_once_without_resampling():
    obs, panel = gen_complete_ar(SimSpec(design="complete_ar", T=15, seed=2, n_pred_draws=4))
    # kappa below 1/N: the ESS never falls under it, so nothing resamples
    pf = ParticleFilter(panel, DTVW, NoiseConfig(default_sigma_obs(obs, panel)), kappa=1e-3, n_pred_draws=6)
    alpha0 = np.array([[0.0, 1.0, 0.5], [0.0, -2.0, 3.0], [0.0, 4.0, -1.0], [0.0, 0.0, 0.0]])
    one, shared = CountingGenerator(substream(3, "filter")), CountingGenerator(substream(3, "filter"))
    alone = pf.run_block(obs, 30, alpha0[:1], [one], x0_spread=0.5)
    block = pf.run_block(obs, 30, alpha0, [shared] * len(alpha0), x0_spread=0.5)
    assert not any(out.resampled.any() for out in block)
    assert one.calls == shared.calls
    assert shared.calls["standard_normal"] == 1 + 3 * obs.n_steps  # x0, then alpha, x and draw noise per step
    np.testing.assert_array_equal(block[0].forecasts.draws, alone[0].forecasts.draws)
