import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divcast.core import ConfigError, InputError, NoiseConfig
from divcast.latent import (
    ADAPTIVE_TVW,
    DTVW,
    TVW,
    LatentMode,
    cloud_weight_tensor,
    init_particles,
    propagate_cloud,
    reduce_models,
    theta_from_alpha,
)
from oracles import LatentParticle, cloud_weight_tensor_numpy, particles, propagate_particle

ZERO_NOISE = NoiseConfig(np.array([1.0]), sigma_x=0.0, sigma_alpha=0.0)


class TestThetaFromAlpha:
    def test_odd_at_zero(self):
        assert theta_from_alpha(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_reported_saturation(self):
        # alpha = 9 squashes to ~0.9998
        assert theta_from_alpha(np.array([9.0]))[0] == pytest.approx(0.9998, abs=5e-5)

    def test_odd_function(self):
        rng = np.random.default_rng(2)
        a = rng.normal(scale=5.0, size=1000)
        np.testing.assert_allclose(theta_from_alpha(-a), -theta_from_alpha(a), atol=1e-15)

    def test_range_and_monotone(self):
        # in float64 tanh saturates to exactly +/-1 for |alpha| > ~38; test
        # the representable range
        rng = np.random.default_rng(4)
        a = np.sort(rng.uniform(-35, 35, size=5000))
        th = theta_from_alpha(a)
        assert np.all(th > -1.0) and np.all(th < 1.0)
        assert np.all(np.diff(th) >= 0)
        # strict monotonicity on distinct moderate pairs
        b = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(theta_from_alpha(b)) > 0)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            theta_from_alpha(np.array([np.nan, 0.0, 0.0]))


class TestLatentMode:
    def test_tags(self):
        assert TVW.tag == "tvw" and ADAPTIVE_TVW.tag == "adaptive_tvw" and DTVW.tag == "dtvw"
        assert not TVW.uses_diversity and not ADAPTIVE_TVW.uses_diversity
        assert DTVW.uses_diversity

    def test_invalid(self):
        with pytest.raises(ConfigError):
            LatentMode("bogus")


EDGE_VALUES = (np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0)
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_subnormal=True))


@st.composite
def model_arrays(draw, n_models):
    """Arrays of 1-3 leading axes and a last axis of n_models entries, drawn
    from the edge values and any non-NaN float, optionally with a strided
    last axis."""
    lead = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    shape = (*lead, n_models)
    a = np.array(draw(st.lists(FLOATS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)
    if draw(st.booleans()):
        a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
    return a


class TestReduceModels:
    @pytest.mark.parametrize("n_models", range(1, 17))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_bitwise_equal_to_numpy_reduction(self, n_models, data):
        if data is None:
            # A row of -0.0 sums to +0.0 in numpy; from 8 entries on, numpy's
            # pairwise sum of the second row rounds unlike a left-to-right one.
            a = np.stack([np.full(n_models, -0.0), np.r_[1.0, np.full(n_models - 1, 2.0**-53)]])
        else:
            a = data.draw(model_arrays(n_models))
        with np.errstate(all="ignore"):
            for ufunc, expected in ((np.maximum, a.max(axis=-1)), (np.add, a.sum(axis=-1))):
                got = reduce_models(ufunc, a)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_nan_stays_nan(self):
        a = np.array([[1.0, np.nan, 2.0], [np.nan, -np.nan, 0.0], [0.0, 1.0, 2.0]])
        for ufunc, expected in ((np.maximum, a.max(axis=-1)), (np.add, a.sum(axis=-1))):
            np.testing.assert_array_equal(np.isnan(reduce_models(ufunc, a)), np.isnan(expected))


class TestCloudWeightTensor:
    @pytest.mark.parametrize("lead", [(), (40,), (3, 40)])
    def test_bitwise_equal_to_numpy_softmax(self, lead):
        rng = np.random.default_rng(8)
        for K in range(2, 13):
            for L in range(1, 4):
                x = rng.normal(scale=rng.choice([1.0, 30.0, 400.0]), size=(*lead, K * L))
                got = cloud_weight_tensor(x, K, L)
                expected = cloud_weight_tensor_numpy(x, K, L)
                assert got.shape == expected.shape == (*lead, L, K)
                assert got.tobytes() == expected.tobytes(), (K, L)


class TestInitParticles:
    def test_zero_spread_equal_weights(self):
        rng = np.random.default_rng(0)
        cloud = init_particles(8, 3, 1, np.zeros((1, 3)), 0.0, [rng])
        for p in particles(cloud):
            np.testing.assert_allclose(cloud_weight_tensor(p.x, 3, 1)[0], [1 / 3, 1 / 3, 1 / 3])

    def test_alpha_exact_and_omega(self):
        rng = np.random.default_rng(0)
        alpha0 = np.array([0.0, 9.0, 8.5])
        cloud = init_particles(16, 2, 2, alpha0[None], 0.5, [rng])
        assert np.all(cloud.alpha[0] == alpha0)
        assert cloud.omega[0].sum() == pytest.approx(1.0)
        assert len(cloud) == 16 and cloud.x[0].shape == (16, 4)

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            init_particles(0, 2, 1, np.zeros((1, 3)), 0.0, [np.random.default_rng(0)])


class TestPropagation:
    def test_tvw_zero_noise_identity(self):
        rng = np.random.default_rng(1)
        p = LatentParticle(np.array([0.3, -0.7]), np.zeros(3), 1.0)
        q = propagate_particle(p, np.array([0.9, 0.1]), TVW, ZERO_NOISE, rng)
        np.testing.assert_array_equal(q.x, p.x)
        np.testing.assert_array_equal(q.alpha, p.alpha)
        assert q.omega == p.omega

    def test_tvw_reduction_from_learned_modes(self):
        # theta pinned to (0, ~1, 0): adaptive mode with a saturated alpha1
        # and zero noise must leave x exactly unchanged
        rng = np.random.default_rng(1)
        p = LatentParticle(np.array([1.5, -2.5]), np.array([0.0, 60.0, 0.0]), 1.0)
        q = propagate_particle(p, np.array([0.5, 0.5]), ADAPTIVE_TVW, ZERO_NOISE, rng)
        np.testing.assert_array_equal(q.x, p.x)

    def test_dtvw_zero_noise_diversity_step(self):
        rng = np.random.default_rng(1)
        alpha2 = 3.0
        p = LatentParticle(np.zeros(2), np.array([0.0, 0.0, alpha2]), 1.0)
        q = propagate_particle(p, np.array([0.5, 0.5]), DTVW, ZERO_NOISE, rng)
        expected = np.tanh(alpha2 / 2.0) * np.array([0.5, 0.5])
        np.testing.assert_allclose(q.x, expected, atol=1e-15)

    def test_hundred_step_identity(self):
        rng = np.random.default_rng(1)
        cloud = init_particles(4, 3, 2, np.zeros((1, 3)), 1.0, [rng])
        x0 = cloud.x[0].copy()
        for _ in range(100):
            cloud = propagate_cloud(cloud, np.zeros(6), TVW, ZERO_NOISE, [rng])
        np.testing.assert_array_equal(cloud.x[0], x0)

    def test_adaptive_freezes_alpha2(self):
        rng = np.random.default_rng(1)
        cfg = NoiseConfig(np.array([1.0]), sigma_x=0.1, sigma_alpha=0.3)
        cloud = init_particles(64, 2, 1, np.array([[0.0, 1.0, 5.5]]), 0.0, [rng])
        for _ in range(10):
            cloud = propagate_cloud(cloud, np.array([0.5, 0.5]), ADAPTIVE_TVW, cfg, [rng])
        alpha = cloud.alpha[0]
        assert np.all(alpha[:, 2] == 5.5)
        assert alpha[:, 0].std() > 0 and alpha[:, 1].std() > 0

    def test_no_cross_particle_coupling(self):
        # with zero noise propagation is per-particle deterministic, so a
        # permutation of the cloud propagates to the permuted result
        rng = np.random.default_rng(1)
        cloud = init_particles(10, 2, 1, np.array([[0.3, 0.6, -0.4]]), 1.0, [rng])
        perm = np.random.default_rng(2).permutation(10)
        from divcast.latent import ParticleCloud

        shuffled = ParticleCloud(cloud.x[:, perm], cloud.alpha[:, perm], cloud.omega[:, perm])
        div = np.array([0.7, 0.3])
        out = propagate_cloud(cloud, div, DTVW, ZERO_NOISE, [rng])
        out_shuffled = propagate_cloud(shuffled, div, DTVW, ZERO_NOISE, [rng])
        np.testing.assert_array_equal(out.x[0, perm], out_shuffled.x[0])
        np.testing.assert_array_equal(out.alpha[0, perm], out_shuffled.alpha[0])

    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_block_matches_each_point_alone(self, mode):
        # a (P, N, .) block with one Generator per point moves every point
        # exactly as that point's own cloud and Generator would
        cfg = NoiseConfig(np.array([1.0]), sigma_x=0.2, sigma_alpha=0.1)
        alpha0 = np.array([[0.0, 1.0, -2.0], [0.5, 3.0, 4.0], [0.0, -6.0, 0.0]])
        div = np.array([0.1, 0.3, 0.6])
        block = init_particles(5, 3, 1, alpha0, 0.7, [np.random.default_rng(9) for _ in alpha0])
        block = propagate_cloud(block, div, mode, cfg, [np.random.default_rng(p) for p in range(3)])
        for p, a0 in enumerate(alpha0):
            alone = init_particles(5, 3, 1, a0[None], 0.7, [np.random.default_rng(9)])
            alone = propagate_cloud(alone, div, mode, cfg, [np.random.default_rng(p)])
            np.testing.assert_array_equal(block.x[p], alone.x[0])
            np.testing.assert_array_equal(block.alpha[p], alone.alpha[0])
            np.testing.assert_array_equal(block.omega[p], alone.omega[0])

    def test_block_needs_one_generator_per_point(self):
        with pytest.raises(InputError, match="one Generator per point"):
            init_particles(4, 2, 1, np.zeros((3, 3)), 0.0, [np.random.default_rng(0)] * 2)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        p = LatentParticle(np.zeros(4), np.zeros(3), 1.0)
        with pytest.raises(InputError):
            propagate_particle(p, np.zeros(3), DTVW, ZERO_NOISE, rng)

    def test_omega_passes_through(self):
        rng = np.random.default_rng(1)
        cfg = NoiseConfig(np.array([1.0]), sigma_x=0.2, sigma_alpha=0.1)
        p = LatentParticle(np.zeros(2), np.zeros(3), 0.125)
        q = propagate_particle(p, np.array([0.5, 0.5]), DTVW, cfg, rng)
        assert q.omega == 0.125
