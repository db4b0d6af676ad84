import numpy as np
import pytest

from divcast.core import ConfigError, InputError, NoiseConfig
from divcast.latent import (
    ADAPTIVE_TVW,
    DTVW,
    TVW,
    LatentMode,
    cloud_weight_tensor,
    init_particles,
    propagate_cloud,
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


class TestCloudWeightTensor:
    @staticmethod
    def _assert_matches_numpy_softmax(lead, models):
        """The kernel against numpy's softmax for K = 2..12 models and
        L = 1..3 variables, checked for K in models; every K draws its input,
        so each K sees the same input whichever models are checked."""
        rng = np.random.default_rng(8)
        for K in range(2, 13):
            for L in range(1, 4):
                x = rng.normal(scale=rng.choice([1.0, 30.0, 400.0]), size=(*lead, K * L))
                if K not in models:
                    continue
                # the kernel takes the entries first and returns (L, K, *lead)
                got = cloud_weight_tensor(np.ascontiguousarray(np.moveaxis(x, -1, 0)), K, L)
                expected = cloud_weight_tensor_numpy(x, K, L)
                assert got.shape == (L, K, *lead)
                got = np.moveaxis(got, (0, 1), (-2, -1))
                assert got.shape == expected.shape == (*lead, L, K)
                if K < 8:
                    assert got.tobytes() == expected.tobytes(), (K, L)
                else:
                    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15, err_msg=f"{(K, L)}")

    @pytest.mark.parametrize("lead", [(), (40,), (3, 40)])
    def test_bitwise_equal_to_numpy_softmax(self, lead):
        # The kernel reduces over the model axis as a loop over slabs, and
        # numpy over a last axis of models the same way below eight models.
        self._assert_matches_numpy_softmax(lead, range(2, 8))

    @pytest.mark.parametrize("lead", [(), (40,), (3, 40)])
    def test_matches_numpy_softmax_from_eight_models(self, lead):
        # From eight models on numpy sums the last axis pairwise, so the two
        # agree to round-off only.
        self._assert_matches_numpy_softmax(lead, range(8, 13))


class TestInitParticles:
    def test_zero_spread_equal_weights(self):
        rng = np.random.default_rng(0)
        cloud = init_particles(8, 3, 1, np.zeros((1, 2)), 0.0, rng)
        for p in particles(cloud):
            np.testing.assert_allclose(cloud_weight_tensor(p.x, 3, 1)[0], [1 / 3, 1 / 3, 1 / 3])

    def test_alpha_exact_and_omega(self):
        rng = np.random.default_rng(0)
        alpha0 = np.array([9.0, 8.5])
        cloud = init_particles(16, 2, 2, alpha0[None], 0.5, rng)
        assert np.all(cloud.alpha[:, 0].T == alpha0)
        assert cloud.omega[0].sum() == pytest.approx(1.0)
        assert len(cloud) == 16 and cloud.x.shape == (4, 1, 16) and cloud.alpha.shape == (2, 1, 16)

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            init_particles(0, 2, 1, np.zeros((1, 2)), 0.0, np.random.default_rng(0))


class TestPropagation:
    def test_tvw_zero_noise_identity(self):
        rng = np.random.default_rng(1)
        p = LatentParticle(np.array([0.3, -0.7]), np.zeros(2), 1.0)
        q = propagate_particle(p, np.array([0.9, 0.1]), TVW, ZERO_NOISE, rng)
        np.testing.assert_array_equal(q.x, p.x)
        np.testing.assert_array_equal(q.alpha, p.alpha)
        assert q.omega == p.omega

    def test_tvw_reduction_from_learned_modes(self):
        # theta pinned to (~1, 0): adaptive mode with a saturated alpha1
        # and zero noise must leave x exactly unchanged
        rng = np.random.default_rng(1)
        p = LatentParticle(np.array([1.5, -2.5]), np.array([60.0, 0.0]), 1.0)
        q = propagate_particle(p, np.array([0.5, 0.5]), ADAPTIVE_TVW, ZERO_NOISE, rng)
        np.testing.assert_array_equal(q.x, p.x)

    def test_dtvw_zero_noise_diversity_step(self):
        rng = np.random.default_rng(1)
        alpha2 = 3.0
        p = LatentParticle(np.zeros(2), np.array([0.0, alpha2]), 1.0)
        q = propagate_particle(p, np.array([0.5, 0.5]), DTVW, ZERO_NOISE, rng)
        expected = np.tanh(alpha2 / 2.0) * np.array([0.5, 0.5])
        np.testing.assert_allclose(q.x, expected, atol=1e-15)

    def test_hundred_step_identity(self):
        rng = np.random.default_rng(1)
        cloud = init_particles(4, 3, 2, np.zeros((1, 2)), 1.0, rng)
        x0 = cloud.x.copy()
        for _ in range(100):
            cloud = propagate_cloud(cloud, np.zeros(6), TVW, ZERO_NOISE, rng)
        np.testing.assert_array_equal(cloud.x, x0)

    @staticmethod
    def _moved_coefficients(mode):
        rng = np.random.default_rng(1)
        cfg = NoiseConfig(np.array([1.0]), sigma_x=0.1, sigma_alpha=0.3)
        alpha0 = np.array([1.0, 5.5])
        cloud = init_particles(64, 2, 1, alpha0[None], 0.0, rng)
        for _ in range(10):
            cloud = propagate_cloud(cloud, np.array([0.5, 0.5]), mode, cfg, rng)
        # the indices of the coefficients (alpha1, alpha2) that moved
        return [j for j in range(2) if np.any(cloud.alpha[j] != alpha0[j])]

    def test_adaptive_freezes_alpha2(self):
        assert self._moved_coefficients(ADAPTIVE_TVW) == [0]

    def test_dtvw_moves_both_coefficients(self):
        # the cloud carries only (alpha1, alpha2): dtvw moves both columns,
        # adaptive_tvw only alpha1's
        assert self._moved_coefficients(DTVW) == [0, 1]
        assert self._moved_coefficients(ADAPTIVE_TVW) == [0]

    def test_no_cross_particle_coupling(self):
        # with zero noise propagation is per-particle deterministic, so a
        # permutation of the cloud propagates to the permuted result
        rng = np.random.default_rng(1)
        cloud = init_particles(10, 2, 1, np.array([[0.6, -0.4]]), 1.0, rng)
        perm = np.random.default_rng(2).permutation(10)
        from divcast.latent import ParticleCloud

        shuffled = ParticleCloud(cloud.x[..., perm], cloud.alpha[..., perm], cloud.omega[:, perm])
        div = np.array([0.7, 0.3])
        out = propagate_cloud(cloud, div, DTVW, ZERO_NOISE, rng)
        out_shuffled = propagate_cloud(shuffled, div, DTVW, ZERO_NOISE, rng)
        np.testing.assert_array_equal(out.x[..., perm], out_shuffled.x)
        np.testing.assert_array_equal(out.alpha[..., perm], out_shuffled.alpha)

    @pytest.mark.parametrize("mode", [TVW, ADAPTIVE_TVW, DTVW], ids=lambda m: m.tag)
    def test_block_matches_each_point_alone(self, mode):
        # a (., P, N) block drawing from one Generator moves every point
        # exactly as that point's own cloud would, and uses the Generator as
        # that cloud's run does
        cfg = NoiseConfig(np.array([1.0]), sigma_x=0.2, sigma_alpha=0.1)
        alpha0 = np.array([[1.0, -2.0], [3.0, 4.0], [-6.0, 0.0]])
        div = np.array([0.1, 0.3, 0.6])
        rng = np.random.default_rng(9)
        block = init_particles(5, 3, 1, alpha0, 0.7, rng)
        block = propagate_cloud(block, div, mode, cfg, rng)
        for p, a0 in enumerate(alpha0):
            alone_rng = np.random.default_rng(9)
            alone = init_particles(5, 3, 1, a0[None], 0.7, alone_rng)
            alone = propagate_cloud(alone, div, mode, cfg, alone_rng)
            np.testing.assert_array_equal(block.x[:, p], alone.x[:, 0])
            np.testing.assert_array_equal(block.alpha[:, p], alone.alpha[:, 0])
            np.testing.assert_array_equal(block.omega[p], alone.omega[0])
            assert alone_rng.bit_generator.state == rng.bit_generator.state

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        p = LatentParticle(np.zeros(4), np.zeros(2), 1.0)
        with pytest.raises(InputError):
            propagate_particle(p, np.zeros(3), DTVW, ZERO_NOISE, rng)

    def test_omega_passes_through(self):
        rng = np.random.default_rng(1)
        cfg = NoiseConfig(np.array([1.0]), sigma_x=0.2, sigma_alpha=0.1)
        p = LatentParticle(np.zeros(2), np.zeros(2), 0.125)
        q = propagate_particle(p, np.array([0.5, 0.5]), DTVW, cfg, rng)
        assert q.omega == 0.125
