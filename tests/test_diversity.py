import numpy as np
import pytest

from divcast.core import InputError, PredictorPanel, matrix_to_latent
from divcast.diversity import diversity_vector, scaled_diversity


class TestScaledDiversity:
    def test_two_model_symmetry(self):
        np.testing.assert_allclose(scaled_diversity(np.array([[1.0], [3.0]]))[:, 0], [0.5, 0.5])

    def test_three_model_direct(self):
        # pairwise squares (0,1,2): 1, 4, 1 -> numerators (5, 2, 5), denominator 12
        d = scaled_diversity(np.array([[0.0], [1.0], [2.0]]))
        np.testing.assert_allclose(d[:, 0], [5 / 12, 2 / 12, 5 / 12], atol=1e-15)

    def test_degenerate_uniform(self):
        d = scaled_diversity(np.array([[2.0], [2.0], [2.0]]))
        np.testing.assert_allclose(d[:, 0], [1 / 3, 1 / 3, 1 / 3])

    def test_needs_two_models(self):
        with pytest.raises(InputError):
            scaled_diversity(np.array([[1.0]]))

    def test_column_sums_bulk(self):
        rng = np.random.default_rng(17)
        preds = rng.normal(scale=5.0, size=(6, 10_000))
        d = scaled_diversity(preds)
        np.testing.assert_allclose(d.sum(axis=0), 1.0, atol=1e-10)
        assert np.all(d >= 0) and np.all(d <= 1)

    def test_location_invariance(self):
        rng = np.random.default_rng(23)
        preds = rng.normal(size=(4, 500))
        shifted = preds + rng.normal(scale=100.0, size=(1, 500))
        np.testing.assert_allclose(scaled_diversity(shifted), scaled_diversity(preds), atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(29)
        preds = rng.normal(size=(4, 500))
        for c in (2.5, -3.0, 1e-3, 1e4):
            np.testing.assert_allclose(scaled_diversity(c * preds), scaled_diversity(preds), atol=1e-10)

    @pytest.mark.parametrize("K", range(2, 14))
    def test_stack_equals_each_block(self, K):
        # past 8 models numpy sums the model axis pairwise; a stack must sum
        # each block as it is summed alone, all-equal columns included
        rng = np.random.default_rng(K)
        for L in (1, 2, 3):
            stack = rng.normal(scale=rng.choice([1.0, 1e3]), size=(9, K, L))
            stack[2, :, 0] = 4.0
            stack[5] = -1.5
            got = scaled_diversity(stack)
            assert got.shape == (9, K, L)
            for t in range(9):
                assert got[t].tobytes() == scaled_diversity(stack[t]).tobytes(), (K, L, t)
            np.testing.assert_array_equal(got[5], 1 / K)

    def test_max_outlier_property(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            base = rng.normal()
            cluster = base + rng.normal(scale=0.1, size=5)
            outlier = base + 10.0 + rng.normal(scale=0.1)
            preds = np.append(cluster, outlier)[:, None]
            d = scaled_diversity(preds)[:, 0]
            assert np.argmax(d) == 5
            assert d[5] > d[:5].max()


class TestDiversityVector:
    def test_two_model_uniform(self):
        draws = np.zeros((1, 2, 1, 1, 2))
        draws[0, 0, 0, 0] = [1.0, 1.0]
        draws[0, 1, 0, 0] = [3.0, 3.0]
        panel = PredictorPanel(draws, ("a", "b"))
        np.testing.assert_allclose(diversity_vector(panel, 1)[0], [0.5, 0.5])

    def test_identical_structure_per_variable(self):
        draws = np.zeros((1, 2, 2, 1, 1))
        draws[0, :, 0, 0, 0] = [1.0, 4.0]
        draws[0, :, 1, 0, 0] = [1.0, 4.0]
        panel = PredictorPanel(draws, ("a", "b"))
        v = diversity_vector(panel, 1)[0]
        np.testing.assert_allclose(v[:2], v[2:])

    def test_three_model_direct(self):
        draws = np.zeros((1, 3, 1, 1, 1))
        draws[0, :, 0, 0, 0] = [0.0, 1.0, 2.0]
        panel = PredictorPanel(draws, ("a", "b", "c"))
        np.testing.assert_allclose(diversity_vector(panel, 1)[0], [5 / 12, 2 / 12, 5 / 12])

    def test_layout_aligns_with_latent_vector(self):
        # variable 1 means (0,1,2) -> (5/12, 2/12, 5/12); variable 2 means
        # (0,0,10) -> (0.25, 0.25, 0.5); entry for (model k, variable l) must
        # sit at position l*K + k, matching the latent vectorization.
        draws = np.zeros((1, 3, 2, 1, 1))
        draws[0, :, 0, 0, 0] = [0.0, 1.0, 2.0]
        draws[0, :, 1, 0, 0] = [0.0, 0.0, 10.0]
        panel = PredictorPanel(draws, ("a", "b", "c"))
        v = diversity_vector(panel, 1)[0]
        expected = matrix_to_latent(
            np.array([[5 / 12, 0.25], [2 / 12, 0.25], [5 / 12, 0.5]])
        )
        np.testing.assert_allclose(v, expected, atol=1e-15)
        assert v[1 * 3 + 2] == pytest.approx(0.5)

    def test_out_of_range(self):
        # h = 0 would otherwise index the last horizon's means
        draws = np.zeros((2, 2, 1, 3, 1))
        panel = PredictorPanel(draws, ("a", "b"))
        for h in (0, 4):
            with pytest.raises(InputError, match=f"horizon {h} outside 1..3"):
                diversity_vector(panel, h)

    @pytest.mark.parametrize("L", [1, 2])
    def test_path_rows_are_the_per_time_vectors(self, L):
        rng = np.random.default_rng(L)
        panel = PredictorPanel(rng.normal(size=(7, 4, L, 2, 3)), ("a", "b", "c", "d"))
        for h in (1, 2):
            path = diversity_vector(panel, h)
            assert path.shape == (7, 4 * L)
            for t in range(1, 8):
                expected = matrix_to_latent(scaled_diversity(panel.mean_matrix(t, h)))
                assert path[t - 1].tobytes() == expected.tobytes()
