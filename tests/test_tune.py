import numpy as np
import pytest

from divcast.core import InputError
from divcast.tune import GridSpec, grid_search


def quadratic(alpha, seed):
    return (alpha[0] - 3.0) ** 2 + (alpha[1] - 4.0) ** 2


class TestGridSearch:
    def test_convex_surrogate_finds_nearest_lattice(self):
        spec = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=0.5)
        best, surface = grid_search(spec, quadratic, seed=0)
        np.testing.assert_allclose(best, [3.0, 4.0])

    def test_one_stage_only(self):
        spec = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=None)
        best, surface = grid_search(spec, quadratic, seed=0)
        # nearest coarse lattice point to (3, 4)
        np.testing.assert_allclose(best, [2.0, 4.0])
        assert len(surface) == 11 * 11

    def test_constant_objective_tie_break(self):
        spec = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=0.5)
        best, _ = grid_search(spec, lambda a, s: 1.0, seed=0)
        np.testing.assert_allclose(best, [0.0, 0.0])

    def test_tie_break_l1_then_lexicographic(self):
        # objective flat on a small lattice not containing the origin
        spec = GridSpec(stage1=((1.0, 2.0, 1.0), (-3.0, 3.0, 3.0)), stage2_step=None)
        best, _ = grid_search(spec, lambda a, s: 0.5, seed=0)
        # |1|+|0| = 1 is the smallest L1 norm on the lattice
        np.testing.assert_allclose(best, [1.0, 0.0])

    def test_stage2_never_worse_than_stage1(self):
        rng = np.random.default_rng(0)

        def noisy(alpha, seed):
            return float(np.sin(alpha[0]) * np.cos(alpha[1]) + 0.1 * alpha[0])

        spec1 = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=None)
        spec2 = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=0.5)
        _, surf1 = grid_search(spec1, noisy, seed=0)
        best2, surf2 = grid_search(spec2, noisy, seed=0)
        best2_val = min(v for _, _, v in surf2)
        assert best2_val <= min(v for _, _, v in surf1)

    def test_runner_failure_recorded_as_inf(self):
        def flaky(alpha, seed):
            if alpha[0] == 0.0 and alpha[1] == 0.0:
                raise RuntimeError("boom")
            return quadratic(alpha, seed)

        spec = GridSpec(stage1=((-2, 2, 2.0), (-2, 2, 2.0)), stage2_step=None)
        best, surface = grid_search(spec, flaky, seed=0)
        vals = {(a1, a2): v for a1, a2, v in surface}
        assert vals[(0.0, 0.0)] == np.inf
        np.testing.assert_allclose(best, [2.0, 2.0])

    def test_surface_covers_each_point_once(self):
        spec = GridSpec(stage1=((-4, 4, 2.0), (-4, 4, 2.0)), stage2_step=1.0)
        _, surface = grid_search(spec, quadratic, seed=0)
        pts = [(a1, a2) for a1, a2, _ in surface]
        assert len(pts) == len(set(pts))

    def test_explicit_stage2_bounds(self):
        spec = GridSpec(
            stage1=((-10, 10, 2.0), (-10, 10, 2.0)),
            stage2_step=0.5,
            stage2_bounds=((1.0, 8.0), (3.0, 10.0)),
        )
        best, surface = grid_search(spec, quadratic, seed=0)
        np.testing.assert_allclose(best, [3.0, 4.0])
        fine = [p for p in surface if p[0] % 2 != 0 or p[1] % 2 != 0]
        assert all(1.0 <= a1 <= 8.0 and 3.0 <= a2 <= 10.0 for a1, a2, _ in fine)

    def test_programming_error_propagates(self):
        def broken(alpha, seed):
            raise TypeError("bad call")

        spec = GridSpec(stage1=((-2, 2, 2.0), (-2, 2, 2.0)), stage2_step=None)
        with pytest.raises(TypeError, match="bad call"):
            grid_search(spec, broken, seed=0)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            GridSpec(stage1=((0, 1, 0.0), (0, 1, 1.0)))
        with pytest.raises(InputError):
            GridSpec(stage1=((1, 0, 1.0), (0, 1, 1.0)))
        with pytest.raises(InputError):
            GridSpec(eval_draws=1)
