import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcast import tune
from divcast.core import DegeneracyError, InputError
from divcast.dataio import load_observations, load_panel
from divcast.dgp import SimSpec, generate
from divcast.filtering import ParticleFilter, run_filter
from divcast.latent import DTVW
from divcast.tune import GridSpec, grid_search, make_crps_runner
from oracles import crps_objective


def quadratic(points, seed):
    return (points[:, 0] - 3.0) ** 2 + (points[:, 1] - 4.0) ** 2


def constant(value):
    return lambda points, seed: np.full(len(points), value)


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
        best, _ = grid_search(spec, constant(1.0), seed=0)
        np.testing.assert_allclose(best, [0.0, 0.0])

    def test_tie_break_l1_then_lexicographic(self):
        # objective flat on a small lattice not containing the origin
        spec = GridSpec(stage1=((1.0, 2.0, 1.0), (-3.0, 3.0, 3.0)), stage2_step=None)
        best, _ = grid_search(spec, constant(0.5), seed=0)
        # |1|+|0| = 1 is the smallest L1 norm on the lattice
        np.testing.assert_allclose(best, [1.0, 0.0])

    def test_stage2_never_worse_than_stage1(self):
        rng = np.random.default_rng(0)

        def noisy(points, seed):
            return np.sin(points[:, 0]) * np.cos(points[:, 1]) + 0.1 * points[:, 0]

        spec1 = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=None)
        spec2 = GridSpec(stage1=((-10, 10, 2.0), (-10, 10, 2.0)), stage2_step=0.5)
        _, surf1 = grid_search(spec1, noisy, seed=0)
        best2, surf2 = grid_search(spec2, noisy, seed=0)
        best2_val = min(v for _, _, v in surf2)
        assert best2_val <= min(v for _, _, v in surf1)

    def test_runner_failure_recorded_as_inf(self):
        # a runner reports a failed point as +inf; the search records it and
        # moves on
        def flaky(points, seed):
            failed = (points[:, 0] == 0.0) & (points[:, 1] == 0.0)
            return np.where(failed, np.inf, quadratic(points, seed))

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

    def test_surface_holds_python_floats(self):
        # write_table writes cells as given, so no numpy scalar may reach it
        spec = GridSpec(stage1=((-4, 4, 2.0), (-4, 4, 2.0)), stage2_step=1.0)
        _, surface = grid_search(spec, quadratic, seed=0)
        assert {type(v) for row in surface for v in row} == {float}

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
        def broken(points, seed):
            raise TypeError("bad call")

        spec = GridSpec(stage1=((-2, 2, 2.0), (-2, 2, 2.0)), stage2_step=None)
        with pytest.raises(TypeError, match="bad call"):
            grid_search(spec, broken, seed=0)

    def test_runtime_error_propagates(self):
        # failure handling belongs to the runner: the search itself lets a
        # degeneracy-like error through instead of scoring it
        def failing(points, seed):
            raise RuntimeError("boom")

        spec = GridSpec(stage1=((-2, 2, 2.0), (-2, 2, 2.0)), stage2_step=None)
        with pytest.raises(RuntimeError, match="boom"):
            grid_search(spec, failing, seed=0)

    def test_each_stage_one_call_of_new_points_in_lattice_order(self):
        calls = []

        def recording(points, seed):
            calls.append([tuple(p) for p in points.tolist()])
            return quadratic(points, seed)

        spec = GridSpec(stage1=((-4, 4, 2.0), (-4, 4, 2.0)), stage2_step=1.0)
        _, surface = grid_search(spec, recording, seed=0)
        coarse = [(a1, a2) for a1 in (-4.0, -2.0, 0.0, 2.0, 4.0) for a2 in (-4.0, -2.0, 0.0, 2.0, 4.0)]
        # stage two refines [0, 4] x [2, 4] around the incumbent (2, 4),
        # minus the coarse points already evaluated
        fine = [(a1, a2) for a1 in (0.0, 1.0, 2.0, 3.0, 4.0) for a2 in (2.0, 3.0, 4.0)]
        assert calls == [coarse, [p for p in fine if p not in coarse]]
        assert [(a1, a2) for a1, a2, _ in surface] == calls[0] + calls[1]

    def test_wrong_value_count_rejected(self):
        spec = GridSpec(stage1=((-2, 2, 2.0), (-2, 2, 2.0)), stage2_step=None)
        with pytest.raises(ValueError, match="values for 9 points"):
            grid_search(spec, lambda points, seed: np.zeros(3), seed=0)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            GridSpec(stage1=((0, 1, 0.0), (0, 1, 1.0)))
        with pytest.raises(InputError):
            GridSpec(stage1=((1, 0, 1.0), (0, 1, 1.0)))
        with pytest.raises(InputError):
            GridSpec(eval_draws=1)
        for reversed_pair in (((1.0, -1.0), (-1.0, 1.0)), ((-1.0, 1.0), (1.0, 0.5))):
            with pytest.raises(InputError, match="stage2_bounds must give lo <= hi"):
                GridSpec(stage2_bounds=reversed_pair)

    def test_stage_point_limit(self):
        # 1,000 x 1,000 points is the most a stage may hold
        GridSpec(stage1=((0, 999, 1.0), (0, 999, 1.0)), stage2_step=None)
        with pytest.raises(InputError, match="stage1 gives more than 1,000,000 grid points"):
            GridSpec(stage1=((0, 1000, 1.0), (0, 999, 1.0)), stage2_step=None)
        # stage two refines stage2_margin coarse cells on each side of the
        # incumbent: 801 points an axis at margin 1, 1,601 at margin 2
        GridSpec(stage1=((-100, 100, 2.0),) * 2, stage2_step=0.005, stage2_margin=1)
        with pytest.raises(InputError, match="stage2_step gives more than"):
            GridSpec(stage1=((-100, 100, 2.0),) * 2, stage2_step=0.005, stage2_margin=2)
        with pytest.raises(InputError, match="stage2_bounds gives more than"):
            GridSpec(stage2_step=0.001, stage2_bounds=((0.0, 1.0), (0.0, 1.0)))

    @settings(max_examples=200, deadline=None)
    @given(
        axes=st.lists(
            st.tuples(st.floats(-50, 50), st.floats(0.01, 100), st.floats(0.5, 12)), min_size=2, max_size=2
        ),
        refine=st.floats(0.3, 40),
        margin=st.integers(0, 4),
    )
    def test_stage2_limit_counts_the_largest_rectangle(self, axes, refine, margin):
        # every incumbent on the stage-one lattice gives a stage-two lattice
        # no larger than the rectangle GridSpec counts against the limit
        stage1 = tuple((lo, lo + span, span / cells) for lo, span, cells in axes)
        counted = {}
        check = tune._check_points

        def recording(key, axes):
            counted[key] = np.prod([len(tune._lattice(*axis)) for axis in axes])
            check(key, axes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tune, "_check_points", recording)
            spec = GridSpec(stage1=stage1, stage2_step=max(step for _, _, step in stage1) / refine, stage2_margin=margin)
        for incumbent in itertools.product(*(tune._lattice(*axis) for axis in stage1)):
            size = np.prod([len(tune._lattice(*axis)) for axis in tune._stage2_axes(spec, incumbent)])
            assert size <= counted["stage2_step"]

    def test_equal_stage2_bounds_refine_one_line(self):
        spec = GridSpec(stage1=((-4, 4, 2.0), (-4, 4, 2.0)), stage2_step=1.0, stage2_bounds=((3.0, 3.0), (-1.0, 1.0)))
        _, surface = grid_search(spec, quadratic, seed=0)
        assert [(a1, a2) for a1, a2, _ in surface[25:]] == [(3.0, -1.0), (3.0, 0.0), (3.0, 1.0)]


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "pseudo_empirical")
POINTS = np.array([(a1, a2) for a1 in (-6.0, 0.0, 4.0) for a2 in (-3.0, 0.0, 7.5)])


def oracle_values(obs, panel, points, seed, n_particles, eval_draws, runner_kw):
    """Per-point run_filter + crps_series values, with the runner's keywords
    translated to run_filter's."""
    kw = dict(runner_kw)
    window, variable = kw.pop("eval_window", None), kw.pop("variable", None)
    return np.array([
        crps_objective(
            obs, panel, p, seed, eval_window=window, variable=variable,
            n_particles=n_particles, n_pred_draws=eval_draws, **kw,
        )
        for p in points
    ])


class TestCrpsRunnerEquivalence:
    """The batched objective equals each point's filter run alone, bit for
    bit, whatever the block size."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("design", ["complete_ar", "nonlinear_incomplete"])
    def test_designs_and_seeds(self, design, seed):
        obs, panel = generate(SimSpec(design=design, T=25, seed=seed, n_pred_draws=5))
        runner = make_crps_runner(obs, panel, n_particles=30, eval_draws=6)
        expected = oracle_values(obs, panel, POINTS, seed, 30, 6, {})
        np.testing.assert_array_equal(runner(POINTS, seed), expected)

    @pytest.mark.parametrize(
        "runner_kw",
        [
            {"horizon": 2},
            {"x0_spread": 0.8, "kappa": 0.9},
            {"horizon": 2, "x0_spread": 0.5, "eval_window": (8, 20)},
        ],
        ids=["horizon2", "x0_spread", "horizon2_window"],
    )
    def test_horizon_spread_window(self, runner_kw):
        obs, panel = generate(SimSpec(design="complete_ar", T=25, seed=3, n_pred_draws=5, horizons=2))
        runner = make_crps_runner(obs, panel, n_particles=30, eval_draws=6, **runner_kw)
        expected = oracle_values(obs, panel, POINTS, 4, 30, 6, runner_kw)
        np.testing.assert_array_equal(runner(POINTS, 4), expected)

    @pytest.mark.parametrize("runner_kw", [{}, {"variable": 1, "horizon": 3, "x0_spread": 0.3}], ids=["average", "variable"])
    def test_two_variable_fixture(self, runner_kw):
        obs = load_observations(os.path.join(FIXTURE, "observations.csv"))
        panel = load_panel(os.path.join(FIXTURE, "panel.csv"))
        runner = make_crps_runner(obs, panel, n_particles=25, eval_draws=5, **runner_kw)
        expected = oracle_values(obs, panel, POINTS, 2, 25, 5, runner_kw)
        np.testing.assert_array_equal(runner(POINTS, 2), expected)

    def test_block_size_does_not_matter(self, monkeypatch):
        obs, panel = generate(SimSpec(design="nonlinear_incomplete", T=25, seed=1, n_pred_draws=5))
        values = []
        for points_per_block in (1, 4, len(POINTS)):
            monkeypatch.setattr(tune, "BLOCK_ELEMENTS", points_per_block * 30 * panel.n_models)
            values.append(make_crps_runner(obs, panel, n_particles=30, eval_draws=6)(POINTS, 0))
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[0], values[2])

    def test_degenerate_point_scores_inf_alone(self, degenerate_problem):
        obs, panel, cfg = degenerate_problem
        points = np.array([(4.0, 0.0), (4.0, 5.0), (0.0, 0.0), (10.0, -5.0), (10.0, 5.0)])
        with pytest.raises(DegeneracyError):
            run_filter(obs, panel, DTVW, cfg=cfg, n_particles=64, seed=1, alpha0=(0.0, 0.0, 0.0), x0_spread=5.0)
        runner = make_crps_runner(obs, panel, cfg=cfg, n_particles=64, eval_draws=5, x0_spread=5.0)
        values = runner(points, 1)
        expected = oracle_values(obs, panel, points, 1, 64, 5, {"cfg": cfg, "x0_spread": 5.0})
        assert values[2] == np.inf
        assert np.all(np.isfinite(np.delete(values, 2)))
        np.testing.assert_array_equal(values, expected)


class WorkerError(Exception):
    """Raised by a patched filter in a forked worker only."""


def use_workers(monkeypatch, n):
    monkeypatch.setattr(tune, "_cpus", lambda: n)


class TestWorkers:
    """A stage's points are split over one forked worker per CPU (tune._cpus),
    and the values do not depend on how many."""

    def test_worker_count_does_not_matter(self, monkeypatch, forked, degenerate_problem):
        obs, panel, cfg = degenerate_problem
        # the failing point last, so it lies in a child's chunk at every count
        # above one; at two workers it shares its block with a healthy point
        points = np.array([(4.0, 0.0), (4.0, 5.0), (10.0, -5.0), (10.0, 5.0), (0.0, 0.0)])
        values = []
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            before = len(forked)
            runner = make_crps_runner(obs, panel, cfg=cfg, n_particles=64, eval_draws=5, x0_spread=5.0)
            values.append(runner(points, 1))
            assert len(forked) - before == workers - 1
        assert values[0][-1] == np.inf and np.all(np.isfinite(values[0][:-1]))
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[0], values[2])

    def test_no_more_workers_than_points(self, monkeypatch, forked):
        obs, panel = generate(SimSpec(design="complete_ar", T=15, seed=2, n_pred_draws=4))
        use_workers(monkeypatch, 8)
        runner = make_crps_runner(obs, panel, n_particles=20, eval_draws=4)
        assert runner(POINTS[:3], 0).shape == (3,)
        assert len(forked) == 2
        assert runner(POINTS[:0], 0).shape == (0,)
        assert len(forked) == 2

    def test_child_exception_reraised_with_its_type(self, monkeypatch, forked):
        obs, panel = generate(SimSpec(design="complete_ar", T=15, seed=2, n_pred_draws=4))
        parent, run_block = os.getpid(), ParticleFilter.run_block

        def fail_in_child(self, *args, **kwargs):
            if os.getpid() != parent:
                raise WorkerError("raised in a worker")
            return run_block(self, *args, **kwargs)

        monkeypatch.setattr(ParticleFilter, "run_block", fail_in_child)
        use_workers(monkeypatch, 3)
        runner = make_crps_runner(obs, panel, n_particles=20, eval_draws=4)
        with pytest.raises(WorkerError, match="raised in a worker"):
            runner(POINTS, 0)
        assert len(forked) == 2
