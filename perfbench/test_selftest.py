"""Self-test of the benchmark harness, at tiny input sizes (about two minutes).

    python3 -m unittest perfbench/test_selftest.py      # from the checkout root

Runs every workload untraced and traced, in-process, and checks that the result
carries every metric BENCHMARK.json names, with its unit; that a deliberately
failing op is counted as failed; and that the tracer computes self time and
refuses a wrapped name that no longer exists.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bench(workload: str, trace: int) -> dict:
    result, _ = run.run(ROOT, workloads.get(workload, tiny=True), seed=3, seconds=1, trace=bool(trace))
    return result


class MissingPanel(workloads.Workload):
    """A workload whose config names a panel file that does not exist."""

    def write_config(self, path, seed, data_dir, root):
        super().write_config(path, seed, data_dir, root)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines = [f"panel = {os.path.join(data_dir, 'no_such_panel.csv')}" if l.startswith("panel =") else l
                 for l in lines]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class SelfTest(unittest.TestCase):
    def check_result(self, result: dict, declared: dict) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, declared)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_emits_every_metric(self):
        end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name, trace=0):
                self.check_result(_bench(name, 0), end_to_end)
            with self.subTest(workload=name, trace=1):
                result = _bench(name, 1)
                self.check_result(result, per_layer)
                if name == "grid_nonlinear":
                    self.assertEqual(result["metrics"]["tune.points"]["value"], 17)
                    self.assertEqual(result["metrics"]["tune.points_ok_ratio"]["value"], 1.0)

    def test_failing_op_is_counted(self):
        wl = workloads.get("run_fixture", tiny=True)
        broken = MissingPanel(**vars(wl))
        result, info = run.run(ROOT, broken, seed=3, seconds=0, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(info["failed_ops_ratio"], 1.0)
        self.assertTrue(all(op["exit"] == 4 for op in info["ops"]))

    def test_self_time_excludes_children(self):
        spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
        agg = tracer._aggregate(spans)
        self.assertEqual([agg[n]["self"] for n in "abc"], [7.0, 2.0, 1.0])

    def test_failed_grid_points_are_reported(self):
        note = {"points": 17, "failed": 2}
        op = {"import_s": 1.0, "spans": [["tune.grid_search", 0.0, 5.0, -1, note]]}
        got = tracer.layer_metrics(op, None)
        self.assertEqual(got["tune.points_failed"][0], 2)
        self.assertAlmostEqual(got["tune.points_ok_ratio"][0], 15 / 17)

    def test_missing_traced_name_fails_loudly(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            with self.assertRaises(tracer.MissingName):
                tracer._resolve("divcast.filtering:no_such_function")
        finally:
            sys.path.remove(os.path.join(ROOT, "src"))


if __name__ == "__main__":
    unittest.main()
