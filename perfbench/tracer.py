"""Traced divcast CLI call, and the per-layer metrics computed from its spans.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json <divcast CLI args...>

Times `import divcast.cli`, wraps the public functions each layer's caller
uses, runs `divcast.cli.main(args)` in this process and writes the spans
(name, start, end, parent, note) to SPANS.json.  A name is wrapped in the
module where its caller looks it up (the `filtering` module's own
`propagate_cloud`, not `latent.propagate_cloud`), so only calls made through
that module are counted.  If a wrapped name no longer exists the run stops
with exit code MISSING_NAME_EXIT rather than report an empty layer.

Parents come from one call stack, so the traced call must run on one thread:
run.py removes DIVCAST_THREADS, which keeps the grid search serial.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from time import perf_counter

MISSING_NAME_EXIT = 70


def _write_note(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def _surface_note(args, kwargs, result):
    surface = result[1]
    return {"points": len(surface), "failed": sum(not math.isfinite(v) for _, _, v in surface)}


def _resample_name(args, kwargs):
    n = kwargs.get("n", args[2] if len(args) > 2 else None)
    return "filtering.resample_ess" if n is None else "filtering.resample_draws"


# (where the caller looks the name up, span name, note taken from the call)
TARGETS = [
    ("divcast.cli:load_panel", "dataio.load_panel", lambda a, k, r: {"rows": r.draws.size}),
    ("divcast.cli:write_table", "dataio.write_table", _write_note),
    ("divcast.experiment:write_table", "dataio.write_table", _write_note),
    ("divcast.cli:run_experiment", "experiment.run_experiment", None),
    ("divcast.cli:generate", "dgp.generate", None),
    ("divcast.cli:save_panel", "dataio.save_panel", None),
    ("divcast.filtering:ParticleFilter.run", "filtering.run", None),
    ("divcast.filtering:ParticleFilter.step", "filtering.step", lambda a, k, r: {"n": len(a[1].cloud)}),
    ("divcast.filtering:propagate_cloud", "filtering.propagate", None),
    ("divcast.filtering:diversity_vector", "filtering.diversity", None),
    ("divcast.filtering:cloud_weight_tensor", "filtering.softmax", None),
    ("divcast.filtering:systematic_resample", _resample_name, None),
    ("divcast.experiment:grid_search", "tune.grid_search", _surface_note),
    ("divcast.experiment:run_combiner", "combine.run_combiner", None),
    ("divcast.experiment:single_model_result", "combine.single_model_result", None),
    ("divcast.tune:crps_series", "metrics.crps_series", None),
    ("divcast.metrics:crps_series", "metrics.crps_series", None),
    ("divcast.experiment:dm_test", "metrics.dm_test", None),
]


class MissingName(Exception):
    pass


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for target, name, note in TARGETS:
            owner, attr = _resolve(target)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))
        # The grid objective is a closure; time each call of the one built.
        owner, attr = _resolve("divcast.experiment:make_crps_runner")
        make = getattr(owner, attr)
        setattr(owner, attr, lambda *a, **k: self.wrap("tune.objective", make(*a, **k)))


def _resolve(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        raise MissingName(f"traced name {target} no longer exists")
    return owner, attr


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _aggregate(spans: list) -> dict:
    """Per span name: calls, total and self seconds (duration minus the
    durations of direct children), and the notes."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        a = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "notes": []})
        a["calls"] += 1
        a["total"] += end - start
        a["self"] += end - start - child[i]
        if note is not None:
            a["notes"].append((note, parent))
    return out


def layer_metrics(op: dict, simulate: dict | None) -> dict:
    """Per-layer metrics of one traced op (and the traced simulate of the
    set-up, if the workload has one): {name: (value, unit)}."""
    agg = _aggregate(op["spans"])
    sim = _aggregate(simulate["spans"]) if simulate else {}
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "notes": []}

    def get(name, source=agg):
        return source.get(name, empty)

    def note_sum(name, key, parent_name=None):
        spans = op["spans"]
        return sum(
            n[key] for n, parent in get(name)["notes"]
            if parent_name is None or (parent >= 0 and spans[parent][0] == parent_name)
        )

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    load = get("dataio.load_panel")
    step = get("filtering.step")
    objective = get("tune.objective")
    points = note_sum("tune.grid_search", "points")
    failed = note_sum("tune.grid_search", "failed")
    s, n = "s", "count"
    return {
        "cli.import_s": (op["import_s"], s),
        "dataio.load_panel.self_s": (load["self"], s),
        "dataio.load_panel.rows_per_s": (rate(note_sum("dataio.load_panel", "rows"), load["self"]), "1/s"),
        "dataio.write_table.self_s": (get("dataio.write_table")["self"], s),
        "dataio.write_table.bytes": (note_sum("dataio.write_table", "bytes"), "bytes"),
        "experiment.run_experiment.self_s": (get("experiment.run_experiment")["self"], s),
        "experiment.rows_emitted": (note_sum("dataio.write_table", "rows", "experiment.run_experiment"), n),
        "dgp.generate.self_s": (get("dgp.generate", sim)["self"], s),
        "dataio.save_panel.self_s": (get("dataio.save_panel", sim)["self"], s),
        "filtering.run.calls": (get("filtering.run")["calls"], n),
        "filtering.run.self_s": (get("filtering.run")["self"], s),
        "filtering.step.calls": (step["calls"], n),
        "filtering.step.self_s": (step["self"], s),
        "filtering.particle_steps_per_s": (rate(note_sum("filtering.step", "n"), step["total"]), "1/s"),
        "filtering.propagate_s": (get("filtering.propagate")["self"], s),
        "filtering.diversity_s": (get("filtering.diversity")["self"], s),
        "filtering.softmax_s": (get("filtering.softmax")["self"], s),
        "filtering.resample_ess_s": (get("filtering.resample_ess")["self"], s),
        "filtering.resample_ess.count": (get("filtering.resample_ess")["calls"], n),
        "filtering.resample_draws_s": (get("filtering.resample_draws")["self"], s),
        "tune.grid_search.self_s": (get("tune.grid_search")["self"], s),
        "tune.points": (points, n),
        "tune.points_failed": (failed, n),
        "tune.points_ok_ratio": ((points - failed) / points if points else 0.0, "ratio"),
        "tune.objective_s_per_point": (rate(objective["total"], objective["calls"]), s),
        "combine.run_combiner.self_s": (get("combine.run_combiner")["self"], s),
        "combine.single_model_result.self_s": (get("combine.single_model_result")["self"], s),
        "metrics.crps_series.self_s": (get("metrics.crps_series")["self"], s),
        "metrics.dm_test.calls": (get("metrics.dm_test")["calls"], n),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    import divcast.cli

    import_s = perf_counter() - t0
    src = os.path.dirname(os.path.dirname(os.path.abspath(divcast.cli.__file__)))
    if src != os.path.abspath(os.environ.get("PYTHONPATH", "")):
        print(f"tracer: divcast imported from {src}, not from PYTHONPATH", file=sys.stderr)
        return 1
    recorder = Recorder()
    try:
        recorder.install()
    except MissingName as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return MISSING_NAME_EXIT
    code = divcast.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
