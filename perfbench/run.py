"""divcast benchmark: times the divcast CLI end to end, one fresh process per op.

    python3 perfbench/run.py --workload grid_nonlinear --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is taken from ./src.
One client runs one op at a time (a closed loop).  Each op is a fresh
`python3 -m divcast.cli ...` process, timed from spawn to exit, with CPU time
and peak RSS read from the child's rusage.  Every op's outputs are checked;
ops with the same seed must also produce byte-identical files.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced ops
with traced ones (perfbench/tracer.py) and prints the per-layer metrics.
The last stdout line is the JSON result; the line before it is a JSON record
of the machine, the per-op samples and the output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, Workload  # noqa: E402

SETUP_REPEATS = 3
MIN_OPS = 2
DEADLINE_S = 170.0  # every run must end well inside the 180 s limit

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "cpu_s_p50": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    out_dir: str
    stdout: str
    traced: bool = False
    ok: bool = False
    reason: str = ""
    info: dict | None = None


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, root: str, wl: Workload, seed: int):
        self.root = root
        self.wl = wl
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, "perfbench", ".work", f"{wl.name}-{seed}-{os.getpid()}")
        self.data = os.path.join(self.work, "data")
        self.config = os.path.join(self.work, "run.ini")
        # The serial default, whatever the caller's shell sets; and .pyc
        # caching on, as for an installed program, so set-up warms it.
        dropped = ("DIVCAST_THREADS", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONPATH"] = self.src
        self.start = time.perf_counter()
        self.setup_times: list[float] = []
        self.input_digests: dict | None = None
        self.ops: list[Op] = []
        self.reference: dict | None = None  # digests of the first good op

    def deadline_left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, argv: list[str], log: str) -> tuple[float, float, float, int, str]:
        """Run argv with stdout+stderr to `log`; returns wall s, CPU s, peak
        RSS MB, exit code and the captured output."""
        timeout = max(1.0, self.deadline_left())
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        watchdog = threading.Timer(timeout, _kill, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        with open(log) as fh:
            out = fh.read()
        code = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, out

    # ---- set-up -------------------------------------------------------

    def setup_once(self) -> dict:
        """Make the inputs from the seed and write the config.  Synthetic
        inputs come from `divcast simulate`, which also warms the import
        caches; the fixture workload warms them with a bare import."""
        shutil.rmtree(self.data, ignore_errors=True)
        os.makedirs(self.data)
        sim = self.wl.simulate_argv(self.seed, self.data)
        argv = ["-m", "divcast.cli", *sim] if sim else ["-c", "import divcast.cli"]
        *_, code, out = self.spawn(argv, os.path.join(self.work, "setup.log"))
        if code != 0:
            raise BenchError(f"set-up failed with exit {code}: {out.strip()[-500:]}")
        self.wl.write_config(self.config, self.seed, self.data, self.root)
        return {name: _sha256(os.path.join(self.data, name)) for name in sorted(os.listdir(self.data))}

    def setup(self) -> None:
        """One timed set-up; every repeat must write the same inputs."""
        t0 = time.perf_counter()
        digests = self.setup_once()
        self.setup_times.append(time.perf_counter() - t0)
        if self.input_digests is None:
            self.input_digests = digests
        elif digests != self.input_digests:
            raise BenchError("simulate wrote different inputs for the same seed")

    # ---- ops ----------------------------------------------------------

    def op(self, traced: bool = False) -> Op:
        i = len(self.ops)
        out_dir = os.path.join(self.work, f"op{i}")
        cli_args = self.wl.op_argv(self.config, out_dir)
        if traced:
            spans = os.path.join(self.work, f"op{i}.trace.json")
            full = [os.path.join(HERE, "tracer.py"), spans, *cli_args]
        else:
            full = ["-m", "divcast.cli", *cli_args]
        wall, cpu, rss, code, out = self.spawn(full, os.path.join(self.work, f"op{i}.log"))
        op = Op(full, wall, cpu, rss, code, out_dir, out, traced)
        self.ops.append(op)
        if traced and code == tracer.MISSING_NAME_EXIT:
            raise BenchError(out.strip())
        self._judge(op)
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    def _judge(self, op: Op) -> None:
        if op.exit != 0:
            op.reason = f"exit {op.exit}: {op.stdout.strip()[-300:]}"
            return
        try:
            op.info = self.wl.check(op.out_dir, op.stdout)
            if self.reference is None:
                self.reference = op.info
            elif op.info["digests"] != self.reference["digests"]:
                raise CheckError("outputs differ from an earlier op with the same seed")
        except CheckError as exc:
            op.reason = str(exc)
            return
        op.ok = True

    def loop(self, seconds: float, traced: bool) -> None:
        """Closed loop of rounds: an untraced op, followed by a traced op when
        tracing.  After the minimum number of rounds, another round starts
        only if it is expected (median round so far) to end within `seconds`.

        The set-up repeats are spread over the run, the i-th one due after
        i/SETUP_REPEATS of `seconds`: the machine's speed drifts over tens of
        seconds, and repeats taken back to back would all catch one phase."""
        t0 = time.perf_counter()
        rounds: list[float] = []
        while self.deadline_left() > 0:
            elapsed = time.perf_counter() - t0
            if len(rounds) >= (1 if traced else MIN_OPS) and elapsed + statistics.median(rounds) > seconds:
                break
            self.op()
            if traced:
                self.op(traced=True)
            rounds.append(time.perf_counter() - t0 - elapsed)
            due = len(self.setup_times) / SETUP_REPEATS * seconds
            if len(self.setup_times) < SETUP_REPEATS and time.perf_counter() - t0 >= due:
                self.setup()
        while len(self.setup_times) < SETUP_REPEATS and self.deadline_left() > 0:
            self.setup()

    # ---- results ------------------------------------------------------

    def end_to_end(self) -> dict:
        ops = [o for o in self.ops if not o.traced]
        good = [o for o in ops if o.ok] or ops
        return _with_units(
            {
                "setup_s": statistics.median(self.setup_times),
                "op_s_p50": statistics.median(o.wall_s for o in good),
                "cpu_s_p50": statistics.median(o.cpu_s for o in good),
                "peak_rss_mb": statistics.median(o.rss_mb for o in good),
            },
            END_TO_END_UNITS,
        )

    def per_layer(self) -> dict:
        sim_trace = None
        sim = self.wl.simulate_argv(self.seed, os.path.join(self.work, "traced_data"))
        if sim:
            spans = os.path.join(self.work, "simulate.trace.json")
            *_, code, out = self.spawn([os.path.join(HERE, "tracer.py"), spans, *sim], os.path.join(self.work, "sim.log"))
            if code != 0:
                raise BenchError(f"traced simulate failed with exit {code}: {out.strip()[-500:]}")
            sim_trace = tracer.load(spans)
        # Ops that exited 0 count even if their outputs failed the check: a
        # failed grid point fails the op, and tune.points_failed must show it.
        untraced = [o for o in self.ops if not o.traced and o.exit == 0]
        traced = [o for o in self.ops if o.traced and o.exit == 0]
        if not traced or not untraced:
            return {}
        # A traced op's argv is [tracer.py, spans file, cli args...].
        samples = [tracer.layer_metrics(tracer.load(o.argv[1]), sim_trace) for o in traced]
        values = {k: statistics.median(s[k][0] for s in samples) for k in samples[0]}
        units = {k: v[1] for k, v in samples[0].items()}
        base = statistics.median(o.wall_s for o in untraced)
        values["trace.overhead_ratio"] = statistics.median(o.wall_s for o in traced) / base - 1.0
        units["trace.overhead_ratio"] = "ratio"
        return _with_units(values, units)

    def machine(self) -> dict:
        def version(dist):
            try:
                return metadata.version(dist)
            except metadata.PackageNotFoundError:
                return None

        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        return {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": sys.version.split()[0],
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "blas_threads_env": {k: os.environ.get(k) for k in blas},
            "commit": _commit(self.root),
            "src_sha256": _tree_digest(os.path.join(self.src, "divcast")),
        }


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in values}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _own_peak_rss_mb() -> float:
    """The harness's own peak RSS.  posix_spawn shares the harness's memory
    until exec, and the kernel then records that memory's peak in the
    child's maxrss, so every op's `peak_rss_mb` is at least this figure."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0" + _sha256(os.path.join(directory, name)).encode())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def run(root: str, wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, info)."""
    bench = Bench(root, wl, seed)
    try:
        os.makedirs(bench.work)
        bench.setup()
        bench.loop(seconds, traced=trace)
        if not bench.ops:
            raise BenchError("set-up used up the time limit; no op ran")
        harness_rss_mb = _own_peak_rss_mb()
        metrics = bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = sum(not o.ok for o in bench.ops)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": wl.name,
        "seed": seed,
        "machine": bench.machine(),
        "setup_s": bench.setup_times,
        "harness_peak_rss_mb": harness_rss_mb,
        "input_digests": bench.input_digests,
        "failed_ops_ratio": failed / len(bench.ops),
        "ops": [
            {
                "traced": o.traced,
                "wall_s": o.wall_s,
                "cpu_s": o.cpu_s,
                "rss_mb": o.rss_mb,
                "exit": o.exit,
                "ok": o.ok,
                "reason": o.reason,
            }
            for o in bench.ops
        ],
        "outputs": bench.reference,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "divcast", "cli.py")]
    if args.workload == "run_fixture":
        needed.append(os.path.join(workloads.FIXTURE_DIR, "panel.csv"))
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from a divcast checkout; missing {missing}", file=sys.stderr)
        return 2
    wl = workloads.get(args.workload)
    try:
        result, info = run(root, wl, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
