"""Benchmark of gpdkit: one workload, one seed, a fixed run length.

Run from the repository root:

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 30 --trace 0

Workloads are theorems, gauge and documents (see perfbench/README.md).
With --trace 0 the run times passes over the workload's task list with
no wrapper installed and reports the end-to-end metrics.  With --trace 1
it first times untraced passes for half the run, then wraps the public
gpdkit layers (perfbench/layers.py) and reports per-layer metrics from
traced passes.  Every task's output is checked after each pass, outside
the timed region.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_LOOP_NS_PER_TASK = 50_000


def _load_library() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "gpdkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no gpdkit sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _workdir(workload: str, seed: int, tag: str) -> Path:
    return ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}-{tag}"


def _records() -> dict:
    with open(HERE / "records.json", encoding="utf-8") as f:
        return json.load(f)


def timed_setup(workload: str, seed: int, tag: str):
    """Import gpdkit, build the workload and run its set-up; returns the
    workload and the seconds taken, import included, at the reference CPU
    speed of the probes run just before and just after it (see Placement)."""
    before = min(Placement.probe(), Placement.probe())
    start = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](ROOT, seed, _workdir(workload, seed, tag), _records())
    wl.setup()
    elapsed = time.perf_counter() - start
    after = min(Placement.probe(), Placement.probe())
    return wl, elapsed * Placement.REFERENCE_PROBE_S * 2 / (before + after)


def setup_in_subprocess(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, so the import is cold again."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Placement:
    """Keeps the process on whichever allowed CPU currently runs fastest,
    and measures how fast that CPU runs around each task.

    On a shared host each vCPU flips between a fast state and a ~1.6x
    slower one (a busy sibling hyperthread) within milliseconds, and the
    share of slow time drifts over minutes.  Before a task, and at most
    every REPIN_S seconds, a short probe loop runs twice on every allowed
    CPU and the process moves to the fastest.  After each task the loop
    runs twice more on the same CPU.  The factor that turns the task's
    times into times at the reference speed is REFERENCE_PROBE_S over the
    mean of the two probes before and the two after it.  Probes are never
    inside a task's timed region.
    """

    REPIN_S = 0.1
    # the probe's fastest time on a 2-core x86 VM under Python 3.11.7
    REFERENCE_PROBE_S = 0.00064

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = float("-inf")
        self.recent: list[float] = []

    @staticmethod
    def probe() -> float:
        start = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(5000):
            acc[i % 97] = acc.get(i % 97, 0) + i * i % 7
        return time.perf_counter() - start

    def maybe_repin(self) -> None:
        if time.perf_counter() - self.last < self.REPIN_S:
            return
        speed = {}
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            speed[cpu] = [self.probe(), self.probe()]
        cpu = min(speed, key=lambda c: min(speed[c]))
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        self.recent = speed[cpu]
        self.last = time.perf_counter()

    def after_task(self) -> float:
        """Probe the CPU again; returns the scale factor of the task that
        just ran between these probes and the ones before it."""
        probes = [self.probe(), self.probe()]
        scale = self.REFERENCE_PROBE_S * 4 / (sum(self.recent) + sum(probes))
        self.recent = probes
        return scale


class Run:
    """Passes over one workload's task list, with their checks."""

    def __init__(self, wl, limit: int | None = None):
        self.wl = wl
        self.limit = limit
        self.placement = Placement()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def passes(self, seconds: float, tracer=None, sample=None, at=()) -> list[dict]:
        """At least one pass, and more until seconds have gone by; calls
        sample() once after the first pass that ends past each share of
        the seconds in at."""
        out = []
        marks = sorted(at)
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            out.append(self._one_pass(tracer))
            while marks and time.perf_counter() - start >= seconds * marks[0]:
                marks.pop(0)
                sample()
        return out

    def _one_pass(self, tracer) -> dict:
        from workloads import Task

        tasks = self.wl.tasks()[: self.limit]
        results = []
        run_task = Task.run
        if tracer is not None:
            from layers import BENCH_SPAN

            run_task = tracer.wrap(BENCH_SPAN, Task.run)
            tracer.reset()
            tracer.active = True
        placement_ns = 0
        wall0 = time.perf_counter_ns()
        for task in tasks:
            p0 = time.perf_counter_ns()
            self.placement.maybe_repin()
            c0 = time.process_time()
            t0 = time.perf_counter_ns()
            placement_ns += t0 - p0
            try:
                outcome = run_task(task)
                error = ""
            except Exception:
                outcome, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter_ns()
            cpu_s = time.process_time() - c0
            scale = self.placement.after_task()
            placement_ns += time.perf_counter_ns() - t1
            results.append((task, outcome, error, t1 - t0, cpu_s, scale))
        wall_ns = time.perf_counter_ns() - wall0 - placement_ns
        record = {
            "wall_ns": wall_ns,
            "task_ns": {task.name: ns for task, _, _, ns, _, _ in results},
            "task_ref_s": {task.name: ns / 1e9 * k for task, _, _, ns, _, k in results},
            "task_cpu_ref_s": {task.name: cpu * k for task, _, _, _, cpu, k in results},
        }
        if tracer is not None:
            tracer.active = False
            ok, detail = tracer.check_accounting(wall_ns)
            loop_ns = wall_ns - tracer.root_ns
            if ok and loop_ns > MAX_LOOP_NS_PER_TASK * len(tasks):
                ok, detail = False, f"benchmark loop took {loop_ns} ns for {len(tasks)} tasks"
            if not ok:
                self.failures.append(f"tracer accounting: {detail}")
            record.update(stats=tracer.stats, loop_ns=loop_ns, accounting=detail)
        for task, outcome, error, *_ in results:
            self.attempted += 1
            if not error:
                try:
                    error = self.wl.check(task, outcome)
                except Exception:
                    error = traceback.format_exc(limit=3)
            if error:
                self.failed += 1
                self.failures.append(f"{task.name}: {error}")
        return record


def fastest(passes: list[dict], field: str = "task_ns") -> dict[str, float]:
    """Each task's least value of field over the passes."""
    return {name: min(p[field][name] for p in passes) for name in passes[0][field]}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when there are too
    few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n >= 11 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def check_guard(wl, workload: str, seed: int) -> str:
    """Compare the digest of the generated inputs with the record.  A
    seed without a record checks the generators on seed 0 instead."""
    from workloads import WORKLOADS, sha256

    recorded = wl.records["inputs"][workload]
    digest = sha256(wl.input_texts())
    if str(seed) in recorded:
        if digest != recorded[str(seed)]:
            return f"inputs of seed {seed} changed: sha256 {digest}"
        return ""
    canary = WORKLOADS[workload](ROOT, 0, _workdir(workload, 0, "canary"), wl.records)
    try:
        canary.setup()
        digest0 = sha256(canary.input_texts())
    finally:
        shutil.rmtree(canary.workdir, ignore_errors=True)
    if digest0 != recorded["0"]:
        return f"inputs of seed 0 changed: sha256 {digest0}"
    return ""


def medians(passes: list[dict], field: str) -> dict[str, float]:
    """Each task's median value of field over the passes."""
    return {name: statistics.median(p[field][name] for p in passes) for name in passes[0][field]}


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict:
    """Times at the reference CPU speed: each task's time scaled by the
    probes run around it (Placement.after_task), then its median over the
    run's passes.  The shared host's share of slow time drifts over
    minutes and moves the raw times of whole runs; the scaled times do
    not follow it.  The human line keeps the raw fastest times."""
    task_ms = {name: s * 1e3 for name, s in medians(passes, "task_ref_s").items()}
    tail_ms, pct, n = tail(list(task_ms.values()))
    k = len(passes)
    raw_s = sum(fastest(passes).values()) / 1e9
    return {
        "wall_s": (sum(task_ms.values()) / 1e3, "s",
                   f"sum of {n} tasks' scaled medians of {k}; raw, the sum of their "
                   f"fastest is {raw_s:.6f} s"),
        "cpu_s": (sum(medians(passes, "task_cpu_ref_s").values()), "s",
                  f"sum of {n} tasks' scaled medians of {k}"),
        "task_p50_ms": (statistics.median(task_ms.values()), "ms",
                        f"median of {n} tasks, each its scaled median of {k}"),
        "task_tail_ms": (tail_ms, "ms",
                         f"p{pct:.1f} of {n} tasks, each its scaled median of {k}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)}, scaled"),
    }


def traced(wl, run: Run, seconds: float, untraced: list[dict]) -> dict:
    from layers import LAYER_METRICS, RUN_METRICS, TARGETS, layer_values
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        # a second set-up, traced, for the generators' share of set-up
        shadow = type(wl)(ROOT, wl.seed, _workdir(wl.name, wl.seed, "traced"), wl.records)
        tracer.reset()
        tracer.active = True
        try:
            shadow.setup()
        finally:
            tracer.active = False
            shutil.rmtree(shadow.workdir, ignore_errors=True)
        gen = tracer.stats.get("builders.generators")
        setup_gen_s = gen.self_ns / 1e9 if gen else 0.0
        passes = run.passes(seconds, tracer)
    finally:
        tracer.uninstall()
    values = layer_values([p["stats"] for p in passes])
    traced_wall = sum(fastest(passes).values()) / 1e9
    untraced_wall = sum(fastest(untraced).values()) / 1e9
    values.update({
        "builders.generators.setup_self_s": setup_gen_s,
        "trace.wall_s": traced_wall,
        "trace.loop_s": min(p["loop_ns"] for p in passes) / 1e9,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    units = {**LAYER_METRICS, **RUN_METRICS}
    print(f"traced: {len(passes)} passes; accounting of pass 1: {passes[0]['accounting']}")
    shares = sorted(
        ((v, m) for m, v in values.items() if m.endswith(".self_s") and v > 0), reverse=True
    )
    print("largest self-time shares of a traced pass (the most a faster layer can save):")
    for v, m in shares[:8]:
        print(f"  {m:45s} {v:9.4f} s  {100 * v / traced_wall:5.1f}%")
    return {m: (values[m], units[m]) for m in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("theorems", "gauge", "documents"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smallest", action="store_true",
                        help="run only the first tasks of the list (smoke tests)")
    args = parser.parse_args(argv)
    _load_library()

    wl = None
    try:
        wl, setup_s = timed_setup(args.workload, args.seed, "main")
        if args.setup_only:
            print(f"{setup_s!r}")
            return 0
        # set-up samples spread over the run
        setup_times = [setup_s]

        def sample() -> None:
            setup_times.append(setup_in_subprocess(args.workload, args.seed))

        run = Run(wl, wl.smallest if args.smallest else None)
        guard = check_guard(wl, args.workload, args.seed)
        if guard:
            run.failures.append(f"input guard: {guard}")
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run.passes(budget, sample=sample, at=(0.25, 0.5, 0.75))
        sample()
        e2e = end_to_end(untraced, setup_times)
        metrics = traced(wl, run, budget, untraced) if args.trace else None
    finally:
        if wl is not None:
            shutil.rmtree(wl.workdir, ignore_errors=True)

    failed = run.failed
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced passes, "
          f"{run.attempted} tasks checked, input guard {'failed' if guard else 'ok'}")
    for name, (value, unit, *note) in e2e.items():
        extra = f"  ({note[0]})" if note else ""
        print(f"  {name:14s} {value:12.6f} {unit}{extra}")
    print(f"  {'fail_ratio':14s} {failed / run.attempted:12.6f} ratio  ({failed}/{run.attempted})")
    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if metrics is None:
        metrics = {name: (value, unit) for name, (value, unit, *_) in e2e.items()}
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
