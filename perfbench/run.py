"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload aggregation --seed 11 --seconds 30 --trace 0

Run from the root of a checkout. The program under test is imported from
``src/`` beside this directory; nothing is installed or built.

The run repeats the workload's session (see ``workloads.py``) until
``--seconds`` have passed, session ``k`` on input seed
``seed + SEED_STRIDE * k``. It reports the fastest sample of each timed
phase, and the median set-up time and peak memory.
``--trace 0`` reports the end-to-end metrics of untraced sessions.
``--trace 1`` alternates an untraced and a traced session on the same
input seed and reports the per-layer metrics of the traced sessions, plus
their wall time divided by the untraced one (``bench.trace_overhead``);
the spans are written to ``.perfbench-out/`` at the end.

Every correctness check counts toward ``attempted``; each one that fails
counts toward ``failed`` and is named on stderr. The last line of stdout
is the result object; the line before it carries run metadata (the
candidate store each workload used, the numpy backend, and the
``REPRO_COLUMNAR`` value found in the environment, which is then unset).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench-tmp"
OUT_DIR = ROOT / ".perfbench-out"

#: Distance between the input seeds of consecutive sessions in one run.
SEED_STRIDE = 7919
#: Fresh interpreters timed importing the workload modules (setup_s).
IMPORT_SAMPLES = 5
WORKLOAD_NAMES = ("aggregation", "counting-trace", "service-sweep")

#: Counters of the first session of a full-size run on the default seed.
PINS: Dict[str, Tuple[int, Dict[str, int]]] = {
    "aggregation": (11, {"events": 162, "evaluations": 96253}),
    "counting-trace": (3, {"events": 522, "evaluations": 64472}),
    "service-sweep": (7, {"events": 1216}),
}

#: ``(name, unit)`` of every per-layer metric, in the order reported.
LAYER_METRICS = (
    ("scheduler.next_event_s", "s"),
    ("scheduler.select_s", "s"),
    ("scheduler.evaluations", "count"),
    ("scheduler.evaluations_per_event", "count"),
    ("candidates.refresh_s", "s"),
    ("candidates.refresh_calls", "count"),
    ("candidates.refreshed_nodes", "count"),
    ("candidates.merge_prunes", "count"),
    ("candidates.split_prunes", "count"),
    ("candidates.full_rebuilds", "count"),
    ("candidates.effective_mean", "count"),
    ("candidates.effective_max", "count"),
    ("columnar.sync_s", "s"),
    ("columnar.inter_rows_s", "s"),
    ("world.apply_s", "s"),
    ("world.apply_calls", "count"),
    ("trace.on_event_s", "s"),
    ("trace.checkpoint_s", "s"),
    ("trace.finalize_s", "s"),
    ("trace.load_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.records", "count"),
    ("trace.events_compared", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.rejected", "count"),
    ("store.bytes", "bytes"),
    ("runner.trial_p50_ms", "ms"),
    ("runner.trial_p90_ms", "ms"),
    ("service.overhead_s", "s"),
    ("service.warm_s", "s"),
    ("service.stream_events", "count"),
    ("bench.trace_overhead", "ratio"),
)


class Checks:
    """Counts correctness checks; remembers the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Phases:
    """Wall-time samples per phase of one session (a phase entered several
    times has several samples); opens tracer phase spans too."""

    def __init__(self, tracer=None) -> None:
        self.seconds: Dict[str, List[float]] = {}
        self.tracer = tracer
        self.peak_mb = 0.0

    @contextmanager
    def __call__(self, name: str):
        with self.tracer.open_phase(name) if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.seconds.setdefault(name, []).append(seconds)


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux ``clear_refs`` code 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the mark then also covers earlier sessions of this process


def _peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset, or of the
    largest child reaped so far (the sweep service's pool worker), if larger."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(_own_peak_rss_mb(), children)


def _own_peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def session(workload, seed: int, checks: Checks, tracer=None):
    """One session: ``(phases, counters)``; traced when given a tracer.

    ``phases.peak_mb`` is the session's own peak resident memory."""
    # Start from a heap without the last session's garbage, so neither its
    # collection nor its memory lands in this session's numbers.
    gc.collect()
    _reset_peak_rss()
    phases = Phases(tracer)
    if tracer is None:
        counters = workload.rep(seed, phases, checks)
    else:
        with tracer.installed():
            counters = workload.rep(seed, phases, checks, traced=True)
    phases.peak_mb = _peak_rss_mb()
    return phases, counters


def layer_metrics(
    workload, tracer, seconds: Dict[str, List[float]], counters: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer metrics of one traced session."""
    service = workload.name == "service-sweep"
    # Where the simulations of the session run under the tracer.
    sim = ("trials",) if service else ("run",)

    spans = tracer.select

    def busy(name, phases=None):
        return sum(s.duration for s in spans(name, phases))

    next_events = spans("scheduler.next_event", sim)
    refreshes = spans("candidates.refresh", sim)
    schedulers = {id(s.info[0]): s.info[0] for s in next_events}
    caches = {id(s.info[0]): s.info[0] for s in refreshes}
    events = sum(1 for s in next_events if s.info[1])
    evaluations = sum(x.evaluations for x in schedulers.values())
    sizes = [s.info[1] for s in refreshes]
    applies = spans("world.apply", sim + ("replay",))
    on_events = spans("trace.on_event", ("record",))

    # Trial wall times of experiments.runner: none on aggregation, the one
    # run_experiment on counting-trace, the cold sweep's on service-sweep.
    walls = sorted(r.wall_time * 1000.0 for r in workload.last["results"])
    p50 = statistics.median(walls) if walls else 0.0
    p90 = statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else p50
    if service:
        last = workload.last
        overhead = seconds["run"][0] - sum(walls) / 1000.0
        warm = seconds["warm"][0]
        stream_events, store_bytes = last["stream_events"], last["store_bytes"]
    else:
        overhead = warm = 0.0
        stream_events = store_bytes = 0

    return {
        "scheduler.next_event_s": sum(s.duration for s in next_events),
        "scheduler.select_s": sum(s.self_time for s in next_events),
        "scheduler.evaluations": evaluations,
        "scheduler.evaluations_per_event": evaluations / events if events else 0.0,
        "candidates.refresh_s": sum(s.duration for s in refreshes),
        "candidates.refresh_calls": len(refreshes),
        "candidates.refreshed_nodes": sum(c.refreshed_nodes for c in caches.values()),
        "candidates.merge_prunes": sum(c.merge_prunes for c in caches.values()),
        "candidates.split_prunes": sum(c.split_prunes for c in caches.values()),
        "candidates.full_rebuilds": sum(c.full_rebuilds for c in caches.values()),
        "candidates.effective_mean": statistics.fmean(sizes) if sizes else 0.0,
        "candidates.effective_max": max(sizes, default=0),
        "columnar.sync_s": busy("columnar.sync", sim),
        "columnar.inter_rows_s": busy("columnar.inter_rows", sim),
        "world.apply_s": sum(s.duration for s in applies),
        "world.apply_calls": len(applies),
        "trace.on_event_s": sum(s.self_time for s in on_events),
        "trace.checkpoint_s": busy("trace.checkpoint", ("record",)),
        "trace.finalize_s": busy("trace.finalize", ("record",)),
        "trace.load_s": busy("trace.load", ("replay",)),
        "trace.bytes": counters["trace_bytes"],
        "trace.records": sum(s.info for s in spans("trace.finalize", ("record",))),
        "trace.events_compared": counters["events_compared"],
        "store.get_s": busy("store.get"),
        "store.put_s": busy("store.put"),
        "store.hits": counters.get("store_hits", 0),
        "store.misses": counters.get("store_misses", 0),
        "store.rejected": counters.get("store_rejected", 0),
        "store.bytes": store_bytes,
        "runner.trial_p50_ms": p50,
        "runner.trial_p90_ms": p90,
        "service.overhead_s": overhead,
        "service.warm_s": warm,
        "service.stream_events": stream_events,
    }


def measure_imports() -> float:
    """Median time fresh interpreters take to import the workload modules."""
    code = (
        "import time; t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def untraced_run(workload, seed: int, seconds: float, checks: Checks):
    """Sessions until the time is up; returns ``[(seed, phases, counters)]``."""
    deadline = time.perf_counter() + seconds
    sessions = []
    while True:
        start = time.perf_counter()
        rep_seed = seed + SEED_STRIDE * len(sessions)
        sessions.append((rep_seed, *session(workload, rep_seed, checks)))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return sessions


def end_to_end(sessions, import_s: float) -> Dict[str, Tuple[float, str]]:
    def samples(phase: str) -> List[float]:
        return [t for _, phases, _ in sessions for t in phases.seconds[phase]]

    # Other tenants of the machine slow it by up to 1.5x for seconds to
    # minutes at a time, and noise only ever adds time. The fastest of many
    # short samples (timeit's "best of N") is the time the work takes when
    # the machine is not disturbed, and moves least from run to run.
    def fastest(phase: str) -> float:
        return min(samples(phase))

    return {
        "setup_s": (import_s + statistics.median(samples("setup")), "s"),
        "run_s": (fastest("run"), "s"),
        "record_s": (fastest("record"), "s"),
        "replay_s": (fastest("replay"), "s"),
        "diff_s": (fastest("diff"), "s"),
        "peak_rss_mb": (statistics.median(p.peak_mb for _, p, _ in sessions), "MB"),
    }


def traced_run(workload, seed: int, seconds: float, checks: Checks, spans_dir: Path):
    """Untraced/traced session pairs until the time is up; per-layer medians."""
    from spans import Tracer

    deadline = time.perf_counter() + seconds
    rows: List[Dict[str, float]] = []
    tracers = []
    while True:
        start = time.perf_counter()
        rep_seed = seed + SEED_STRIDE * len(rows)
        plain, expected = session(workload, rep_seed, checks)
        tracer = Tracer()
        traced, counters = session(workload, rep_seed, checks, tracer)
        checks(counters == expected, f"{workload.name}: tracing changed a counter")
        row = layer_metrics(workload, tracer, traced.seconds, counters)
        # Phases both sessions ran (the traced one may add in-process trials).
        common = plain.seconds
        row["bench.trace_overhead"] = sum(sum(traced.seconds[p]) for p in common) / sum(
            sum(samples) for samples in common.values()
        )
        rows.append(row)
        tracers.append(tracer)
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    for k, tracer in enumerate(tracers):
        tracer.write(spans_dir / f"spans-{workload.name}-seed{seed}-session{k}.jsonl")
    return {
        name: (statistics.median(row[name] for row in rows), unit)
        for name, unit in LAYER_METRICS
    }


def check_pins(workload, seed: int, counters: Dict[str, int], checks: Checks) -> None:
    pin_seed, pinned = PINS[workload.name]
    if seed == pin_seed:
        for key, value in pinned.items():
            checks(counters[key] == value, f"{workload.name}: {key} {counters[key]} != pinned {value}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repro_columnar = os.environ.pop("REPRO_COLUMNAR", None)
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    # Nothing may fall back to a default store under the home directory.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload](tmp)
        checks = Checks()
        # The first large session of a process runs slower (heap growth,
        # first-call costs); a small session first keeps that out of the
        # medians. Its checks count like every other.
        session(workloads.WORKLOADS[args.workload](tmp, small=True), args.seed, checks)
        if args.trace:
            metrics = traced_run(workload, args.seed, args.seconds, checks, OUT_DIR)
        else:
            sessions = untraced_run(workload, args.seed, args.seconds, checks)
            # After the sessions, so that these interpreters, also children,
            # do not count in the sessions' peak memory.
            import_s = measure_imports()
            check_pins(workload, sessions[0][0], sessions[0][2], checks)
            metrics = end_to_end(sessions, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still in use

    for failure in checks.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        **workload.meta,
        "backend": workloads.backend_name(),
        "REPRO_COLUMNAR": repro_columnar,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
