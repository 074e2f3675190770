"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Runs every workload at reduced size on its default seed: twice untraced,
then twice traced. The deterministic counters must repeat exactly, the
traced sessions must return the untraced counters (tracing only
observes), the per-layer counters of the two traced sessions must agree,
and no correctness check may fail.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer metrics that are counts of deterministic work.
DETERMINISTIC_LAYER_COUNTERS = (
    "scheduler.evaluations",
    "candidates.refresh_calls",
    "candidates.refreshed_nodes",
    "candidates.merge_prunes",
    "candidates.split_prunes",
    "candidates.full_rebuilds",
    "candidates.effective_max",
    "world.apply_calls",
    "trace.bytes",
    "trace.records",
    "trace.events_compared",
    "store.hits",
    "store.misses",
    "store.rejected",
)


def check_workload(name: str, tmp: Path) -> None:
    workload = WORKLOADS[name](tmp, small=True)
    seed = workload.default_seed
    checks = run.Checks()
    _, first = run.session(workload, seed, checks)
    _, second = run.session(workload, seed, checks)
    assert first == second, (name, first, second)
    layers = []
    for _ in range(2):
        tracer = Tracer()
        phases, traced = run.session(workload, seed, checks, tracer)
        assert traced == first, (name, "tracing changed a counter", traced, first)
        layers.append(run.layer_metrics(workload, tracer, phases.seconds, traced))
    for key in DETERMINISTIC_LAYER_COUNTERS:
        assert layers[0][key] == layers[1][key], (name, key, layers)
    assert layers[0]["scheduler.evaluations"] > 0, name
    assert not checks.failures, (name, checks.failures)


def test_counters_repeat_and_tracing_only_observes() -> None:
    run.TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_DIR))
    try:
        for name in WORKLOADS:
            check_workload(name, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            run.TMP_DIR.rmdir()
        except OSError:
            pass  # a benchmark run's directory is still in use


if __name__ == "__main__":
    test_counters_repeat_and_tracing_only_observes()
    print(f"selftest passed: {', '.join(WORKLOADS)}")
