"""Acceptance bars for the trace diff engine (the PR 10 tentpole).

:func:`~repro.trace.diff.diff_traces` *compares* records — it never
applies them — so diffing two identical traces must beat the pre-diff
workflow (replay both sides into worlds and compare) by a wide margin,
in bounded memory. This benchmark records the §5.2 counting-on-a-line
scenario at ``n=64`` twice and enforces:

1. **speed** — one diff of the identical pair is **>= 2x faster** than a
   dual full replay of both sides (best of 5 samples each, the samples
   interleaved so that a stall of the machine lands on both sides);
2. **memory** — the diff's ``tracemalloc`` peak stays under half the
   combined input bytes: the engine streams, holding only each side's
   checkpoint-interval window, never a buffered trace;
3. **work** — the deterministic twin of the speed bar: the diff calls
   ``World.apply`` zero times and ``json.loads`` once per line of one
   side (an identical line is parsed once for both). Wall-clock ratios
   move with the machine; these counts do not.

Emits ``BENCH_diff.json`` (plus a ``history.jsonl`` record); CI runs this
as a smoke and enforces all three (see ``.github/workflows/ci.yml``).
"""

import json
import time
import tracemalloc

import pytest
from conftest import print_table, write_bench

from repro.core.world import World
from repro.trace.diff import diff_traces
from repro.trace.record import record_scenario
from repro.trace.replay import replay_trace

SCENARIO = "counting-line"
PARAMS = {"n": 64}
SEED = 11
CHECKPOINT_EVERY = 64
MIN_SPEEDUP = 2.0
MAX_PEAK_FRACTION = 0.5
ROUNDS = 5


def _interleaved_best(fns, rounds=ROUNDS):
    """Best wall time of each of ``fns`` and its last return value.

    The samples alternate (first, second, first, …), so a stall of the
    whole machine slows one sample of each side instead of every sample
    of one side, and the best of each side survives it.
    """
    best = [float("inf")] * len(fns)
    values = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            values[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, values


@pytest.fixture(scope="module")
def trace_pair(tmp_path_factory):
    """The scenario recorded twice: (result, path a, path b)."""
    root = tmp_path_factory.mktemp("diff")
    paths = root / "a.trace", root / "b.trace"
    for path in paths:
        result, _writer = record_scenario(
            SCENARIO,
            params=PARAMS,
            seed=SEED,
            path=path,
            checkpoint_every=CHECKPOINT_EVERY,
        )
    return (result,) + paths


def test_diff_identical_streams_do_no_replay_work(trace_pair, monkeypatch):
    """Diff of identical traces applies no record and parses each line
    once: the counts the wall-clock bar stands for."""
    _result, path_a, path_b = trace_pair
    counts = {"World.apply": 0, "json.loads": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(World, "apply", "World.apply")
    counted(json, "loads", "json.loads")
    diff = diff_traces(path_a, path_b)
    monkeypatch.undo()
    lines = len(path_a.read_bytes().splitlines())
    print(
        f"diff of identical {lines}-line traces: "
        f"World.apply x{counts['World.apply']}, "
        f"json.loads x{counts['json.loads']}"
    )
    assert diff.identical, diff.describe()
    assert counts == {"World.apply": 0, "json.loads": lines}, (counts, lines)


def test_diff_identical_streams_bars(benchmark, trace_pair):
    """Diff of identical traces: >= 2x a dual replay, bounded memory."""
    result, path_a, path_b = trace_pair

    def measure():
        (diff_wall, replay_wall), (diff, replays) = _interleaved_best(
            (
                lambda: diff_traces(path_a, path_b),
                lambda: (
                    replay_trace(path_a, use_checkpoints=False),
                    replay_trace(path_b, use_checkpoints=False),
                ),
            )
        )
        tracemalloc.start()
        diff_traces(path_a, path_b)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return diff, replays, diff_wall, replay_wall, peak

    diff, replays, diff_wall, replay_wall, peak = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    assert diff.identical, diff.describe()
    full_a, full_b = replays
    assert full_a.digest == full_b.digest
    assert diff.events_compared == full_a.events

    stream_bytes = path_a.stat().st_size + path_b.stat().st_size
    speedup = replay_wall / max(diff_wall, 1e-9)
    peak_fraction = peak / stream_bytes
    print_table(
        f"Trace diff: {SCENARIO} n={PARAMS['n']}, "
        f"{full_a.events} events/side, checkpoint every {CHECKPOINT_EVERY}",
        f"{'run':>12} {'secs':>9}",
        (
            f"{'diff':>12} {diff_wall:>9.4f}",
            f"{'dual-replay':>12} {replay_wall:>9.4f}",
        ),
    )
    print(
        f"diff speedup: {speedup:.2f}x (bar {MIN_SPEEDUP:.1f}x); "
        f"peak {peak} bytes = {peak_fraction:.1%} of the "
        f"{stream_bytes}-byte stream pair (bar {MAX_PEAK_FRACTION:.0%})"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"diff of identical streams only {speedup:.2f}x faster than a dual "
        f"replay (bar {MIN_SPEEDUP}x)"
    )
    assert peak_fraction <= MAX_PEAK_FRACTION, (
        f"diff peak memory {peak} bytes is {peak_fraction:.1%} of the input "
        f"stream ({stream_bytes} bytes); the engine must stream, not buffer"
    )

    write_bench(
        "diff",
        [result],
        header={
            "experiment": "trace diff of identical streams vs dual replay",
            "diff_seconds": diff_wall,
            "dual_replay_seconds": replay_wall,
            "speedup_diff": speedup,
            "peak_bytes": peak,
            "stream_bytes": stream_bytes,
            "peak_fraction": peak_fraction,
            "events_compared": diff.events_compared,
            "checkpoints_compared": diff.checkpoints_compared,
            "checkpoint_every": CHECKPOINT_EVERY,
            "rounds": ROUNDS,
        },
    )
