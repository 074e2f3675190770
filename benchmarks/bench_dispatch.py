"""Rule-dispatch microbenchmark: compiled packed-int IR vs legacy tables.

PR 4 compiled the protocol layer (``repro.core.program``): states intern
to dense ids, each transition LHS packs into one int key, and ``delta``
dispatch becomes a single int-dict hit on ids the world already stores.
This benchmark pins the acceptance bar — **>= 2x over the legacy
dispatch** — on the real dispatch stream of the n = 64 aggregation
workload (the same workload as ``bench_schedulers.py``): before each step
of the seeded run (and once more at stabilization), the brute-force hot
enumeration :func:`~repro.core.candidates.hot_effective_candidates`
sends every hot candidate of the current world through a recording
``evaluate``. That stream, 254,859 delta applications over 96 events,
is asserted before timing and replayed through

* the *legacy* path, reproducing the seed's dispatch exactly: build an
  ``InteractionView`` of boundary states per call (what ``evaluate`` did)
  and look up nested tuple keys, as-presented then swapped (what
  ``RuleProtocol.handle`` did);
* the *compiled* path: the packed-IR ``CompiledProgram.lookup`` on
  interned ids, exactly what the bound scheduler fast path executes.

Results land in ``BENCH_dispatch.json``; CI runs this file and enforces
the bar.
"""

import json
import time
from pathlib import Path

from conftest import append_raw_history, print_table

from repro.core.candidates import hot_effective_candidates
from repro.core.protocol import InteractionView, Rule, RuleProtocol
from repro.core.scheduler import evaluate
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.geometry.ports import PORT_INDEX, PORTS_2D, opposite


def aggregation_protocol() -> RuleProtocol:
    """Leaderless gluing (the bench_schedulers workload): every meeting of
    free opposite ports bonds."""
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="g", name="aggregation")


def record_dispatch_stream(n=64, max_events=200, seed=11):
    """The boundary view of every delta application the brute-force hot
    enumeration makes over one seeded run, and the run's event count."""
    protocol = aggregation_protocol()
    world = World.of_free_nodes(n, protocol, leaders=0)
    sim = Simulation(world, protocol, seed=seed)
    stream = []

    def recording_evaluate(protocol, world, cand):
        stream.append(
            (
                world.state_of(cand.nid1),
                cand.port1,
                world.state_of(cand.nid2),
                cand.port2,
                cand.bond,
            )
        )
        return evaluate(protocol, world, cand)

    for _ in range(max_events):
        hot_effective_candidates(world, protocol, recording_evaluate)
        if sim.step() is None:
            break
    return stream, sim.events


def legacy_dispatch(rules):
    """The seed's dispatch, reproduced: nested-tuple table, view built per
    call, presented-then-swapped lookups."""
    table = {r.lhs: r for r in rules}

    def dispatch(s1, p1, s2, p2, bond):
        view = InteractionView(s1, p1, s2, p2, bond)
        lhs = ((view.state1, view.port1), (view.state2, view.port2), view.bond)
        rule = table.get(lhs)
        if rule is not None:
            return rule.rhs
        swapped = ((view.state2, view.port2), (view.state1, view.port1), view.bond)
        rule = table.get(swapped)
        if rule is not None:
            return (rule.new_state2, rule.new_state1, rule.new_bond)
        return None

    return dispatch


def time_loop(fn, calls, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        for args in calls:
            fn(*args)
    return time.perf_counter() - start


def test_compiled_dispatch_beats_legacy(benchmark):
    stream, events = record_dispatch_stream()
    # Re-enumerating the hot nodes every step dispatches exactly this many
    # calls on the run (the figure frozen in history.jsonl): a real
    # workload, not a toy corpus.
    assert (len(stream), events) == (254_859, 96), (len(stream), events)

    protocol = aggregation_protocol()
    program = protocol.program
    space = program.space
    # The compiled path's inputs are what the bound world stores: interned
    # ids and port indexes.
    compiled_calls = [
        (space.get_id(s1), PORT_INDEX[p1], space.get_id(s2), PORT_INDEX[p2], b)
        for s1, p1, s2, p2, b in stream
    ]
    legacy = legacy_dispatch(protocol.rules)

    # Cross-check before timing: both paths agree call for call.
    for (s1, p1, s2, p2, b), packed in zip(stream[:2000], compiled_calls[:2000]):
        assert legacy(s1, p1, s2, p2, b) == program.lookup(*packed)

    repeats = 2

    def measure():
        return {
            "legacy": time_loop(legacy, stream, repeats),
            "compiled": time_loop(program.lookup, compiled_calls, repeats),
        }

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    calls = len(stream) * repeats
    speedup = times["legacy"] / times["compiled"]

    print_table(
        "Rule dispatch: compiled packed-int IR vs legacy tuple tables",
        f"{'path':>10} {'calls':>9} {'secs':>9} {'Mcalls/s':>9}",
        (
            f"{name:>10} {calls:>9d} {secs:>9.4f} {calls / secs / 1e6:>9.2f}"
            for name, secs in times.items()
        ),
    )
    print(f"dispatch speedup: {speedup:.1f}x")

    out = Path(__file__).parent / "BENCH_dispatch.json"
    out.write_text(
        json.dumps(
            {
                "workload": (
                    f"aggregation n=64, seed 11, brute-force hot "
                    f"enumeration before every step, {events} events"
                ),
                "calls": calls,
                "cases": {
                    name: {
                        "seconds": secs,
                        "calls_per_sec": calls / secs,
                    }
                    for name, secs in times.items()
                },
                "speedups": {"dispatch": speedup},
            },
            indent=2,
        )
        + "\n"
    )
    append_raw_history(
        "dispatch",
        events=events,
        wall_time=times["compiled"],
        dispatch_calls=calls,
        speedup_dispatch=speedup,
    )
    # The acceptance bar of the compiled-IR PR.
    assert speedup >= 2.0, times
