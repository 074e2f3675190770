"""Counter pin for split/surgery delta pruning.

The fault/repair dynamics of §8 hammer the one path the merge-delta cache
of PR 2 left coarse: every bond deletion and node excision used to bump
``Component.version`` and re-examine the whole damaged component. With the
unified world-delta journal, splits and surgery carry their exact fallout
(departed fragments, vacated cells, the cut frontier) and the cache prunes
finely. This benchmark drives a fault-heavy repair workload and pins the
delta path's deterministic counters at seed 11: 193 events, 17 breakages,
133 excisions, 198 split prunes, one full rebuild and 72,578 candidate
evaluations. Sweeping each damaged component whole cost 256,270
evaluations on the same trajectory (the frozen comparison in
``history.jsonl``); the pin fails on any change that makes the cache
re-examine more, or less, than the delta records explain.

Workload: a stabilized plate of *sticky* nodes plus a pool of free
spares, under a repair protocol in which spares bond to the structure but
not to each other (the §8 shape-repair picture: detached nodes re-attach
at the damage frontier) — while a :class:`~repro.faults.FaultySimulation`
keeps excising random bonded nodes and snapping bonds. Damage and repair
interleave for the whole run, and every fault lands in the world-delta
journal. The delta path re-examines only the excised node, the cut
frontier, and placements unblocked by the vacated cells.

Emits ``BENCH_splits.json``; CI runs this as a smoke and enforces the pin
(see ``.github/workflows/ci.yml``).
"""

import json
import time
from pathlib import Path

from conftest import append_raw_history, print_table

from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import make_scheduler
from repro.core.world import World
from repro.faults.injection import FaultySimulation
from repro.geometry.ports import PORTS_2D, opposite
from repro.geometry.vec import Vec

PLATE_W, PLATE_H = 12, 10
FREE_NODES = 60
MAX_STEPS = 250
BREAK_PROB = 0.05
EXCISE_PROB = 0.5
SEED = 11


def sticky_repair_protocol() -> RuleProtocol:
    """Spares (``f``) bond to the structure (``s``) and adopt its state;
    spares never bond to each other — repair happens at the structure's
    frontier, as in the §8 blueprint-repair picture."""
    rules = [Rule("s", p, "f", opposite(p), 0, "s", "s", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="f", name="sticky-repair")


def fault_repair_world(protocol: RuleProtocol) -> World:
    """The stabilized plate plus a pool of free spares."""
    world = World(2)
    world.add_component_from_cells(
        {Vec(x, y): "s" for x in range(PLATE_W) for y in range(PLATE_H)}
    )
    for _ in range(FREE_NODES):
        world.add_free_node("f")
    world.adopt_space(protocol.program.space)
    return world


def _run():
    protocol = sticky_repair_protocol()
    world = fault_repair_world(protocol)
    scheduler = make_scheduler("hot")
    fsim = FaultySimulation(
        world,
        protocol,
        break_prob=BREAK_PROB,
        excise_prob=EXCISE_PROB,
        scheduler=scheduler,
        seed=SEED,
    )
    start = time.perf_counter()
    fsim.run(max_steps=MAX_STEPS)
    elapsed = time.perf_counter() - start
    cache = scheduler._cache
    return {
        "events": fsim.events,
        "breakages": len(fsim.breakages),
        "excisions": len(fsim.excisions),
        "evaluations": scheduler.evaluations,
        "split_prunes": cache.split_prunes,
        "merge_prunes": cache.merge_prunes,
        "full_rebuilds": cache.full_rebuilds,
        "seconds": elapsed,
    }


#: The delta path's counters on the seeded workload.
PINNED = {
    "events": 193,
    "breakages": 17,
    "excisions": 133,
    "evaluations": 72_578,
    "split_prunes": 198,
    "full_rebuilds": 1,
}


def test_split_prune_counters(benchmark):
    """The delta path's deterministic counters on the fault-heavy repair
    workload are pinned."""
    delta = benchmark.pedantic(_run, rounds=1, iterations=1)
    results = {"split delta": delta}
    print_table(
        f"Split/surgery delta pruning: {PLATE_W}x{PLATE_H} plate + "
        f"{FREE_NODES} spares, {MAX_STEPS} steps, seed {SEED}",
        f"{'cache':>13} {'events':>7} {'faults':>7} {'evals':>10} {'secs':>8}",
        (
            f"{name:>13} {r['events']:>7d} "
            f"{r['breakages'] + r['excisions']:>7d} "
            f"{r['evaluations']:>10d} {r['seconds']:>8.3f}"
            for name, r in results.items()
        ),
    )
    out = Path(__file__).parent / "BENCH_splits.json"
    out.write_text(
        json.dumps(
            {
                "workload": (
                    f"fault-heavy repair: {PLATE_W}x{PLATE_H} sticky plate "
                    f"+ {FREE_NODES} spares, break_prob={BREAK_PROB}, "
                    f"excise_prob={EXCISE_PROB}, {MAX_STEPS} steps, "
                    f"seed {SEED}"
                ),
                "cases": results,
            },
            indent=2,
        )
        + "\n"
    )
    append_raw_history(
        "splits",
        evaluations=delta["evaluations"],
        events=delta["events"],
        wall_time=delta["seconds"],
    )
    # The pin: a split-heavy run consumed on the fine path, every count
    # exact.
    assert {k: delta[k] for k in PINNED} == PINNED
