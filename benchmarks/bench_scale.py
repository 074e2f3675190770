"""Scale curves of the columnar candidate store.

The hot scheduler's incremental cache runs the three hot kernels —
static-effectiveness filtering, occupancy-collision pruning, transition
dispatch — as batch array operations over flat int columns
(``repro.core.columnar``), so per-event cost is a handful of vectorized
passes instead of tens of thousands of interpreter steps. This bench
records how that cost grows with the population.

* **smoke**: leaderless aggregation at n = 64, checking the seeded run's
  deterministic counters (63 events, 23,635 candidate evaluations).
  It writes no artifact.
* **scale sweep** (opt-in, ``REPRO_BENCH_SCALE=1``): aggregation to
  n = 1024 and frontier accretion (a bonded seed plate plus inert free
  spares — candidate population Θ(frontier x n), so population scales
  past 10^4 without the Θ(n^2) all-singleton candidate blow-up) to
  n = 10^4. It emits the schema-validated ``BENCH_scale.json`` through
  the shared ``repro.experiments.io`` writer; that file is only ever the
  full sweep's output.

The speedups measured against the removed pure-Python store (~12x at
n = 256 aggregation, ~14x at n = 10^4 accretion) stay on record in
CHANGES.md; its n = 64 smoke pair is in ``benchmarks/history.jsonl``.
"""

import os
import time

import pytest
from conftest import print_table, write_bench

from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.trace import world_to_dict
from repro.core.world import World
from repro.experiments import ExperimentResult
from repro.geometry.ports import PORTS_2D, opposite
from repro.geometry.vec import Vec

SEED = 11
PLATE_SIDE = 6  # seed plate of the accretion workload


def aggregation_protocol() -> RuleProtocol:
    """Leaderless gluing: every meeting of free ports bonds."""
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="g", name="aggregation")


def accretion_protocol() -> RuleProtocol:
    """Structure (``s``) captures spares (``f``); spares are mutually
    inert, so candidates live only on the structure's frontier and the
    population can scale far past the all-singleton regime."""
    rules = [Rule("s", p, "f", opposite(p), 0, "s", "s", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="f", name="accretion")


def _world(workload: str, protocol: RuleProtocol, n: int) -> World:
    if workload == "aggregation":
        return World.of_free_nodes(n, protocol, leaders=0)
    world = World(2)
    world.add_component_from_cells(
        {
            Vec(x, y): "s"
            for x in range(PLATE_SIDE)
            for y in range(PLATE_SIDE)
        }
    )
    for _ in range(n):
        world.add_free_node("f")
    world.adopt_space(protocol.program.space)
    return world


def _run(workload: str, n: int, max_events: int) -> ExperimentResult:
    protocol = (
        aggregation_protocol()
        if workload == "aggregation"
        else accretion_protocol()
    )
    world = _world(workload, protocol, n)
    scheduler = make_scheduler("hot")
    sim = Simulation(world, protocol, scheduler=scheduler, seed=SEED)
    start = time.perf_counter()
    res = sim.run(max_events=max_events)
    elapsed = time.perf_counter() - start
    return ExperimentResult(
        scenario="scale",
        params={"workload": workload, "n": n, "max_events": max_events},
        seed=SEED,
        scheduler="hot+cache",
        events=res.events,
        raw_steps=res.raw_steps,
        evaluations=scheduler.evaluations,
        stop_reason=res.reason,
        wall_time=elapsed,
        metrics={"world_digest": _digest(world)},
    )


def _digest(world: World) -> str:
    import hashlib
    import json

    payload = json.dumps(world_to_dict(world), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _points(points):
    return [_run(workload, n, max_events) for workload, n, max_events in points]


def _report(title, results):
    print_table(
        title,
        f"{'workload':>12} {'n':>6} {'events':>7} {'evals':>10} {'secs':>8}",
        (
            f"{r.params['workload']:>12} {r.params['n']:>6d} "
            f"{r.events:>7d} {r.evaluations:>10d} {r.wall_time:>8.3f}"
            for r in results
        ),
    )


def test_columnar_smoke(benchmark):
    """The n = 64 aggregation run keeps its seeded counters."""
    results = benchmark.pedantic(
        _points, args=([("aggregation", 64, 63)],), rounds=1, iterations=1
    )
    _report(f"Columnar store smoke (seed {SEED})", results)
    assert (results[0].events, results[0].evaluations) == (63, 23_635)


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") != "1",
    reason="full scale sweep takes minutes; set REPRO_BENCH_SCALE=1",
)
def test_scale_sweep(benchmark):
    """The full sweep: aggregation to n = 1024, accretion to n = 10^4."""
    points = [
        ("aggregation", 64, 63),
        ("aggregation", 128, 127),
        ("aggregation", 256, 255),
        ("aggregation", 1024, 200),
        ("accretion", 1000, 60),
        ("accretion", 3000, 60),
        ("accretion", 10000, 60),
    ]
    results = benchmark.pedantic(_points, args=(points,), rounds=1, iterations=1)
    _report(f"Columnar store scale sweep (seed {SEED})", results)
    write_bench(
        "scale",
        results,
        header={"experiment": "columnar-scale", "note": "full sweep points"},
    )
    for r, (_workload, _n, max_events) in zip(results, points):
        assert r.events == max_events, r.params
