"""Ablation: the scheduler implementations and the candidate cache.

The library ships provably law-identical implementations of the paper's
uniform random scheduler on one shared candidate layer
(``repro.core.candidates``). This ablation confirms:

(i)   all of them build the same structures — with *identical* seeded
      trajectories, by the scheduler RNG contract;
(ii)  the raw step counters of the two exact implementations agree in
      expectation;
(iii) the cached hot scheduler's cost on the n = 64 aggregation workload
      is pinned: 96 events and 23,664 protocol-delta evaluations at
      seed 11, because after each event only the dirty neighborhood is
      re-examined instead of every hot node. Re-enumerating the hot
      nodes every event cost 254,859 evaluations on the same run (the
      frozen comparison in ``history.jsonl``); the pin fails on any
      change that makes the cache generate more, or fewer, candidates.

On leader-driven lines the effective set itself churns by Θ(n) per event
(every candidate involves the moving leader), so no scheduler can beat
Θ(n) evaluations there; the cache wins wherever interactions are local.

Wall-clock numbers also reflect the packed geometry kernel underneath the
candidate layer (``repro.geometry.packed``; microbenched separately in
``bench_geometry.py``) and the cache's merge-delta pruning, which together
cut the n = 64 aggregation run ~3.3x against the PR 1 baseline.
"""

import random
import time

from conftest import append_raw_history, print_table

from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.geometry.ports import PORTS_2D, opposite
from repro.protocols.line import spanning_line_protocol
from repro.trace.encoding import event_record


def aggregation_protocol() -> RuleProtocol:
    """Leaderless gluing: every meeting of free ports bonds (all states
    hot, interactions local) — the workload where the cache pays."""
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="g", name="aggregation")


def _run(kind, protocol, world, seed, max_events):
    scheduler = make_scheduler(kind)
    sim = Simulation(world, protocol, scheduler=scheduler, seed=seed)
    start = time.perf_counter()
    res = sim.run(max_events=max_events)
    elapsed = time.perf_counter() - start
    return res, scheduler.evaluations, elapsed


def test_scheduler_ablation(benchmark):
    """(i) + (ii): identical trajectories, agreeing raw-step counters."""
    n = 14
    trials = 8
    protocol = spanning_line_protocol()

    def ablate():
        rng = random.Random(0)
        rows = []
        seeds = [rng.randrange(2**31) for _ in range(trials)]
        for name in ("enumerate", "rejection", "hot"):
            events, raws, evals, times = [], [], [], []
            for seed in seeds:
                world = World.of_free_nodes(n, protocol, leaders=1)
                res, ev, t = _run(name, protocol, world, seed, 100_000)
                assert res.stabilized
                shapes = world.output_shapes(protocol)
                assert len(shapes) == 1 and shapes[0].is_line()
                events.append(res.events)
                raws.append(res.raw_steps)
                evals.append(ev)
                times.append(t)
            rows.append(
                (
                    name,
                    sum(events) / trials,
                    (sum(raws) / trials) if raws[0] is not None else None,
                    sum(evals) / trials,
                    sum(times) / trials,
                )
            )
        return rows

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)
    print_table(
        f"Scheduler ablation: spanning line, n = {n}, {trials} trials",
        f"{'scheduler':>10} {'events':>7} {'raw steps':>10} {'evals':>9} {'secs':>8}",
        (
            f"{name:>10} {ev:>7.1f} "
            f"{(f'{raw:>10.0f}' if raw is not None else '       n/a')} "
            f"{evals:>9.0f} {t:>8.4f}"
            for name, ev, raw, evals, t in rows
        ),
    )
    by_name = {row[0]: row[1:] for row in rows}
    # Identical law: the effective-event count is deterministic (n - 1).
    for name, (ev, _raw, _evals, _t) in by_name.items():
        assert ev == n - 1, name
    # The exact raw-step counters agree within Monte-Carlo noise.
    enum_raw = by_name["enumerate"][1]
    rej_raw = by_name["rejection"][1]
    assert abs(enum_raw - rej_raw) / enum_raw < 0.6
    # The cached hot scheduler evaluates far fewer candidates than the
    # reference enumeration.
    assert by_name["hot"][2] < by_name["enumerate"][2]


def test_incremental_cache_speedup(benchmark):
    """(iii): the cached run's counters at n = 64 are pinned, and its
    seeded trajectory equals the reference EnumeratingScheduler's."""
    n = 64
    max_events = 200
    seed = 11
    protocol = aggregation_protocol()

    def measure():
        world = World.of_free_nodes(n, protocol, leaders=0)
        return _run("hot", protocol, world, seed, max_events)

    res, evals, elapsed = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        f"Candidate cache: aggregation, n = {n}, seed {seed}",
        f"{'scheduler':>11} {'events':>7} {'evals':>10} {'secs':>8}",
        [f"{'hot':>11} {res.events:>7d} {evals:>10d} {elapsed:>8.3f}"],
    )
    append_raw_history(
        "schedulers",
        events=res.events,
        evaluations=evals,
        wall_time=elapsed,
    )
    # The pin: any change to what the cache generates moves these.
    assert (res.events, evals) == (96, 23_664), (res.events, evals)

    # Trajectory identity with the reference scheduler on a smaller run
    # (full enumeration at n = 64 is exact but slow; the law equivalence
    # suite covers it exhaustively at small n).
    def trace(kind, n_small=10):
        world = World.of_free_nodes(n_small, protocol, leaders=0)
        events = []
        sim = Simulation(
            world,
            protocol,
            scheduler=make_scheduler(kind),
            seed=seed,
            trace=lambda i, c, u, _w: events.append(event_record(i, c, u)),
        )
        sim.run(max_events=50)
        return events

    assert trace("hot") == trace("enumerate")
