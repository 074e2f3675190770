"""Scheduler law-equivalence: seeded trajectories must be *identical*.

The scheduler contract (``repro.core.scheduler``) makes every uniform
scheduler consume the same RNG draws over the same canonically ordered
effective list, so seeded runs of ``enumerate``, ``rejection`` and ``hot``
must produce byte-identical event trajectories and final configurations — not merely agree in law. These
tests pin that across the paper's line, square, and replication protocols,
and drive the candidate cache against the reference enumeration through
merges, splits, fault injection, and synchronous rounds. Trajectories are
captured as ``repro.trace`` event records from a ``Simulation`` trace hook.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    EffectiveCandidateCache,
    candidate_sort_key,
    hot_effective_candidates,
    reference_effective_candidates,
)
from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import evaluate, make_scheduler
from repro.core.simulator import Simulation
from repro.core.trace import world_to_dict
from repro.core.world import World
from repro.faults.injection import FaultySimulation, break_random_bond
from repro.geometry.ports import PORTS_2D, opposite, ports_for_dimension
from repro.protocols.line import spanning_line_protocol
from repro.protocols.replication import (
    no_leader_line_replication_protocol,
    replication_world,
)
from repro.protocols.square import square_protocol
from repro.trace.encoding import event_record

KINDS = ("enumerate", "rejection", "hot")


def gluing_protocol() -> RuleProtocol:
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="g", name="gluing")


def event_recorder():
    """A ``Simulation`` trace hook and the event records it collects."""
    events = []

    def hook(index, cand, update, _world):
        events.append(event_record(index, cand, update))

    return hook, events


def _trajectory(make_world, protocol, kind, seed, max_events):
    world = make_world()
    hook, events = event_recorder()
    sim = Simulation(
        world,
        protocol,
        scheduler=make_scheduler(kind),
        seed=seed,
        trace=hook,
        check_invariants=True,
    )
    sim.run(max_events=max_events)
    return events, world_to_dict(world)


SCENARIOS = {
    "line": (
        spanning_line_protocol,
        lambda protocol: World.of_free_nodes(9, protocol, leaders=1),
        200,
    ),
    "square": (
        square_protocol,
        lambda protocol: World.of_free_nodes(9, protocol, leaders=1),
        200,
    ),
    "replication": (
        no_leader_line_replication_protocol,
        lambda protocol: replication_world(4, free_nodes=8, leader_left="e"),
        120,
    ),
    "gluing": (
        gluing_protocol,
        lambda protocol: World.of_free_nodes(8, protocol, leaders=0),
        200,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_trajectories_identical_across_schedulers(name):
    make_protocol, make_world, max_events = SCENARIOS[name]
    protocol = make_protocol()
    for seed in (0, 7, 123):
        runs = [
            _trajectory(
                lambda: make_world(protocol), protocol, kind, seed, max_events
            )
            for kind in KINDS
        ]
        reference = runs[0]
        for kind, run in zip(KINDS[1:], runs[1:]):
            assert run[0] == reference[0], (name, seed, kind)
            assert run[1] == reference[1], (name, seed, kind)


@pytest.mark.parametrize("dimension", (2, 3))
def test_seeded_trajectories_identical_under_faults(dimension):
    """The two-RNG-draws-per-event contract, pinned on split-heavy runs.

    ``FaultySimulation`` interleaves fault coins (bond breakage and node
    excision) with protocol events *on the same RNG stream*: any scheduler
    consuming a different number of draws per event would desynchronize
    every subsequent fault, so identical fault logs + final configurations
    across all uniform schedulers pin the contract on trajectories
    dominated by splits and surgery — not just growth-only ones.
    """
    ports = PORTS_2D if dimension == 2 else ports_for_dimension(3)
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in ports]
    protocol = RuleProtocol(
        rules, initial_state="g", name="gluing", dimension=dimension
    )
    for seed in (0, 11):
        runs = []
        for kind in KINDS:  # the uniform ones: round-robin draws nothing
            world = World.of_free_nodes(10, protocol, leaders=0)
            fsim = FaultySimulation(
                world,
                protocol,
                break_prob=0.25,
                excise_prob=0.15,
                scheduler=make_scheduler(kind),
                seed=seed,
            )
            fsim.run(max_steps=150)
            runs.append(
                (
                    fsim.events,
                    [
                        (
                            b.at_event,
                            tuple(
                                sorted((n, p.value) for n, p in b.bond)
                            ),
                        )
                        for b in fsim.breakages
                    ],
                    [(e.at_event, e.nid) for e in fsim.excisions],
                    world_to_dict(world),
                )
            )
        reference = runs[0]
        # The workload must actually be split-heavy to pin anything.
        assert reference[1] and reference[2], "no faults fired"
        for kind, run in zip(KINDS[1:], runs[1:]):
            assert run == reference, (dimension, seed, kind)


def test_raw_step_counters_still_tracked():
    protocol = spanning_line_protocol()
    for kind in ("enumerate", "rejection"):
        world = World.of_free_nodes(6, protocol, leaders=1)
        sim = Simulation(world, protocol, scheduler=make_scheduler(kind), seed=2)
        res = sim.run_to_stabilization(max_events=1000)
        assert res.raw_steps is not None and res.raw_steps >= res.events


def test_rejection_fallback_counts_the_wait_once():
    """With max_trials=1 the rejection sampler falls back to the geometric
    tail almost every event; raw steps must still be plausibly sized (the
    old code double-counted the observed wait on fallback)."""
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(6, protocol, leaders=1)
    sim = Simulation(
        world, protocol, scheduler=make_scheduler("rejection", max_trials=1),
        seed=3,
    )
    res = sim.run_to_stabilization(max_events=1000)
    assert res.raw_steps is not None and res.raw_steps >= res.events
    # Compare against the exact reference on the same seed: same trajectory,
    # and the raw counters agree in magnitude (same law, different draws).
    world2 = World.of_free_nodes(6, protocol, leaders=1)
    sim2 = Simulation(
        world2, protocol, scheduler=make_scheduler("enumerate"), seed=3
    )
    res2 = sim2.run_to_stabilization(max_events=1000)
    assert res.events == res2.events
    assert res.raw_steps < 100 * res2.raw_steps


class TestIncrementalCacheEqualsReference:
    """The cache must equal the effective subset of the reference
    enumeration after *every* kind of world mutation."""

    def _assert_in_sync(self, cache, world, protocol):
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert [candidate_sort_key(c) for c, _u in got] == [
            candidate_sort_key(c) for c, _u in want
        ]
        assert got == want

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_through_gluing_and_breakage(self, n, seed):
        protocol = gluing_protocol()
        world = World(2)
        for _ in range(n):
            world.add_free_node("g")
        rng = random.Random(seed)
        cache = EffectiveCandidateCache()
        sim = Simulation(world, protocol, seed=seed)
        for _ in range(60):
            if rng.random() < 0.25:
                break_random_bond(world, rng)
                sim.stabilized = False
            self._assert_in_sync(cache, world, protocol)
            if sim.step() is None and rng.random() < 0.5:
                break

    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_through_batched_merges(self, n, seed, gap):
        # Multiple merges may land between two refreshes (a lagging
        # consumer); merge-delta pruning must stay exact even when *both*
        # endpoint components of a cached entry merged in the same gap.
        protocol = gluing_protocol()
        world = World(2)
        for _ in range(n):
            world.add_free_node("g")
        cache = EffectiveCandidateCache()
        sim = Simulation(world, protocol, seed=seed)
        self._assert_in_sync(cache, world, protocol)
        for _ in range(20):
            stepped = None
            for _ in range(gap):
                stepped = sim.step()
            self._assert_in_sync(cache, world, protocol)
            if stepped is None:
                break

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_through_replication_walks(self, seed):
        protocol = no_leader_line_replication_protocol()
        world = replication_world(3, free_nodes=5, leader_left="e")
        cache = EffectiveCandidateCache()
        sim = Simulation(world, protocol, seed=seed)
        for _ in range(40):
            self._assert_in_sync(cache, world, protocol)
            if sim.step() is None:
                break

    def test_through_synchronous_rounds(self):
        # Sync-round state writes and bond flips must invalidate the cache
        # through the journal even though no scheduler event happened.
        from repro.sync.model import SynchronousProgram, RoundOutcome
        from repro.sync.runner import run_component_rounds

        def flood(view):
            if view.state == "hot" or "hot" in view.neighbors.values():
                return RoundOutcome("hot")
            return RoundOutcome(view.state)

        protocol = gluing_protocol()
        world = World(2)
        from repro.geometry.vec import Vec

        world.add_component_from_cells(
            {Vec(0, 0): "hot", Vec(1, 0): "g", Vec(2, 0): "g"}
        )
        world.add_free_node("g")
        cache = EffectiveCandidateCache()
        self._assert_in_sync(cache, world, protocol)
        run_component_rounds(world, SynchronousProgram(flood), rounds=2)
        self._assert_in_sync(cache, world, protocol)

    def test_through_external_population_growth(self):
        protocol = gluing_protocol()
        world = World(2)
        world.add_free_node("g")
        cache = EffectiveCandidateCache()
        self._assert_in_sync(cache, world, protocol)
        world.add_free_node("g")  # node added *after* the cache was built
        self._assert_in_sync(cache, world, protocol)

    def test_journal_truncation_forces_rebuild(self):
        protocol = gluing_protocol()
        world = World(2)
        for _ in range(4):
            world.add_free_node("g")
        cache = EffectiveCandidateCache()
        self._assert_in_sync(cache, world, protocol)
        rebuilds = cache.full_rebuilds
        # Overflow the journal without the cache looking.
        for _ in range(World.CHANGE_LOG_LIMIT + 10):
            world.note_change(0)
        self._assert_in_sync(cache, world, protocol)
        assert cache.full_rebuilds == rebuilds + 1


class TestRoundRobinDeterminism:
    def test_sort_key_orders_alignments(self):
        # Two 3D inter-component candidates may differ only in the
        # placement rotation; the canonical order must separate them.
        world = World(3)
        world.add_free_node("g")
        world.add_free_node("g")
        from repro.geometry.ports import Port

        cands = world.inter_candidates(0, Port.RIGHT, 1, Port.LEFT)
        assert len(cands) == 4  # the C4 stabilizer of the bond axis
        keys = [candidate_sort_key(c) for c in cands]
        assert len(set(keys)) == 4
        prefix = {k[:5] for k in keys}
        assert len(prefix) == 1  # they differ *only* past the placement

    def test_seeded_round_robin_reproducible(self):
        protocol = spanning_line_protocol(dimension=3)

        def run_once():
            world = World.of_free_nodes(6, protocol, leaders=1)
            hook, events = event_recorder()
            sim = Simulation(
                world,
                protocol,
                scheduler=make_scheduler("round-robin"),
                seed=0,
                trace=hook,
            )
            sim.run_to_stabilization(max_events=2000)
            return events, world_to_dict(world)

        assert run_once() == run_once()


def test_hot_enumeration_is_canonical_and_sorted():
    protocol = gluing_protocol()
    world = World(2)
    for _ in range(5):
        world.add_free_node("g")
    Simulation(world, protocol, seed=4).run(max_events=2)
    entries = hot_effective_candidates(world, protocol, evaluate)
    keys = [candidate_sort_key(c) for c, _u in entries]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for cand, _update in entries:
        if cand.intra:
            assert cand.nid1 < cand.nid2
        else:
            cid1 = world.nodes[cand.nid1].component_id
            cid2 = world.nodes[cand.nid2].component_id
            assert cid1 < cid2
