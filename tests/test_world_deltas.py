"""Randomized world-mutation stress harness for the unified delta journal.

The world journals every structural mutation — merges, splits (bond
removals and surgery excisions), and hybrid leaf moves — as ordered,
tagged delta records (``World.deltas_since``), and the incremental
candidate cache consumes them with fine-grained pruning instead of coarse
per-component sweeps (``repro.core.candidates``). These tests drive random
interleaved merge / split / surgery / state-write sequences through both
the cached and brute-force effective sets and assert, after *every*
mutation:

* set equality between the cache, the brute-force hot enumeration, and
  the reference enumeration (2D and 3D, under all four schedulers);
* journal-cursor consistency: cursors are monotone, ``deltas_since``
  returns exactly the records of the gap, and each component's version
  trail is strictly increasing record by record;
* the delta path stays exact when several mutations land between two
  refreshes — the delta machinery is an optimization, never a semantic
  change;
* the journal-synced flat columns of the columnar backend
  (``repro.core.columnar.ColumnarIndex``) equal the dict world after
  every mutation.

The interleaved-mutation and snapshot-restore legs run twice: on the
exact gluing table and on its handler twin (the same delta lowered
lazily, ``exact=False``), whose over-approximate hints make the cache's
batch kernel generate, count and drop ineffective rows.

This is the chaos-testing layer the fault/repair dynamics of the paper
lean on: every bond deletion and node excision must keep the cache exact.
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
from repro.core.protocol import AgentProtocol, Rule, RuleProtocol
from repro.core.scheduler import evaluate, make_scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.errors import ReproError
from repro.faults.injection import (
    break_bond,
    break_random_bond,
    excise_random_node,
)
from repro.faults.repair import detach_component_part
from repro.core import columnar
from repro.geometry.ports import PORTS_2D, PORTS_3D, opposite
from repro.geometry.vec import Vec
from repro.hybrid.movement import rotate_leaf
from repro.protocols.line import spanning_line_protocol

SCHEDULER_KINDS = (
    ("enumerate", {}),
    ("rejection", {}),
    ("hot", {}),
    ("round-robin", {}),
)


def gluing_protocol(dimension: int = 2) -> RuleProtocol:
    ports = PORTS_2D if dimension == 2 else PORTS_3D
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in ports]
    return RuleProtocol(
        rules, initial_state="g", name="gluing", dimension=dimension
    )


def gluing_handler_protocol(dimension: int = 2) -> AgentProtocol:
    """The gluing table's handler twin, with the default all-hot hints."""
    table = gluing_protocol(dimension)
    return AgentProtocol(
        table.handle, initial_state="g", name="gluing-handler",
        dimension=dimension,
    )


class JournalObserver:
    """Tracks journal cursors across mutations and checks consistency."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.delta_cursor = world.delta_cursor()
        self.change_cursor = world.change_cursor()
        self.versions = {}

    def check(self) -> None:
        world = self.world
        new_delta = world.delta_cursor()
        new_change = world.change_cursor()
        assert new_delta >= self.delta_cursor
        assert new_change >= self.change_cursor
        deltas = world.deltas_since(self.delta_cursor)
        assert deltas is not None, "journal truncated under a live cursor"
        assert len(deltas) == new_delta - self.delta_cursor
        assert world.deltas_since(new_delta) == []
        for kind, record in deltas:
            assert kind in ("merge", "split", "move"), kind
            cid, version = record[0], record[1]
            prev = self.versions.get(cid)
            if prev is not None:
                assert version > prev, (kind, cid, prev, version)
            self.versions[cid] = version
            if kind == "merge":
                _kept, _v, absorbed, new_cells, moved = record
                assert absorbed != cid
                assert len(new_cells) == len(moved)
            elif kind == "split":
                _kept, _v, fragments, vacated, frontier = record
                departed = [n for _c, _fv, ms in fragments for n in ms]
                assert len(departed) == len(set(departed))
                assert len(vacated) == len(departed)
                assert not set(frontier) & set(departed)
                for fcid, fversion, members in fragments:
                    assert fcid != cid and members
                    self.versions.setdefault(fcid, fversion)
            else:  # move
                _cid, _v, dirtied, vacated, new_cells, _frontier = record
                assert dirtied and len(vacated) == len(new_cells) == 1
        changes = world.changes_since(self.change_cursor)
        assert changes is not None
        assert world.changes_since(new_change) == set()
        self.delta_cursor = new_delta
        self.change_cursor = new_change


def apply_random_mutation(world, sim, rng) -> str:
    """One randomly chosen world mutation; returns what was done."""
    r = rng.random()
    if r < 0.22:
        if break_random_bond(world, rng) is not None:
            sim.stabilized = False
            return "break"
        return "noop"
    if r < 0.38:
        nid = excise_random_node(world, rng, rng.choice(["g", "dead"]))
        if nid is not None:
            sim.stabilized = False
            return "excise"
        return "noop"
    if r < 0.48:
        comps = sorted(
            cid for cid, c in world.components.items() if c.size() >= 4
        )
        if comps:
            cid = comps[rng.randrange(len(comps))]
            try:
                detach_component_part(world, cid, 0.4, rng=rng)
            except ReproError:
                return "noop"
            sim.stabilized = False
            return "detach"
        return "noop"
    if r < 0.58:
        nids = sorted(world.nodes)
        nid = nids[rng.randrange(len(nids))]
        world.set_state(nid, rng.choice(["g", "dead"]))
        sim.stabilized = False
        return "write"
    if r < 0.64:
        world.add_free_node("g")
        sim.stabilized = False
        return "add"
    if r < 0.72 and world.dimension == 2:
        leaves = []
        for comp in world.components.values():
            degree = {}
            for bond in comp.bonds:
                for nid, _port in bond:
                    degree[nid] = degree.get(nid, 0) + 1
            leaves.extend(n for n, d in degree.items() if d == 1)
        if leaves:
            leaf = sorted(leaves)[rng.randrange(len(leaves))]
            if rotate_leaf(world, leaf, rng.random() < 0.5):
                sim.stabilized = False
                return "move"
        return "noop"
    sim.step()
    return "event"


def assert_cache_in_sync(cache, world, protocol):
    got = cache.refresh(world, protocol, evaluate)
    brute = hot_effective_candidates(world, protocol, evaluate)
    want, _perm = reference_effective_candidates(world, protocol, evaluate)
    keys = [candidate_sort_key(c) for c, _u in got]
    assert keys == sorted(keys)
    assert got == brute
    assert got == want
    # The flat columns, synced purely from the journals, must equal the
    # dict world cell for cell after every mutation.
    idx = columnar.get_index(world)
    idx.sync()
    idx.verify(world)


def check_interleaved_mutations(protocol, kind, kwargs, n, seed):
    world = World(protocol.dimension)
    for _ in range(n):
        world.add_free_node("g")
    rng = random.Random(seed)
    sim = Simulation(
        world,
        protocol,
        scheduler=make_scheduler(kind, **kwargs),
        seed=seed,
    )
    cache = EffectiveCandidateCache()
    observer = JournalObserver(world)
    assert_cache_in_sync(cache, world, protocol)
    for _ in range(30):
        apply_random_mutation(world, sim, rng)
        world.check_invariants()
        observer.check()
        assert_cache_in_sync(cache, world, protocol)


SEEDS = st.integers(min_value=0, max_value=10_000)
DIMENSIONS = st.sampled_from((2, 3))


class TestRandomizedMutationStress:
    """Cache == brute force == reference after every random mutation.

    The ``*_handler_twin`` legs run fewer, smaller worlds: the twin's
    all-port hints make both oracles several times slower.
    """

    @pytest.mark.parametrize("kind,kwargs", SCHEDULER_KINDS)
    @given(n=st.integers(min_value=3, max_value=9), seed=SEEDS, dimension=DIMENSIONS)
    @settings(max_examples=8, deadline=None)
    def test_interleaved_mutations(self, kind, kwargs, n, seed, dimension):
        check_interleaved_mutations(
            gluing_protocol(dimension), kind, kwargs, n, seed
        )

    @pytest.mark.parametrize("kind,kwargs", SCHEDULER_KINDS)
    @given(n=st.integers(min_value=3, max_value=6), seed=SEEDS, dimension=DIMENSIONS)
    @settings(max_examples=4, deadline=None)
    def test_interleaved_mutations_handler_twin(
        self, kind, kwargs, n, seed, dimension
    ):
        check_interleaved_mutations(
            gluing_handler_protocol(dimension), kind, kwargs, n, seed
        )

    @given(
        seed=SEEDS,
        gap=st.integers(min_value=2, max_value=5),
        dimension=DIMENSIONS,
    )
    @settings(max_examples=10, deadline=None)
    def test_batched_gaps_fine_equals_coarse(self, seed, gap, dimension):
        # Several mutations may land between two refreshes; the fine delta
        # path must stay exact through chained, interleaved records
        # (merge-then-split of the same component, fragments merging away
        # within the gap, partners in flux): it equals the reference.
        protocol = gluing_protocol(dimension)
        world = World(dimension)
        for _ in range(8):
            world.add_free_node("g")
        rng = random.Random(seed)
        sim = Simulation(world, protocol, seed=seed)
        fine = EffectiveCandidateCache()
        for _ in range(12):
            for _ in range(gap):
                apply_random_mutation(world, sim, rng)
            got_fine = fine.refresh(world, protocol, evaluate)
            want, _perm = reference_effective_candidates(
                world, protocol, evaluate
            )
            assert got_fine == want


def check_restored_world(protocol, seed):
    from repro.core.trace import world_from_dict, world_to_dict

    world = World(protocol.dimension)
    for _ in range(7):
        world.add_free_node("g")
    rng = random.Random(seed)
    sim = Simulation(world, protocol, seed=seed)
    for _ in range(12):
        apply_random_mutation(world, sim, rng)
    snapshot = world_to_dict(world)
    restored = world_from_dict(snapshot)
    for comp in restored.components.values():
        assert comp.version >= 1, "restored component version not bumped"
    # The round trip is exact — including the allocator counters the
    # checkpoint replay path depends on for id-stable splits.
    assert world_to_dict(restored) == snapshot
    assert restored._next_nid == world._next_nid
    assert restored._next_cid == world._next_cid

    cache = EffectiveCandidateCache()
    observer = JournalObserver(restored)
    sim2 = Simulation(restored, protocol, seed=seed + 1)
    assert_cache_in_sync(cache, restored, protocol)
    for _ in range(15):
        apply_random_mutation(restored, sim2, rng)
        restored.check_invariants()
        observer.check()
        assert_cache_in_sync(cache, restored, protocol)


class TestSnapshotRestoreMutation:
    """A restored snapshot is a first-class world for the delta machinery.

    ``world_to_dict``/``world_from_dict`` round trips (the trace
    subsystem's checkpoints) must hand back a world whose component
    versions are bumped — so any (cid, version)-keyed cache treats every
    restored component as changed — and whose journals, allocator counters,
    and columnar index stay exact under continued random mutation.
    """

    @given(seed=SEEDS, dimension=DIMENSIONS)
    @settings(max_examples=6, deadline=None)
    def test_restored_world_mutates_exactly(self, seed, dimension):
        check_restored_world(gluing_protocol(dimension), seed)

    @given(seed=SEEDS, dimension=DIMENSIONS)
    @settings(max_examples=3, deadline=None)
    def test_restored_world_mutates_exactly_handler_twin(self, seed, dimension):
        check_restored_world(gluing_handler_protocol(dimension), seed)


class TestDeltaRecords:
    """Deterministic pinning of the journalled record contents."""

    def _line_world(self, protocol, length=5):
        world = World(2)
        cells = {Vec(x, 0): "g" for x in range(length)}
        nids = world.add_component_from_cells(cells)
        return world, nids

    def test_split_record_partition(self):
        protocol = gluing_protocol()
        world, nids = self._line_world(protocol)
        cid = world.nodes[nids[Vec(0, 0)]].component_id
        comp = world.components[cid]
        cursor = world.delta_cursor()
        # Snap the middle bond: {0,1,2} splits from {3,4}.
        target = next(
            b
            for b in comp.bonds
            if {n for n, _p in b} == {nids[Vec(2, 0)], nids[Vec(3, 0)]}
        )
        comp.bonds.discard(target)
        world._split_if_disconnected(comp)
        ((kind, record),) = world.deltas_since(cursor)
        assert kind == "split"
        kept, version, fragments, vacated, frontier = record
        assert kept == cid and version == comp.version
        ((fcid, fversion, members),) = fragments
        assert members == (nids[Vec(3, 0)], nids[Vec(4, 0)])
        assert world.nodes[members[0]].component_id == fcid
        assert fversion == world.components[fcid].version
        # The vacated cells are the fragment's old cells; the frontier is
        # the surviving node that was adjacent to the cut.
        from repro.geometry.packed import pack

        assert vacated == frozenset((pack(Vec(3, 0)), pack(Vec(4, 0))))
        assert frontier == (nids[Vec(2, 0)],)

    def test_excision_record(self):
        protocol = gluing_protocol()
        world, nids = self._line_world(protocol, length=3)
        mid = nids[Vec(1, 0)]
        cursor = world.delta_cursor()
        world.free_singleton(mid, "g")
        deltas = world.deltas_since(cursor)
        # One record for the excision, one for the remainder splitting in
        # two — strictly ordered, version trail consistent.
        assert [kind for kind, _r in deltas] == ["split", "split"]
        (k1, r1), (k2, r2) = deltas
        assert r1[2][0][2] == (mid,)  # the freed node is its own fragment
        assert r2[0] == r1[0] and r2[1] == r1[1] + 1
        assert world.is_free(mid)

    def test_move_record_from_leaf_rotation(self):
        protocol = gluing_protocol()
        world = World(2)
        nids = world.add_component_from_cells(
            {Vec(0, 0): "g", Vec(1, 0): "g"}
        )
        leaf, pivot = nids[Vec(1, 0)], nids[Vec(0, 0)]
        cursor = world.delta_cursor()
        assert rotate_leaf(world, leaf, clockwise=True)
        ((kind, record),) = world.deltas_since(cursor)
        assert kind == "move"
        cid, version, dirtied, vacated, new_cells, frontier = record
        assert dirtied == tuple(sorted((leaf, pivot)))
        from repro.geometry.packed import pack

        assert vacated == frozenset((pack(Vec(1, 0)),))
        assert new_cells == frozenset((pack(world.nodes[leaf].pos),))
        assert pivot in frontier

    def test_transplant_journals_a_merge(self):
        protocol = gluing_protocol()
        world, nids = self._line_world(protocol, length=3)
        into_cid = world.nodes[nids[Vec(0, 0)]].component_id
        line = world.add_component_from_cells({Vec(0, 0): "x", Vec(1, 0): "x"})
        line_nids = [line[Vec(0, 0)], line[Vec(1, 0)]]
        cursor = world.delta_cursor()
        world.transplant_line(
            line_nids, [Vec(0, 1), Vec(1, 1)], into_cid, "g"
        )
        ((kind, record),) = world.deltas_since(cursor)
        assert kind == "merge"
        kept, version, absorbed, new_cells, moved = record
        assert kept == into_cid
        assert moved == tuple(line_nids)
        assert len(new_cells) == 2

    def test_journal_truncation_forces_rebuild(self):
        protocol = gluing_protocol()
        world = World(2)
        for _ in range(4):
            world.add_free_node("g")
        cache = EffectiveCandidateCache()
        cache.refresh(world, protocol, evaluate)
        rebuilds = cache.full_rebuilds
        comp = world.components[0]
        for _ in range(World.DELTA_LOG_LIMIT + 10):
            world.note_move(comp, 0, Vec(0, 0), Vec(0, 0))
        assert world.deltas_since(0) is None
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert got == want
        # The truncated change journal (note_change) or delta journal must
        # have forced a safe recovery; the cache never serves stale data.
        assert cache.full_rebuilds >= rebuilds


def count_reseeds(cache, monkeypatch):
    """Record each call of the cache's two re-seed geometry passes."""
    calls = []
    for name in ("_reseed_as_host", "_reseed_as_guest"):
        method = getattr(cache, name)

        def counted(*args, _method=method, _name=name):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(cache, name, counted)
    return calls


def record_generated(cache, monkeypatch):
    """Record every node id the cache's regeneration pass receives."""
    nids = set()
    generate = cache._generate

    def recorded(world, protocol, evaluate, batch):
        nids.update(batch)
        return generate(world, protocol, evaluate, batch)

    monkeypatch.setattr(cache, "_generate", recorded)
    return nids


class TestFinePathEffectiveness:
    """The delta path must actually prune: fewer evaluations, no rebuilds."""

    def test_split_consumed_finely_with_fewer_evaluations(self):
        protocol = gluing_protocol()
        world = World(2)
        world.add_component_from_cells(
            {Vec(x, y): "g" for x in range(6) for y in range(4)}
        )
        for _ in range(4):
            world.add_free_node("g")
        cache = EffectiveCandidateCache()
        cache.refresh(world, protocol, evaluate)
        base = cache.evaluations
        rng = random.Random(5)
        for _ in range(6):
            nid = excise_random_node(world, rng, "g")
            assert nid is not None
            got = cache.refresh(world, protocol, evaluate)
            want, _perm = reference_effective_candidates(
                world, protocol, evaluate
            )
            assert got == want
        assert cache.split_prunes >= 6
        assert cache.full_rebuilds == 1
        # Six excisions cost 462 evaluations on the delta path; sweeping
        # each damaged component whole cost 1,210 on the same run.
        assert cache.evaluations - base == 462

    def test_shrinkage_never_drops_survivors(self, monkeypatch):
        # Two separated blobs with inter candidates between them: excising
        # a node of one blob must keep every surviving entry verbatim
        # (shrinkage can create but never invalidate — the dual of the
        # merge rule) while staying equal to the reference.
        protocol = gluing_protocol()
        world = World(2)
        world.add_component_from_cells(
            {Vec(x, y): "g" for x in range(3) for y in range(2)}
        )
        world.add_free_node("g")
        cache = EffectiveCandidateCache()
        before = list(cache.refresh(world, protocol, evaluate))
        regenerated = record_generated(cache, monkeypatch)
        big = max(world.components.values(), key=lambda c: c.size())
        corner = big.cells[Vec(2, 1)]
        world.free_singleton(corner, "g")
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert got == want
        # Entries with neither endpoint regenerated survive the refresh
        # unchanged — the no-invalidation half of the duality. There must
        # be some: the coarse sweep would regenerate the whole blob.
        after = list(got)
        untouched = [
            entry
            for entry in before
            if entry[0].nid1 not in regenerated
            and entry[0].nid2 not in regenerated
        ]
        assert untouched
        assert all(entry in after for entry in untouched)

    def test_split_skips_partners_no_state_pair_can_fire(self, monkeypatch):
        # A spanning line snapped at several points while the leader keeps
        # growing: every multi-cell fragment holds only q1 and leader
        # states, and the one rule is leader x free q0, so no state pair of
        # a fragment and the shrunk component can fire. The re-seed must
        # skip such partners before any geometry runs.
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(16, protocol, leaders=1)
        sim = Simulation(world, protocol, seed=0)
        cache = EffectiveCandidateCache()
        calls = count_reseeds(cache, monkeypatch)

        def assert_exact():
            got = cache.refresh(world, protocol, evaluate)
            want, _perm = reference_effective_candidates(
                world, protocol, evaluate
            )
            assert got == want

        assert_exact()
        rng = random.Random(0)
        beside_clean_fragment = 0
        for _ in range(4):
            for _ in range(3):
                assert sim.step() is not None
                assert_exact()
            q1_fragments = {
                cid: comp.size()
                for cid, comp in world.components.items()
                if comp.size() >= 2
                and all(world.state_of(n) == "q1" for n in comp.cells.values())
            }
            splits = cache.split_prunes
            assert break_random_bond(world, rng) is not None
            assert_exact()
            assert cache.split_prunes > splits
            beside_clean_fragment += any(
                cid in world.components and world.components[cid].size() == size
                for cid, size in q1_fragments.items()
            )
        assert beside_clean_fragment >= 1
        assert calls == []

    @pytest.mark.parametrize("partner_first", (False, True))
    def test_split_reseeds_partner_with_a_firing_pair(
        self, monkeypatch, partner_first
    ):
        # A clean multi-cell partner holding one g among dead nodes: the
        # (g, g) pair can fire, so the gate lets the partner through and
        # the geometry runs, in whichever frame hosts the placement. The
        # partner's L footprint, unrotated, puts its g above the line's
        # first node and its foot on the line's third cell: that placement
        # is blocked only by the cell the split vacates, and neither
        # endpoint is dirty, so only the re-seed can find it.
        protocol = gluing_protocol()
        world = World(2)

        def add_partner():
            foot = (Vec(1, 1), Vec(2, 1), Vec(2, 0))
            cells = world.add_component_from_cells(
                {cell: "g" for cell in (Vec(0, 1),) + foot}
            )
            for cell in foot:
                world.set_state(cells[cell], "dead")

        if partner_first:
            add_partner()
        line = world.add_component_from_cells(
            {Vec(x, 0): "g" for x in range(4)}
        )
        if not partner_first:
            add_partner()
        world.add_free_node("g")
        cache = EffectiveCandidateCache()
        calls = count_reseeds(cache, monkeypatch)
        cache.refresh(world, protocol, evaluate)
        middle = {line[Vec(1, 0)], line[Vec(2, 0)]}
        comp = world.component_of(line[Vec(1, 0)])
        (bond,) = [b for b in comp.bonds if {n for n, _p in b} == middle]
        break_bond(world, bond)
        got = cache.refresh(world, protocol, evaluate)
        want, _perm = reference_effective_candidates(world, protocol, evaluate)
        assert got == want
        assert cache.split_prunes == 1
        assert calls == [
            "_reseed_as_guest" if partner_first else "_reseed_as_host"
        ]
