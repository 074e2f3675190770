"""The columnar candidate backend (``repro.core.columnar``).

Pins the invariants the batch kernels rest on:

* the packed ``(hi, lo)`` sort key is strictly order-isomorphic to the
  historical tuple ``candidate_sort_key`` (hypothesis, mixed 2D/3D);
* ``(key, hi, lo)`` rows round-trip to the exact ``Candidate``, and the
  identity key is recovered from the sort key alone;
* ``rotate_by_code`` / ``in_sorted`` agree with their scalar definitions;
* ``ColumnarIndex`` stays coherent with the dict world through merges,
  its cached occupancy included;
* the batch kernel emits each of the oracle's effective inter candidates
  exactly once, counts every permissible one, never looks up an exact
  table, and dispatches a handler only on LHSs that have a permissible
  row, cold or warm — on glued worlds and on a counting line whose batch
  holds every member of several states;
* the cache's view, which derives each entry from its ``(hi, lo)`` row on
  read, behaves as the reference list and never evaluates or dispatches
  anew when read;
* a world beyond the occupancy-tag range fails loudly instead of running
  on a second store.

The randomized world-mutation stress harness in
``tests/test_world_deltas.py`` drives the same assertions through
splits, surgery and moves; this module is the deterministic pinning.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constructors.counting_line import counting_line_world
from repro.core import columnar
from repro.core.candidates import (
    EffectiveCandidateCache,
    bound_program,
    candidate_sort_key,
    iter_node_candidates,
    reference_effective_candidates,
)
from repro.core.program import CompiledProgram
from repro.core.protocol import AgentProtocol, Rule, RuleProtocol
from repro.core.scheduler import HotScheduler, evaluate
from repro.core.simulator import Simulation
from repro.core.world import Candidate, World
from repro.geometry.packed import pack, unpack
from repro.geometry.ports import PORT_INDEX, PORTS_2D, PORTS_3D, opposite
from repro.geometry.rotation import rotations_for_dimension
from repro.geometry.vec import Vec

ALL_ROTATIONS = tuple(
    {r.matrix: r for d in (2, 3) for r in rotations_for_dimension(d)}.values()
)


def gluing_protocol(dimension: int = 2) -> RuleProtocol:
    ports = PORTS_2D if dimension == 2 else PORTS_3D
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in ports]
    return RuleProtocol(
        rules, initial_state="g", name="gluing", dimension=dimension
    )


coords = st.integers(min_value=-200, max_value=200)


@st.composite
def candidates(draw):
    nid1 = draw(st.integers(min_value=0, max_value=500))
    nid2 = draw(st.integers(min_value=0, max_value=500))
    p1 = draw(st.sampled_from(PORTS_3D))
    p2 = draw(st.sampled_from(PORTS_3D))
    bond = draw(st.integers(min_value=0, max_value=1))
    if draw(st.booleans()):
        return Candidate(min(nid1, nid2), p1, max(nid1, nid2), p2, bond)
    rot = draw(st.sampled_from(ALL_ROTATIONS))
    trans = Vec(draw(coords), draw(coords), draw(coords))
    return Candidate(nid1, p1, nid2, p2, bond, rot, trans)


class TestPackedKeys:
    @given(st.lists(candidates(), min_size=2, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_sort_key_order_isomorphism(self, cands):
        tuples = [candidate_sort_key(c) for c in cands]
        packed = [columnar.packed_sort_key(c) for c in cands]
        for i in range(len(cands)):
            for j in range(len(cands)):
                assert (tuples[i] < tuples[j]) == (packed[i] < packed[j]), (
                    cands[i],
                    cands[j],
                )

    @given(candidates())
    @settings(max_examples=200, deadline=None)
    def test_row_round_trip(self, cand):
        key = columnar.packed_key(cand)
        hi, lo = columnar.packed_sort_key(cand)
        got = columnar.candidate_from_row(key, hi, lo)
        assert got.nid1 == cand.nid1 and got.nid2 == cand.nid2
        assert got.port1 is cand.port1 and got.port2 is cand.port2
        assert got.bond == cand.bond
        if cand.rotation is None:
            assert got.rotation is None and got.translation is None
        else:
            assert got.rotation.matrix == cand.rotation.matrix
            assert got.translation == cand.translation
        assert columnar.key_nid1(key) == cand.nid1
        assert columnar.key_nid2(key) == cand.nid2
        assert columnar.key_is_inter(key) == (cand.rotation is not None)

    @given(st.lists(candidates(), min_size=1, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_key_from_sort_key(self, cands):
        # Mixed 2D/3D rotations, intra and inter, both bonds: the store
        # keeps only (hi, lo), so a drifted shift constant must fail here.
        keys = [columnar.packed_key(c) for c in cands]
        rows = [columnar.packed_sort_key(c) for c in cands]
        assert [columnar.key_from_sort_key(hi, lo) for hi, lo in rows] == keys
        his = np.array([hi for hi, _lo in rows], dtype=np.int64)
        los = np.array([lo for _hi, lo in rows], dtype=np.int64)
        got = columnar.key_from_sort_key(his, los)
        assert got.dtype == np.int64 and got.tolist() == keys

    def test_key_rejects_out_of_range_ids(self):
        cand = Candidate(columnar.NID_LIMIT, PORTS_2D[0], 1, PORTS_2D[1], 0)
        with pytest.raises(OverflowError):
            columnar.packed_key(cand)


class TestArrayKernels:
    @given(
        st.sampled_from(ALL_ROTATIONS),
        st.lists(
            st.tuples(coords, coords, coords), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rotate_cells_matches_rotation(self, rot, points):
        cells = np.fromiter(
            (pack(Vec(*p)) for p in points), np.int64, count=len(points)
        )
        got = columnar.rotate_by_code(cells, columnar.ROT_CODE[rot.matrix])
        want = [pack(rot.apply(Vec(*p))) for p in points]
        assert got.tolist() == want
        # unpack agreement, not just packed equality
        assert [unpack(int(c)) for c in got] == [
            rot.apply(Vec(*p)) for p in points
        ]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(columnar.ROT_BY_CODE)), coords, coords, coords
            ),
            min_size=1,
            max_size=24,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_rotate_by_code_per_element_codes(self, items):
        codes = np.array([code for code, *_ in items], dtype=np.int64)
        points = [Vec(*p) for _, *p in items]
        cells = np.array([pack(v) for v in points], dtype=np.int64)
        got = columnar.rotate_by_code(cells, codes)
        want = [
            pack(v if code == 0 else columnar.ROT_BY_CODE[code - 1].apply(v))
            for code, v in zip(codes.tolist(), points)
        ]
        assert got.tolist() == want
        back = columnar.rotate_by_code(got, columnar.INV_CODE[codes])
        assert back.tolist() == cells.tolist()

    @given(
        st.lists(st.integers(-50, 50), max_size=40),
        st.lists(st.integers(-50, 50), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_in_sorted_matches_set_membership(self, values, member_list):
        members = np.array(sorted(set(member_list)), dtype=np.int64)
        vals = np.array(values, dtype=np.int64)
        got = columnar.in_sorted(vals, members)
        want = [v in set(member_list) for v in values]
        assert list(got) == want


class TestColumnarIndex:
    def test_sync_through_events(self):
        protocol = gluing_protocol()
        world = World.of_free_nodes(12, protocol, leaders=0)
        sim = Simulation(world, protocol, seed=5)
        idx = columnar.get_index(world)
        idx.sync()
        idx.verify(world)
        for _ in range(11):
            sim.step()
            idx.sync()
            idx.verify(world)
        assert columnar.get_index(world) is idx

    def test_members_array_sorted(self):
        protocol = gluing_protocol()
        world = World.of_free_nodes(6, protocol, leaders=0)
        idx = columnar.get_index(world)
        idx.sync()
        sid = world.nodes[0].sid
        members = idx.members_array(sid)
        assert members.tolist() == sorted(world.by_sid[sid])


def test_components_beyond_tag_range_raise(monkeypatch):
    # One store, no silent fallback: a world with more components than
    # the occupancy tags can address fails loudly at the cache.
    protocol = gluing_protocol()
    world = World.of_free_nodes(5, protocol, leaders=0)
    monkeypatch.setattr(columnar, "MAX_TAG_COMPONENTS", 4)
    with pytest.raises(OverflowError, match="occupancy-tag range"):
        EffectiveCandidateCache().refresh(world, protocol, evaluate)
    monkeypatch.setattr(columnar, "MAX_TAG_COMPONENTS", 5)
    assert len(EffectiveCandidateCache().refresh(world, protocol, evaluate))


def gluing_handler_protocol(dimension: int, asked: list) -> AgentProtocol:
    """The gluing table's handler twin (``port_hints`` is ``None``: every
    port pair), recording each LHS it is asked about."""
    table = gluing_protocol(dimension)

    def handler(view):
        asked.append(
            (view.state1, view.port1, view.state2, view.port2, view.bond)
        )
        return table.handle(view)

    return AgentProtocol(
        handler, initial_state="g", name="gluing-handler", dimension=dimension
    )


def glued_world(dimension: int, n: int, events: int, seed: int) -> World:
    """A seeded gluing run cut short: singletons and at least two
    multi-cell components, so both probe directions of the kernel run.

    One more component holds an ``x`` node (no table rule) with a single
    open port, so most port pairs of an ``x`` LHS have no permissible row.
    """
    protocol = gluing_protocol(dimension)
    world = World.of_free_nodes(n, protocol, leaders=0)
    sim = Simulation(world, protocol, seed=seed)
    for _ in range(events):
        sim.step()
    sizes = sorted(comp.size() for comp in world.components.values())
    assert sizes[0] == 1 and sizes[-2] > 1, sizes
    around = [Vec(1, 0), Vec(-1, 0), Vec(0, 1)]
    if dimension == 3:
        around += [Vec(0, 0, 1), Vec(0, 0, -1)]
    world.add_component_from_cells(
        {Vec(0, 0): "x", **{v: "g" for v in around}}
    )
    return world


def kernel_rows(world, protocol, nids):
    """The ``(hi, lo)`` rows one ``inter_rows`` call emits, in emission
    order, and the summed count of rows it evaluated."""
    program = bound_program(world, protocol)
    idx = columnar.get_index(world)
    idx.sync()
    sink = []
    columnar.BatchContext(world, protocol, program, idx).inter_rows(nids, sink)
    rows, evaluated = [], 0
    for his, los, count in sink:
        assert his.dtype == los.dtype == np.int64
        assert len(his) == len(los) <= count
        rows += zip(his.tolist(), los.tolist())
        evaluated += count
    return rows, evaluated


def oracle_rows(world, protocol, nids):
    """``{key: (key, hi, lo)}`` of the oracle's inter candidates."""
    rows = {}
    for nid in nids:
        for cand in iter_node_candidates(world, protocol, nid):
            if cand.rotation is not None:
                key = columnar.packed_key(cand)
                rows[key] = (key, *columnar.packed_sort_key(cand))
    return rows


def glued_case(dimension, n, events, seed):
    """A glued world, its gluing table and a fresh recording handler twin
    of the table per batch; the batches are every node and every third."""
    world = glued_world(dimension, n, events, seed)
    nodes = sorted(world.nodes)

    def protocols(asked):
        return (
            gluing_protocol(dimension),
            gluing_handler_protocol(dimension, asked),
        )

    return world, protocols, (nodes, nodes[::3])


def counting_case(n, events, seed):
    """A counting-line run stopped mid-count and a fresh recording twin of
    its protocol; the batch is the leader's line.

    Every member of several states sits in the line, so the kernel skips
    those partner states, while the free nodes' states have members
    outside it — one of them exactly one.
    """
    world, protocol = counting_line_world(n)
    sim = Simulation(world, protocol, seed=seed)
    for _ in range(events):
        sim.step()
    states = world.states()
    leader = next(nid for nid, s in states.items() if s[0] == "L")
    line = sorted(world.component_of(leader).cells.values())
    total = Counter(states.values())
    inside = Counter(states[nid] for nid in line)
    assert sum(inside[s] == total[s] for s in inside) >= 3, inside
    assert 1 in [total[s] for s in total if s not in inside], total

    def protocols(asked):
        def handler(view):
            asked.append(
                (view.state1, view.port1, view.state2, view.port2, view.bond)
            )
            return protocol.handle(view)

        twin = AgentProtocol(
            handler,
            initial_state=protocol.initial_state,
            leader_state=protocol.leader_state,
            hot=protocol.is_hot,
            halted=protocol.is_halted,
            compatible=protocol.pair_compatible,
            name="counting-twin",
        )
        return (twin,)

    return world, protocols, (line,)


@pytest.mark.parametrize("budget", [columnar.PROBE_BUDGET, 3])
@pytest.mark.parametrize(
    "case, args",
    [
        pytest.param(glued_case, (2, 16, 9, 4), id="2-16-9-4"),
        pytest.param(glued_case, (3, 14, 8, 2), id="3-14-8-2"),
        pytest.param(counting_case, (16, 20, 3), id="counting-line"),
    ],
)
def test_kernel_rows_match_oracle(case, args, budget, monkeypatch):
    # A tiny probe budget splits every collision probe into blocks.
    monkeypatch.setattr(columnar, "PROBE_BUDGET", budget)
    # Record every exact-table lookup (MemoProgram has its own).
    looked_up: list = []
    table_lookup = CompiledProgram.lookup

    def recording_lookup(self, *lhs):
        looked_up.append(lhs)
        return table_lookup(self, *lhs)

    monkeypatch.setattr(CompiledProgram, "lookup", recording_lookup)
    world, protocols, batches = case(*args)
    for nids in batches:
        asked: list = []
        for protocol in protocols(asked):
            looked_up.clear()
            rows, evaluated = kernel_rows(world, protocol, nids)
            if protocol.program.exact:
                # An exact table's rows are effective by construction.
                assert looked_up == []
            else:
                kernel_asked = set(asked)
                # Warm, the handler program's stored verdicts drop the
                # same rows without asking anything anew.
                assert kernel_rows(world, protocol, nids) == (rows, evaluated)
                assert set(asked) == kernel_asked
            # Each row once, also when both endpoints are in the batch.
            assert len(set(rows)) == len(rows)
            want = oracle_rows(world, protocol, nids)
            effective = set()
            for key, hi, lo in want.values():
                cand = columnar.candidate_from_row(key, hi, lo)
                if evaluate(protocol, world, cand) is not None:
                    effective.add((hi, lo))
            assert set(rows) == effective
            # Every permissible row is counted; every exact-table row is
            # effective, while a handler's all-port hints also evaluate
            # rows it then finds ineffective.
            assert evaluated == len(want)
            assert (len(effective) < len(want)) != protocol.program.exact
        # The handler was asked about each LHS with a permissible row, and
        # only those.
        lhs = set()
        for row in want.values():
            cand = columnar.candidate_from_row(*row)
            lhs.add(
                (
                    world.state_of(cand.nid1), cand.port1,
                    world.state_of(cand.nid2), cand.port2, cand.bond,
                )
            )
        assert lhs and kernel_asked == lhs
    # A singleton partner keeps every alignment of an open slot: R = 4
    # rotations of one (node, port, node, port) in 3D, one in 2D.
    per_pair = Counter(hi for _key, hi, _lo in want.values())
    assert max(per_pair.values()) == (4 if world.dimension == 3 else 1)


GLUED_WORLDS = [(2, 16, 9, 4), (3, 14, 8, 2)]


def glued_view(dimension, n, events, seed, handler):
    """A cache view of a glued world, refreshed through a hot scheduler's
    counting ``_evaluate``: ``(world, protocol, view, scheduler, cache,
    asked)``, ``asked`` recording the handler twin's dispatches."""
    world = glued_world(dimension, n, events, seed)
    asked: list = []
    protocol = (
        gluing_handler_protocol(dimension, asked)
        if handler
        else gluing_protocol(dimension)
    )
    scheduler = HotScheduler()
    cache = EffectiveCandidateCache()
    view = cache.refresh(world, protocol, scheduler._evaluate)
    return world, protocol, view, scheduler, cache, asked


@pytest.mark.parametrize("handler", [False, True])
@pytest.mark.parametrize("dimension, n, events, seed", GLUED_WORLDS)
def test_view_behaves_as_reference_list(dimension, n, events, seed, handler):
    world, protocol, view, _s, _c, _a = glued_view(
        dimension, n, events, seed, handler
    )
    want, _perm = reference_effective_candidates(world, protocol, evaluate)
    size = len(want)
    assert size > 4 and len(view) == size
    assert view and bool(view) is True
    assert view[-1] == want[-1] and view[-size] == want[0]
    cuts = (slice(1, 5), slice(None, None, -3), slice(5, 1), slice(-3, None))
    for cut in cuts:
        assert view[cut] == want[cut]
    for past in (size, -size - 1):
        with pytest.raises(IndexError):
            view[past]
    assert list(view) == want and [view[i] for i in range(size)] == want
    assert view == want and want == view
    assert view != want[:-1] and want[:-1] != view
    # A stabilized world hands out an empty, falsy view.
    lone = World.of_free_nodes(1, protocol, leaders=0)
    empty = EffectiveCandidateCache().refresh(lone, protocol, evaluate)
    assert not empty and len(empty) == 0 and list(empty) == [] and empty == []


@pytest.mark.parametrize("handler", [False, True])
@pytest.mark.parametrize("dimension, n, events, seed", GLUED_WORLDS)
def test_reading_view_never_evaluates(dimension, n, events, seed, handler):
    world, protocol, view, scheduler, cache, asked = glued_view(
        dimension, n, events, seed, handler
    )
    counted = (scheduler.evaluations, cache.evaluations)
    dispatched = len(asked)
    assert counted[0] == counted[1] > 0
    assert dispatched or not handler
    program = protocol.program
    nodes = world.nodes
    for _ in range(2):
        entries = list(view) + [view[i] for i in range(len(view))]
        for cand, update in entries:
            assert update is not None
            assert update is program.lookup(
                nodes[cand.nid1].sid,
                PORT_INDEX[cand.port1],
                nodes[cand.nid2].sid,
                PORT_INDEX[cand.port2],
                cand.bond,
            )
    assert (scheduler.evaluations, cache.evaluations) == counted
    assert len(asked) == dispatched
