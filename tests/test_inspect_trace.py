"""Tests for protocol introspection (core.inspect), in-memory traces
(repro.trace) and world snapshots (core.trace)."""

import json

import pytest

from repro.core.inspect import (
    assert_well_formed,
    format_protocol,
    format_rule,
    lint_protocol,
    reachable_states,
    state_graph,
)
from repro.core.protocol import Rule, RuleProtocol
from repro.core.simulator import Simulation
from repro.core.trace import world_from_dict, world_to_dict
from repro.core.world import Candidate, World
from repro.errors import ProtocolError, SimulationError, TraceError
from repro.geometry.ports import Port
from repro.geometry.vec import Vec
from repro.protocols.line import simple_line_protocol, spanning_line_protocol
from repro.protocols.replication import (
    line_replication_protocol,
    no_leader_line_replication_protocol,
    self_replicating_lines_protocol,
)
from repro.protocols.square import square_protocol
from repro.protocols.square2 import square2_protocol
from repro.trace import (
    TraceCursor,
    TraceReader,
    TraceWriter,
    recording,
    replay_trace,
)
from repro.trace.encoding import event_record, update_from_record


# ----------------------------------------------------------------------
# core.inspect
# ----------------------------------------------------------------------


class TestFormatting:
    def test_format_rule_matches_paper_notation(self):
        rule = Rule("Lu", Port.UP, "q0", Port.DOWN, 0, "q1", "Lr", 1)
        assert format_rule(rule) == "(Lu, u), (q0, d), 0 -> (q1, Lr, 1)"

    def test_format_protocol_header(self):
        text = format_protocol(square_protocol())
        assert text.startswith("Protocol ")
        assert "|Q| = 6" in text
        assert "8 effective rules" in text
        assert text.count("->") == 8


class TestReachability:
    def test_line_protocol_all_states_reachable(self):
        protocol = spanning_line_protocol()
        reached = reachable_states(protocol)
        assert protocol.states == reached

    def test_isolated_rule_states_unreachable(self):
        rules = [
            Rule("L", Port.RIGHT, "q0", Port.LEFT, 0, "q1", "L", 1),
            # ghost never arises from {q0, L}:
            Rule("ghost", Port.RIGHT, "q0", Port.LEFT, 0, "q1", "ghost", 1),
        ]
        protocol = RuleProtocol(rules, initial_state="q0", leader_state="L")
        reached = reachable_states(protocol)
        assert "ghost" not in reached

    def test_state_graph_of_protocol1_has_leader_cycle(self):
        graph = state_graph(square_protocol())
        # The leader cycles Lu -> Lr -> Ld -> Ll -> Lu through the corner
        # rules; follow one full lap.
        assert "Lr" in graph["Lu"] or "Ll" in graph["Lu"]


class TestLint:
    @pytest.mark.parametrize(
        "factory",
        [
            spanning_line_protocol,
            simple_line_protocol,
            square_protocol,
            square2_protocol,
        ],
        ids=lambda f: f.__name__,
    )
    def test_paper_tables_are_well_formed(self, factory):
        assert_well_formed(factory())

    @pytest.mark.parametrize(
        "factory",
        [line_replication_protocol, self_replicating_lines_protocol],
        ids=lambda f: f.__name__,
    )
    def test_replication_tables_well_formed_given_seeded_line(self, factory):
        # Protocols 4/5 operate on a pre-built parent line: seed the
        # reachability closure with its internal/endpoint states.
        assert_well_formed(factory(), extra_initial=("i", "e"))

    def test_protocol5_clean_given_seeded_line(self):
        # Protocol 5 has no leader; its lines are seeded externally. Bare
        # lint flags the parent-line states; seeding them cleans it up.
        protocol = no_leader_line_replication_protocol()
        bare = lint_protocol(protocol)
        assert set(bare.unreachable_states) >= {"e", "i"}
        seeded = lint_protocol(protocol, extra_initial=("i", "e"))
        assert seeded.clean

    def test_dead_rule_detected(self):
        rules = [
            Rule("L", Port.RIGHT, "q0", Port.LEFT, 0, "q1", "L", 1),
            Rule("never", Port.RIGHT, "also-never", Port.LEFT, 0, "x", "y", 1),
        ]
        protocol = RuleProtocol(rules, initial_state="q0", leader_state="L")
        report = lint_protocol(protocol)
        assert len(report.dead_rules) == 1
        assert not report.clean
        with pytest.raises(ProtocolError):
            assert_well_formed(protocol)

    def test_monotone_bonding_note(self):
        report = lint_protocol(spanning_line_protocol())
        assert any("monotone" in note for note in report.notes)
        assert report.bond_forming_rules == 16
        assert report.bond_breaking_rules == 0


# ----------------------------------------------------------------------
# traces and snapshots
# ----------------------------------------------------------------------


def fresh_line_world(n: int):
    protocol = spanning_line_protocol()
    return World.of_free_nodes(n, protocol, leaders=1), protocol


def record_line_run(n: int, seed: int):
    """Record a spanning-line run in memory: (final world, trace records)."""
    world, protocol = fresh_line_world(n)
    records = []
    writer = TraceWriter(None, sink=records.append)
    with recording(writer):
        Simulation(world, protocol, seed=seed).run()
    writer.finalize()
    return world, records


def first_event(records):
    return next(r for r in records if r["kind"] == "event")


class TestTraceRecordReplay:
    def test_trace_length_equals_events(self):
        _world, records = record_line_run(7, seed=3)
        events = [r for r in records if r["kind"] == "event"]
        assert len(events) == 6  # n - 1 effective interactions

    def test_replay_reproduces_final_configuration(self):
        world, records = record_line_run(8, seed=5)
        res = replay_trace(TraceReader.from_records(records), verify=True)
        res.world.check_invariants()
        assert world_to_dict(res.world) == world_to_dict(world)

    def test_trace_is_json_serializable(self):
        _world, records = record_line_run(5, seed=1)
        text = json.dumps(records)
        res = replay_trace(TraceReader.from_records(json.loads(text)))
        assert len(res.world.components) == 1

    def test_replay_detects_divergence(self):
        _world, records = record_line_run(6, seed=2)
        # Corrupt the trace: replay the first event twice — the second
        # application sees a bond that already exists.
        cursor = TraceCursor()
        cursor.feed(records[0])
        cursor.feed(first_event(records))
        with pytest.raises(TraceError, match="bond state diverged"):
            cursor.feed(first_event(records))

    def test_replay_rejects_unknown_nodes(self):
        _world, records = record_line_run(4, seed=0)
        cursor = TraceCursor()
        cursor.feed(records[0])
        with pytest.raises(TraceError, match="unknown node ids"):
            cursor.feed(dict(first_event(records), nid1=999))

    def test_tuple_states_round_trip(self):
        cand = Candidate(0, Port.RIGHT, 1, Port.LEFT, 0)
        record = event_record(1, cand, (("L", Port.UP), ("dist", 3), 1))
        new1, new2, _bond = update_from_record(json.loads(json.dumps(record)))
        assert new1 == ("L", Port.UP)
        assert new2 == ("dist", 3)


class TestWorldSnapshots:
    def test_snapshot_round_trip_free_nodes(self):
        world = World(2)
        world.add_free_node("a")
        world.add_free_node("b")
        data = world_to_dict(world)
        back = world_from_dict(data)
        assert back.states() == world.states()
        assert len(back.components) == 2

    def test_snapshot_round_trip_after_run(self):
        world, protocol = fresh_line_world(9)
        Simulation(world, protocol, seed=7).run_to_stabilization()
        data = world_to_dict(world)
        back = world_from_dict(data)
        back.check_invariants()
        assert world_to_dict(back) == data
        # The restored world keeps simulating correctly.
        more = Simulation(back, protocol, seed=8).run_to_stabilization()
        assert more.events == 0  # it was already stable

    def test_snapshot_json_round_trip(self):
        world, protocol = fresh_line_world(6)
        Simulation(world, protocol, seed=4).run_to_stabilization()
        text = json.dumps(world_to_dict(world))
        back = world_from_dict(json.loads(text))
        assert back.component_shape(
            next(iter(back.components))
        ).is_line()

    def test_snapshot_rejects_overlapping_nodes(self):
        world = World(2)
        world.add_free_node("a")
        data = world_to_dict(world)
        data["nodes"].append(dict(data["nodes"][0], nid=99))
        with pytest.raises(SimulationError):
            world_from_dict(data)

    def test_snapshot_preserves_orientations(self):
        # Build a world where a merge rotated a component, then round-trip.
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(5, protocol, leaders=1)
        Simulation(world, protocol, seed=11).run_to_stabilization()
        data = world_to_dict(world)
        back = world_from_dict(data)
        for nid, rec in world.nodes.items():
            assert back.nodes[nid].orientation == rec.orientation
            assert back.nodes[nid].pos == rec.pos
