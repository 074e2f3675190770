"""The compiled protocol IR: interning, packed dispatch, static indexes."""

import pytest

from repro.core.program import (
    MAX_STATES,
    MemoProgram,
    StateSpace,
    compile_rules,
    pack_fire,
    pack_lhs,
    unpack_lhs,
)
from repro.core.protocol import (
    AgentProtocol,
    InteractionView,
    Rule,
    RuleProtocol,
)
from repro.core.world import World
from repro.errors import ProtocolError
from repro.geometry.ports import PORT_INDEX, PORTS_2D, Port, opposite
from repro.geometry.vec import Vec
from repro.protocols.line import spanning_line_protocol
from repro.protocols.replication import no_leader_line_replication_protocol
from repro.protocols.square2 import square2_protocol

U, R, D, L = Port.UP, Port.RIGHT, Port.DOWN, Port.LEFT


# ----------------------------------------------------------------------
# StateSpace
# ----------------------------------------------------------------------


def test_state_space_interns_densely():
    space = StateSpace()
    ids = [space.intern(s) for s in ("a", "b", "a", ("t", 1), "b")]
    assert ids == [0, 1, 0, 2, 1]
    assert space.decode(2) == ("t", 1)
    assert space.get_id("c") is None
    assert len(space) == 3 and "a" in space and "c" not in space


def test_interning_order_is_canonical_not_construction_order():
    rules = [
        Rule("b", R, "a", L, 0, "x", "y", 1),
        Rule("a", R, "b", L, 0, "y", "x", 1),
    ]
    p1 = RuleProtocol(rules, initial_state="a")
    p2 = RuleProtocol(list(reversed(rules)), initial_state="a")
    assert p1.program.space.states == p2.program.space.states


# ----------------------------------------------------------------------
# Key packing
# ----------------------------------------------------------------------


def test_pack_lhs_roundtrip():
    import random

    rng = random.Random(0)
    for _ in range(500):
        s1, s2 = rng.randrange(MAX_STATES), rng.randrange(MAX_STATES)
        p1, p2 = rng.randrange(6), rng.randrange(6)
        bond = rng.randrange(2)
        assert unpack_lhs(pack_lhs(s1, p1, s2, p2, bond)) == (s1, p1, s2, p2, bond)


def test_pack_lhs_injective_on_distinct_lhs():
    keys = set()
    for s1 in range(4):
        for s2 in range(4):
            for p1 in range(4):
                for p2 in range(4):
                    for bond in (0, 1):
                        keys.add(pack_lhs(s1, p1, s2, p2, bond))
    assert len(keys) == 4 * 4 * 4 * 4 * 2


# ----------------------------------------------------------------------
# Table build: conflicts, ineffective rules
# ----------------------------------------------------------------------


def test_conflicting_rules_error_names_both_rules():
    r1 = Rule("a", R, "b", L, 0, "x", "y", 1)
    r2 = Rule("a", R, "b", L, 0, "x", "z", 1)
    with pytest.raises(ProtocolError) as err:
        RuleProtocol([r1, r2])
    assert repr(r1) in str(err.value) and repr(r2) in str(err.value)


def test_swap_conflict_error_names_both_rules():
    r1 = Rule("a", R, "b", L, 0, "x", "y", 1)
    r2 = Rule("b", L, "a", R, 0, "x", "y", 1)  # should be (y, x, 1)
    with pytest.raises(ProtocolError) as err:
        RuleProtocol([r1, r2])
    assert repr(r1) in str(err.value) and repr(r2) in str(err.value)


def test_drop_ineffective_filters_instead_of_raising():
    rules = [
        Rule("a", R, "b", L, 0, "a", "b", 0),  # identity: dropped
        Rule("a", R, "b", L, 0, "a", "b", 1),
    ]
    with pytest.raises(ProtocolError):
        RuleProtocol(rules)
    p = RuleProtocol(rules, drop_ineffective=True)
    assert len(p.rules) == 1
    assert p.program.rule_count == 1


def test_ordered_mode_gives_presented_orientation_precedence():
    # An election between identical states, over every orientation: no
    # unordered table can hold it (the two presented orientations are
    # swaps of each other with non-mirrored results); ordered matching
    # resolves by presentation (initiator wins).
    rules = [
        Rule("c", R, "c", L, 0, "w", "l", 1),
        Rule("c", L, "c", R, 0, "w", "l", 1),
    ]
    with pytest.raises(ProtocolError):
        RuleProtocol(rules)  # ambiguous under swapping
    p = RuleProtocol(rules, match="ordered", initial_state="c")
    assert p.handle(InteractionView("c", R, "c", L, 0)) == ("w", "l", 1)
    # Presented precedence: the other orientation is also initiator-wins,
    # not the mirror of the first rule.
    assert p.handle(InteractionView("c", L, "c", R, 0)) == ("w", "l", 1)


# ----------------------------------------------------------------------
# Static indexes
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [spanning_line_protocol, square2_protocol, no_leader_line_replication_protocol],
)
def test_static_effectiveness_index_matches_table(factory):
    """can_fire is exactly 'some table orientation has this endpoint'."""
    protocol = factory()
    program = protocol.program
    space = program.space
    endpoints = set()
    for key in program.table.keys():
        s1, p1, s2, p2, bond = unpack_lhs(key)
        endpoints.add((s1, p1, bond))
        endpoints.add((s2, p2, bond))
    for sid in range(len(space)):
        for p in range(6):
            for bond in (0, 1):
                assert program.can_fire(sid, p, bond) == (
                    (sid, p, bond) in endpoints
                )


def test_static_pruning_is_conservative_wrt_dispatch():
    """A candidate with a statically dead endpoint never dispatches."""
    protocol = spanning_line_protocol()
    program = protocol.program
    n = len(program.space)
    for s1 in range(n):
        for s2 in range(n):
            for p1 in range(4):
                for p2 in range(4):
                    for bond in (0, 1):
                        update = program.lookup(s1, p1, s2, p2, bond)
                        if update is not None:
                            assert program.can_fire(s1, p1, bond)
                            assert program.can_fire(s2, p2, bond)
                            assert program.pair_can_fire(s1, s2)


def test_hot_bitmask_matches_protocol_hint():
    protocol = square2_protocol()
    program = protocol.program
    for sid, state in enumerate(program.space.states):
        assert program.is_hot_id(sid) == protocol.is_hot(state)


def test_oriented_hints_cover_exactly_bond0_orientations():
    protocol = spanning_line_protocol()
    program = protocol.program
    space = program.space
    lr = space.get_id("Lr")
    q0 = space.get_id("q0")
    hints = program.oriented_hints(lr, q0)
    # Lr expands only via its r port, bonding any port of the free node.
    assert hints == tuple((PORT_INDEX[R], PORT_INDEX[j]) for j in PORTS_2D)
    assert program.oriented_hints(q0, q0) == ()


# ----------------------------------------------------------------------
# MemoProgram: the handler escape hatch
# ----------------------------------------------------------------------


def test_memo_program_lowers_and_caches_handler_transitions():
    calls = []

    def handler(view):
        calls.append(view)
        if view.state1 == "L" and view.state2 == "q0":
            return ("q1", "L", 1)
        if view.state1 == "x":
            return (view.state1, view.state2, view.bond)  # identity
        return None

    protocol = AgentProtocol(handler)
    program = protocol.program
    assert isinstance(program, MemoProgram) and not program.exact
    space = program.space
    ids = [space.intern(s) for s in ("L", "q0", "x")]
    r, l = PORT_INDEX[R], PORT_INDEX[L]
    assert program.lookup(ids[0], r, ids[1], l, 0) == ("q1", "L", 1)
    assert program.lookup(ids[0], r, ids[1], l, 0) == ("q1", "L", 1)
    assert len(calls) == 1  # memoized: the handler ran once for this LHS
    # Identity updates are normalized to ineffective once, at lowering.
    assert program.lookup(ids[2], r, ids[1], l, 0) is None
    assert program.lookup(ids[2], r, ids[1], l, 0) is None
    assert len(calls) == 2
    assert program.rule_count == 1


def test_memo_pair_gate_answers_the_unordered_pair():
    # The batch kernel places a pair whose endpoints are both dirty from
    # one side only, so the gate must not depend on which endpoint asks:
    # an asymmetric ``compatible`` is asked once per unordered pair,
    # smaller state id first, as the exact program orders the pair.
    asked = []

    def compatible(state1, state2):
        asked.append((state1, state2))
        return (state1, state2) == ("a", "b")

    program = AgentProtocol(lambda view: None, compatible=compatible).program
    a, b = (program.space.intern(s) for s in ("a", "b"))
    assert program.pair_can_fire(b, a) is program.pair_can_fire(a, b) is True
    assert asked == [("a", "b")]


# ----------------------------------------------------------------------
# World interning
# ----------------------------------------------------------------------


def test_world_interns_states_and_converts_at_edges():
    w = World(dimension=2)
    a = w.add_free_node("x")
    b = w.add_free_node(("t", 3))
    assert isinstance(w.nodes[a].sid, int)
    assert w.state_of(a) == "x" and w.state_of(b) == ("t", 3)
    assert w.states() == {a: "x", b: ("t", 3)}
    assert w.by_state == {"x": {a}, ("t", 3): {b}}
    assert w.nodes_in_state("x") == {a}
    assert w.nodes_in_state("unseen") == set()
    w.set_state(a, ("t", 3))
    assert w.by_state == {("t", 3): {a, b}}
    assert w.sid_of(a) == w.sid_of(b)


def test_of_free_nodes_adopts_the_program_space():
    protocol = spanning_line_protocol()
    w = World.of_free_nodes(4, protocol, leaders=1)
    assert w.space is protocol.program.space
    assert w.state_of(0) == "Lr"


def test_adopt_space_rekeys_without_changing_public_states():
    w = World(dimension=2)
    w.add_component_from_cells({Vec(0, 0): "a", Vec(1, 0): "b"})
    w.add_free_node("c")
    before_states = w.states()
    before_by_state = w.by_state
    target = StateSpace(["z", "b"])  # different ids for overlapping states
    w.adopt_space(target)
    assert w.space is target
    assert w.states() == before_states
    assert w.by_state == before_by_state
    assert w.sid_of(1) == 1  # "b" keeps the target space's id
    # Idempotent.
    w.adopt_space(target)
    assert w.states() == before_states
