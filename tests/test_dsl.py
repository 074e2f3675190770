"""The rule DSL: expansions equal the hand-written tables, dispatch is
bit-identical whether a delta is an exact table or a lowered handler.

The legacy builders below are the seed's hand-written nested loops,
copied verbatim — the DSL-expanded protocol modules must reproduce their
rule tables rule for rule (Protocols 1, 2, 4 and 5 plus the §4.1
spanning line), and the leaderless-line ordered table must agree with
the original handler on every interaction of its state/port universe.
"""

import pytest

from repro.core.protocol import AgentProtocol, InteractionView, Rule, RuleProtocol
from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.trace import world_to_dict
from repro.core.world import World
from repro.errors import ProtocolError
from repro.geometry.ports import PORTS_2D, Port, opposite, ports_for_dimension
from repro.protocols import dsl
from repro.protocols.dsl import (
    I,
    J,
    bonded,
    expand,
    fmt,
    lift,
    opp,
    pfn,
    unbonded,
    when,
)
from repro.protocols.leaderless_line import (
    _handler,
    leaderless_spanning_line_protocol,
)
from repro.protocols.line import leader_state, spanning_line_protocol
from repro.protocols.replication import (
    line_replication_protocol,
    no_leader_line_replication_protocol,
    self_replicating_lines_protocol,
)
from repro.protocols.square import square_protocol
from repro.protocols.square2 import square2_protocol
from repro.trace.encoding import event_record

U, R, D, L = Port.UP, Port.RIGHT, Port.DOWN, Port.LEFT


def table(rules):
    """A rule list as a comparable set of LHS/RHS tuples."""
    return {(r.lhs, r.rhs) for r in rules}


# ----------------------------------------------------------------------
# Legacy hand-written builders (the seed's loops, verbatim)
# ----------------------------------------------------------------------


def legacy_spanning_line_rules(dimension=2):
    ports = ports_for_dimension(dimension)
    rules = []
    for i in ports:
        for j in ports:
            rules.append(
                Rule(leader_state(i), i, "q0", j, 0,
                     "q1", leader_state(opposite(j)), 1)
            )
    return rules


def legacy_square_rules():
    return [
        Rule("Lu", U, "q0", D, 0, "q1", "Lr", 1),
        Rule("Lr", R, "q0", L, 0, "q1", "Ld", 1),
        Rule("Ld", D, "q0", U, 0, "q1", "Ll", 1),
        Rule("Ll", L, "q0", R, 0, "q1", "Lu", 1),
        Rule("Lu", U, "q1", D, 0, "Ll", "q1", 1),
        Rule("Lr", R, "q1", L, 0, "Lu", "q1", 1),
        Rule("Ld", D, "q1", U, 0, "Lr", "q1", 1),
        Rule("Ll", L, "q1", R, 0, "Ld", "q1", 1),
    ]


def legacy_square2_rules():
    rules = [
        Rule("L2d", D, "q0", U, 0, "L1u", "q1", 1),
        Rule("L2l", L, "q0", R, 0, "L1r", "q1", 1),
        Rule("L2u", U, "q0", D, 0, "L1d", "q1", 1),
        Rule("L2r", R, "q0", L, 0, "Lend", "q1", 1),
        Rule("L1u", U, "q0", D, 0, "q1", "L2l", 1),
        Rule("L1r", R, "q0", L, 0, "q1", "L2u", 1),
        Rule("L1d", D, "q0", U, 0, "q1", "L2r", 1),
        Rule("Lend", D, "q0", U, 0, "q1", "Ll", 1),
        Rule("Ll", L, "q0", R, 0, "q1", "Ll", 1),
        Rule("Lu", U, "q0", D, 0, "q1", "Lu", 1),
        Rule("Lr", R, "q0", L, 0, "q1", "Lr", 1),
        Rule("Ld", D, "q0", U, 0, "q1", "Ld", 1),
        Rule("Ll", L, "q1", R, 0, "q1", "L3l", 1),
        Rule("Lu", U, "q1", D, 0, "q1", "L3u", 1),
        Rule("Lr", R, "q1", L, 0, "q1", "L3r", 1),
        Rule("Ld", D, "q1", U, 0, "q1", "L3d", 1),
        Rule("L3l", L, "q0", R, 0, "q1", "L4d", 1),
        Rule("L3u", U, "q0", D, 0, "q1", "L4l", 1),
        Rule("L3r", R, "q0", L, 0, "q1", "L4u", 1),
        Rule("L3d", D, "q0", U, 0, "q1", "L4r", 1),
        Rule("L4d", D, "q0", U, 0, "Lu", "q1", 1),
        Rule("L4l", L, "q0", R, 0, "Lr", "q1", 1),
        Rule("L4u", U, "q0", D, 0, "Ld", "q1", 1),
        Rule("L4r", R, "q0", L, 0, "Lend", "q1", 1),
        Rule("Lu", R, "q1", L, 0, "Lu", "q1", 1),
        Rule("Lr", D, "q1", U, 0, "Lr", "q1", 1),
        Rule("Ld", L, "q1", R, 0, "Ld", "q1", 1),
        Rule("Ll", U, "q1", D, 0, "Ll", "q1", 1),
    ]
    for i in PORTS_2D:
        rules.append(Rule("q1", i, "q1", opposite(i), 0, "q1", "q1", 1))
    return rules


def legacy_variant_rules(parent_left, parent_restored, child_left):
    blocked = f"{parent_left}'"
    cts, ct1, ct2 = (f"T{child_left}", f"T'{child_left}", f"T''{child_left}")
    pts, pt1, pt2 = (
        f"P{parent_restored}", f"P'{parent_restored}", f"P''{parent_restored}"
    )
    rules = [
        Rule(parent_left, D, "q0", U, 0, blocked, "L1s", 1),
        Rule("L7s", U, blocked, D, 1, cts, pts, 0),
    ]
    for walker, final in ((cts, child_left), (pts, parent_restored)):
        w1 = ct1 if walker == cts else pt1
        w2 = ct2 if walker == cts else pt2
        rules.extend(
            [
                Rule(walker, R, "i'", L, 1, "f'", w1, 1),
                Rule(w1, R, "i'", L, 1, "i'", w1, 1),
                Rule(w1, R, "e'", L, 1, w2, "e", 1),
                Rule("i'", R, w2, L, 1, w2, "i", 1),
                Rule("f'", R, w2, L, 1, final, "i", 1),
            ]
        )
    return rules


def legacy_shared_rules():
    return [
        Rule("i", D, "q0", U, 0, "i'", "i'", 1),
        Rule("e", D, "q0", U, 0, "e'", "e'", 1),
        Rule("i'", R, "i'", L, 0, "i'", "i'", 1),
        Rule("i'", R, "e'", L, 0, "i'", "e'", 1),
        Rule("L1s", R, "i'", L, 0, "e'", "L2s", 1),
        Rule("L2s", R, "i'", L, 0, "i'", "L2s", 1),
        Rule("L2s", R, "i'", L, 1, "i'", "L2s", 1),
        Rule("L2s", R, "e'", L, 0, "i'", "L3s", 1),
        Rule("L2s", R, "e'", L, 1, "i'", "L3s", 1),
        Rule("L3s", U, "e'", D, 1, "L4s", "e'", 0),
        Rule("i'", R, "L4s", L, 1, "L5s", "e'", 1),
        Rule("L5s", U, "i'", D, 1, "L6s", "i'", 0),
        Rule("i'", R, "L6s", L, 1, "L5s", "i'", 1),
        Rule("e'", R, "L6s", L, 1, "L7s", "i'", 1),
    ]


def legacy_protocol5_rules():
    rules = [
        Rule("i", D, "q0", U, 0, "ip", "i1", 1),
        Rule("e", D, "q0", U, 0, "ep", "e1", 1),
        Rule("i1", R, "e1", L, 0, "i2", "e2", 1),
        Rule("i2", R, "e1", L, 0, "i3", "e2", 1),
        Rule("e1", R, "i1", L, 0, "e2", "i2", 1),
        Rule("e1", R, "i2", L, 0, "e2", "i3", 1),
        Rule("i3", U, "ip", D, 1, "i", "i", 0),
        Rule("e2", U, "ep", D, 1, "e", "e", 0),
    ]
    for j in (1, 2):
        for k in (1, 2):
            rules.append(
                Rule(f"i{j}", R, f"i{k}", L, 0, f"i{j + 1}", f"i{k + 1}", 1)
            )
    return rules


# ----------------------------------------------------------------------
# DSL expansions == the hand-written tables
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [2, 3])
def test_spanning_line_expansion_matches_legacy(dimension):
    assert table(spanning_line_protocol(dimension).rules) == table(
        legacy_spanning_line_rules(dimension)
    )


def test_protocol1_square_expansion_matches_legacy():
    assert table(square_protocol().rules) == table(legacy_square_rules())


def test_protocol2_square2_expansion_matches_legacy():
    assert table(square2_protocol().rules) == table(legacy_square2_rules())


def test_protocol4_expansions_match_legacy():
    assert table(line_replication_protocol().rules) == table(
        legacy_shared_rules() + legacy_variant_rules("L", "Lstart", "Ls")
    )
    assert table(self_replicating_lines_protocol().rules) == table(
        legacy_shared_rules()
        + legacy_variant_rules("L", "Lstart", "Ls")
        + legacy_variant_rules("Ls", "Ls", "Lr")
        + legacy_variant_rules("Lr", "Lr", "Lr")
    )


def test_protocol5_expansion_matches_legacy():
    assert table(no_leader_line_replication_protocol().rules) == table(
        legacy_protocol5_rules()
    )


# ----------------------------------------------------------------------
# Leaderless line: ordered table == handler, over the full universe
# ----------------------------------------------------------------------


def test_leaderless_table_agrees_with_handler_everywhere():
    protocol = leaderless_spanning_line_protocol()
    states = ["q0", "q1", "L0"]
    states += [("L", p) for p in PORTS_2D] + [("Dl", p) for p in PORTS_2D]
    for s1 in states:
        for s2 in states:
            for p1 in PORTS_2D:
                for p2 in PORTS_2D:
                    for bond in (0, 1):
                        view = InteractionView(s1, p1, s2, p2, bond)
                        assert protocol.handle(view) == _handler(view), view


# ----------------------------------------------------------------------
# Exact table vs. handler-lowered dispatch: bit-identical trajectories
# ----------------------------------------------------------------------


def _traced_run(protocol, n, leaders, kind, seed, max_events=400):
    world = World.of_free_nodes(n, protocol, leaders=leaders)
    events = []
    sim = Simulation(
        world, protocol, scheduler=make_scheduler(kind), seed=seed,
        trace=lambda i, c, u, _w: events.append(event_record(i, c, u)),
    )
    res = sim.run(max_events=max_events)
    return events, world_to_dict(world), res.events, res.raw_steps


@pytest.mark.parametrize("kind", ["hot", "enumerate", "rejection", "round-robin"])
def test_compiled_and_uncompiled_dispatch_are_bit_identical(kind):
    # The same delta twice: compiled into an exact rule table, and as a
    # handler lowered lazily through MemoProgram with the default all-hot,
    # all-ports hints.
    table = spanning_line_protocol()
    handler = AgentProtocol(
        table.handle,
        initial_state=table.initial_state,
        leader_state=table.leader_state,
    )
    assert table.program.exact and not handler.program.exact
    from_table = _traced_run(table, 9, 1, kind, seed=5)
    from_handler = _traced_run(handler, 9, 1, kind, seed=5)
    assert from_table == from_handler


@pytest.mark.parametrize("kind", ["hot", "enumerate", "rejection", "round-robin"])
def test_leaderless_table_and_handler_trajectories_identical(kind):
    from repro.protocols.leaderless_line import (
        leaderless_spanning_line_handler_protocol,
    )

    a = _traced_run(leaderless_spanning_line_protocol(), 7, 0, kind, seed=21)
    b = _traced_run(
        leaderless_spanning_line_handler_protocol(), 7, 0, kind, seed=21
    )
    assert a == b


# ----------------------------------------------------------------------
# DSL mechanics
# ----------------------------------------------------------------------


def test_wildcard_and_derived_terms():
    spec = when(fmt("A{}", I), I, "b", J, unbonded) >> (
        "c", fmt("B{}", opp(J)), bonded
    )
    rules = expand([spec])
    assert len(rules) == 16
    assert Rule("Au", U, "b", L, 0, "c", "Br", 1) in rules


def test_where_guard_restricts_assignments():
    spec = (
        when(fmt("A{}", I), I, "b", J, unbonded) >> ("c", "d", bonded)
    ).where(lambda b: b["j"] == opposite(b["i"]))
    rules = expand([spec])
    assert len(rules) == 4
    assert all(r.port2 == opposite(r.port1) for r in rules)


def test_identity_expansions_are_dropped():
    # For i == j the expansion is an identity transition: dropped at
    # expansion time, never listed, never re-checked at dispatch.
    spec = when("a", I, "a", J, unbonded) >> ("a", "a", unbonded)
    assert expand([spec]) == ()


def test_symmetric_closure_emits_both_orientations():
    spec = (when("a", R, "b", L, unbonded) >> ("x", "y", bonded)).symmetric()
    rules = expand([spec])
    assert table(rules) == {
        ((("a", R), ("b", L), 0), ("x", "y", 1)),
        ((("b", L), ("a", R), 0), ("y", "x", 1)),
    }


def test_pfn_composes_with_opp():
    cw = {U: R, R: D, D: L, L: U}
    spec = when("a", pfn(cw.get, I), "b", opp(pfn(cw.get, I)), unbonded) >> (
        "x", "y", bonded
    )
    rules = expand([spec])
    assert Rule("a", R, "b", L, 0, "x", "y", 1) in rules  # i = u: cw -> r
    assert len(rules) == 4


def test_dsl_rejects_malformed_specs():
    with pytest.raises(ProtocolError):
        when(I, R, "b", L, unbonded)  # port term in a state position
    with pytest.raises(ProtocolError):
        when("a", R, "b", L, 2)  # bad bond
    with pytest.raises(ProtocolError):
        when("a", R, "b", L, unbonded) >> ("x", "y")  # malformed RHS
    with pytest.raises(ProtocolError):
        expand([when("a", R, "b", L, unbonded)])  # missing >> rhs


def test_dsl_protocol_builder():
    p = dsl.protocol(
        [when("L", R, "q0", L, unbonded) >> ("q1", "L", bonded)],
        name="tiny",
        leader_state="L",
        hot_states=("L",),
    )
    assert isinstance(p, RuleProtocol)
    assert p.handle(InteractionView("L", R, "q0", L, 0)) == ("q1", "L", 1)


def test_conflicting_expansions_rejected_with_both_rules_named():
    specs = [
        when("a", I, "b", opp(I), unbonded) >> ("x", "y", bonded),
        when("a", U, "b", D, unbonded) >> ("x", "z", bonded),
    ]
    with pytest.raises(ProtocolError) as err:
        dsl.protocol(specs)
    assert "vs" in str(err.value)
