"""Line self-replication: Protocol 4 and Protocol 5 of the paper (§6.2).

A line ``L, i, i, ..., i, e`` (leader left endpoint, internal ``i`` nodes,
right endpoint ``e``) attracts free ``q0`` nodes to the ports below it; the
attached nodes bond horizontally into a *replica* row, which is then
detached, restored to ``C, i, ..., i, e`` (``C`` the child's left-endpoint
state) and released into the solution. Protocol 4 drives detachment and
restoration with a leader walk; Protocol 5 needs no leader and detaches
per-node by degree counting.

Two *documented deviations* from the verbatim tables (both are benign
races the tables leave open):

1. **Protocol 4 restore placeholder.** The paper's restore walk temporarily
   sets the walked line's left endpoint to ``e'``
   (``(x^t, r), (i', l), 1 -> (e', x^t', 1)``). A free line whose left
   endpoint is ``e'`` can be docked by the rule ``(i', r), (e', l), 0`` of a
   *different* component's half-built replica, merging the two and
   deadlocking both. We use a fresh placeholder state ``f'`` instead of
   ``e'`` for the endpoint under restoration; ``f'`` has no bond-0 rules, so
   the dock is impossible, and it is converted to the final endpoint state
   by the last restore step exactly as ``e'`` would have been.

2. **Protocol 5 parent-side states.** The paper reuses ``i1``/``e1`` for
   both the parent node and the freshly attached replica node
   (``(i, d), (q0, u), 0 -> (i1, i1, 1)``). A parent endpoint in ``e1``
   exposes its outward port to the dock rule ``(e1, r), (i1, l), 0`` of a
   foreign half-built replica, again merging two components into a non-line.
   We give parent-side nodes the distinct states ``ip``/``ep`` ("parent
   busy"), which appear in no bond-0 rule; the detach rules restore them to
   ``i``/``e``.

Both deviations only remove unintended cross-component interactions; all
single-component executions are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.protocol import RuleProtocol
from repro.core.world import World
from repro.geometry.ports import Port
from repro.geometry.vec import Vec
from repro.protocols.dsl import RuleSpec, bonded, expand, unbonded, when

U, R, D, L = Port.UP, Port.RIGHT, Port.DOWN, Port.LEFT

#: Shared worker states of Protocol 4 (replica row assembly + walks).
CHAIN = tuple(f"L{j}s" for j in range(1, 8))


def _variant_specs(
    parent_left: str, parent_restored: str, child_left: str
) -> List[RuleSpec]:
    """Protocol 4 rules for one parent type.

    ``parent_left`` is the state of the parent line's left endpoint that
    triggers replication; after one replication the parent's left endpoint
    becomes ``parent_restored`` and the released child's becomes
    ``child_left``. The paper gives the table for ``(L, Lstart, Ls)`` and
    notes the seed/replica variants are "almost identical" — this generator
    produces them.
    """
    blocked = f"{parent_left}'"
    # Child restore walker states (tagged by the child type they produce).
    cts, ct1, ct2 = (f"T{child_left}", f"T'{child_left}", f"T''{child_left}")
    # Parent restore walker states (tagged by the parent's restored type).
    pts, pt1, pt2 = (f"P{parent_restored}", f"P'{parent_restored}", f"P''{parent_restored}")
    specs = [
        # Replication starts: the chain seed attaches below the left end.
        when(parent_left, D, "q0", U, unbonded) >> (blocked, "L1s", bonded),
        # Chain completion: detach the replica from the blocked parent and
        # start both restore walks.
        when("L7s", U, blocked, D, bonded) >> (cts, pts, unbonded),
    ]
    for walker, final in ((cts, child_left), (pts, parent_restored)):
        w1 = ct1 if walker == cts else pt1
        w2 = ct2 if walker == cts else pt2
        specs.extend(
            [
                # Left endpoint parked as the f' placeholder (deviation 1),
                # walker moves right over the still-primed nodes.
                when(walker, R, "i'", L, bonded) >> ("f'", w1, bonded),
                when(w1, R, "i'", L, bonded) >> ("i'", w1, bonded),
                # Right endpoint restored to e; walker turns around.
                when(w1, R, "e'", L, bonded) >> (w2, "e", bonded),
                # Left walk converts i' -> i strictly behind the walker, so
                # early attachments below freshly restored nodes (which
                # re-prime them) can never block the walk.
                when("i'", R, w2, L, bonded) >> (w2, "i", bonded),
                # Back at the placeholder: restore the final endpoint state.
                when("f'", R, w2, L, bonded) >> (final, "i", bonded),
            ]
        )
    return specs


def _shared_specs() -> List[RuleSpec]:
    """Protocol 4 rules independent of the parent type."""
    return [
        # Free q0 nodes attach below internal/endpoint nodes of a line.
        when("i", D, "q0", U, unbonded) >> ("i'", "i'", bonded),
        when("e", D, "q0", U, unbonded) >> ("e'", "e'", bonded),
        # Replica row bonds horizontally.
        when("i'", R, "i'", L, unbonded) >> ("i'", "i'", bonded),
        when("i'", R, "e'", L, unbonded) >> ("i'", "e'", bonded),
        # Chain walk: L1s hands off to L2s which walks right bonding as it
        # goes, until the replica's right endpoint becomes L3s.
        when("L1s", R, "i'", L, unbonded) >> ("e'", "L2s", bonded),
        when("L2s", R, "i'", L, unbonded) >> ("i'", "L2s", bonded),
        when("L2s", R, "i'", L, bonded) >> ("i'", "L2s", bonded),
        when("L2s", R, "e'", L, unbonded) >> ("i'", "L3s", bonded),
        when("L2s", R, "e'", L, bonded) >> ("i'", "L3s", bonded),
        # Detach walk: cut the vertical bonds right-to-left.
        when("L3s", U, "e'", D, bonded) >> ("L4s", "e'", unbonded),
        when("i'", R, "L4s", L, bonded) >> ("L5s", "e'", bonded),
        when("L5s", U, "i'", D, bonded) >> ("L6s", "i'", unbonded),
        when("i'", R, "L6s", L, bonded) >> ("L5s", "i'", bonded),
        when("e'", R, "L6s", L, bonded) >> ("L7s", "i'", bonded),
    ]


def line_replication_protocol() -> RuleProtocol:
    """Protocol 4 verbatim (single-shot): an ``L``-line replicates once.

    The original line ``L, i, ..., i, e`` produces a seed child
    ``Ls, i, ..., i, e`` and restores itself to ``Lstart, i, ..., i, e``
    (Figure 5). Lines must have length >= 3 (the paper's chain needs an
    internal node).
    """
    rules = expand(_shared_specs() + _variant_specs("L", "Lstart", "Ls"))
    return RuleProtocol(
        rules,
        initial_state="q0",
        leader_state="L",
        output_states={"L", "Lstart", "Ls", "i", "e"},
        name="line-replication-protocol-4",
    )


def self_replicating_lines_protocol() -> RuleProtocol:
    """The full §6.2 replication system: original -> seed -> replicas.

    The original ``L`` line replicates once into the seed ``Ls``; the seed
    keeps producing ``Lr`` replicas; ``Lr`` replicas are themselves totally
    self-replicating (their children also begin in ``Lr``), exactly as
    described for Square-Knowing-n.
    """
    rules = expand(
        _shared_specs()
        + _variant_specs("L", "Lstart", "Ls")
        + _variant_specs("Ls", "Ls", "Lr")
        + _variant_specs("Lr", "Lr", "Lr")
    )
    return RuleProtocol(
        rules,
        initial_state="q0",
        leader_state="L",
        output_states={"L", "Lstart", "Ls", "Lr", "i", "e"},
        name="self-replicating-lines",
    )


def no_leader_line_replication_protocol() -> RuleProtocol:
    """Protocol 5: leaderless line replication by degree counting.

    A line ``e, i, ..., i, e`` attracts free nodes below; replica nodes
    count their active connections in their state index and detach from the
    parent only when fully connected (degree 3 internally, 2 at the
    endpoints), which guarantees the replica detaches only at full length.
    Parent-side nodes use ``ip``/``ep`` while busy (deviation 2 above).
    """
    specs = [
        # Attachment below the parent (parent-side goes busy).
        when("i", D, "q0", U, unbonded) >> ("ip", "i1", bonded),
        when("e", D, "q0", U, unbonded) >> ("ep", "e1", bonded),
        # Replica-row bonding with degree counting.
        when("i1", R, "e1", L, unbonded) >> ("i2", "e2", bonded),
        when("i2", R, "e1", L, unbonded) >> ("i3", "e2", bonded),
        when("e1", R, "i1", L, unbonded) >> ("e2", "i2", bonded),
        when("e1", R, "i2", L, unbonded) >> ("e2", "i3", bonded),
        # Detachment: only fully connected replica nodes let go.
        when("i3", U, "ip", D, bonded) >> ("i", "i", unbonded),
        when("e2", U, "ep", D, bonded) >> ("e", "e", unbonded),
    ]
    for j in (1, 2):
        for k in (1, 2):
            specs.append(
                when(f"i{j}", R, f"i{k}", L, unbonded)
                >> (f"i{j + 1}", f"i{k + 1}", bonded)
            )
    return RuleProtocol(
        expand(specs),
        initial_state="q0",
        output_states={"i", "e"},
        name="no-leader-line-replication-protocol-5",
    )


# ----------------------------------------------------------------------
# World helpers for replication experiments
# ----------------------------------------------------------------------


def add_line(
    world: World,
    length: int,
    left_state: str,
    internal_state: str = "i",
    right_state: str = "e",
    origin: Vec = Vec(0, 0),
) -> Dict[Vec, int]:
    """Add a horizontal bonded line component to a world."""
    states: Dict[Vec, object] = {}
    for k in range(length):
        cell = origin + Vec(k, 0)
        if k == 0:
            states[cell] = left_state
        elif k == length - 1:
            states[cell] = right_state
        else:
            states[cell] = internal_state
    return world.add_component_from_cells(states)


def replication_world(
    length: int,
    free_nodes: Optional[int] = None,
    leader_left: str = "L",
    right_state: str = "e",
) -> World:
    """A world with one parent line plus free ``q0`` nodes.

    ``free_nodes`` defaults to exactly one replica's worth (``length``).
    """
    world = World(dimension=2)
    add_line(world, length, leader_left, right_state=right_state)
    count = length if free_nodes is None else free_nodes
    for _ in range(count):
        world.add_free_node("q0")
    return world


def extract_lines(world: World) -> List[Tuple[str, int]]:
    """Summarize the line components of a world as (left-state, length).

    Only components that are straight horizontal-or-vertical lines are
    reported; singletons are skipped.
    """
    lines: List[Tuple[str, int]] = []
    for comp in world.components.values():
        if comp.size() < 2:
            continue
        shape = world.component_shape(comp.cid)
        if not shape.is_line():
            continue
        cells = sorted(comp.cells)
        first = comp.cells[cells[0]]
        lines.append((str(world.state_of(first)), comp.size()))
    return lines
