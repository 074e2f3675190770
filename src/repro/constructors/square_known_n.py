"""Square-Knowing-n (§6.2, Lemma 2): assemble the ``sqrt(n) x sqrt(n)`` square.

The leader, knowing ``n`` (from Counting-on-a-Line), expands its line to
length ``sqrt(n)``, spawns the *seed* replica, and then waits at the square
segment while the seed (and the seed's ``Lr`` children, which are totally
self-replicating) keep producing lines of length ``sqrt(n)``. Each free
replica is accepted below the segment's lowest row; nodes of the replica's
own incomplete replication are released back into the solution ("the free
node will be released and eventually it will be attached to the last free
position below the seed"); the seed itself is accepted only as the very
last row, which guarantees replication never ceases early. When the
row-counter reaches ``sqrt(n) - 1`` and the seed attaches, the leader
terminates.

Implementation note: line self-replication runs fully under the scheduler
via :func:`repro.protocols.replication.self_replicating_lines_protocol`; the
square-side bookkeeping the paper assigns to the waiting leader (bonding a
row, converting it to inert square states, releasing strays, counting rows)
is performed by an orchestrator between scheduler events, with its
interaction cost accounted explicitly (one interaction per bond activated,
stray released, or cell walked).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import SimulationError, TerminationError
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.geometry.grid import integer_sqrt
from repro.geometry.vec import Vec
from repro.protocols.replication import add_line, self_replicating_lines_protocol


@dataclass
class SquareResult:
    """Outcome of a Square-Knowing-n run."""

    n: int
    side: int
    scheduler_events: int
    leader_interactions: int
    rows_attached: int
    world: World

    @property
    def total_interactions(self) -> int:
        """Scheduler events plus the leader's accounted assembly work."""
        return self.scheduler_events + self.leader_interactions

    def square_component(self):
        return self.world.components[self._square_cid]

    _square_cid: int = -1


def _is_free_line(
    world: World, cid: int, length: int, left_states: Tuple[str, ...]
) -> Optional[List[int]]:
    """If component ``cid`` is a complete line of ``length`` whose left
    endpoint is in one of ``left_states``, return the line's node ids
    left-to-right.

    The component may be in the middle of an *incomplete replication* —
    extra nodes hanging one row below the line (the paper explicitly allows
    attaching such replicas; the strays are released at attachment). That
    is also why a *blocked* left endpoint (``Lr'``: replication in flight)
    is acceptable — accepting such lines is exactly the deadlock-avoidance
    device of Lemma 2's proof.
    """
    comp = world.components[cid]
    if comp.size() < length:
        return None
    top = max(c.y for c in comp.cells)
    row = sorted(c for c in comp.cells if c.y == top)
    if len(row) != length:
        return None
    if any(c.z != 0 for c in comp.cells):
        return None
    xs = [c.x for c in row]
    if xs != list(range(xs[0], xs[0] + length)):
        return None
    # Everything else must be a partial child row directly below the line.
    for c in comp.cells:
        if c.y == top:
            continue
        if c.y != top - 1 or not (xs[0] - 1 <= c.x <= xs[-1] + 1):
            return None
    nids = [comp.cells[c] for c in row]
    if world.state_of(nids[0]) not in left_states:
        return None
    return nids


def _find_free_line(world: World, length: int, left_states: Tuple[str, ...],
                    exclude: Optional[int] = None) -> Optional[Tuple[int, List[int]]]:
    for cid in list(world.components):
        if cid == exclude:
            continue
        nids = _is_free_line(world, cid, length, left_states)
        if nids is not None:
            return cid, nids
    return None


def _component_with_state(world: World, state: str) -> Optional[int]:
    nodes = world.nodes_in_state(state)
    if not nodes:
        return None
    nid = next(iter(nodes))
    return world.nodes[nid].component_id


def _shed_strays(world: World, keep: List[int]) -> int:
    """Release every node sharing a component with ``keep[0]`` but outside
    ``keep`` as a free q0.

    Returns the number of interactions accounted (one per released node;
    each release is at least one bond deactivation in the paper's walk).
    The stray list is computed up front: releases can split the component,
    but the stray node handles remain valid throughout.
    """
    comp = world.component_of(keep[0])
    keep_set = set(keep)
    strays = [nid for nid in comp.cells.values() if nid not in keep_set]
    for nid in strays:
        world.free_singleton(nid, "q0")
    return len(strays)


def run_square_known_n(
    n: int,
    seed: Optional[int] = None,
    max_events: int = 5_000_000,
) -> SquareResult:
    """Run Square-Knowing-n on ``n`` nodes (``sqrt(n)`` must be an integer).

    Returns the result with the final world; the square occupies one
    component of ``side x side`` inert ``sq`` nodes with the leader cell
    marked ``sq_L`` at the bottom-left corner.
    """
    side, exact = integer_sqrt(n)
    if not exact:
        raise SimulationError(f"n = {n} is not a perfect square")
    if side < 3:
        raise SimulationError("the replication chain needs side >= 3")
    protocol = self_replicating_lines_protocol()
    world = World(dimension=2)
    add_line(world, side, "L")  # the leader's line, already length sqrt(n)
    for _ in range(n - side):
        world.add_free_node("q0")
    sim = Simulation(world, protocol, seed=seed)
    leader_interactions = 0

    # --- Stage 1: the original line replicates once into the seed. -------
    # ``Lstart`` appears at the end of the parent's restore walk, which only
    # starts after the child has detached; the child's own restore then
    # completes on intra-component rules alone, so waiting for ``Lstart``
    # suffices. (Waiting for ``Ls`` as well is wrong: the seed may start
    # replicating — blocking its endpoint as ``Ls'`` — before the parent's
    # walk finishes, and small populations then deadlock with every free
    # node locked in incomplete replications.)
    res = sim.run(
        max_events=max_events,
        until=lambda w: bool(w.nodes_in_state("Lstart")),
    )
    if not res.stopped:
        raise TerminationError("seed creation did not complete")
    original_cid = _component_with_state(world, "Lstart")
    assert original_cid is not None
    # The original line becomes the square's top row; convert it to inert
    # square states so it stops attracting attachments, and release any
    # partial replication already hanging below it.
    comp = world.components[original_cid]
    # The component's frame may have been translated by merges (frames are
    # arbitrary); the line is always the topmost row, children hang below.
    top_y = max(c.y for c in comp.cells)
    row_cells = sorted(c for c in comp.cells if c.y == top_y)
    if len(row_cells) != side:
        raise SimulationError("original line lost nodes")  # pragma: no cover
    row_nids = [comp.cells[c] for c in row_cells]
    leader_interactions += _shed_strays(world, row_nids)
    for k, nid in enumerate(row_nids):
        world.set_state(nid, "sq_L" if k == 0 else "sq")
    leader_interactions += side  # the leader's conversion walk
    square_cid = original_cid

    # --- Stage 2: accept sqrt(n) - 1 rows; the seed strictly last. -------
    rows = 0
    while rows < side - 1:
        last = rows == side - 2
        # Non-seed rows may be accepted mid-replication (blocked endpoint
        # ``Lr'``) — Lemma 2's deadlock-avoidance; the seed is accepted
        # strictly last, by which point it can hold no children (every
        # spare node is already in the segment) so plain ``Ls`` suffices.
        want_left = ("Ls",) if last else ("Lr", "Lr'")

        found: List[Optional[Tuple[int, List[int]]]] = [None]

        def ready(w: World) -> bool:
            found[0] = _find_free_line(w, side, want_left, exclude=square_cid)
            return found[0] is not None

        if not ready(world):
            res = sim.run(max_events=max_events, until=ready)
            if not res.stopped:
                if res.stabilized:
                    raise TerminationError(
                        f"stabilized waiting for row {rows + 1}: "
                        "replication ceased (deadlock)"
                    )
                raise TerminationError(f"event budget exhausted at row {rows + 1}")
        cid, nids = found[0]  # type: ignore[misc]
        # Release the strays of the replica's own incomplete replication.
        leader_interactions += _shed_strays(world, nids)
        # Attach under the current lowest row: one vertical bond per cell
        # (the leader's walk), plus horizontal bonds along the row.
        y = row_cells[0].y - (rows + 1)
        targets = [Vec(row_cells[0].x + i, y) for i in range(side)]
        world.transplant_line(nids, targets, square_cid, "sq")
        leader_interactions += 2 * side  # walk + bond activations
        rows += 1

    world.check_invariants()
    square = world.components[square_cid]
    if square.size() != n:
        raise SimulationError(
            f"square has {square.size()} nodes, expected {n}"
        )  # pragma: no cover
    result = SquareResult(
        n=n,
        side=side,
        scheduler_events=sim.events,
        leader_interactions=leader_interactions,
        rows_attached=rows,
        world=world,
    )
    result._square_cid = square_cid
    return result
