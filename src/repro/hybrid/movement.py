"""Movement rules and the hybrid simulation loop (§8's Nubot combination).

The active primitive is the *leaf rotation*: when the scheduler selects an
interaction across an active bond whose endpoints match a movement rule,
and the moving endpoint is a leaf (degree 1), the leaf swings 90° about its
neighbor into the adjacent cell — provided that cell is free, else the rule
is not applicable (Nubot's blocked moves). The node's orientation rotates
with it, so its bonded port keeps facing the pivot; the pivot's bond port
is re-derived from the new geometry.

Everything else — which pairs meet, and when — remains the passive
uniform-random scheduler of §3: the model is genuinely hybrid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.candidates import EffectiveCandidateCache
from repro.core.protocol import Protocol, State, Update
from repro.core.scheduler import evaluate
from repro.core.simulator import TraceHook, notify_simulation_observers
from repro.core.world import Candidate, World, bond_of, bond_sort_key
from repro.errors import SimulationError
from repro.geometry.ports import port_facing
from repro.geometry.rotation import ROTATIONS_2D, Rotation
from repro.geometry.vec import Vec

#: 90-degree rotations about z: counter-clockwise and clockwise.
_CCW = next(r for r in ROTATIONS_2D if r.apply(Vec(1, 0)) == Vec(0, 1))
_CW = _CCW.inverse()


def _leaf_bond(world: World, nid: int):
    """The unique bond of a degree-1 node, or ``None``."""
    comp = world.component_of(nid)
    bonds = [b for b in comp.bonds if any(x == nid for x, _ in b)]
    if len(bonds) != 1:
        return None
    return bonds[0]


def rotate_leaf(world: World, leaf: int, clockwise: bool) -> bool:
    """Swing a degree-1 node 90° about its unique bonded neighbor.

    Returns False (and changes nothing) when the target cell is occupied
    within the component — the blocked-move convention. Raises
    :class:`SimulationError` when ``leaf`` is not a degree-1 node of a 2D
    world.
    """
    if world.dimension != 2:
        raise SimulationError("leaf rotation is defined for the 2D model")
    bond = _leaf_bond(world, leaf)
    if bond is None:
        raise SimulationError(f"node {leaf} is not a leaf (degree != 1)")
    (a, pa), (b, pb) = tuple(bond)
    pivot = b if a == leaf else a
    comp = world.component_of(leaf)
    rec_leaf = world.nodes[leaf]
    rec_pivot = world.nodes[pivot]
    turn: Rotation = _CW if clockwise else _CCW
    old_pos = rec_leaf.pos
    new_pos = rec_pivot.pos + turn.apply(old_pos - rec_pivot.pos)
    if new_pos in comp.cells:
        return False
    # Move the leaf: cells map, position, and orientation (the node turns
    # with the swing, so its own bond port keeps facing the pivot).
    del comp.cells[old_pos]
    comp.cells[new_pos] = leaf
    rec_leaf.pos = new_pos
    rec_leaf.orientation = turn.compose(rec_leaf.orientation)
    # Re-derive the bond's port pair from the new geometry.
    comp.bonds.discard(bond)
    leaf_port = port_facing(rec_leaf.orientation, rec_pivot.pos - new_pos)
    pivot_port = port_facing(rec_pivot.orientation, new_pos - rec_pivot.pos)
    comp.bonds.add(bond_of(leaf, leaf_port, pivot, pivot_port))
    # Journal the swing as a fine-grained world delta (bumping the
    # version): the vacated/occupied cell pair plus the pivot, whose bond
    # port was re-derived above — incremental candidate caches then prune
    # the swing's exact fallout instead of sweeping the whole component.
    world.note_move(comp, leaf, old_pos, new_pos, also_dirty=(pivot,))
    return True


@dataclass(frozen=True)
class MovementRule:
    """An active-motion rule: a bonded (leaf, pivot) state pair swings.

    When an interaction selects an active bond whose leaf endpoint is in
    ``leaf_state`` and whose other endpoint is in ``pivot_state``, the leaf
    rotates 90° (``clockwise`` or not) about the pivot and both nodes adopt
    their new states.
    """

    leaf_state: State
    pivot_state: State
    new_leaf_state: State
    new_pivot_state: State
    clockwise: bool = True


class MovementProtocol(Protocol):
    """A hybrid protocol: ordinary δ rules plus movement rules.

    ``base`` (optional) supplies the passive part (any :class:`Protocol`);
    movement rules supply the active part. The two candidate sets are
    merged by :class:`HybridSimulation` with the uniform law over all
    applicable interactions.
    """

    def __init__(
        self,
        movement_rules: List[MovementRule],
        base: Optional[Protocol] = None,
        initial_state: State = "q0",
        leader_state: Optional[State] = None,
        name: str = "movement-protocol",
    ) -> None:
        self.dimension = 2
        self.movement_rules = list(movement_rules)
        self.base = base
        self.initial_state = initial_state
        self.leader_state = leader_state
        self.name = name
        self._by_pair: Dict[Tuple[State, State], MovementRule] = {}
        for rule in self.movement_rules:
            key = (rule.leaf_state, rule.pivot_state)
            if key in self._by_pair:
                raise SimulationError(
                    f"two movement rules for the pair {key!r}"
                )
            self._by_pair[key] = rule

    def handle(self, view) -> Optional[Update]:
        if self.base is not None:
            return self.base.handle(view)
        return None

    def movement_rule_for(
        self, leaf_state: State, pivot_state: State
    ) -> Optional[MovementRule]:
        return self._by_pair.get((leaf_state, pivot_state))

    def is_hot(self, state: State) -> bool:
        if any(
            state in (r.leaf_state, r.pivot_state) for r in self.movement_rules
        ):
            return True
        if self.base is not None:
            return self.base.is_hot(state)
        return False


@dataclass
class HybridSimulation:
    """Uniform-random execution over passive *and* active interactions.

    Each step takes the effective passive candidates (the base protocol's
    δ, maintained incrementally by an
    :class:`~repro.core.candidates.EffectiveCandidateCache` — leaf swings
    are journalled as *move* deltas, so the cache prunes exactly the
    swing's fallout: the swung leaf and pivot, entries colliding with the
    newly occupied cell, and placements unblocked by the vacated one,
    never the whole component) plus the applicable movement candidates
    (bonded leaf/pivot pairs matching a movement rule whose swing target
    is free) and selects uniformly among their union — the natural
    extension of the §3 uniform scheduler to the hybrid rule set.
    """

    world: World
    protocol: MovementProtocol
    seed: Optional[int] = None
    trace: Optional[TraceHook] = None

    events: int = 0
    moves: int = 0
    stabilized: bool = False
    _rng: random.Random = field(init=False, repr=False)
    _cache: EffectiveCandidateCache = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._cache = EffectiveCandidateCache()
        self.world.adopt_space(self.protocol.program.space)
        # Offer this run to any active recording (repro.trace.record): the
        # writer binds through the same world/seed/trace surface as a core
        # Simulation. Passive picks go through the TraceHook; leaf swings
        # reach the writer's move seam via the hook's ``trace_writer``
        # attribute — a plain hook without that attribute sees passive
        # events only.
        notify_simulation_observers(self)

    def _movement_candidates(self) -> List[Tuple[int, MovementRule]]:
        out: List[Tuple[int, MovementRule]] = []
        for comp in self.world.components.values():
            degree: Dict[int, int] = {}
            for bond in comp.bonds:
                for nid, _port in bond:
                    degree[nid] = degree.get(nid, 0) + 1
            for bond in sorted(comp.bonds, key=bond_sort_key):
                (a, _pa), (b, _pb) = tuple(bond)
                for leaf, pivot in ((a, b), (b, a)):
                    if degree.get(leaf) != 1:
                        continue
                    rule = self.protocol.movement_rule_for(
                        self.world.state_of(leaf), self.world.state_of(pivot)
                    )
                    if rule is None:
                        continue
                    turn = _CW if rule.clockwise else _CCW
                    rec_leaf = self.world.nodes[leaf]
                    rec_pivot = self.world.nodes[pivot]
                    target = rec_pivot.pos + turn.apply(
                        rec_leaf.pos - rec_pivot.pos
                    )
                    if target in comp.cells:
                        continue  # blocked move
                    out.append((leaf, rule))
        return out

    def step(self) -> bool:
        """One uniform draw over passive + active candidates."""
        passive: List[Tuple[Candidate, Update]] = self._cache.refresh(
            self.world, self.protocol, evaluate
        )
        active = self._movement_candidates()
        total = len(passive) + len(active)
        if total == 0:
            self.stabilized = True
            return False
        pick = self._rng.randrange(total)
        if pick < len(passive):
            cand, update = passive[pick]
            self.world.apply(cand, update)
            self.events += 1
            if self.trace is not None:
                self.trace(self.events, cand, update, self.world)
        else:
            leaf, rule = active[pick - len(passive)]
            moved = rotate_leaf(self.world, leaf, rule.clockwise)
            if not moved:  # pragma: no cover - filtered as blocked above
                return True
            pivot_bond = _leaf_bond(self.world, leaf)
            assert pivot_bond is not None
            (a, _), (b, _) = tuple(pivot_bond)
            pivot = b if a == leaf else a
            self.world.set_state(leaf, rule.new_leaf_state)
            self.world.set_state(pivot, rule.new_pivot_state)
            self.moves += 1
            self.events += 1
            writer = getattr(self.trace, "trace_writer", None)
            if writer is not None:
                writer.on_move(
                    self.events,
                    leaf,
                    pivot,
                    rule.clockwise,
                    rule.new_leaf_state,
                    rule.new_pivot_state,
                    self.world,
                )
        return True

    def run(self, max_events: int = 100_000) -> int:
        """Run until no candidate of either kind remains; returns events."""
        for _ in range(max_events):
            if not self.step():
                break
        return self.events


def walker_protocol() -> MovementProtocol:
    """A two-node *walker*: protocol-controlled locomotion from leaf swings.

    The dimer alternates roles: the mover (``M1``) cartwheels clockwise
    over the pivot (``P``) in two quarter-swings (via ``M2``), landing one
    lattice step beyond it; then the roles swap and the other endpoint
    cartwheels. Each four-interaction cycle translates the dimer by two
    cells — motion that the purely passive model cannot produce, since a
    passive component's internal geometry is rigid forever.
    """
    rules = [
        MovementRule("M1", "P", "M2", "P", clockwise=True),
        MovementRule("M2", "P", "P", "M1", clockwise=True),
    ]
    return MovementProtocol(rules, initial_state="P", name="walker")


def make_walker_world() -> Tuple[World, int, int]:
    """A world holding one walker dimer; returns (world, mover, pivot)."""
    world = World(dimension=2)
    nids = world.add_component_from_cells(
        {Vec(0, 0): "M1", Vec(1, 0): "P"}
    )
    return world, nids[Vec(0, 0)], nids[Vec(1, 0)]
