"""In-memory execution traces — the compatibility layer under ``repro.trace``.

A :class:`TraceRecorder` hooks into a :class:`~repro.core.simulator.Simulation`
and logs every applied effective interaction — the endpoints, ports, bond
transition, state updates, and (for inter-component bonds) the placement.
Traces serialize to plain JSON-compatible dicts and *replay* onto a fresh
world with the same initial configuration, reproducing the exact final
configuration.

This module predates (and is superseded by) the streaming trace subsystem
:mod:`repro.trace`, which wraps the same event vocabulary in the versioned
``repro.trace/v1`` NDJSON encoding — header snapshot, periodic checkpoints,
digest hash chain, bounded-memory writer, seekable verified replay. New
code should record through ``repro.trace``; this layer remains the
dependency-free core API (the streaming encoder imports its event shape,
state encodings, and world snapshots from here).

World snapshots (:func:`world_to_dict` / :func:`world_from_dict`) serialize
full configurations — states, per-node positions and orientations, bonds —
so long experiments can checkpoint; the streaming subsystem's checkpoint
records embed exactly these snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.protocol import Protocol, Update
from repro.core.simulator import Simulation
from repro.core.world import Candidate, World, bond_of
from repro.errors import SimulationError
from repro.geometry.ports import Port
from repro.geometry.rotation import Rotation, is_grid_rotation
from repro.geometry.vec import Vec


@dataclass(frozen=True)
class TraceEvent:
    """One applied effective interaction, fully determined."""

    index: int
    nid1: int
    port1: str
    nid2: int
    port2: str
    bond: int
    new_state1: Any
    new_state2: Any
    new_bond: int
    rotation: Optional[tuple] = None
    translation: Optional[tuple] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "nid1": self.nid1,
            "port1": self.port1,
            "nid2": self.nid2,
            "port2": self.port2,
            "bond": self.bond,
            "new_state1": _state_repr(self.new_state1),
            "new_state2": _state_repr(self.new_state2),
            "new_bond": self.new_bond,
            "rotation": self.rotation,
            "translation": self.translation,
        }


def _state_repr(state: Any) -> Any:
    """States are arbitrary hashables; tuples and Ports get JSON encodings."""
    if isinstance(state, tuple):
        return ["__tuple__"] + [_state_repr(s) for s in state]
    if isinstance(state, Port):
        return ["__port__", state.value]
    return state


def _state_from_repr(obj: Any) -> Any:
    if isinstance(obj, list) and obj:
        if obj[0] == "__tuple__":
            return tuple(_state_from_repr(s) for s in obj[1:])
        if obj[0] == "__port__":
            return Port(obj[1])
    return obj


class TraceRecorder:
    """Collects :class:`TraceEvent` records from a running simulation.

    Attach via ``Simulation(..., trace=recorder.hook)`` or call
    :meth:`record` manually.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def hook(
        self, index: int, cand: Candidate, update: Update, world: World
    ) -> None:
        del world
        self.record(index, cand, update)

    def record(self, index: int, cand: Candidate, update: Update) -> None:
        rotation = None
        translation = None
        if cand.rotation is not None:
            rotation = tuple(map(tuple, cand.rotation.matrix))
        if cand.translation is not None:
            translation = cand.translation.as_tuple()
        self.events.append(
            TraceEvent(
                index=index,
                nid1=cand.nid1,
                port1=cand.port1.value,
                nid2=cand.nid2,
                port2=cand.port2.value,
                bond=cand.bond,
                new_state1=update[0],
                new_state2=update[1],
                new_bond=update[2],
                rotation=rotation,
                translation=translation,
            )
        )

    def to_list(self) -> List[Dict[str, Any]]:
        """The trace as JSON-compatible dicts."""
        return [e.to_dict() for e in self.events]


def record_run(
    world: World,
    protocol: Protocol,
    seed: int,
    max_events: int = 1_000_000,
) -> TraceRecorder:
    """Run to stabilization while recording the trace."""
    recorder = TraceRecorder()
    sim = Simulation(world, protocol, seed=seed, trace=recorder.hook)
    sim.run(max_events=max_events)
    return recorder


def replay(
    world: World,
    events: List[Dict[str, Any]],
    check_invariants: bool = False,
) -> None:
    """Apply a recorded trace onto a fresh world.

    The world must be in the trace's initial configuration (same node ids
    in the same states). Raises :class:`SimulationError` when an event does
    not apply cleanly — the signature of a behavioral change. Both the bond
    state and the node states are validated before each event is applied:
    every node a previous event updated must still hold that state when it
    is next touched, so a divergence is caught at the first event that
    observes it, with expected-vs-actual detail in the error.
    """
    # Node states the trace prefix determines: nid -> state set by the
    # latest applied event. Nodes the trace has not touched yet have no
    # expectation (the old encoding does not record initial states).
    expected: Dict[int, Any] = {}
    for obj in events:
        port1 = Port(obj["port1"])
        port2 = Port(obj["port2"])
        rotation = None
        translation = None
        if obj.get("rotation") is not None:
            rotation = Rotation(tuple(map(tuple, obj["rotation"])))
        if obj.get("translation") is not None:
            translation = Vec(*obj["translation"])
        cand = Candidate(
            obj["nid1"], port1, obj["nid2"], port2, obj["bond"],
            rotation, translation,
        )
        # Validate the candidate against the current configuration.
        rec1 = world.nodes.get(cand.nid1)
        rec2 = world.nodes.get(cand.nid2)
        if rec1 is None or rec2 is None:
            raise SimulationError(
                f"replay event {obj['index']}: unknown node ids"
            )
        actual_bond = world.bond_state(cand.nid1, port1, cand.nid2, port2)
        if cand.bond != actual_bond:
            raise SimulationError(
                f"replay event {obj['index']}: bond state diverged "
                f"(expected {cand.bond}, actual {actual_bond})"
            )
        for nid in (cand.nid1, cand.nid2):
            if nid in expected:
                actual_state = world.state_of(nid)
                if actual_state != expected[nid]:
                    raise SimulationError(
                        f"replay event {obj['index']}: node {nid} state "
                        f"diverged (expected {expected[nid]!r}, "
                        f"actual {actual_state!r})"
                    )
        update = (
            _state_from_repr(obj["new_state1"]),
            _state_from_repr(obj["new_state2"]),
            obj["new_bond"],
        )
        world.apply(cand, update)
        expected[cand.nid1] = update[0]
        expected[cand.nid2] = update[1]
        if check_invariants:
            world.check_invariants()


# ----------------------------------------------------------------------
# World snapshots
# ----------------------------------------------------------------------


def world_to_dict(world: World) -> Dict[str, Any]:
    """Serialize a full configuration (states, geometry, bonds).

    Orientation matrices are emitted as the rotations hold them (nested
    tuples, which JSON encodes like lists), and each bond lists its
    endpoints in node-id order — a bond joins two distinct nodes, so that
    order is total.
    """
    nodes = []
    decode = world.space.states
    for nid, rec in sorted(world.nodes.items()):
        nodes.append(
            {
                "nid": nid,
                "state": _state_repr(decode[rec.sid]),
                "component": rec.component_id,
                "pos": rec.pos.as_tuple(),
                "orientation": rec.orientation.matrix,
            }
        )
    bonds = []
    for comp in world.components.values():
        for bond in comp.bonds:
            (a, pa), (b, pb) = bond
            if a > b:
                a, pa, b, pb = b, pb, a, pa
            bonds.append([a, pa.value, b, pb.value])
    return {
        "dimension": world.dimension,
        "nodes": nodes,
        "bonds": sorted(bonds),
        # Allocator counters, so a restored world assigns the *same* fresh
        # node/component ids as the live world it was snapshotted from —
        # without them, replaying from a mid-run checkpoint relabels every
        # component a later split creates (bit-exactness would be lost).
        "next_nid": world._next_nid,
        "next_cid": world._next_cid,
    }


def world_from_dict(data: Dict[str, Any]) -> World:
    """Rebuild a world from :func:`world_to_dict` output.

    Node ids, component ids, positions, orientations and bonds are restored
    exactly; the result passes :meth:`World.check_invariants`.
    """
    from repro.core.world import Component, NodeRecord

    world = World(dimension=data["dimension"])
    max_nid = -1
    max_cid = -1
    for obj in data["nodes"]:
        nid = obj["nid"]
        cid = obj["component"]
        pos = Vec(*obj["pos"])
        orientation = Rotation(tuple(map(tuple, obj["orientation"])))
        if not is_grid_rotation(orientation, world.dimension):
            raise SimulationError(
                f"snapshot node {nid} has orientation {obj['orientation']!r}, "
                f"not a rotation of the {world.dimension}D grid"
            )
        state = _state_from_repr(obj["state"])
        sid = world.space.intern(state)
        world.nodes[nid] = NodeRecord(nid, sid, cid, pos, orientation)
        comp = world.components.get(cid)
        if comp is None:
            comp = Component(cid)
            world.components[cid] = comp
        if pos in comp.cells:
            raise SimulationError(f"snapshot places two nodes on {pos!r}")
        comp.cells[pos] = nid
        world.by_sid.setdefault(sid, set()).add(nid)
        max_nid = max(max_nid, nid)
        max_cid = max(max_cid, cid)
    for a, pa, b, pb in data["bonds"]:
        comp = world.components[world.nodes[a].component_id]
        try:
            bond = bond_of(a, Port(pa), b, Port(pb))
        except ValueError:
            raise SimulationError(
                f"snapshot bond {[a, pa, b, pb]!r} names an unknown port"
            ) from None
        comp.bonds.add(bond)
    # A restored component was rebuilt wholesale: bump its version so any
    # consumer keying geometry off (cid, version) — candidate caches, the
    # columnar index's coarse backstop — treats it as changed rather than
    # aliasing a version-0 component it may have observed elsewhere.
    for comp in world.components.values():
        comp.version += 1
    # Pre-counter snapshots (older artifacts) fall back to max+1, which is
    # exact for initial configurations but can relabel later splits.
    world._next_nid = int(data.get("next_nid", max_nid + 1))
    world._next_cid = int(data.get("next_cid", max_cid + 1))
    world.check_invariants()
    return world
