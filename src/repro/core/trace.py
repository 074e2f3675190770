"""World snapshots and the state encoding of the ``repro.trace/v1`` codec.

:func:`world_to_dict` / :func:`world_from_dict` serialize full
configurations — states, per-node positions and orientations, bonds, and
the allocator counters — so a restored world continues exactly like the
live one. The streaming trace subsystem :mod:`repro.trace` builds on this
module: trace headers and checkpoints embed these snapshots, and its event
records encode states with :func:`_state_repr` / :func:`_state_from_repr`.
Recording, replay and diffing live there
(:class:`~repro.trace.TraceWriter`, :func:`~repro.trace.replay_trace`,
:func:`~repro.trace.diff_traces`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

from repro.core.world import World, bond_of
from repro.errors import SimulationError
from repro.geometry.ports import Port
from repro.geometry.rotation import ROTATIONS_3D, Rotation, is_grid_rotation
from repro.geometry.vec import Vec


def _state_repr(state: Any) -> Any:
    """States are arbitrary hashables; tuples and Ports get JSON encodings."""
    if isinstance(state, tuple):
        return ["__tuple__"] + [_state_repr(s) for s in state]
    if isinstance(state, Port):
        return ["__port__", state.value]
    return state


def _state_from_repr(obj: Any) -> Any:
    """Invert :func:`_state_repr`. A state is hashable, so a list that
    encodes neither a tuple nor a port, or a dict, is a ``TypeError``."""
    if isinstance(obj, list):
        if obj and obj[0] == "__tuple__":
            return tuple(_state_from_repr(s) for s in obj[1:])
        if len(obj) == 2 and obj[0] == "__port__":
            return Port(obj[1])
    elif not isinstance(obj, dict):
        return obj
    raise TypeError(f"state {obj!r} is not hashable")


def _ints(values: Iterable[Any], what: str) -> Tuple[int, ...]:
    """``values`` as a tuple of ints; any other entry (a JSON boolean or
    float included) is a ``TypeError`` naming ``what``."""
    out = tuple(values)
    for value in out:
        if type(value) is not int:
            raise TypeError(f"{what} {value!r} is not an integer")
    return out


#: The members of the 3D grid group, which contains the 2D one, by matrix.
_GRID_ROTATIONS = {rotation.matrix: rotation for rotation in ROTATIONS_3D}


def _rotation_from_repr(rows: Any, what: str) -> Rotation:
    """Decode a rotation matrix. A member of the grid group is one lookup
    that returns the shared instance; any other matrix must still consist
    of ints (a ``TypeError`` naming ``what`` otherwise), and the caller's
    group check then names it."""
    matrix = tuple(map(tuple, rows))
    try:
        return _GRID_ROTATIONS[matrix]
    except (KeyError, TypeError):  # not a member, or an unhashable entry
        return Rotation(tuple(_ints(row, what) for row in matrix))


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


def _undecodable(part: str, exc: Exception) -> SimulationError:
    """The error for a snapshot part that does not decode."""
    if isinstance(exc, KeyError):
        return SimulationError(f"snapshot {part} has no {exc.args[0]!r} field")
    return SimulationError(f"snapshot {part} does not decode ({exc})")


def world_from_dict(data: Dict[str, Any]) -> World:
    """Rebuild a world from :func:`world_to_dict` output.

    Node ids, component ids, positions, orientations and bonds are restored
    exactly; the result passes :meth:`World.check_invariants`. A snapshot
    that does not decode (a missing field, a non-integer id, coordinate or
    orientation entry, an unhashable state, a position of the wrong arity,
    an orientation outside the model's group, a bond naming an unknown node
    or port) raises :class:`SimulationError` naming the node or bond. The
    errors are caught where the decode fails, so a valid snapshot pays for
    no separate validation pass.
    """
    from repro.core.world import Component, NodeRecord

    # What is being decoded, for the error: a list ("node", "bond") and
    # the entry in it, or the record itself.
    part, index = "record", None
    try:
        world = World(dimension=data["dimension"])
        nodes, bonds = data["nodes"], data["bonds"]
        max_nid = -1
        max_cid = -1
        part = "node"
        for index, obj in enumerate(nodes):
            nid, cid = _ints((obj["nid"], obj["component"]), "node or component id")
            pos = Vec(*_ints(obj["pos"], "position coordinate"))
            orientation = _rotation_from_repr(obj["orientation"], "orientation entry")
            if not is_grid_rotation(orientation, world.dimension):
                raise SimulationError(
                    f"snapshot node {nid} has orientation "
                    f"{obj['orientation']!r}, not a rotation of the "
                    f"{world.dimension}D grid"
                )
            sid = world.space.intern(_state_from_repr(obj["state"]))
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
        part, index = "bond", None
        for index, entry in enumerate(bonds):
            a, pa, b, pb = entry
            rec_a, rec_b = world.nodes.get(a), world.nodes.get(b)
            if rec_a is None or rec_b is None:
                raise SimulationError(
                    f"snapshot bond {entry!r} names an unknown node"
                )
            if a == b or rec_a.component_id != rec_b.component_id:
                raise SimulationError(
                    f"snapshot bond {entry!r} does not join two nodes of "
                    "one component"
                )
            try:
                bond = bond_of(a, Port(pa), b, Port(pb))
            except ValueError:
                raise SimulationError(
                    f"snapshot bond {entry!r} names an unknown port"
                ) from None
            world.components[rec_a.component_id].bonds.add(bond)
        part, index = "record", None
        # Pre-counter snapshots (older artifacts) fall back to max+1, which
        # is exact for initial configurations but can relabel later splits.
        next_nid = int(data.get("next_nid", max_nid + 1))
        next_cid = int(data.get("next_cid", max_cid + 1))
    except (KeyError, TypeError, ValueError) as exc:
        if index is not None:
            part = f"{part} entry {index}"
        elif part != "record":
            part = f"{part} list"
        raise _undecodable(part, exc) from None
    # A restored component was rebuilt wholesale: bump its version so any
    # consumer keying geometry off (cid, version) — candidate caches, the
    # columnar index's coarse backstop — treats it as changed rather than
    # aliasing a version-0 component it may have observed elsewhere.
    for comp in world.components.values():
        comp.version += 1
    world._next_nid = next_nid
    world._next_cid = next_cid
    world.check_invariants()
    return world
