"""The ``repro.trace/v1`` record vocabulary, canonical bytes, and digests.

A trace is NDJSON: one canonically-serialized JSON object per line. The
stream opens with a **header** (scenario identity, seed, scheduler, and a
full initial :func:`~repro.core.trace.world_to_dict` snapshot), carries one
**event** record per applied effective interaction (:func:`event_record`,
the one event encoder; :class:`~repro.trace.replay.TraceCursor` is the one
applier), interleaves out-of-band **detach**/**excise** records
for injected faults (the world-delta log's split vocabulary — a
non-disconnecting bond break journals no delta record, so faults must be
recorded explicitly), drops periodic **checkpoint** snapshots, and closes
with an **end** record carrying the final world digest.

Integrity is a hash chain over the raw line bytes:
``chain_0 = sha256(schema id)`` and ``chain_i = sha256(chain_{i-1} ||
line_i)``. Checkpoint and end records embed the chain value *before* their
own line, so flipping any byte anywhere breaks a later anchor — a finalized
trace always ends with one. Everything here is wall-clock-free: identical
seeds produce byte-identical traces.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.protocol import Update
from repro.core.trace import (
    _ints,
    _rotation_from_repr,
    _state_from_repr,
    _state_repr,
    world_to_dict,
)
from repro.core.world import Bond, Candidate, World, bond_of
from repro.errors import TraceError
from repro.geometry.ports import Port
from repro.geometry.vec import Vec

#: Schema identifier stamped into every trace header (``repro validate``
#: dispatches on it; documented next to the result/history/analysis ids in
#: ``repro.experiments.io``).
TRACE_SCHEMA = "repro.trace/v1"

#: Every record kind the v1 stream may contain, in no particular order.
#: ``move`` is the hybrid model's active primitive (a leaf swing, §8): it
#: advances the event counter exactly like ``event`` — the hybrid scheduler
#: draws uniformly over passive *and* active candidates, so both kinds are
#: steps of the one trajectory. Pre-hybrid v1 traces simply contain none.
RECORD_KINDS = ("header", "event", "move", "detach", "excise", "checkpoint", "end")

#: The hash-chain seed: the digest of the schema id itself, so chains from
#: different schema versions can never be spliced together.
CHAIN_SEED = hashlib.sha256(TRACE_SCHEMA.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Canonical bytes and digests
# ----------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """The one canonical serialization (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_line(record: Mapping[str, Any]) -> bytes:
    """One trace line: canonical JSON plus the newline terminator."""
    return canonical_json(record).encode("utf-8") + b"\n"


def payload_digest(obj: Any) -> str:
    """SHA-256 over the canonical JSON of ``obj`` (hex)."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def world_digest(world: World) -> str:
    """The world hash: digest of the full canonical snapshot.

    Two worlds have equal digests iff :func:`world_to_dict` serializes them
    identically — same node ids, states, components, geometry, and bonds.
    This is the bit-exactness criterion of record→replay round trips.
    """
    return payload_digest(world_to_dict(world))


def chain_advance(chain: str, line: bytes) -> str:
    """Fold one raw line (without its newline) into the hash chain."""
    return hashlib.sha256(bytes.fromhex(chain) + line).hexdigest()


# ----------------------------------------------------------------------
# Record builders
# ----------------------------------------------------------------------


def header_record(
    world: World,
    scenario: Optional[str] = None,
    params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    scheduler: Optional[str] = None,
    run: int = 0,
    checkpoint_every: Optional[int] = None,
) -> Dict[str, Any]:
    """The opening record: run identity plus the full initial snapshot.

    ``checkpoint_every`` records the writer's checkpoint cadence so a
    re-simulation from the header (``repro diff --live``) can reproduce the
    original anchor positions. It is advisory: the diff engine tolerates
    mismatched cadences, and pre-PR-10 traces omit the field entirely.
    """
    snapshot = world_to_dict(world)
    record = {
        "schema": TRACE_SCHEMA,
        "kind": "header",
        "scenario": scenario,
        "params": dict(params) if params else {},
        "seed": seed,
        "scheduler": scheduler,
        "run": run,
        "dimension": world.dimension,
        "snapshot": snapshot,
        "snapshot_digest": payload_digest(snapshot),
    }
    if checkpoint_every is not None:
        record["checkpoint_every"] = checkpoint_every
    return record


def event_record(index: int, cand: Candidate, update: Update) -> Dict[str, Any]:
    """One applied effective interaction: endpoints, ports, bond
    transition, state updates and (for an inter-component bond) the
    placement. ``index`` is the 1-based event count, as a
    :class:`~repro.core.simulator.Simulation` trace hook receives it."""
    rotation = None
    translation = None
    if cand.rotation is not None:
        rotation = tuple(map(tuple, cand.rotation.matrix))
    if cand.translation is not None:
        translation = cand.translation.as_tuple()
    return {
        "kind": "event",
        "index": index,
        "nid1": cand.nid1,
        "port1": cand.port1.value,
        "nid2": cand.nid2,
        "port2": cand.port2.value,
        "bond": cand.bond,
        "new_state1": _state_repr(update[0]),
        "new_state2": _state_repr(update[1]),
        "new_bond": update[2],
        "rotation": rotation,
        "translation": translation,
    }


def move_record(
    index: int,
    leaf: int,
    pivot: int,
    clockwise: bool,
    new_leaf_state: Any,
    new_pivot_state: Any,
) -> Dict[str, Any]:
    """One applied leaf swing (the hybrid model's active primitive).

    ``index`` is the 1-based event count after the swing — moves and
    passive events share one counter, mirroring the hybrid scheduler's
    uniform draw over the union of both candidate sets.
    """
    return {
        "kind": "move",
        "index": index,
        "leaf": leaf,
        "pivot": pivot,
        "clockwise": bool(clockwise),
        "new_leaf_state": _state_repr(new_leaf_state),
        "new_pivot_state": _state_repr(new_pivot_state),
    }


def detach_record(index: int, bond: Bond) -> Dict[str, Any]:
    """An injected bond breakage (out-of-band split-vocabulary record).

    ``index`` is the event count the fault struck after; the endpoint list
    is sorted so the record is canonical regardless of bond-set iteration.
    """
    (a, pa), (b, pb) = sorted(bond, key=lambda e: (e[0], e[1].value))
    return {
        "kind": "detach",
        "index": index,
        "bond": [[a, pa.value], [b, pb.value]],
    }


def excise_record(index: int, nid: int, state: Any) -> Dict[str, Any]:
    """An injected node excision: ``nid`` cut free, resuming in ``state``."""
    return {
        "kind": "excise",
        "index": index,
        "nid": nid,
        "state": _state_repr(state),
    }


def checkpoint_record(
    events: int, seq: int, chain: str, world: World
) -> Dict[str, Any]:
    """A periodic full snapshot: the seek anchor for fast replay.

    ``chain`` is the hash-chain value *before* this line; ``events``/``seq``
    pin the checkpoint's position in both the event and record streams.
    """
    snapshot = world_to_dict(world)
    return {
        "kind": "checkpoint",
        "events": events,
        "seq": seq,
        "chain": chain,
        "snapshot": snapshot,
        "snapshot_digest": payload_digest(snapshot),
    }


def end_record(events: int, seq: int, chain: str, world: World) -> Dict[str, Any]:
    """The closing record: final world digest plus the last chain anchor."""
    record = {
        "kind": "end",
        "events": events,
        "seq": seq,
        "chain": chain,
        "world_digest": world_digest(world),
    }
    # Every earlier line is covered by a *later* chain anchor, but the end
    # line is the last one — so it carries a digest of its own payload
    # (sans this field), making a byte flip inside the final line just as
    # detectable as anywhere else in the stream.
    record["self_digest"] = payload_digest(record)
    return record


# ----------------------------------------------------------------------
# Record decoders (replay side)
# ----------------------------------------------------------------------


def _record_error(record: Mapping[str, Any], detail: str) -> TraceError:
    """A decode failure, as a :class:`TraceError` naming the record."""
    return TraceError(
        f"{record.get('kind')} record at index {record.get('index')!r}: "
        f"{detail}"
    )


def _port_from_record(value: Any, record: Mapping[str, Any]) -> Port:
    """Decode one port of a record; an unknown port is a :class:`TraceError`
    naming the record, never a bare ``ValueError``."""
    try:
        return Port(value)
    except ValueError:
        raise _record_error(record, f"unknown port {value!r}") from None


def _undecodable(record: Mapping[str, Any], exc: Exception) -> TraceError:
    """The error for a record field that is missing or does not decode."""
    if isinstance(exc, KeyError):
        return _record_error(record, f"no {exc.args[0]!r} field")
    return _record_error(record, f"a field does not decode ({exc})")


def _bond_value(record: Mapping[str, Any], field: str) -> int:
    """A bond field of a record: the model's bonds are exactly 0 and 1, so
    anything else (``2``, ``true``, a string) is a ``ValueError``."""
    value = record[field]
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"{field} {value!r} is not 0 or 1")
    return value


def candidate_from_record(record: Mapping[str, Any]) -> Candidate:
    """Rebuild the applied candidate of an event record; a missing or
    malformed field (a non-integer node id or coordinate, a bond outside
    {0, 1}) is a :class:`TraceError` naming the record."""
    try:
        rotation = None
        translation = None
        if record.get("rotation") is not None:
            rotation = _rotation_from_repr(record["rotation"], "rotation entry")
        if record.get("translation") is not None:
            translation = Vec(*_ints(record["translation"], "translation coordinate"))
        nid1, nid2 = _ints((record["nid1"], record["nid2"]), "node id")
        return Candidate(
            nid1,
            _port_from_record(record["port1"], record),
            nid2,
            _port_from_record(record["port2"], record),
            _bond_value(record, "bond"),
            rotation,
            translation,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _undecodable(record, exc) from None


def update_from_record(record: Mapping[str, Any]) -> Update:
    """Rebuild the applied update of an event record; a missing or
    malformed field (an unhashable state, a bond outside {0, 1}) is a
    :class:`TraceError` naming the record."""
    try:
        return (
            _state_from_repr(record["new_state1"]),
            _state_from_repr(record["new_state2"]),
            _bond_value(record, "new_bond"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _undecodable(record, exc) from None


def bond_from_record(record: Mapping[str, Any]) -> Bond:
    """Rebuild the snapped bond of a detach record; a malformed field is a
    :class:`TraceError` naming the record, as for an event."""
    try:
        (a, pa), (b, pb) = record["bond"]
        a, b = _ints((a, b), "node id")
        return bond_of(
            a, _port_from_record(pa, record), b, _port_from_record(pb, record)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _undecodable(record, exc) from None


def excise_from_record(record: Mapping[str, Any]) -> Tuple[int, Any]:
    """Rebuild an excise record: (node id, post-excision state)."""
    try:
        return (
            _ints((record["nid"],), "node id")[0],
            _state_from_repr(record["state"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _undecodable(record, exc) from None


def move_from_record(
    record: Mapping[str, Any],
) -> Tuple[int, int, bool, Any, Any]:
    """Rebuild a move record: (leaf, pivot, clockwise, new states)."""
    try:
        leaf, pivot = _ints((record["leaf"], record["pivot"]), "node id")
        return (
            leaf,
            pivot,
            bool(record["clockwise"]),
            _state_from_repr(record["new_leaf_state"]),
            _state_from_repr(record["new_pivot_state"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _undecodable(record, exc) from None


def rotation_translation(
    record: Mapping[str, Any],
) -> Tuple[Optional[tuple], Optional[tuple]]:
    """The raw placement tuples of an event record (display helpers)."""
    return record.get("rotation"), record.get("translation")
