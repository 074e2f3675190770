"""Bit-exact replay: rebuild any intermediate world from a trace.

:class:`TraceCursor` folds one record at a time into a world rebuilt from
the header (or any checkpoint) snapshot — the incremental consumer behind
both offline replay and the live ASCII view. :func:`replay_trace` is the
offline engine: it seeks to the nearest checkpoint at or before the target
event, replays the remaining records, and (with ``verify``) recomputes the
world digest against every checkpoint anchor it passes plus the end
record's final digest — so "bit-exact" is a checked claim, not an
assumption.

``--to-event N`` semantics: apply records up to but excluding the first
*event* record with index > N. Fault records carry the event count they
struck after, so a world paused at N includes the detach/excise faults
that fired in step N — exactly the state a live run shows after its N-th
:meth:`~repro.core.simulator.Simulation.step`. Quiescent fault steps (a
``FaultySimulation`` injecting damage while no protocol event is
permissible) do not advance the event count, so at the final event count
``--to-event`` includes every trailing fault — i.e. the completed run's
world.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.trace import world_from_dict
from repro.core.world import World
from repro.errors import TraceError
from repro.geometry.rotation import is_grid_rotation
from repro.trace.encoding import (
    bond_from_record,
    candidate_from_record,
    move_from_record,
    state_from_record,
    update_from_record,
    world_digest,
)
from repro.trace.reader import TraceReader


@dataclass
class ReplayResult:
    """What :func:`replay_trace` reconstructed, and how."""

    world: World
    events: int  #: effective interactions represented in ``world``
    start_events: int  #: the seek anchor's event count (0 = from header)
    records_applied: int  #: event/detach/excise records applied after seek
    checkpoints_verified: int  #: digest anchors recomputed and matched
    digest: str  #: the reconstructed world's digest
    verified: bool  #: True iff a final digest claim was checked and matched


class TraceCursor:
    """Incremental world reconstruction from a stream of trace records.

    Feed records in stream order; the cursor rebuilds the world from the
    header snapshot and applies each event/detach/excise. ``resync=True``
    (the live view's mode) reloads the world from any checkpoint whose
    digest does not match the cursor's world — tolerant of runs that
    mutate the world outside the traced interaction stream (constructor
    surgery between steps). Offline replay uses the strict default, where
    such a mismatch is a hard error.
    """

    def __init__(self, resync: bool = False) -> None:
        self.world: Optional[World] = None
        self.events = 0
        self.applied = 0
        self.resync = resync
        self.resyncs = 0
        self.end: Optional[Dict[str, Any]] = None

    @classmethod
    def from_snapshot(cls, record: Dict[str, Any], events: int = 0) -> "TraceCursor":
        """Start mid-stream from a checkpoint (or header) record."""
        cursor = cls()
        cursor.world = world_from_dict(record["snapshot"])
        cursor.events = events
        return cursor

    def feed(self, record: Dict[str, Any]) -> None:
        """Apply one record in stream order."""
        kind = record.get("kind")
        if kind == "header":
            self.world = world_from_dict(record["snapshot"])
            self.events = 0
            return
        if self.world is None:
            raise TraceError(f"{kind} record before any snapshot")
        if kind == "event":
            self._apply_event(record)
        elif kind == "move":
            self._apply_move(record)
        elif kind == "detach":
            # Out-of-band faults reuse the world's journaled split paths,
            # exactly as live injection does (repro.faults.injection).
            from repro.faults.injection import break_bond

            break_bond(self.world, bond_from_record(record))
            self.applied += 1
        elif kind == "excise":
            self.world.free_singleton(record["nid"], state_from_record(record))
            self.applied += 1
        elif kind == "checkpoint":
            self._on_checkpoint(record)
        elif kind == "end":
            self.end = record
        else:
            raise TraceError(f"unknown record kind {kind!r}")

    def verify_against(self, record: Dict[str, Any], what: str) -> str:
        """Assert the cursor's world matches a digest-bearing record.

        Returns the world digest it computed (equal to the recorded one),
        so a caller that also reports the digest need not recompute it.
        """
        assert self.world is not None
        expected = record.get("snapshot_digest") or record.get("world_digest")
        actual = world_digest(self.world)
        if actual != expected:
            raise TraceError(
                f"replay diverged at {what} (events={self.events}): world "
                f"digest {actual[:12]}… != recorded {str(expected)[:12]}… — "
                "the run mutated the world outside the traced interaction "
                "stream, or the trace is inconsistent"
            )
        return actual

    # ------------------------------------------------------------------

    def _apply_event(self, record: Dict[str, Any]) -> None:
        assert self.world is not None
        cand = candidate_from_record(record)
        if cand.nid1 not in self.world.nodes or cand.nid2 not in self.world.nodes:
            raise TraceError(
                f"replay event {record['index']}: unknown node ids "
                f"({cand.nid1}, {cand.nid2})"
            )
        if cand.rotation is not None and not is_grid_rotation(
            cand.rotation, self.world.dimension
        ):
            raise TraceError(
                f"replay event {record['index']}: placement rotation "
                f"{record['rotation']!r} is not a rotation of the "
                f"{self.world.dimension}D grid"
            )
        actual_bond = self.world.bond_state(
            cand.nid1, cand.port1, cand.nid2, cand.port2
        )
        if cand.bond != actual_bond:
            raise TraceError(
                f"replay event {record['index']}: bond state diverged "
                f"(trace expects {cand.bond}, world has {actual_bond})"
            )
        self.world.apply(cand, update_from_record(record))
        self.events = record["index"]
        self.applied += 1

    def _apply_move(self, record: Dict[str, Any]) -> None:
        # Imported here: the hybrid layer sits above the core trace stack,
        # and only traces that actually contain moves pay the import.
        from repro.hybrid.movement import rotate_leaf

        assert self.world is not None
        leaf, pivot, clockwise, leaf_state, pivot_state = move_from_record(
            record
        )
        if leaf not in self.world.nodes or pivot not in self.world.nodes:
            raise TraceError(
                f"replay move {record['index']}: unknown node ids "
                f"({leaf}, {pivot})"
            )
        if not rotate_leaf(self.world, leaf, clockwise):
            raise TraceError(
                f"replay move {record['index']}: swing target occupied "
                "(the trace diverged from the world being rebuilt)"
            )
        self.world.set_state(leaf, leaf_state)
        self.world.set_state(pivot, pivot_state)
        self.events = record["index"]
        self.applied += 1

    def _on_checkpoint(self, record: Dict[str, Any]) -> None:
        assert self.world is not None
        if not self.resync:
            return
        if world_digest(self.world) != record.get("snapshot_digest"):
            self.world = world_from_dict(record["snapshot"])
            self.events = int(record.get("events", self.events))
            self.resyncs += 1


def replay_trace(
    trace: Union[TraceReader, str, Path],
    to_event: Optional[int] = None,
    verify: bool = False,
    use_checkpoints: bool = True,
) -> ReplayResult:
    """Reconstruct the world at ``to_event`` (default: the end of the run).

    Seeks to the latest checkpoint at or before the target, then applies
    the remaining records. With ``verify``, the seek snapshot and every
    checkpoint passed are recomputed against their recorded digests, and —
    when the target is the end of the trace — so is the final world
    digest; any mismatch raises :class:`TraceError`.
    """
    if not isinstance(trace, TraceReader):
        trace = TraceReader.load(trace)
    target = trace.events if to_event is None else to_event
    if target < 0 or target > trace.events:
        raise TraceError(
            f"--to-event {target} is outside the recorded range "
            f"[0, {trace.events}]"
        )

    # Seek: the latest checkpoint at or before the target event. A
    # checkpoint written between event N and its same-step faults still
    # works — the fault records follow it in the stream and get applied.
    start_pos = 0
    start_events = 0
    cursor = TraceCursor()
    anchor: Dict[str, Any] = trace.header
    if use_checkpoints:
        for pos, rec in trace.checkpoints():
            if rec["events"] <= target:
                start_pos = pos + 1
                start_events = int(rec["events"])
                anchor = rec
            else:
                break
    cursor.world = world_from_dict(anchor["snapshot"])
    cursor.events = start_events
    if verify:
        # Round-trip check on the seek anchor itself: the restored world
        # must reproduce the snapshot digest (world_from_dict fidelity).
        if world_digest(cursor.world) != anchor["snapshot_digest"]:
            raise TraceError(
                "restored snapshot does not reproduce its recorded digest "
                "(world_from_dict round-trip failure)"
            )

    checkpoints_verified = 0
    digest: Optional[str] = None  # the final world's, once verified
    for record in trace.records[start_pos:]:
        kind = record.get("kind")
        if kind in ("event", "move") and record["index"] > target:
            break
        if kind == "checkpoint":
            if verify:
                cursor.verify_against(record, "checkpoint")
                checkpoints_verified += 1
            continue
        if kind == "end":
            if verify:
                digest = cursor.verify_against(record, "end record")
            cursor.end = record
            break
        cursor.feed(record)

    assert cursor.world is not None
    return ReplayResult(
        world=cursor.world,
        events=cursor.events,
        start_events=start_events,
        records_applied=cursor.applied,
        checkpoints_verified=checkpoints_verified,
        digest=digest if digest is not None else world_digest(cursor.world),
        verified=verify,
    )
