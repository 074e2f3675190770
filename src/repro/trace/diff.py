"""First-divergence trace diffing: the ``repro.trace.diff/v1`` engine.

Given two ``repro.trace/v1`` streams, walk both sides record-by-record in
lockstep and report the **first diverging event** — never a later one, and
with enough decoded context to act on: the event index, both raw records,
the world neighborhood around the touched nodes (rebuilt checkpoint-seek
style from each side's last snapshot plus the records since), and one of
five classifications:

* ``event-mismatch`` — the applied interactions differ (this is the
  bisection signal: the first event where two runs of "the same" seeded
  trajectory part ways);
* ``fault-mismatch`` — an out-of-band detach/excise record differs;
* ``checkpoint-drift`` — the record streams agree but a snapshot does not
  (header snapshots, same-event-count checkpoints, or the final world
  digest) — a run mutated the world outside the traced interaction stream;
* ``chain-break`` — one side is internally inconsistent (tampered bytes,
  broken hash chain, digest mismatch) before any cross-side divergence;
* ``premature-end`` — one side stops (truncation, a torn final line, or a
  finalized end anchor) while the other continues.

The engine *compares* records — it never applies them — so diffing two
identical traces costs a stream pass, not a dual world replay; checkpoint
anchors are aligned by event count and compared by snapshot digest, which
tolerates two sides recorded at different checkpoint cadences. Memory is
bounded by the checkpoint interval: each side keeps only its latest
snapshot line and the raw lines since (the neighborhood window), exactly
what checkpoint-seek :func:`~repro.trace.replay.replay_trace` would read.

Streams may be trace files, raw bytes, loaded
:class:`~repro.trace.reader.TraceReader` objects, or in-memory record
lists (the live re-simulation mode of ``repro diff --live`` records the
header's scenario identity to a sink list and diffs against that).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.trace import _state_repr, world_from_dict
from repro.errors import TraceError
from repro.trace.encoding import encode_line
from repro.trace.reader import TraceReader, TraceValidator
from repro.trace.replay import TraceCursor

#: Schema identifier stamped into every diff payload (``repro validate``
#: dispatches on it; registered in ``repro.experiments.io.KNOWN_SCHEMAS``).
DIFF_SCHEMA = "repro.trace.diff/v1"

#: The closed classification vocabulary (see the module docstring).
CLASSIFICATIONS = (
    "event-mismatch",
    "fault-mismatch",
    "checkpoint-drift",
    "chain-break",
    "premature-end",
)

#: Record kinds that advance the shared event counter.
_EVENT_KINDS = ("event", "move")

#: Record kinds the lockstep loop compares pairwise (checkpoints are
#: aligned by event count instead — cadences may differ between sides).
_COMPARABLE_KINDS = ("event", "move", "detach", "excise", "end")

#: Header keys excluded from the identity comparison: the checkpoint
#: cadence shapes the *encoding* of a trajectory, not the trajectory.
_HEADER_ADVISORY_KEYS = ("checkpoint_every",)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class Divergence:
    """The first point where the two sides part ways."""

    classification: str  #: one of :data:`CLASSIFICATIONS`
    event: Optional[int]  #: event index at the divergence (0 = header)
    seq_a: Optional[int]  #: line number of the diverging record, side a
    seq_b: Optional[int]  #: line number of the diverging record, side b
    record_a: Optional[Dict[str, Any]]  #: side a's record (None past EOF)
    record_b: Optional[Dict[str, Any]]  #: side b's record
    side: Optional[str]  #: 'a'/'b' when one side alone is defective
    detail: str  #: one human sentence
    neighborhood: Optional[Dict[str, Any]] = None  #: decoded world context

    def to_dict(self) -> Dict[str, Any]:
        return {
            "classification": self.classification,
            "event": self.event,
            "seq_a": self.seq_a,
            "seq_b": self.seq_b,
            "record_a": self.record_a,
            "record_b": self.record_b,
            "side": self.side,
            "detail": self.detail,
            "neighborhood": self.neighborhood,
        }


@dataclass
class DiffResult:
    """The outcome of :func:`diff_traces`."""

    identical: bool
    a: Dict[str, Any]  #: side descriptor: source label + counters
    b: Dict[str, Any]
    events_compared: int  #: event/move pairs that matched
    checkpoints_compared: int  #: same-event-count snapshot digests matched
    divergence: Optional[Divergence] = None

    def to_payload(self) -> Dict[str, Any]:
        """The stable ``repro.trace.diff/v1`` JSON payload."""
        return {
            "schema": DIFF_SCHEMA,
            "kind": "trace-diff",
            "identical": self.identical,
            "a": self.a,
            "b": self.b,
            "events_compared": self.events_compared,
            "checkpoints_compared": self.checkpoints_compared,
            "divergence": (
                None if self.divergence is None else self.divergence.to_dict()
            ),
        }

    def describe(self) -> str:
        """One human line (the CLI's non-JSON output)."""
        if self.identical:
            return (
                f"identical: {self.events_compared} events, "
                f"{self.checkpoints_compared} checkpoint anchors compared"
            )
        d = self.divergence
        assert d is not None
        where = f"event {d.event}" if d.event is not None else "stream"
        return f"DIVERGED at {where} ({d.classification}): {d.detail}"


# ----------------------------------------------------------------------
# Stream sides
# ----------------------------------------------------------------------


@dataclass
class _Pull:
    """One lockstep pull: a comparable record, or a terminal defect."""

    record: Optional[Dict[str, Any]] = None
    seq: Optional[int] = None
    errors: List[str] = field(default_factory=list)
    defect: Optional[str] = None  #: 'chain-break' | 'premature-end' | None
    raw: Optional[bytes] = None  #: the record's raw line (window absorb)


class _Side:
    """One trace stream under incremental validation.

    Pulls raw lines lazily, validates each with
    :class:`~repro.trace.reader.TraceValidator`, stashes checkpoints for
    event-count alignment, and maintains the neighborhood window (latest
    snapshot line + raw lines since) in bounded memory. A side paired with
    a ``twin`` reuses the record of a line its twin has already parsed
    cleanly when its own line is byte-equal (see :meth:`_feed`).
    """

    def __init__(self, lines: Iterator[bytes], label: str) -> None:
        self._lines = lines
        self._peeked: Optional[bytes] = None
        self._exhausted = False
        self.label = label
        self.validator = TraceValidator()
        self.twin: Optional["_Side"] = None
        #: ``(raw, record)`` for lines this side parsed that its twin has
        #: not reached yet, in stream order
        self._offers: Deque[Tuple[bytes, Dict[str, Any]]] = deque()
        self.header: Optional[Dict[str, Any]] = None
        #: pending checkpoints: event count -> (seq, snapshot_digest, raw)
        self.checkpoints: Dict[int, Tuple[int, Any, bytes]] = {}
        self._window_snapshot: Optional[bytes] = None
        self._window_snapshot_events = 0
        self._window: List[bytes] = []

    # -- raw line plumbing ---------------------------------------------

    def _next_line(self) -> Optional[bytes]:
        if self._peeked is not None:
            line, self._peeked = self._peeked, None
            return line
        if self._exhausted:
            return None
        try:
            return next(self._lines)
        except StopIteration:
            self._exhausted = True
            return None

    def _at_last_line(self) -> bool:
        """True when the line just taken had no successor (torn-tail test)."""
        if self._peeked is not None:
            return False
        if self._exhausted:
            return True
        try:
            self._peeked = next(self._lines)
        except StopIteration:
            self._exhausted = True
            return True
        return False

    # -- validated pulls -----------------------------------------------

    def _feed(
        self, line: bytes
    ) -> Tuple[Optional[Dict[str, Any]], List[str], bool]:
        """Validate ``line``, decoding it only if the twin has not.

        The side that parses a line first, and finds no error in it,
        offers ``(raw, record)``; its twin reuses the record — skipping the
        parse and the line's own digest checks — when its own next line is
        byte-equal, and otherwise parses the line itself and drops the
        twin's pending offers (the streams are out of step, e.g. at a
        checkpoint only one side wrote). Both sides then hold the same
        record objects, so nothing here may mutate a record.
        """
        parsed = None
        twin = self.twin
        if twin is not None and twin._offers:
            raw, offered = twin._offers.popleft()
            if raw == line:
                parsed = offered
            else:
                twin._offers.clear()
        record, errors, fatal = self.validator.feed(line, parsed)
        if parsed is None and twin is not None and record is not None and not errors:
            self._offers.append((line, record))
        return record, errors, fatal

    def read_header(self) -> _Pull:
        line = self._next_line()
        if line is None:
            return _Pull(defect="premature-end", seq=0, errors=["empty trace"])
        seq = self.validator.seq
        record, errors, fatal = self._feed(line)
        if fatal:
            if record is None and self._at_last_line():
                # A torn header on a one-line stream: truncation, the same
                # torn-tail rule next_comparable applies.
                return _Pull(seq=seq, errors=errors, defect="premature-end")
            return _Pull(record=record, seq=seq, errors=errors, defect="chain-break")
        if errors:
            # A header whose own snapshot digest does not check out is
            # internally inconsistent — tampered before any comparison.
            return _Pull(record=record, seq=seq, errors=errors, defect="chain-break")
        self.header = record
        self._window_snapshot = line
        self._window_snapshot_events = 0
        self._window = []
        return _Pull(record=record, seq=seq)

    def next_comparable(self) -> _Pull:
        """Advance to the next event/move/detach/excise/end record.

        Checkpoints are consumed here: validated, stashed for event-count
        alignment, and adopted as the new neighborhood window base.
        """
        while True:
            line = self._next_line()
            if line is None:
                # EOF without an end anchor: the stream just stops.
                return _Pull(
                    defect="premature-end",
                    seq=self.validator.seq,
                    errors=["stream ends without an end anchor"],
                )
            seq = self.validator.seq
            record, errors, fatal = self._feed(line)
            if fatal:
                if record is None and self._at_last_line():
                    # A torn final line is truncation, not tampering: the
                    # writer was cut off mid-record.
                    return _Pull(
                        seq=seq,
                        errors=errors,
                        defect="premature-end",
                    )
                return _Pull(record=record, seq=seq, errors=errors, defect="chain-break")
            kind = record.get("kind") if record else None
            if kind == "checkpoint":
                if errors:
                    # The trace disagrees with itself at its own anchor.
                    return _Pull(
                        record=record, seq=seq, errors=errors, defect="chain-break"
                    )
                events = int(record.get("events", self.validator.events))
                self.checkpoints[events] = (
                    seq,
                    record.get("snapshot_digest"),
                    line,
                )
                self._window_snapshot = line
                self._window_snapshot_events = events
                self._window = []
                continue
            if kind == "end" and errors:
                return _Pull(
                    record=record, seq=seq, errors=errors, defect="chain-break"
                )
            return _Pull(record=record, seq=seq, errors=errors, raw=line)

    # -- neighborhood window -------------------------------------------

    def absorb(self, raw: bytes) -> None:
        """Append a compared-equal record's raw line to the window."""
        self._window.append(raw)

    def rebuild_window_world(self):
        """Checkpoint-seek replay of the window: the pre-divergence world.

        Returns ``(world, events)`` or ``(None, 0)`` when the window cannot
        be rebuilt (no snapshot yet, or corrupt records).
        """
        if self._window_snapshot is None:
            return None, 0
        try:
            snapshot = json.loads(self._window_snapshot)
            cursor = TraceCursor()
            cursor.world = world_from_dict(snapshot["snapshot"])
            cursor.events = self._window_snapshot_events
            for raw in self._window:
                cursor.feed(json.loads(raw))
            return cursor.world, cursor.events
        except (TraceError, KeyError, ValueError, TypeError):
            return None, 0


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------

TraceSource = Union[str, Path, bytes, TraceReader, Sequence[Dict[str, Any]]]


def _file_lines(path: Path) -> Iterator[bytes]:
    with open(path, "rb") as fh:
        for line in fh:
            yield line[:-1] if line.endswith(b"\n") else line


def _bytes_lines(data: bytes) -> Iterator[bytes]:
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return iter(lines)


def _record_lines(records: Sequence[Dict[str, Any]]) -> Iterator[bytes]:
    # Re-encoding parsed canonical lines reproduces their original bytes
    # exactly (canonical JSON round-trips), so the hash chain still checks.
    return (encode_line(r).rstrip(b"\n") for r in records)


def _make_side(source: TraceSource, fallback_label: str) -> _Side:
    if isinstance(source, (str, Path)):
        path = Path(source)
        return _Side(_file_lines(path), str(path))
    if isinstance(source, bytes):
        return _Side(_bytes_lines(source), fallback_label)
    if isinstance(source, TraceReader):
        records = [source.header] + list(source.records)
        label = str(source.path) if source.path is not None else fallback_label
        return _Side(_record_lines(records), label)
    return _Side(_record_lines(list(source)), fallback_label)


# ----------------------------------------------------------------------
# The lockstep diff
# ----------------------------------------------------------------------


def _touched_nids(record: Optional[Dict[str, Any]]) -> List[int]:
    if not isinstance(record, dict):
        return []
    kind = record.get("kind")
    if kind == "event":
        return [n for n in (record.get("nid1"), record.get("nid2")) if n is not None]
    if kind == "move":
        return [n for n in (record.get("leaf"), record.get("pivot")) if n is not None]
    if kind == "detach":
        bond = record.get("bond") or []
        return [end[0] for end in bond if isinstance(end, (list, tuple)) and end]
    if kind == "excise":
        return [] if record.get("nid") is None else [record["nid"]]
    return []


def _describe_node(world, nid: int) -> Dict[str, Any]:
    rec = world.nodes[nid]
    comp = world.component_of(nid)
    neighbors = []
    for bond in sorted(comp.bonds, key=lambda b: sorted(n for n, _ in b)):
        ends = {n: p for n, p in bond}
        if nid not in ends:
            continue
        for peer, port in ends.items():
            if peer == nid:
                continue
            neighbors.append(
                {
                    "nid": peer,
                    "port": ends[nid].value,
                    "peer_port": port.value,
                    "peer_state": _state_repr(world.state_of(peer)),
                }
            )
    return {
        "nid": nid,
        "state": _state_repr(world.state_of(nid)),
        "pos": rec.pos.as_tuple(),
        "component": rec.component_id,
        "neighbors": neighbors,
    }


def _neighborhood(
    side_a: _Side,
    side_b: _Side,
    record_a: Optional[Dict[str, Any]],
    record_b: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Decode the pre-divergence world around the touched nodes.

    Both sides agreed on every record up to this point, so either window
    rebuilds the same world; side a is tried first, side b is the backup
    when a's window snapshot is the corrupt part.
    """
    nids = sorted(set(_touched_nids(record_a)) | set(_touched_nids(record_b)))
    for side in (side_a, side_b):
        world, events = side.rebuild_window_world()
        if world is None:
            continue
        present = [n for n in nids if n in world.nodes]
        return {
            "events": events,
            "touched": nids,
            "nodes": [_describe_node(world, n) for n in present],
            "missing": [n for n in nids if n not in world.nodes],
        }
    return None


def _classify_pair(
    record_a: Dict[str, Any], record_b: Dict[str, Any]
) -> Tuple[str, Optional[int], str]:
    """(classification, event index, detail) for two unequal records."""
    kind_a = record_a.get("kind")
    kind_b = record_b.get("kind")
    index = record_a.get("index", record_b.get("index"))
    if kind_a == "end" or kind_b == "end":
        # Handled by the caller (needs side attribution); defensive here.
        return "premature-end", index, "one side ended early"
    if kind_a in ("detach", "excise") or kind_b in ("detach", "excise"):
        return (
            "fault-mismatch",
            index,
            f"fault records differ ({kind_a} vs {kind_b})",
        )
    keys = [
        k
        for k in sorted(set(record_a) | set(record_b))
        if record_a.get(k) != record_b.get(k)
    ]
    return (
        "event-mismatch",
        index,
        f"applied events differ in {', '.join(keys) or 'kind'}"
        + (f" ({kind_a} vs {kind_b})" if kind_a != kind_b else ""),
    )


def diff_traces(
    a: TraceSource,
    b: TraceSource,
    neighborhood: bool = True,
    label_a: str = "a",
    label_b: str = "b",
) -> DiffResult:
    """Stream both sides in lockstep; report the first divergence.

    Accepts trace files, raw bytes, loaded readers, or record lists on
    either side. Sides may use different checkpoint cadences; checkpoints
    are compared only where both sides wrote one at the same event count.
    Defective streams (tampering, truncation) are diffable up to the
    defect, which is itself reported as the divergence.
    """
    side_a = _make_side(a, label_a)
    side_b = _make_side(b, label_b)
    side_a.twin, side_b.twin = side_b, side_a
    events_compared = 0
    checkpoints_compared = 0

    def result(divergence: Optional[Divergence]) -> DiffResult:
        return DiffResult(
            identical=divergence is None,
            a={"source": side_a.label, "events": side_a.validator.events},
            b={"source": side_b.label, "events": side_b.validator.events},
            events_compared=events_compared,
            checkpoints_compared=checkpoints_compared,
            divergence=divergence,
        )

    def defect_divergence(pull: _Pull, side: str) -> Divergence:
        validator = (side_a if side == "a" else side_b).validator
        return Divergence(
            classification=pull.defect or "chain-break",
            event=validator.events,
            seq_a=pull.seq if side == "a" else None,
            seq_b=pull.seq if side == "b" else None,
            record_a=pull.record if side == "a" else None,
            record_b=pull.record if side == "b" else None,
            side=side,
            detail="; ".join(pull.errors) or "stream defect",
        )

    # -- headers --------------------------------------------------------
    ha = side_a.read_header()
    if ha.defect is not None:
        return result(defect_divergence(ha, "a"))
    hb = side_b.read_header()
    if hb.defect is not None:
        return result(defect_divergence(hb, "b"))
    assert ha.record is not None and hb.record is not None
    header_keys = [
        k
        for k in sorted(set(ha.record) | set(hb.record))
        if k not in _HEADER_ADVISORY_KEYS
        and ha.record.get(k) != hb.record.get(k)
    ]
    if header_keys:
        snapshot_drift = bool(
            {"snapshot", "snapshot_digest", "dimension"} & set(header_keys)
        )
        return result(
            Divergence(
                classification="checkpoint-drift",
                event=0,
                seq_a=0,
                seq_b=0,
                record_a={k: ha.record.get(k) for k in header_keys if k != "snapshot"},
                record_b={k: hb.record.get(k) for k in header_keys if k != "snapshot"},
                side=None,
                detail=(
                    "initial snapshots differ"
                    if snapshot_drift
                    else "header identity differs"
                )
                + f" (keys: {', '.join(header_keys)})",
            )
        )

    # -- lockstep record streams ---------------------------------------
    while True:
        pa = side_a.next_comparable()
        if pa.defect is not None:
            return result(defect_divergence(pa, "a"))
        pb = side_b.next_comparable()
        if pb.defect is not None:
            return result(defect_divergence(pb, "b"))
        ra, rb = pa.record, pb.record
        assert ra is not None and rb is not None

        # Checkpoint alignment: compare snapshot digests wherever both
        # sides anchored the same event count; prune counts the other
        # side has irrevocably passed without anchoring.
        for count in sorted(set(side_a.checkpoints) & set(side_b.checkpoints)):
            seq_ca, digest_a, raw_a = side_a.checkpoints.pop(count)
            seq_cb, digest_b, raw_b = side_b.checkpoints.pop(count)
            if digest_a != digest_b:
                return result(
                    Divergence(
                        classification="checkpoint-drift",
                        event=count,
                        seq_a=seq_ca,
                        seq_b=seq_cb,
                        record_a={"kind": "checkpoint", "events": count, "snapshot_digest": digest_a},
                        record_b={"kind": "checkpoint", "events": count, "snapshot_digest": digest_b},
                        side=None,
                        detail=(
                            f"checkpoint snapshots drift at event {count} "
                            "although the record streams agree — a run "
                            "mutated the world outside the traced stream"
                        ),
                    )
                )
            checkpoints_compared += 1
        for side, other in ((side_a, side_b), (side_b, side_a)):
            for count in [
                c
                for c in side.checkpoints
                if other.validator.events > c and c not in other.checkpoints
            ]:
                del side.checkpoints[count]  # cadence mismatch: unmatched anchor

        kind_a, kind_b = ra.get("kind"), rb.get("kind")
        if kind_a == "end" and kind_b == "end":
            if ra.get("world_digest") != rb.get("world_digest"):
                return result(
                    Divergence(
                        classification="checkpoint-drift",
                        event=side_a.validator.events,
                        seq_a=pa.seq,
                        seq_b=pb.seq,
                        record_a=ra,
                        record_b=rb,
                        side=None,
                        detail=(
                            "final world digests differ although every "
                            "record matched"
                        ),
                    )
                )
            return result(None)
        if kind_a == "end" or kind_b == "end":
            ended = "a" if kind_a == "end" else "b"
            ended_side = side_a if ended == "a" else side_b
            more = (rb if ended == "a" else ra) or {}
            div = Divergence(
                classification="premature-end",
                event=more.get("index", ended_side.validator.events),
                seq_a=pa.seq,
                seq_b=pb.seq,
                record_a=ra,
                record_b=rb,
                side=ended,
                detail=(
                    f"side {ended} finalized after "
                    f"{ended_side.validator.events} events; the other side "
                    f"continues with a {more.get('kind')!r} record"
                ),
            )
            if neighborhood:
                div.neighborhood = _neighborhood(side_a, side_b, ra, rb)
            return result(div)

        if ra == rb:
            if pa.errors:
                # Equal records with identical validator states carry equal
                # error lists: both sides share the same internal
                # inconsistency — a chain defect, not a cross-side diff.
                return result(
                    Divergence(
                        classification="chain-break",
                        event=side_a.validator.events,
                        seq_a=pa.seq,
                        seq_b=pb.seq,
                        record_a=ra,
                        record_b=rb,
                        side=None,
                        detail="; ".join(pa.errors),
                    )
                )
            if kind_a in _EVENT_KINDS:
                events_compared += 1
            assert pa.raw is not None and pb.raw is not None
            side_a.absorb(pa.raw)
            side_b.absorb(pb.raw)
            continue

        classification, event, detail = _classify_pair(ra, rb)
        if pa.errors or pb.errors:
            extra = "; ".join(pa.errors + pb.errors)
            detail = f"{detail} ({extra})"
        div = Divergence(
            classification=classification,
            event=event,
            seq_a=pa.seq,
            seq_b=pb.seq,
            record_a=ra,
            record_b=rb,
            side=None,
            detail=detail,
        )
        if neighborhood:
            div.neighborhood = _neighborhood(side_a, side_b, ra, rb)
        return result(div)


# ----------------------------------------------------------------------
# Live re-simulation (trace vs a fresh run of the current code)
# ----------------------------------------------------------------------


def resimulate_from_header(
    trace: Union[str, Path, bytes],
) -> List[Dict[str, Any]]:
    """Re-run a trace's scenario identity; return the fresh record stream.

    Reads only the header line (the rest of the file may be arbitrarily
    damaged), re-records the named scenario with the same params, seed,
    scheduler, run index, and checkpoint cadence, and returns the fresh
    records in memory — the ``b`` side for ``repro diff --live``. Raises
    :class:`TraceError` for traces with no scenario identity (builder-made
    goldens re-record through their :mod:`~repro.trace.goldens` spec).
    """
    from repro.trace.record import record_scenario
    from repro.trace.writer import DEFAULT_CHECKPOINT_EVERY

    if isinstance(trace, bytes):
        first = trace.split(b"\n", 1)[0]
    else:
        with open(trace, "rb") as fh:
            first = fh.readline().rstrip(b"\n")
    try:
        header = json.loads(first)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceError(f"unreadable trace header: {exc}")
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise TraceError("trace does not start with a header record")
    scenario = header.get("scenario")
    if not scenario:
        raise TraceError(
            "trace has no scenario identity (recorded from a hand-built "
            "simulation); re-record it through its golden spec instead"
        )
    records: List[Dict[str, Any]] = []
    record_scenario(
        scenario,
        params=header.get("params") or {},
        seed=header.get("seed"),
        scheduler=header.get("scheduler"),
        path=None,
        run_index=int(header.get("run", 0)),
        checkpoint_every=int(
            header.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)
        ),
        sink=records.append,
    )
    return records


# ----------------------------------------------------------------------
# Payload validation (repro validate dispatch)
# ----------------------------------------------------------------------


def validate_diff_payload(data: Any) -> List[str]:
    """Validate a ``repro.trace.diff/v1`` payload; ``[]`` = valid."""
    if not isinstance(data, dict):
        return [f"expected a JSON object, got {type(data).__name__}"]
    errors: List[str] = []
    if data.get("schema") != DIFF_SCHEMA:
        errors.append(
            f"schema must be {DIFF_SCHEMA!r}, got {data.get('schema')!r}"
        )
    if data.get("kind") != "trace-diff":
        errors.append(f"kind must be 'trace-diff', got {data.get('kind')!r}")
    if not isinstance(data.get("identical"), bool):
        errors.append("identical must be a boolean")
    for side in ("a", "b"):
        if not isinstance(data.get(side), dict):
            errors.append(f"{side} must be a side descriptor object")
    for counter in ("events_compared", "checkpoints_compared"):
        value = data.get(counter)
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{counter} must be an integer")
    divergence = data.get("divergence")
    if data.get("identical") is True and divergence is not None:
        errors.append("identical diffs must carry divergence: null")
    if data.get("identical") is False and not isinstance(divergence, dict):
        errors.append("non-identical diffs must carry a divergence object")
    if isinstance(divergence, dict):
        if divergence.get("classification") not in CLASSIFICATIONS:
            errors.append(
                f"divergence.classification must be one of "
                f"{', '.join(CLASSIFICATIONS)}, got "
                f"{divergence.get('classification')!r}"
            )
        event = divergence.get("event")
        if event is not None and (
            isinstance(event, bool) or not isinstance(event, int)
        ):
            errors.append("divergence.event must be an integer or null")
        if divergence.get("side") not in (None, "a", "b"):
            errors.append("divergence.side must be 'a', 'b', or null")
        if not isinstance(divergence.get("detail"), str):
            errors.append("divergence.detail must be a string")
    return errors
