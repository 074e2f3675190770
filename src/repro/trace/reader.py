"""The :class:`TraceReader`: sign-then-validate loading of trace files.

Mirrors the trial store's discipline: every digest is recomputed and every
structural claim is checked *before* any record is served — a tampered,
truncated, or malformed trace raises :class:`~repro.errors.TraceError` (or
surfaces as a non-empty error list from :func:`validate_trace_bytes`) and is
never replayed into a wrong world. Checks, per line:

* line 0 is a ``repro.trace/v1`` header whose embedded snapshot matches its
  ``snapshot_digest``;
* the hash chain ``sha256(chain || raw line)`` reproduces the ``chain``
  anchor embedded in every checkpoint and in the final end record, so any
  flipped byte breaks a later anchor;
* ``seq``/``events``/``index`` counters are consistent and monotone;
* the last line is the end record the writer's atomic finalize wrote — a
  stream that just stops mid-run is rejected as unfinalized.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import TraceError
from repro.trace.encoding import (
    CHAIN_SEED,
    RECORD_KINDS,
    TRACE_SCHEMA,
    chain_advance,
    payload_digest,
)


def _digest_errors(record: Dict[str, Any], kind: str, i: int) -> List[str]:
    """The checks of a header, checkpoint or end line that depend on the
    line alone: the digests it embeds, recomputed over its own payload."""
    if kind == "end":
        errors: List[str] = []
        if not isinstance(record.get("world_digest"), str):
            errors.append(f"line {i}: end record has no world digest")
        body = {k: v for k, v in record.items() if k != "self_digest"}
        if payload_digest(body) != record.get("self_digest"):
            errors.append(f"line {i}: end record self digest mismatch")
        return errors
    snapshot = record.get("snapshot")
    if not isinstance(snapshot, dict):
        if kind == "header":
            return ["line 0: header has no snapshot object"]
        return [f"line {i}: checkpoint has no snapshot"]
    if payload_digest(snapshot) != record.get("snapshot_digest"):
        return [f"line {i}: {kind} snapshot digest mismatch"]
    return []


class TraceValidator:
    """Incremental, line-at-a-time trace validation.

    The stateful core of :func:`validate_trace_bytes`, factored out so
    streaming consumers (the first-divergence diff engine of
    ``repro.trace.diff``) can validate two traces in lockstep without
    buffering either one. Feed raw lines (no trailing newline) in stream
    order; each call returns ``(record, errors, fatal)``:

    * ``record`` — the parsed dict, or ``None`` when the line did not parse;
    * ``errors`` — validation messages for this line (``[]`` = clean),
      byte-identical to the ones :func:`validate_trace_bytes` reports;
    * ``fatal`` — ``True`` when the stream cannot be meaningfully continued
      (unparseable line, wrong header, unknown kind, record after the end
      anchor). Non-fatal errors (index drift, digest mismatches) leave the
      validator consistent enough to keep going, exactly as the batch
      validator does.
    """

    def __init__(self) -> None:
        self.chain = CHAIN_SEED
        self.events = 0  #: event + move records seen (the event counter)
        self.last_index = 0
        self.ended = False
        self.seq = 0  #: line number the next feed() will validate

    def feed(
        self, raw: bytes, parsed: Optional[Dict[str, Any]] = None
    ) -> Tuple[Optional[Dict[str, Any]], List[str], bool]:
        """Validate the next raw line; see the class docstring.

        ``parsed`` hands over the record another validator decoded from
        byte-identical ``raw`` and fed without an error. The diff engine
        passes it, so an identical line of two traces is decoded once for
        both. Such a record skips the ``json.loads`` and the checks that
        depend on the line alone (snapshot and self digests); the stream
        checks (hash chain, ``seq``, counters) still run.
        """
        i = self.seq
        errors: List[str] = []
        if parsed is not None:
            record: Any = parsed
        else:
            try:
                record = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                # UnicodeDecodeError: a flipped byte can leave a line that
                # is not even UTF-8 — still "tampered", never a crash.
                return None, [f"line {i}: not valid JSON ({exc})"], True
        if not isinstance(record, dict):
            return None, [f"line {i}: expected a JSON object"], True
        kind = record.get("kind")
        if self.ended:
            return record, [f"line {i}: record after the end anchor"], True
        if i == 0:
            if kind != "header":
                return (
                    record,
                    [f"line 0: expected the header, got kind {kind!r}"],
                    True,
                )
            if record.get("schema") != TRACE_SCHEMA:
                return (
                    record,
                    [
                        f"line 0: schema must be {TRACE_SCHEMA!r}, "
                        f"got {record.get('schema')!r}"
                    ],
                    True,
                )
            if parsed is None:
                errors.extend(_digest_errors(record, kind, i))
        elif kind in ("event", "move"):
            if record.get("index") != self.last_index + 1:
                errors.append(
                    f"line {i}: {kind} index {record.get('index')!r} "
                    f"(expected {self.last_index + 1})"
                )
            self.last_index = record.get("index", self.last_index + 1)
            self.events += 1
        elif kind in ("detach", "excise"):
            if record.get("index") != self.last_index:
                errors.append(
                    f"line {i}: fault record at index {record.get('index')!r} "
                    f"(expected the current event count {self.last_index})"
                )
        elif kind in ("checkpoint", "end"):
            if record.get("chain") != self.chain:
                errors.append(f"line {i}: hash chain broken at {kind} anchor")
            if record.get("seq") != i:
                errors.append(
                    f"line {i}: {kind} seq {record.get('seq')!r} "
                    f"(expected {i})"
                )
            if record.get("events") != self.events:
                errors.append(
                    f"line {i}: {kind} events {record.get('events')!r} "
                    f"(expected {self.events})"
                )
            if parsed is None:
                errors.extend(_digest_errors(record, kind, i))
            if kind == "end":
                self.ended = True
        else:
            return (
                record,
                [
                    f"line {i}: unknown record kind {kind!r} "
                    f"(expected one of {', '.join(RECORD_KINDS)})"
                ],
                True,
            )
        self.chain = chain_advance(self.chain, raw)
        self.seq += 1
        return record, errors, False


def _validate_lines(data: bytes) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Validate one trace's raw bytes; return ``(records, errors)``.

    The one validation pass behind :func:`validate_trace_bytes` and
    :meth:`TraceReader.load`: ``records`` are the dicts the validator
    parsed, in stream order, and are complete only when ``errors`` is
    empty.
    """
    records: List[Dict[str, Any]] = []
    errors: List[str] = []
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines:
        return records, ["empty trace (no header line)"]
    validator = TraceValidator()
    for raw in lines:
        record, errs, fatal = validator.feed(raw)
        errors.extend(errs)
        if fatal:
            break
        records.append(record)  # type: ignore[arg-type]
    if not errors and not validator.ended:
        errors.append(
            "trace is unfinalized: no end anchor (truncated file, or a "
            "recording that was never finalize()d)"
        )
    return records, errors


def validate_trace_bytes(data: bytes) -> List[str]:
    """Validate one trace's raw bytes; ``[]`` means valid."""
    return _validate_lines(data)[1]


def _validate_file(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """:func:`_validate_lines` over one read of a file on disk."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return [], [f"unreadable ({exc})"]
    return _validate_lines(data)


def validate_trace_file(path: Union[str, Path]) -> List[str]:
    """Validate a trace file on disk; ``[]`` means valid."""
    return _validate_file(path)[1]


class TraceReader:
    """A fully-validated, in-memory view of one trace file.

    :meth:`load` refuses invalid traces outright; on success the reader
    exposes the header, the ordered record list, the checkpoint positions
    (the replay engine's seek index) and the end anchor.
    """

    def __init__(
        self,
        header: Dict[str, Any],
        records: List[Dict[str, Any]],
        end: Dict[str, Any],
        path: Union[str, Path, None] = None,
    ) -> None:
        self.header = header
        self.records = records  #: every record after the header, incl. end
        self.end = end
        self.path = Path(path) if path is not None else None

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceReader":
        """Validate and parse in one pass; raises :class:`TraceError` on any
        defect.

        The file is read once and every line parsed once: the reader keeps
        the records its validation pass decoded, and serves none of them
        unless the whole trace validated.
        """
        records, errors = _validate_file(path)
        if errors:
            detail = "; ".join(errors[:4])
            raise TraceError(f"invalid trace {path}: {detail}")
        return cls(records[0], records[1:], records[-1], path)

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "TraceReader":
        """A reader over already-validated in-memory records (live mode)."""
        if not records or records[0].get("kind") != "header":
            raise TraceError("record stream does not start with a header")
        if records[-1].get("kind") != "end":
            raise TraceError("record stream does not finish with an end anchor")
        return cls(records[0], records[1:], records[-1])

    # ------------------------------------------------------------------

    @property
    def events(self) -> int:
        """Total effective interactions the trace records."""
        return int(self.end["events"])

    @property
    def world_digest(self) -> str:
        """The recorded final world digest."""
        return self.end["world_digest"]

    def checkpoints(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Checkpoint records as ``(position in self.records, record)``."""
        return [
            (i, rec)
            for i, rec in enumerate(self.records)
            if rec.get("kind") == "checkpoint"
        ]

    def describe(self) -> str:
        """One human line: identity, counts, digest prefix."""
        h = self.header
        bits = [
            f"scenario={h.get('scenario') or '-'}",
            f"seed={h.get('seed')}",
            f"scheduler={h.get('scheduler') or '-'}",
            f"events={self.events}",
            f"checkpoints={len(self.checkpoints())}",
            f"digest={self.world_digest[:12]}",
        ]
        return " ".join(bits)
