"""Streaming traces: record, verify, seek, and replay runs bit-exactly.

Every run becomes a streamable, seekable, verifiable NDJSON artifact in
the versioned ``repro.trace/v1`` encoding. The world snapshots its headers
and checkpoints embed come from :mod:`repro.core.trace`; everything else
(the one event encoder, the one applier) lives here.

* :mod:`repro.trace.encoding` — the record vocabulary, canonical bytes,
  digests, and the hash chain;
* :mod:`repro.trace.writer` — the bounded-memory streaming
  :class:`TraceWriter` (atomic finalize, optional live sink);
* :mod:`repro.trace.reader` — sign-then-validate loading
  (:class:`TraceReader`, :func:`validate_trace_file`);
* :mod:`repro.trace.replay` — checkpointed bit-exact reconstruction
  (:class:`TraceCursor`, :func:`replay_trace`);
* :mod:`repro.trace.record` — the live-simulation seam
  (:func:`recording`, :func:`record_scenario`);
* :mod:`repro.trace.diff` — lockstep first-divergence diffing
  (:func:`diff_traces`, the ``repro.trace.diff/v1`` payload);
* :mod:`repro.trace.goldens` — the committed golden-trace regression
  harness (:data:`GOLDENS`, :func:`check_goldens`).

CLI: ``repro record <scenario>``, ``repro replay <trace> [--to-event N]
[--render] [--verify]``, ``repro diff <a> [<b> | --live]``, and ``repro
goldens record|check|list``; the sweep service streams the same records
live with ``repro submit --trace --wait``.

Importing ``repro.trace`` imports none of these modules: each name in
``__all__`` resolves on first use, importing only the module that owns
it, so ``from repro.trace import replay_trace`` loads neither the goldens
harness nor the candidate layer and numpy.
"""

from repro import _lazy_exports

__all__ = [
    "CLASSIFICATIONS",
    "DIFF_SCHEMA",
    "DiffResult",
    "Divergence",
    "diff_traces",
    "resimulate_from_header",
    "validate_diff_payload",
    "GOLDENS",
    "GoldenReport",
    "GoldenSpec",
    "check_golden",
    "check_goldens",
    "golden_specs",
    "record_golden",
    "record_goldens",
    "TraceValidator",
    "TRACE_SCHEMA",
    "RECORD_KINDS",
    "CHAIN_SEED",
    "canonical_json",
    "encode_line",
    "payload_digest",
    "world_digest",
    "TraceWriter",
    "DEFAULT_CHECKPOINT_EVERY",
    "TraceReader",
    "validate_trace_bytes",
    "validate_trace_file",
    "TraceCursor",
    "ReplayResult",
    "replay_trace",
    "recording",
    "record_scenario",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    globals(),
    {
        "repro.trace.diff": (
            "CLASSIFICATIONS", "DIFF_SCHEMA", "DiffResult", "Divergence",
            "diff_traces", "resimulate_from_header", "validate_diff_payload",
        ),
        "repro.trace.encoding": (
            "CHAIN_SEED", "RECORD_KINDS", "TRACE_SCHEMA", "canonical_json",
            "encode_line", "payload_digest", "world_digest",
        ),
        "repro.trace.goldens": (
            "GOLDENS", "GoldenReport", "GoldenSpec", "check_golden",
            "check_goldens", "golden_specs", "record_golden", "record_goldens",
        ),
        "repro.trace.reader": (
            "TraceReader", "TraceValidator", "validate_trace_bytes",
            "validate_trace_file",
        ),
        "repro.trace.record": ("record_scenario", "recording"),
        "repro.trace.replay": ("ReplayResult", "TraceCursor", "replay_trace"),
        "repro.trace.writer": ("DEFAULT_CHECKPOINT_EVERY", "TraceWriter"),
    },
)
