"""Serialization surfaces shared by the CLI, benchmarks, and CI.

One writer for every result collection: ``repro sweep --json``, the
``BENCH_<scenario>.json`` benchmark artifacts, and the CI smoke job all
emit the same ``kind: "results"`` payload so one validator
(:func:`validate_payload`) covers them all. :func:`known_schemas` is the
dispatch registry behind ``repro validate`` — one entry per emitted
schema id: single results (``repro.experiments.result/v1``), collections
(``repro.experiments.results/v1``), benchmark history records
(``repro.experiments.history/v1``), analyzer reports
(``repro.analysis.report/v1``), streaming traces (``repro.trace/v1``),
and first-divergence trace diffs (``repro.trace.diff/v1``). The
scenario-index formatters here also generate ``EXPERIMENTS.md``
(``repro list --format md``), which a test keeps in sync with the
registry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.experiments.registry import Scenario, all_scenarios, protocol_specs
from repro.experiments.result import (
    RESULT_SCHEMA,
    ExperimentResult,
    validate_result_dict,
)

#: Schema identifier for result-collection payloads.
RESULTS_SCHEMA = "repro.experiments.results/v1"

#: Schema identifier for benchmark-history records (history.jsonl lines).
HISTORY_SCHEMA = "repro.experiments.history/v1"

#: Schema identifier for analyzer reports (owned by repro.analysis.report;
#: duplicated here so dispatching on it does not import the analysis layer).
ANALYSIS_SCHEMA_ID = "repro.analysis.report/v1"

#: Schema identifier for streaming traces (owned by repro.trace.encoding;
#: duplicated here so dispatching on it does not import the trace layer).
#: Trace artifacts are NDJSON — one record per line, hash-chained — so
#: ``repro validate`` feeds whole files to the trace validator; a payload
#: that parsed as a single JSON object is at most a trace's header line.
TRACE_SCHEMA_ID = "repro.trace/v1"

#: Schema identifier for first-divergence trace diffs (owned by
#: repro.trace.diff; duplicated here for the same lazy-dispatch reason).
DIFF_SCHEMA_ID = "repro.trace.diff/v1"


# ----------------------------------------------------------------------
# Result collections
# ----------------------------------------------------------------------


def results_payload(
    results: Iterable[ExperimentResult],
    header: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The uniform collection payload (sweeps, benchmarks, CI smoke)."""
    payload: Dict[str, Any] = {"schema": RESULTS_SCHEMA, "kind": "results"}
    if header:
        payload.update({k: v for k, v in header.items() if k not in payload})
    payload["results"] = [r.to_dict() for r in results]
    return payload


def write_results_json(
    path: Union[str, Path],
    results: Iterable[ExperimentResult],
    header: Optional[Mapping[str, Any]] = None,
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(results_payload(results, header), indent=2, sort_keys=True) + "\n")
    return path


def write_bench_json(
    scenario: str,
    results: Iterable[ExperimentResult],
    directory: Union[str, Path],
    header: Optional[Mapping[str, Any]] = None,
) -> Path:
    """The shared benchmark artifact writer: ``BENCH_<scenario>.json``."""
    return write_results_json(
        Path(directory) / f"BENCH_{scenario}.json", results, header
    )


def _validate_results_collection(data: Mapping) -> List[str]:
    errors: List[str] = []
    results = data.get("results")
    if not isinstance(results, list):
        return ["results must be an array"]
    for i, entry in enumerate(results):
        errors.extend(f"results[{i}]: {e}" for e in validate_result_dict(entry))
    return errors


def _validate_analysis(data: Mapping) -> List[str]:
    # Imported lazily: repro.analysis.report imports this module's
    # sibling registry, and eager cross-imports would cycle.
    from repro.analysis.report import validate_analysis_payload

    return validate_analysis_payload(data)


def _validate_trace_header(data: Mapping) -> List[str]:
    # A complete trace never parses as one JSON object (it is NDJSON
    # with at least a header and an end anchor), so this branch sees a
    # lone header record: re-encode canonically and run the full trace
    # validator, which reports what is missing. Imported lazily to
    # keep the experiment layer free of the trace layer.
    from repro.trace.encoding import encode_line
    from repro.trace.reader import validate_trace_bytes

    return validate_trace_bytes(encode_line(dict(data)))


def _validate_diff(data: Mapping) -> List[str]:
    from repro.trace.diff import validate_diff_payload

    return validate_diff_payload(dict(data))


def known_schemas() -> Dict[str, Any]:
    """The schema-id registry ``repro validate`` dispatches on.

    Maps every known schema id to its validator callable. A single source
    of truth: the dispatch in :func:`validate_payload` *and* the
    unknown-schema error message both derive from this mapping, so a newly
    registered schema is automatically named in the error.
    """
    return {
        RESULT_SCHEMA: validate_result_dict,
        RESULTS_SCHEMA: _validate_results_collection,
        HISTORY_SCHEMA: validate_history_record,
        ANALYSIS_SCHEMA_ID: _validate_analysis,
        TRACE_SCHEMA_ID: _validate_trace_header,
        DIFF_SCHEMA_ID: _validate_diff,
    }


def validate_payload(data: Any) -> List[str]:
    """Validate one emitted JSON payload against its declared schema.

    Dispatches on ``data["schema"]`` through :func:`known_schemas`;
    ``[]`` = valid. Unknown (or missing) schema ids name the full known
    registry instead of a bare rejection.
    """
    if not isinstance(data, Mapping):
        return [f"expected a JSON object, got {type(data).__name__}"]
    registry = known_schemas()
    validator = registry.get(data.get("schema"))
    if validator is None:
        known = ", ".join(repr(schema) for schema in registry)
        return [
            f"unknown schema {data.get('schema')!r} (known schemas: {known})"
        ]
    return validator(data)


# ----------------------------------------------------------------------
# Benchmark history (benchmarks/history.jsonl)
# ----------------------------------------------------------------------


def history_record(
    bench: str,
    results: Iterable[ExperimentResult],
    git_sha: Optional[str] = None,
    recorded_at: Optional[str] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One normalized perf-trajectory record for a bench run.

    Aggregates the run's deterministic counters (evaluations, events, raw
    steps — the regression-gateable numbers) and its advisory total wall
    time, stamped with the git SHA the run was taken at. ``extra`` merges
    additional bench-specific scalars (speedup factors, cache hit counts)
    and may fill normalized fields the results left unset — benches whose
    artifact is not an ``ExperimentResult`` collection pass ``results=[]``
    and supply their counters directly — but never overrides a counter
    the results did determine.
    """
    results = list(results)

    def total(attr: str) -> Optional[int]:
        values = [getattr(r, attr) for r in results if getattr(r, attr) is not None]
        return sum(values) if values else None

    record: Dict[str, Any] = {
        "schema": HISTORY_SCHEMA,
        "bench": bench,
        "scenarios": sorted({r.scenario for r in results}),
        "trials": len(results),
        "evaluations": total("evaluations"),
        "events": total("events"),
        "raw_steps": total("raw_steps"),
        "wall_time": sum(r.wall_time for r in results) if results else None,
        "git_sha": git_sha,
        "recorded_at": recorded_at,
    }
    if extra:
        for key, value in extra.items():
            if key not in record or record[key] is None:
                record[key] = value
    return record


#: Required history-record fields: name -> (allowed types, nullable).
_HISTORY_FIELDS: Dict[str, Any] = {
    "bench": ((str,), False),
    "scenarios": ((list,), False),
    "trials": ((int,), False),
    "evaluations": ((int,), True),
    "events": ((int,), True),
    "raw_steps": ((int,), True),
    "wall_time": ((int, float), True),
    "git_sha": ((str,), True),
    "recorded_at": ((str,), True),
}


def validate_history_record(record: Any) -> List[str]:
    """Validate one ``history.jsonl`` record; [] = valid.

    The perf-trajectory gate only works if every appended line stays
    machine-comparable, so the benchmark conftest validates each record
    at append time with this function.
    """
    if not isinstance(record, Mapping):
        return [f"expected a JSON object, got {type(record).__name__}"]
    errors: List[str] = []
    if record.get("schema") != HISTORY_SCHEMA:
        errors.append(
            f"schema must be {HISTORY_SCHEMA!r}, got {record.get('schema')!r}"
        )
    for key, (types, nullable) in _HISTORY_FIELDS.items():
        if key not in record:
            errors.append(f"missing field {key!r}")
            continue
        value = record[key]
        if value is None:
            if not nullable:
                errors.append(f"{key} must not be null")
            continue
        if isinstance(value, bool) or not isinstance(value, types):
            names = "/".join(t.__name__ for t in types)
            errors.append(f"{key} must be {names}, got {type(value).__name__}")
    scenarios = record.get("scenarios")
    if isinstance(scenarios, list):
        for i, name in enumerate(scenarios):
            if not isinstance(name, str):
                errors.append(f"scenarios[{i}] must be a string")
    return errors


def append_history(
    path: Union[str, Path],
    bench: str,
    results: Iterable[ExperimentResult],
    git_sha: Optional[str] = None,
    recorded_at: Optional[str] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Append one :func:`history_record` line to ``path`` (JSONL).

    This is the seed of the perf-trajectory gate: every bench run appends
    exactly one normalized record, so regressions are a diff over
    ``benchmarks/history.jsonl`` instead of archaeology over ad-hoc
    artifact shapes.
    """
    record = history_record(bench, results, git_sha, recorded_at, extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


# ----------------------------------------------------------------------
# Scenario index (repro list / describe, EXPERIMENTS.md)
# ----------------------------------------------------------------------


def _param_cell(scenario: Scenario) -> str:
    parts = []
    for p in scenario.params:
        spec = f"{p.name}={p.default!r}"
        if p.choices is not None:
            spec += f" ∈ {{{', '.join(str(c) for c in p.choices)}}}"
        parts.append(spec)
    return ", ".join(parts) if parts else "—"


def _rng_cell(scenario: Scenario) -> str:
    if scenario.deterministic:
        return "deterministic"
    return "seeded + scheduler" if scenario.schedulable else "seeded"


def format_scenario_list(fmt: str = "text") -> str:
    """The scenario index, as plain text or as Markdown (EXPERIMENTS.md)."""
    scenarios = all_scenarios()
    if fmt == "text":
        width = max(len(s.name) for s in scenarios)
        lines = [f"{s.name:<{width}}  {s.summary}" for s in scenarios]
        return "\n".join(lines)
    if fmt == "md":
        lines = [
            "# EXPERIMENTS — registered scenarios",
            "",
            "Generated from the scenario registry (`repro list --format md`);",
            "`tests/test_experiments.py` fails when this file drifts from the",
            "registry. Run any row with `repro run <name>`, grids with",
            "`repro sweep <name>`; `repro describe <name>` prints the full",
            "parameter schema. `repro sweep --cache` serves repeated trials",
            "from the content-addressed trial store (provenance-verified on",
            "load), and the same store backs the long-running sweep service:",
            "`repro serve` + `repro submit / status / fetch`. Any run records",
            "to a streaming trace (`repro record <name>`), replays bit-exactly",
            "(`repro replay`), and diffs against another trace or a live",
            "re-simulation to the first diverging event (`repro diff`); the",
            "committed golden set replays under `repro goldens check`.",
            "",
            "| scenario | summary | params (defaults) | randomness | tags |",
            "|---|---|---|---|---|",
        ]
        for s in scenarios:
            lines.append(
                f"| `{s.name}` | {s.summary} | {_param_cell(s)} "
                f"| {_rng_cell(s)} | {', '.join(s.tags) or '—'} |"
            )
        lines += [
            "",
            "Every public `run_*` workload entrypoint in the library is",
            "reachable through one of these scenarios (`covers` fields,",
            "enforced by the registry-completeness test); results share the",
            "`ExperimentResult` schema of `repro.experiments.result`.",
            "",
        ]
        return "\n".join(lines)
    raise ValueError(f"unknown list format {fmt!r} (expected 'text' or 'md')")


def describe_scenario(scenario: Scenario) -> str:
    """Human-readable schema dump for ``repro describe <name>``."""
    lines = [
        f"{scenario.name} — {scenario.summary}",
        f"  tags:        {', '.join(scenario.tags) or '—'}",
        f"  randomness:  {_rng_cell(scenario)}",
        f"  covers:      {', '.join(scenario.covers) or '—'}",
        "  params:",
    ]
    if not scenario.params:
        lines.append("    (none)")
    for p in scenario.params:
        extra = f", choices {list(p.choices)}" if p.choices is not None else ""
        lines.append(
            f"    --{p.name.replace('_', '-')} ({p.type}, default {p.default!r}{extra})"
            + (f": {p.help}" if p.help else "")
        )
    if scenario.protocols:
        # Scheduler-driven scenarios report the candidate backend (the one
        # columnar store, which every compiled program runs on, exact or
        # handler-lowered) and their compiled programs: state count, rule
        # count and hot-state set of the packed IR the schedulers
        # dispatch on (repro.core.program).
        from repro.analysis.protocol import analyze_protocol
        from repro.core.columnar import backend_name

        lines.append(f"  backend:     {backend_name()}")
        lines.append("  protocols:")
        for spec in protocol_specs(scenario):
            protocol = spec.factory()
            program = protocol.program
            name = getattr(protocol, "name", type(protocol).__name__)
            lines.append(f"    {name}: {program.describe()}")
            report = analyze_protocol(protocol, extra_initial=spec.extra_initial)
            lines.append(f"      analysis: {report.summary()}")
    return "\n".join(lines)
