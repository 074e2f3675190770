"""Shared helpers for the benchmark harness.

Each benchmark regenerates one experiment of the registered scenario index
in EXPERIMENTS.md (the generated `repro list --format md` catalogue) and
prints the paper-style rows (run ``pytest benchmarks/ --benchmark-only -s``
to see them). Assertions encode the *shape* of the paper's claims — who
wins, by roughly what factor — not absolute timings.

Migrated benchmarks drive the declarative experiment layer
(``repro.experiments``): they build ``ExperimentSpec`` / ``SweepSpec``
objects, read ``ExperimentResult.metrics``, and emit their artifacts as
``BENCH_<scenario>.json`` through the one shared writer
(:func:`write_bench`) so every artifact validates against the same result
schema as ``repro sweep --json``.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path

import pytest

#: Where BENCH_<scenario>.json artifacts land (next to the benchmarks).
BENCH_DIR = Path(__file__).parent

#: The committed perf-trajectory log: one normalized record per bench run.
HISTORY_PATH = BENCH_DIR / "history.jsonl"


def print_table(title: str, header: str, rows) -> None:
    print(f"\n== {title} ==")
    print(header)
    for row in rows:
        print(row)


#: The files the benches rewrite themselves, as exclude pathspecs anchored
#: at the repository top: rewriting them does not make a tree dirty.
SELF_WRITTEN = (
    ":(top,exclude,glob)benchmarks/BENCH_*.json",
    ":(top,exclude)benchmarks/history.jsonl",
)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=BENCH_DIR,
        capture_output=True,
        text=True,
        check=True,
        timeout=30,
    ).stdout.strip()


def git_sha() -> str | None:
    """The current commit, ``<sha>-dirty`` when a tracked file other than
    the benches' own artifacts differs from it, or ``None`` outside a git
    checkout."""
    try:
        sha = _git("rev-parse", "HEAD")
        changed = _git(
            "status", "--porcelain", "--untracked-files=no", "--", ":/",
            *SELF_WRITTEN,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return f"{sha}-dirty" if changed else sha


def write_bench(scenario: str, results, header=None) -> Path:
    """Emit ``BENCH_<scenario>.json`` via the shared schema-validated writer.

    Every emission also appends one normalized record (scenario,
    deterministic counters, wall time, git SHA) to
    ``benchmarks/history.jsonl`` — the perf-trajectory log the regression
    gate compares against.
    """
    from repro.experiments import append_history, write_bench_json

    results = list(results)
    path = write_bench_json(scenario, results, BENCH_DIR, header)
    record = append_history(
        HISTORY_PATH,
        scenario,
        results,
        git_sha=git_sha(),
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        extra=header,
    )
    _assert_history_record_valid(scenario, record)
    return path


def append_raw_history(bench: str, **counters) -> None:
    """History record for a bench whose artifact is not a result payload.

    The direct-artifact benches (geometry, dispatch, splits) measure
    kernel comparisons rather than scenario trials; they pass their
    normalized counters (``evaluations``, ``events``, ``wall_time``,
    speedups) explicitly and still land one record per run in
    ``history.jsonl``.
    """
    from repro.experiments import append_history

    record = append_history(
        HISTORY_PATH,
        bench,
        [],
        git_sha=git_sha(),
        recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        extra=counters,
    )
    _assert_history_record_valid(bench, record)


def _assert_history_record_valid(bench: str, record: dict) -> None:
    """Schema-validate a just-appended ``history.jsonl`` record.

    The perf-trajectory gate is only as good as the log's uniformity, so
    a malformed append fails the emitting bench immediately instead of
    poisoning the committed history.
    """
    from repro.experiments.io import validate_history_record

    errors = validate_history_record(record)
    assert not errors, (
        f"bench {bench!r} appended an invalid history record: "
        + "; ".join(errors)
    )


def _untracked_bench_artifacts():
    """Emitted-on-disk artifacts that git does not track.

    Every benchmark that emits an artifact must have that artifact
    committed, so the repository always carries the current normalized
    set — an emitted-but-untracked file means a bench drifted. Covers the
    ``BENCH_*.json`` snapshots and the ``history.jsonl`` trajectory log.
    """
    try:
        tracked = subprocess.run(
            ["git", "ls-files", "BENCH_*.json", HISTORY_PATH.name],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return []  # no git (sdist, bare checkout): nothing to enforce
    on_disk = sorted(BENCH_DIR.glob("BENCH_*.json"))
    if HISTORY_PATH.exists():
        on_disk.append(HISTORY_PATH)
    return sorted(p.name for p in on_disk if p.name not in tracked)


@pytest.fixture(scope="session", autouse=True)
def _bench_artifact_drift_guard():
    """Fail the session when a bench emitted an uncommitted artifact.

    A teardown failure (not ``pytest_sessionfinish``, whose exit status
    pytest snapshots before the hook runs) is what reliably turns into a
    non-zero exit code.
    """
    yield
    untracked = _untracked_bench_artifacts()
    assert not untracked, (
        "benchmark artifacts exist on disk but are not committed: "
        + ", ".join(untracked)
        + " — run `git add benchmarks/BENCH_*.json benchmarks/history.jsonl` "
        "so the tracked set stays in sync with what the benches emit"
    )
