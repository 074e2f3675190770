"""The golden-trace regression harness behind ``repro goldens``.

A *golden* is a compact, committed ``repro.trace/v1`` file pinning one
scenario family's exact seeded trajectory (``tests/goldens/``). The check
is two-sided:

1. **replay** — the committed bytes still replay bit-exactly (``--verify``
   semantics: every checkpoint anchor and the final world digest
   recomputed), both header-onwards and checkpoint-seek;
2. **diff against a fresh run** — the *current code* re-records the same
   spec and :func:`~repro.trace.diff.diff_traces` must find the two
   streams identical. Any behavioral change fails naming the exact first
   diverging event instead of a hand-run fingerprint battery.

Specs cover the scenario families: line and square construction
(``demo``'s two runs), §7 line self-replication, the leaderless line,
injected faults/splits, the hybrid Nubot-style walker (move records),
the 3D spanning line, and counting. Scenario-backed specs re-record
through the registry; builder-backed specs construct their simulation
directly under a :func:`~repro.trace.record.recording` context — used
where no registry scenario is both recordable and *replay-faithful*
(the ``square``/``cube`` runners assemble with out-of-band world
surgery the trace vocabulary does not carry).

Regeneration: ``PYTHONPATH=src python -m repro goldens record`` rewrites
every golden (or the named ones). A regenerated golden is a *behavioral
claim change* — justify it in CHANGES.md.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace.diff import DiffResult, diff_traces
from repro.trace.record import record_scenario, recording
from repro.trace.replay import replay_trace
from repro.trace.writer import TraceWriter

#: Default committed location, relative to the repository root.
DEFAULT_GOLDEN_DIR = Path("tests") / "goldens"


@dataclass(frozen=True)
class GoldenSpec:
    """One committed golden: a family, an identity, and how to record it."""

    name: str  #: file stem under the golden directory
    family: str  #: scenario family the golden pins
    summary: str
    scenario: Optional[str] = None  #: registry scenario (None = builder)
    builder: Optional[str] = None  #: key into :data:`BUILDERS`
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    scheduler: Optional[str] = None
    run_index: int = 0
    checkpoint_every: int = 16

    def filename(self) -> str:
        return f"{self.name}.trace"

    def path(self, root: Path) -> Path:
        return Path(root) / self.filename()


# ----------------------------------------------------------------------
# Builder-backed runs (families with no recordable registry scenario)
# ----------------------------------------------------------------------


def _build_leaderless(params: Dict[str, Any], seed: int) -> None:
    from repro.core.simulator import Simulation
    from repro.core.world import World
    from repro.protocols.leaderless_line import (
        leaderless_spanning_line_protocol,
    )

    protocol = leaderless_spanning_line_protocol()
    world = World.of_free_nodes(int(params["n"]), protocol)
    sim = Simulation(world, protocol, seed=seed)
    sim.run_to_stabilization(max_events=int(params.get("max_events", 100_000)))


def _build_hybrid_walker(params: Dict[str, Any], seed: int) -> None:
    from repro.hybrid.movement import (
        HybridSimulation,
        make_walker_world,
        walker_protocol,
    )

    world, _mover, _pivot = make_walker_world()
    sim = HybridSimulation(world, walker_protocol(), seed=seed)
    sim.run(max_events=int(params["max_events"]))


def _build_replication(params: Dict[str, Any], seed: int) -> None:
    # Pure §7 replication: a parent line copies itself into free nodes.
    # (The full ``square`` scenario is not replay-faithful: its runner
    # assembles rows with out-of-band world surgery — ``transplant_line``,
    # conversion walks — that the trace vocabulary does not carry.)
    from repro.core.simulator import Simulation
    from repro.core.world import World
    from repro.protocols.replication import (
        add_line,
        self_replicating_lines_protocol,
    )

    protocol = self_replicating_lines_protocol()
    world = World(dimension=2)
    add_line(world, int(params["side"]), "L")
    for _ in range(int(params["side"])):
        world.add_free_node("q0")
    sim = Simulation(world, protocol, seed=seed)
    # One full replication: the parent's restore walk ends in ``Lstart``.
    sim.run(
        max_events=int(params.get("max_events", 100_000)),
        until=lambda w: bool(w.nodes_in_state("Lstart")),
    )


def _build_line3d(params: Dict[str, Any], seed: int) -> None:
    # §4.1's spanning line generalized verbatim to the 3D model (the
    # ``cube`` scenario's slab assembly is likewise out-of-band surgery).
    from repro.core.simulator import Simulation
    from repro.core.world import World
    from repro.protocols.line import spanning_line_protocol

    protocol = spanning_line_protocol(dimension=3)
    world = World.of_free_nodes(int(params["n"]), protocol, leaders=1)
    sim = Simulation(world, protocol, seed=seed)
    sim.run_to_stabilization(max_events=int(params.get("max_events", 100_000)))


#: Named builders: deterministic (params, seed) -> run-under-recording.
BUILDERS: Dict[str, Callable[[Dict[str, Any], int], None]] = {
    "leaderless-line": _build_leaderless,
    "hybrid-walker": _build_hybrid_walker,
    "replicating-line": _build_replication,
    "spanning-line-3d": _build_line3d,
}


#: The committed golden set, one per scenario family (plus counting).
GOLDENS: Tuple[GoldenSpec, ...] = (
    GoldenSpec(
        "line",
        family="line",
        summary="§4 spanning line (demo run 0)",
        scenario="demo",
        params=(("n", 8),),
        seed=3,
        run_index=0,
        checkpoint_every=4,
    ),
    GoldenSpec(
        "square",
        family="square",
        summary="§6 square construction (demo run 1)",
        scenario="demo",
        params=(("n", 8),),
        seed=3,
        run_index=1,
        checkpoint_every=8,
    ),
    GoldenSpec(
        "replication",
        family="replication",
        summary="§7 self-replicating line copies itself (builder-backed)",
        builder="replicating-line",
        params=(("side", 4),),
        seed=5,
        checkpoint_every=8,
    ),
    GoldenSpec(
        "leaderless",
        family="leaderless",
        summary="§4.1 leaderless spanning line (builder-backed)",
        builder="leaderless-line",
        params=(("n", 8),),
        seed=7,
        checkpoint_every=4,
    ),
    GoldenSpec(
        "faults",
        family="faults",
        summary="injected bond breaks / splits (detach records)",
        scenario="faulty-line",
        params=(("n", 10), ("break_prob", 0.25), ("max_breaks", 3)),
        seed=11,
        checkpoint_every=4,
    ),
    GoldenSpec(
        "hybrid",
        family="hybrid",
        summary="§8 hybrid walker dimer (move records, builder-backed)",
        builder="hybrid-walker",
        params=(("max_events", 12),),
        seed=2,
        checkpoint_every=4,
    ),
    GoldenSpec(
        "line-3d",
        family="3d",
        summary="§4.1 spanning line in the 3D model (builder-backed)",
        builder="spanning-line-3d",
        params=(("n", 8),),
        seed=1,
        checkpoint_every=4,
    ),
    GoldenSpec(
        "counting",
        family="counting",
        summary="§5.2 counting on a line",
        scenario="counting-line",
        params=(("n", 8),),
        seed=9,
        checkpoint_every=32,
    ),
)

#: Families the committed set must span (ISSUE 10's tentpole list).
REQUIRED_FAMILIES = (
    "line",
    "square",
    "replication",
    "leaderless",
    "faults",
    "hybrid",
    "3d",
)


def golden_specs(names: Optional[Iterable[str]] = None) -> List[GoldenSpec]:
    """The selected specs (all by default); unknown names raise."""
    if names is None:
        return list(GOLDENS)
    by_name = {spec.name: spec for spec in GOLDENS}
    selected = []
    for name in names:
        if name not in by_name:
            known = ", ".join(sorted(by_name))
            raise TraceError(f"unknown golden {name!r} (known: {known})")
        selected.append(by_name[name])
    return selected


# ----------------------------------------------------------------------
# Record / check
# ----------------------------------------------------------------------


def record_golden(spec: GoldenSpec, path: Path) -> TraceWriter:
    """Record ``spec``'s run to ``path``; returns the finalized writer."""
    params = dict(spec.params)
    if spec.scenario is not None:
        _result, writer = record_scenario(
            spec.scenario,
            params=params,
            seed=spec.seed,
            scheduler=spec.scheduler,
            path=path,
            run_index=spec.run_index,
            checkpoint_every=spec.checkpoint_every,
        )
        return writer
    if spec.builder is None:
        raise TraceError(f"golden {spec.name!r} has neither scenario nor builder")
    builder = BUILDERS[spec.builder]
    writer = TraceWriter(
        path,
        scenario=None,
        params=params,
        seed=spec.seed,
        scheduler=spec.scheduler,
        run_index=spec.run_index,
        checkpoint_every=spec.checkpoint_every,
    )
    try:
        with recording(writer):
            builder(params, spec.seed)
    except BaseException:
        writer.abort()
        raise
    writer.finalize()
    return writer


#: The failure epilogue every check message ends with.
REGENERATE_HINT = (
    "If this behavioral change is intentional, regenerate with "
    "`PYTHONPATH=src python -m repro goldens record` and justify the "
    "trajectory change in CHANGES.md."
)


@dataclass
class GoldenReport:
    """One golden's check outcome."""

    name: str
    ok: bool
    message: str
    events: int = 0
    diff: Optional[DiffResult] = None


def check_golden(spec: GoldenSpec, path: Path) -> GoldenReport:
    """Replay a committed golden bit-exactly, then diff vs a fresh run."""
    path = Path(path)
    if not path.exists():
        return GoldenReport(
            spec.name,
            ok=False,
            message=(
                f"golden {spec.name!r} missing at {path}; record it with "
                "`PYTHONPATH=src python -m repro goldens record`"
            ),
        )
    try:
        full = replay_trace(path, verify=True, use_checkpoints=False)
        seek = replay_trace(path, verify=True, use_checkpoints=True)
    except TraceError as exc:
        return GoldenReport(
            spec.name,
            ok=False,
            message=f"golden {spec.name!r} failed verified replay: {exc}. "
            + REGENERATE_HINT,
        )
    if full.digest != seek.digest:
        return GoldenReport(
            spec.name,
            ok=False,
            message=(
                f"golden {spec.name!r}: header-onwards and checkpoint-seek "
                f"replays disagree ({full.digest[:12]} vs {seek.digest[:12]})"
            ),
        )
    with tempfile.TemporaryDirectory(prefix="repro-goldens-") as tmp:
        fresh = Path(tmp) / spec.filename()
        record_golden(spec, fresh)
        diff = diff_traces(
            path, fresh, label_a=str(path), label_b=f"fresh:{spec.name}"
        )
    if not diff.identical:
        assert diff.divergence is not None
        return GoldenReport(
            spec.name,
            ok=False,
            message=(
                f"golden {spec.name!r} no longer reproduces: "
                f"{diff.describe()}. The current code's trajectory changed. "
                + REGENERATE_HINT
            ),
            events=full.events,
            diff=diff,
        )
    return GoldenReport(
        spec.name,
        ok=True,
        message=(
            f"golden {spec.name!r}: {full.events} events replayed "
            f"bit-exactly ({full.checkpoints_verified} anchors) and a fresh "
            "run diffs identical"
        ),
        events=full.events,
        diff=diff,
    )


def check_goldens(
    root: Path, names: Optional[Iterable[str]] = None
) -> List[GoldenReport]:
    """Check every selected golden under ``root``."""
    return [check_golden(spec, spec.path(root)) for spec in golden_specs(names)]


def record_goldens(
    root: Path, names: Optional[Iterable[str]] = None
) -> List[Tuple[GoldenSpec, TraceWriter]]:
    """(Re)record every selected golden under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    out = []
    for spec in golden_specs(names):
        writer = record_golden(spec, spec.path(root))
        out.append((spec, writer))
    return out
