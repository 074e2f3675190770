"""Scenario adapters for the §5.2–§6 constructors (``repro.constructors``).

Registered into ``repro.experiments.registry``; see that module for the
adapter contract. Covers counting-on-a-line, Square-/Cube-Knowing-n, the
Theorem 4 universal shape constructor, Remark 4 patterns, the Theorem 5/6
parallelizations, and the full count → square → simulate → release
universal pipeline.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.constructors.counting_line import (
    counting_line_protocol,
    run_counting_on_a_line,
)
from repro.constructors.cube import run_cube_known_n
from repro.constructors.parallel import run_parallel_3d, run_parallel_segments
from repro.constructors.square_known_n import run_square_known_n
from repro.constructors.tm_construction import (
    run_pattern_construction,
    run_shape_construction,
)
from repro.constructors.universal import run_universal
from repro.core.scheduler import make_scheduler
from repro.core.simulator import StopReason
from repro.experiments.registry import (
    Param,
    ProtocolSpec,
    ScenarioOutcome,
    scenario,
)
from repro.protocols.replication import self_replicating_lines_protocol
from repro.machines.shape_programs import PATTERN_CATALOGUE, SHAPE_CATALOGUE
from repro.viz.ascii_art import render_labels, render_layers, render_shape

_SHAPE_PARAM = Param(
    "shape",
    "str",
    "star",
    choices=tuple(sorted(SHAPE_CATALOGUE)),
    help="named shape program from the catalogue",
)


@scenario(
    name="counting-line",
    summary="§5.2 Counting-on-a-Line: count while growing the base line",
    params=(
        Param("n", "int", 32, help="population size"),
        Param("b", "int", 4, help="the leader's head start"),
    ),
    tags=("counting", "constructor", "terminating"),
    schedulable=True,
    covers=("repro.constructors.counting_line.run_counting_on_a_line",),
    protocols=(counting_line_protocol,),
)
def _run_counting_line(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    sched = None if scheduler is None else make_scheduler(scheduler)
    result = run_counting_on_a_line(
        params["n"], b=params["b"], seed=seed, scheduler=sched
    )
    return ScenarioOutcome(
        metrics={
            "n": result.n,
            "b": result.b,
            "r0": result.r0,
            "r1": result.r1,
            "r2": result.r2,
            "line_length": result.line_length,
            "expected_length": result.expected_length,
            "success": result.success,
        },
        events=result.events,
        evaluations=result.evaluations,
        stop_reason=StopReason.PREDICATE,
    )


@scenario(
    name="square",
    summary="§6.2 Square-Knowing-n via self-replicating lines (Lemma 2)",
    params=(Param("n", "int", 36, help="population size (a perfect square)"),),
    tags=("constructor", "2d"),
    covers=("repro.constructors.square_known_n.run_square_known_n",),
    # The rows grow from a pre-built parent line, so the analyzer's
    # closure starts with bonded i/e structure states alongside the
    # protocol's own initial/leader states.
    protocols=(
        ProtocolSpec(self_replicating_lines_protocol, extra_initial=("i", "e")),
    ),
)
def _run_square(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    result = run_square_known_n(params["n"], seed=seed)
    return ScenarioOutcome(
        metrics={
            "n": result.n,
            "side": result.side,
            "scheduler_events": result.scheduler_events,
            "leader_interactions": result.leader_interactions,
            "total_interactions": result.total_interactions,
            "rows_attached": result.rows_attached,
            "square_nodes": result.square_component().size(),
        },
        events=result.scheduler_events,
        stop_reason=StopReason.PREDICATE,
    )


@scenario(
    name="cube",
    summary="§6.3 Cube-Knowing-n: m slabs stacked along z (3D)",
    params=(Param("m", "int", 3, help="cube side (>= 3)"),),
    tags=("constructor", "3d"),
    covers=("repro.constructors.cube.run_cube_known_n",),
)
def _run_cube(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    m = params["m"]
    result = run_cube_known_n(m**3, seed=seed)
    shape = result.cube_shape()
    return ScenarioOutcome(
        metrics={
            "n": result.n,
            "m": m,
            "side": result.side,
            "scheduler_events": result.scheduler_events,
            "leader_interactions": result.leader_interactions,
            "total_interactions": result.total_interactions,
            "slab_scheduler_events": sum(
                s.scheduler_events for s in result.slabs
            ),
            "full_box": shape.is_full_box(),
        },
        events=result.scheduler_events,
        stop_reason=StopReason.PREDICATE,
        renders={"cube": render_layers(shape)},
    )


@scenario(
    name="shape",
    summary="Theorem 4 universal construction of a named shape on a square",
    params=(
        _SHAPE_PARAM,
        Param("d", "int", 9, help="square dimension"),
    ),
    tags=("constructor", "universal", "tm"),
    deterministic=True,
    covers=("repro.constructors.tm_construction.run_shape_construction",),
)
def _run_shape(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    program = SHAPE_CATALOGUE[params["shape"]]()
    result = run_shape_construction(program, params["d"])
    return ScenarioOutcome(
        metrics={
            "shape": params["shape"],
            "d": result.d,
            "useful_space": result.useful_space,
            "waste": result.waste,
            "interactions": result.interactions,
        },
        events=result.interactions,
        stop_reason=StopReason.PREDICATE,
        renders={"shape": render_shape(result.shape)},
    )


@scenario(
    name="pattern",
    summary="Remark 4 pattern (coloring) construction on a square",
    params=(
        Param(
            "pattern",
            "str",
            "checkerboard",
            choices=tuple(sorted(PATTERN_CATALOGUE)),
            help="named pattern program from the catalogue",
        ),
        Param("d", "int", 8, help="square dimension"),
    ),
    tags=("constructor", "universal", "tm"),
    deterministic=True,
    covers=("repro.constructors.tm_construction.run_pattern_construction",),
)
def _run_pattern(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    program = PATTERN_CATALOGUE[params["pattern"]]()
    colors, interactions = run_pattern_construction(program, params["d"])
    return ScenarioOutcome(
        metrics={
            "pattern": params["pattern"],
            "d": params["d"],
            "colors": len(set(colors.values())),
            "interactions": interactions,
        },
        events=interactions,
        stop_reason=StopReason.PREDICATE,
        renders={"pattern": render_labels(colors)},
    )


@scenario(
    name="universal",
    summary="§6 full pipeline: count, build the square, simulate, release",
    params=(
        _SHAPE_PARAM,
        Param("n", "int", 16, help="population size (>= 9)"),
        Param("b", "int", 4, help="counting head start"),
    ),
    tags=("constructor", "universal", "pipeline"),
    covers=("repro.constructors.universal.run_universal",),
)
def _run_universal_scenario(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    program = SHAPE_CATALOGUE[params["shape"]]()
    result = run_universal(program, params["n"], b=params["b"], seed=seed)
    return ScenarioOutcome(
        metrics={
            "shape": params["shape"],
            "n": result.n,
            "n_estimate": result.n_estimate,
            "count_exact": result.count_exact,
            "d": result.d,
            "counting_events": result.counting_events,
            "square_events": result.square_events,
            "construction_interactions": result.construction_interactions,
            "waste": result.waste,
            "matches": result.matches(program),
        },
        events=result.total_interactions,
        stop_reason=StopReason.PREDICATE,
        renders={"shape": render_shape(result.shape)},
    )


def _parallel_outcome(result, shape_name: str) -> ScenarioOutcome:
    return ScenarioOutcome(
        metrics={
            "shape": shape_name,
            "d": result.d,
            "k": result.k,
            "n": result.n,
            "parallel_interactions": result.parallel_interactions,
            "sequential_interactions": result.sequential_interactions,
            "assembly_interactions": result.assembly_interactions,
            "speedup": result.speedup,
            "waste": result.waste,
        },
        events=result.parallel_interactions,
        stop_reason=StopReason.PREDICATE,
        renders={"shape": render_layers(result.shape)},
    )


@scenario(
    name="parallel-3d",
    summary="Theorem 5 / §6.4.1: parallel construction on the 3D slab",
    params=(
        _SHAPE_PARAM,
        Param("d", "int", 7, help="square dimension"),
    ),
    tags=("constructor", "parallel", "3d"),
    deterministic=True,
    covers=("repro.constructors.parallel.run_parallel_3d",),
)
def _run_parallel_3d_scenario(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    program = SHAPE_CATALOGUE[params["shape"]]()
    result = run_parallel_3d(program, params["d"])
    return _parallel_outcome(result, params["shape"])


@scenario(
    name="parallel-segments",
    summary="§6.4.2: simulate on a flat line, reassemble segments by keys",
    params=(
        _SHAPE_PARAM,
        Param("d", "int", 7, help="square dimension"),
    ),
    tags=("constructor", "parallel", "2d"),
    covers=("repro.constructors.parallel.run_parallel_segments",),
)
def _run_parallel_segments_scenario(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    program = SHAPE_CATALOGUE[params["shape"]]()
    result = run_parallel_segments(program, params["d"], seed=seed)
    return _parallel_outcome(result, params["shape"])
