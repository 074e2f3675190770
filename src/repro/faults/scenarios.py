"""Scenario adapter for the §8 damage-and-repair workload (``repro.faults``).

Registered into ``repro.experiments.registry``; see that module for the
adapter contract. Mirrors the historical ``repro repair`` command: build
the star blueprint, detach a connected region, then reconstruct it from
the surviving part — detachment and repair share one seeded RNG stream.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

from repro.core.scheduler import make_scheduler
from repro.core.simulator import StopReason
from repro.core.world import World
from repro.experiments.registry import Param, ScenarioOutcome, scenario
from repro.faults.injection import FaultySimulation
from repro.faults.repair import detach_part, repair_shape
from repro.machines.shape_programs import expected_shape, star_program
from repro.protocols.line import spanning_line_protocol
from repro.viz.ascii_art import render_shape, render_world


@scenario(
    name="faulty-line",
    summary="§8 line construction under the random link-breakage adversary",
    params=(
        Param("n", "int", 16, help="population size"),
        Param(
            "break_prob", "float", 0.1,
            help="per-step probability one random active bond snaps",
        ),
        Param(
            "max_breaks", "int", 8,
            help="fault budget: stop injecting after this many breakages",
        ),
        Param(
            "max_steps", "int", 20000,
            help="time-step budget for the damaged run",
        ),
    ),
    tags=("faults", "stabilizing"),
    schedulable=True,
    covers=(),
    protocols=(spanning_line_protocol,),
)
def _run_faulty_line(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    """Drive the spanning-line protocol while the §8 adversary snaps bonds.

    With a bounded fault budget the construction genuinely stabilizes after
    the last setback, so record→replay round trips (``repro record
    faulty-line``) cover the out-of-band detach records of the streaming
    trace subsystem on a run that ends on its own terms.
    """
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(params["n"], protocol, leaders=1)
    sim = FaultySimulation(
        world,
        protocol,
        break_prob=params["break_prob"],
        scheduler=make_scheduler(scheduler) if scheduler else None,
        seed=seed,
        max_bonds_broken=params["max_breaks"],
    )
    result = sim.run(max_steps=params["max_steps"])
    return ScenarioOutcome(
        metrics={
            "n": params["n"],
            "break_prob": params["break_prob"],
            "breakages": len(sim.breakages),
            "events": result.events,
            "largest_component": sim.largest_component_size(),
            "components": len(world.components),
        },
        events=result.events,
        evaluations=sim.evaluations,
        stop_reason=result.reason,
        renders={"line": render_world(world, state_char=lambda s: "#")},
    )


@scenario(
    name="repair",
    summary="§8 robustness: detach part of the star, repair from blueprint",
    params=(
        Param("d", "int", 9, help="square dimension of the star blueprint"),
        Param("fraction", "float", 0.3, help="fraction of cells to detach"),
    ),
    tags=("faults", "repair"),
    covers=("repro.faults.repair.repair_shape",),
)
def _run_repair(
    params: Mapping, seed: Optional[int], scheduler: Optional[str]
) -> ScenarioOutcome:
    blueprint = expected_shape(star_program(), params["d"])
    rng = random.Random(seed)
    damaged, lost = detach_part(blueprint, params["fraction"], rng=rng)
    result = repair_shape(damaged, blueprint, rng=rng)
    return ScenarioOutcome(
        metrics={
            "d": params["d"],
            "fraction": params["fraction"],
            "blueprint_cells": len(blueprint.cells),
            "detached": len(lost),
            "interactions": result.interactions,
            "nodes_attached": result.nodes_attached,
            "bonds_restored": result.bonds_restored,
            "matches_blueprint": result.repaired.cells == blueprint.cells,
        },
        events=result.interactions,
        stop_reason=StopReason.PREDICATE,
        renders={
            "blueprint": render_shape(blueprint),
            "damaged": render_shape(damaged),
            "repaired": render_shape(result.repaired),
        },
    )
