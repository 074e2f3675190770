"""Cube-Knowing-n: the 3D extension of §6.2's Square-Knowing-n.

The paper introduces the 3D model (six ports, §3) and uses the third
dimension for the parallel slab of §6.4.1; the natural 3D counterpart of
Lemma 2 is the ``m x m x m`` cube on ``n = m³`` nodes. This constructor
stages the paper's own pipeline once per slab:

1. every slab is an ``m x m`` square assembled by the fully
   scheduler-driven Square-Knowing-n run (seed/replica line
   self-replication, Protocol 4 rules — Lemma 2's machinery verbatim);
2. finished slabs are stacked along the z axis by the leader's walk, one
   vertical bond per cell, with every walked cell and activated bond
   charged one interaction (the same explicit-orchestration accounting the
   2D constructor uses for its row attachments).

Why the stacking is orchestrated rather than rule-driven: a node bonding
in 3D may be arbitrarily *twisted* about the bond axis (the model's
rotation freedom, up to four alignments per port pair), so the 2D
replication walk — which steers by its local left/right ports — can
deadlock on a twisted attachment. Within a plane the 2D rules are
unambiguous, hence slabs are built in-plane and the out-of-plane stacking
is the leader's accounted walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.constructors.square_known_n import SquareResult, run_square_known_n
from repro.core.world import World
from repro.geometry.grid import integer_cbrt
from repro.geometry.shape import Shape
from repro.geometry.vec import Vec


@dataclass
class CubeResult:
    """Outcome of a Cube-Knowing-n run."""

    n: int
    side: int
    scheduler_events: int
    leader_interactions: int
    slabs: List[SquareResult]
    world: World

    _cube_cid: int = -1

    @property
    def total_interactions(self) -> int:
        return self.scheduler_events + self.leader_interactions

    def cube_shape(self) -> Shape:
        """The assembled cube as a normalized shape."""
        return self.world.component_shape(self._cube_cid)


def run_cube_known_n(
    n: int,
    seed: Optional[int] = None,
    max_events: int = 5_000_000,
) -> CubeResult:
    """Assemble the ``m x m x m`` cube on ``n = m³`` nodes.

    Each of the ``m`` slabs runs the full scheduler-driven 2D pipeline on
    its own ``m²`` nodes; the leader then stacks them along z. Requires
    ``m >= 3`` (the slab pipeline's replication chain needs side >= 3).
    """
    side, exact = integer_cbrt(n)
    if not exact:
        raise SimulationError(f"n = {n} is not a perfect cube")
    if side < 3:
        raise SimulationError("the replication chain needs side >= 3")
    seed0 = seed if seed is not None else 0

    scheduler_events = 0
    leader_interactions = 0
    slabs: List[SquareResult] = []
    cube_states: Dict[Vec, object] = {}
    for layer in range(side):
        slab = run_square_known_n(side * side, seed=seed0 + layer,
                                  max_events=max_events)
        slabs.append(slab)
        scheduler_events += slab.scheduler_events
        leader_interactions += slab.leader_interactions
        # The slab's square component, normalized to its own frame.
        shape = slab.world.component_shape(slab._square_cid).normalize()
        if len(shape.cells) != side * side:
            raise SimulationError(
                f"slab {layer} has {len(shape.cells)} cells"
            )  # pragma: no cover - guarded by the square run
        for cell in shape.cells:
            target = Vec(cell.x, cell.y, -layer)
            state = "cb_L" if (cell.x, cell.y, layer) == (0, 0, 0) else "cb"
            cube_states[target] = state
        # Stacking walk: the leader crosses the new slab once (side² hops)
        # and activates one vertical bond per cell of the interface.
        leader_interactions += side * side
        if layer > 0:
            leader_interactions += side * side

    world = World(dimension=3)
    world.add_component_from_cells(cube_states)
    cube_cid = next(iter(world.components))
    world.check_invariants()
    cube = world.components[cube_cid]
    if cube.size() != n:
        raise SimulationError(
            f"cube has {cube.size()} nodes, expected {n}"
        )  # pragma: no cover
    shape = world.component_shape(cube_cid)
    if not shape.is_full_box():
        raise SimulationError("assembled component is not a full cube")
    result = CubeResult(
        n=n,
        side=side,
        scheduler_events=scheduler_events,
        leader_interactions=leader_interactions,
        slabs=slabs,
        world=world,
    )
    result._cube_cid = cube_cid
    return result
