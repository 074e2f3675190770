"""The end-to-end universal constructor (Theorem 4).

Pipeline: (1) Counting-on-a-Line with the Remark 2 exact-count extension
(the leader learns ``n`` w.h.p., stored in binary on its line); (2)
Square-Knowing-n assembles the ``d x d`` square with ``d = floor(sqrt(n))``
(for ``n = d^2`` there is no pre-square waste; otherwise the surplus nodes
remain free, Definition 4's waste); (3) the shape-constructing TM is
simulated on the square's zig-zag tape, one run per pixel; (4) the release
phase isolates the connected on-shape. The run fails — and reports so —
exactly when the counting stage under- or over-estimated ``n``, which
happens with the probability bounded by Theorem 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.constructors.counting_line import run_counting_on_a_line
from repro.constructors.square_known_n import run_square_known_n
from repro.constructors.tm_construction import (
    DistributedTMSquare,
    run_shape_construction,
)
from repro.geometry.grid import integer_sqrt
from repro.geometry.shape import Shape
from repro.machines.shape_programs import ShapeProgram, expected_shape


@dataclass
class UniversalResult:
    """Outcome of the full count -> square -> simulate -> release pipeline."""

    n: int
    n_estimate: int
    d: int
    shape: Shape
    counting_events: int
    square_events: int
    construction_interactions: int
    waste: int

    @property
    def count_exact(self) -> bool:
        return self.n_estimate == self.n

    @property
    def total_interactions(self) -> int:
        return (
            self.counting_events
            + self.square_events
            + self.construction_interactions
        )

    def matches(self, program: ShapeProgram) -> bool:
        """True iff the released shape equals the program's shape for d."""
        return self.shape.same_up_to_translation(expected_shape(program, self.d))


def run_universal(
    program: ShapeProgram,
    n: int,
    b: int = 4,
    seed: Optional[int] = None,
    exact_factor: int = 4,
) -> UniversalResult:
    """Run the universal constructor on ``n`` nodes.

    The three stages run in sequence. In the paper they run on one
    population, each stage starting from the configuration the last one
    left; here each stage is its own world, sized by what the previous
    stage computed (the square is built from ``d * d`` fresh nodes, with
    ``d`` from the counted estimate, and the TM runs on that square), and
    its seed is derived from ``seed``. Gluing the stages this way keeps
    each stage's interaction count separate and leaves the waste, the
    outcome and the failure condition (a miscount) as the paper states
    them. Waste is ``n - |V(G)|``.
    """
    if n < max(9, b + 2):
        raise SimulationError(f"universal construction needs n >= 9, got {n}")
    seed0 = seed if seed is not None else 0
    count = run_counting_on_a_line(
        n, b, seed=seed0, exact_factor=exact_factor
    )
    n_hat = count.r0 + 1  # the leader plus everyone it counted
    d, _exact = integer_sqrt(n_hat)
    if d < 3:
        raise SimulationError("estimated population too small for a square")
    square = run_square_known_n(d * d, seed=seed0 + 1)
    tape = DistributedTMSquare(square.world, square._square_cid, d)
    construction = run_shape_construction(program, d, square=tape)
    return UniversalResult(
        n=n,
        n_estimate=n_hat,
        d=d,
        shape=construction.shape,
        counting_events=count.events,
        square_events=square.total_interactions,
        construction_interactions=construction.interactions,
        waste=n - len(construction.shape.cells),
    )
