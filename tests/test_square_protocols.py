"""§4.2: Protocol 1 (Square) and Protocol 2 (Square2)."""

import math

import pytest

from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.protocols.square import square_protocol
from repro.protocols.square2 import square2_protocol


def under_both_schedulers(values):
    """Each value under the uniform ``hot`` scheduler (keeping its plain
    test id) and under the deterministic fair ``round-robin`` adversary.

    The analyzer proves these protocols stabilize independently of the
    scheduler, so the fair adversary must reach the same shape."""
    return [pytest.param(v, "hot", id=str(v)) for v in values] + [
        pytest.param(v, "round-robin", id=f"{v}-round-robin") for v in values
    ]


def _single_component_shape(world):
    assert len(world.components) == 1
    return world.component_shape(next(iter(world.components)))


@pytest.mark.parametrize("n,scheduler", under_both_schedulers([4, 9, 16, 25]))
def test_protocol1_builds_spanning_square(n, scheduler):
    protocol = square_protocol()
    world = World.of_free_nodes(n, protocol, leaders=1)
    sim = Simulation(
        world,
        protocol,
        scheduler=make_scheduler(scheduler),
        seed=n,
        check_invariants=True,
    )
    sim.run_to_stabilization(max_events=100_000)
    shape = _single_component_shape(world)
    d = math.isqrt(n)
    xs = {c.x for c in shape.cells}
    ys = {c.y for c in shape.cells}
    assert len(shape.cells) == n and len(xs) == d and len(ys) == d


def test_protocol1_spiral_is_deterministic_in_shape():
    """The leader has exactly one growth move at a time, so the final shape
    is the same for every seed (only attachment identities differ)."""
    shapes = set()
    protocol = square_protocol()
    for seed in range(4):
        world = World.of_free_nodes(9, protocol, leaders=1)
        Simulation(world, protocol, seed=seed).run_to_stabilization()
        shapes.add(
            tuple(sorted(_single_component_shape(world).normalize().cells))
        )
    assert len(shapes) == 1


@pytest.mark.parametrize("phase,scheduler", under_both_schedulers([1, 2, 3]))
def test_protocol2_phases_match_figure_2(phase, scheduler):
    """With n = 4 p^2 + 4 nodes Square2 stabilizes to the (2p)x(2p) square
    plus the 4 protruding next-phase marks."""
    n = 4 * phase * phase + 4
    side = 2 * phase
    protocol = square2_protocol()
    world = World.of_free_nodes(n, protocol, leaders=1)
    sim = Simulation(
        world,
        protocol,
        scheduler=make_scheduler(scheduler),
        seed=n * 3 + 1,
        check_invariants=True,
    )
    sim.run_to_stabilization(max_events=100_000)
    shape = _single_component_shape(world)
    cells = {(c.x, c.y) for c in shape.cells}
    assert len(cells) == n
    found_square = any(
        all((x0 + i, y0 + j) in cells for i in range(side) for j in range(side))
        for x0, _ in cells
        for _, y0 in cells
    )
    assert found_square
    # Exactly four mark cells protrude.
    assert len(cells) - side * side == 4


def test_protocol2_phase1_attachment_count():
    """Phase 1 of Figure 2: exactly 7 attachments build the 2x2 core plus
    its four turning marks."""
    protocol = square2_protocol()
    world = World.of_free_nodes(8, protocol, leaders=1)
    sim = Simulation(world, protocol, seed=12)
    res = sim.run_to_stabilization(max_events=10_000)
    # 7 attachments plus the rigidity bondings that become possible.
    assert res.events >= 7
    assert len(world.components) == 1


def test_protocol2_more_states_than_protocol1():
    # The price of the turning-mark speedup is a bigger protocol.
    assert square2_protocol().size > square_protocol().size
