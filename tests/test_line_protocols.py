"""§4.1 spanning line protocols: stable construction of the line."""

import pytest

from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.protocols.line import simple_line_protocol, spanning_line_protocol


def under_both_schedulers(values):
    """Each value under the uniform ``hot`` scheduler (keeping its plain
    test id) and under the deterministic fair ``round-robin`` adversary.

    The analyzer proves these protocols stabilize independently of the
    scheduler, so the fair adversary must reach the same shape."""
    return [pytest.param(v, "hot", id=str(v)) for v in values] + [
        pytest.param(v, "round-robin", id=f"{v}-round-robin") for v in values
    ]


@pytest.mark.parametrize("n,scheduler", under_both_schedulers([2, 3, 6, 10, 15]))
def test_spanning_line_stabilizes_to_a_line(n, scheduler):
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(n, protocol, leaders=1)
    sim = Simulation(
        world,
        protocol,
        scheduler=make_scheduler(scheduler),
        seed=n * 7 + 1,
        check_invariants=True,
    )
    res = sim.run_to_stabilization(max_events=100_000)
    assert res.events == n - 1  # exactly one effective interaction per node
    assert len(world.components) == 1
    shape = world.component_shape(next(iter(world.components)))
    assert len(shape.cells) == n
    assert shape.is_line()


def test_spanning_line_output_shape_is_the_line():
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(7, protocol, leaders=1)
    Simulation(world, protocol, seed=2).run_to_stabilization()
    shapes = world.output_shapes(protocol)
    assert len(shapes) == 1 and shapes[0].is_line()


@pytest.mark.parametrize("seed", range(5))
def test_spanning_line_for_many_seeds(seed):
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(8, protocol, leaders=1)
    Simulation(world, protocol, seed=seed).run_to_stabilization()
    assert world.component_shape(next(iter(world.components))).is_line()


def test_simple_variant_also_builds_a_line():
    protocol = simple_line_protocol()
    world = World.of_free_nodes(6, protocol, leaders=1)
    sim = Simulation(world, protocol, seed=4, check_invariants=True)
    sim.run_to_stabilization(max_events=100_000)
    shape = world.component_shape(next(iter(world.components)))
    assert shape.is_line() and len(shape.cells) == 6


def test_simple_variant_is_slower_in_raw_steps():
    """The simplified protocol needs r-l meetings only, so under the exact
    uniform scheduler it spends more raw steps per expansion."""
    from repro.core.scheduler import EnumeratingScheduler

    def raw_steps(factory, seed):
        protocol = factory()
        world = World.of_free_nodes(6, protocol, leaders=1)
        sim = Simulation(
            world, protocol, scheduler=EnumeratingScheduler(), seed=seed
        )
        return sim.run_to_stabilization(max_events=100_000).raw_steps

    general = sum(raw_steps(spanning_line_protocol, s) for s in range(8))
    simple = sum(raw_steps(simple_line_protocol, s) for s in range(8))
    assert simple > general


def test_protocol_sizes():
    assert spanning_line_protocol().size == 6  # 4 leader states + q0 + q1
    assert simple_line_protocol().size == 3


class Test3DSpanningLine:
    """§4.1 generalizes to the 3D model verbatim (six ports)."""

    def test_3d_line_stabilizes_straight(self):
        from repro.core.simulator import Simulation
        from repro.core.world import World
        from repro.protocols.line import spanning_line_protocol

        protocol = spanning_line_protocol(dimension=3)
        assert protocol.dimension == 3
        assert len(protocol.rules) == 36  # 6 x 6 port combinations
        for seed in range(3):
            world = World.of_free_nodes(7, protocol, leaders=1)
            result = Simulation(world, protocol, seed=seed).run_to_stabilization()
            assert result.events == 6
            shapes = world.output_shapes(protocol)
            assert len(shapes) == 1
            assert shapes[0].is_line()
            assert len(shapes[0]) == 7
            world.check_invariants()

    def test_2d_protocol_unchanged_by_default(self):
        from repro.protocols.line import spanning_line_protocol

        protocol = spanning_line_protocol()
        assert protocol.dimension == 2
        assert len(protocol.rules) == 16
        assert protocol.name == "spanning-line"
