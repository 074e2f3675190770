"""Tests for fault injection and self-repair (repro.faults, §8)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import Rule, RuleProtocol
from repro.core.world import World
from repro.errors import ReproError, SimulationError
from repro.experiments import ExperimentSpec, run_experiment
from repro.faults.injection import (
    FaultySimulation,
    break_random_bond,
    random_active_bonds,
)
from repro.faults.repair import (
    damage_statistics,
    detach_part,
    repair_shape,
)
from repro.geometry.random_shapes import random_connected_shape
from repro.geometry.shape import Shape
from repro.geometry.vec import Vec
from repro.protocols.line import spanning_line_protocol


def line_world(n: int) -> World:
    """A pre-built horizontal line of n bonded nodes plus nothing else."""
    world = World(2)
    world.add_component_from_cells({Vec(i, 0): "q1" for i in range(n)})
    return world


def gluing_protocol() -> RuleProtocol:
    """Any two facing q1 ports bond (the rigidity rules of Protocol 2)."""
    from repro.geometry.ports import PORTS_2D, opposite

    rules = [
        Rule("q1", p, "q1", opposite(p), 0, "q1", "q1", 1) for p in PORTS_2D
    ]
    return RuleProtocol(rules, initial_state="q1", name="gluing")


def square_shape(d: int) -> Shape:
    return Shape.from_cells([Vec(x, y) for x in range(d) for y in range(d)])


# ----------------------------------------------------------------------
# break_random_bond
# ----------------------------------------------------------------------


class TestBreakRandomBond:
    def test_no_bonds_returns_none(self):
        world = World(2)
        world.add_free_node("q0")
        world.add_free_node("q0")
        assert break_random_bond(world, random.Random(0)) is None

    def test_breaking_line_bond_splits_component(self):
        world = line_world(5)
        assert len(world.components) == 1
        bond = break_random_bond(world, random.Random(3))
        assert bond is not None
        assert len(world.components) == 2
        world.check_invariants()

    def test_all_bonds_eventually_break(self):
        world = line_world(6)
        rng = random.Random(1)
        for _ in range(5):
            assert break_random_bond(world, rng) is not None
        assert break_random_bond(world, rng) is None
        assert len(world.components) == 6
        world.check_invariants()

    def test_breaking_square_bond_may_keep_component_connected(self):
        # A 2x2 block has 4 bonds; removing one leaves a connected C-shape.
        world = World(2)
        world.add_component_from_cells(
            {Vec(0, 0): "a", Vec(1, 0): "b", Vec(0, 1): "c", Vec(1, 1): "d"}
        )
        break_random_bond(world, random.Random(0))
        assert len(world.components) == 1
        world.check_invariants()

    def test_random_active_bonds_lists_every_bond(self):
        world = line_world(7)
        bonds = random_active_bonds(world)
        assert len(bonds) == 6
        cids = {cid for cid, _ in bonds}
        assert cids == set(world.components)


# ----------------------------------------------------------------------
# FaultySimulation
# ----------------------------------------------------------------------


class TestFaultySimulation:
    def test_zero_probability_behaves_like_plain_simulation(self):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(8, protocol, leaders=1)
        sim = FaultySimulation(world, protocol, break_prob=0.0, seed=0)
        res = sim.run(max_steps=10_000)
        assert res.stabilized
        assert not sim.breakages
        shapes = world.output_shapes(protocol)
        assert len(shapes) == 1 and shapes[0].is_line()
        assert len(shapes[0]) == 8

    def test_rejects_bad_probability(self):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(4, protocol, leaders=1)
        with pytest.raises(SimulationError):
            FaultySimulation(world, protocol, break_prob=1.5)

    def test_perpetual_breakage_never_stabilizes(self):
        # §8: under a perpetual setback no construction can ever stabilize.
        # Use a protocol whose nodes keep re-gluing (q1 bonds any facing
        # q1): the fault coin keeps snapping bonds, the protocol keeps
        # re-forming them, and the execution never quiesces. The line
        # protocol would instead burn down to a dead fragment state (see
        # test_damage_is_permanent_for_the_line_protocol).
        protocol = gluing_protocol()
        world = World(2)
        for _ in range(8):
            world.add_free_node("q1")
        sim = FaultySimulation(world, protocol, break_prob=0.3, seed=2)
        res = sim.run(max_steps=2000)
        assert not res.stabilized
        assert res.reason == "budget"
        assert sim.breakages

    def test_line_protocol_burns_down_to_dead_state(self):
        # The complementary outcome: a protocol that cannot re-absorb its
        # q1 fragments eventually reaches a state faults cannot revive.
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(10, protocol, leaders=1)
        sim = FaultySimulation(world, protocol, break_prob=0.3, seed=2)
        res = sim.run(max_steps=3000)
        if res.stabilized:
            # Dead state: no bonds remain for faults to snap, and the
            # spanning line was certainly not constructed.
            assert all(not c.bonds for c in world.components.values())
            shapes = world.output_shapes(protocol)
            assert not any(len(s) == 10 and s.is_line() for s in shapes)

    def test_fault_budget_allows_restabilization(self):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(10, protocol, leaders=1)
        sim = FaultySimulation(
            world, protocol, break_prob=0.5, seed=4, max_bonds_broken=3
        )
        res = sim.run(max_steps=50_000)
        assert res.stabilized
        assert len(sim.breakages) == 3
        world.check_invariants()

    def test_damage_is_permanent_for_the_line_protocol(self):
        # Detached q1 fragments have no effective rules: the line protocol
        # cannot self-heal, motivating the blueprint repair of repro.faults.
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(12, protocol, leaders=1)
        sim = FaultySimulation(
            world, protocol, break_prob=0.2, seed=5, max_bonds_broken=4
        )
        res = sim.run(max_steps=50_000)
        assert res.stabilized
        if sim.breakages:  # with this seed faults did land on the line
            assert sim.largest_component_size() < 12

    def test_largest_component_metric(self):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(5, protocol, leaders=1)
        sim = FaultySimulation(world, protocol, break_prob=0.0, seed=0)
        assert sim.largest_component_size() == 1
        sim.run(max_steps=10_000)
        assert sim.largest_component_size() == 5

    @pytest.mark.parametrize(
        "n,events,evaluations", [(16, 15, 480), (24, 23, 1_104)]
    )
    def test_registry_run_reports_pinned_events_and_evaluations(
        self, n, events, evaluations
    ):
        # The seeded trajectory and the candidate cache's evaluation count
        # of the faulty-line scenario, carried on its result.
        result = run_experiment(ExperimentSpec("faulty-line", {"n": n}, seed=7))
        assert result.events == events
        assert result.evaluations == evaluations

    def test_invariants_hold_under_heavy_breakage(self):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(9, protocol, leaders=1)
        sim = FaultySimulation(world, protocol, break_prob=0.6, seed=7)
        for _ in range(400):
            if not sim.step():
                break
            world.check_invariants()


# ----------------------------------------------------------------------
# detach_part
# ----------------------------------------------------------------------


class TestDetachPart:
    def test_remainder_and_size(self):
        blueprint = square_shape(6)
        damaged, lost = detach_part(blueprint, 0.25, seed=0)
        assert len(lost) == 9  # 25% of 36
        assert len(damaged.cells) == 27
        assert damaged.cells.isdisjoint(lost)
        assert damaged.cells | lost == set(blueprint.cells)

    def test_lost_region_is_connected(self):
        blueprint = square_shape(7)
        _damaged, lost = detach_part(blueprint, 0.3, seed=1)
        seen = {next(iter(sorted(lost)))}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for d in (Vec(0, 1), Vec(1, 0), Vec(0, -1), Vec(-1, 0)):
                w = v + d
                if w in lost and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == lost

    def test_large_fraction_degrades_instead_of_failing(self):
        damaged, lost = detach_part(square_shape(2), 0.99, seed=0)
        assert len(damaged.cells) >= 1
        assert len(lost) >= 1

    def test_rejects_bad_fraction(self):
        with pytest.raises(ReproError):
            detach_part(square_shape(3), 0.0)
        with pytest.raises(ReproError):
            detach_part(square_shape(3), 1.0)

    def test_single_cell_shape_cannot_lose_a_part(self):
        with pytest.raises(ReproError):
            detach_part(Shape.single(), 0.5, seed=0)

    def test_labels_survive_on_remainder(self):
        cells = [Vec(x, 0) for x in range(5)]
        blueprint = Shape.from_cells(cells, labels={c: c.x % 2 for c in cells})
        damaged, _lost = detach_part(blueprint, 0.2, seed=3)
        for cell, label in damaged.labels:
            assert label == cell.x % 2

    @given(st.integers(min_value=6, max_value=40), st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_random_shapes_split_cleanly(self, size, seed):
        blueprint = random_connected_shape(size, seed=seed)
        damaged, lost = detach_part(blueprint, 0.25, seed=seed)
        assert len(damaged.cells) + len(lost) == size
        # The requested size may degrade on awkward shapes, but some
        # connected part must always come off.
        assert 1 <= len(lost) <= max(1, round(0.25 * size))


# ----------------------------------------------------------------------
# repair_shape
# ----------------------------------------------------------------------


class TestRepairShape:
    def test_repairs_square_exactly(self):
        blueprint = square_shape(5)
        damaged, lost = detach_part(blueprint, 0.3, seed=2)
        res = repair_shape(damaged, blueprint, seed=3)
        assert res.repaired.cells == blueprint.cells
        assert res.repaired.edges == blueprint.edges
        assert res.nodes_attached == len(lost)

    def test_no_damage_is_a_noop(self):
        blueprint = square_shape(4)
        res = repair_shape(blueprint, blueprint, seed=0)
        assert res.interactions == 0
        assert res.nodes_attached == 0
        assert res.bonds_restored == 0

    def test_rejects_cells_outside_blueprint(self):
        blueprint = square_shape(3)
        rogue = Shape.from_cells([Vec(10, 10), Vec(11, 10)])
        with pytest.raises(ReproError):
            repair_shape(rogue, blueprint)

    def test_rejects_extra_bonds(self):
        # A damaged shape with an active edge the blueprint lacks.
        cells = [Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)]
        ring = Shape.from_cells(cells)
        chain_edges = [
            frozenset((Vec(0, 0), Vec(1, 0))),
            frozenset((Vec(1, 0), Vec(1, 1))),
            frozenset((Vec(1, 1), Vec(0, 1))),
        ]
        blueprint = Shape.from_cells(cells, chain_edges)
        with pytest.raises(ReproError):
            repair_shape(ring, blueprint)

    def test_restores_missing_bonds_between_present_cells(self):
        cells = [Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)]
        blueprint = Shape.from_cells(cells)  # all 4 ring edges
        chain_edges = [
            frozenset((Vec(0, 0), Vec(1, 0))),
            frozenset((Vec(1, 0), Vec(1, 1))),
            frozenset((Vec(1, 1), Vec(0, 1))),
        ]
        damaged = Shape.from_cells(cells, chain_edges)
        res = repair_shape(damaged, blueprint, seed=0)
        assert res.repaired.edges == blueprint.edges
        assert res.nodes_attached == 0
        assert res.bonds_restored == 1
        assert res.interactions == 1

    def test_repair_cost_proportional_to_damage(self):
        blueprint = square_shape(10)
        small_costs = []
        big_costs = []
        rng = random.Random(0)
        for _ in range(5):
            damaged, _ = detach_part(blueprint, 0.1, rng=rng)
            small_costs.append(repair_shape(damaged, blueprint, rng=rng).interactions)
            damaged, _ = detach_part(blueprint, 0.4, rng=rng)
            big_costs.append(repair_shape(damaged, blueprint, rng=rng).interactions)
        assert sum(big_costs) > 2 * sum(small_costs)

    def test_repair_cost_independent_of_blueprint_size(self):
        # Fixed absolute damage on growing squares: cost stays flat-ish
        # (it depends on lost cells + boundary bonds, not the area).
        rng = random.Random(1)
        costs = []
        for d in (6, 12, 18):
            blueprint = square_shape(d)
            fraction = 4 / (d * d)
            damaged, lost = detach_part(blueprint, fraction, rng=rng)
            assert len(lost) == 4
            costs.append(repair_shape(damaged, blueprint, rng=rng).interactions)
        assert max(costs) <= 3 * min(costs)

    def test_preserves_blueprint_labels(self):
        cells = [Vec(x, y) for x in range(3) for y in range(3)]
        blueprint = Shape.from_cells(
            cells, labels={c: (1 if c.x == c.y else 0) for c in cells}
        )
        damaged, _ = detach_part(blueprint, 0.3, seed=4)
        res = repair_shape(damaged, blueprint, seed=4)
        assert res.repaired.label_map == blueprint.label_map

    @given(st.integers(min_value=6, max_value=30), st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_random_damage_always_repairs(self, size, seed):
        blueprint = random_connected_shape(size, seed=seed)
        damaged, lost = detach_part(blueprint, 0.3, seed=seed + 1)
        res = repair_shape(damaged, blueprint, seed=seed + 2)
        assert res.repaired.cells == blueprint.cells
        assert res.repaired.edges == blueprint.edges
        assert res.nodes_attached == len(lost)
        # Each lost cell costs one attach interaction plus its new bonds.
        assert res.interactions == res.nodes_attached + res.bonds_restored


class TestDamageStatistics:
    def test_rows_and_monotone_cost(self):
        blueprint = square_shape(8)
        rows = damage_statistics(blueprint, [0.1, 0.3, 0.5], trials=4, seed=0)
        assert len(rows) == 3
        costs = [cost for _f, _lost, cost in rows]
        assert costs[0] < costs[-1]
        for _fraction, lost, cost in rows:
            assert cost >= lost  # at least one interaction per lost cell
