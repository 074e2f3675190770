"""Parity of the packed geometry kernel against a pure-``Vec`` reference.

The packed kernel (``repro.geometry.packed`` + the rewritten ``World``
methods) must have *exactly* the support of the pre-refactor geometry: same
open slots, same adjacent pairs, same collision-free alignments, same
candidate enumeration. This module keeps a frozen pure-``Vec`` copy of the
original implementation — no packing, no memoized lookup tables, no
version-keyed caches — and drives randomized 2D and 3D worlds (free nodes
glued into rotated multi-cell components by real scheduler events, plus
random bond breakage for splits) through both, asserting equality after
every event.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import Rule, RuleProtocol
from repro.core.simulator import Simulation
from repro.core.world import Candidate, World
from repro.faults.injection import break_random_bond
from repro.geometry.packed import (
    PACKED_ORIGIN,
    ComponentGeometry,
    pack,
    pack_delta,
    packed_rotation,
    unpack,
    unpack_delta,
)
from repro.geometry.ports import opposite, port_direction, port_from_direction, ports_for_dimension
from repro.geometry.rotation import rotations_for_dimension
from repro.geometry.vec import Vec

# ----------------------------------------------------------------------
# Frozen pure-Vec reference (the pre-refactor World geometry, verbatim in
# behavior: dataclass arithmetic and dict-of-Vec probes only).
# ----------------------------------------------------------------------


def _ref_world_direction(port, orientation):
    return orientation.apply(port_direction(port))


def _ref_positive_units(dimension):
    units = (Vec(1, 0, 0), Vec(0, 1, 0), Vec(0, 0, 1))
    return units[:dimension]


def ref_open_slots(world, comp):
    slots = []
    for cell, nid in comp.cells.items():
        rec = world.nodes[nid]
        for port in world.ports:
            if cell + _ref_world_direction(port, rec.orientation) not in comp.cells:
                slots.append((nid, port))
    return slots


def ref_adjacent_pairs(world, comp):
    pairs = []
    for cell, nid in comp.cells.items():
        for delta in _ref_positive_units(world.dimension):
            other = comp.cells.get(cell + delta)
            if other is not None:
                pairs.append((nid, other))
    return pairs


def ref_inter_alignments(world, nid1, port1, nid2, port2):
    rec1, rec2 = world.nodes[nid1], world.nodes[nid2]
    if rec1.component_id == rec2.component_id:
        return []
    comp1 = world.components[rec1.component_id]
    comp2 = world.components[rec2.component_id]
    d1 = _ref_world_direction(port1, rec1.orientation)
    target_cell = rec1.pos + d1
    if target_cell in comp1.cells:
        return []
    d2 = _ref_world_direction(port2, rec2.orientation)
    placements = []
    for rot in rotations_for_dimension(world.dimension):
        if rot.apply(d2) != -d1:  # independent of the memoized mapping
            continue
        trans = target_cell - rot.apply(rec2.pos)
        if all(
            (rot.apply(cell) + trans) not in comp1.cells for cell in comp2.cells
        ):
            placements.append((rot, trans))
    return placements


def ref_intra_candidate(world, nid1, nid2):
    rec1, rec2 = world.nodes[nid1], world.nodes[nid2]
    if rec1.component_id != rec2.component_id:
        return None
    delta = rec2.pos - rec1.pos
    if delta.manhattan() != 1:
        return None
    p1 = port_from_direction(rec1.orientation.inverse().apply(delta))
    p2 = port_from_direction(rec2.orientation.inverse().apply(-delta))
    bond = world.bond_state(nid1, p1, nid2, p2)
    return Candidate(nid1, p1, nid2, p2, bond)


def ref_enumerate_candidates(world):
    for comp in world.components.values():
        for nid1, nid2 in ref_adjacent_pairs(world, comp):
            cand = ref_intra_candidate(world, nid1, nid2)
            if cand is not None:
                yield cand
    comps = sorted(world.components.values(), key=lambda c: c.cid)
    import itertools

    for ca, cb in itertools.combinations(comps, 2):
        slots_a = ref_open_slots(world, ca)
        for nid2 in cb.node_ids():
            for nid1, p1 in slots_a:
                for p2 in world.ports:
                    for rot, trans in ref_inter_alignments(
                        world, nid1, p1, nid2, p2
                    ):
                        yield Candidate(nid1, p1, nid2, p2, 0, rot, trans)


def _cand_id(cand):
    return (
        cand.nid1,
        cand.port1.value,
        cand.nid2,
        cand.port2.value,
        cand.bond,
        None if cand.rotation is None else cand.rotation.matrix,
        None if cand.translation is None else cand.translation.as_tuple(),
    )


def _gluing_protocol(dimension):
    ports = ports_for_dimension(dimension)
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in ports]
    return RuleProtocol(
        rules, initial_state="g", dimension=dimension, name="gluing"
    )


def _assert_world_matches_reference(world):
    # Per-component tables.
    slot_key = lambda s: (s[0], s[1].value)
    for comp in world.components.values():
        assert sorted(world.open_slots(comp), key=slot_key) == sorted(
            ref_open_slots(world, comp), key=slot_key
        ), comp.cid
        assert sorted(world.adjacent_pairs(comp)) == sorted(
            ref_adjacent_pairs(world, comp)
        ), comp.cid
    # Full candidate support, including every alignment's placement.
    got = sorted(_cand_id(c) for c in world.enumerate_candidates())
    want = sorted(_cand_id(c) for c in ref_enumerate_candidates(world))
    assert got == want
    # And the counting fast path agrees with the support size.
    assert world.candidate_count() == len(want)


@pytest.mark.parametrize("dimension", [2, 3])
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
def test_packed_kernel_matches_reference_through_random_runs(
    dimension, n, seed
):
    protocol = _gluing_protocol(dimension)
    world = World(dimension)
    for _ in range(n):
        world.add_free_node("g")
    rng = random.Random(seed)
    sim = Simulation(world, protocol, seed=seed)
    _assert_world_matches_reference(world)
    for _ in range(25):
        if rng.random() < 0.2:
            break_random_bond(world, rng)
            sim.stabilized = False
        stepped = sim.step()
        _assert_snapshots_match_fresh_builds(world)
        _assert_world_matches_reference(world)
        if stepped is None and rng.random() < 0.5:
            break


def _assert_geometry_equal(geom, fresh):
    assert geom.version == fresh.version
    assert list(geom.cells.items()) == list(fresh.cells.items())
    assert list(geom.pos_of.items()) == list(fresh.pos_of.items())
    assert geom.occ == fresh.occ
    assert geom.radius == fresh.radius
    assert geom.slots() == fresh.slots()
    assert geom.pairs() == fresh.pairs()
    for rot in rotations_for_dimension(fresh._dimension):
        assert geom.rotated(rot) == fresh.rotated(rot)


def _assert_snapshots_match_fresh_builds(world):
    """Every component's current snapshot — handed over by the merge that
    produced its version, or rebuilt — equals a from-scratch build."""
    for comp in world.components.values():
        geom = world.geometry(comp)
        assert geom is comp.geom and geom.version == comp.version
        fresh = ComponentGeometry(comp, world.nodes, world.ports, world.dimension)
        _assert_geometry_equal(geom, fresh)


def test_merge_hands_over_grown_snapshot(monkeypatch):
    world = World(2)
    world.add_component_from_cells({Vec(0, 0): "g", Vec(1, 0): "g"})
    world.add_free_node("g")
    for comp in world.components.values():
        world.geometry(comp)
    # The free node lands at (2, 0): the merge grows the radius from 1.
    cand = next(
        c
        for c in world.enumerate_candidates()
        if not c.intra and c.translation == Vec(2, 0)
    )
    builds = []
    init = ComponentGeometry.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComponentGeometry, "__init__", counting_init)
    world.apply(cand, ("g", "g", 1))
    (kept,) = world.components.values()
    geom = world.geometry(kept)
    assert builds == []
    monkeypatch.undo()
    assert geom.radius == 2
    _assert_geometry_equal(
        geom, ComponentGeometry(kept, world.nodes, world.ports, world.dimension)
    )


def test_packed_kernel_matches_reference_on_seeded_components():
    # Pre-assembled multi-cell components at fixed offsets: exercises the
    # inter-alignment kernel between shapes (not just gluing outcomes).
    world = World(2)
    world.add_component_from_cells(
        {Vec(0, 0): "g", Vec(1, 0): "g", Vec(1, 1): "g"}
    )
    world.add_component_from_cells({Vec(0, 0): "g", Vec(0, 1): "g"})
    world.add_free_node("g")
    _assert_world_matches_reference(world)


# ----------------------------------------------------------------------
# Packing primitives
# ----------------------------------------------------------------------


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_pack_roundtrip_and_delta_arithmetic(x, y, z):
    v = Vec(x, y, z)
    assert unpack(pack(v)) == v
    assert unpack_delta(pack_delta(v)) == v
    w = Vec(-y, z, x)
    assert pack(v) + pack_delta(w) == pack(v + w)
    assert pack(v) - pack(w) == pack_delta(v - w)
    assert pack(Vec(0, 0, 0)) == PACKED_ORIGIN


def test_pack_range_guard():
    from repro.errors import GeometryError
    from repro.geometry.packed import MAX_COORD

    v = Vec(MAX_COORD, -MAX_COORD, MAX_COORD)
    assert unpack(pack(v)) == v
    for bad in (
        Vec(MAX_COORD + 1, 0, 0),
        Vec(0, -(MAX_COORD + 1), 0),
        Vec(0, 0, MAX_COORD + 1),
    ):
        with pytest.raises(GeometryError):
            pack(bad)


def test_packed_rotation_matches_rotation_apply():
    v = Vec(3, -2, 5)
    for rot in rotations_for_dimension(3):
        assert unpack(packed_rotation(rot)(pack(v))) == rot.apply(v)
