"""The columnar candidate backend (``repro.core.columnar``).

Pins the invariants the batch kernels rest on:

* the packed ``(hi, lo)`` sort key is strictly order-isomorphic to the
  historical tuple ``candidate_sort_key`` (hypothesis, mixed 2D/3D);
* ``(key, hi, lo)`` rows round-trip to the exact ``Candidate``;
* ``rotate_cells`` / ``in_sorted`` agree with their scalar definitions;
* ``ColumnarIndex`` stays coherent with the dict world through merges;
* a world beyond the occupancy-tag range fails loudly instead of running
  on a second store.

The randomized world-mutation stress harness in
``tests/test_world_deltas.py`` drives the same assertions through
splits, surgery and moves; this module is the deterministic pinning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.candidates import (
    EffectiveCandidateCache,
    candidate_sort_key,
)
from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import evaluate
from repro.core.simulator import Simulation
from repro.core.world import Candidate, World
from repro.geometry.packed import pack, unpack
from repro.geometry.ports import PORTS_2D, PORTS_3D, opposite
from repro.geometry.rotation import rotations_for_dimension
from repro.geometry.vec import Vec

ALL_ROTATIONS = tuple(
    {r.matrix: r for d in (2, 3) for r in rotations_for_dimension(d)}.values()
)


def gluing_protocol(dimension: int = 2) -> RuleProtocol:
    ports = PORTS_2D if dimension == 2 else PORTS_3D
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in ports]
    return RuleProtocol(
        rules, initial_state="g", name="gluing", dimension=dimension
    )


coords = st.integers(min_value=-200, max_value=200)


@st.composite
def candidates(draw):
    nid1 = draw(st.integers(min_value=0, max_value=500))
    nid2 = draw(st.integers(min_value=0, max_value=500))
    p1 = draw(st.sampled_from(PORTS_3D))
    p2 = draw(st.sampled_from(PORTS_3D))
    bond = draw(st.integers(min_value=0, max_value=1))
    if draw(st.booleans()):
        return Candidate(min(nid1, nid2), p1, max(nid1, nid2), p2, bond)
    rot = draw(st.sampled_from(ALL_ROTATIONS))
    trans = Vec(draw(coords), draw(coords), draw(coords))
    return Candidate(nid1, p1, nid2, p2, bond, rot, trans)


class TestPackedKeys:
    @given(st.lists(candidates(), min_size=2, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_sort_key_order_isomorphism(self, cands):
        tuples = [candidate_sort_key(c) for c in cands]
        packed = [columnar.packed_sort_key(c) for c in cands]
        for i in range(len(cands)):
            for j in range(len(cands)):
                assert (tuples[i] < tuples[j]) == (packed[i] < packed[j]), (
                    cands[i],
                    cands[j],
                )

    @given(candidates())
    @settings(max_examples=200, deadline=None)
    def test_row_round_trip(self, cand):
        key = columnar.packed_key(cand)
        hi, lo = columnar.packed_sort_key(cand)
        got = columnar.candidate_from_row(key, hi, lo)
        assert got.nid1 == cand.nid1 and got.nid2 == cand.nid2
        assert got.port1 is cand.port1 and got.port2 is cand.port2
        assert got.bond == cand.bond
        if cand.rotation is None:
            assert got.rotation is None and got.translation is None
        else:
            assert got.rotation.matrix == cand.rotation.matrix
            assert got.translation == cand.translation
        assert columnar.key_nid1(key) == cand.nid1
        assert columnar.key_nid2(key) == cand.nid2
        assert columnar.key_is_inter(key) == (cand.rotation is not None)

    def test_key_rejects_out_of_range_ids(self):
        cand = Candidate(columnar.NID_LIMIT, PORTS_2D[0], 1, PORTS_2D[1], 0)
        with pytest.raises(OverflowError):
            columnar.packed_key(cand)


class TestArrayKernels:
    @given(
        st.sampled_from(ALL_ROTATIONS),
        st.lists(
            st.tuples(coords, coords, coords), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rotate_cells_matches_rotation(self, rot, points):
        cells = np.fromiter(
            (pack(Vec(*p)) for p in points), np.int64, count=len(points)
        )
        got = columnar.rotate_cells(rot, cells)
        want = [pack(rot.apply(Vec(*p))) for p in points]
        assert got.tolist() == want
        # unpack agreement, not just packed equality
        assert [unpack(int(c)) for c in got] == [
            rot.apply(Vec(*p)) for p in points
        ]

    @given(
        st.lists(st.integers(-50, 50), max_size=40),
        st.lists(st.integers(-50, 50), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_in_sorted_matches_set_membership(self, values, member_list):
        members = np.array(sorted(set(member_list)), dtype=np.int64)
        vals = np.array(values, dtype=np.int64)
        got = columnar.in_sorted(vals, members)
        want = [v in set(member_list) for v in values]
        assert list(got) == want


class TestColumnarIndex:
    def test_sync_through_events(self):
        protocol = gluing_protocol()
        world = World.of_free_nodes(12, protocol, leaders=0)
        sim = Simulation(world, protocol, seed=5)
        idx = columnar.get_index(world)
        idx.sync()
        idx.verify(world)
        for _ in range(11):
            sim.step()
            idx.sync()
            idx.verify(world)
        assert columnar.get_index(world) is idx

    def test_members_array_sorted(self):
        protocol = gluing_protocol()
        world = World.of_free_nodes(6, protocol, leaders=0)
        idx = columnar.get_index(world)
        idx.sync()
        sid = world.nodes[0].sid
        members = idx.members_array(sid)
        assert members.tolist() == sorted(world.by_sid[sid])


def test_components_beyond_tag_range_raise(monkeypatch):
    # One store, no silent fallback: a world with more components than
    # the occupancy tags can address fails loudly at the cache.
    protocol = gluing_protocol()
    world = World.of_free_nodes(5, protocol, leaders=0)
    monkeypatch.setattr(columnar, "MAX_TAG_COMPONENTS", 4)
    with pytest.raises(OverflowError, match="occupancy-tag range"):
        EffectiveCandidateCache().refresh(world, protocol, evaluate)
    monkeypatch.setattr(columnar, "MAX_TAG_COMPONENTS", 5)
    assert len(EffectiveCandidateCache().refresh(world, protocol, evaluate))
