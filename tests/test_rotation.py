"""Rotation group properties (C4 in 2D, the 24 cube rotations in 3D)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.rotation import (
    _COMPOSE,
    ROTATIONS_2D,
    ROTATIONS_3D,
    Rotation,
    _mat_mul,
    identity_rotation,
    is_grid_rotation,
    rotations_for_dimension,
    rotations_mapping,
)
from repro.geometry.vec import UNIT_VECTORS, Vec

coords = st.integers(min_value=-20, max_value=20)
vecs = st.builds(Vec, coords, coords, coords)
rot2 = st.sampled_from(ROTATIONS_2D)
rot3 = st.sampled_from(ROTATIONS_3D)


def test_group_sizes():
    assert len(ROTATIONS_2D) == 4
    assert len(ROTATIONS_3D) == 24


def test_identity_in_both_groups():
    assert identity_rotation in ROTATIONS_2D
    assert identity_rotation in ROTATIONS_3D


def test_2d_rotations_fix_z_axis():
    for r in ROTATIONS_2D:
        assert r.is_2d()


def test_dimension_lookup():
    assert rotations_for_dimension(2) == ROTATIONS_2D
    assert rotations_for_dimension(3) == ROTATIONS_3D
    with pytest.raises(GeometryError):
        rotations_for_dimension(4)


@given(rot3, rot3)
def test_closure_under_composition(a, b):
    assert a.compose(b) in ROTATIONS_3D


def test_composition_table_matches_matrix_product():
    for a in ROTATIONS_3D:
        for b in ROTATIONS_3D:
            assert a.compose(b) == Rotation(_mat_mul(a.matrix, b.matrix))


def test_composition_outside_group_is_multiplied_not_stored():
    stretch = Rotation(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    r = ROTATIONS_3D[5]
    assert stretch.compose(r) == Rotation(_mat_mul(stretch.matrix, r.matrix))
    assert r.compose(stretch) == Rotation(_mat_mul(r.matrix, stretch.matrix))
    assert stretch.matrix not in _COMPOSE
    assert all(stretch.matrix not in row for row in _COMPOSE.values())
    assert sum(len(row) for row in _COMPOSE.values()) <= 24 * 24


def test_grid_rotation_membership():
    for r in ROTATIONS_3D:
        assert is_grid_rotation(r, 3)
        assert is_grid_rotation(r, 2) == (r in ROTATIONS_2D)
    stretch = Rotation(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert not is_grid_rotation(stretch, 2)
    assert not is_grid_rotation(stretch, 3)


@given(rot3)
def test_inverse_in_group_and_cancels(r):
    inv = r.inverse()
    assert inv in ROTATIONS_3D
    assert r.compose(inv) == identity_rotation
    assert inv.compose(r) == identity_rotation


@given(rot3, vecs)
def test_rotation_preserves_norm(r, v):
    assert r.apply(v).manhattan() >= 0
    # Orthogonal integer matrices preserve the Euclidean norm exactly.
    a = r.apply(v)
    assert a.x**2 + a.y**2 + a.z**2 == v.x**2 + v.y**2 + v.z**2


@given(rot3, rot3, vecs)
def test_composition_applies_in_order(a, b, v):
    assert a.compose(b).apply(v) == a.apply(b.apply(v))


def test_unit_vector_stabilizers():
    # In 2D exactly one rotation maps any unit direction to any other
    # in-plane direction; in 3D exactly four (the C4 stabilizer of an axis).
    planar = [u for u in UNIT_VECTORS if u.z == 0]
    for src in planar:
        for dst in planar:
            assert len(rotations_mapping(src, dst, 2)) == 1
    for src in UNIT_VECTORS:
        for dst in UNIT_VECTORS:
            assert len(rotations_mapping(src, dst, 3)) == 4


def test_2d_cannot_map_out_of_plane():
    assert rotations_mapping(Vec(1, 0, 0), Vec(0, 0, 1), 2) == ()
