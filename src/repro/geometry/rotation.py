"""Finite rotation groups of the grid: C4 in 2D, the 24 proper rotations in 3D.

Every node floating in the solution may be arbitrarily rotated (§3: "the
coordinates are only for local purposes and do not necessarily represent the
actual orientation of a node in the system"). A node's orientation is an
element of the rotation group of the grid; the world-frame direction of a
port is the rotation applied to the port's local direction.

Rotations are represented as 3x3 integer matrices (tuples of tuples), which
makes composition and application exact and hashable. Composition of two
group members reads a 24x24 table of the 3D group (C4 is a subgroup, so the
one table serves both dimensions), filled on first use of each pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.errors import GeometryError
from repro.geometry.vec import Vec

Matrix = Tuple[Tuple[int, int, int], Tuple[int, int, int], Tuple[int, int, int]]

_IDENTITY: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def _mat_apply(m: Matrix, v: Vec) -> Vec:
    return Vec(
        m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
        m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
        m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
    )


def _mat_transpose(m: Matrix) -> Matrix:
    return tuple(tuple(m[j][i] for j in range(3)) for i in range(3))  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class Rotation:
    """A proper rotation of the grid (orthogonal integer matrix, det +1).

    Instances are immutable and hashable. ``compose`` corresponds to applying
    ``other`` first and then ``self`` (matrix product ``self @ other``).
    """

    matrix: Matrix

    def apply(self, v: Vec) -> Vec:
        """Rotate the vector ``v``."""
        return _mat_apply(self.matrix, v)

    def compose(self, other: "Rotation") -> "Rotation":
        """Return the rotation equivalent to ``other`` followed by ``self``.

        A product of two grid rotations is one lookup in the group's
        composition table (computed by matrix product the first time the
        pair is seen); a matrix outside the group is multiplied out and
        never stored, so the table holds at most 24 x 24 entries.
        """
        row = _COMPOSE.get(self.matrix)
        if row is None:
            return Rotation(_mat_mul(self.matrix, other.matrix))
        product = row.get(other.matrix)
        if product is None:
            product = Rotation(_mat_mul(self.matrix, other.matrix))
            if other.matrix in _COMPOSE:
                row[other.matrix] = product
        return product

    def inverse(self) -> "Rotation":
        """Return the inverse rotation (transpose, as the matrix is orthogonal)."""
        return Rotation(_mat_transpose(self.matrix))

    def is_2d(self) -> bool:
        """True iff the rotation fixes the z axis (a rotation about z)."""
        return self.apply(Vec(0, 0, 1)) == Vec(0, 0, 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rotation({self.matrix})"


identity_rotation = Rotation(_IDENTITY)

# 90-degree counter-clockwise rotation about the z axis: (x, y) -> (-y, x).
_ROT_Z: Matrix = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
# 90-degree rotation about the x axis: (y, z) -> (-z, y).
_ROT_X: Matrix = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
# 90-degree rotation about the y axis: (z, x) -> (-x, z).
_ROT_Y: Matrix = ((0, 0, 1), (0, 1, 0), (-1, 0, 0))


def _generate_group(generators: Tuple[Matrix, ...]) -> Tuple[Rotation, ...]:
    """Closure of the generators under matrix multiplication (BFS)."""
    seen: Dict[Matrix, None] = {_IDENTITY: None}
    frontier = [_IDENTITY]
    while frontier:
        m = frontier.pop()
        for g in generators:
            nm = _mat_mul(g, m)
            if nm not in seen:
                seen[nm] = None
                frontier.append(nm)
    return tuple(Rotation(m) for m in sorted(seen))


#: The cyclic group C4 of rotations about the z axis, used by the 2D model.
ROTATIONS_2D: Tuple[Rotation, ...] = tuple(
    sorted(_generate_group((_ROT_Z,)), key=lambda r: r.matrix)
)

#: The 24 proper rotations of the cube, used by the 3D model.
ROTATIONS_3D: Tuple[Rotation, ...] = _generate_group((_ROT_Z, _ROT_X, _ROT_Y))

#: ``Rotation.compose``'s table: ``_COMPOSE[a][b]`` is ``a @ b`` for members
#: ``a, b`` of ``ROTATIONS_3D``. Every member has a row from import on, so
#: a row lookup doubles as the membership test; entries fill lazily.
_COMPOSE: Dict[Matrix, Dict[Matrix, Rotation]] = {
    r.matrix: {} for r in ROTATIONS_3D
}


def rotations_for_dimension(dimension: int) -> Tuple[Rotation, ...]:
    """Return the rotation group of the model with the given dimension."""
    if dimension == 2:
        return ROTATIONS_2D
    if dimension == 3:
        return ROTATIONS_3D
    raise GeometryError(f"unsupported dimension: {dimension!r}")


_GROUP_MATRICES: Dict[int, FrozenSet[Matrix]] = {
    2: frozenset(r.matrix for r in ROTATIONS_2D),
    3: frozenset(_COMPOSE),
}


def is_grid_rotation(rotation: Rotation, dimension: int) -> bool:
    """True iff ``rotation`` is in ``rotations_for_dimension(dimension)``.

    The boundary check of the decoders: a snapshot orientation or a
    recorded placement must be a member of the model's group before any
    composition (which assumes members) sees it.
    """
    return rotation.matrix in _GROUP_MATRICES[dimension]


_MAPPING_CACHE: Dict[Tuple[Vec, Vec, int], Tuple[Rotation, ...]] = {}


def rotations_mapping(
    source: Vec, target: Vec, dimension: int
) -> Tuple[Rotation, ...]:
    """All rotations of the model's group taking ``source`` to ``target``.

    For unit vectors this has exactly 1 element in 2D and 4 in 3D (the
    stabilizer of an axis is C4). Used by the interaction engine to align a
    port of one component with a port of another — a hot call, so results
    are memoized per ``(source, target, dimension)`` (the engine only ever
    asks about unit-vector pairs, keeping the table at 36 entries per
    dimension; arbitrary vectors are admitted and cached the same way).
    """
    key = (source, target, dimension)
    hit = _MAPPING_CACHE.get(key)
    if hit is None:
        hit = tuple(
            r for r in rotations_for_dimension(dimension) if r.apply(source) == target
        )
        _MAPPING_CACHE[key] = hit
    return hit
