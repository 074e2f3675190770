"""Packed-integer geometry kernel: the fast path under the §3 permissibility
predicate.

Every candidate evaluation funnels through collision checks, open-slot scans
and adjacency probes over component cell sets. Doing that arithmetic on
:class:`~repro.geometry.vec.Vec` dataclasses allocates an object per cell per
rotation and hashes three-field tuples on every membership probe. This module
packs a grid cell into a single small int — bit fields for x, y, z, each
offset so the packed value is non-negative::

    packed(v) = (v.x + OFFSET) << 32 | (v.y + OFFSET) << 16 | (v.z + OFFSET)

With that encoding, translation is plain integer addition of a *packed
delta* (a signed field-wise difference of two packed cells), membership is a
single small-int hash, and each rotation of the grid group becomes a
precompiled closure over its nine matrix entries. The public geometry API
(:class:`Vec`, :class:`Rotation`, :class:`Shape`) is untouched — callers
convert at the boundary with :func:`pack` / :func:`unpack` and keep packed
ints strictly internal to hot loops.

:class:`ComponentGeometry` is the per-component view built on top: a packed
occupancy ``frozenset`` plus lazily-computed open-slot, adjacent-pair and
rotated-cell tables. ``World`` snapshots one per component, keyed by
``Component.version``, so the tables are computed at most once per geometry
change (see ``World.geometry``); a merge derives the kept component's next
snapshot from the old one plus the cells it has just packed
(:meth:`ComponentGeometry.grown`) instead of re-packing every cell.

Coordinates are bounded by :data:`MAX_COORD` (±32766 at the default
``BITS``): :func:`pack` rejects cells outside it, and the ``World`` merge
path bounds placements *before* committing them, so an overgrown component
raises :class:`~repro.errors.GeometryError` instead of silently wrapping a
bit field. Raise :data:`BITS` if a workload ever legitimately exceeds it.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import GeometryError
from repro.geometry.ports import PORT_INDEX, PORTS_3D, port_direction
from repro.geometry.rotation import (
    Matrix,
    Rotation,
    rotations_mapping,
)
from repro.geometry.vec import Vec

#: Bits per coordinate field. 16 bits keeps a packed cell under two CPython
#: int digits while allowing coordinates in (-32768, 32768) — far beyond any
#: component these population sizes can build.
BITS = 16
SHIFT_X = 2 * BITS
SHIFT_Y = BITS
MASK = (1 << BITS) - 1
OFFSET = 1 << (BITS - 1)

#: ``pack(ORIGIN)``: add to a packed delta to reuse :func:`unpack` on it.
PACKED_ORIGIN = (OFFSET << SHIFT_X) | (OFFSET << SHIFT_Y) | OFFSET

#: Largest coordinate magnitude a stored cell may have. One unit of slack is
#: kept on both sides of the field so a ±1 adjacency probe on a stored cell
#: can never carry into the neighboring bit field.
MAX_COORD = OFFSET - 2


def pack(v: Vec) -> int:
    """Pack a grid cell into a single int. Raises when out of field range."""
    x, y, z = v.x, v.y, v.z
    if not (
        -MAX_COORD <= x <= MAX_COORD
        and -MAX_COORD <= y <= MAX_COORD
        and -MAX_COORD <= z <= MAX_COORD
    ):
        raise GeometryError(
            f"cell {v!r} outside packed range ±{MAX_COORD}; raise packed.BITS"
        )
    return ((x + OFFSET) << SHIFT_X) | ((y + OFFSET) << SHIFT_Y) | (z + OFFSET)


def unpack(p: int) -> Vec:
    """Inverse of :func:`pack`."""
    return Vec(
        ((p >> SHIFT_X) & MASK) - OFFSET,
        ((p >> SHIFT_Y) & MASK) - OFFSET,
        (p & MASK) - OFFSET,
    )


def pack_delta(v: Vec) -> int:
    """Pack a displacement. ``pack(a) + pack_delta(b - a) == pack(b)``.

    The result is a plain (possibly negative) int; field-wise borrows cancel
    exactly when it is added to a packed cell whose translate stays in range.
    """
    return (v.x << SHIFT_X) + (v.y << SHIFT_Y) + v.z


def unpack_delta(t: int) -> Vec:
    """Inverse of :func:`pack_delta` (valid for in-range displacements)."""
    return unpack(t + PACKED_ORIGIN)


# ----------------------------------------------------------------------
# Rotations on packed cells
# ----------------------------------------------------------------------

PackedRotation = Callable[[int], int]


def _compile_rotation(m: Matrix) -> PackedRotation:
    m00, m01, m02 = m[0]
    m10, m11, m12 = m[1]
    m20, m21, m22 = m[2]

    def apply(p: int) -> int:
        x = ((p >> SHIFT_X) & MASK) - OFFSET
        y = ((p >> SHIFT_Y) & MASK) - OFFSET
        z = (p & MASK) - OFFSET
        return (
            ((m00 * x + m01 * y + m02 * z + OFFSET) << SHIFT_X)
            | ((m10 * x + m11 * y + m12 * z + OFFSET) << SHIFT_Y)
            | (m20 * x + m21 * y + m22 * z + OFFSET)
        )

    return apply


_PACKED_ROTATIONS: Dict[Matrix, PackedRotation] = {}


def packed_rotation(rotation: Rotation) -> PackedRotation:
    """The packed-cell application closure of a rotation (memoized)."""
    fn = _PACKED_ROTATIONS.get(rotation.matrix)
    if fn is None:
        fn = _compile_rotation(rotation.matrix)
        _PACKED_ROTATIONS[rotation.matrix] = fn
    return fn


_PACKED_MAPPINGS: Dict[Tuple[int, int, int], Tuple[Rotation, ...]] = {}


def packed_rotations_mapping(
    src_delta: int, dst_delta: int, dimension: int
) -> Tuple[Rotation, ...]:
    """All rotations taking packed delta ``src_delta`` to ``dst_delta``.

    The packed twin of :func:`repro.geometry.rotation.rotations_mapping`,
    memoized on the packed pair (36 unit-direction pairs per dimension, so
    the table is tiny and the hot path is a single dict hit).
    """
    key = (src_delta, dst_delta, dimension)
    hit = _PACKED_MAPPINGS.get(key)
    if hit is None:
        hit = rotations_mapping(
            unpack_delta(src_delta), unpack_delta(dst_delta), dimension
        )
        _PACKED_MAPPINGS[key] = hit
    return hit


# ----------------------------------------------------------------------
# Port-direction delta tables
# ----------------------------------------------------------------------

_PORT_DELTAS: Dict[Matrix, Tuple[int, ...]] = {}


def orientation_port_deltas(orientation: Rotation) -> Tuple[int, ...]:
    """Packed world-frame port deltas of a node orientation.

    Indexed by :data:`~repro.geometry.ports.PORT_INDEX` (``PORTS_3D``
    order; the 2D port tuple is a prefix of it). The table holds one entry
    per element of the rotation group, so every ``rec.pos + world_direction``
    in the interaction engine collapses to one dict hit and one int add.
    """
    deltas = _PORT_DELTAS.get(orientation.matrix)
    if deltas is None:
        deltas = tuple(
            pack_delta(orientation.apply(port_direction(port)))
            for port in PORTS_3D
        )
        _PORT_DELTAS[orientation.matrix] = deltas
    return deltas


#: Positive-axis packed unit deltas (+x, +y, +z): one probe per grid edge.
POSITIVE_DELTAS = (
    pack_delta(Vec(1, 0, 0)),
    pack_delta(Vec(0, 1, 0)),
    pack_delta(Vec(0, 0, 1)),
)


# ----------------------------------------------------------------------
# Per-component packed view
# ----------------------------------------------------------------------


class ComponentGeometry:
    """Packed snapshot of one component's geometry at a fixed version.

    Built once per ``Component.version`` by ``World.geometry``, or handed
    over by the merge that produced that version (:meth:`grown`); the
    open-slot, adjacent-pair and per-rotation rotated-cell tables are
    computed lazily on first use and shared by every candidate probe until
    the next geometry change invalidates the snapshot.
    """

    __slots__ = (
        "version",
        "cells",
        "pos_of",
        "occ",
        "radius",
        "_nodes",
        "_ports",
        "_dimension",
        "_slots",
        "_pairs",
        "_rotated",
        "_rotated_occ",
        "_rotated_arrays",
    )

    def __init__(self, comp, nodes: Dict, ports: Tuple, dimension: int) -> None:
        cells: Dict[int, int] = {}
        pos_of: Dict[int, int] = {}
        radius = 0
        for cell, nid in comp.cells.items():
            p = pack(cell)
            cells[p] = nid
            pos_of[nid] = p
            m = max(abs(cell.x), abs(cell.y), abs(cell.z))
            if m > radius:
                radius = m
        self._fill(comp.version, cells, pos_of, radius, nodes, ports, dimension)

    def grown(
        self,
        version: int,
        new_cells: Sequence[int],
        new_nids: Sequence[int],
        radius: int,
    ) -> "ComponentGeometry":
        """The snapshot of this component after a merge added cells.

        ``new_cells`` are the packed cells the merge occupied, in the order
        ``Component.cells`` received them, ``new_nids`` their nodes, and
        ``radius`` the Chebyshev radius of the grown cell set. The result
        equals a fresh build of the grown component at ``version`` — same
        cell order, occupancy and radius, empty lazy tables — without
        re-packing the cells this snapshot already holds.
        """
        cells = dict(self.cells)
        cells.update(zip(new_cells, new_nids))
        pos_of = dict(self.pos_of)
        pos_of.update(zip(new_nids, new_cells))
        g = ComponentGeometry.__new__(ComponentGeometry)
        g._fill(
            version, cells, pos_of, radius, self._nodes, self._ports, self._dimension
        )
        return g

    def _fill(
        self,
        version: int,
        cells: Dict[int, int],
        pos_of: Dict[int, int],
        radius: int,
        nodes: Dict,
        ports: Tuple,
        dimension: int,
    ) -> None:
        self.version = version
        #: packed cell -> node id
        self.cells = cells
        #: node id -> packed cell
        self.pos_of = pos_of
        #: packed occupancy set (collision probes)
        self.occ = frozenset(cells)
        #: Chebyshev radius of the cell set: rotations preserve it, so a
        #: placement with translation t keeps every landing coordinate
        #: within ``|t_i| + radius`` — the bound the merge path checks
        #: against the packed field range before committing.
        self.radius = radius
        self._nodes = nodes
        self._ports = ports
        self._dimension = dimension
        self._slots: Tuple[Tuple[int, object], ...] = None  # type: ignore[assignment]
        self._pairs: Tuple[Tuple[int, int], ...] = None  # type: ignore[assignment]
        self._rotated: Dict[Matrix, Tuple[int, ...]] = {}
        self._rotated_occ: Dict[Matrix, FrozenSet[int]] = {}
        self._rotated_arrays: Dict[Matrix, object] = {}

    def slots(self) -> Tuple[Tuple[int, object], ...]:
        """Node-ports whose adjacent cell is unoccupied (lazy, cached)."""
        if self._slots is None:
            out: List[Tuple[int, object]] = []
            cells = self.cells
            nodes = self._nodes
            ports = self._ports
            for p, nid in cells.items():
                deltas = orientation_port_deltas(nodes[nid].orientation)
                for i, port in enumerate(ports):
                    if (p + deltas[i]) not in cells:
                        out.append((nid, port))
            self._slots = tuple(out)
        return self._slots

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """Unordered grid-adjacent node pairs (lazy, cached)."""
        if self._pairs is None:
            out: List[Tuple[int, int]] = []
            cells = self.cells
            deltas = POSITIVE_DELTAS[: self._dimension]
            for p, nid in cells.items():
                for d in deltas:
                    other = cells.get(p + d)
                    if other is not None:
                        out.append((nid, other))
            self._pairs = tuple(out)
        return self._pairs

    def rotated(self, rotation: Rotation) -> Tuple[int, ...]:
        """The packed cells under ``rotation``, aligned with ``cells`` order.

        Cached per rotation: a component is collision-probed against many
        partners between geometry changes, and the rotated cell tuple is
        identical across all of them.
        """
        key = rotation.matrix
        t = self._rotated.get(key)
        if t is None:
            apply = packed_rotation(rotation)
            t = tuple(apply(p) for p in self.cells)
            self._rotated[key] = t
        return t

    def rotated_occ(self, rotation: Rotation) -> FrozenSet[int]:
        """The rotated cells as a set — one membership probe decides a
        whole group of fixed-offset placements (cached per rotation)."""
        key = rotation.matrix
        s = self._rotated_occ.get(key)
        if s is None:
            s = frozenset(self.rotated(rotation))
            self._rotated_occ[key] = s
        return s

    def rotated_array(self, rotation: Rotation):
        """The rotated cells as an int64 numpy array, aligned with
        :meth:`rotated` (the columnar collision probes; cached per
        rotation)."""
        key = rotation.matrix
        a = self._rotated_arrays.get(key)
        if a is None:
            import numpy as _np

            a = _np.array(self.rotated(rotation), dtype=_np.int64)
            self._rotated_arrays[key] = a
        return a


def pack_cells(cells: Iterable[Vec]) -> Dict[int, Vec]:
    """Pack an iterable of cells into a ``packed -> Vec`` mapping."""
    return {pack(c): c for c in cells}
