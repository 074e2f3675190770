"""Columnar state backend: struct-of-arrays mirrors of the dict world.

The interaction engine's dict-of-records representation is the source of
truth; this module maintains *flat integer columns* over it — one slot per
node id for the interned state (``sid``), owning component id (``cid``),
component size, packed cell, and interned orientation — plus per-state
member arrays, all kept in sync **through the existing journals** (the
``World`` change journal for per-node attribute writes, component
``version`` counters for geometry/membership movement). There is no
parallel write path: a mutation that reaches the cache's journals reaches
the columns, and nothing else can move them.

The index also keeps the *global tagged occupancy* the kernels probe
(:meth:`ColumnarIndex.occupancy`): every node's ``component rank <<
CELL_TAG_SHIFT | packed cell``, sorted. It reads only the ``cid`` and
``cell`` columns, so it is rebuilt only after :meth:`ColumnarIndex.sync`
sees geometry move (a component version, a component appearing or
vanishing, the columns growing, a rebuild), not on every refresh.

On top of the columns, :class:`BatchContext` rewrites the candidate
layer's three hot kernels as batch operations over whole dirty
neighborhoods, for every compiled program (exact rule tables and
handler-lowered :class:`~repro.core.program.MemoProgram` alike). Each
(dirty component and state, partner state) group is one broadcast over
every oriented port hint, node pair and alignment rotation:

1. *gate filtering* — the program's hot / pair gates applied once per
   partner *state* with the survivors gathered as boolean masks over the
   member arrays, instead of one probe per node; a partner state none of
   whose members lies outside the dirty component is skipped before the
   gates (its members are counted per component, never per population);
   the oriented port hints become a hint axis of the broadcast;
2. *occupancy-collision pruning* — open host slots for every (node,
   hint) pair in one membership test against the global tagged
   occupancy; the alignment rotations of every (slot, partner) pair read
   from a precomputed ``(6, 6, R)`` port-direction table (``R`` = 1 in
   2D, 4 in 3D) and applied by one code-indexed rotation
   (:func:`rotate_by_code`); singleton placements need no probe, and
   multi-cell ones are probed per rotation code in blocks of at most
   :data:`PROBE_BUDGET` elements;
3. *transition dispatch* — none for an exact rule table, whose gates are
   complete, so every surviving row is effective; a handler-lowered
   program (``exact = False``) decides each hint by one ``lookup`` the
   first time the hint keeps a row, keeps the answer in the program's
   verdict array for that state pair
   (:meth:`~repro.core.program.MemoProgram.hint_verdicts`), and drops
   ineffective rows by one gather of it after counting them. Each
   permissible row is emitted exactly once, as the ``(hi, lo)`` sort key
   the store keeps, in chunks of ``(his, los, evaluated)`` (the update
   itself is looked up only for an entry the scheduler reads).

numpy is a required dependency: this is the only candidate backend.

Packed candidate keys
---------------------

The candidate layer's identity and sort keys are packed ints, built to be
*order-isomorphic* to the historical tuple keys (pinned by
``tests/test_columnar.py``):

* identity: ``nid1 << 37 | port1_rank << 34 | nid2 << 8 | port2_rank << 5
  | rotation_code`` (rotation code 0 = intra);
* sort key: a ``(hi, lo)`` pair — ``hi`` packs ``(nid1, port1_rank, nid2,
  port2_rank, bond)``, ``lo`` packs ``(rotation_code, translation)`` —
  each half fitting an int64 so the cache can keep its canonical order in
  sorted numpy arrays and merge per-event deltas in C instead of
  re-sorting the whole effective list in Python every event.

The sort key holds everything the identity key does, in parallel bit
fields, so the cache stores only ``(hi, lo)`` and derives the identity
key on read (:func:`key_from_sort_key`).

Port ranks order ports by their string value and rotation codes order
matrices by their tuple form, exactly as the tuple keys compared.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from repro.geometry.packed import (
    PACKED_ORIGIN,
    orientation_port_deltas,
    pack_delta,
    packed_rotations_mapping,
    unpack_delta,
)
from repro.geometry.ports import PORTS_3D
from repro.geometry.rotation import (
    ROTATIONS_2D,
    ROTATIONS_3D,
    identity_rotation,
)
from repro.geometry.vec import Vec
from repro.core.world import Candidate


def backend_name() -> str:
    """Human-readable name of the candidate backend every scheduler uses."""
    return "columnar (numpy)"


# ----------------------------------------------------------------------
# Canonical rank tables (order-isomorphic to the tuple keys)
# ----------------------------------------------------------------------

#: Port -> rank in string-value order (the order tuple keys compared by).
PORT_RANK: Dict[object, int] = {
    port: rank
    for rank, port in enumerate(sorted(PORTS_3D, key=lambda p: p.value))
}
#: Rank by packed port index (PORTS_3D order), for int-only hot paths.
RANK_OF_INDEX: Tuple[int, ...] = tuple(PORT_RANK[p] for p in PORTS_3D)

_ROTS_CANONICAL = tuple(sorted(ROTATIONS_3D, key=lambda r: r.matrix))

#: Rotation matrix -> code, 1..24 in matrix-tuple order; 0 means "no
#: rotation" (an intra candidate), which sorts first exactly as the empty
#: tuple sorted before every matrix. The 2D group is a subgroup of the
#: 3D one, so a single table serves both dimensions.
ROT_CODE: Dict[tuple, int] = {
    rot.matrix: code for code, rot in enumerate(_ROTS_CANONICAL, start=1)
}
assert all(r.matrix in ROT_CODE for r in ROTATIONS_2D)

#: Orientation matrix -> dense id, and the packed port-delta table
#: indexed ``[orientation_id][port_index]`` (the bitmask-gather source
#: for partner port directions).
ORIENT_ID: Dict[tuple, int] = {
    rot.matrix: i for i, rot in enumerate(_ROTS_CANONICAL)
}
ORIENT_DELTAS = np.array(
    [orientation_port_deltas(rot) for rot in _ROTS_CANONICAL], dtype=np.int64
)

# ----------------------------------------------------------------------
# Packed candidate keys
# ----------------------------------------------------------------------

_NID_BITS = 26
NID_LIMIT = 1 << _NID_BITS
K_P2_SHIFT = 5
K_NID2_SHIFT = 8
K_P1_SHIFT = 34
K_NID1_SHIFT = 37
KEY_ROT_MASK = 31

H_P2_SHIFT = 1
H_NID2_SHIFT = 4
H_P1_SHIFT = 30
H_NID1_SHIFT = 33
L_ROT_SHIFT = 48


def _check_nids(nid1: int, nid2: int) -> None:
    if nid1 >= NID_LIMIT or nid2 >= NID_LIMIT:
        raise OverflowError(
            f"node id beyond packed candidate-key range ({NID_LIMIT}); "
            "raise repro.core.columnar._NID_BITS"
        )


def packed_key(cand) -> int:
    """Packed identity key of a canonical candidate (63 bits).

    Injective over ``(nid1, port1, nid2, port2, rotation)`` — the same
    identity the historical tuple key carried.
    """
    _check_nids(cand.nid1, cand.nid2)
    rot = cand.rotation
    return (
        (cand.nid1 << K_NID1_SHIFT)
        | (PORT_RANK[cand.port1] << K_P1_SHIFT)
        | (cand.nid2 << K_NID2_SHIFT)
        | (PORT_RANK[cand.port2] << K_P2_SHIFT)
        | (0 if rot is None else ROT_CODE[rot.matrix])
    )


def key_from_sort_key(hi, lo):
    """The identity key of the candidate a ``(hi, lo)`` sort key encodes.

    ``hi`` lays out ``(nid1, port1_rank, nid2, port2_rank)`` above its
    bond bit with the same spacing as the identity key lays them out above
    its rotation code, and ``lo`` leads with that code — so one shift
    realigns the fields. Works on ints and on int64 arrays alike.
    """
    return (hi >> H_P2_SHIFT << K_P2_SHIFT) | (lo >> L_ROT_SHIFT)


def key_nid1(key: int) -> int:
    return key >> K_NID1_SHIFT


def key_nid2(key: int) -> int:
    return (key >> K_NID2_SHIFT) & (NID_LIMIT - 1)


def key_is_inter(key: int) -> bool:
    return bool(key & KEY_ROT_MASK)


def pack_trans(t) -> int:
    """Lexicographic image of a translation vector (0 when ``None``)."""
    if t is None:
        return 0
    return ((t.x << 32) + (t.y << 16) + t.z) + PACKED_ORIGIN


#: Port by canonical rank (inverse of PORT_RANK), for key decoding.
PORT_BY_RANK: Tuple[object, ...] = tuple(
    sorted(PORTS_3D, key=lambda p: p.value)
)
#: Rotation by code ``1..24`` (inverse of ROT_CODE), for key decoding.
ROT_BY_CODE: Tuple[object, ...] = _ROTS_CANONICAL

_LO_TRANS_MASK = (1 << L_ROT_SHIFT) - 1


def candidate_from_row(key: int, hi: int, lo: int) -> Candidate:
    """Rebuild the canonical candidate a ``(key, hi, lo)`` row encodes.

    The identity key carries endpoints, ports and the rotation code; the
    sort key carries the bond (``hi`` bit 0) and the packed translation
    (``lo`` low bits). Together they determine the candidate exactly —
    the candidate store keeps only ``(hi, lo)`` and rebuilds
    :class:`~repro.core.world.Candidate` objects on read.
    """
    nid1 = key >> K_NID1_SHIFT
    p1 = PORT_BY_RANK[(key >> K_P1_SHIFT) & 7]
    nid2 = (key >> K_NID2_SHIFT) & (NID_LIMIT - 1)
    p2 = PORT_BY_RANK[(key >> K_P2_SHIFT) & 7]
    code = key & KEY_ROT_MASK
    bond = hi & 1
    if code == 0:
        return Candidate(nid1, p1, nid2, p2, bond)
    rot = ROT_BY_CODE[code - 1]
    trans = unpack_delta((lo & _LO_TRANS_MASK) - PACKED_ORIGIN)
    return Candidate(nid1, p1, nid2, p2, bond, rot, trans)


def packed_sort_key(cand) -> Tuple[int, int]:
    """The canonical total order as an ``(hi, lo)`` int64 pair.

    Strictly order-isomorphic to the historical ``candidate_sort_key``
    tuple: ``hi`` compares ``(nid1, port1.value, nid2, port2.value,
    bond)`` and ``lo`` compares ``(rotation.matrix,
    translation.as_tuple())``, with intra candidates (``lo == 0``) first,
    as ``()`` sorted before any matrix tuple.
    """
    _check_nids(cand.nid1, cand.nid2)
    hi = (
        (cand.nid1 << H_NID1_SHIFT)
        | (PORT_RANK[cand.port1] << H_P1_SHIFT)
        | (cand.nid2 << H_NID2_SHIFT)
        | (PORT_RANK[cand.port2] << H_P2_SHIFT)
        | cand.bond
    )
    rot = cand.rotation
    if rot is None:
        return hi, 0
    return hi, (ROT_CODE[rot.matrix] << L_ROT_SHIFT) | pack_trans(
        cand.translation
    )


# ----------------------------------------------------------------------
# The flat columns
# ----------------------------------------------------------------------

#: Bits reserved for the packed cell inside an occupancy tag; the rest
#: holds the dense component index, so one sorted array answers "is this
#: cell occupied *in this component*" for every component at once.
CELL_TAG_SHIFT = 48
#: Components addressable by one tag array (dense index must fit above
#: the cell bits of an int64); far beyond any simulated population.
MAX_TAG_COMPONENTS = 1 << 14


class ColumnarIndex:
    """Flat per-node columns mirroring one ``World``, journal-synced.

    Columns are indexed by node id (ids are dense and never reused):
    ``sid`` (interned state), ``cid`` (owning component id), ``csize``
    (size of the owning component), ``cell`` (packed position in the
    component frame), ``orient`` (interned orientation). :meth:`sync`
    folds in everything the journals recorded since the last call:

    * change-journal entries update ``sid`` (the journal names *what*
      moved; the node record says *where to*);
    * component ``version`` movement re-reads the affected component's
      members wholesale (cells, orientations, membership, size);
    * an adopted state space or a truncated journal triggers a full
      rebuild — never a stale column.

    The index also owns the *tagged occupancy* the batch kernels probe
    (:meth:`occupancy`), a function of the ``cid`` and ``cell`` columns
    alone. It is built on first use and kept until :meth:`sync` sees those
    columns move: a component version moving, a component appearing or
    vanishing, the columns growing, or a rebuild. A state write moves only
    ``sid``, so a run whose events rewrite states keeps one occupancy
    across all of them.
    """

    def __init__(self, world) -> None:
        self._world = world
        self._space = None
        self._cursor = 0
        self._versions: Dict[int, int] = {}
        self._n = 0
        self.sid = np.empty(0, dtype=np.int64)
        self.cid = np.empty(0, dtype=np.int64)
        self.csize = np.empty(0, dtype=np.int64)
        self.cell = np.empty(0, dtype=np.int64)
        self.orient = np.empty(0, dtype=np.int64)
        #: sid -> sorted member-id array (lazy, dropped when a member
        #: enters or leaves the state).
        self._members: Dict[int, object] = {}
        #: ``(node_tag, occ_tags)`` (lazy, see :meth:`occupancy`).
        self._occ = None
        self.syncs = 0
        self.rebuilds = 0

    def _grow(self, n: int) -> None:
        if n <= self._n:
            return
        cap = max(16, len(self.sid))
        while cap < n:
            cap *= 2
        if cap > len(self.sid):
            for name in ("sid", "cid", "csize", "cell", "orient"):
                old = getattr(self, name)
                new = np.full(cap, -1, dtype=np.int64)
                new[: len(old)] = old
                setattr(self, name, new)
        self._n = n
        self._occ = None

    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Fold journalled movement into the columns (cheap when clean)."""
        w = self._world
        self.syncs += 1
        if w.space is not self._space:
            # adopt_space rewrites sids without journalling (it is not a
            # trajectory-visible change) — rebuild from the records.
            self._rebuild()
            return
        dirty = w.changes_since(self._cursor)
        if dirty is None:  # journal truncated under us
            self._rebuild()
            return
        self._cursor = w.change_cursor()
        self._grow(w._next_nid)
        sid_col = self.sid
        members = self._members
        if dirty:
            nodes = w.nodes
            for nid in dirty:
                rec = nodes.get(nid)
                if rec is None:  # pragma: no cover - nodes are never deleted
                    continue
                old = sid_col[nid]
                if old != rec.sid:
                    members.pop(old, None)
                    members.pop(rec.sid, None)
                    sid_col[nid] = rec.sid
        versions = self._versions
        live: Set[int] = set()
        cid_col, csize_col = self.cid, self.csize
        cell_col, orient_col = self.cell, self.orient
        nodes = w.nodes
        for cid, comp in w.components.items():
            live.add(cid)
            if versions.get(cid) == comp.version:
                continue
            versions[cid] = comp.version
            self._occ = None
            g = w.geometry(comp)
            size = len(g.pos_of)
            for nid, p in g.pos_of.items():
                cid_col[nid] = cid
                csize_col[nid] = size
                cell_col[nid] = p
                orient_col[nid] = ORIENT_ID[nodes[nid].orientation.matrix]
        if len(versions) > len(live):
            for cid in [c for c in versions if c not in live]:
                del versions[cid]
            self._occ = None

    def _rebuild(self) -> None:
        w = self._world
        self.rebuilds += 1
        self._space = w.space
        self._cursor = w.change_cursor()
        self._versions = {}
        self._members.clear()
        self._occ = None
        self._n = 0
        self._grow(w._next_nid)
        nodes = w.nodes
        for nid, rec in nodes.items():
            self.sid[nid] = rec.sid
        versions = self._versions
        for cid, comp in w.components.items():
            versions[cid] = comp.version
            g = w.geometry(comp)
            size = len(g.pos_of)
            for nid, p in g.pos_of.items():
                self.cid[nid] = cid
                self.csize[nid] = size
                self.cell[nid] = p
                self.orient[nid] = ORIENT_ID[nodes[nid].orientation.matrix]

    # ------------------------------------------------------------------

    def members_array(self, sid: int):
        """Sorted member ids of one interned state as an int64 array."""
        arr = self._members.get(sid)
        if arr is None:
            ids = self._world.by_sid.get(sid, ())
            arr = np.fromiter(ids, dtype=np.int64, count=len(ids))
            arr.sort()
            self._members[sid] = arr
        return arr

    def occupancy(self):
        """The global tagged occupancy of the synced columns: ``(node_tag,
        occ_tags)``, shared by every caller until the next drop, so read
        it, never write it.

        Each component gets a dense index (the rank of its cid), each node
        the tag base ``dense_index << CELL_TAG_SHIFT`` (``node_tag``), and
        ``occ_tags`` sorts every node's ``tag | packed_cell``. Built on
        first use after :meth:`sync` dropped it (see the class docstring);
        raises ``OverflowError`` when the components outnumber
        :data:`MAX_TAG_COMPONENTS`.
        """
        occ = self._occ
        if occ is None:
            occ = self._occ = self._tag_occupancy()
        return occ

    def _tag_occupancy(self):
        cid_col = self.cid[: self._n]
        cids = np.unique(cid_col)
        if len(cids) > MAX_TAG_COMPONENTS:
            raise OverflowError(
                f"{len(cids)} components exceed the occupancy-tag range "
                f"({MAX_TAG_COMPONENTS})"
            )
        node_tag = np.searchsorted(cids, cid_col) << CELL_TAG_SHIFT
        occ_tags = np.sort(node_tag | self.cell[: self._n])
        return node_tag, occ_tags

    def verify(self, world) -> None:
        """Assert every column, and a cached occupancy, equals what the
        dict world gives (coherence tests)."""
        assert world is self._world
        if self._occ is not None:
            for cached, fresh in zip(self._occ, self._tag_occupancy()):
                assert np.array_equal(cached, fresh), "occupancy"
        for nid, rec in world.nodes.items():
            comp = world.components[rec.component_id]
            g = world.geometry(comp)
            assert self.sid[nid] == rec.sid, (nid, "sid")
            assert self.cid[nid] == rec.component_id, (nid, "cid")
            assert self.csize[nid] == comp.size(), (nid, "csize")
            assert self.cell[nid] == g.pos_of[nid], (nid, "cell")
            assert self.orient[nid] == ORIENT_ID[rec.orientation.matrix], (
                nid,
                "orient",
            )
        for sid, arr in self._members.items():
            assert list(arr) == sorted(world.by_sid.get(sid, ())), sid


def get_index(world) -> ColumnarIndex:
    """The world's lazily-created columnar index (one per world)."""
    idx = getattr(world, "_columnar_index", None)
    if idx is None:
        idx = ColumnarIndex(world)
        world._columnar_index = idx
    return idx


# ----------------------------------------------------------------------
# Batch candidate generation over the columns
# ----------------------------------------------------------------------

_CELL_MASK = (1 << 16) - 1
_CELL_OFF = 1 << 15

#: Packed image of the x, y and z unit vectors under each rotation code
#: (code 0 = the identity): a rotation is linear, so a rotated packed
#: cell is ``x * image_x + y * image_y + z * image_z`` plus the origin.
_AXIS_IMAGES = np.array(
    [
        [pack_delta(rot.apply(axis)) for rot in (identity_rotation, *ROT_BY_CODE)]
        for axis in (Vec(1, 0, 0), Vec(0, 1, 0), Vec(0, 0, 1))
    ],
    dtype=np.int64,
)
#: Rotation code -> code of its inverse (0 -> 0).
INV_CODE = np.array(
    [0] + [ROT_CODE[rot.inverse().matrix] for rot in ROT_BY_CODE],
    dtype=np.int64,
)


def rotate_by_code(cells, codes):
    """Rotate int64 packed cells, each by the rotation its code names.

    ``cells`` and ``codes`` broadcast against each other, so one call
    rotates a whole block of placements under mixed rotations; code 0 is
    the identity.
    """
    ix, iy, iz = _AXIS_IMAGES
    x = ((cells >> 32) & _CELL_MASK) - _CELL_OFF
    y = ((cells >> 16) & _CELL_MASK) - _CELL_OFF
    z = (cells & _CELL_MASK) - _CELL_OFF
    return x * ix[codes] + y * iy[codes] + z * iz[codes] + PACKED_ORIGIN


#: The six grid unit directions as sorted packed deltas, and the world
#: direction of every ``[orientation_id][port_index]`` as an index into
#: them.
_UNIT_DELTAS = np.unique(ORIENT_DELTAS)
ORIENT_DIRS = np.searchsorted(_UNIT_DELTAS, ORIENT_DELTAS)


def _align_table(dimension: int):
    """``[dir(d2), dir(d1), r]`` -> the codes of the rotations taking
    direction ``d2`` to ``-d1``, in code order: 1 per pair in 2D, 4 in 3D.
    Code 0 marks no alignment — in 2D, any pair off the plane, since a 2D
    world's ports all lie in it."""
    width = 1 if dimension == 2 else 4
    table = np.zeros((6, 6, width), dtype=np.int64)
    deltas = _UNIT_DELTAS.tolist()
    planar = [unpack_delta(d).z == 0 for d in deltas]
    for a, d2 in enumerate(deltas):
        for b, d1 in enumerate(deltas):
            if dimension == 2 and not (planar[a] and planar[b]):
                continue
            rots = packed_rotations_mapping(d2, -d1, dimension)
            table[a, b, : len(rots)] = [ROT_CODE[rot.matrix] for rot in rots]
    return table


#: The alignment rotations of every port-direction pair, per dimension.
ALIGN_CODES = {2: _align_table(2), 3: _align_table(3)}

#: Element budget of one block of multi-cell collision probes: bounds the
#: probe temporaries whatever the component sizes.
PROBE_BUDGET = 1 << 16

_RANKS = np.array(RANK_OF_INDEX, dtype=np.int64)
_HINT_COLUMNS: Dict[tuple, tuple] = {}


def _hint_columns(hints):
    """A program's oriented hint tuple as aligned arrays: port indexes
    ``p1``/``p2`` and the port bits of the sort key's ``hi`` half.

    Memoized per hint tuple, like the packed rotation tables: the arrays
    are a pure function of the tuple, so every world and program may
    share them.
    """
    cols = _HINT_COLUMNS.get(hints)
    if cols is None:
        p1 = np.array([a for a, _ in hints], dtype=np.intp)
        p2 = np.array([b for _, b in hints], dtype=np.intp)
        hbase = (_RANKS[p1] << H_P1_SHIFT) | (_RANKS[p2] << H_P2_SHIFT)
        cols = _HINT_COLUMNS[hints] = (p1, p2, hbase)
    return cols


def in_sorted(values, sorted_arr):
    """Vectorized membership of int64 ``values`` in a sorted int64 array.

    ``searchsorted`` + one gather — the batch kernels call this with
    thousands of probes per call, where ``np.isin``'s generality (sorting
    both sides per call) dominated the profile.
    """
    n = len(sorted_arr)
    if n == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = sorted_arr.searchsorted(values)
    np.minimum(pos, n - 1, out=pos)
    return sorted_arr[pos] == values


class BatchContext:
    """One refresh's batch-generation state for a (world, protocol) pair.

    Built by the candidate cache on every refresh, for a world bound to
    its protocol's compiled program. The program's gates (hot state, pair,
    oriented bond-0 port hints) decide which inter rows are generated. For
    an exact program the hints are a complete static-effectiveness
    filter, so every row is effective and no ``lookup`` runs. A
    handler-lowered program's (``exact = False``) hints only
    over-approximate, so one ``lookup`` per port-pair hint decides whether
    every row of that hint is effective, once per program (the verdicts
    stay in :meth:`~repro.core.program.MemoProgram.hint_verdicts`); the
    kernel counts the rows of an ineffective hint as evaluations and does
    not emit them.

    The context reads the index's *global tagged occupancy*
    (:meth:`ColumnarIndex.occupancy`): each component gets a dense index
    (rank of its cid), and every node contributes the tag ``dense_index <<
    48 | packed_cell`` to one sorted int64 array. Open-slot checks and
    collision probes against *any* component then become ``searchsorted``
    membership tests on this single array — the kernels batch across all
    partner components of a whole dirty component at once, instead of one
    numpy call per (node, partner component) pair. The index keeps the
    array between refreshes until geometry moves, so building a context
    costs nothing on a refresh that only rewrote states.

    :meth:`inter_rows` evaluates, for a batch of dirty nodes, exactly the
    gated permissible inter candidates that
    :func:`repro.core.candidates.iter_node_candidates` enumerates, each
    once, and emits the effective ones as flat ``(his, los, evaluated)``
    chunks in the store's own ``(hi, lo)`` columns, never materializing
    per-candidate Python objects (``candidate_from_row`` rebuilds a
    :class:`Candidate` only when the scheduler reads one). Each (dirty
    component and state, partner state) group is one broadcast over every
    hint, node pair and alignment rotation (:meth:`_place`). Intra
    candidates are not handled here: a node has at most ``|ports|`` of
    them, and the scalar probe is already minimal.
    """

    __slots__ = (
        "world",
        "protocol",
        "program",
        "idx",
        "align",
        "node_tag",
        "occ_tags",
    )

    def __init__(self, world, protocol, program, idx: ColumnarIndex) -> None:
        self.world = world
        self.protocol = protocol
        self.program = program
        self.idx = idx
        #: ``[dir(d2), dir(d1)]`` -> alignment rotation codes, this world's
        #: dimension.
        self.align = ALIGN_CODES[world.dimension]
        #: Per-node tag base and the sorted global tagged occupancy, as
        #: the index keeps them between geometry moves.
        self.node_tag, self.occ_tags = idx.occupancy()

    # ------------------------------------------------------------------

    def inter_rows(self, nids, sink) -> None:
        """Emit inter entry rows for a batch of live dirty nodes.

        ``sink`` receives ``(his, los, evaluated)`` chunks: the int64 sort
        key halves of the chunk's effective rows and the number of
        permissible rows the chunk evaluated. The two differ only for a
        handler-lowered program, whose ineffective rows are counted but
        not emitted, so a chunk may hold zero rows and a positive count.

        Every row is emitted exactly once per call. Grouping: dirty nodes
        by component, then by state. The hot / pair-can-fire gates run
        once per state pair (kernel 1); the member-array masks below them
        replace per-node probes. A partner state is asked about only if
        it has a member outside the dirty component: the component's own
        members are counted per state (O(component size)) against the
        state's population, so a state the component holds whole costs
        one comparison. Partners in components with a larger cid
        are placed into the dirty component's frame, the others host it
        (canonical orientation: the smaller cid holds ``nid1``). A partner
        that is itself in the batch is placed only from the lower-cid
        side, so the host branch skips dirty partners. That rests on the
        gates asking about the unordered state pair: ``pair_can_fire`` is
        a function of it (see ``Protocol.pair_compatible``), and both
        sides ask for the hints of the same (host, guest) state pair.
        """
        idx = self.idx
        world = self.world
        program = self.program
        is_hot = program.is_hot_id
        nid_arr = np.fromiter(nids, dtype=np.int64, count=len(nids))
        in_batch = np.zeros(len(idx.cid), dtype=bool)
        in_batch[nid_arr] = True
        my_cids = idx.cid[nid_arr]
        for cid in sorted(set(my_cids.tolist())):
            dn_comp = nid_arr[my_cids == cid]
            geom = world.geometry(world.components[cid])
            # Members of the dirty component per state: a partner state
            # with no member outside it has nothing to place.
            own = np.bincount(
                idx.sid[np.fromiter(geom.pos_of, np.int64, len(geom.pos_of))],
                minlength=len(world.space),
            ).tolist()
            sids = idx.sid[dn_comp]
            for sid in sorted(set(sids.tolist())):
                dn = dn_comp[sids == sid]
                nid_hot = is_hot(sid)
                for partner_sid, pmembers in world.by_sid.items():
                    if own[partner_sid] == len(pmembers):
                        continue
                    if not (nid_hot or is_hot(partner_sid)):
                        continue
                    if not program.pair_can_fire(sid, partner_sid):
                        continue
                    members = idx.members_array(partner_sid)
                    pcids = idx.cid[members]
                    mine = pcids == cid
                    if mine.any():
                        members = members[~mine]
                        pcids = pcids[~mine]
                    guests = pcids > cid
                    g = members[guests]
                    if len(g):
                        self._place(dn, g, sid, partner_sid, geom, True, sink)
                    h = members[~guests]
                    h = h[~in_batch[h]]
                    if len(h):
                        self._place(h, dn, partner_sid, sid, geom, False, sink)

    def _place(
        self, hosts, guests, hsid, gsid, geom, dirty_host, sink
    ) -> None:
        """Every gated permissible placement of a guest node's component
        into a host node's frame, for one state pair, as one chunk.

        ``hosts`` (state ``hsid``, the ``nid1`` side) and ``guests``
        (state ``gsid``) are node arrays; the dirty ones all belong to the
        component whose geometry is ``geom`` — the hosts when
        ``dirty_host``, else the guests. Axes of the broadcast: ``P`` open
        (host node, hint) slots, ``M`` guests, ``R`` alignment rotations.

        * kernel 2, open slots: one membership probe per (host, hint);
        * alignment: each guest port direction ``d2`` must turn onto the
          slot's ``-d1`` — the rotation codes come from the ``(6, 6, R)``
          direction table, the translation from the code-indexed rotation
          of the guest cell;
        * kernel 2, collisions: only multi-cell placements can collide
          (a singleton's one cell lands on the open target), probed per
          rotation code in blocks (:meth:`_probe`);
        * kernel 3, dispatch: an exact program's hints are complete, so
          every row that survives is effective and nothing is looked up.
          Only a handler-lowered program (``exact = False``) looks up a
          hint, the first time the hint keeps a row — so a handler only
          sees interactions that can actually occur — and records the
          answer in the program's verdict array for ``(hsid, gsid)``. The
          rows of ineffective hints are then dropped by one gather of
          that array, which is all a warm call does.

        The chunk is ``(his, los, evaluated)``: the sort key halves of the
        effective rows and the number of rows that survived the geometry.
        """
        program = self.program
        hints = program.oriented_hints(hsid, gsid)
        if not hints:
            return
        p1, p2, hbase = _hint_columns(hints)
        idx = self.idx
        horient = idx.orient[hosts]
        htag = self.node_tag[hosts]
        targets = (
            idx.cell[hosts][:, None] + ORIENT_DELTAS[horient[:, None], p1]
        )
        slot, hint = np.nonzero(
            ~in_sorted(htag[:, None] | targets, self.occ_tags)
        )
        if not len(slot):
            return
        codes = self.align[
            ORIENT_DIRS[idx.orient[guests], p2[hint][:, None]],
            ORIENT_DIRS[horient[slot], p1[hint]][:, None],
        ]
        # trans[s, j, r] = target_s - rot_r(cell_j): the guest's port cell
        # lands on the open target.
        trans = targets[slot, hint][:, None, None] - rotate_by_code(
            idx.cell[guests][:, None], codes
        )
        ok = codes > 0
        if dirty_host:
            multi = idx.csize[guests] > 1
            if multi.any():
                self._probe(
                    ok, ok & multi[:, None], codes, trans,
                    self.node_tag[guests][:, None], geom, pull_back=True,
                )
        elif len(geom.pos_of) > 1:
            self._probe(
                ok, ok, codes, trans, htag[slot][:, None, None], geom,
                pull_back=False,
            )
        evaluated = int(np.count_nonzero(ok))
        if not evaluated:
            return
        if not program.exact:
            verdicts = program.hint_verdicts(hsid, gsid)
            vh = verdicts[hint]
            unknown = vh < 0
            if unknown.any():
                unknown &= ok.any(axis=(1, 2))
                for k in sorted(set(hint[unknown].tolist())):
                    a, b = hints[k]
                    verdicts[k] = program.lookup(hsid, a, gsid, b, 0) is not None
                vh = verdicts[hint]
            ok &= (vh > 0)[:, None, None]
        his = (
            ((hosts[slot] << H_NID1_SHIFT) | hbase[hint])[:, None]
            + (guests << H_NID2_SHIFT)
        )[:, :, None]
        los = (codes << L_ROT_SHIFT) + trans + PACKED_ORIGIN
        sink.append(
            (np.broadcast_to(his, codes.shape)[ok], los[ok], evaluated)
        )

    def _probe(self, ok, sel, codes, trans, tags, geom, *, pull_back) -> None:
        """Clear ``ok`` where a selected placement collides.

        The probe runs over the cells of the dirty component (``geom``)
        against the partner's occupancy, read through its ``tags``
        (broadcast to the placement axes). With ``pull_back`` the dirty
        component hosts: a host cell pulled back into the guest frame by
        the inverse rotation and translation must miss the guest. Otherwise
        the dirty component is the guest: its rotated, translated cells
        must miss the host. Probes run per rotation code (one cached
        rotated-cell array each) in blocks of at most ``PROBE_BUDGET``
        elements.
        """
        at = np.nonzero(sel)
        code = codes[at]
        t = trans[at]
        base = np.broadcast_to(tags, sel.shape)[at]
        if pull_back:
            code = INV_CODE[code]
            base = base - (
                rotate_by_code(t + PACKED_ORIGIN, code) - PACKED_ORIGIN
            )
        else:
            base = base + t
        hit = np.zeros(len(base), dtype=bool)
        occ_tags = self.occ_tags
        for c in np.flatnonzero(np.bincount(code)).tolist():
            rows = np.flatnonzero(code == c)
            cells = geom.rotated_array(ROT_BY_CODE[c - 1])
            step = max(1, PROBE_BUDGET // len(cells))
            for s in range(0, len(rows), step):
                block = rows[s:s + step]
                probes = base[block][:, None] + cells
                hit[block] = in_sorted(probes, occ_tags).any(axis=1)
        ok[tuple(a[hit] for a in at)] = False
