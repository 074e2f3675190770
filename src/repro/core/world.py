"""World: the shape configuration ``C = (C_V, C_E)`` of §3 plus its geometry.

The world tracks every node's state and, for nodes bound into components,
their position and orientation within the component's local frame. Frames of
distinct components are unrelated (components drift freely in the
solution); when two components bond, the second is rotated and translated
into the first's frame.

The world also implements the *permissibility* predicate of §3: a pair of
node-ports can interact iff the two ports can be aligned at unit distance
(rotating one whole component, since nodes are rigid within a component)
without any two nodes falling onto the same grid cell.

This dict-of-records store stays the single source of truth. The columnar
backend (:mod:`repro.core.columnar`) mirrors it into flat int arrays for
batch kernels, but syncs exclusively from the change/world-delta journals
this module already emits — the world never writes to (or imports) the
columnar layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import CollisionError, GeometryError, SimulationError
from repro.core.program import StateSpace
from repro.core.protocol import Protocol, State, Update
from repro.geometry.packed import (
    MAX_COORD,
    ComponentGeometry,
    orientation_port_deltas,
    pack,
    pack_delta,
    packed_rotation,
    packed_rotations_mapping,
    unpack,
    unpack_delta,
)
from repro.geometry.ports import (
    PORT_INDEX,
    Port,
    port_facing,
    ports_for_dimension,
    world_direction,
)
from repro.geometry.rotation import Rotation, identity_rotation
from repro.geometry.shape import Shape
from repro.geometry.vec import Vec

#: A bond: unordered pair of (node id, port) endpoints.
Bond = FrozenSet[Tuple[int, Port]]


def bond_of(nid1: int, port1: Port, nid2: int, port2: Port) -> Bond:
    return frozenset(((nid1, port1), (nid2, port2)))


#: One component merge, as journalled for incremental consumers:
#: ``(kept_cid, kept_version_after, absorbed_cid, new_packed_cells,
#: moved_nids)`` — the packed cells newly occupied in the kept component's
#: frame and the node ids that moved into it.
MergeRecord = Tuple[int, int, int, FrozenSet[int], Tuple[int, ...]]

#: One component split (bond removals, surgery excisions):
#: ``(kept_cid, kept_version_after, fragments, vacated, frontier)`` —
#: ``fragments`` lists each departing fragment as ``(new_cid,
#: birth_version, member_nids)``; ``vacated`` is the set of packed cells
#: (in the kept component's frame) the departed nodes used to occupy; and
#: ``frontier`` the surviving node ids grid-adjacent to a vacated cell —
#: exactly the nodes whose open-slot set can grow from the shrinkage.
SplitRecord = Tuple[
    int,
    int,
    Tuple[Tuple[int, int, Tuple[int, ...]], ...],
    FrozenSet[int],
    Tuple[int, ...],
]

#: One intra-component node move (hybrid leaf rotations): ``(cid,
#: version_after, dirtied_nids, vacated, new_cells, frontier)`` — the
#: node(s) whose geometry/bonds changed, the packed cell(s) vacated, the
#: packed cell(s) newly occupied, and the cut frontier of the vacated
#: cells, all in the component's own frame.
MoveRecord = Tuple[
    int, int, Tuple[int, ...], FrozenSet[int], FrozenSet[int], Tuple[int, ...]
]

#: A tagged entry of the unified world-delta log: ``("merge", MergeRecord)``,
#: ``("split", SplitRecord)`` or ``("move", MoveRecord)``, in mutation order.
DeltaRecord = Tuple[str, tuple]


def bond_sort_key(bond: Bond):
    """A deterministic ordering key for bonds.

    Sets of bonds iterate in hash order, which varies across interpreter
    processes (enum identity hashes, string hash randomization); every
    place where bond iteration order can influence an RNG-driven choice
    must sort with this key to keep seeded runs reproducible.
    """
    return tuple(sorted((nid, port.value) for nid, port in bond))


@dataclass(slots=True)
class NodeRecord:
    """Mutable record of one node.

    ``sid`` is the node's state as an *interned id* into the owning
    world's :class:`~repro.core.program.StateSpace` — the representation
    the compiled dispatch fast path reads with zero conversion. Use
    ``World.state_of`` for the public (boundary) state.
    """

    nid: int
    sid: int
    component_id: int
    pos: Vec
    orientation: Rotation


@dataclass(slots=True)
class Component:
    """A connected component: rigid shape in its own local frame.

    ``version`` is the component's geometry/membership counter: it is
    bumped whenever the cell set, node positions/orientations, or
    fragment structure change (merges, splits, moves, surgery). Incremental
    schedulers treat a bump as "every candidate touching a node of this
    component is stale". Per-node changes that leave geometry intact
    (state writes, flips of a single bond) go through the finer-grained
    ``World.note_change`` journal instead.

    ``geom`` is the packed-geometry snapshot for the current version, built
    lazily or handed over by a merge (see ``World.geometry``); any holder
    of a stale snapshot notices through the version key, so direct
    mutators of ``cells`` / node positions only have to keep bumping
    ``version``, as before.
    """

    cid: int
    cells: Dict[Vec, int] = field(default_factory=dict)  # cell -> node id
    bonds: Set[Bond] = field(default_factory=set)
    version: int = 0
    geom: Optional[ComponentGeometry] = field(
        default=None, repr=False, compare=False
    )

    def node_ids(self) -> List[int]:
        return list(self.cells.values())

    def size(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, slots=True)
class Candidate:
    """A permissible interaction the scheduler may select.

    ``rotation``/``translation`` describe how the second node's component is
    placed into the first's frame (``None`` for intra-component pairs, where
    geometry is already shared). ``bond`` is the current state of the edge
    between the two ports.
    """

    nid1: int
    port1: Port
    nid2: int
    port2: Port
    bond: int
    rotation: Optional[Rotation] = None
    translation: Optional[Vec] = None

    @property
    def intra(self) -> bool:
        return self.rotation is None


class World:
    """The full configuration of the solution.

    Nodes are created free (singleton components). The world exposes
    permissibility checks, candidate enumeration/sampling support, and the
    interaction application logic (state updates, bonding with component
    merge, unbonding with component split).
    """

    #: Change-journal bound: beyond this many unconsumed entries the oldest
    #: half is dropped and lagging consumers fall back to a full rebuild.
    CHANGE_LOG_LIMIT = 65536

    #: Delta-journal bound, same truncation policy: a lagging consumer sees
    #: ``deltas_since(...) is None`` and falls back to coarse invalidation.
    DELTA_LOG_LIMIT = 4096

    def __init__(self, dimension: int = 2) -> None:
        if dimension not in (2, 3):
            raise SimulationError(f"unsupported dimension: {dimension!r}")
        self.dimension = dimension
        self.ports: Tuple[Port, ...] = ports_for_dimension(dimension)
        self.nodes: Dict[int, NodeRecord] = {}
        self.components: Dict[int, Component] = {}
        #: The world's state-interning space. Node records store interned
        #: ids (``NodeRecord.sid``); boundary methods (``add_*``,
        #: ``state_of``, ``states``, renders) convert at the edge. Bound
        #: simulations swap this for the protocol's compiled space via
        #: :meth:`adopt_space` so dispatch reads ids with no translation.
        self.space = StateSpace()
        #: Index of node ids by current *interned* state id (kept in sync
        #: by set_state; empty entries are removed). The public-state view
        #: is the :attr:`by_state` property; hot paths use this directly.
        self.by_sid: Dict[int, Set[int]] = {}
        self._next_nid = 0
        self._next_cid = 0
        # Change journal: node ids whose state / bond endpoints changed,
        # consumed by incremental schedulers (see repro.core.candidates).
        # Geometry changes are signalled by Component.version instead.
        self._change_log: List[int] = []
        self._change_base = 0
        # World-delta journal: one tagged record per structural mutation —
        # merges, splits (incl. surgery excisions), intra-component moves —
        # letting incremental consumers prune the fallout precisely instead
        # of dirtying whole components (see DeltaRecord / deltas_since).
        self._delta_log: List[DeltaRecord] = []
        self._delta_base = 0

    # ------------------------------------------------------------------
    # Change journal (consumed by incremental candidate caches)
    # ------------------------------------------------------------------

    def note_change(self, nid: int) -> None:
        """Record that a node's interaction-relevant attributes changed.

        Called internally on state writes, interaction endpoints, and node
        creation; external surgery that mutates component *geometry*
        signals through ``Component.version`` bumps instead. Consumers
        (``EffectiveCandidateCache``) read the journal via
        :meth:`changes_since`.
        """
        log = self._change_log
        log.append(nid)
        if len(log) > self.CHANGE_LOG_LIMIT:
            drop = len(log) // 2
            del log[:drop]
            self._change_base += drop

    def change_cursor(self) -> int:
        """The journal position *after* all changes recorded so far."""
        return self._change_base + len(self._change_log)

    def changes_since(self, cursor: int) -> Optional[Set[int]]:
        """Node ids journalled at or after ``cursor``.

        Returns ``None`` when the journal has been truncated past the
        cursor — the consumer must fall back to a full re-scan.
        """
        if cursor < self._change_base:
            return None
        return set(self._change_log[cursor - self._change_base:])

    def _note_delta(self, kind: str, record: tuple) -> None:
        log = self._delta_log
        log.append((kind, record))
        if len(log) > self.DELTA_LOG_LIMIT:
            drop = len(log) // 2
            del log[:drop]
            self._delta_base += drop

    def delta_cursor(self) -> int:
        """The delta-journal position *after* all records so far."""
        return self._delta_base + len(self._delta_log)

    def deltas_since(self, cursor: int) -> Optional[List[DeltaRecord]]:
        """Tagged delta records journalled at or after ``cursor``, in
        mutation order (merges, splits and moves interleave exactly as they
        happened, so a consumer can follow each component's version trail
        record by record).

        Returns ``None`` when the journal has been truncated past the
        cursor — the consumer must treat every version bump coarsely.
        """
        if cursor < self._delta_base:
            return None
        return self._delta_log[cursor - self._delta_base:]

    def _split_frontier(
        self, comp: Component, departed_positions: Iterable[Vec]
    ) -> Tuple[FrozenSet[int], Tuple[int, ...]]:
        """Packed vacated cells plus the cut frontier of a shrinkage.

        ``departed_positions`` are the (kept-frame) cells that just became
        unoccupied; the frontier is every surviving node of ``comp``
        grid-adjacent to one of them — the only nodes whose open-slot set
        the shrinkage can grow. Call *after* ``comp.cells`` reflects the
        removal.
        """
        vacated = []
        frontier: Set[int] = set()
        cells = comp.cells
        units = _unit_deltas(self.dimension)
        for pos in departed_positions:
            vacated.append(pack(pos))
            for delta in units:
                nid = cells.get(pos + delta)
                if nid is not None:
                    frontier.add(nid)
        return frozenset(vacated), tuple(sorted(frontier))

    # ------------------------------------------------------------------
    # Packed geometry snapshots
    # ------------------------------------------------------------------

    def geometry(self, comp: Component) -> ComponentGeometry:
        """The packed-geometry snapshot of a component, rebuilt lazily when
        ``Component.version`` moves.

        A merge hands over the kept component's grown snapshot at its new
        version (``ComponentGeometry.grown``), which is returned as is;
        every other version bump — splits, excisions, moves, surgery,
        snapshot restores — rebuilds here on the next call. All hot-path
        geometry — collision checks, open slots, adjacency, rotated cell
        sets — reads from this snapshot; ``Vec``-typed results are
        materialized only at the public API boundary.
        """
        g = comp.geom
        if g is None or g.version != comp.version:
            g = ComponentGeometry(comp, self.nodes, self.ports, self.dimension)
            comp.geom = g
        return g

    # ------------------------------------------------------------------
    # Population setup
    # ------------------------------------------------------------------

    def add_free_node(self, state: State) -> int:
        """Add a free (isolated) node in the given state; returns its id."""
        nid = self._next_nid
        self._next_nid += 1
        cid = self._next_cid
        self._next_cid += 1
        sid = self.space.intern(state)
        self.nodes[nid] = NodeRecord(nid, sid, cid, Vec(0, 0, 0), identity_rotation)
        comp = Component(cid)
        comp.cells[Vec(0, 0, 0)] = nid
        self.components[cid] = comp
        self.by_sid.setdefault(sid, set()).add(nid)
        self.note_change(nid)
        return nid

    def add_component_from_cells(
        self,
        states: Dict[Vec, State],
        bonds: Optional[Iterable[Tuple[Vec, Vec]]] = None,
    ) -> Dict[Vec, int]:
        """Add a pre-assembled component (identity orientations).

        ``states`` maps cells to node states; ``bonds`` lists cell pairs to
        bond (all adjacent pairs when omitted). The bond graph must connect
        the cells. Returns the cell -> node id mapping. This is how the
        generic constructors of §6-§7 seed worlds with already-built lines,
        squares, and shapes.
        """
        cid = self._next_cid
        self._next_cid += 1
        comp = Component(cid)
        nids: Dict[Vec, int] = {}
        for cell in sorted(states):
            nid = self._next_nid
            self._next_nid += 1
            sid = self.space.intern(states[cell])
            rec = NodeRecord(nid, sid, cid, cell, identity_rotation)
            self.nodes[nid] = rec
            comp.cells[cell] = nid
            nids[cell] = nid
            self.by_sid.setdefault(sid, set()).add(nid)
            self.note_change(nid)
        if bonds is None:
            pairs = [
                (cell, cell + delta)
                for cell in states
                for delta in _positive_units(self.dimension)
                if cell + delta in states
            ]
        else:
            pairs = [(a, b) for a, b in bonds]
        for a, b in pairs:
            if (a - b).manhattan() != 1:
                raise SimulationError(f"bond between non-adjacent cells: {a}, {b}")
            pa = port_facing(identity_rotation, b - a)
            pb = port_facing(identity_rotation, a - b)
            comp.bonds.add(bond_of(nids[a], pa, nids[b], pb))
        self.components[cid] = comp
        if comp.size() > 1:
            self.check_component_connected(comp)
        return nids

    def check_component_connected(self, comp: Component) -> None:
        """Raise unless the component's bond graph is connected."""
        adjacency: Dict[int, List[int]] = {nid: [] for nid in comp.cells.values()}
        for bond in comp.bonds:
            (a, _), (b, _) = tuple(bond)
            adjacency[a].append(b)
            adjacency[b].append(a)
        start = next(iter(adjacency))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != comp.size():
            raise SimulationError(f"component {comp.cid} bond graph disconnected")

    @staticmethod
    def of_free_nodes(
        n: int,
        protocol: Protocol,
        leaders: int = 0,
    ) -> "World":
        """A solution of ``n`` free nodes; the first ``leaders`` nodes start
        in the protocol's leader state, the rest in its initial state."""
        world = World(protocol.dimension)
        # Share the protocol's canonical interning up front so ids are
        # rule-sort-derived and dispatch never converts.
        world.adopt_space(protocol.program.space)
        for i in range(n):
            if i < leaders:
                if protocol.leader_state is None:
                    raise SimulationError("protocol defines no leader state")
                world.add_free_node(protocol.leader_state)
            else:
                world.add_free_node(protocol.initial_state)
        return world

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """The population size n."""
        return len(self.nodes)

    def state_of(self, nid: int) -> State:
        return self.space.states[self.nodes[nid].sid]

    def sid_of(self, nid: int) -> int:
        """The node's state as an interned id (see :attr:`space`)."""
        return self.nodes[nid].sid

    def set_state(self, nid: int, state: State) -> None:
        rec = self.nodes[nid]
        sid = self.space.intern(state)
        if rec.sid == sid:
            return
        old = self.by_sid.get(rec.sid)
        if old is not None:
            old.discard(nid)
            if not old:
                del self.by_sid[rec.sid]
        rec.sid = sid
        self.by_sid.setdefault(sid, set()).add(nid)
        self.note_change(nid)

    @property
    def by_state(self) -> Dict[State, Set[int]]:
        """Node-id index keyed by *public* state — a fresh view built from
        the interned :attr:`by_sid` index. Convenient for tests and
        one-shot queries; per-state hot paths should use
        :meth:`nodes_in_state` (no full-dict build) or :attr:`by_sid`.
        """
        decode = self.space.states
        return {decode[sid]: members for sid, members in self.by_sid.items()}

    def nodes_in_state(self, state: State) -> Set[int]:
        """The (live) set of node ids currently in ``state``; treat as
        read-only. Empty set when no node has ever entered the state."""
        sid = self.space.get_id(state)
        if sid is None:
            return set()
        return self.by_sid.get(sid, set())

    def adopt_space(self, space: StateSpace) -> None:
        """Re-key the world onto another interning space (idempotent).

        Called when a simulation binds a protocol: the world takes the
        protocol program's canonical space so dispatch compares ids
        without translation. Public states are untouched — only the
        internal ids are rewritten — so no journal entry is needed and
        seeded trajectories are unaffected.
        """
        if space is self.space:
            return
        old = self.space
        self.space = space
        if not self.nodes:
            return
        remap: Dict[int, int] = {}
        for rec in self.nodes.values():
            new = remap.get(rec.sid)
            if new is None:
                remap[rec.sid] = new = space.intern(old.states[rec.sid])
            rec.sid = new
        self.by_sid = {
            remap[sid]: members for sid, members in self.by_sid.items()
        }

    def component_of(self, nid: int) -> Component:
        return self.components[self.nodes[nid].component_id]

    def is_free(self, nid: int) -> bool:
        """True iff the node is alone in its component."""
        return self.component_of(nid).size() == 1

    def free_node_ids(self) -> List[int]:
        return [nid for nid in self.nodes if self.is_free(nid)]

    def states(self) -> Dict[int, State]:
        decode = self.space.states
        return {nid: decode[rec.sid] for nid, rec in self.nodes.items()}

    def bond_state(self, nid1: int, port1: Port, nid2: int, port2: Port) -> int:
        """The 0/1 state of the edge between two node-ports (C_E of §3)."""
        rec1, rec2 = self.nodes[nid1], self.nodes[nid2]
        if rec1.component_id != rec2.component_id:
            return 0
        comp = self.components[rec1.component_id]
        return int(bond_of(nid1, port1, nid2, port2) in comp.bonds)

    def world_port_direction(self, nid: int, port: Port) -> Vec:
        """Direction of a node's port in its component's frame."""
        rec = self.nodes[nid]
        return world_direction(port, rec.orientation)

    # ------------------------------------------------------------------
    # Permissibility (the geometric constraint of §3)
    # ------------------------------------------------------------------

    def intra_pair_ports(self, nid1: int, nid2: int) -> Optional[Tuple[Port, Port]]:
        """For two nodes of the same component at unit distance, the unique
        pair of ports facing each other; ``None`` if not adjacent."""
        rec1, rec2 = self.nodes[nid1], self.nodes[nid2]
        if rec1.component_id != rec2.component_id:
            return None
        delta = rec2.pos - rec1.pos
        if delta.manhattan() != 1:
            return None
        p1 = port_facing(rec1.orientation, delta)
        p2 = port_facing(rec2.orientation, -delta)
        return p1, p2

    def intra_candidate(self, nid1: int, nid2: int) -> Optional[Candidate]:
        """The unique intra-component candidate for an adjacent pair."""
        ports = self.intra_pair_ports(nid1, nid2)
        if ports is None:
            return None
        p1, p2 = ports
        bond = self.bond_state(nid1, p1, nid2, p2)
        return Candidate(nid1, p1, nid2, p2, bond)

    def check_intra(
        self, nid1: int, port1: Port, nid2: int, port2: Port
    ) -> Optional[Candidate]:
        """Validate a same-component candidate with explicit ports."""
        ports = self.intra_pair_ports(nid1, nid2)
        if ports is None or ports != (port1, port2):
            return None
        bond = self.bond_state(nid1, port1, nid2, port2)
        return Candidate(nid1, port1, nid2, port2, bond)

    def _packed_alignments(
        self,
        rec1: NodeRecord,
        port1: Port,
        rec2: NodeRecord,
        port2: Port,
        g1: ComponentGeometry,
        g2: ComponentGeometry,
    ) -> List[Tuple[Rotation, int]]:
        """Collision-free placements as (rotation, packed translation).

        The §3 permissibility kernel: everything — port directions, the
        target slot, the rotated second component, the overlap probes — is
        packed-int arithmetic against cached tables; no ``Vec`` or
        ``Rotation`` application happens per cell.
        """
        d1 = orientation_port_deltas(rec1.orientation)[PORT_INDEX[port1]]
        occ1 = g1.occ
        target = g1.pos_of[rec1.nid] + d1
        if target in occ1:
            return []  # the slot is already occupied within comp1
        d2 = orientation_port_deltas(rec2.orientation)[PORT_INDEX[port2]]
        pos2 = g2.pos_of[rec2.nid]
        placements: List[Tuple[Rotation, int]] = []
        for rot in packed_rotations_mapping(d2, -d1, self.dimension):
            trans = target - packed_rotation(rot)(pos2)
            for cell in g2.rotated(rot):
                if cell + trans in occ1:
                    break
            else:
                placements.append((rot, trans))
        return placements

    def inter_alignments(
        self, nid1: int, port1: Port, nid2: int, port2: Port
    ) -> List[Tuple[Rotation, Vec]]:
        """Collision-free placements aligning ``port2`` of ``nid2``'s
        component opposite ``port1`` of ``nid1``'s component.

        Returns the (rotation, translation) pairs to apply to the second
        component; one candidate per element. Empty when every alignment
        would make some node fall over another (§3's overlap restriction).
        In 2D there is at most one alignment; in 3D up to four.
        """
        rec1, rec2 = self.nodes[nid1], self.nodes[nid2]
        if rec1.component_id == rec2.component_id:
            return []
        g1 = self.geometry(self.components[rec1.component_id])
        g2 = self.geometry(self.components[rec2.component_id])
        return [
            (rot, unpack_delta(trans))
            for rot, trans in self._packed_alignments(
                rec1, port1, rec2, port2, g1, g2
            )
        ]

    def inter_candidates(
        self, nid1: int, port1: Port, nid2: int, port2: Port
    ) -> List[Candidate]:
        """All permissible inter-component candidates for a node-port pair."""
        return [
            Candidate(nid1, port1, nid2, port2, 0, rot, trans)
            for rot, trans in self.inter_alignments(nid1, port1, nid2, port2)
        ]

    def open_slots(self, comp: Component) -> List[Tuple[int, Port]]:
        """Node-ports of a component whose adjacent cell is unoccupied.

        Only these ports can take part in inter-component interactions.
        Served from the component's version-keyed packed-geometry snapshot;
        recomputed only when the component's geometry actually changes.
        """
        return list(self.geometry(comp).slots())

    def adjacent_pairs(self, comp: Component) -> List[Tuple[int, int]]:
        """Unordered grid-adjacent node pairs within a component.

        Served from the version-keyed packed-geometry snapshot, like
        :meth:`open_slots`.
        """
        return list(self.geometry(comp).pairs())

    # ------------------------------------------------------------------
    # Candidate enumeration (reference implementation)
    # ------------------------------------------------------------------

    def enumerate_candidates(self) -> Iterator[Candidate]:
        """Every permissible interaction of the current configuration.

        This is the reference enumeration used by the exact uniform
        scheduler and by tests; samplers must agree with its support.
        """
        # Intra-component: one candidate per grid-adjacent node pair.
        for comp in self.components.values():
            for nid1, nid2 in self.geometry(comp).pairs():
                cand = self.intra_candidate(nid1, nid2)
                if cand is not None:
                    yield cand
        # Inter-component: every collision-free alignment of port pairs.
        comps = sorted(self.components.values(), key=lambda c: c.cid)
        for ca, cb in itertools.combinations(comps, 2):
            slots_a = self.geometry(ca).slots()
            for nid2 in cb.node_ids():
                for nid1, p1 in slots_a:
                    for p2 in self.ports:
                        yield from self.inter_candidates(nid1, p1, nid2, p2)

    def candidate_count(self) -> int:
        """|Perm|: the number of permissible interactions (exact).

        Counts from the cached per-component slot/pair tables and the packed
        alignment kernel instead of materializing every ``Candidate`` of the
        full enumeration: intra pairs contribute exactly one candidate each,
        and inter pairs contribute one per collision-free alignment.
        """
        comps = sorted(self.components.values(), key=lambda c: c.cid)
        geoms = [self.geometry(c) for c in comps]
        total = sum(len(g.pairs()) for g in geoms)
        nodes = self.nodes
        ports = self.ports
        for (ga, gb) in itertools.combinations(geoms, 2):
            slots_a = ga.slots()
            if not slots_a:
                continue
            for nid2 in gb.pos_of:
                rec2 = nodes[nid2]
                for nid1, p1 in slots_a:
                    for p2 in ports:
                        total += len(
                            self._packed_alignments(
                                nodes[nid1], p1, rec2, p2, ga, gb
                            )
                        )
        return total

    # ------------------------------------------------------------------
    # Applying an interaction
    # ------------------------------------------------------------------

    def apply(self, cand: Candidate, update: Update) -> None:
        """Apply an effective update to a selected candidate.

        Updates the two node states and the bond, merging the two components
        when a bond forms across components and splitting when a removed
        bond disconnects a component.
        """
        s1, s2, new_bond = update
        rec1, rec2 = self.nodes[cand.nid1], self.nodes[cand.nid2]
        self.set_state(cand.nid1, s1)
        self.set_state(cand.nid2, s2)
        # Journal both endpoints unconditionally: the bond between them may
        # flip even when neither state changes.
        self.note_change(cand.nid1)
        self.note_change(cand.nid2)
        same = rec1.component_id == rec2.component_id
        if same:
            comp = self.components[rec1.component_id]
            bond = bond_of(cand.nid1, cand.port1, cand.nid2, cand.port2)
            had = bond in comp.bonds
            if new_bond and not had:
                # Geometry is untouched by an intra bond flip; the endpoint
                # journal entries above are the invalidation signal.
                comp.bonds.add(bond)
            elif not new_bond and had:
                comp.bonds.discard(bond)
                self._split_if_disconnected(comp)
        else:
            if new_bond:
                if cand.rotation is None or cand.translation is None:
                    raise SimulationError(
                        "inter-component bonding requires a placement"
                    )
                self._merge(cand)
            # else: they touched and drifted apart; states already updated.

    def _merge(self, cand: Candidate) -> None:
        rec1, rec2 = self.nodes[cand.nid1], self.nodes[cand.nid2]
        comp1 = self.components[rec1.component_id]
        comp2 = self.components[rec2.component_id]
        rot = cand.rotation
        trans = cand.translation
        assert rot is not None and trans is not None
        # Placement on the packed representation: the rotated cell tuple is
        # usually already cached from the permissibility check that produced
        # the candidate, so the merge re-derives each landing cell with one
        # int add and re-validates collisions against the packed occupancy.
        g1 = self.geometry(comp1)
        g2 = self.geometry(comp2)
        # Every landing coordinate is bounded by |trans_i| + the rotated
        # component's Chebyshev radius; reject placements that could leave
        # the packed field range instead of silently wrapping a bit field.
        if (
            abs(trans.x) + g2.radius > MAX_COORD
            or abs(trans.y) + g2.radius > MAX_COORD
            or abs(trans.z) + g2.radius > MAX_COORD
        ):
            raise GeometryError(
                f"merge translation {trans!r} would place component "
                f"{comp2.cid} outside the packed coordinate range "
                f"±{MAX_COORD}; raise repro.geometry.packed.BITS"
            )
        tpacked = pack_delta(trans)
        occ1 = g1.occ
        new_cells: List[int] = []
        moved: List[int] = []
        radius = g1.radius
        for nid, rcell in zip(g2.cells.values(), g2.rotated(rot)):
            npacked = rcell + tpacked
            if npacked in occ1:
                raise CollisionError(
                    f"merge places node {nid} over occupied cell "
                    f"{unpack(npacked)!r}"
                )
            rec = self.nodes[nid]
            pos = rec.pos = unpack(npacked)
            radius = max(radius, abs(pos.x), abs(pos.y), abs(pos.z))
            rec.orientation = rot.compose(rec.orientation)
            rec.component_id = comp1.cid
            comp1.cells[pos] = nid
            new_cells.append(npacked)
            moved.append(nid)
        comp1.bonds.update(comp2.bonds)
        comp1.bonds.add(bond_of(cand.nid1, cand.port1, cand.nid2, cand.port2))
        comp1.version += 1
        # Hand the grown snapshot over: the kept cells are already packed
        # in g1 and the moved ones just were, so World.geometry need not
        # re-pack the whole component at the new version.
        comp1.geom = g1.grown(comp1.version, new_cells, moved, radius)
        del self.components[comp2.cid]
        self._note_delta(
            "merge",
            (
                comp1.cid,
                comp1.version,
                comp2.cid,
                frozenset(new_cells),
                tuple(moved),
            ),
        )

    def _split_if_disconnected(self, comp: Component) -> None:
        """After a bond removal, split the component into bond-connected
        fragments; each fragment keeps its coordinates in a fresh frame."""
        adjacency: Dict[int, List[int]] = {nid: [] for nid in comp.cells.values()}
        for bond in comp.bonds:
            (a, _), (b, _) = tuple(bond)
            adjacency[a].append(b)
            adjacency[b].append(a)
        unseen = set(adjacency)
        groups: List[Set[int]] = []
        while unseen:
            start = next(iter(unseen))
            group = {start}
            stack = [start]
            unseen.discard(start)
            while stack:
                v = stack.pop()
                for w in adjacency[v]:
                    if w in unseen:
                        unseen.discard(w)
                        group.add(w)
                        stack.append(w)
            groups.append(group)
        if len(groups) <= 1:
            return
        # Deterministic: largest fragment keeps the cid, ties by least nid
        # (groups themselves are discovered in set-iteration order, which
        # is hash-dependent — the sort must fully decide).
        groups.sort(key=lambda g: (-len(g), min(g)))
        keep = groups[0]
        # Fragment frames inherit the old coordinates, so the departed
        # positions double as the kept frame's vacated cells below.
        departed_positions = [
            self.nodes[nid].pos for group in groups[1:] for nid in group
        ]
        fragments: List[Tuple[int, int, Tuple[int, ...]]] = []
        for group in groups[1:]:
            cid = self._next_cid
            self._next_cid += 1
            newc = Component(cid)
            for nid in group:
                rec = self.nodes[nid]
                rec.component_id = cid
                newc.cells[rec.pos] = nid
            newc.bonds = {
                b for b in comp.bonds if all(nid in group for nid, _ in b)
            }
            self.components[cid] = newc
            fragments.append((cid, newc.version, tuple(sorted(group))))
        comp.cells = {
            cell: nid for cell, nid in comp.cells.items() if nid in keep
        }
        comp.bonds = {b for b in comp.bonds if all(nid in keep for nid, _ in b)}
        comp.version += 1
        vacated, frontier = self._split_frontier(comp, departed_positions)
        self._note_delta(
            "split",
            (comp.cid, comp.version, tuple(fragments), vacated, frontier),
        )

    # ------------------------------------------------------------------
    # Surgery (used by orchestrated constructors; see DESIGN.md)
    # ------------------------------------------------------------------

    def free_singleton(self, nid: int, state: State) -> None:
        """Cut all of a node's bonds and release it as a free node.

        This is the "release into the solution" operation the §6.2 leader
        performs on nodes of incomplete replications. The remainder of the
        component is split into its bond-connected fragments.
        """
        rec = self.nodes[nid]
        comp = self.components[rec.component_id]
        comp.bonds = {b for b in comp.bonds if all(x != nid for x, _ in b)}
        if comp.size() > 1:
            old_pos = rec.pos
            del comp.cells[rec.pos]
            comp.version += 1
            cid = self._next_cid
            self._next_cid += 1
            single = Component(cid)
            rec.component_id = cid
            rec.pos = Vec(0, 0, 0)
            rec.orientation = identity_rotation
            single.cells[rec.pos] = nid
            self.components[cid] = single
            # Journal the excision as a split: the freed node is a
            # one-node fragment, its old cell the vacated one. A further
            # disconnection of the remainder journals its own record.
            vacated, frontier = self._split_frontier(comp, (old_pos,))
            self._note_delta(
                "split",
                (
                    comp.cid,
                    comp.version,
                    ((cid, single.version, (nid,)),),
                    vacated,
                    frontier,
                ),
            )
            self._resplit(comp)
        self.set_state(nid, state)
        self.note_change(nid)

    def note_move(
        self,
        comp: Component,
        nid: int,
        old_pos: Vec,
        new_pos: Vec,
        also_dirty: Iterable[int] = (),
    ) -> None:
        """Bump a component's version for an intra-component node move and
        journal it as a fine-grained world delta.

        Call *after* ``comp.cells`` and the node record reflect the move
        (``old_pos`` vacated, ``new_pos`` occupied). ``also_dirty`` names
        further nodes whose interaction-relevant attributes changed with
        the move — e.g. the pivot of a hybrid leaf rotation, whose bond
        port is re-derived from the new geometry. Incremental consumers
        then treat the move as shrinkage at ``old_pos`` plus growth at
        ``new_pos`` instead of a coarse whole-component sweep.
        """
        comp.version += 1
        vacated, frontier = self._split_frontier(comp, (old_pos,))
        dirtied = tuple(sorted({nid, *also_dirty}))
        self._note_delta(
            "move",
            (
                comp.cid,
                comp.version,
                dirtied,
                vacated,
                frozenset((pack(new_pos),)),
                frontier,
            ),
        )

    def _resplit(self, comp: Component) -> None:
        """Split a component whose bond graph may have become disconnected."""
        if comp.size() == 0:
            del self.components[comp.cid]
            return
        if comp.size() == 1:
            return
        adjacency: Dict[int, List[int]] = {n: [] for n in comp.cells.values()}
        for bond in comp.bonds:
            (a, _), (b, _) = tuple(bond)
            adjacency[a].append(b)
            adjacency[b].append(a)
        start = next(iter(adjacency))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == comp.size():
            return
        # Reuse the bond-removal splitter by rebuilding groups.
        self._split_if_disconnected(comp)

    def transplant_line(
        self,
        line_nids: List[int],
        target_cells: List[Vec],
        into_cid: int,
        new_state: State,
        bond_cells: bool = True,
    ) -> None:
        """Move a free line component into another component, cell by cell.

        ``line_nids`` (in order) land on ``target_cells`` (grid cells of the
        destination component's frame, which must be unoccupied); states are
        set to ``new_state`` and bonds are created between consecutive line
        cells and, when ``bond_cells``, to any adjacent occupied cell of the
        destination. Orientations must be identity (all paper constructions
        bond opposite ports, so this always holds here).
        """
        if len(line_nids) != len(target_cells):
            raise SimulationError("transplant: length mismatch")
        target = self.components[into_cid]
        src_comp = self.components[self.nodes[line_nids[0]].component_id]
        if any(self.nodes[nid].component_id != src_comp.cid for nid in line_nids):
            raise SimulationError("transplant: nodes from different components")
        if set(src_comp.cells.values()) != set(line_nids):
            raise SimulationError("transplant: component has extra nodes")
        for cell in target_cells:
            if cell in target.cells:
                raise CollisionError(f"transplant target {cell!r} occupied")
        src_cid = src_comp.cid
        for nid, cell in zip(line_nids, target_cells):
            rec = self.nodes[nid]
            if rec.orientation is not identity_rotation and rec.orientation != identity_rotation:
                raise SimulationError("transplant requires identity orientations")
            rec.component_id = into_cid
            rec.pos = cell
            target.cells[cell] = nid
            self.set_state(nid, new_state)
            self.note_change(nid)
        del self.components[src_cid]
        # Bond consecutive line cells and (optionally) all adjacent target cells.
        for nid, cell in zip(line_nids, target_cells):
            for delta in _positive_units(self.dimension):
                other_cell = cell + delta
                other = target.cells.get(other_cell)
                if other is None:
                    continue
                if not bond_cells and other not in line_nids:
                    continue
                pa = port_facing(identity_rotation, delta)
                pb = port_facing(identity_rotation, -delta)
                target.bonds.add(bond_of(nid, pa, other, pb))
        target.version += 1
        # Journalled as a merge: the line is the absorbed component, the
        # landing cells the newly occupied ones — occupancy growth, so the
        # standard merge-delta pruning applies verbatim.
        self._note_delta(
            "merge",
            (
                into_cid,
                target.version,
                src_cid,
                frozenset(pack(c) for c in target_cells),
                tuple(line_nids),
            ),
        )

    # ------------------------------------------------------------------
    # Shape extraction
    # ------------------------------------------------------------------

    def component_shape(self, cid: int, with_states: bool = False) -> Shape:
        """The geometric shape of a component (normalized to the origin)."""
        comp = self.components[cid]
        cells = list(comp.cells)
        edges = []
        for bond in comp.bonds:
            (a, _), (b, _) = tuple(bond)
            edges.append(frozenset((self.nodes[a].pos, self.nodes[b].pos)))
        labels = None
        if with_states:
            decode = self.space.states
            labels = {
                cell: decode[self.nodes[nid].sid]
                for cell, nid in comp.cells.items()
            }
        return Shape.from_cells(cells, edges, labels).normalize()

    def output_shapes(self, protocol: Protocol) -> List[Shape]:
        """The output ``G(C)`` of §3: shapes induced by output-state nodes
        and the active edges between them (one Shape per output group)."""
        decode = self.space.states
        out_nodes = {
            nid
            for nid, rec in self.nodes.items()
            if protocol.is_output(decode[rec.sid])
        }
        shapes: List[Shape] = []
        for comp in self.components.values():
            members = [nid for nid in comp.cells.values() if nid in out_nodes]
            if not members:
                continue
            member_set = set(members)
            adjacency: Dict[int, List[int]] = {nid: [] for nid in members}
            kept_bonds = []
            for bond in comp.bonds:
                (a, _), (b, _) = tuple(bond)
                if a in member_set and b in member_set:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
                    kept_bonds.append((a, b))
            unseen = set(members)
            while unseen:
                start = next(iter(unseen))
                group = {start}
                stack = [start]
                unseen.discard(start)
                while stack:
                    v = stack.pop()
                    for w in adjacency[v]:
                        if w in unseen:
                            unseen.discard(w)
                            group.add(w)
                            stack.append(w)
                cells = [self.nodes[nid].pos for nid in group]
                edges = [
                    frozenset((self.nodes[a].pos, self.nodes[b].pos))
                    for a, b in kept_bonds
                    if a in group and b in group
                ]
                shapes.append(Shape.from_cells(cells, edges).normalize())
        return shapes

    # ------------------------------------------------------------------
    # Invariant checking (used by tests and debug runs)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the structural invariants of a valid configuration.

        Raises :class:`SimulationError` on any violation: stale cell maps,
        overlapping nodes, bonds between non-facing ports, or components
        whose bond graph is disconnected.
        """
        seen_nodes = set()
        for cid, comp in self.components.items():
            for cell, nid in comp.cells.items():
                rec = self.nodes[nid]
                if rec.component_id != cid:
                    raise SimulationError(f"node {nid} component map stale")
                if rec.pos != cell:
                    raise SimulationError(f"node {nid} cell map stale")
                if nid in seen_nodes:
                    raise SimulationError(f"node {nid} in two components")
                seen_nodes.add(nid)
            if len(set(comp.cells)) != len(comp.cells):
                raise SimulationError(f"component {cid} has overlapping cells")
            for bond in comp.bonds:
                (a, pa), (b, pb) = tuple(bond)
                ra, rb = self.nodes[a], self.nodes[b]
                da = world_direction(pa, ra.orientation)
                if ra.pos + da != rb.pos:
                    raise SimulationError(f"bond {bond!r} not at unit distance")
                db = world_direction(pb, rb.orientation)
                if rb.pos + db != ra.pos:
                    raise SimulationError(f"bond {bond!r} ports not facing")
            if comp.size() > 1:
                adjacency: Dict[int, List[int]] = {
                    nid: [] for nid in comp.cells.values()
                }
                for bond in comp.bonds:
                    (a, _), (b, _) = tuple(bond)
                    adjacency[a].append(b)
                    adjacency[b].append(a)
                start = next(iter(adjacency))
                seen = {start}
                stack = [start]
                while stack:
                    v = stack.pop()
                    for w in adjacency[v]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(seen) != comp.size():
                    raise SimulationError(
                        f"component {cid} bond graph is disconnected"
                    )
        if len(seen_nodes) != len(self.nodes):
            raise SimulationError("orphan nodes outside any component")


def _positive_units(dimension: int) -> Tuple[Vec, ...]:
    if dimension == 2:
        return (Vec(1, 0, 0), Vec(0, 1, 0))
    return (Vec(1, 0, 0), Vec(0, 1, 0), Vec(0, 0, 1))


def _unit_deltas(dimension: int) -> Tuple[Vec, ...]:
    units = _positive_units(dimension)
    return units + tuple(-u for u in units)
