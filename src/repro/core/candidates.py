"""The shared effective-candidate layer behind every scheduler.

All schedulers of ``repro.core.scheduler`` select among the *effective*
permissible interactions of the current configuration. This module owns
that set, in three interchangeable forms that provably produce the same
canonically ordered list:

* :func:`reference_effective_candidates` — filter the world's full
  permissible enumeration (the §3 reference; also yields ``|Perm|``, needed
  for exact raw-step accounting).
* :func:`hot_effective_candidates` — brute-force enumeration restricted to
  *hot* nodes (states that can appear in effective interactions). Same
  result, skips provably ineffective pairs.
* :class:`EffectiveCandidateCache` — incremental maintenance of the hot
  enumeration. After each event only the *dirty neighborhood* is
  re-examined: nodes whose state changed (tracked by the
  :class:`~repro.core.world.World` change journal) plus the precise
  fallout of each record in the world-delta journal — merges, splits,
  surgery excisions and hybrid leaf moves all carry enough information
  (moved nodes, vacated/occupied cells, the cut frontier) to prune and
  re-seed only what the mutation can actually touch. Entries between
  untouched components survive verbatim; unexplained ``Component.version``
  movement still falls back to a coarse per-component sweep.

The first two are the pure-Python oracles. The cache is the one store
the schedulers run on: it keeps each entry as nothing but its canonical
``(hi, lo)`` sort key, in two sorted int64 columns regenerated by the
columnar batch kernels (:class:`repro.core.columnar.BatchContext`) for
every compiled program — exact rule tables and handler-lowered ones
alike. The rest of an entry is a function of those two ints and the
current world, derived on read: the identity key
(:func:`repro.core.columnar.key_from_sort_key`), the candidate
(:func:`repro.core.columnar.candidate_from_row`) and the update (one
``program.lookup`` on the endpoints' current states). All three forms gate
candidates through the same program questions (hot state, pair, oriented
port hints, ``can_fire``; see :mod:`repro.core.program`) on a world bound
to the program's state space (:func:`bound_program`).

Occupancy duality
-----------------

Delta pruning rests on one geometric fact with two faces. Under the §3
permissibility predicate, a cached placement depends on the two components'
cell sets only through collision probes, so:

* occupancy **growth** (merges, transplants, the occupied half of a move)
  can *invalidate* surviving placements but never create new ones — the
  cache drops exactly the entries whose cached placement collides with a
  newly occupied cell (:meth:`EffectiveCandidateCache._prune_survivors`);
* occupancy **shrinkage** (splits, excisions, the vacated half of a move)
  can *create* placements but never invalidate survivors — the cache keeps
  every surviving entry verbatim and discovers the newly permitted ones
  from the vacated cells: candidates anchored next to a vacated cell come
  from re-examining the journalled cut frontier, and placements that were
  blocked *only* by departed cells are re-seeded by sliding each multi-cell
  partner's footprint over the vacated cells
  (:meth:`EffectiveCandidateCache._reseed_vacated`). A partner none of
  whose states can fire with a state of the shrunk component (the hot and
  pair gates, asked once per component pair) is skipped before any
  geometry: every placement it could seed would be statically dead.

Surviving intra/inter entries keep their exact sort key — rotation and
translation included — in both directions; component ids are never
reused, so the canonical orientation of a surviving entry is stable
across any number of splits and merges.

Canonical form
--------------

A physical interaction can be described from either endpoint (with the
placement expressed in either component's frame). To make the three forms
comparable — and seeded runs identical across schedulers — every candidate
is produced in a *canonical orientation*:

* intra-component: the smaller node id is ``nid1``;
* inter-component: ``nid1`` belongs to the component with the smaller id
  (component ids are never reused, so this is stable between events).

and the final list is sorted by :func:`candidate_sort_key`, a total order
over full candidate identity **including rotation and translation** (two
inter-component candidates may differ only in alignment; dropping the
placement from the key made the round-robin adversary tie-break on hash
order, breaking cross-process determinism — the bug fixed by this module).

Correctness of the incremental form rests on locality: a candidate's
permissibility and effectiveness depend only on the states, ports, and
bond of its two endpoints and on the cell sets of their two components.
Any mutation of those — state writes, bond flips, merges, splits, moves,
surgery — either lands the endpoint in the change journal, is described
exactly by a world-delta record, or bumps the owning component's version
(the coarse backstop), so :meth:`refresh` invalidates exactly the entries
that may have changed. Property tests
(``tests/test_scheduler_equivalence.py`` and the randomized
world-mutation stress harness in ``tests/test_world_deltas.py``) drive
random executions with merges, splits, fault injection, surgery, and
synchronous rounds and assert the cache equals the reference after every
mutation.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.core import columnar as _col
from repro.core.columnar import (
    BatchContext,
    candidate_from_row,
    get_index,
    key_from_sort_key,
    key_nid1,
    key_nid2,
    packed_key,
    packed_sort_key,
)
from repro.core.program import CompiledProgram
from repro.core.protocol import Protocol, Update
from repro.core.world import (
    Candidate,
    MergeRecord,
    MoveRecord,
    SplitRecord,
    World,
    bond_of,
)
from repro.geometry.packed import (
    orientation_port_deltas,
    pack_delta,
    packed_rotation,
    unpack_delta,
)
from repro.geometry.ports import PORT_INDEX, PORTS_3D
from repro.geometry.rotation import rotations_for_dimension

#: Identity key of a candidate: endpoints, ports, and placement rotation,
#: packed into one int (see :func:`repro.core.columnar.packed_key`). The
#: translation and bond are determined by these plus the current
#: configuration, so the key is unique within one configuration.
CandidateKey = int

#: A cached entry: the candidate and its (effective) update.
Entry = Tuple[Candidate, Update]


def bound_program(world: World, protocol: Protocol) -> CompiledProgram:
    """The protocol's compiled program, with ``world`` bound to it.

    Binding (:meth:`World.adopt_space`) makes node records hold the
    program's interned ids, which every gate and dispatch reads. It is
    idempotent and trajectory-neutral.
    """
    program = protocol.program
    if world.space is not program.space:
        world.adopt_space(program.space)
    return program


def candidate_key(cand: Candidate) -> CandidateKey:
    """A hashable identity key for a canonical candidate (packed int)."""
    return packed_key(cand)


def candidate_sort_key(cand: Candidate):
    """A deterministic total order over candidates.

    Includes the bond and the full placement (rotation matrix and
    translation): inter-component candidates may differ *only* in
    alignment, and the order of this list feeds RNG-indexed draws and the
    round-robin adversary's turn — it must be decided by value, never by
    set/hash iteration order.
    """
    return (
        cand.nid1,
        cand.port1.value,
        cand.nid2,
        cand.port2.value,
        cand.bond,
        () if cand.rotation is None else cand.rotation.matrix,
        () if cand.translation is None else cand.translation.as_tuple(),
    )


def canonicalize(world: World, cand: Candidate) -> Candidate:
    """Re-orient a candidate into the canonical form described above.

    Intra candidates are flipped by swapping endpoints (the bond is
    symmetric); inter candidates produced by the world's reference
    enumeration are already canonical (it enumerates component pairs in
    component-id order), so only the intra case needs work.
    """
    if cand.intra:
        if cand.nid1 > cand.nid2:
            return Candidate(
                cand.nid2, cand.port2, cand.nid1, cand.port1, cand.bond
            )
        return cand
    cid1 = world.nodes[cand.nid1].component_id
    cid2 = world.nodes[cand.nid2].component_id
    if cid1 > cid2:  # pragma: no cover - reference enumeration is canonical
        raise AssertionError(
            "inter candidate not in canonical component order; generate it "
            "from the lower-id component instead of flipping frames"
        )
    return cand


def iter_intra_candidates(
    world: World, protocol: Protocol, nid: int
) -> Iterator[Candidate]:
    """Every *possibly effective* intra-component candidate at ``nid``.

    The (at most one per port) grid-adjacent pairs, probed on the packed
    occupancy of the component's geometry snapshot and pruned by the same
    hot/pair/static-effectiveness gates as the inter axis. The neighbour's
    facing port is read from its packed port deltas and the bond from one
    probe of the component's bond set (:meth:`World.intra_candidate`
    derives the same candidate from ``Vec`` arithmetic). Shared by the
    brute-force enumeration and the cache (whose batch kernels vectorize
    only the population-sized inter axis — a node has at most ``|ports|``
    intra candidates, so the scalar probe is already minimal).
    """
    program = bound_program(world, protocol)
    nodes = world.nodes
    rec = nodes[nid]
    comp = world.components[rec.component_id]
    sid = rec.sid
    nid_hot = program.is_hot_id(sid)
    geom = world.geometry(comp)
    ppos = geom.pos_of[nid]
    deltas = orientation_port_deltas(rec.orientation)
    for i, port in enumerate(world.ports):
        delta = deltas[i]
        other = geom.cells.get(ppos + delta)
        if other is None:
            continue
        other_rec = nodes[other]
        other_sid = other_rec.sid
        if not (nid_hot or program.is_hot_id(other_sid)):
            continue
        if not program.pair_can_fire(sid, other_sid):
            continue
        j = orientation_port_deltas(other_rec.orientation).index(-delta)
        other_port = PORTS_3D[j]
        bond = int(bond_of(nid, port, other, other_port) in comp.bonds)
        if not (
            program.can_fire(sid, i, bond)
            and program.can_fire(other_sid, j, bond)
        ):
            continue  # statically ineffective: no rule has these endpoints
        if nid < other:
            yield Candidate(nid, port, other, other_port, bond)
        else:
            yield Candidate(other, other_port, nid, port, bond)


def iter_node_candidates(
    world: World, protocol: Protocol, nid: int
) -> Iterator[Candidate]:
    """Every *possibly effective* canonical candidate involving ``nid``.

    Prunes with the program's gates on interned state ids — hot state,
    state pair, the oriented bond-0 port hints and, for intra candidates,
    the per-``(state, port, bond)`` ``can_fire`` index — before any
    geometry probe or dispatch happens. They are complete for an exact
    program and over-approximate (the protocol's own hints) for a
    handler-lowered one, so no effective candidate is missed; the caller
    evaluates the survivors. Candidates whose two endpoints are both
    enumerated (e.g. both dirty, or both hot) are yielded once per
    endpoint — deduplicate by :func:`candidate_key`.
    """
    program = bound_program(world, protocol)
    nodes = world.nodes
    rec = nodes[nid]
    sid = rec.sid
    nid_hot = program.is_hot_id(sid)
    yield from iter_intra_candidates(world, protocol, nid)
    # Inter-component: nid against every node of another component whose
    # state passes the gates, oriented by component id.
    for partner_sid, members in world.by_sid.items():
        if not (nid_hot or program.is_hot_id(partner_sid)):
            continue
        if not program.pair_can_fire(sid, partner_sid):
            continue
        for other in members:
            if other == nid:
                continue
            other_rec = nodes[other]
            if other_rec.component_id == rec.component_id:
                continue
            first_is_nid = rec.component_id < other_rec.component_id
            first, second = (nid, other) if first_is_nid else (other, nid)
            s1, s2 = (sid, partner_sid) if first_is_nid else (partner_sid, sid)
            for p1i, p2i in program.oriented_hints(s1, s2):
                yield from world.inter_candidates(
                    first, PORTS_3D[p1i], second, PORTS_3D[p2i]
                )


def hot_effective_candidates(
    world: World,
    protocol: Protocol,
    evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
) -> List[Entry]:
    """Brute-force hot enumeration: the canonical effective list.

    Enumerates candidates involving each hot node, deduplicates by key,
    evaluates, and sorts. Equal to the effective subset of the reference
    enumeration because hotness over-approximates ("an interaction between
    two non-hot states is ineffective").
    """
    entries: Dict[CandidateKey, Entry] = {}
    seen: Set[CandidateKey] = set()
    program = bound_program(world, protocol)
    for sid in world.by_sid:
        if not program.is_hot_id(sid):
            continue
        for nid in world.by_sid[sid]:
            for cand in iter_node_candidates(world, protocol, nid):
                key = candidate_key(cand)
                if key in seen:  # already evaluated from the other endpoint
                    continue
                seen.add(key)
                update = evaluate(protocol, world, cand)
                if update is not None:
                    entries[key] = (cand, update)
    out = list(entries.values())
    out.sort(key=lambda cu: packed_sort_key(cu[0]))
    return out


def reference_effective_candidates(
    world: World,
    protocol: Protocol,
    evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
) -> Tuple[List[Entry], int]:
    """The canonical effective list via full enumeration, plus ``|Perm|``.

    The reference form: every permissible interaction is evaluated, so the
    exact schedulers can compute the effectiveness probability
    ``|Eff| / |Perm|`` for raw-step accounting.
    """
    effective: List[Entry] = []
    permissible = 0
    program = bound_program(world, protocol)
    nodes = world.nodes
    for raw in world.enumerate_candidates():
        permissible += 1
        cand = canonicalize(world, raw)
        if not (
            program.can_fire(
                nodes[cand.nid1].sid, PORT_INDEX[cand.port1], cand.bond
            )
            and program.can_fire(
                nodes[cand.nid2].sid, PORT_INDEX[cand.port2], cand.bond
            )
        ):
            # Statically ineffective: still counted in |Perm| (the raw-step
            # law needs the full permissible count) but never dispatched.
            continue
        update = evaluate(protocol, world, cand)
        if update is not None:
            effective.append((cand, update))
    effective.sort(key=lambda cu: packed_sort_key(cu[0]))
    return effective, permissible


def _some_pair_can_fire(
    program: CompiledProgram, host_sids: List[int], guest_sids: List[int]
) -> bool:
    """Whether some (host state, guest state) pair passes the hot and pair
    gates."""
    for a in host_sids:
        hot_a = program.is_hot_id(a)
        for b in guest_sids:
            if (hot_a or program.is_hot_id(b)) and program.pair_can_fire(a, b):
                return True
    return False


class EffectiveCandidateCache:
    """Incrementally maintained canonical effective-candidate list.

    Bound lazily to one (world, protocol) pair; :meth:`refresh` returns the
    current sorted list, re-examining only the dirty neighborhood since the
    previous call:

    * nodes recorded in the world's change journal (state writes, the two
      endpoints of every applied interaction);
    * component *merges*, consumed from the world-delta journal: only the
      nodes that physically moved into the kept frame are re-examined, while
      the kept component's surviving entries are *pruned* — an entry is
      dropped iff its cached placement now collides with a newly occupied
      cell (checked on the packed representation), since occupancy growth
      can invalidate but never create permissible placements;
    * component *splits* (bond removals, surgery excisions), the dual case:
      shrinkage can create placements but never invalidate survivors, so
      every surviving entry is kept verbatim, the departed fragment's nodes
      and the journalled cut frontier are re-examined, and placements that
      were blocked only by vacated cells are re-seeded against multi-cell
      partners — except partners that no state pair can fire with, which
      are skipped before any geometry (see the "occupancy duality" section
      of the module docstring);
    * intra-component *moves* (hybrid leaf rotations): the vacated half is
      treated as a split, the occupied half as a merge, and the swung
      node(s) re-examined;
    * all nodes of components whose ``version`` counter moved without a
      consumable delta record (external surgery that bypasses the journal,
      a broken version trail mid-gap) or that appeared or vanished outside
      a journalled delta — the coarse sweep, kept as the backstop.

    If a journal was truncated under the cache (an unboundedly long gap
    between refreshes) or the binding changed (another world, protocol or
    state space), the cache falls back to a full rebuild / coarse sweep —
    never to a stale answer.

    The store: two int64 columns, the canonical sort-key halves ``hi``
    and ``lo``, kept in ``(hi, lo)`` order. Identity key, candidate and
    update are derived from a row on read (see the module docstring), and
    endpoint membership — in invalidation and in the merge prune — is a
    boolean mask over node ids gathered at each row's ``nid1``/``nid2``.
    Invalidation, pruning, and the canonical merge all run as array ops,
    and a refresh hands out a :class:`_DenseView` over the columns.

    Every merge, split and move record takes its delta path; the coarse
    version sweep is only the backstop for version movement no record
    explains. :func:`hot_effective_candidates` is the brute-force oracle
    the tests hold the cache to.
    """

    def __init__(self) -> None:
        self._world: Optional[World] = None
        self._protocol: Optional[Protocol] = None
        self._cursor = 0
        self._delta_cursor = 0
        self._batch: Optional[BatchContext] = None
        self._comp_versions: Dict[int, int] = {}
        self._comp_members: Dict[int, Tuple[int, ...]] = {}
        self._sorted: Optional[_DenseView] = None
        #: The store: canonical sort-key halves, in ``(hi, lo)`` order.
        self._d_hi = None
        self._d_lo = None
        #: Generated ``(his, los)`` chunks awaiting the canonical merge.
        self._d_new: List[tuple] = []
        #: Rows marked dropped but not yet compressed out (one compress
        #: per refresh instead of one per delta record).
        self._d_drop = None
        #: Lazy (nid1, nid2, is_inter) columns of the store, shared by
        #: every prune/invalidate pass between structural changes.
        self._d_cols = None
        #: Re-seeded rows awaiting the merge: ``(key, hi, lo)`` — kept as
        #: Python rows (reseeds are rare) so the split/move prune can
        #: still probe them individually.
        self._pending_rows: List[tuple] = []
        self._pending_keys: Set[CandidateKey] = set()
        #: Protocol-delta evaluations performed (the scheduler cost metric
        #: reported by ``benchmarks/bench_schedulers.py``).
        self.evaluations = 0
        self.full_rebuilds = 0
        self.refreshed_nodes = 0
        #: Merges handled by delta pruning (vs. coarse version sweeps).
        self.merge_prunes = 0
        #: Splits handled by delta pruning (vs. coarse version sweeps).
        self.split_prunes = 0
        #: Moves handled by delta pruning (vs. coarse version sweeps).
        self.move_prunes = 0

    # ------------------------------------------------------------------

    def refresh(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
    ) -> List[Entry]:
        """The canonical sorted effective list for the current configuration:
        a view that derives its entries on read, so it is valid until the
        world next mutates (see :class:`_DenseView`)."""
        if (
            world is not self._world
            or protocol is not self._protocol
            or world.space is not protocol.program.space
        ):
            self._rebuild(world, protocol, evaluate)
            assert self._sorted is not None
            return self._sorted
        dirty = world.changes_since(self._cursor)
        if dirty is None:  # journal truncated under us
            self._rebuild(world, protocol, evaluate)
            assert self._sorted is not None
            return self._sorted
        self._cursor = world.change_cursor()
        deltas = world.deltas_since(self._delta_cursor)
        self._delta_cursor = world.delta_cursor()
        self._batch = self._make_batch(world, protocol)
        if deltas:
            # Records replay in mutation order, so each component's version
            # trail can be followed bump by bump across a whole gap of
            # interleaved merges, splits, and moves.
            for kind, record in deltas:
                if kind == "merge":
                    self._apply_merge(world, record, dirty)
                elif kind == "split":
                    self._apply_split(world, protocol, evaluate, record, dirty)
                elif kind == "move":
                    self._apply_move(world, protocol, evaluate, record, dirty)
        # Deltas with an up-to-date version trail were consumed above; any
        # remaining version movement (unjournalled surgery, records whose
        # trail broke mid-gap, a truncated delta journal) is swept coarsely.
        self._sweep_component_versions(world, dirty)
        if dirty:
            self._invalidate(dirty)
            self._generate(world, protocol, evaluate, sorted(dirty))
            self._sorted = None
        if self._sorted is None:
            self._sorted = self._finalize_sorted()
        return self._sorted

    # ------------------------------------------------------------------

    def _rebuild(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
    ) -> None:
        program = bound_program(world, protocol)
        self._world = world
        self._protocol = protocol
        self._cursor = world.change_cursor()
        self._delta_cursor = world.delta_cursor()
        self._comp_versions = {
            cid: comp.version for cid, comp in world.components.items()
        }
        self._comp_members = {
            cid: tuple(comp.cells.values())
            for cid, comp in world.components.items()
        }
        self.full_rebuilds += 1
        self._d_hi = self._d_lo = None
        self._d_new = []
        self._d_drop = None
        self._d_cols = None
        self._pending_rows = []
        self._pending_keys = set()
        self._batch = self._make_batch(world, protocol)
        hot = [
            nid
            for sid in world.by_sid
            if program.is_hot_id(sid)
            for nid in world.by_sid[sid]
        ]
        self._generate(world, protocol, evaluate, hot)
        self._sorted = self._finalize_sorted()

    def _make_batch(self, world: World, protocol: Protocol) -> BatchContext:
        """This refresh's batch-generation context over the synced columns.

        The context reuses the index's tagged occupancy unless the sync
        saw geometry move, so only a refresh that rebuilds it can raise
        ``OverflowError`` (components beyond ``MAX_TAG_COMPONENTS``). A
        handler program's hint verdicts live on the program and carry over
        from one context to the next.
        """
        idx = get_index(world)
        idx.sync()
        return BatchContext(world, protocol, protocol.program, idx)

    # -- the sorted store ----------------------------------------------

    def _finalize_sorted(self) -> "_DenseView":
        """Merge pending rows into the canonical (hi, lo)-sorted store
        (C-level compress + merge) and hand out a lazy sequence view."""
        if self._d_drop is not None:
            # Prunes ran but no node went dirty: apply the deferred drops
            # before the merge below.
            self._d_compress(~self._d_drop)
            self._d_drop = None
        chunks = self._d_new
        self._d_new = []
        if self._pending_rows:
            _keys, his, los = zip(*self._pending_rows)
            chunks.append((np.array(his, np.int64), np.array(los, np.int64)))
            self._pending_rows = []
            self._pending_keys = set()
        if chunks:
            if self._d_hi is not None:
                chunks.insert(0, (self._d_hi, self._d_lo))
            his = np.concatenate([c[0] for c in chunks])
            los = np.concatenate([c[1] for c in chunks])
            # Within one configuration a row's identity key is unique and
            # orders rows exactly as its (hi, lo) sort key does: both keys
            # lead with (nid1, port1, nid2, port2), after which the bond
            # is fixed by the endpoints and an inter row's rotation fixes
            # its translation. The store is one sorted run; the new chunks
            # arrive in kernel order, and the stable sort merges them in.
            order = key_from_sort_key(his, los).argsort(kind="stable")
            self._d_hi, self._d_lo = his[order], los[order]
            self._d_cols = None
        elif self._d_hi is None:
            self._d_hi = np.empty(0, dtype=np.int64)
            self._d_lo = np.empty(0, dtype=np.int64)
        return _DenseView(
            self._d_hi, self._d_lo, self._world, self._protocol.program
        )

    def _d_compress(self, keep) -> None:
        self._d_hi = self._d_hi[keep]
        self._d_lo = self._d_lo[keep]
        self._d_cols = None

    def _d_endpoints(self):
        """The (nid1, nid2, is_inter) columns of the store, memoized."""
        cols = self._d_cols
        if cols is None:
            hi = self._d_hi
            n1 = hi >> _col.H_NID1_SHIFT
            n2 = (hi >> _col.H_NID2_SHIFT) & (_col.NID_LIMIT - 1)
            cols = (n1, n2, self._d_lo != 0)  # an intra row's lo is 0
            self._d_cols = cols
        return cols

    def _node_mask(self, nids) -> np.ndarray:
        """A boolean mask over node ids, set exactly at ``nids``."""
        mask = np.zeros(self._world._next_nid, dtype=bool)
        mask[np.fromiter(nids, np.int64, count=len(nids))] = True
        return mask

    def _d_contains(self, hi: int, lo: int) -> bool:
        """Whether the store holds the row with this exact sort key (the
        key determines the placement within one configuration, so this is
        identity containment)."""
        d_hi = self._d_hi
        if d_hi is None or len(d_hi) == 0:
            return False
        p = int(np.searchsorted(d_hi, hi, side="left"))
        d_lo = self._d_lo
        while p < len(d_hi) and d_hi[p] == hi:
            if d_lo[p] == lo:
                return self._d_drop is None or not self._d_drop[p]
            p += 1
        return False

    def _invalidate(self, dirty: Set[int]) -> None:
        """Drop every stored or pending row with a dirty endpoint."""
        if self._d_hi is not None and len(self._d_hi):
            mask = self._node_mask(dirty)
            n1, n2, _inter = self._d_endpoints()
            hit = mask[n1]
            hit |= mask[n2]
            if self._d_drop is not None:
                hit |= self._d_drop
                self._d_drop = None
            if hit.any():
                self._d_compress(~hit)
        if self._pending_rows:
            kept = []
            for row in self._pending_rows:
                key = row[0]
                if key_nid1(key) in dirty or key_nid2(key) in dirty:
                    self._pending_keys.discard(key)
                else:
                    kept.append(row)
            self._pending_rows = kept

    def _generate(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        nids,
    ) -> None:
        """Regenerate entries for a batch of dirty nodes as array chunks.

        The population-sized inter axis runs on the batch kernels
        (:meth:`BatchContext.inter_rows`), which evaluate every gated
        permissible row once and hand over the effective ones as
        ``(his, los)`` chunks with the number of rows evaluated; the
        counts are summed here (a handler-lowered program's ineffective
        rows are counted but never emitted). Intra candidates (at most
        ``|ports|`` per node) stay scalar. Only the ``(hi, lo)`` sort keys
        are kept.
        """
        live = [nid for nid in nids if nid in world.nodes]
        if not live:
            return
        self.refreshed_nodes += len(live)
        sink: List[tuple] = []
        self._batch.inter_rows(live, sink)
        if sink:
            evals = 0
            for his, los, evaluated in sink:
                evals += evaluated
                if len(his):
                    self._d_new.append((his, los))
                    self._sorted = None
            self.evaluations += evals
            sched = getattr(evaluate, "__self__", None)
            if sched is not None:
                sched.evaluations += evals
        seen: Set[CandidateKey] = set()
        irows: List[Tuple[int, int]] = []
        for nid in live:
            for cand in iter_intra_candidates(world, protocol, nid):
                key = candidate_key(cand)
                if key in seen:
                    continue  # regenerated from the partner this refresh
                seen.add(key)
                self.evaluations += 1
                if evaluate(protocol, world, cand) is not None:
                    irows.append(packed_sort_key(cand))
        if irows:
            his, los = zip(*irows)
            self._d_new.append(
                (np.array(his, np.int64), np.array(los, np.int64))
            )
            self._sorted = None

    def _sweep_component_versions(self, world: World, dirty: Set[int]) -> None:
        """Fold component-version movement into the dirty node set."""
        seen = set()
        for cid, comp in world.components.items():
            seen.add(cid)
            version = comp.version
            if self._comp_versions.get(cid) == version:
                continue
            # New component or bumped version: its previous and current
            # members all carry potentially stale geometry.
            dirty.update(self._comp_members.get(cid, ()))
            members = tuple(comp.cells.values())
            dirty.update(members)
            self._comp_versions[cid] = version
            self._comp_members[cid] = members
        for cid in list(self._comp_versions):
            if cid not in seen:  # vanished (merged away)
                dirty.update(self._comp_members.pop(cid, ()))
                del self._comp_versions[cid]

    def _apply_merge(
        self, world: World, record: MergeRecord, dirty: Set[int]
    ) -> None:
        """Consume one journalled merge with delta pruning.

        Only applies when the cache's version trail matches the record
        exactly (kept component seen at ``version - 1``, absorbed component
        tracked); anything else — interleaved splits or surgery, components
        born since the last refresh, chained merges whose kept side has
        since vanished — is left to the coarse version sweep, which remains
        fully correct on its own.

        Under the fine path, the nodes that moved into the kept frame are
        dirtied (their placements and seam adjacencies changed), and the
        kept component's surviving inter entries are collision-probed
        against the newly occupied packed cells: occupancy growth can only
        *remove* permissible placements, so dropping exactly the colliding
        entries keeps the cache equal to the reference.
        """
        kept, version, absorbed, new_cells, moved = record
        if self._comp_versions.get(kept) != version - 1:
            return
        if absorbed not in self._comp_versions:
            return
        comp = world.components.get(kept)
        if comp is None:
            return
        survivors = self._comp_members.get(kept, ())
        # The absorbed component is consumed here: its members (== moved,
        # when the trail is clean) regenerate from their new geometry.
        dirty.update(self._comp_members.pop(absorbed, ()))
        del self._comp_versions[absorbed]
        dirty.update(moved)
        self._prune_survivors(world, survivors, new_cells, dirty)
        self._comp_versions[kept] = version
        self._comp_members[kept] = tuple(survivors) + tuple(moved)
        self.merge_prunes += 1

    def _prune_survivors(
        self,
        world: World,
        survivors: Tuple[int, ...],
        new_cells: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Drop surviving inter entries whose cached placement collides
        with newly occupied packed cells.

        The growth half of the occupancy duality: new occupancy can only
        *remove* permissible placements, so dropping exactly the colliding
        entries keeps the cache equal to the reference. The stored rows
        are pruned in one vectorized sweep, the not-yet-merged re-seeded
        rows one by one (:meth:`_prune_pending`), with the same decisions.
        """
        self._prune_stored(world, survivors, new_cells, dirty)
        self._prune_pending(world, survivors, new_cells, dirty)

    def _prune_stored(
        self,
        world: World,
        survivors: Tuple[int, ...],
        new_cells: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """The merge prune over the sorted store: one vectorized sweep.

        Selects the surviving inter rows with array masks, resolves the
        partner-side component trail per *component* instead of per
        entry, and probes every row's placement with one membership
        gather per rotation code against the global occupancy tags.
        """
        d_hi = self._d_hi
        if d_hi is None or not len(d_hi) or not survivors or not new_cells:
            return
        surv = self._node_mask(survivors)
        n1, n2, inter = self._d_endpoints()
        s1 = surv[n1]
        m = s1 | surv[n2]
        m &= inter
        if self._d_drop is not None:
            m &= ~self._d_drop
        rows = np.nonzero(m)[0]
        if dirty and len(rows):
            # The dirty filter only matters on the selected rows — keep
            # the full-store passes to the survivor masks above.
            hit = self._node_mask(dirty)
            rows = rows[~(hit[n1[rows]] | hit[n2[rows]])]
        if not len(rows):
            return
        first = s1[rows]  # survivor is nid1: partner placed in this frame
        mine = np.where(first, n1[rows], n2[rows])
        partner = np.where(first, n2[rows], n1[rows])
        batch = self._batch
        pcid = batch.idx.cid[partner]
        components = world.components
        clean = np.ones(len(rows), dtype=bool)
        for cid in np.flatnonzero(np.bincount(pcid)).tolist():
            comp = components.get(cid)
            if (
                comp is None
                or self._comp_versions.get(cid) != comp.version
            ):
                # The partner component changed in the same gap (e.g. both
                # endpoints' components merged): neither record alone can
                # delta-probe these rows, since each side's new cells must
                # be checked against the *other side's full placement*.
                # Re-examine the survivor side wholesale.
                sel = pcid == cid
                clean[sel] = False
                dirty.update(mine[sel].tolist())
        if not clean.any():
            return
        lo = self._d_lo[rows]
        trans = (lo & _col._LO_TRANS_MASK) - _col.PACKED_ORIGIN
        codes = lo >> _col.L_ROT_SHIFT
        ptag = batch.node_tag[partner]
        occ_tags = batch.occ_tags
        new_arr = np.fromiter(new_cells, np.int64, count=len(new_cells))
        drop = np.zeros(len(rows), dtype=bool)
        for code in np.flatnonzero(np.bincount(codes[clean])).tolist():
            sel = clean & (codes == code)
            a = sel & first
            if a.any():
                # Partner placed into the survivor's frame: a collision
                # with a new cell, pulled back into the partner frame by
                # the inverse rotation, lands on the partner's occupancy
                # — which the global tag array answers for every row.
                inv = _col.INV_CODE[code]
                inv_new = _col.rotate_by_code(new_arr, inv)
                inv_t = (
                    _col.rotate_by_code(trans[a] + _col.PACKED_ORIGIN, inv)
                    - _col.PACKED_ORIGIN
                )
                probes = (ptag[a] - inv_t)[:, None] + inv_new[None, :]
                drop[a] = (
                    _col.in_sorted(probes.reshape(-1), occ_tags)
                    .reshape(probes.shape)
                    .any(axis=1)
                )
            b = sel & ~first
            if b.any():
                # Partner hosts: map the new cells into its frame and
                # probe its occupancy through the tags.
                rnew = _col.rotate_by_code(new_arr, code)
                probes = (ptag[b] + trans[b])[:, None] + rnew[None, :]
                drop[b] = (
                    _col.in_sorted(probes.reshape(-1), occ_tags)
                    .reshape(probes.shape)
                    .any(axis=1)
                )
        if drop.any():
            # Defer the physical removal: mark the rows and compress once
            # per refresh (in invalidate or finalize), not once per record.
            if self._d_drop is None:
                self._d_drop = np.zeros(len(d_hi), dtype=bool)
            self._d_drop[rows[drop]] = True
            self._sorted = None

    def _prune_pending(
        self,
        world: World,
        survivors: Tuple[int, ...],
        new_cells: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """The merge prune over not-yet-merged re-seeded rows (scalar —
        reseeds are rare), mirroring the decisions of the stored sweep."""
        if not self._pending_rows or not survivors or not new_cells:
            return
        sset = set(survivors)
        nodes = world.nodes
        components = world.components
        kept = []
        for row in self._pending_rows:
            # Re-seeded rows are all inter: rebuild the candidate to probe.
            cand = candidate_from_row(*row)
            drop = False
            if cand.nid1 in sset:
                nid, other = cand.nid1, cand.nid2
            elif cand.nid2 in sset:
                nid, other = cand.nid2, cand.nid1
            else:
                nid = None
            if nid is not None and nid not in dirty and other not in dirty:
                other_cid = nodes[other].component_id
                other_comp = components.get(other_cid)
                if (
                    other_comp is None
                    or self._comp_versions.get(other_cid) != other_comp.version
                ):
                    dirty.add(nid)
                else:
                    g_other = world.geometry(other_comp)
                    trans = pack_delta(cand.translation)
                    if cand.nid1 == nid:
                        drop = any(
                            (cell + trans) in new_cells
                            for cell in g_other.rotated(cand.rotation)
                        )
                    else:
                        rotate = packed_rotation(cand.rotation)
                        occ = g_other.occ
                        drop = any(
                            (rotate(cell) + trans) in occ for cell in new_cells
                        )
            if drop:
                self._pending_keys.discard(row[0])
                self._sorted = None
            else:
                kept.append(row)
        self._pending_rows = kept

    def _apply_split(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        record: SplitRecord,
        dirty: Set[int],
    ) -> None:
        """Consume one journalled split (or surgery excision) finely.

        Only applies when the cache's version trail matches the record
        exactly (kept component seen at ``version - 1``); anything else is
        left to the coarse version sweep, which remains fully correct on
        its own.

        The shrinkage half of the occupancy duality: vacated cells can
        create placements but never invalidate survivors, so surviving
        entries are kept verbatim while

        * the departed fragments' nodes regenerate wholesale (their
          component ids changed, so old intra entries across the cut and
          stale-orientation inter entries all re-derive);
        * the journalled cut frontier regenerates (newly opened slots —
          covers every new candidate whose placement lands a node *on* a
          vacated target cell, which is all of them for singleton
          partners);
        * placements of multi-cell partners that were blocked only by
          departed cells are re-seeded from the vacated cells
          (:meth:`_reseed_vacated`).
        """
        kept, version, fragments, vacated, frontier = record
        if self._comp_versions.get(kept) != version - 1:
            return
        comp = world.components.get(kept)
        if comp is None:
            return
        if any(fcid in self._comp_versions for fcid, _v, _m in fragments):
            return  # cid reuse — cannot happen, but never mis-track
        departed: Set[int] = set()
        for fcid, fversion, members in fragments:
            dirty.update(members)
            departed.update(members)
            # Track fragments at their birth version: later records in the
            # same gap (a fragment merging or re-splitting) advance the
            # trail record by record.
            self._comp_versions[fcid] = fversion
            self._comp_members[fcid] = tuple(members)
        survivors = tuple(
            nid
            for nid in self._comp_members.get(kept, ())
            if nid not in departed
        )
        self._comp_versions[kept] = version
        self._comp_members[kept] = survivors
        dirty.update(frontier)
        self._reseed_vacated(
            world, protocol, evaluate, kept, comp, vacated, dirty
        )
        self.split_prunes += 1

    def _apply_move(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        record: MoveRecord,
        dirty: Set[int],
    ) -> None:
        """Consume one journalled intra-component move (leaf rotation).

        A move is shrinkage at the vacated cell plus growth at the newly
        occupied one: survivors are pruned against the occupied cell
        (merge rule), new placements are re-seeded from the vacated cell
        (split rule), and the swung node(s) regenerate wholesale.
        """
        cid, version, dirtied, vacated, new_cells, frontier = record
        if self._comp_versions.get(cid) != version - 1:
            return
        comp = world.components.get(cid)
        if comp is None:
            return
        dirty.update(dirtied)
        dirty.update(frontier)
        self._prune_survivors(
            world, self._comp_members.get(cid, ()), new_cells, dirty
        )
        self._comp_versions[cid] = version
        self._reseed_vacated(
            world, protocol, evaluate, cid, comp, vacated, dirty
        )
        self.move_prunes += 1

    def _reseed_vacated(
        self,
        world: World,
        protocol: Protocol,
        evaluate: Callable[[Protocol, World, Candidate], Optional[Update]],
        kept_cid: int,
        comp,
        vacated: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Discover inter candidates newly permitted by occupancy shrinkage.

        A placement that was impermissible before the shrinkage and is
        permissible after it must have had *all* its collisions on
        now-vacated cells — so every such placement lands a cell of one
        side on a vacated cell. Four partner classes:

        * singleton partners need no work here: their only landing cell is
          the target slot, so a new candidate's kept-side anchor is
          grid-adjacent to a vacated cell — a frontier node, already
          dirty;
        * partners whose trail is mid-flux in the same gap (pending
          records) are folded into the dirty set wholesale — their full
          regeneration covers every pair with the kept component;
        * multi-cell partners that no state pair can fire with are
          skipped before any geometry: unless some (host state, guest
          state) pair of the two components' current members passes the
          hot and pair gates — asked host first, as
          :meth:`_insert_reseeded` asks them — every seeded placement
          would be rejected there without an evaluation;
        * the remaining multi-cell partners are re-seeded by sliding their
          footprint over the vacated cells (both canonical orientations,
          depending on which side's frame hosts the placement) and
          verifying each seeded placement against the *current*
          occupancy.
        """
        if not vacated:
            return
        program = protocol.program
        nodes = world.nodes
        kept_sids = sorted({nodes[nid].sid for nid in comp.cells.values()})
        for tcid in sorted(self._comp_versions):
            if tcid == kept_cid:
                continue
            tcomp = world.components.get(tcid)
            if tcomp is None:
                continue  # merged away later in the gap: that record/sweep dirties it
            if self._comp_versions.get(tcid) != tcomp.version:
                dirty.update(self._comp_members.get(tcid, ()))
                dirty.update(tcomp.cells.values())
                continue
            if tcomp.size() < 2:
                continue  # covered by the frontier (see docstring)
            members = self._comp_members.get(tcid, ())
            if members and all(nid in dirty for nid in members):
                continue  # full regeneration already covers this pair
            t_sids = sorted({nodes[nid].sid for nid in tcomp.cells.values()})
            kept_hosts = kept_cid < tcid
            host, guest = (
                (kept_sids, t_sids) if kept_hosts else (t_sids, kept_sids)
            )
            if not _some_pair_can_fire(program, host, guest):
                continue  # every seed would fail the static gates
            g_kept = world.geometry(comp)
            g_t = world.geometry(tcomp)
            if kept_hosts:
                self._reseed_as_host(
                    world, protocol, evaluate, g_kept, g_t, vacated, dirty
                )
            else:
                self._reseed_as_guest(
                    world, protocol, evaluate, g_t, g_kept, vacated, dirty
                )

    def _reseed_as_host(
        self,
        world: World,
        protocol: Protocol,
        evaluate,
        g_host,
        g_guest,
        vacated: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Re-seed placements of a multi-cell guest into the shrunk host.

        The host (the component that vacated cells) has the smaller cid,
        so candidates place the guest into the host's frame. Seeds land
        each rotated guest cell on each vacated host cell; surviving the
        collision probe against the current host occupancy makes the
        placement permissible, and each guest node-port facing an occupied
        host cell anchors one canonical candidate.
        """
        occ_host = g_host.occ
        ports = world.ports
        nodes = world.nodes
        seen_placements: Set[Tuple[tuple, int]] = set()
        for rot in rotations_for_dimension(world.dimension):
            rotated = g_guest.rotated(rot)
            guest_items = tuple(zip(g_guest.cells.values(), rotated))
            for v in vacated:
                for rcell in rotated:
                    trans = v - rcell
                    pkey = (rot.matrix, trans)
                    if pkey in seen_placements:
                        continue
                    seen_placements.add(pkey)
                    if any((c + trans) in occ_host for c in rotated):
                        continue  # still collides elsewhere
                    for nid2, rc2 in guest_items:
                        image = rc2 + trans
                        rec2 = nodes[nid2]
                        rdeltas = orientation_port_deltas(
                            rot.compose(rec2.orientation)
                        )
                        for i2, p2 in enumerate(ports):
                            pos1 = image + rdeltas[i2]
                            nid1 = g_host.cells.get(pos1)
                            if nid1 is None:
                                continue
                            self._insert_reseeded(
                                world,
                                protocol,
                                evaluate,
                                nid1,
                                image - pos1,
                                nid2,
                                p2,
                                rot,
                                trans,
                                dirty,
                            )

    def _reseed_as_guest(
        self,
        world: World,
        protocol: Protocol,
        evaluate,
        g_host,
        g_guest,
        vacated: FrozenSet[int],
        dirty: Set[int],
    ) -> None:
        """Re-seed placements of the shrunk component into a multi-cell host.

        The partner hosts (smaller cid), so candidates place the shrunk
        guest into the *host's* frame; ``vacated`` cells live in the guest
        frame. Seeds land each rotated vacated cell on each occupied host
        cell — exactly the previously-colliding placements — then probe
        the guest's current footprint against the host occupancy via
        inverse rotation (cheap when the host is small, regardless of the
        guest's size), and anchor candidates at the host's open slots.
        """
        occ_host = g_host.occ
        occ_guest = g_guest.occ
        nodes = world.nodes
        ports = world.ports
        seen_placements: Set[Tuple[tuple, int]] = set()
        for rot in rotations_for_dimension(world.dimension):
            apply_rot = packed_rotation(rot)
            inv = packed_rotation(rot.inverse())
            rotated_vacated = tuple(apply_rot(v) for v in vacated)
            for rv in rotated_vacated:
                for hcell in occ_host:
                    trans = hcell - rv
                    pkey = (rot.matrix, trans)
                    if pkey in seen_placements:
                        continue
                    seen_placements.add(pkey)
                    if any(
                        inv(hc - trans) in occ_guest for hc in occ_host
                    ):
                        continue  # the guest still collides with the host
                    for (nid1, p1) in g_host.slots():
                        rec1 = nodes[nid1]
                        d1 = orientation_port_deltas(rec1.orientation)[
                            PORT_INDEX[p1]
                        ]
                        target = g_host.pos_of[nid1] + d1
                        nid2 = g_guest.cells.get(inv(target - trans))
                        if nid2 is None:
                            continue
                        self._insert_reseeded(
                            world,
                            protocol,
                            evaluate,
                            nid1,
                            d1,
                            nid2,
                            None,
                            rot,
                            trans,
                            dirty,
                        )

    def _insert_reseeded(
        self,
        world: World,
        protocol: Protocol,
        evaluate,
        nid1: int,
        d1: int,
        nid2: int,
        p2,
        rot,
        trans: int,
        dirty: Set[int],
    ) -> None:
        """Materialize one re-seeded placement as a canonical candidate.

        ``d1`` is the packed world-frame delta from the anchor ``nid1``
        toward the landing cell of ``nid2``; the anchor's port ``p1`` and
        (when not already fixed by the caller) the guest's port ``p2`` are
        recovered by matching oriented port deltas — the alignment
        condition ``rot(d2) == -d1`` of the §3 kernel.
        """
        if nid1 in dirty or nid2 in dirty:
            return  # regeneration of the dirty endpoint covers this pair
        nodes = world.nodes
        ports = world.ports
        rec1 = nodes[nid1]
        deltas1 = orientation_port_deltas(rec1.orientation)
        p1 = None
        for i, port in enumerate(ports):
            if deltas1[i] == d1:
                p1 = port
                break
        if p1 is None:  # pragma: no cover - d1 is always a unit delta
            return
        if p2 is None:
            rec2 = nodes[nid2]
            rdeltas2 = orientation_port_deltas(rot.compose(rec2.orientation))
            for i, port in enumerate(ports):
                if rdeltas2[i] == -d1:
                    p2 = port
                    break
            if p2 is None:  # pragma: no cover - the rotation group is closed
                return
        # The same static gates iter_node_candidates applies: skip pairs no
        # rule can ever fire on before spending an evaluation (statically
        # dead candidates evaluate to None anyway, so this only trims the
        # evaluation count, never the cached set).
        program = protocol.program
        sid1, sid2 = rec1.sid, nodes[nid2].sid
        if not (program.is_hot_id(sid1) or program.is_hot_id(sid2)):
            return
        if not program.pair_can_fire(sid1, sid2):
            return
        if not (
            program.can_fire(sid1, PORT_INDEX[p1], 0)
            and program.can_fire(sid2, PORT_INDEX[p2], 0)
        ):
            return
        cand = Candidate(nid1, p1, nid2, p2, 0, rot, unpack_delta(trans))
        key = candidate_key(cand)
        hi, lo = packed_sort_key(cand)
        if key in self._pending_keys or self._d_contains(hi, lo):
            return  # already cached (a surviving or re-seeded row)
        self.evaluations += 1
        if evaluate(protocol, world, cand) is None:
            return
        self._pending_rows.append((key, hi, lo))
        self._pending_keys.add(key)
        self._sorted = None


class _DenseView:
    """Sequence view over the cache's sorted ``(hi, lo)`` columns.

    The canonical effective list without per-refresh Python
    materialization. Entries are derived on read: the
    :class:`~repro.core.world.Candidate` is rebuilt from its row
    (:func:`repro.core.columnar.candidate_from_row` of
    :func:`repro.core.columnar.key_from_sort_key`), and its update is one
    ``program.lookup`` on the endpoints' *current* states — the same table
    or memo entry generation fetched, since any state change dirties the
    row. Reading never counts as an evaluation.

    A view is therefore valid until the next world mutation: every
    consumer (the four schedulers and the hybrid mover) indexes it before
    it applies anything. Supports exactly what they and the equivalence
    tests use: ``len``, integer/slice indexing, iteration, truthiness, and
    ``==`` against lists of entries (both orientations — ``list.__eq__``
    returns ``NotImplemented`` for a view, so Python falls through to the
    reflected comparison here).
    """

    __slots__ = ("_hi", "_lo", "_world", "_program")

    def __init__(
        self, his, los, world: World, program: CompiledProgram
    ) -> None:
        self._hi = his
        self._lo = los
        self._world = world
        self._program = program

    def _entry(self, hi: int, lo: int) -> Entry:
        cand = candidate_from_row(key_from_sort_key(hi, lo), hi, lo)
        nodes = self._world.nodes
        update = self._program.lookup(
            nodes[cand.nid1].sid,
            PORT_INDEX[cand.port1],
            nodes[cand.nid2].sid,
            PORT_INDEX[cand.port2],
            cand.bond,
        )
        return cand, update

    def __len__(self) -> int:
        return len(self._hi)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(
                map(self._entry, self._hi[i].tolist(), self._lo[i].tolist())
            )
        if i < 0:
            i += len(self._hi)
        if not 0 <= i < len(self._hi):
            raise IndexError(i)
        return self._entry(int(self._hi[i]), int(self._lo[i]))

    def __iter__(self):
        return map(self._entry, self._hi.tolist(), self._lo.tolist())

    def __bool__(self) -> bool:
        return len(self._hi) > 0

    def __eq__(self, other):
        if isinstance(other, _DenseView):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_DenseView({list(self)!r})"
