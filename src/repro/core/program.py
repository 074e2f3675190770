"""Compiled protocol IR: interned states, packed transitions, static indexes.

The paper's Definition 1 presents a protocol as a finite table
``delta : (Q x P) x (Q x P) x {0,1} -> Q x Q x {0,1}``. The friendly
:class:`~repro.core.protocol.Protocol` API keeps ``Q`` as arbitrary
hashables (mostly strings) at the boundary, but the simulator's hot loop —
one ``delta`` lookup per enumerated candidate — should not hash tuples of
strings. This module compiles any protocol down to a small-int IR:

* :class:`StateSpace` — interns states to dense small ints. For rule
  protocols the initial order is *derived from the canonical rule sort*
  (never from dict iteration), so seeded trajectories cannot depend on
  construction order; states first seen at runtime (constructor surgery,
  fault injection) are appended in observation order, which is itself
  deterministic for a seeded run.
* :class:`TransitionTable` — packs each LHS ``(state1, port1, state2,
  port2, bond)`` into **one int key** mapping to the prebuilt RHS tuple.
  Both orientations of every rule are inserted at build time, so dispatch
  is a single int-dict ``get`` with zero tuple allocation; ineffective
  entries are dropped at build time, never re-checked per interaction.
* :class:`CompiledProgram` — the table plus static indexes consulted by
  the candidate layer and all four schedulers: a per-state *hot bitmask*
  and the per-``(state, port, bond)`` *static-effectiveness* index
  (:meth:`CompiledProgram.can_fire`), which prunes candidates that **no**
  rule can ever fire on before any geometry or dispatch work happens.
* :class:`MemoProgram` — the escape hatch for handler-backed protocols
  (:class:`~repro.core.protocol.AgentProtocol` and friends): observed
  transitions are lowered into the same packed table lazily, so repeat
  interactions cost one int-dict hit instead of a handler call. It is
  *not* closed-world (``exact = False``): its gates — hot state, pair
  compatibility, oriented port hints — come from the protocol's own
  over-approximate hints, memoized per interned state, and it never
  proves a ``(state, port, bond)`` endpoint dead.

``World`` adopts a program's :class:`StateSpace` (see
``World.adopt_space``) so node records store interned ids internally and
the scheduler's ``evaluate`` reads them with no conversion; public states
cross the boundary only at ``add_*`` / ``state_of`` / render edges.

Every program answers the same gate questions (:meth:`CompiledProgram.
is_hot_id`, :meth:`~CompiledProgram.pair_can_fire`,
:meth:`~CompiledProgram.oriented_hints`, :meth:`~CompiledProgram.can_fire`),
and the columnar batch kernels (:mod:`repro.core.columnar`) consume them
on interned ids: the per-node ``sid`` column and per-state-pair gates.
For an exact program every hinted row is effective, so the kernels never
dispatch; for a :class:`MemoProgram` they make one
:meth:`~CompiledProgram.lookup` per ``(state pair, port pair)`` group,
whose memoized update may be ``None``, keep the answer in the program's
per-state-pair verdict array (:meth:`MemoProgram.hint_verdicts`), and
drop the ineffective rows after counting their evaluations.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import ProtocolError
from repro.geometry.ports import PORT_INDEX, Port

State = Hashable
#: An update in boundary form: ``(new_state1, new_state2, new_bond)``.
Update = Tuple[State, State, int]

#: Bit widths of the packed LHS key. States get 24 bits (16M interned
#: states before overflow — enforced by :meth:`StateSpace.intern`), ports
#: 3 bits (six ports), the bond 1 bit:
#: ``key = s1 << 31 | s2 << 7 | p1 << 4 | p2 << 1 | bond``.
STATE_BITS = 24
MAX_STATES = 1 << STATE_BITS
PORT_BITS = 3

_S2_SHIFT = PORT_BITS + PORT_BITS + 1          # 7
_S1_SHIFT = STATE_BITS + _S2_SHIFT             # 31
_P1_SHIFT = PORT_BITS + 1                      # 4


def pack_lhs(s1: int, p1: int, s2: int, p2: int, bond: int) -> int:
    """Pack one transition LHS into a single int key."""
    return (s1 << _S1_SHIFT) | (s2 << _S2_SHIFT) | (p1 << _P1_SHIFT) | (p2 << 1) | bond


def unpack_lhs(key: int) -> Tuple[int, int, int, int, int]:
    """Inverse of :func:`pack_lhs` (diagnostics and tests)."""
    bond = key & 1
    p2 = (key >> 1) & ((1 << PORT_BITS) - 1)
    p1 = (key >> _P1_SHIFT) & ((1 << PORT_BITS) - 1)
    s2 = (key >> _S2_SHIFT) & (MAX_STATES - 1)
    s1 = key >> _S1_SHIFT
    return s1, p1, s2, p2, bond


def pack_fire(sid: int, p: int, bond: int) -> int:
    """Key of the static-effectiveness index: one endpoint of an LHS."""
    return (sid << (PORT_BITS + 1)) | (p << 1) | bond


class StateSpace:
    """A bijection between protocol states and dense small ints.

    ``intern`` appends unseen states (deterministically, in call order);
    ``get_id`` probes without extending. One space may be shared by the
    compiled program and every world bound to its protocol — ids are only
    compared for identity and used as dict keys, never ordered, so late
    dynamic interning cannot perturb seeded trajectories.
    """

    __slots__ = ("_ids", "states")

    def __init__(self, states: Iterable[State] = ()) -> None:
        self._ids: Dict[State, int] = {}
        self.states: List[State] = []
        for state in states:
            self.intern(state)

    def intern(self, state: State) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self.states)
            if sid >= MAX_STATES:
                raise ProtocolError(
                    f"state space overflow: more than {MAX_STATES} states"
                )
            self._ids[state] = sid
            self.states.append(state)
        return sid

    def get_id(self, state: State) -> Optional[int]:
        return self._ids.get(state)

    def decode(self, sid: int) -> State:
        return self.states[sid]

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: State) -> bool:
        return state in self._ids


def canonical_rule_key(rule) -> tuple:
    """The canonical total order over rules.

    Decides the interning order of :func:`compile_rules` (and hence every
    state id): full LHS and RHS by ``repr`` for states — a total order
    over heterogeneous state types — plus port values and bonds. Never
    hash- or construction-order dependent.
    """
    return (
        repr(rule.state1),
        rule.port1.value,
        repr(rule.state2),
        rule.port2.value,
        rule.bond,
        repr(rule.new_state1),
        repr(rule.new_state2),
        rule.new_bond,
    )


class TransitionTable:
    """The packed ``delta``: one int key per LHS, prebuilt RHS tuples.

    ``lookup`` is the bound ``dict.get`` of the underlying table — the
    whole dispatch is key packing plus that one hit. RHS tuples hold
    *boundary* states (not ids): they are returned to ``World.apply``,
    trace hooks, and tests unchanged, and the (rare, once-per-event)
    write-back interns them again at the ``set_state`` edge.
    """

    __slots__ = ("_table", "lookup", "entries")

    def __init__(self, table: Dict[int, Update]) -> None:
        self._table = table
        self.lookup: Callable[[int], Optional[Update]] = table.get
        self.entries = len(table)

    def get(self, key: int) -> Optional[Update]:
        return self._table.get(key)

    def keys(self):
        return self._table.keys()

    def items(self):
        """Read-only ``(packed key, RHS)`` pairs, in sorted key order.

        The analyzer's iteration surface: sorted keys make every report
        derived from the table deterministic regardless of insertion
        order.
        """
        return ((k, self._table[k]) for k in sorted(self._table))


class ShadowRecord:
    """One orientation-overlap resolution made at compile time.

    ``key`` is the packed LHS both orientations competed for; ``winner``
    and ``loser`` are the RHS updates (boundary states) that were kept and
    suppressed, and ``kind`` says why the winner won: ``"ordered"`` (the
    as-presented orientation takes precedence in an ordered table) or
    ``"self-swap"`` (a rule whose swap is itself, resolved by presentation
    order). The static analyzer reports these and decides whether the
    suppressed orientation could ever have mattered (i.e. whether the LHS
    is abstractly reachable at all).
    """

    __slots__ = ("key", "winner", "loser", "kind")

    def __init__(self, key: int, winner: Update, loser: Update, kind: str) -> None:
        self.key = key
        self.winner = winner
        self.loser = loser
        self.kind = kind

    def __repr__(self) -> str:  # diagnostics only
        return (
            f"ShadowRecord(key={self.key}, winner={self.winner!r}, "
            f"loser={self.loser!r}, kind={self.kind!r})"
        )


class CompiledProgram:
    """A compiled protocol: state space, packed table, static indexes.

    ``exact`` declares the table and indexes *complete*: no transition
    outside the table can ever be effective, so every candidate that
    passes the gates below is effective. Lazily-lowered handler programs
    (:class:`MemoProgram`) set ``exact = False`` and answer the same
    gates from the protocol's own over-approximate hints.
    """

    __slots__ = (
        "space", "table", "exact", "rule_count", "hot_mask", "ordered",
        "shadows", "_fire", "_pairs", "_hints",
    )

    def __init__(
        self,
        space: StateSpace,
        table: TransitionTable,
        *,
        exact: bool,
        rule_count: int,
        hot_ids: Iterable[int] = (),
        fire: Iterable[int] = (),
        pairs: Iterable[int] = (),
        hints: Optional[Dict[int, Tuple[Tuple[int, int], ...]]] = None,
        ordered: bool = False,
        shadows: Tuple["ShadowRecord", ...] = (),
    ) -> None:
        self.space = space
        self.table = table
        self.exact = exact
        self.rule_count = rule_count
        self.ordered = ordered
        #: Orientation-overlap diagnostics recorded at build time (ordered
        #: tables and self-swap resolutions); see :class:`ShadowRecord`.
        self.shadows = shadows
        mask = 0
        for sid in hot_ids:
            mask |= 1 << sid
        self.hot_mask = mask
        self._fire: FrozenSet[int] = frozenset(fire)
        self._pairs: FrozenSet[int] = frozenset(pairs)
        self._hints: Dict[int, Tuple[Tuple[int, int], ...]] = hints or {}

    # -- dispatch ------------------------------------------------------

    def lookup(self, s1: int, p1: int, s2: int, p2: int, bond: int) -> Optional[Update]:
        """One packed-int dict hit; ``None`` means ineffective."""
        return self.table.lookup(
            (s1 << _S1_SHIFT) | (s2 << _S2_SHIFT) | (p1 << _P1_SHIFT) | (p2 << 1) | bond
        )

    # -- static indexes: the candidate layer's gates --------------------

    def is_hot_id(self, sid: int) -> bool:
        return bool(self.hot_mask >> sid & 1)

    def can_fire(self, sid: int, p: int, bond: int) -> bool:
        """Static effectiveness: some rule has ``(state, port, bond)`` on
        one side of its LHS. ``False`` proves no rule can ever fire on a
        candidate presenting this endpoint."""
        return ((sid << (PORT_BITS + 1)) | (p << 1) | bond) in self._fire

    def pair_can_fire(self, sid1: int, sid2: int) -> bool:
        """Some rule mentions the unordered state pair on its LHS."""
        if sid1 > sid2:
            sid1, sid2 = sid2, sid1
        return ((sid1 << STATE_BITS) | sid2) in self._pairs

    def oriented_hints(self, sid1: int, sid2: int) -> Tuple[Tuple[int, int], ...]:
        """The ordered port-index pairs under which ``(state1, state2)``
        can have an effective bond-0 transition, in this orientation.

        Finer than ``Protocol.port_hints`` (which is unordered-symmetric):
        a hint pair appears only if a table entry exists for exactly this
        orientation, so inter-component geometry probes skip the mirror
        half outright. Empty when no bond-0 rule touches the pair.
        """
        return self._hints.get((sid1 << STATE_BITS) | sid2, ())

    def iter_entries(self):
        """Read-only iteration over the packed table, decoded and sorted.

        Yields ``(s1, p1, s2, p2, bond, rhs)`` tuples — interned state ids,
        port indexes, the bond flag, and the boundary-state RHS — one per
        packed orientation, in sorted key order. This is the analyzer's
        view of the IR (:mod:`repro.analysis.protocol`); it never exposes
        the mutable table itself.
        """
        for key, rhs in self.table.items():
            s1, p1, s2, p2, bond = unpack_lhs(key)
            yield s1, p1, s2, p2, bond, rhs

    def describe(self) -> str:
        hot = sorted(
            (repr(self.space.decode(sid)) for sid in range(len(self.space))
             if self.hot_mask >> sid & 1),
        )
        return (
            f"compiled: {len(self.space)} states, {self.rule_count} rules "
            f"({self.table.entries} packed orientations); "
            f"hot states: {{{', '.join(hot)}}}"
        )


def compile_rules(
    rules: Iterable,
    *,
    initial_state: State,
    leader_state: Optional[State] = None,
    halting_states: Iterable[State] = (),
    output_states: Iterable[State] = (),
    hot_states: Iterable[State] = (),
    ordered: bool = False,
) -> CompiledProgram:
    """Compile a rule table into an exact :class:`CompiledProgram`.

    States are interned in canonical-rule-sort order (then the boundary
    states, sorted by ``repr``). Ineffective rules are dropped here, at
    build time. Duplicate LHSs with different RHSs raise
    :class:`ProtocolError` naming both rules; with ``ordered=False``
    (unordered matching) a rule and the swap of another rule conflict the
    same way unless their results mirror, while ``ordered=True`` gives the
    as-presented orientation precedence (the initiator/responder
    convention) and fills missing swapped orientations with the mirror.
    """
    canonical = sorted(rules, key=canonical_rule_key)
    space = StateSpace()
    for rule in canonical:
        space.intern(rule.state1)
        space.intern(rule.state2)
        space.intern(rule.new_state1)
        space.intern(rule.new_state2)
    for state in sorted(
        {initial_state}
        | ({leader_state} if leader_state is not None else set())
        | set(halting_states)
        | set(output_states)
        | set(hot_states),
        key=repr,
    ):
        space.intern(state)

    effective = [r for r in canonical if r.is_effective()]
    table: Dict[int, Update] = {}
    origin: Dict[int, object] = {}
    shadows: List[ShadowRecord] = []

    def insert(key: int, rhs: Update, rule, presented: bool) -> None:
        prior = table.get(key)
        if prior is None:
            table[key] = rhs
            origin[key] = rule
            return
        if prior != rhs:
            if not presented and (ordered or origin[key] is rule):
                # Ordered mode: the presented orientation takes precedence.
                # Unordered mode: a rule that is its *own* swap (identical
                # state and port on both sides) resolves by presentation
                # order, as the boundary table always has. Either way the
                # suppressed orientation is recorded for the analyzer.
                shadows.append(
                    ShadowRecord(
                        key,
                        prior,
                        rhs,
                        "ordered" if origin[key] is not rule else "self-swap",
                    )
                )
                return
            raise ProtocolError(
                f"conflicting rules for one LHS: {origin[key]!r} vs {rule!r}"
                + ("" if presented else " (swapped orientation)")
            )

    # Presented orientations first: in ordered mode they must win over any
    # mirrored fill, matching the handler convention of trying the pair as
    # given before swapping.
    for rule in effective:
        key = pack_lhs(
            space.intern(rule.state1), PORT_INDEX[rule.port1],
            space.intern(rule.state2), PORT_INDEX[rule.port2], rule.bond,
        )
        insert(key, (rule.new_state1, rule.new_state2, rule.new_bond), rule, True)
    for rule in effective:
        key = pack_lhs(
            space.intern(rule.state2), PORT_INDEX[rule.port2],
            space.intern(rule.state1), PORT_INDEX[rule.port1], rule.bond,
        )
        insert(key, (rule.new_state2, rule.new_state1, rule.new_bond), rule, False)

    fire: set = set()
    pairs: set = set()
    hints: Dict[int, List[Tuple[int, int]]] = {}
    for key in table:
        s1, p1, s2, p2, bond = unpack_lhs(key)
        fire.add(pack_fire(s1, p1, bond))
        fire.add(pack_fire(s2, p2, bond))
        a, b = (s1, s2) if s1 <= s2 else (s2, s1)
        pairs.add((a << STATE_BITS) | b)
        if bond == 0:
            hints.setdefault((s1 << STATE_BITS) | s2, []).append((p1, p2))
    hot_ids = [space.intern(s) for s in hot_states]
    return CompiledProgram(
        space,
        TransitionTable(table),
        exact=True,
        rule_count=len(effective),
        hot_ids=hot_ids,
        fire=fire,
        pairs=pairs,
        hints={k: tuple(sorted(set(v))) for k, v in hints.items()},
        ordered=ordered,
        shadows=tuple(sorted(shadows, key=lambda s: s.key)),
    )


class MemoProgram(CompiledProgram):
    """Lazily lowers a handler-backed protocol into the packed table.

    Each distinct packed LHS is evaluated through the protocol's
    ``handle`` exactly once (including the identity-update normalization,
    so effectiveness is never re-checked per interaction); the observed
    update — or ineffectiveness — is memoized under the same int key the
    exact table uses. ``exact`` stays ``False``: the table only records
    what has been *observed*, so absence is never impossibility.

    The gates come from the protocol's public hints instead —
    ``is_hot``, ``pair_compatible`` and ``port_hints`` (``None`` meaning
    every port pair of the protocol's dimension) — decoded once per
    interned state (pair) and memoized, which is sound because hints are
    pure functions of the states. :meth:`can_fire` proves nothing.

    Since the hints over-approximate, the batch kernel decides each kept
    hint by :meth:`lookup`. It records the answers in
    :meth:`hint_verdicts`, one array per oriented state pair aligned with
    :meth:`oriented_hints`, and fills an entry only when its hint first
    keeps a permissible row, so the handler is still asked only about
    interactions that can occur.
    """

    __slots__ = (
        "_protocol", "_memo", "_ports", "_hot_ids", "_compatible",
        "_port_hints", "_all_hints", "_verdicts",
    )

    def __init__(self, protocol) -> None:
        super().__init__(
            StateSpace(), TransitionTable({}), exact=False, rule_count=0
        )
        self._protocol = protocol
        self._memo: Dict[int, Optional[Update]] = {}
        # Port objects by packed index, for reconstructing boundary views.
        self._ports: Tuple[Port, ...] = tuple(PORT_INDEX)
        self._hot_ids: Dict[int, bool] = {}
        self._compatible: Dict[int, bool] = {}
        self._port_hints: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._verdicts: Dict[int, object] = {}
        self._all_hints = tuple(
            (PORT_INDEX[p1], PORT_INDEX[p2])
            for p1 in protocol.ports
            for p2 in protocol.ports
        )

    def is_hot_id(self, sid: int) -> bool:
        hot = self._hot_ids.get(sid)
        if hot is None:
            hot = bool(self._protocol.is_hot(self.space.states[sid]))
            self._hot_ids[sid] = hot
        return hot

    def can_fire(self, sid: int, p: int, bond: int) -> bool:
        return True  # not closed-world: no endpoint is provably dead

    def pair_can_fire(self, sid1: int, sid2: int) -> bool:
        """``protocol.pair_compatible`` on the decoded states, asked and
        memoized once per unordered pair (smaller sid first), as the
        exact program orders it: the hint is a function of the unordered
        pair, and the batch kernel emits a pair from one side only."""
        if sid1 > sid2:
            sid1, sid2 = sid2, sid1
        key = (sid1 << STATE_BITS) | sid2
        ok = self._compatible.get(key)
        if ok is None:
            decode = self.space.states
            ok = bool(self._protocol.pair_compatible(decode[sid1], decode[sid2]))
            self._compatible[key] = ok
        return ok

    def oriented_hints(self, sid1: int, sid2: int) -> Tuple[Tuple[int, int], ...]:
        """``protocol.port_hints`` as ``(port of state1, port of state2)``
        index pairs; every port pair when the protocol gives none."""
        key = (sid1 << STATE_BITS) | sid2
        hints = self._port_hints.get(key)
        if hints is None:
            decode = self.space.states
            ports = self._protocol.port_hints(decode[sid1], decode[sid2])
            if ports is None:
                hints = self._all_hints
            else:
                hints = tuple(
                    sorted({(PORT_INDEX[p1], PORT_INDEX[p2]) for p1, p2 in ports})
                )
            self._port_hints[key] = hints
        return hints

    def hint_verdicts(self, sid1: int, sid2: int):
        """The kernel's verdicts on ``oriented_hints(sid1, sid2)``: an int8
        array aligned with the hints, ``1`` where the hint's bond-0
        ``lookup`` is effective, ``0`` where it is not, and ``-1`` where
        the kernel has not asked yet. The kernel writes the entries."""
        key = (sid1 << STATE_BITS) | sid2
        verdicts = self._verdicts.get(key)
        if verdicts is None:
            import numpy as np

            verdicts = self._verdicts[key] = np.full(
                len(self.oriented_hints(sid1, sid2)), -1, dtype=np.int8
            )
        return verdicts

    def lookup(self, s1: int, p1: int, s2: int, p2: int, bond: int) -> Optional[Update]:
        key = (s1 << _S1_SHIFT) | (s2 << _S2_SHIFT) | (p1 << _P1_SHIFT) | (p2 << 1) | bond
        memo = self._memo
        if key in memo:
            return memo[key]
        from repro.core.protocol import InteractionView

        decode = self.space.states
        update = self._protocol.handle(
            InteractionView(
                decode[s1], self._ports[p1], decode[s2], self._ports[p2], bond
            )
        )
        memo[key] = update
        if update is not None:
            self.rule_count += 1
        return update

    def describe(self) -> str:
        return (
            "compiled lazily from a handler: "
            f"{len(self.space)} states and {self.rule_count} effective "
            "transitions observed so far (table grows as interactions occur)"
        )
