"""Static protocol analysis over the compiled IR (`repro.core.program`).

The simulator checks the paper's protocol invariants *dynamically*: a rule
that can never fire simply never shows up in a trajectory, and a protocol
that fails to stabilize burns an event budget. This module checks them
*statically*, on any exact :class:`~repro.core.program.CompiledProgram`,
before a single event runs:

* **Abstract pair-reachability closure.** Over-approximate geometry: any
  two reachable states may meet on any ports, and any two states that
  could ever share a bond may interact over it. The closure tracks the
  reachable state set ``R`` and the reachable *bonded pair* set ``B`` —
  bond-0 entries fire when both LHS states are in ``R``, bond-1 entries
  when the unordered state pair is in ``B``; firing adds RHS states to
  ``R``, bond-forming results add the RHS pair to ``B``, and bonded pairs
  are closed under single-endpoint rewriting (a bonded node may change
  state through interactions with third parties). Everything a concrete
  execution can reach is inside the closure, so "unreachable" and "dead"
  below are proofs, never heuristics.
* **Unreachable states** — interned states outside ``R``.
* **Dead rules** — table entries whose LHS can never abstractly fire: a
  strictly stronger check than the build-time ineffective-rule drop
  (which only removes identity updates) and than the boundary-table lint
  of :mod:`repro.core.inspect` (which ignores bond structure).
* **Shadowing diagnostics** — for ``match="ordered"`` tables, the
  orientation overlaps resolved at compile time
  (:class:`~repro.core.program.ShadowRecord`), each annotated with which
  orientation won and whether the suppressed one could ever have mattered
  (i.e. whether its LHS is abstractly reachable).
* **Hot-set soundness** — a fireable entry with *neither* endpoint in the
  declared hot set is an error: the hot scheduler enumerates candidates
  around hot states only, so such a rule could be missed entirely.
* **Stabilization witness** — the paper's core argument (§4): bonds only
  form and the number of possible bonds is bounded, so executions are
  finite. The witness generalizes it slightly: ``stabilizes: proven``
  when no reachable rule breaks a bond *and* the state-rewrite digraph of
  the reachable bond-preserving rules is acyclic (lexicographic measure:
  bonds formed, then topological height). Anything else is
  ``stabilizes: unknown`` — never "disproven": the abstraction cannot
  distinguish a live cycle from a fair one that terminates.

Handler-lowered programs (``exact=False``, :class:`MemoProgram`) are not
closed-world — absence from the table does not mean impossibility — so
:func:`analyze_protocol` returns a report carrying a clean diagnostic
instead of pretending to analyze them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.program import CompiledProgram, pack_lhs, unpack_lhs
from repro.geometry.ports import PORT_INDEX

State = Hashable

#: Port objects by packed index (PORT_INDEX iterates in index order).
_PORTS = tuple(PORT_INDEX)

#: Verdicts of the stabilization witness.
PROVEN = "proven"
UNKNOWN = "unknown"


def _pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class EntryView:
    """One packed-table orientation, decoded to boundary form."""

    state1: State
    port1: str
    state2: State
    port2: str
    bond: int
    new_state1: State
    new_state2: State
    new_bond: int

    def format(self) -> str:
        return (
            f"({self.state1!r}, {self.port1}), ({self.state2!r}, "
            f"{self.port2}), {self.bond} -> ({self.new_state1!r}, "
            f"{self.new_state2!r}, {self.new_bond})"
        )


@dataclass
class ProtocolReport:
    """Findings of :func:`analyze_program` for one protocol.

    ``errors`` (dead rules, unreachable states, hot violations) are
    correctness findings; ``shadows`` are informational diagnostics. An
    inexact program produces a report with ``exact=False`` and a
    ``diagnostic`` explaining why nothing else is filled in.
    """

    name: str
    exact: bool
    diagnostic: Optional[str] = None
    states: int = 0
    rules: int = 0
    entries: int = 0
    initial_states: List[str] = field(default_factory=list)
    reachable_states: List[str] = field(default_factory=list)
    unreachable_states: List[str] = field(default_factory=list)
    dead_rules: List[str] = field(default_factory=list)
    shadows: List[Dict[str, Any]] = field(default_factory=list)
    hot_declared: bool = False
    hot_violations: List[str] = field(default_factory=list)
    stabilizes: str = UNKNOWN
    stabilization_reason: str = ""
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No correctness findings (shadows and notes do not count)."""
        return not (
            self.dead_rules or self.unreachable_states or self.hot_violations
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict in the ``repro.analysis.report/v1`` row shape."""
        return {
            "name": self.name,
            "exact": self.exact,
            "diagnostic": self.diagnostic,
            "states": self.states,
            "rules": self.rules,
            "entries": self.entries,
            "initial_states": list(self.initial_states),
            "reachable_states": list(self.reachable_states),
            "unreachable_states": list(self.unreachable_states),
            "dead_rules": list(self.dead_rules),
            "shadows": [dict(s) for s in self.shadows],
            "hot_declared": self.hot_declared,
            "hot_violations": list(self.hot_violations),
            "stabilizes": self.stabilizes,
            "stabilization_reason": self.stabilization_reason,
            "clean": self.clean,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        """The one-line digest used by ``repro describe``/``analyze``."""
        if not self.exact:
            return "handler-lowered (not closed-world): static analysis unavailable"
        return (
            f"{len(self.reachable_states)}/{self.states} states reachable, "
            f"{len(self.dead_rules)} dead rules, "
            f"stabilizes: {self.stabilizes}"
        )


class _Closure:
    """The abstract pair-reachability fixpoint over one compiled table."""

    def __init__(
        self,
        program: CompiledProgram,
        initial_ids: Iterable[int],
        initial_bonds: Iterable[Tuple[int, int]],
    ) -> None:
        self.program = program
        self.reached: Set[int] = set(initial_ids)
        self.bonded: Set[Tuple[int, int]] = {_pair(a, b) for a, b in initial_bonds}
        #: Single-endpoint rewrite edges observed on fired entries.
        self.rewrites: Set[Tuple[int, int]] = set()
        #: Packed keys of entries that abstractly fired.
        self.fired: Set[int] = set()
        self.notes: List[str] = []
        self._entries = [
            (key, unpack_lhs(key), rhs) for key, rhs in program.table.items()
        ]
        self._run()

    def fires(self, s1: int, s2: int, bond: int) -> bool:
        if bond == 0:
            return s1 in self.reached and s2 in self.reached
        return _pair(s1, s2) in self.bonded

    def _rhs_ids(self, rhs) -> Optional[Tuple[int, int]]:
        n1 = self.program.space.get_id(rhs[0])
        n2 = self.program.space.get_id(rhs[1])
        if n1 is None or n2 is None:
            # Cannot happen for tables built by compile_rules (every RHS
            # state is interned at build); recorded rather than crashed so
            # hand-built programs still get a sound (weaker) answer.
            self.notes.append(
                f"RHS states {rhs[0]!r}/{rhs[1]!r} missing from the state "
                "space; treated as reachable-unknown"
            )
            return None
        return n1, n2

    def _run(self) -> None:
        changed = True
        while changed:
            changed = False
            for key, (s1, p1, s2, p2, bond), rhs in self._entries:
                if key in self.fired or not self.fires(s1, s2, bond):
                    continue
                self.fired.add(key)
                changed = True
                ids = self._rhs_ids(rhs)
                if ids is None:
                    continue
                n1, n2 = ids
                self.reached.add(n1)
                self.reached.add(n2)
                if rhs[2] == 1:
                    self.bonded.add(_pair(n1, n2))
                if n1 != s1:
                    self.rewrites.add((s1, n1))
                if n2 != s2:
                    self.rewrites.add((s2, n2))
            # Close bonded pairs under single-endpoint rewriting: a bonded
            # node may change state by interacting with a third party, so
            # the bond survives with the rewritten endpoint.
            for a, b in list(self.bonded):
                for old, new in self.rewrites:
                    if old == a and _pair(new, b) not in self.bonded:
                        self.bonded.add(_pair(new, b))
                        changed = True
                    if old == b and _pair(a, new) not in self.bonded:
                        self.bonded.add(_pair(a, new))
                        changed = True


def _entry_view(program: CompiledProgram, key: int, rhs) -> EntryView:
    s1, p1, s2, p2, bond = unpack_lhs(key)
    decode = program.space.decode
    return EntryView(
        decode(s1), _PORTS[p1].value, decode(s2), _PORTS[p2].value, bond,
        rhs[0], rhs[1], rhs[2],
    )


def _has_cycle(nodes: Set[int], edges: Set[Tuple[int, int]]) -> Optional[List[int]]:
    """A cycle in the digraph, as a node list, or ``None`` (iterative DFS)."""
    adjacency: Dict[int, List[int]] = {}
    for a, b in sorted(edges):
        adjacency.setdefault(a, []).append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for root in sorted(nodes):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        path = [root]
        color[root] = GRAY
        while stack:
            node, i = stack[-1]
            succs = adjacency.get(node, [])
            if i < len(succs):
                stack[-1] = (node, i + 1)
                succ = succs[i]
                if color.get(succ, BLACK) == GRAY:
                    return path[path.index(succ):] + [succ]
                if color.get(succ, BLACK) == WHITE:
                    color[succ] = GRAY
                    stack.append((succ, 0))
                    path.append(succ)
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def analyze_program(
    program: CompiledProgram,
    *,
    name: str = "program",
    initial_states: Iterable[State] = (),
    structure_states: Iterable[State] = (),
) -> ProtocolReport:
    """Analyze one exact compiled program from the given initial states.

    ``initial_states`` are the states present in the scenario's initial
    configuration (the ordinary initial state, the leader, plus any
    pre-built structure's states). ``structure_states`` is the subset
    sitting on a pre-built *bonded* structure: the closure conservatively
    assumes any two of them may share a bond initially (free initial nodes
    carry no bonds, so an empty structure means an empty initial bond set).

    A non-exact program cannot be analyzed statically — the table only
    records observed transitions — and yields a diagnostic report, not an
    exception.
    """
    if not program.exact:
        return ProtocolReport(
            name=name,
            exact=False,
            diagnostic=(
                "not closed-world, cannot analyze statically: the program "
                "is lowered lazily from a handler, so absence from its "
                "table does not prove a transition impossible"
            ),
            states=len(program.space),
            rules=program.rule_count,
            stabilizes=UNKNOWN,
            stabilization_reason="inexact program: no static witness",
        )

    space = program.space
    report = ProtocolReport(
        name=name,
        exact=True,
        states=len(space),
        rules=program.rule_count,
        entries=program.table.entries,
    )
    initial_ids: List[int] = []
    for state in initial_states:
        sid = space.get_id(state)
        if sid is None:
            report.notes.append(
                f"declared initial state {state!r} is not in the protocol's "
                "state space"
            )
        else:
            initial_ids.append(sid)
    structure_ids = [
        sid
        for sid in (space.get_id(s) for s in structure_states)
        if sid is not None
    ]
    initial_bonds = [
        (a, b) for a in structure_ids for b in structure_ids if a <= b
    ]
    report.initial_states = sorted(repr(space.decode(i)) for i in set(initial_ids))

    closure = _Closure(program, initial_ids, initial_bonds)
    report.notes.extend(closure.notes)
    report.reachable_states = sorted(
        repr(space.decode(sid)) for sid in closure.reached
    )
    report.unreachable_states = sorted(
        repr(space.decode(sid))
        for sid in range(len(space))
        if sid not in closure.reached
    )

    # Dead rules: entries that never abstractly fire, reported once per
    # unordered LHS (fireability is orientation-symmetric, so the mirror
    # of a dead entry is dead too — reporting both would double-count).
    table = dict(program.table.items())
    for key, rhs in table.items():
        if key in closure.fired:
            continue
        s1, p1, s2, p2, bond = unpack_lhs(key)
        mirror = pack_lhs(s2, p2, s1, p1, bond)
        if mirror in table and mirror < key:
            continue
        report.dead_rules.append(_entry_view(program, key, rhs).format())
    report.dead_rules.sort()

    # Ordered-table shadowing: which orientation won, and does it matter?
    for shadow in program.shadows:
        s1, p1, s2, p2, bond = unpack_lhs(shadow.key)
        report.shadows.append(
            {
                "lhs": (
                    f"({space.decode(s1)!r}, {_PORTS[p1].value}), "
                    f"({space.decode(s2)!r}, {_PORTS[p2].value}), {bond}"
                ),
                "winner": repr(shadow.winner),
                "loser": repr(shadow.loser),
                "kind": shadow.kind,
                "matters": closure.fires(s1, s2, bond),
            }
        )

    # Hot-set soundness: every fireable entry needs a hot endpoint, or the
    # hot scheduler's candidate enumeration can miss it entirely.
    report.hot_declared = program.hot_mask != 0
    if report.hot_declared:
        for key in sorted(closure.fired):
            s1, p1, s2, p2, bond = unpack_lhs(key)
            mirror = pack_lhs(s2, p2, s1, p1, bond)
            if mirror in closure.fired and mirror < key:
                continue  # hotness is orientation-symmetric: report once
            if not (program.is_hot_id(s1) or program.is_hot_id(s2)):
                report.hot_violations.append(
                    _entry_view(program, key, table[key]).format()
                )
    else:
        report.notes.append(
            "no hot-state declaration: hot-set soundness not checked"
        )

    _stabilization_witness(program, closure, table, report)
    return report


def _stabilization_witness(
    program: CompiledProgram,
    closure: _Closure,
    table: Dict[int, Any],
    report: ProtocolReport,
) -> None:
    """The monotone-bonding witness over the reachable effective rules.

    Lexicographic termination measure: a reachable bond-*breaking* rule
    voids it outright; otherwise bond-forming rules strictly decrease the
    (bounded) count of missing bonds, and bond-preserving rules must
    strictly decrease the topological height of some endpoint — which
    needs their state-rewrite digraph to be acyclic.
    """
    breaking: List[int] = []
    drift_edges: Set[Tuple[int, int]] = set()
    for key in sorted(closure.fired):
        s1, _, s2, _, bond = unpack_lhs(key)
        rhs = table[key]
        if bond == 1 and rhs[2] == 0:
            breaking.append(key)
        elif bond == rhs[2]:
            ids = closure._rhs_ids(rhs)
            if ids is None:
                report.stabilizes = UNKNOWN
                report.stabilization_reason = "incomplete state space"
                return
            n1, n2 = ids
            if n1 != s1:
                drift_edges.add((s1, n1))
            if n2 != s2:
                drift_edges.add((s2, n2))
    if breaking:
        report.stabilizes = UNKNOWN
        report.stabilization_reason = (
            "a reachable rule breaks a bond: "
            + _entry_view(program, breaking[0], table[breaking[0]]).format()
        )
        return
    nodes = {n for edge in drift_edges for n in edge}
    cycle = _has_cycle(nodes, drift_edges)
    if cycle is not None:
        decode = program.space.decode
        report.stabilizes = UNKNOWN
        report.stabilization_reason = (
            "bond-preserving state rewrites admit a cycle: "
            + " -> ".join(repr(decode(sid)) for sid in cycle)
        )
        return
    report.stabilizes = PROVEN
    report.stabilization_reason = (
        "monotone bonding: every reachable effective rule forms a bond"
        if not drift_edges
        else (
            "monotone bonding with acyclic state drift: reachable rules "
            "only form bonds or rewrite states along an acyclic digraph"
        )
    )


def analyze_protocol(
    protocol,
    extra_initial: Iterable[State] = (),
) -> ProtocolReport:
    """Analyze a :class:`~repro.core.protocol.Protocol` instance.

    Initial states are the protocol's own (`initial_state`, the leader
    when defined) plus ``extra_initial`` — the states of any pre-built
    structure the scenario seeds (e.g. the ``i``/``e`` nodes of a parent
    line). The pre-built structure is assumed bonded: ``extra_initial``
    (plus the leader, which anchors such structures) feeds the initial
    bonded-pair set. Handler-backed protocols (no exact compiled table)
    yield the standard not-closed-world diagnostic report.
    """
    name = getattr(protocol, "name", type(protocol).__name__)
    program = protocol.program
    extra = tuple(extra_initial)
    initial: List[State] = [protocol.initial_state]
    if protocol.leader_state is not None:
        initial.append(protocol.leader_state)
    initial.extend(extra)
    structure: Tuple[State, ...] = ()
    if extra:
        structure = extra + (
            (protocol.leader_state,) if protocol.leader_state is not None else ()
        )
    return analyze_program(
        program,
        name=name,
        initial_states=initial,
        structure_states=structure,
    )
