"""Protocol definitions (Definition 1 of the paper).

A 2D (or 3D) protocol is a 4-tuple ``(Q, q0, Qout, delta)`` with
``delta : (Q x P) x (Q x P) x {0,1} -> Q x Q x {0,1}``. Two concrete forms
are provided:

* :class:`RuleProtocol` — ``delta`` given as an explicit table of effective
  rules, exactly as the paper presents Protocols 1, 2, 4 and 5. All
  transitions not listed are ineffective.
* :class:`AgentProtocol` — ``delta`` given as a pure Python handler that
  receives exactly the two interacting local states (plus ports and bond
  state) and returns the update. This is how we express the multi-phase
  leader programs of §5-§7, which the paper describes as "the leader
  operates as a TM"; the information flow is identical to a rule table.

Both forms expose a *hot state* predicate: an interaction can only be
effective if at least one endpoint is in a hot state. Schedulers use this to
skip provably ineffective interactions while preserving the exact law of the
uniform random scheduler's effective-interaction subsequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Set,
    Tuple,
)

from repro.errors import ProtocolError
from repro.core.program import CompiledProgram, MemoProgram, compile_rules
from repro.geometry.ports import PORT_INDEX, Port, ports_for_dimension

State = Hashable

#: The left-hand side of a transition: ((a, p1), (b, p2), c).
RuleLHS = Tuple[Tuple[State, Port], Tuple[State, Port], int]
#: The right-hand side of a transition: (a', b', c').
RuleRHS = Tuple[State, State, int]


@dataclass(frozen=True)
class Rule:
    """A single effective transition ``(a, p1), (b, p2), c -> (a', b', c')``."""

    state1: State
    port1: Port
    state2: State
    port2: Port
    bond: int
    new_state1: State
    new_state2: State
    new_bond: int

    @property
    def lhs(self) -> RuleLHS:
        return ((self.state1, self.port1), (self.state2, self.port2), self.bond)

    @property
    def rhs(self) -> RuleRHS:
        return (self.new_state1, self.new_state2, self.new_bond)

    def is_effective(self) -> bool:
        """The paper calls a transition effective if it changes anything."""
        return (
            self.state1 != self.new_state1
            or self.state2 != self.new_state2
            or self.bond != self.new_bond
        )


@dataclass(frozen=True)
class InteractionView:
    """What a handler sees: the two local states, ports, and bond state."""

    state1: State
    port1: Port
    state2: State
    port2: Port
    bond: int


#: The update returned by a handler: (new_state1, new_state2, new_bond).
Update = Tuple[State, State, int]

Handler = Callable[[InteractionView], Optional[Update]]


class Protocol:
    """Abstract base for protocols executed by the geometric simulator.

    Subclasses must provide :meth:`handle`; the remaining hooks have
    conservative defaults.
    """

    #: Dimension of the model: 2 (four ports) or 3 (six ports).
    dimension: int = 2

    #: The initial state of an ordinary node.
    initial_state: State = "q0"

    #: The initial state of the unique leader, when the protocol uses one.
    leader_state: Optional[State] = None

    @property
    def ports(self) -> Tuple[Port, ...]:
        """The port set P of the model (u,r,d,l in 2D)."""
        return ports_for_dimension(self.dimension)

    @property
    def program(self) -> CompiledProgram:
        """The compiled IR of this protocol (see :mod:`repro.core.program`).

        Rule protocols compile eagerly at construction; anything else is
        lowered lazily through a memoizing :class:`MemoProgram` adapter
        that interns observed transitions into the same packed table.
        Every scheduler dispatches through it.
        """
        prog = getattr(self, "_program", None)
        if prog is None:
            prog = MemoProgram(self)
            self._program = prog
        return prog

    # ------------------------------------------------------------------

    def handle(self, view: InteractionView) -> Optional[Update]:
        """Apply ``delta`` to an interaction; ``None`` means ineffective.

        The scheduler presents the pair in both orders, so implementations
        need only match one orientation of each rule.
        """
        raise NotImplementedError

    def is_hot(self, state: State) -> bool:
        """Hint: interactions between two non-hot states are ineffective.

        Must over-approximate: returning True never hurts correctness, only
        speed. The default marks every state hot.
        """
        return True

    def pair_compatible(self, state1: State, state2: State) -> bool:
        """Hint: an interaction between these states may be effective.

        Must over-approximate (False only when *no* rule can apply to the
        unordered state pair, for any ports or bond value).
        """
        return True

    def port_hints(
        self, state1: State, state2: State
    ) -> Optional[FrozenSet[Tuple[Port, Port]]]:
        """Hint: the ordered port pairs under which the state pair may have
        an effective transition; ``None`` means "any ports".

        Must over-approximate. Schedulers use this to skip geometry checks
        for port pairs that cannot possibly match a rule.
        """
        return None

    def is_halted(self, state: State) -> bool:
        """True iff ``state`` belongs to Q_halt (all its rules ineffective)."""
        return False

    def is_output(self, state: State) -> bool:
        """True iff ``state`` belongs to Q_out (or Q_halt for terminating
        protocols); output shapes are induced by these nodes (§3)."""
        return self.is_halted(state)


class RuleProtocol(Protocol):
    """A protocol given by an explicit table of effective rules.

    Parameters
    ----------
    rules:
        The effective transitions. With ``match="unordered"`` (default)
        rules are matched on the interaction as presented and with the two
        sides swapped, since interactions are unordered; a rule set that is
        ambiguous under swapping (two distinct rules matching the same
        unordered interaction with different results) is rejected. With
        ``match="ordered"`` the as-presented orientation takes precedence
        — the initiator/responder convention of population protocols —
        which admits symmetric-state rules (e.g. leader elections between
        identical states) that no unordered table can express.
    initial_state, leader_state:
        Initial states of ordinary nodes and of the optional unique leader.
    halting_states, output_states:
        Q_halt and Q_out.
    dimension:
        2 or 3.
    """

    def __init__(
        self,
        rules: Iterable[Rule],
        initial_state: State = "q0",
        leader_state: Optional[State] = None,
        halting_states: AbstractSet[State] = frozenset(),
        output_states: AbstractSet[State] = frozenset(),
        dimension: int = 2,
        name: str = "rule-protocol",
        hot_states: Optional[Iterable[State]] = None,
        match: str = "unordered",
        drop_ineffective: bool = False,
    ) -> None:
        if match not in ("unordered", "ordered"):
            raise ProtocolError(f"unknown match mode: {match!r}")
        self.dimension = dimension
        self.initial_state = initial_state
        self.leader_state = leader_state
        self.name = name
        self.match = match
        self._halting: FrozenSet[State] = frozenset(halting_states)
        self._output: FrozenSet[State] = frozenset(output_states) | self._halting
        self._table: Dict[RuleLHS, Rule] = {}
        port_set = set(self.ports)
        for rule in rules:
            if not rule.is_effective():
                if drop_ineffective:
                    continue
                raise ProtocolError(f"ineffective rule listed explicitly: {rule!r}")
            if rule.port1 not in port_set or rule.port2 not in port_set:
                raise ProtocolError(
                    f"rule uses port outside the {dimension}D port set: {rule!r}"
                )
            if rule.bond not in (0, 1) or rule.new_bond not in (0, 1):
                raise ProtocolError(f"bond states must be 0/1: {rule!r}")
            for s in (rule.state1, rule.state2):
                if s in self._halting:
                    raise ProtocolError(
                        f"halting state {s!r} appears in an effective rule: {rule!r}"
                    )
            prior = self._table.get(rule.lhs)
            if prior is not None and prior.rhs != rule.rhs:
                raise ProtocolError(
                    f"conflicting rules for one LHS: {prior!r} vs {rule!r}"
                )
            self._table[rule.lhs] = rule
        if hot_states is not None:
            hot = frozenset(hot_states)
            for rule in self._table.values():
                if rule.state1 not in hot and rule.state2 not in hot:
                    raise ProtocolError(
                        f"hot_states misses rule {rule.lhs!r}: neither side is hot"
                    )
            self._hot = hot
        else:
            self._hot = self._compute_hot_cover()
        # Compile to the packed IR. This also performs swap-consistency
        # checking (unordered mode) / precedence resolution (ordered mode)
        # and fixes the canonical state-interning order.
        self._program = compile_rules(
            self._table.values(),
            initial_state=initial_state,
            leader_state=leader_state,
            halting_states=self._halting,
            output_states=self._output,
            hot_states=self._hot,
            ordered=(match == "ordered"),
        )
        # Pair/port indices for scheduler pruning (both orientations).
        self._pairs: Set[FrozenSet[State]] = set()
        self._ports_by_pair: Dict[FrozenSet[State], Set[Tuple[Port, Port]]] = {}
        for rule in self._table.values():
            key = frozenset((rule.state1, rule.state2))
            self._pairs.add(key)
            hints = self._ports_by_pair.setdefault(key, set())
            hints.add((rule.port1, rule.port2))
            hints.add((rule.port2, rule.port1))

    # ------------------------------------------------------------------

    def _compute_hot_cover(self) -> FrozenSet[State]:
        """Greedy vertex cover of the rule LHS state pairs.

        Any set of states covering every effective rule (i.e. every rule has
        an endpoint in the set) is a valid hot set. For leader-driven
        protocols this collapses to the small set of leader states.

        Iteration is fully deterministic (sorted by repr): the chosen cover
        influences the hot scheduler's candidate enumeration order, and
        seeded runs must not depend on hash randomization.
        """
        pairs = sorted(
            {
                tuple(sorted({r.state1, r.state2}, key=repr))
                for r in self._table.values()
            }
        , key=repr)
        cover: set = set()
        remaining = list(pairs)
        while remaining:
            counts: Dict[State, int] = {}
            for p in remaining:
                for s in p:
                    counts[s] = counts.get(s, 0) + 1
            best = max(sorted(counts, key=repr), key=lambda s: counts[s])
            cover.add(best)
            remaining = [p for p in remaining if best not in p]
        return frozenset(cover)

    # ------------------------------------------------------------------

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """The effective rules of the protocol."""
        return tuple(self._table.values())

    @property
    def states(self) -> FrozenSet[State]:
        """All states mentioned by the protocol (a subset of Q)."""
        found = {self.initial_state} | self._halting | self._output
        if self.leader_state is not None:
            found.add(self.leader_state)
        for r in self._table.values():
            found.update((r.state1, r.state2, r.new_state1, r.new_state2))
        return frozenset(found)

    @property
    def size(self) -> int:
        """The size of the protocol: |Q| (as the paper measures protocols)."""
        return len(self.states)

    def handle(self, view: InteractionView) -> Optional[Update]:
        # Both orientations were packed into the table at compile time, so
        # boundary dispatch is two id probes and one int-dict hit.
        space = self._program.space
        s1 = space.get_id(view.state1)
        if s1 is None:
            return None
        s2 = space.get_id(view.state2)
        if s2 is None:
            return None
        return self._program.lookup(
            s1, PORT_INDEX[view.port1], s2, PORT_INDEX[view.port2], view.bond
        )

    def is_hot(self, state: State) -> bool:
        return state in self._hot

    def is_halted(self, state: State) -> bool:
        return state in self._halting

    def is_output(self, state: State) -> bool:
        return state in self._output

    def pair_compatible(self, state1: State, state2: State) -> bool:
        return frozenset((state1, state2)) in self._pairs

    def port_hints(
        self, state1: State, state2: State
    ) -> Optional[FrozenSet[Tuple[Port, Port]]]:
        hints = self._ports_by_pair.get(frozenset((state1, state2)))
        if hints is None:
            return frozenset()
        return frozenset(hints)


class AgentProtocol(Protocol):
    """A protocol whose ``delta`` is a pure handler function.

    The handler receives an :class:`InteractionView` and returns either
    ``None`` (ineffective) or an update ``(state1', state2', bond')``. It
    must be deterministic and must depend only on the view — the same
    locality discipline as a rule table.
    """

    def __init__(
        self,
        handler: Handler,
        initial_state: State = "q0",
        leader_state: Optional[State] = None,
        hot: Optional[Callable[[State], bool]] = None,
        halted: Optional[Callable[[State], bool]] = None,
        output: Optional[Callable[[State], bool]] = None,
        compatible: Optional[Callable[[State, State], bool]] = None,
        dimension: int = 2,
        name: str = "agent-protocol",
    ) -> None:
        self.dimension = dimension
        self.initial_state = initial_state
        self.leader_state = leader_state
        self.name = name
        self._handler = handler
        self._hot = hot
        self._halted = halted
        self._output = output
        self._compatible = compatible

    def handle(self, view: InteractionView) -> Optional[Update]:
        update = self._handler(view)
        if update is None:
            return None
        if len(update) != 3 or update[2] not in (0, 1):
            raise ProtocolError(f"malformed update from handler: {update!r}")
        if (update[0], update[1], update[2]) == (
            view.state1,
            view.state2,
            view.bond,
        ):
            return None  # normalized: identity updates are ineffective
        return update

    def is_hot(self, state: State) -> bool:
        if self._hot is None:
            return True
        return self._hot(state)

    def is_halted(self, state: State) -> bool:
        if self._halted is None:
            return False
        return self._halted(state)

    def is_output(self, state: State) -> bool:
        if self._output is None:
            return self.is_halted(state)
        return self._output(state)

    def pair_compatible(self, state1: State, state2: State) -> bool:
        if self._compatible is None:
            return True
        return self._compatible(state1, state2)


def rules_from_tuples(
    entries: Iterable[Tuple[RuleLHS, RuleRHS]]
) -> Tuple[Rule, ...]:
    """Convenience: build :class:`Rule` objects from paper-style tuples.

    Each entry is ``(((a, p1), (b, p2), c), (a2, b2, c2))``, mirroring the
    notation ``(a, p1), (b, p2), c -> (a', b', c')`` used in the paper.
    """
    rules = []
    for lhs, rhs in entries:
        (a, p1), (b, p2), c = lhs
        a2, b2, c2 = rhs
        rules.append(Rule(a, p1, b, p2, c, a2, b2, c2))
    return tuple(rules)
