"""Counting-on-a-Line (§6.1, Lemma 1) as a genuine 2-local agent protocol.

The unique leader runs the Counting-Upper-Bound process while storing the
counters ``r0``, ``r1`` and the *debt* counter ``r2`` in binary on a line of
nodes it assembles on the fly. Every node of the line holds one bit of each
counter; the leader is the line's right endpoint and holds the most
significant bits. Arithmetic is performed by a *cursor* that travels the
line one interaction at a time — the protocol below is expressed purely as
a transition function over pairs of local states, so it runs under any of
the library's schedulers with the exact interaction law of the paper.

Layout and operations:

* Bits are least-significant at the line's left end (the original leader
  node) and grow toward the leader, whose own state embeds the current
  most significant bits. When all ``r0`` bits are 1 (tape full) the next
  encountered ``q0`` is *bound* at the leader's right port; leadership
  transfers onto it and the old leader becomes the new top bit cell —
  this is the paper's "reorganizes the tape" step, and the bound node is
  recorded as debt in ``r2``.
* Cursor ops: ``i0`` (increment r0, recompute fullness), ``i1`` (increment
  r1 and compare r0 == r1 — the halting test), ``i2`` (increment the
  debt), ``d2`` (repay one debt when a ``q2`` is converted back to ``q1``).
  Each op is a left walk to the least significant bit followed by a right
  walk applying the carry and accumulating the fullness/equality/nonzero
  flags, exactly one interaction per hop.
* The head start: the leader ignores ``q1`` nodes until ``r0 >= b``
  (tracked by a bounded counter in its state), the paper's "initial
  advantage of b".

When the leader halts, the line holds ``n'`` in binary in the ``r0``
components with ``n' >= n/2`` w.h.p. (Theorem 1 carried over by Lemma 1)
and the line has exactly ``floor(lg r0) + 1`` nodes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.core.protocol import AgentProtocol, InteractionView, Update
from repro.core.scheduler import Scheduler
from repro.core.simulator import Simulation
from repro.core.world import World
from repro.geometry.ports import Port

# ----------------------------------------------------------------------
# State encodings (plain tuples: hashable, cheap, and explicit)
# ----------------------------------------------------------------------
# Leader:  ("L", mode, bits, full, r2nz, head, has_cells)
#   mode:  "idle" | "halt" | ("send", op[, pending]) | ("wait", op[, pending])
#   bits:  (r0_bit, r1_bit, r2_bit) — the leader's embedded top bits
#   full:  every r0 bit of the tape is 1
#   r2nz:  the debt counter is nonzero
#   head:  min(r0, b) — progress toward the head start
# Cell:    ("C", bits, leftmost, cursor)
#   cursor: None | ("gl", op) | ("ap", op, carry, acc)

FREE_STATES = ("q0", "q1", "q2")

#: Accumulator identities per op: AND-style ops start True, OR-style False.
_ACC_INIT = {"i0": True, "i1": True, "i2": False, "d2": False}


def _apply_op(
    bits: Tuple[int, int, int], op: str, carry: bool, acc: bool
) -> Tuple[Tuple[int, int, int], bool, bool]:
    """Apply one cursor op at a bit position; returns (bits', carry', acc')."""
    r0, r1, r2 = bits
    if op == "i0":
        if carry:
            carry = r0 == 1
            r0 = 1 - r0
        acc = acc and r0 == 1  # fullness: AND of r0 bits
    elif op == "i1":
        if carry:
            carry = r1 == 1
            r1 = 1 - r1
        acc = acc and r0 == r1  # equality: r0 == r1 bitwise
    elif op == "i2":
        if carry:
            carry = r2 == 1
            r2 = 1 - r2
        acc = acc or r2 == 1  # nonzero: OR of r2 bits
    elif op == "d2":
        if carry:  # "carry" doubles as the borrow flag
            carry = r2 == 0
            r2 = 1 - r2
        acc = acc or r2 == 1
    else:  # pragma: no cover - internal
        raise SimulationError(f"unknown cursor op {op!r}")
    return (r0, r1, r2), carry, acc


def _leader(mode, bits, full, r2nz, head, has_cells, ex=None):
    """Leader state; ``ex`` is the exact-count extension of Remark 2:
    ``None`` (classic halting), ``("t", r0_echo)`` while tracking, or
    ``("c", cooldown, r0_echo)`` during the confirmation wait."""
    return ("L", mode, bits, full, r2nz, head, has_cells, ex)


def _cell(bits, leftmost, cursor=None):
    return ("C", bits, leftmost, cursor)


class _CountingLineHandler:
    """The transition function delta, packaged for :class:`AgentProtocol`.

    With ``exact_factor`` set, the Remark 2 extension is enabled: instead
    of halting at ``r0 == r1``, the leader enters a confirmation wait and
    halts only after ``exact_factor * r0 * lg(r0)`` consecutive meetings
    without a fresh ``q0`` — after which w.h.p. it has met every node and
    ``r0 = n - 1`` exactly.
    """

    def __init__(self, b: int, exact_factor: Optional[int] = None) -> None:
        self.b = b
        self.exact_factor = exact_factor

    def _cool_limit(self, echo: int) -> int:
        assert self.exact_factor is not None
        return self.exact_factor * max(1, echo) * max(1, echo.bit_length())

    def _counted_q0(self, ex):
        """Update the exact-mode tracker after a fresh q0 was counted."""
        if ex is None:
            return None
        if ex[0] == "t":
            return ("t", ex[1] + 1)
        return ("c", 0, ex[2] + 1)

    def _cooled(self, ex):
        """One ineffective-for-counting meeting during the confirmation."""
        cooldown = ex[1] + 1
        if cooldown >= self._cool_limit(ex[2]):
            return "halt", ("c", cooldown, ex[2])
        return "idle", ("c", cooldown, ex[2])

    # -- main entry ----------------------------------------------------

    def __call__(self, view: InteractionView) -> Optional[Update]:
        for s1, p1, s2, p2, flip in (
            (view.state1, view.port1, view.state2, view.port2, False),
            (view.state2, view.port2, view.state1, view.port1, True),
        ):
            result = self._oriented(s1, p1, s2, p2, view.bond)
            if result is not None:
                a, b_, bond = result
                return (b_, a, bond) if flip else (a, b_, bond)
        return None

    # -- oriented dispatch ----------------------------------------------

    def _oriented(self, s1, p1, s2, p2, bond) -> Optional[Update]:
        if isinstance(s1, tuple) and s1[0] == "L":
            if isinstance(s2, str) and s2 in FREE_STATES:
                return self._leader_meets_free(s1, p1, s2, p2, bond)
            if isinstance(s2, tuple) and s2[0] == "C":
                return self._leader_meets_cell(s1, p1, s2, p2, bond)
            return None
        if isinstance(s1, tuple) and s1[0] == "C":
            if isinstance(s2, tuple) and s2[0] == "C":
                return self._cell_meets_cell(s1, p1, s2, p2, bond)
        return None

    # -- leader vs free node --------------------------------------------

    def _leader_meets_free(self, leader, p1, free, p2, bond) -> Optional[Update]:
        _, mode, bits, full, r2nz, head, has_cells, ex = leader
        if mode != "idle":
            return None
        if p1 != Port.RIGHT or p2 != Port.LEFT or bond != 0:
            # Counting meetings happen at the leader's right port against
            # the free node's left port (the paper's convention).
            return None
        confirming = ex is not None and ex[0] == "c"
        if free == "q0":
            if not full:
                return self._count_q0(leader), "q1", 0
            # Tape full: bind the q0 as the new leader cell; the old leader
            # becomes the top bit cell. The bound node is debt (r2 += 1).
            new_cell = _cell(bits, leftmost=not has_cells)
            new_leader = _leader(
                ("send", "i0", "i2"), (0, 0, 0), False, r2nz, head, True, ex
            )
            return new_cell, new_leader, 1
        if free == "q1":
            if confirming:
                new_mode, new_ex = self._cooled(ex)
                return _leader(new_mode, bits, full, r2nz, head, has_cells, new_ex), "q1", 0
            if head < self.b:
                return None  # head start not reached: ignore q1s
            if not has_cells:
                # Single-node tape: increment r1 and test halting locally.
                nbits, carry, eq = _apply_op(bits, "i1", True, True)
                if carry:
                    raise SimulationError("r1 overflowed r0 — invariant broken")
                new_mode, new_ex = self._triggered(eq, ex)
                return _leader(new_mode, nbits, full, r2nz, head, has_cells, new_ex), "q2", 0
            return _leader(("send", "i1"), bits, full, r2nz, head, True, ex), "q2", 0
        if free == "q2":
            if confirming:
                new_mode, new_ex = self._cooled(ex)
                return _leader(new_mode, bits, full, r2nz, head, has_cells, new_ex), "q2", 0
            if not r2nz:
                return None
            if not has_cells:  # pragma: no cover - debt requires cells
                raise SimulationError("debt recorded without any tape cell")
            return _leader(("send", "d2"), bits, full, r2nz, head, True, ex), "q1", 0
        return None

    def _triggered(self, eq: bool, ex):
        """The r0 == r1 halting condition fired (or not)."""
        if not eq:
            return "idle", ex
        if ex is None:
            return "halt", None
        # Exact mode: enter the confirmation wait instead of halting.
        return "idle", ("c", 0, ex[1] if ex[0] == "t" else ex[2])

    def _count_q0(self, leader):
        """Count one q0 into r0 (dispatching a walk when cells exist)."""
        _, mode, bits, full, r2nz, head, has_cells, ex = leader
        if not has_cells:
            nbits, carry, is_full = _apply_op(bits, "i0", True, True)
            if carry:
                raise SimulationError("i0 overflow on a non-full tape")
            return _leader(
                "idle", nbits, is_full, r2nz, min(head + 1, self.b), False,
                self._counted_q0(ex),
            )
        return _leader(("send", "i0"), bits, full, r2nz, head, True, ex)

    # -- leader vs its top cell (dispatch / completion) -------------------

    def _leader_meets_cell(self, leader, p1, cell, p2, bond) -> Optional[Update]:
        _, mode, bits, full, r2nz, head, has_cells, ex = leader
        _, cbits, leftmost, cursor = cell
        if bond != 1 or p1 != Port.LEFT or p2 != Port.RIGHT:
            return None
        if isinstance(mode, tuple) and mode[0] == "send" and cursor is None:
            op = mode[1]
            pending = mode[2] if len(mode) > 2 else None
            new_mode = ("wait", op) if pending is None else ("wait", op, pending)
            if leftmost:
                # One-cell tape: apply at the cell immediately (arrival and
                # application coincide, as for any leftmost arrival).
                nbits, carry, acc = _apply_op(cbits, op, True, _ACC_INIT[op])
                new_cursor = ("ap", op, carry, acc)
                return (
                    _leader(new_mode, bits, full, r2nz, head, has_cells, ex),
                    _cell(nbits, leftmost, new_cursor),
                    1,
                )
            return (
                _leader(new_mode, bits, full, r2nz, head, has_cells, ex),
                _cell(cbits, leftmost, ("gl", op)),
                1,
            )
        if (
            isinstance(mode, tuple)
            and mode[0] == "wait"
            and cursor is not None
            and cursor[0] == "ap"
        ):
            _, op, carry, acc = cursor
            if op != mode[1]:  # pragma: no cover - internal
                raise SimulationError("cursor/op mismatch at the leader")
            nbits, carry, acc = _apply_op(bits, op, carry, acc)
            if carry and op != "i0":
                raise SimulationError(f"op {op} overflowed past the leader")
            if carry:  # pragma: no cover - prevented by the fullness flag
                raise SimulationError("r0 overflow: bind should have happened")
            pending = mode[2] if len(mode) > 2 else None
            full2, r2nz2, head2, ex2 = full, r2nz, head, ex
            new_mode: object = "idle"
            if op == "i0":
                full2 = acc
                head2 = min(head + 1, self.b)
                ex2 = self._counted_q0(ex)
            elif op == "i1":
                new_mode, ex2 = self._triggered(acc, ex)
            else:  # i2 / d2
                r2nz2 = acc
            if pending is not None and new_mode == "idle":
                new_mode = ("send", pending)
            return (
                _leader(new_mode, nbits, full2, r2nz2, head2, has_cells, ex2),
                _cell(cbits, leftmost, None),
                1,
            )
        return None

    # -- cursor hops between cells ----------------------------------------

    def _cell_meets_cell(self, c1, p1, c2, p2, bond) -> Optional[Update]:
        if bond != 1:
            return None
        _, b1, lm1, cur1 = c1
        _, b2, lm2, cur2 = c2
        # Leftward hop: holder's left port against left neighbor's right.
        if (
            cur1 is not None
            and cur1[0] == "gl"
            and p1 == Port.LEFT
            and p2 == Port.RIGHT
            and cur2 is None
        ):
            op = cur1[1]
            if lm2:
                nbits, carry, acc = _apply_op(b2, op, True, _ACC_INIT[op])
                return _cell(b1, lm1, None), _cell(nbits, lm2, ("ap", op, carry, acc)), 1
            return _cell(b1, lm1, None), _cell(b2, lm2, ("gl", op)), 1
        # Rightward hop: holder's right port against right neighbor's left.
        if (
            cur1 is not None
            and cur1[0] == "ap"
            and p1 == Port.RIGHT
            and p2 == Port.LEFT
            and cur2 is None
        ):
            _, op, carry, acc = cur1
            nbits, carry, acc = _apply_op(b2, op, carry, acc)
            return _cell(b1, lm1, None), _cell(nbits, lm2, ("ap", op, carry, acc)), 1
        return None


def _is_hot(state) -> bool:
    if isinstance(state, str):
        return False
    if state[0] == "L":
        return state[1] != "halt"
    if state[0] == "C":
        return state[3] is not None  # cursor holder
    return True


def _pair_compatible(s1, s2) -> bool:
    kinds = []
    for s in (s1, s2):
        if isinstance(s, str):
            kinds.append("free")
        elif isinstance(s, tuple) and s[0] == "L":
            kinds.append("L")
        else:
            kinds.append("C")
    pair = frozenset(kinds) if kinds[0] != kinds[1] else frozenset([kinds[0]])
    return pair in (
        frozenset(["L", "free"]),
        frozenset(["L", "C"]),
        frozenset(["C"]),
    )


def counting_line_protocol(
    b: int = 4, exact_factor: Optional[int] = None
) -> AgentProtocol:
    """The Counting-on-a-Line protocol with head start ``b``.

    ``exact_factor`` enables the Remark 2 extension: the leader, after the
    normal halting condition fires, keeps counting until it has seen
    ``exact_factor * r0 * lg(r0)`` consecutive meetings with no fresh
    ``q0``; it then halts with ``r0 = n - 1`` w.h.p. (the exact count).
    """
    handler = _CountingLineHandler(b, exact_factor)
    ex0 = None if exact_factor is None else ("t", 0)
    return AgentProtocol(
        handler,
        initial_state="q0",
        leader_state=_leader("idle", (0, 0, 0), False, False, 0, False, ex0),
        hot=_is_hot,
        halted=lambda s: isinstance(s, tuple) and s[0] == "L" and s[1] == "halt",
        compatible=_pair_compatible,
        name=f"counting-on-a-line(b={b})",
    )


# ----------------------------------------------------------------------
# Running and decoding
# ----------------------------------------------------------------------


@dataclass
class CountingLineResult:
    """Outcome of a Counting-on-a-Line run."""

    n: int
    b: int
    r0: int
    r1: int
    r2: int
    line_length: int
    events: int
    halted: bool
    #: Protocol-delta evaluations of the run's scheduler (``None`` for a
    #: scheduler that does not count them).
    evaluations: Optional[int] = None

    @property
    def success(self) -> bool:
        """Theorem 1 / Lemma 1 guarantee: counted at least half."""
        return 2 * self.r0 >= self.n

    @property
    def expected_length(self) -> int:
        """Lemma 1: the line has ``floor(lg r0) + 1`` nodes."""
        return self.r0.bit_length() if self.r0 > 0 else 1


def counting_line_world(
    n: int, b: int = 4, exact_factor: Optional[int] = None
) -> Tuple[World, AgentProtocol]:
    """A fresh solution of one leader and ``n - 1`` free q0 nodes."""
    if n < b + 2:
        raise SimulationError(
            f"counting-on-a-line needs n >= b + 2 (got n={n}, b={b}): "
            "otherwise r0 can never reach the head start"
        )
    protocol = counting_line_protocol(b, exact_factor)
    world = World.of_free_nodes(n, protocol, leaders=1)
    return world, protocol


def decode_counters(world: World) -> Tuple[int, int, int, int]:
    """Read ``(r0, r1, r2, line_length)`` off the leader's line.

    Bits are least significant at the line's left end; the leader's
    embedded bits are the most significant.
    """
    leader_nid = None
    for nid, state in world.states().items():
        if isinstance(state, tuple) and state[0] == "L":
            leader_nid = nid
            break
    if leader_nid is None:
        raise SimulationError("no leader in the world")
    comp = world.component_of(leader_nid)
    ordered = [comp.cells[cell] for cell in sorted(comp.cells)]
    r0 = r1 = r2 = 0
    for k, nid in enumerate(ordered):
        state = world.state_of(nid)
        if isinstance(state, tuple) and state[0] == "C":
            bits = state[1]
        else:
            bits = state[2]  # the leader's embedded bits
        r0 += bits[0] << k
        r1 += bits[1] << k
        r2 += bits[2] << k
    return r0, r1, r2, len(ordered)


def run_counting_on_a_line(
    n: int,
    b: int = 4,
    seed: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    max_events: int = 50_000_000,
    exact_factor: Optional[int] = None,
) -> CountingLineResult:
    """One full Counting-on-a-Line execution to termination."""
    world, protocol = counting_line_world(n, b, exact_factor)
    kwargs = {} if scheduler is None else {"scheduler": scheduler}
    sim = Simulation(world, protocol, seed=seed, **kwargs)
    result = sim.run(
        max_events=max_events,
        until=lambda w: any(
            isinstance(s, tuple) and s[0] == "L" and s[1] == "halt"
            for s in w.states().values()
        ),
        require_stop=True,
    )
    r0, r1, r2, length = decode_counters(world)
    return CountingLineResult(
        n, b, r0, r1, r2, length, result.events, True, sim.evaluations
    )
