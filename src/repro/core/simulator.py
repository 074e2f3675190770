"""The simulation loop: executions, stabilization, termination (§3).

A :class:`Simulation` binds a :class:`~repro.core.world.World`, a
:class:`~repro.core.protocol.Protocol` and a scheduler, and advances the
execution one effective interaction at a time. It detects *stabilization*
(no effective interaction is permissible anymore) and supports arbitrary
stop predicates, e.g. "some node reached a halting state" for terminating
protocols.

Stabilization is signalled by the scheduler contract
(``Scheduler.next_event`` returns ``None``; see ``repro.core.scheduler``):
a configuration with no effective interaction — including degenerate
single-node worlds with no permissible interaction at all — ends the run
with ``stabilized=True`` rather than raising. World mutations performed
*between* steps (fault injection, synchronous rounds, constructor surgery)
are picked up automatically by incremental schedulers through the world's
change journal, the unified world-delta log (merges, splits, surgery
excisions, hybrid moves — consumed as fine-grained deltas), and the
component version counters (the coarse backstop); no explicit cache
invalidation call exists or is needed.

This module is the execution engine underneath the declarative experiment
layer: ``repro.experiments`` wraps seeded :class:`Simulation` runs (and the
scenario-specific pipelines built on them) into registered scenarios with a
uniform result schema, and :class:`RunResult.reason` — a :class:`StopReason`
— is reused verbatim by ``repro.experiments.result.ExperimentResult``.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import TerminationError
from repro.core.protocol import Protocol, Update
from repro.core.scheduler import HotScheduler, ScheduledEvent, Scheduler
from repro.core.world import Candidate, World

#: A trace hook: called after each applied event.
TraceHook = Callable[[int, Candidate, Update, World], None]

#: Construction observers: called with every newly-built :class:`Simulation`.
#: This is the seam the streaming trace recorder (``repro.trace.record``)
#: attaches through — the core stays free of trace imports, and the list is
#: empty (zero per-step cost, bit-identical trajectories) unless a recording
#: context is active.
_SIM_OBSERVERS: List[Callable[["Simulation"], None]] = []


def add_simulation_observer(observer: Callable[["Simulation"], None]) -> None:
    """Register a callback invoked with each subsequently-built Simulation."""
    _SIM_OBSERVERS.append(observer)


def remove_simulation_observer(observer: Callable[["Simulation"], None]) -> None:
    """Unregister a construction observer (no error if already removed)."""
    try:
        _SIM_OBSERVERS.remove(observer)
    except ValueError:
        pass


def notify_simulation_observers(sim) -> None:
    """Offer a freshly-constructed simulation to every observer.

    Called from ``Simulation.__post_init__`` and from duck-typed drivers
    (``repro.hybrid.movement.HybridSimulation``) that expose the same
    ``world`` / ``seed`` / ``trace`` surface a recording attaches to.
    """
    for observe in tuple(_SIM_OBSERVERS):
        observe(sim)


class StopReason(str, enum.Enum):
    """Why a run ended — the one normalized vocabulary for every runner.

    A ``str`` subclass so historical comparisons against the literal
    strings (``result.reason == "budget"``) keep working; new code should
    compare against the enum members. Reused by
    ``repro.experiments.result.ExperimentResult``.
    """

    STABILIZED = "stabilized"  #: no effective interaction is permissible
    PREDICATE = "predicate"    #: the ``until`` stop predicate fired
    BUDGET = "budget"          #: the event budget ran out first

    def __str__(self) -> str:  # json/format friendliness: the bare value
        return self.value


@dataclass
class RunResult:
    """Outcome of a :meth:`Simulation.run` call."""

    events: int
    raw_steps: Optional[int]
    stabilized: bool
    stopped: bool
    reason: StopReason

    def __bool__(self) -> bool:  # truthy when the run ended on its own terms
        return self.stabilized or self.stopped


@dataclass
class Simulation:
    """Drives a protocol over a world under a scheduler.

    Parameters
    ----------
    world, protocol:
        The configuration and the common program of the nodes.
    scheduler:
        Defaults to the :class:`HotScheduler` (exact trajectory law,
        effective-event counting).
    rng / seed:
        Randomness source; pass ``seed`` for reproducible executions.
    check_invariants:
        When true, the world's structural invariants are verified after
        every applied event (slow; meant for tests).
    """

    world: World
    protocol: Protocol
    scheduler: Scheduler = field(default_factory=HotScheduler)
    rng: Optional[random.Random] = None
    seed: Optional[int] = None
    check_invariants: bool = False
    trace: Optional[TraceHook] = None

    events: int = 0
    raw_steps: int = 0
    stabilized: bool = False

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = random.Random(self.seed)
        # Bind the world to the protocol's compiled program: the world
        # adopts its canonical state space, so scheduler dispatch compares
        # interned ids with no translation. Idempotent; worlds built via
        # ``World.of_free_nodes`` are already bound.
        self.world.adopt_space(self.protocol.program.space)
        notify_simulation_observers(self)

    # ------------------------------------------------------------------

    def step(self) -> Optional[ScheduledEvent]:
        """Apply one effective interaction; ``None`` once stabilized."""
        if self.stabilized:
            return None
        assert self.rng is not None
        event = self.scheduler.next_event(self.world, self.protocol, self.rng)
        if event is None:
            self.stabilized = True
            return None
        self.world.apply(event.candidate, event.update)
        self.events += 1
        if event.raw_steps is not None:
            self.raw_steps += event.raw_steps
        if self.check_invariants:
            self.world.check_invariants()
        if self.trace is not None:
            self.trace(self.events, event.candidate, event.update, self.world)
        return event

    def run(
        self,
        max_events: int = 1_000_000,
        until: Optional[Callable[[World], bool]] = None,
        require_stop: bool = False,
    ) -> RunResult:
        """Advance until stabilization, the predicate, or the event budget.

        ``until`` is evaluated before the first event and after each event.
        With ``require_stop`` the run raises :class:`TerminationError` when
        the budget is exhausted first — use it when a theorem guarantees
        termination and silent truncation would mask a bug.
        """
        def result(stopped: bool, reason: StopReason) -> RunResult:
            raw = self.raw_steps if self.scheduler.tracks_raw_steps else None
            return RunResult(self.events, raw, self.stabilized, stopped, reason)

        if until is not None and until(self.world):
            return result(True, StopReason.PREDICATE)
        for _ in range(max_events):
            event = self.step()
            if event is None:
                return result(False, StopReason.STABILIZED)
            if until is not None and until(self.world):
                return result(True, StopReason.PREDICATE)
        if require_stop:
            raise TerminationError(
                f"run exceeded {max_events} events without stopping"
            )
        return result(False, StopReason.BUDGET)

    def run_to_stabilization(self, max_events: int = 1_000_000) -> RunResult:
        """Run until no effective interaction remains (stable output, §3)."""
        res = self.run(max_events=max_events)
        if not res.stabilized:
            raise TerminationError(
                f"did not stabilize within {max_events} events"
            )
        return res

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------

    @property
    def evaluations(self) -> Optional[int]:
        """Protocol-delta evaluations the scheduler performed so far.

        The dominant cost of candidate discovery (see
        ``benchmarks/bench_schedulers.py``); ``None`` for third-party
        schedulers that do not track it.
        """
        return getattr(self.scheduler, "evaluations", None)

    def any_halted(self) -> bool:
        """True iff some node is in a halting state."""
        decode = self.world.space.states
        return any(
            self.protocol.is_halted(decode[rec.sid])
            for rec in self.world.nodes.values()
        )

    def states_by_count(self) -> List[Tuple[object, int]]:
        """State multiset of the population, most frequent first."""
        decode = self.world.space.states
        counts: dict = {}
        for rec in self.world.nodes.values():
            state = decode[rec.sid]
            counts[state] = counts.get(state, 0) + 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
