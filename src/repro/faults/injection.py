"""Fault adversaries over a :class:`~repro.core.world.World` (§8).

The environment of the paper's robustness discussion breaks an active link
with a small probability at any time. We model it as an interleaving of the
protocol's effective interactions with *fault events*: after each applied
interaction, each step independently breaks one uniformly random active
bond with probability ``break_prob`` and (optionally) excises one uniformly
random bonded node with probability ``excise_prob`` — the node-disappearance
face of the same adversary. Splitting into connected fragments is handled
by the world (each fragment keeps operating, exactly as the paper's
detached parts keep floating in the solution).

Every fault funnels through the world's journaled mutation paths — bond
removals land the endpoints in the change journal and disconnections and
excisions are recorded in the world-delta journal — so incremental
candidate caches consume each fault as a fine-grained split delta instead
of re-sweeping the damaged component (``repro.core.candidates``;
benchmarked by ``benchmarks/bench_splits.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.protocol import Protocol, State
from repro.core.scheduler import Scheduler
from repro.core.simulator import RunResult, Simulation, StopReason
from repro.core.world import Bond, World, bond_sort_key
from repro.errors import SimulationError


def random_active_bonds(world: World) -> List[Tuple[int, Bond]]:
    """All active bonds of the configuration as ``(component id, bond)``.

    Deterministically ordered (bond sets iterate in hash order, which
    varies across processes; the fault coin's RNG draw indexes this list).
    """
    out: List[Tuple[int, Bond]] = []
    for comp in world.components.values():
        for bond in sorted(comp.bonds, key=bond_sort_key):
            out.append((comp.cid, bond))
    return out


def break_bond(world: World, bond: Bond) -> None:
    """Deactivate one specific active bond (shared by injection and replay).

    The trace replay engine (``repro.trace.replay``) applies recorded
    ``detach`` records through this exact path, so a replayed fault splits,
    journals, and renumbers fragments identically to the live injection.
    """
    (a, _pa), _ = tuple(bond)  # either endpoint locates the owning component
    comp = world.components[world.nodes[a].component_id]
    if bond not in comp.bonds:
        raise SimulationError(f"cannot break inactive bond {sorted(bond)!r}")
    comp.bonds.discard(bond)
    # Journal the endpoints so incremental schedulers see the snapped link;
    # a disconnecting removal splits below, journalling a split delta.
    for nid, _port in bond:
        world.note_change(nid)
    world._split_if_disconnected(comp)


def break_random_bond(world: World, rng: random.Random) -> Optional[Bond]:
    """Deactivate one uniformly random active bond; ``None`` if none exist.

    The owning component is split into its bond-connected fragments when the
    removal disconnects it, mirroring a physical link snapping.
    """
    bonds = random_active_bonds(world)
    if not bonds:
        return None
    _cid, bond = bonds[rng.randrange(len(bonds))]
    break_bond(world, bond)
    return bond


def excise_random_node(
    world: World, rng: random.Random, state: State
) -> Optional[int]:
    """Excise one uniformly random bonded node; ``None`` if all are free.

    The node-disappearance fault of §8: all the node's connections
    deactivate and it returns to the solution as a free node in ``state``
    (typically the protocol's initial state — the node "forgets"). The
    surgery goes through :meth:`~repro.core.world.World.free_singleton`,
    so the excision is journalled as a split delta and the remainder of
    the component splits into its bond-connected fragments.
    """
    bonded = sorted(nid for nid in world.nodes if not world.is_free(nid))
    if not bonded:
        return None
    nid = bonded[rng.randrange(len(bonded))]
    world.free_singleton(nid, state)
    return nid


@dataclass
class BondBreakage:
    """Record of one injected link fault."""

    at_event: int
    bond: Bond


@dataclass
class NodeExcision:
    """Record of one injected node-disappearance fault."""

    at_event: int
    nid: int


@dataclass
class FaultySimulation:
    """A :class:`~repro.core.simulator.Simulation` under perpetual faults.

    After every applied effective interaction, a fault coin with probability
    ``break_prob`` is flipped (on success one uniformly random active bond
    snaps), then — when ``excise_prob > 0`` — an excision coin likewise
    (on success one uniformly random bonded node is cut free, resuming in
    the protocol's initial state). With either probability positive and a
    construction that needs bonds, the execution keeps being set back — the
    quantitative face of §8's "no construction can ever stabilize".

    Parameters mirror :class:`Simulation`; ``max_bonds_broken`` /
    ``max_excisions`` optionally stop injecting after a budget of faults so
    that runs can be driven to stabilization *after* a burst of damage.
    With ``excise_prob == 0`` (the default) no excision coin is ever
    flipped, so seeded trajectories are unchanged from the
    breakage-only adversary.
    """

    world: World
    protocol: Protocol
    break_prob: float
    scheduler: Optional[Scheduler] = None
    seed: Optional[int] = None
    max_bonds_broken: Optional[int] = None
    excise_prob: float = 0.0
    max_excisions: Optional[int] = None

    breakages: List[BondBreakage] = field(default_factory=list)
    excisions: List[NodeExcision] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.break_prob <= 1.0:
            raise SimulationError(
                f"break probability must be in [0, 1]: {self.break_prob}"
            )
        if not 0.0 <= self.excise_prob <= 1.0:
            raise SimulationError(
                f"excise probability must be in [0, 1]: {self.excise_prob}"
            )
        self._rng = random.Random(self.seed)
        kwargs = {}
        if self.scheduler is not None:
            kwargs["scheduler"] = self.scheduler
        self._sim = Simulation(
            self.world, self.protocol, rng=self._rng, **kwargs
        )

    @property
    def events(self) -> int:
        return self._sim.events

    @property
    def evaluations(self) -> Optional[int]:
        """Protocol-delta evaluations of the inner simulation's scheduler
        (see :attr:`Simulation.evaluations`)."""
        return self._sim.evaluations

    def _trace_writer(self):
        """The attached streaming trace writer, if a recording is active.

        Duck-typed through the hook the recording context installed on the
        inner simulation (``repro.trace`` carries a ``trace_writer``
        attribute on its hook closures) — faults stay import-free of the
        trace subsystem. Injected faults are invisible to the per-event
        hook (a non-disconnecting break journals no world delta at all), so
        they must be recorded out-of-band for replay to be bit-exact.
        """
        return getattr(self._sim.trace, "trace_writer", None)

    def _budget_left(self) -> bool:
        return (
            self.max_bonds_broken is None
            or len(self.breakages) < self.max_bonds_broken
        )

    def _excise_budget_left(self) -> bool:
        return (
            self.max_excisions is None
            or len(self.excisions) < self.max_excisions
        )

    def _faults_possible(self) -> bool:
        if (
            self.break_prob > 0.0
            and self._budget_left()
            and any(c.bonds for c in self.components())
        ):
            return True
        return (
            self.excise_prob > 0.0
            and self._excise_budget_left()
            and any(c.size() > 1 for c in self.components())
        )

    def components(self):
        return self.world.components.values()

    def _maybe_break(self) -> bool:
        """Flip the breakage coin; True iff a bond actually snapped."""
        if (
            self.break_prob > 0.0
            and self._budget_left()
            and self._rng.random() < self.break_prob
        ):
            bond = break_random_bond(self.world, self._rng)
            if bond is not None:
                self.breakages.append(BondBreakage(self._sim.events, bond))
                writer = self._trace_writer()
                if writer is not None:
                    writer.record_break(self._sim.events, bond)
                return True
        return False

    def _maybe_excise(self) -> bool:
        """Flip the excision coin; True iff a node was actually cut free.

        Consumes no randomness when ``excise_prob`` is zero, keeping the
        breakage-only RNG stream intact.
        """
        if (
            self.excise_prob > 0.0
            and self._excise_budget_left()
            and self._rng.random() < self.excise_prob
        ):
            nid = excise_random_node(
                self.world, self._rng, self.protocol.initial_state
            )
            if nid is not None:
                self.excisions.append(NodeExcision(self._sim.events, nid))
                writer = self._trace_writer()
                if writer is not None:
                    writer.record_excise(
                        self._sim.events, nid, self.protocol.initial_state
                    )
                return True
        return False

    def step(self) -> bool:
        """One time step: a protocol event (if any) plus the fault coins.

        Returns False only on *genuine* stabilization: no effective
        interaction is permissible and no fault can ever strike again
        (the probabilities are zero, the fault budgets are spent, or no
        active bond / bonded node remains). While faults remain possible
        the configuration can always change again — §8's "no construction
        can ever stabilize".
        """
        event = self._sim.step()
        if event is not None:
            self._maybe_break()
            self._maybe_excise()
            return True
        # Protocol quiescent: only faults can move the configuration.
        if not self._faults_possible():
            return False
        broke = self._maybe_break()
        excised = self._maybe_excise()
        if broke or excised:
            self._sim.stabilized = False  # damage may re-enable events
        return True

    def run(self, max_steps: int = 100_000) -> RunResult:
        """Run until genuine stabilization or the step budget.

        With unbounded faults and any bonded construction the expected
        outcome is ``"budget"`` — perpetual setbacks preclude stabilization.
        """
        for _ in range(max_steps):
            if not self.step():
                return RunResult(
                    self._sim.events, None, True, False, StopReason.STABILIZED
                )
        return RunResult(self._sim.events, None, False, False, StopReason.BUDGET)

    def largest_component_size(self) -> int:
        """Order of the largest connected component (progress metric)."""
        return max(c.size() for c in self.world.components.values())
