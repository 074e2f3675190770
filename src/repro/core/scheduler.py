"""Schedulers: the adversary / uniform-random interaction selection of §3.

Four interchangeable implementations of the *uniform random scheduler*
("in every step, selects independently and uniformly at random one of the
interactions permitted by E(t)"), all built on the shared canonical
effective-candidate layer of :mod:`repro.core.candidates`:

* :class:`EnumeratingScheduler` — reference implementation; enumerates the
  full permissible set, draws the geometric number of ineffective steps by
  exact inverse CDF, and picks uniformly among effective interactions.
  Exact in both trajectory law and raw step counts.
* :class:`RejectionScheduler` — same trajectory (it shares the canonical
  effective list, cached like ``HotScheduler``), but estimates the raw
  step count by rejection-sampling node-port pairs from the full superset
  (the accepted sequence is uniform over the permissible set, so the wait
  until the first effective draw has exactly the geometric law) instead
  of computing ``|Perm|``; falls back to the exact geometric tail after
  ``max_trials`` draws, without double-counting the observed wait.
* :class:`HotScheduler` — samples the effective-interaction jump chain
  directly and does not track raw steps. It maintains the effective set
  in an :class:`EffectiveCandidateCache`, re-examining only the dirty
  neighborhood of the previous event: the cache consumes the world-delta
  journal, so merges, splits, surgery excisions and hybrid moves are all
  pruned finely.
* :class:`RoundRobinScheduler` — a deterministic *fair* adversary cycling
  through the same canonical candidate list.

Every scheduler dispatches ``delta`` through the protocol's compiled
program (:func:`evaluate`) — exact rule tables and lazily lowered handlers
alike — and the cached ones share one candidate store, the columnar
:class:`EffectiveCandidateCache`; there is no backend to choose.

Scheduler contract
------------------

``next_event`` returns ``None`` — and consumes **no randomness** — exactly
when no *effective* interaction is permissible (the configuration has
stabilized). It never raises for an empty permissible set: a single free
node is simply a stabilized configuration. (Historically the enumerating
scheduler raised ``SchedulerError`` here, diverging from ``HotScheduler``
and from this contract.)

Otherwise every scheduler consumes exactly two draws from ``rng`` per
event, in this order:

1. ``rng.randrange(len(effective))`` — the selection, indexing the
   canonically sorted effective list;
2. ``rng.random()`` — the raw-step accounting draw (schedulers that do not
   track raw steps still consume it).

Because the effective list is identical across implementations (same
canonical orientation, same total sort order) and the RNG consumption is
identical, *seeded trajectories are identical across all the uniform
schedulers*, not merely equal in law — the property pinned by
``tests/test_scheduler_equivalence.py``. The round-robin adversary is
deterministic and consumes no randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import SchedulerError
from repro.core.candidates import (
    EffectiveCandidateCache,
    bound_program,
    reference_effective_candidates,
)
from repro.core.protocol import Protocol, Update
from repro.core.sampling import geometric_from_uniform
from repro.core.world import Candidate, World
from repro.geometry.ports import PORT_INDEX


@dataclass(frozen=True)
class ScheduledEvent:
    """One effective interaction chosen by a scheduler.

    ``raw_steps`` counts the scheduler steps consumed including the
    ineffective ones preceding this event; ``None`` when the scheduler does
    not track raw steps.
    """

    candidate: Candidate
    update: Update
    raw_steps: Optional[int]


def evaluate(protocol: Protocol, world: World, cand: Candidate) -> Optional[Update]:
    """Apply the protocol's delta to a candidate; ``None`` if ineffective.

    Dispatch runs on the protocol's compiled program (rule tables and
    lazily lowered handlers alike): node records of a world bound to it
    hold interned ids, so the whole ``delta`` application is one int-dict
    hit with zero tuple or view allocation. An unbound world is bound
    here first (:func:`~repro.core.candidates.bound_program`).
    """
    program = bound_program(world, protocol)
    nodes = world.nodes
    return program.lookup(
        nodes[cand.nid1].sid,
        PORT_INDEX[cand.port1],
        nodes[cand.nid2].sid,
        PORT_INDEX[cand.port2],
        cand.bond,
    )


class Scheduler:
    """Base class; subclasses yield the next effective interaction."""

    tracks_raw_steps: bool = False

    def __init__(self) -> None:
        #: Protocol-delta evaluations performed so far — the dominant cost
        #: of candidate discovery, reported by the scheduler benchmarks.
        self.evaluations = 0

    def next_event(
        self, world: World, protocol: Protocol, rng: random.Random
    ) -> Optional[ScheduledEvent]:
        """The next effective interaction, or ``None`` once no effective
        interaction is permissible (the configuration has stabilized).

        See the module docstring for the full contract (RNG consumption,
        canonical ordering, stabilization)."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _evaluate(
        self, protocol: Protocol, world: World, cand: Candidate
    ) -> Optional[Update]:
        self.evaluations += 1
        return evaluate(protocol, world, cand)


class EnumeratingScheduler(Scheduler):
    """Exact uniform scheduler by full enumeration (reference)."""

    tracks_raw_steps = True

    def next_event(
        self, world: World, protocol: Protocol, rng: random.Random
    ) -> Optional[ScheduledEvent]:
        effective, permissible = reference_effective_candidates(
            world, protocol, self._evaluate
        )
        if not effective:
            return None
        cand, update = effective[rng.randrange(len(effective))]
        # Raw steps until the first effective interaction: geometric with
        # success probability |Eff| / |Perm|, by exact inverse CDF.
        raw = geometric_from_uniform(rng.random(), len(effective) / permissible)
        return ScheduledEvent(cand, update, raw)


class RejectionScheduler(Scheduler):
    """Uniform scheduler whose raw steps come from rejection sampling.

    The event itself is the canonical selection shared by every scheduler;
    the *raw step count* is sampled by drawing node-port pairs uniformly
    from the full superset with a subsidiary RNG (seeded from the
    accounting draw, so the main stream stays in lockstep with the other
    schedulers), skipping impermissible draws, and counting permissible
    ones until the first effective draw. The count is Geometric(|Eff|/|Perm|)
    exactly — the standard rejection argument — without ever computing
    ``|Perm|``. After ``max_trials`` draws the exact geometric tail is
    added instead (memorylessness: the remaining wait after ``k`` observed
    ineffective steps is again geometric), so the wait is counted once,
    never twice.
    """

    tracks_raw_steps = True

    def __init__(self, max_trials: Optional[int] = None) -> None:
        super().__init__()
        self.max_trials = max_trials
        self._cache = EffectiveCandidateCache()

    def next_event(
        self, world: World, protocol: Protocol, rng: random.Random
    ) -> Optional[ScheduledEvent]:
        effective = self._cache.refresh(world, protocol, self._evaluate)
        if not effective:
            return None
        cand, update = effective[rng.randrange(len(effective))]
        sub = random.Random(rng.random())
        raw = self._sample_raw_steps(world, protocol, sub, len(effective))
        return ScheduledEvent(cand, update, raw)

    def _sample_raw_steps(
        self,
        world: World,
        protocol: Protocol,
        sub: random.Random,
        n_effective: int,
    ) -> int:
        n = world.size
        if n < 2:  # pragma: no cover - one node has no effective interaction
            raise SchedulerError("need at least two nodes to interact")
        ports = world.ports
        n_align = 1 if world.dimension == 2 else 4
        limit = self.max_trials if self.max_trials is not None else max(2000, 100 * n)
        raw = 0
        node_ids = list(world.nodes)
        for _ in range(limit):
            nid1 = node_ids[sub.randrange(n)]
            nid2 = node_ids[sub.randrange(n)]
            if nid1 == nid2:
                continue
            p1 = ports[sub.randrange(len(ports))]
            p2 = ports[sub.randrange(len(ports))]
            g = sub.randrange(n_align)
            rec1 = world.nodes[nid1]
            rec2 = world.nodes[nid2]
            if rec1.component_id == rec2.component_id:
                # Intra pairs have no alignment choice; normalize multiplicity
                # by accepting only one of the n_align rotation draws.
                if g != 0:
                    continue
                cand = world.check_intra(nid1, p1, nid2, p2)
                if cand is None:
                    continue
            else:
                alignments = world.inter_alignments(nid1, p1, nid2, p2)
                # The g-th alignment among the rotation-stabilizer choices;
                # in 2D there is at most one.
                if g >= len(alignments):
                    continue
                rot, trans = alignments[g]
                cand = Candidate(nid1, p1, nid2, p2, 0, rot, trans)
            raw += 1
            if self._evaluate(protocol, world, cand) is not None:
                return raw
        # Too many ineffective draws (Eff is a tiny fraction): add the exact
        # geometric tail for the remaining wait. By memorylessness this is
        # the conditional law given the observed ineffective prefix — the
        # prefix is counted once, here, and never again.
        permissible = world.candidate_count()
        return raw + geometric_from_uniform(
            sub.random(), n_effective / permissible
        )


class HotScheduler(Scheduler):
    """Accelerated scheduler sampling the effective-interaction jump chain.

    Exactly reproduces the trajectory of the uniform random scheduler (the
    conditional law of a uniform permissible draw given effectiveness is
    uniform on the effective set) without paying for ineffective steps.
    The effective set is maintained by an :class:`EffectiveCandidateCache`,
    so each event re-examines only the neighborhood the previous event
    dirtied.
    """

    tracks_raw_steps = False

    def __init__(self) -> None:
        super().__init__()
        self._cache = EffectiveCandidateCache()

    def next_event(
        self, world: World, protocol: Protocol, rng: random.Random
    ) -> Optional[ScheduledEvent]:
        effective = self._cache.refresh(world, protocol, self._evaluate)
        if not effective:
            return None
        cand, update = effective[rng.randrange(len(effective))]
        rng.random()  # accounting draw (unused): keep the RNG contract
        return ScheduledEvent(cand, update, None)


class RoundRobinScheduler(Scheduler):
    """A deterministic *fair* adversary.

    Cycles through the canonical effective list, ensuring every
    persistently enabled interaction is eventually selected. Used to
    exercise the "halts in every fair execution" side of the theorems
    without probabilistic assumptions. The canonical order is total over
    full candidate identity — including the placement rotation and
    translation, so inter-component candidates differing only in alignment
    are ordered by value, never by hash order (which varies across
    processes and broke fair-adversary determinism). Consumes no
    randomness.
    """

    tracks_raw_steps = False

    def __init__(self) -> None:
        super().__init__()
        self._turn = 0
        self._cache = EffectiveCandidateCache()

    def next_event(
        self, world: World, protocol: Protocol, rng: random.Random
    ) -> Optional[ScheduledEvent]:
        effective = self._cache.refresh(world, protocol, self._evaluate)
        if not effective:
            return None
        cand, update = effective[self._turn % len(effective)]
        self._turn += 1
        return ScheduledEvent(cand, update, None)


def make_scheduler(kind: str = "hot", **kwargs) -> Scheduler:
    """Factory: ``"enumerate"``, ``"rejection"``, ``"hot"``, ``"round-robin"``.

    Keyword arguments are forwarded to the scheduler constructor; only
    the rejection scheduler takes one, e.g.
    ``make_scheduler("rejection", max_trials=500)``.
    """
    if kind == "enumerate":
        return EnumeratingScheduler(**kwargs)
    if kind == "rejection":
        return RejectionScheduler(**kwargs)
    if kind == "hot":
        return HotScheduler(**kwargs)
    if kind == "round-robin":
        return RoundRobinScheduler(**kwargs)
    raise SchedulerError(f"unknown scheduler kind: {kind!r}")
