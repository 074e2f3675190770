"""The benchmark's three workloads, one closed-loop client each.

Every workload runs the same user-visible session over its own inputs:
build, run untraced, record the same seeded run to a trace file, replay
the trace with verification, and diff it against itself. ``service-sweep``
runs its trials through the sweep service instead (cold, then an identical
warm resubmission) and records, replays and diffs a fixed subset of them.
Why each workload exists is written in ``BENCHMARK.json`` and README.md.

``rep`` runs one session for one input seed. It times each phase through
``phase(name)``, or adds a sample it timed itself through
``phase.add(name, seconds)``. It counts every correctness check through
``check(ok, what)``, and returns the deterministic counters of the
session, which the self-test compares across repeated and traced runs.
``traced`` is set when the benchmark's span tracer is installed;
``service-sweep`` then also runs its trials in-process, where the tracer
can see them.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional

from repro.core.candidates import EffectiveCandidateCache
from repro.core.columnar import backend_name
from repro.core.protocol import Rule, RuleProtocol
from repro.core.scheduler import make_scheduler
from repro.core.simulator import (
    Simulation,
    add_simulation_observer,
    remove_simulation_observer,
)
from repro.core.world import World
from repro.experiments import ExperimentSpec, SweepSpec, run_experiment
from repro.experiments.service import ServiceClient, serve_in_thread
from repro.experiments.store import TrialStore
from repro.geometry.ports import PORTS_2D, opposite
from repro.trace import (
    TraceWriter,
    diff_traces,
    record_scenario,
    recording,
    replay_trace,
    world_digest,
)

Phase = Callable[[str], ContextManager]
Check = Callable[[bool, str], None]

#: Replays and self-diffs per session: each takes milliseconds, so a run
#: takes several samples of them per session for their fastest.
VERB_REPEATS = 4


def _store_kind(protocol) -> str:
    """Which candidate store the hot scheduler uses for ``protocol``."""
    exact = protocol.program is not None and protocol.program.exact
    return "dense" if exact and "numpy" in backend_name() else "scalar"


def _cache_counters(scheduler, check: Check, name: str) -> Dict[str, int]:
    """Counters of the scheduler's candidate cache, read after the run.

    The scheduler has no public accessor for its cache, so the cache is
    found by its public type among the scheduler's attributes rather than
    by a private attribute name. A scheduler without one fails a check
    and reports no cache counters."""
    caches = [v for v in vars(scheduler).values() if isinstance(v, EffectiveCandidateCache)]
    check(len(caches) == 1, f"{name}: scheduler has no EffectiveCandidateCache")
    if len(caches) != 1:
        return {}
    cache = caches[0]
    return {
        "refreshed_nodes": cache.refreshed_nodes,
        "merge_prunes": cache.merge_prunes,
        "split_prunes": cache.split_prunes,
        "full_rebuilds": cache.full_rebuilds,
    }


def _trace_checks(
    check: Check, name: str, replayed, diff, events: int, digest: Optional[str]
) -> None:
    """Replay verified against the recorded digests (and, when given, the
    live run's final world); self-diff identical over every event."""
    check(replayed.verified, f"{name}: replay not verified")
    if digest is not None:
        check(replayed.digest == digest, f"{name}: replayed world differs from the run")
    check(replayed.events == events, f"{name}: replayed event count")
    check(diff.identical, f"{name}: self-diff not identical")
    check(diff.events_compared == events, f"{name}: diff compared every event")


def aggregation_protocol() -> RuleProtocol:
    """Leaderless gluing: every meeting of free ports bonds."""
    rules = [Rule("g", p, "g", opposite(p), 0, "g", "g", 1) for p in PORTS_2D]
    return RuleProtocol(rules, initial_state="g", name="aggregation")


class Aggregation:
    """Leaderless gluing of free nodes to stabilization: a hand-built world
    driven by ``Simulation.run`` under ``make_scheduler("hot")``."""

    name = "aggregation"
    default_seed = 11

    def __init__(self, tmp: Path, small: bool = False) -> None:
        self.tmp = tmp
        self.n = 48 if small else 128
        self.meta: Dict[str, object] = {}
        #: Filled by :meth:`rep` for the layer metrics of the traced run.
        self.last: Dict[str, object] = {}

    def rep(self, seed: int, phase: Phase, check: Check, traced: bool = False) -> Dict[str, int]:
        with phase("setup"):
            protocol = aggregation_protocol()
            worlds = [World.of_free_nodes(self.n, protocol, leaders=0) for _ in range(2)]
        with phase("run"):
            sim = Simulation(worlds[0], protocol, scheduler=make_scheduler("hot"), seed=seed)
            result = sim.run()
        path = self.tmp / f"{self.name}-{seed}.trace"
        writer = TraceWriter(path, scenario=self.name, seed=seed, scheduler="hot")
        with phase("record"):
            with recording(writer):
                twin = Simulation(worlds[1], protocol, scheduler=make_scheduler("hot"), seed=seed)
                twin_result = twin.run()
            writer.finalize()
        digest = world_digest(worlds[0])
        for _ in range(VERB_REPEATS):
            with phase("replay"):
                replayed = replay_trace(path, verify=True, use_checkpoints=False)
            with phase("diff"):
                diff = diff_traces(path, path)
            _trace_checks(check, self.name, replayed, diff, result.events, digest)

        check(result.stabilized, "aggregation: did not stabilize")
        check(twin_result == result, "aggregation: recorded run differs")
        check(twin.evaluations == sim.evaluations, "aggregation: recorded evaluations")
        check(world_digest(worlds[1]) == digest, "aggregation: recorded world")
        self.meta = {"exact": protocol.program.exact, "store": _store_kind(protocol)}
        self.last = {"results": []}  # no experiments.runner trial here
        counters = {
            "events": result.events,
            "evaluations": sim.evaluations,
            **_cache_counters(sim.scheduler, check, self.name),
            "trace_bytes": path.stat().st_size,
            "trace_records": writer.seq,
            "events_compared": diff.events_compared,
        }
        path.unlink()
        return counters


class CountingTrace:
    """Registry scenario ``counting-line`` run, recorded, replayed, diffed."""

    name = "counting-trace"
    scenario = "counting-line"
    default_seed = 3

    def __init__(self, tmp: Path, small: bool = False) -> None:
        self.tmp = tmp
        self.params = {"n": 16 if small else 32}
        self.meta: Dict[str, object] = {}
        #: Filled by :meth:`rep` for the layer metrics of the traced run.
        self.last: Dict[str, object] = {}

    def rep(self, seed: int, phase: Phase, check: Check, traced: bool = False) -> Dict[str, int]:
        with phase("setup"):
            spec = ExperimentSpec(self.scenario, self.params, seed=seed).resolved()
        sims: List[Simulation] = []
        observe = sims.append
        add_simulation_observer(observe)
        try:
            with phase("run"):
                result = run_experiment(spec)
        finally:
            remove_simulation_observer(observe)
        path = self.tmp / f"{self.name}-{seed}.trace"
        with phase("record"):
            recorded, writer = record_scenario(
                self.scenario, self.params, seed=seed, path=path
            )
        check(len(sims) == 1, "counting-trace: expected one Simulation")
        sim = sims[0]
        digest = world_digest(sim.world)
        for _ in range(VERB_REPEATS):
            with phase("replay"):
                replayed = replay_trace(path, verify=True, use_checkpoints=False)
            with phase("diff"):
                diff = diff_traces(path, path)
            _trace_checks(check, self.name, replayed, diff, result.events, digest)

        check(result.metrics.get("success") is True, "counting-trace: count failed")
        check(recorded.comparable() == result.comparable(), "counting-trace: recorded run differs")
        self.meta = {"exact": sim.protocol.program.exact, "store": _store_kind(sim.protocol)}
        self.last = {"results": [result]}
        counters = {
            "events": result.events,
            "evaluations": sim.evaluations,
            **_cache_counters(sim.scheduler, check, self.name),
            "trace_bytes": path.stat().st_size,
            "trace_records": writer.seq,
            "events_compared": diff.events_compared,
        }
        path.unlink()
        return counters


class ServiceSweep:
    """``faulty-line`` sweep through the sweep service, cold then warm."""

    name = "service-sweep"
    scenario = "faulty-line"
    default_seed = 7
    #: Every ``record_every``-th trial is also recorded, replayed and diffed.
    record_every = 4

    def __init__(self, tmp: Path, small: bool = False) -> None:
        self.tmp = tmp
        self.grid = {"n": [16, 24]}
        self.trials = 4 if small else 32
        self.meta: Dict[str, object] = {}
        #: Filled by :meth:`rep` for the layer metrics of the traced run.
        self.last: Dict[str, object] = {}

    def rep(self, seed: int, phase: Phase, check: Check, traced: bool = False) -> Dict[str, int]:
        root = self.tmp / f"{self.name}-{seed}"
        sweep = SweepSpec(self.scenario, grid=self.grid, trials=self.trials, base_seed=seed)
        stream: List[dict] = []
        with phase("setup"):
            store = TrialStore(root / "trials")
            _, thread = serve_in_thread(root / "service", workers=1, store=store)
            client = ServiceClient(root / "service", timeout=120)
        try:
            with phase("run"):
                cold = client.submit(sweep, workers=1, wait=True, on_event=stream.append)
            with phase("warm"):
                warm = client.submit(sweep, workers=1, wait=True, on_event=stream.append)
            cold_results = client.fetch_results(cold["id"])
            warm_results = client.fetch_results(warm["id"])
        finally:
            client.shutdown()
            thread.join(timeout=60)
        check(not thread.is_alive(), "service-sweep: service did not stop")

        total = len(cold_results)
        check(cold["misses"] == total and cold["hits"] == 0, "service-sweep: cold pass not cold")
        check(warm["hits"] == total and warm["misses"] == 0, "service-sweep: warm pass not all hits")
        check(
            [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold_results],
            "service-sweep: warm results differ from cold",
        )
        check(store.rejected == 0, "service-sweep: store rejected a record")

        specs = list(sweep.specs())
        picked = list(range(0, total, self.record_every))
        paths = [root / f"trial-{i}.trace" for i in picked]
        sims: List[Simulation] = []
        observe = sims.append
        add_simulation_observer(observe)
        try:
            with phase("record"):
                recorded = [
                    record_scenario(self.scenario, specs[i].params, seed=specs[i].seed, path=p)
                    for i, p in zip(picked, paths)
                ]
        finally:
            remove_simulation_observer(observe)
        for i, (result, _) in zip(picked, recorded):
            check(
                result.comparable() == cold_results[i].comparable(),
                f"service-sweep: recorded trial {i} differs",
            )
        # Each trial's diff takes about a millisecond, so the diff sample of
        # a session is the sum of each trial's fastest diff over the repeats.
        fastest = [float("inf")] * len(paths)
        for _ in range(VERB_REPEATS):
            with phase("replay"):
                replays = [replay_trace(p, verify=True, use_checkpoints=False) for p in paths]
            diffs = []
            for j, p in enumerate(paths):
                start = time.perf_counter()
                diffs.append(diff_traces(p, p))
                fastest[j] = min(fastest[j], time.perf_counter() - start)
            for i, (_, writer), replayed, diff in zip(picked, recorded, replays, diffs):
                _trace_checks(check, f"service-sweep trial {i}", replayed, diff, writer.events, None)
        phase.add("diff", sum(fastest))
        if traced:
            # The pool's trials are invisible to an in-process tracer, so
            # the traced run also runs them here for the core-layer spans.
            with phase("trials"):
                local = [run_experiment(spec) for spec in specs]
            check(
                [r.comparable() for r in local] == [r.comparable() for r in cold_results],
                "service-sweep: in-process trials differ from the service's",
            )

        self.meta = {"exact": sims[0].protocol.program.exact, "store": _store_kind(sims[0].protocol)}
        self.last = {
            "results": cold_results,
            "stream_events": len(stream),
            "store_bytes": sum(f.stat().st_size for f in (root / "trials").rglob("*.json")),
        }
        counters = {
            "events": sum(r.events for r in cold_results),
            "store_hits": store.hits,
            "store_misses": store.misses,
            "store_rejected": store.rejected,
            "trace_bytes": sum(p.stat().st_size for p in paths),
            "trace_records": sum(writer.seq for _, writer in recorded),
            "events_compared": sum(d.events_compared for d in diffs),
        }
        shutil.rmtree(root)
        return counters


WORKLOADS = {
    cls.name: cls for cls in (Aggregation, CountingTrace, ServiceSweep)
}
