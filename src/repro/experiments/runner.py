"""Execution: one spec, or a parallel seed-sweep fan-out.

:func:`run_experiment` executes a single :class:`ExperimentSpec` through
its registered scenario adapter and wraps the outcome into the uniform
:class:`ExperimentResult`. :func:`run_sweep` expands a :class:`SweepSpec`
and executes every trial, either inline (``workers <= 1``) or fanned out
over a ``ProcessPoolExecutor``. Because each trial's seed is derived
declaratively (``repro.experiments.spec.derive_seed``) and trials share no
state, the result list is **bit-identical for any worker count** — results
come back in expansion order, and only ``wall_time`` may differ between a
serial and a parallel run.

``run_sweep(cache=...)`` threads the content-addressed trial store
(:mod:`repro.experiments.store`) through the same seam: cached trials are
served from disk (provenance-verified on load, zero RNG consumed, the
scenario adapter never runs) and only the misses reach the pool, which is
sized to the miss count. The long-running sweep service
(:mod:`repro.experiments.service`) reuses both this worker function and
the store, so daemon and in-process sweeps share one cache.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.experiments.registry import get_scenario
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import ExperimentSpec, SweepSpec
from repro.experiments.store import TrialStore, resolve_store


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one trial and return the uniform result record."""
    spec = spec.resolved()
    scn = get_scenario(spec.scenario)
    # wall_time is a reported measurement, not a result input: the trial
    # outcome is fully determined by (scenario, params, seed, scheduler).
    start = time.perf_counter()  # lint: allow-wallclock
    outcome = scn.run(spec.params, spec.seed, spec.scheduler)
    wall = time.perf_counter() - start  # lint: allow-wallclock
    return ExperimentResult(
        scenario=spec.scenario,
        params=dict(spec.params),
        seed=spec.seed,
        scheduler=spec.scheduler,
        events=outcome.events,
        raw_steps=outcome.raw_steps,
        evaluations=outcome.evaluations,
        stop_reason=outcome.stop_reason,
        wall_time=wall,
        metrics=dict(outcome.metrics),
        renders=dict(outcome.renders),
    )


def _sweep_worker(payload: Dict) -> Dict:
    """Top-level (picklable) worker: spec dict in, result dict out.

    Serialized dicts cross the process boundary instead of live objects so
    a ``spawn``-start pool (macOS/Windows default) works exactly like
    ``fork``: a spawned child registers the built-in scenarios on its first
    lookup, while a forked one inherits the catalogue that resolving the
    specs loaded in the parent.
    """
    spec = ExperimentSpec(
        scenario=payload["scenario"],
        params=payload["params"],
        seed=payload["seed"],
        scheduler=payload["scheduler"],
    )
    return run_experiment(spec).to_dict()


def spec_payload(spec: ExperimentSpec) -> Dict:
    """The picklable dict form of a resolved spec (pool boundary shape)."""
    return {
        "scenario": spec.scenario,
        "params": dict(spec.params),
        "seed": spec.seed,
        "scheduler": spec.scheduler,
    }


def _run_specs(specs: List[ExperimentSpec], workers: int) -> List[ExperimentResult]:
    """Execute ``specs`` in order, inline or over a capped process pool.

    The pool is never wider than the work: ``max_workers`` is capped at
    ``len(specs)`` so a small sweep (or the uncached remainder of a
    mostly-cached one) does not spawn idle worker processes.
    """
    if not specs:
        return []
    if workers <= 1 or len(specs) == 1:
        return [run_experiment(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        # map() preserves submission order regardless of completion order.
        dicts = list(pool.map(_sweep_worker, [spec_payload(s) for s in specs]))
    return [ExperimentResult.from_dict(d) for d in dicts]


def run_sweep(
    sweep: SweepSpec,
    workers: int = 1,
    cache: Union[None, bool, str, Path, TrialStore] = None,
) -> List[ExperimentResult]:
    """Execute every trial of ``sweep``; results in expansion order.

    ``workers <= 1`` runs inline (no pool, easiest to debug); larger
    values fan trials out over that many processes (capped at the trial
    count). Either way the returned results — seeds, counters, metrics,
    renders — are identical; only wall times differ.

    ``cache`` enables the content-addressed trial store (``True`` for the
    default root, a path, or a :class:`TrialStore` — pass the instance to
    read its hit/miss counters afterwards). Cached trials are served from
    disk after provenance verification and consume no RNG; only misses
    run, and each freshly computed result is stored before returning. The
    result list is bit-identical to an uncached run for any worker count
    — a cache hit returns the original record verbatim, ``wall_time``
    included.
    """
    specs = [spec.resolved() for spec in sweep.specs()]
    if not specs:
        raise ReproError("sweep expanded to zero trials")
    store = resolve_store(cache)
    if store is None:
        return _run_specs(specs, workers)
    results: List[Optional[ExperimentResult]] = [store.get(spec) for spec in specs]
    miss = [i for i, r in enumerate(results) if r is None]
    for i, result in zip(miss, _run_specs([specs[i] for i in miss], workers)):
        store.put(specs[i], result)
        results[i] = result
    return results  # type: ignore[return-value]  # every slot is filled


def run_named(
    scenario: str,
    seed: Optional[int] = None,
    scheduler: Optional[str] = None,
    **params,
) -> ExperimentResult:
    """Keyword-argument convenience: ``run_named("counting", n=64)``."""
    return run_experiment(
        ExperimentSpec(scenario=scenario, params=params, seed=seed, scheduler=scheduler)
    )
