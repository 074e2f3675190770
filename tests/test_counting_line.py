"""Counting-on-a-Line (§6.1, Lemma 1) under the real scheduler."""

import pytest

from repro.constructors.counting_line import (
    counting_line_world,
    decode_counters,
    run_counting_on_a_line,
)
from repro.core.scheduler import EnumeratingScheduler, RejectionScheduler
from repro.core.simulator import Simulation
from repro.errors import SimulationError
from repro.experiments import ExperimentSpec, run_experiment


@pytest.mark.parametrize("n,b", [(10, 3), (24, 4), (48, 4)])
def test_halts_and_counts_at_least_half(n, b):
    for seed in range(3):
        res = run_counting_on_a_line(n, b, seed=seed)
        assert res.halted
        assert res.success, f"r0={res.r0} < n/2 for n={n}"
        assert res.r0 <= n - 1


@pytest.mark.parametrize("n", [12, 30, 60])
def test_line_length_is_lg_r0_plus_one(n):
    res = run_counting_on_a_line(n, 4, seed=n)
    assert res.line_length == res.expected_length


def test_counters_consistent_and_debt_repaid():
    res = run_counting_on_a_line(40, 4, seed=5)
    assert res.r0 == res.r1  # the halting condition
    assert res.r2 == 0  # the debt was fully repaid before halting


def test_exact_mode_counts_everyone():
    for n in (15, 35):
        res = run_counting_on_a_line(n, 3, seed=n, exact_factor=3)
        assert res.r0 == n - 1


def test_small_population_rejected():
    with pytest.raises(SimulationError):
        counting_line_world(4, b=4)


def test_runs_under_reference_schedulers():
    """The agent protocol is scheduler-agnostic: the enumerating and the
    rejection schedulers execute it too (small n; they are slow)."""
    for scheduler in (EnumeratingScheduler(), RejectionScheduler()):
        res = run_counting_on_a_line(8, 3, seed=1, scheduler=scheduler)
        assert res.halted and res.success


def test_world_invariants_hold_throughout():
    world, protocol = counting_line_world(12, 3)
    sim = Simulation(world, protocol, seed=3, check_invariants=True)
    sim.run(
        max_events=100_000,
        until=lambda w: any(
            isinstance(s, tuple) and s[0] == "L" and s[1] == "halt"
            for s in w.states().values()
        ),
        require_stop=True,
    )
    r0, r1, r2, length = decode_counters(world)
    assert r0 == r1 and r2 == 0
    # The line is a straight horizontal chain.
    leader_comp = max(world.components.values(), key=lambda c: c.size())
    assert leader_comp.size() == length
    ys = {c.y for c in leader_comp.cells}
    assert len(ys) == 1


def test_tape_stores_r0_in_binary():
    res = run_counting_on_a_line(30, 4, seed=9)
    # decode_counters already read the binary tape; its consistency with
    # the result object is the assertion.
    assert res.r0.bit_length() == res.line_length


def test_registry_run_reports_pinned_events_and_evaluations():
    # The handler-lowered program's seeded trajectory and evaluation count
    # on the candidate cache, as the benchmark's counting-trace pins them.
    result = run_experiment(ExperimentSpec("counting-line", {"n": 32}, seed=3))
    assert result.events == 522
    assert result.evaluations == 64_472
