"""Seeded runs must be reproducible across interpreter processes.

Set/dict iteration order depends on hash randomization (strings) and enum
identity hashes (vary with allocation addresses); any leak of that order
into RNG-indexed choices makes "seeded" runs non-reproducible — a bug this
library hit and fixed (see ``bond_sort_key`` and the hot-cover sort). These
tests pin the fix by running the same seeded executions in subprocesses
with different ``PYTHONHASHSEED`` values and comparing full traces.
"""

import json
import os
import subprocess
import sys

import pytest

_SCRIPT = r"""
import json
from repro.core.simulator import Simulation
from repro.core.trace import world_to_dict
from repro.core.world import World
from repro.trace.encoding import event_record

def recorder():
    events = []
    def hook(index, cand, update, _world):
        events.append(event_record(index, cand, update))
    return hook, events

def run_line():
    from repro.protocols.line import spanning_line_protocol
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(9, protocol, leaders=1)
    hook, events = recorder()
    Simulation(world, protocol, seed=5, trace=hook).run_to_stabilization()
    return events, world_to_dict(world)

def run_protocol5():
    from repro.protocols.replication import (
        no_leader_line_replication_protocol, replication_world)
    protocol = no_leader_line_replication_protocol()
    world = replication_world(4, free_nodes=8, leader_left="e")
    hook, events = recorder()
    Simulation(world, protocol, seed=11, trace=hook).run(max_events=500)
    return events, world_to_dict(world)

def run_faulty():
    from repro.faults.injection import FaultySimulation
    from repro.protocols.line import spanning_line_protocol
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(8, protocol, leaders=1)
    sim = FaultySimulation(world, protocol, break_prob=0.4, seed=3,
                           max_bonds_broken=5)
    sim.run(max_steps=2000)
    return [str(b.bond and sorted((n, p.value) for n, p in b.bond))
            for b in sim.breakages], world_to_dict(world)

def run_hybrid():
    from repro.hybrid.movement import HybridSimulation, make_walker_world, walker_protocol
    world, _m, _p = make_walker_world()
    sim = HybridSimulation(world, walker_protocol(), seed=7)
    for _ in range(30):
        sim.step()
    return [], world_to_dict(world)

out = {}
for name, fn in (("line", run_line), ("p5", run_protocol5),
                 ("faulty", run_faulty), ("hybrid", run_hybrid)):
    trace, snapshot = fn()
    out[name] = {"trace": trace, "snapshot": snapshot}
print(json.dumps(out, sort_keys=True, default=str))
"""


def _run_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("other", ["1", "31337"])
def test_trajectories_identical_across_hash_seeds(other):
    base = _run_with_hash_seed("0")
    alt = _run_with_hash_seed(other)
    for name in base:
        assert base[name] == alt[name], f"{name} diverged under PYTHONHASHSEED"
