"""Protocol debugging workflow: inspect, trace, replay, snapshot.

A downstream user designing their own rule table gets four tools:

1. ``format_protocol`` — the table in the paper's notation;
2. ``lint_protocol`` — unreachable states and dead rules;
3. ``repro.trace`` — a ``repro.trace/v1`` record of every applied
   interaction (here kept in memory through ``TraceWriter``'s ``sink``),
   replayed and digest-verified by ``replay_trace`` (regression
   artifacts);
4. ``world_to_dict`` — full configuration snapshots.

    python examples/protocol_debugging.py
"""

import json

from repro import (
    Rule,
    RuleProtocol,
    Simulation,
    World,
    format_protocol,
    lint_protocol,
    world_to_dict,
)
from repro.geometry.ports import Port
from repro.trace import TraceReader, TraceWriter, recording, replay_trace


def main() -> None:
    # A deliberately sloppy protocol: the paper's simplified line rule,
    # plus a dead rule whose states can never arise.
    rules = [
        Rule("L", Port.RIGHT, "q0", Port.LEFT, 0, "q1", "L", 1),
        Rule("ghost", Port.UP, "phantom", Port.DOWN, 0, "q1", "q1", 1),
    ]
    protocol = RuleProtocol(
        rules, initial_state="q0", leader_state="L", name="sloppy-line"
    )

    print("--- the table, paper-style ---")
    print(format_protocol(protocol))

    print("\n--- lint ---")
    report = lint_protocol(protocol)
    for state in report.unreachable_states:
        print(f"unreachable state: {state!r}")
    for rule in report.dead_rules:
        print(f"dead rule: ({rule.state1}, ...) -> never fires")
    for note in report.notes:
        print(f"note: {note}")

    print("\n--- record a run, replay it, compare snapshots ---")
    world = World.of_free_nodes(6, protocol, leaders=1)
    records = []
    writer = TraceWriter(None, sink=records.append)
    with recording(writer):
        Simulation(world, protocol, seed=42).run()
    writer.finalize()
    trace_json = json.dumps(records)
    print(f"recorded {writer.events} events "
          f"({len(trace_json)} bytes of JSON)")

    result = replay_trace(
        TraceReader.from_records(json.loads(trace_json)), verify=True
    )
    result.world.check_invariants()
    identical = world_to_dict(result.world) == world_to_dict(world)
    print(f"replayed from the header snapshot: final digest verified = "
          f"{result.verified}, configurations identical = {identical}")


if __name__ == "__main__":
    main()
