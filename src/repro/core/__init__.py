"""Core execution model: protocols, configurations, schedulers, simulator.

Implements the model of §3: a population of ``n`` finite automata with
ports, an adversary/uniform-random scheduler selecting permissible pairs of
node-ports, and shape configurations evolving through interactions.
"""

from repro.core.program import (
    CompiledProgram,
    MemoProgram,
    StateSpace,
    TransitionTable,
    compile_rules,
)
from repro.core.protocol import (
    AgentProtocol,
    InteractionView,
    Protocol,
    Rule,
    RuleProtocol,
    Update,
)
from repro.core.world import Candidate, Component, NodeRecord, World
from repro.core.candidates import (
    EffectiveCandidateCache,
    candidate_sort_key,
    hot_effective_candidates,
    reference_effective_candidates,
)
from repro.core.sampling import geometric_skip
from repro.core.scheduler import (
    EnumeratingScheduler,
    HotScheduler,
    RejectionScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
)
from repro.core.simulator import RunResult, Simulation, StopReason
from repro.core.inspect import (
    LintReport,
    assert_well_formed,
    format_protocol,
    format_rule,
    lint_protocol,
    reachable_states,
    state_graph,
)
from repro.core.trace import world_from_dict, world_to_dict

__all__ = [
    "Protocol",
    "RuleProtocol",
    "AgentProtocol",
    "Rule",
    "Update",
    "InteractionView",
    # compiled IR
    "CompiledProgram",
    "MemoProgram",
    "StateSpace",
    "TransitionTable",
    "compile_rules",
    "World",
    "Component",
    "NodeRecord",
    "Candidate",
    "Scheduler",
    "EnumeratingScheduler",
    "RejectionScheduler",
    "HotScheduler",
    "RoundRobinScheduler",
    "make_scheduler",
    # candidate layer
    "EffectiveCandidateCache",
    "candidate_sort_key",
    "hot_effective_candidates",
    "reference_effective_candidates",
    "geometric_skip",
    "Simulation",
    "RunResult",
    "StopReason",
    # introspection
    "format_rule",
    "format_protocol",
    "reachable_states",
    "lint_protocol",
    "LintReport",
    "assert_well_formed",
    "state_graph",
    # snapshots
    "world_to_dict",
    "world_from_dict",
]
