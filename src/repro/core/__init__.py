"""Core execution model: protocols, configurations, schedulers, simulator.

Implements the model of §3: a population of ``n`` finite automata with
ports, an adversary/uniform-random scheduler selecting permissible pairs of
node-ports, and shape configurations evolving through interactions.

Importing ``repro.core`` imports none of its modules: each name in
``__all__`` resolves on first use, importing only the module that owns
it, so ``from repro.core import World`` loads neither the candidate layer
nor numpy.
"""

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(
    __name__,
    globals(),
    {
        "repro.core.program": (
            "CompiledProgram", "MemoProgram", "StateSpace", "TransitionTable",
            "compile_rules",
        ),
        "repro.core.protocol": (
            "AgentProtocol", "InteractionView", "Protocol", "Rule",
            "RuleProtocol", "Update",
        ),
        "repro.core.world": ("Candidate", "Component", "NodeRecord", "World"),
        "repro.core.candidates": (
            "EffectiveCandidateCache", "candidate_sort_key",
            "hot_effective_candidates", "reference_effective_candidates",
        ),
        "repro.core.sampling": ("geometric_skip",),
        "repro.core.scheduler": (
            "EnumeratingScheduler", "HotScheduler", "RejectionScheduler",
            "RoundRobinScheduler", "Scheduler", "make_scheduler",
        ),
        "repro.core.simulator": ("RunResult", "Simulation", "StopReason"),
        "repro.core.inspect": (
            "LintReport", "assert_well_formed", "format_protocol",
            "format_rule", "lint_protocol", "reachable_states", "state_graph",
        ),
        "repro.core.trace": ("world_from_dict", "world_to_dict"),
    },
)
