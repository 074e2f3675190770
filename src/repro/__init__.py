"""repro — full reproduction of Michail (2015), "Terminating Distributed
Construction of Shapes and Patterns in a Fair Solution of Automata".

The library implements the paper's geometric network-constructor model
(finite automata with 4/6 ports floating in a well-mixed solution), the
basic stabilizing constructors of §4, the terminating probabilistic
counting suite of §5, the universal shape/pattern constructors of §6, and
the shape self-replication of §7, together with every substrate they rely
on (grid geometry, rotation groups, schedulers, population protocols,
Turing machines, random-walk analysis).

Quickstart::

    from repro import spanning_line_protocol, World, Simulation
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(10, protocol, leaders=1)
    Simulation(world, protocol, seed=0).run_to_stabilization()

See EXPERIMENTS.md for the generated index of registered scenarios —
every workload is also runnable declaratively through
``repro.experiments`` (``run_named("counting", n=64, seed=0)``) or the
``repro run`` / ``repro sweep`` CLI.

Importing ``repro`` imports none of its subpackages: each name in
``__all__`` resolves on first use, importing only the subpackage that
owns it, and ``repro.<subpackage>`` imports that subpackage.
"""

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "GeometryError", "InvalidShapeError", "ProtocolError",
    "SchedulerError", "SimulationError", "CollisionError", "TerminationError",
    "MachineError",
    # geometry
    "Vec", "Rotation", "Port", "Shape", "bounding_rect", "enclosing_square",
    "zigzag_index_to_cell", "zigzag_cell_to_index",
    # core
    "Protocol", "RuleProtocol", "AgentProtocol", "Rule", "World", "Candidate",
    "Simulation", "RunResult", "StopReason", "HotScheduler",
    "EnumeratingScheduler", "RejectionScheduler", "make_scheduler",
    # experiments (declarative scenario registry, sweeps, uniform results)
    "Param", "Scenario", "ExperimentSpec", "SweepSpec", "ExperimentResult",
    "derive_seed", "get_scenario", "scenario_names", "run_experiment",
    "run_named", "run_sweep",
    # tooling: introspection, snapshots
    "format_protocol", "lint_protocol", "world_to_dict", "world_from_dict",
    # protocols
    "spanning_line_protocol", "simple_line_protocol", "square_protocol",
    "square2_protocol", "line_replication_protocol",
    "no_leader_line_replication_protocol", "self_replicating_lines_protocol",
    "leaderless_spanning_line_protocol", "is_spanning_line_configuration",
    # population
    "CountingUpperBound", "run_counting", "SimpleUIDCounting", "UIDCounting",
    # machines
    "TuringMachine", "ShapeProgram", "TMShapeProgram",
    "PredicateShapeProgram", "PatternProgram", "line_program",
    "full_square_program", "cross_program", "star_program", "frame_program",
    "ring_pattern_program", "expected_shape", "serpentine_program",
    "diamond_program", "stripes_program", "checkerboard_pattern_program",
    "sierpinski_pattern_program", "gradient_pattern_program",
    "successive_squares_sqrt", "leader_square_root",
    # constructors
    "run_counting_on_a_line", "run_square_known_n", "run_cube_known_n",
    "DistributedTMSquare",
    "run_shape_construction", "run_pattern_construction", "run_parallel_3d",
    "run_parallel_segments", "run_universal",
    # replication
    "run_squaring", "replicate_by_shifting", "replicate_by_columns",
    # faults (§8 robustness)
    "FaultySimulation", "break_random_bond", "detach_part", "repair_shape",
    # sync (§8 two-speed model)
    "SynchronousProgram", "TwoSpeedSimulation", "broadcast_program",
    "distance_wave_program", "run_component_rounds",
    # hybrid (§8 active/passive mobility)
    "MovementRule", "MovementProtocol", "HybridSimulation", "rotate_leaf",
    "walker_protocol",
    # viz
    "render_shape", "render_labels", "render_world", "render_layers",
]


def _lazy_exports(
    package: str, namespace: Dict[str, Any], owners: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``(__getattr__, __dir__)`` pair of a lazy package.

    ``owners`` maps each owning module to the names it provides and
    ``namespace`` is the package's ``globals()``. A name is imported from
    its owner on first access and cached in ``namespace``, so later
    accesses no longer reach ``__getattr__``. Any other attribute is taken
    to name a submodule, which is imported; if there is none, the lookup
    raises :class:`AttributeError`. ``repro.core`` and ``repro.trace`` are
    built the same way.
    """
    owner_of = {name: module for module, names in owners.items() for name in names}

    def load(module: str) -> Any:
        # The ``import`` statement's own path, not importlib.import_module,
        # so that ``python -X importtime`` reports these imports too.
        __import__(module)
        return sys.modules[module]

    def __getattr__(name: str) -> Any:
        owner = owner_of.get(name)
        if owner is not None:
            value = getattr(load(owner), name)
            namespace[name] = value
            return value
        submodule = f"{package}.{name}"
        try:
            return load(submodule)
        except ModuleNotFoundError as exc:
            if exc.name != submodule:
                raise  # the submodule exists but one of its imports does not
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner_of))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    globals(),
    {
        "repro.errors": (
            "CollisionError", "GeometryError", "InvalidShapeError",
            "MachineError", "ProtocolError", "ReproError", "SchedulerError",
            "SimulationError", "TerminationError",
        ),
        "repro.geometry": (
            "Port", "Rotation", "Shape", "Vec", "bounding_rect",
            "enclosing_square", "zigzag_cell_to_index", "zigzag_index_to_cell",
        ),
        "repro.core": (
            "AgentProtocol", "Candidate", "EnumeratingScheduler",
            "HotScheduler", "Protocol", "RejectionScheduler", "Rule",
            "RuleProtocol", "RunResult", "Simulation", "StopReason", "World",
            "format_protocol", "lint_protocol", "make_scheduler",
            "world_from_dict", "world_to_dict",
        ),
        "repro.protocols": (
            "is_spanning_line_configuration",
            "leaderless_spanning_line_protocol", "line_replication_protocol",
            "no_leader_line_replication_protocol",
            "self_replicating_lines_protocol", "simple_line_protocol",
            "spanning_line_protocol", "square2_protocol", "square_protocol",
        ),
        "repro.population": (
            "CountingUpperBound", "SimpleUIDCounting", "UIDCounting",
            "run_counting",
        ),
        "repro.machines": (
            "PatternProgram", "PredicateShapeProgram", "ShapeProgram",
            "TMShapeProgram", "TuringMachine", "checkerboard_pattern_program",
            "cross_program", "diamond_program", "expected_shape",
            "frame_program", "full_square_program", "gradient_pattern_program",
            "leader_square_root", "line_program", "ring_pattern_program",
            "serpentine_program", "sierpinski_pattern_program", "star_program",
            "stripes_program", "successive_squares_sqrt",
        ),
        "repro.constructors": (
            "DistributedTMSquare", "run_counting_on_a_line", "run_cube_known_n",
            "run_parallel_3d", "run_parallel_segments",
            "run_pattern_construction", "run_shape_construction",
            "run_square_known_n", "run_universal",
        ),
        "repro.replication": (
            "replicate_by_columns", "replicate_by_shifting", "run_squaring",
        ),
        "repro.faults": (
            "FaultySimulation", "break_random_bond", "detach_part",
            "repair_shape",
        ),
        "repro.sync": (
            "SynchronousProgram", "TwoSpeedSimulation", "broadcast_program",
            "distance_wave_program", "run_component_rounds",
        ),
        "repro.hybrid": (
            "HybridSimulation", "MovementProtocol", "MovementRule",
            "rotate_leaf", "walker_protocol",
        ),
        "repro.viz": (
            "render_labels", "render_layers", "render_shape", "render_world",
        ),
        "repro.experiments": (
            "ExperimentResult", "ExperimentSpec", "Param", "Scenario",
            "SweepSpec", "derive_seed", "get_scenario", "run_experiment",
            "run_named", "run_sweep", "scenario_names",
        ),
    },
)
