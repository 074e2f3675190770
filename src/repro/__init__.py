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
"""

from repro.errors import (
    CollisionError,
    GeometryError,
    InvalidShapeError,
    MachineError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SimulationError,
    TerminationError,
)
from repro.geometry import (
    Port,
    Rotation,
    Shape,
    Vec,
    bounding_rect,
    enclosing_square,
    zigzag_cell_to_index,
    zigzag_index_to_cell,
)
from repro.core import (
    AgentProtocol,
    Candidate,
    EnumeratingScheduler,
    HotScheduler,
    Protocol,
    RejectionScheduler,
    Rule,
    RuleProtocol,
    RunResult,
    Simulation,
    StopReason,
    World,
    format_protocol,
    lint_protocol,
    make_scheduler,
    world_from_dict,
    world_to_dict,
)
from repro.protocols import (
    is_spanning_line_configuration,
    leaderless_spanning_line_protocol,
    line_replication_protocol,
    no_leader_line_replication_protocol,
    self_replicating_lines_protocol,
    simple_line_protocol,
    spanning_line_protocol,
    square2_protocol,
    square_protocol,
)
from repro.population import (
    CountingUpperBound,
    SimpleUIDCounting,
    UIDCounting,
    run_counting,
)
from repro.machines import (
    PatternProgram,
    PredicateShapeProgram,
    ShapeProgram,
    TMShapeProgram,
    TuringMachine,
    checkerboard_pattern_program,
    cross_program,
    diamond_program,
    expected_shape,
    frame_program,
    full_square_program,
    gradient_pattern_program,
    leader_square_root,
    line_program,
    ring_pattern_program,
    serpentine_program,
    sierpinski_pattern_program,
    star_program,
    stripes_program,
    successive_squares_sqrt,
)
from repro.constructors import (
    DistributedTMSquare,
    run_counting_on_a_line,
    run_cube_known_n,
    run_parallel_3d,
    run_parallel_segments,
    run_pattern_construction,
    run_shape_construction,
    run_square_known_n,
    run_universal,
)
from repro.replication import (
    replicate_by_columns,
    replicate_by_shifting,
    run_squaring,
)
from repro.faults import (
    FaultySimulation,
    break_random_bond,
    detach_part,
    repair_shape,
)
from repro.sync import (
    SynchronousProgram,
    TwoSpeedSimulation,
    broadcast_program,
    distance_wave_program,
    run_component_rounds,
)
from repro.hybrid import (
    HybridSimulation,
    MovementProtocol,
    MovementRule,
    rotate_leaf,
    walker_protocol,
)
from repro.viz import render_labels, render_layers, render_shape, render_world
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    Param,
    Scenario,
    SweepSpec,
    derive_seed,
    get_scenario,
    run_experiment,
    run_named,
    run_sweep,
    scenario_names,
)

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
