"""The scenario registry: the one catalogue of runnable workloads.

Every experiment the repository can run — counting, universal shape and
pattern construction, 3D cubes, replication, repair, synchronous rounds —
registers here as a :class:`Scenario`: a name, a typed parameter schema
with defaults and choices, tags, determinism/scheduler capabilities, and a
thin adapter callable wrapping the underlying ``run_*`` entrypoint. The
CLI (``repro run`` / ``repro sweep`` / ``repro list`` / ``repro describe``),
the sweep runner, the benchmarks, and the generated ``EXPERIMENTS.md``
index are all derived from this catalogue; adding a workload means
registering one scenario, nothing else.

Adapters live next to the code they wrap (``repro.constructors.scenarios``,
``repro.population.scenarios``, ``repro.replication.scenarios``,
``repro.faults.scenarios``, ``repro.sync.scenarios``,
``repro.protocols.scenarios``) and are imported by
:func:`load_builtin_scenarios`. The execution engine underneath every
adapter is ``repro.core.simulator``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.simulator import StopReason
from repro.errors import ReproError

#: JSON-native metric values an adapter may report.
MetricValue = Any

#: Modules that register the built-in scenarios on import.
_BUILTIN_MODULES = (
    "repro.protocols.scenarios",
    "repro.population.scenarios",
    "repro.constructors.scenarios",
    "repro.replication.scenarios",
    "repro.faults.scenarios",
    "repro.sync.scenarios",
)

_PARAM_TYPES: Dict[str, type] = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class Param:
    """One declared scenario parameter.

    ``type`` is a name (``"int"`` / ``"float"`` / ``"str"``) rather than a
    Python type so the schema itself is JSON-representable; ``choices``
    restricts values, ``help`` feeds the generated CLI and EXPERIMENTS.md.
    """

    name: str
    type: str = "int"
    default: MetricValue = None
    choices: Optional[Tuple[MetricValue, ...]] = None
    minimum: Optional[MetricValue] = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.type not in _PARAM_TYPES:
            raise ReproError(
                f"param {self.name!r}: unknown type {self.type!r} "
                f"(expected one of {sorted(_PARAM_TYPES)})"
            )

    @property
    def pytype(self) -> type:
        return _PARAM_TYPES[self.type]

    def convert(self, raw: MetricValue) -> MetricValue:
        """Coerce ``raw`` to the declared type and validate choices."""
        try:
            value = self.pytype(raw)
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"param {self.name!r}: cannot convert {raw!r} to {self.type}"
            ) from exc
        if self.choices is not None and value not in self.choices:
            raise ReproError(
                f"param {self.name!r}: {value!r} not in choices "
                f"{tuple(self.choices)}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ReproError(
                f"param {self.name!r}: {value!r} is below the minimum "
                f"{self.minimum!r}"
            )
        return value


@dataclass
class ScenarioOutcome:
    """What a scenario adapter returns for one execution.

    Only ``metrics`` is mandatory; the counters mirror the fields of
    :class:`repro.core.simulator.RunResult` where the workload has them,
    and ``renders`` carries named ASCII renderings (the textual analogues
    of the paper's figures) for the CLI to print.
    """

    metrics: Dict[str, MetricValue]
    events: Optional[int] = None
    raw_steps: Optional[int] = None
    evaluations: Optional[int] = None
    stop_reason: Optional[StopReason] = None
    renders: Dict[str, str] = field(default_factory=dict)


#: Adapter signature: fully-resolved params, the trial seed, and the
#: scheduler kind (``None`` = scenario default) -> outcome.
ScenarioFn = Callable[[Mapping[str, MetricValue], Optional[int], Optional[str]], ScenarioOutcome]


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol a scenario executes, with its analysis context.

    ``factory`` is the zero-arg protocol constructor; ``extra_initial``
    names states present in the scenario's initial configuration beyond
    the protocol's own initial/leader states — e.g. the ``i``/``e`` nodes
    of a pre-built parent line in the replication scenarios. The static
    analyzer (``repro analyze``) seeds its reachability closure with them;
    ``repro describe`` ignores the extras and just compiles ``factory``.
    """

    factory: Callable[[], Any]
    extra_initial: Tuple[Any, ...] = ()


def protocol_specs(scenario: "Scenario") -> Tuple[ProtocolSpec, ...]:
    """The scenario's protocols, normalized to :class:`ProtocolSpec`.

    ``Scenario.protocols`` accepts bare zero-arg factories (the original,
    still-common form) or explicit specs; consumers should only ever see
    specs.
    """
    specs = []
    for entry in scenario.protocols:
        if isinstance(entry, ProtocolSpec):
            specs.append(entry)
        else:
            specs.append(ProtocolSpec(factory=entry))
    return tuple(specs)


@dataclass(frozen=True)
class Scenario:
    """A registered workload: schema + adapter.

    ``deterministic`` declares that the adapter consumes no randomness (the
    seed is still recorded in results for schema uniformity);
    ``schedulable`` that it accepts a scheduler kind from
    ``repro.core.scheduler.make_scheduler``. ``covers`` lists the qualified
    names of the public ``run_*`` entrypoints the adapter exercises — the
    registry-completeness test fails on any entrypoint no scenario covers.
    ``protocols`` names the protocol factories a scheduler-driven scenario
    executes — zero-arg callables returning a
    :class:`~repro.core.protocol.Protocol`, or :class:`ProtocolSpec`
    entries when the analyzer needs extra initial states; ``repro
    describe`` compiles them to report state count, rule count, and the
    hot-state set, and ``repro analyze`` runs the static analyzer over
    them (normalize with :func:`protocol_specs`).
    """

    name: str
    summary: str
    run: ScenarioFn
    params: Tuple[Param, ...] = ()
    tags: Tuple[str, ...] = ()
    deterministic: bool = False
    schedulable: bool = False
    covers: Tuple[str, ...] = ()
    protocols: Tuple[Any, ...] = ()  # factories and/or ProtocolSpec entries

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise ReproError(f"scenario {self.name!r} has no param {name!r}")

    def resolve(self, overrides: Optional[Mapping[str, MetricValue]] = None) -> Dict[str, MetricValue]:
        """Defaults merged with ``overrides``, converted and validated."""
        overrides = dict(overrides or {})
        resolved: Dict[str, MetricValue] = {}
        for p in self.params:
            if p.name in overrides:
                resolved[p.name] = p.convert(overrides.pop(p.name))
            else:
                resolved[p.name] = p.default
        if overrides:
            raise ReproError(
                f"scenario {self.name!r}: unknown params "
                f"{sorted(overrides)} (declared: {[p.name for p in self.params]})"
            )
        return resolved


_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the catalogue (idempotent re-registration of an
    identical name is an error: two workloads must not share a name)."""
    if scenario.name in _REGISTRY:
        raise ReproError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def scenario(**kwargs: Any) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator form: ``@scenario(name=..., summary=..., params=...)``."""

    def wrap(fn: ScenarioFn) -> ScenarioFn:
        register(Scenario(run=fn, **kwargs))
        return fn

    return wrap


def get_scenario(name: str) -> Scenario:
    load_builtin_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    load_builtin_scenarios()
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> Tuple[Scenario, ...]:
    load_builtin_scenarios()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def load_builtin_scenarios() -> None:
    """Import every built-in adapter module (idempotent).

    The first call imports the adapters and the packages they wrap, which
    costs tens of milliseconds in a fresh interpreter; later calls cost a
    ``sys.modules`` lookup per adapter module."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
