"""repro.experiments — the declarative experiment layer.

One composable front door for every workload the library can run:

* :mod:`repro.experiments.registry` — the :class:`Scenario` catalogue
  (name, typed param schema, tags, capabilities, adapter callable);
* :mod:`repro.experiments.spec` — declarative :class:`ExperimentSpec` /
  :class:`SweepSpec` and the deterministic :func:`derive_seed` rule;
* :mod:`repro.experiments.result` — the uniform :class:`ExperimentResult`
  record with lossless JSON round-trip;
* :mod:`repro.experiments.runner` — :func:`run_experiment` and the
  process-parallel, bit-reproducible :func:`run_sweep` (with the
  ``cache=`` trial-store seam);
* :mod:`repro.experiments.store` — the content-addressed trial store:
  results keyed by the SHA-256 trial identity, provenance-verified on
  load, shared by ``run_sweep(cache=...)`` and the sweep service;
* :mod:`repro.experiments.service` — the long-running sweep daemon
  (``repro serve``) with its persistent job queue and NDJSON-streaming
  clients (imported on demand, not re-exported here);
* :mod:`repro.experiments.io` — shared JSON writers/validators, the
  benchmark history appender, and the scenario index behind
  ``repro list`` and ``EXPERIMENTS.md``.

The adapters themselves live next to the code they wrap
(``repro.<package>.scenarios``); the first lookup (:func:`get_scenario`,
:func:`scenario_names`, :func:`all_scenarios`) registers all of them, so
importing this package loads no adapter. The execution engine underneath
is ``repro.core.simulator``.
"""

from repro.experiments.registry import (
    Param,
    Scenario,
    ScenarioOutcome,
    all_scenarios,
    get_scenario,
    load_builtin_scenarios,
    register,
    scenario,
    scenario_names,
)
from repro.experiments.result import (
    RESULT_SCHEMA,
    ExperimentResult,
    validate_result_dict,
)
from repro.experiments.spec import ExperimentSpec, SweepSpec, derive_seed
from repro.experiments.runner import run_experiment, run_named, run_sweep
from repro.experiments.store import (
    TRIAL_SCHEMA,
    TrialStore,
    default_cache_root,
    spec_key,
    trial_key,
)
from repro.experiments.io import (
    HISTORY_SCHEMA,
    RESULTS_SCHEMA,
    append_history,
    describe_scenario,
    format_scenario_list,
    results_payload,
    validate_payload,
    write_bench_json,
    write_results_json,
)

__all__ = [
    "Param",
    "Scenario",
    "ScenarioOutcome",
    "ExperimentSpec",
    "SweepSpec",
    "ExperimentResult",
    "RESULT_SCHEMA",
    "RESULTS_SCHEMA",
    "TRIAL_SCHEMA",
    "HISTORY_SCHEMA",
    "TrialStore",
    "trial_key",
    "spec_key",
    "default_cache_root",
    "append_history",
    "register",
    "scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "load_builtin_scenarios",
    "derive_seed",
    "run_experiment",
    "run_named",
    "run_sweep",
    "results_payload",
    "write_results_json",
    "write_bench_json",
    "validate_payload",
    "validate_result_dict",
    "format_scenario_list",
    "describe_scenario",
]
