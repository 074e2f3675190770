"""Command-line interface: ``python -m repro <command>``.

Rebuilt on the scenario registry (``repro.experiments``): the generic
commands are *generated* from the registered scenarios —

* ``list`` / ``describe`` — browse the scenario catalogue (``--format md``
  regenerates ``EXPERIMENTS.md``);
* ``run <scenario>`` — execute one declarative spec; every scenario gets
  ``--seed`` and ``--json`` (plus ``--scheduler`` where the workload is
  scheduler-driven; deterministic scenarios record that in their spec);
* ``sweep <scenario>`` — a grid over comma-separated param values ×
  ``--seeds`` trials, fanned out over ``--workers`` processes with
  deterministic per-trial seed derivation (bit-identical results for any
  worker count);
* ``validate`` — check emitted JSON (and NDJSON streaming traces)
  against the known schemas;
* ``record <scenario>`` — run one spec under the streaming trace writer
  (``repro.trace/v1``: header snapshot, delta-encoded events, periodic
  checkpoints, digest hash chain);
* ``replay <trace>`` — reconstruct any intermediate world bit-exactly
  (``--to-event N`` seeks from the nearest checkpoint anchor;
  ``--verify`` replays from the header and recomputes every digest);
* ``diff <a> [<b> | --live]`` — stream two traces in lockstep and report
  the first diverging event (``repro.trace.diff/v1``: classification,
  both records, decoded neighborhood); ``--live`` re-simulates side b
  from a's header identity;
* ``goldens record|check|list`` — the committed golden-trace regression
  set under ``tests/goldens/`` (replay bit-exactly + diff against a
  fresh run of the current code).

The sweep-service commands share the same declarative sweep form:
``serve`` runs the long-running daemon (persistent FIFO job queue,
content-addressed trial cache, process-pool fan-out), ``submit`` queues a
sweep (``--wait`` streams NDJSON progress; ``--trace`` additionally
streams per-event ``repro.trace/v1`` records, rendered live with
``--render``), ``status`` inspects the queue, and ``fetch`` retrieves a
finished job's results payload. The same
trial cache backs ``sweep --cache`` in-process, no daemon needed.

The historical subcommands (``demo``, ``count``, ``construct``,
``pattern``, ``cube``, ``replicate``, ``repair``) remain as aliases onto
the same registry and print byte-identical seeded output; ``inspect``
stays a plain introspection command. Results render as the ASCII analogues
of the paper's figures, or as schema-validated JSON with ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.inspect import format_protocol, lint_protocol
from repro.errors import ReproError
from repro.experiments import (
    ExperimentResult,
    ExperimentSpec,
    SweepSpec,
    all_scenarios,
    describe_scenario,
    format_scenario_list,
    get_scenario,
    run_experiment,
    run_sweep,
    scenario_names,
    validate_payload,
    write_results_json,
)
from repro.experiments.io import results_payload
from repro.experiments.store import TrialStore
from repro.machines.shape_programs import PATTERN_CATALOGUE, SHAPE_CATALOGUE
from repro.protocols.line import simple_line_protocol, spanning_line_protocol
from repro.protocols.replication import (
    line_replication_protocol,
    no_leader_line_replication_protocol,
    self_replicating_lines_protocol,
)
from repro.protocols.square import square_protocol
from repro.protocols.square2 import square2_protocol

#: Scheduler kinds selectable from the command line (see ``make_scheduler``).
SCHEDULERS = ("hot", "enumerate", "rejection", "round-robin")

#: The shape catalogue exposed by ``construct`` (shared with the registry).
SHAPES = SHAPE_CATALOGUE

#: The pattern catalogue exposed by ``pattern`` (shared with the registry).
PATTERNS = PATTERN_CATALOGUE

#: The rule-table protocols exposed by ``inspect``.
PROTOCOLS: Dict[str, Callable[[], object]] = {
    "line": spanning_line_protocol,
    "simple-line": simple_line_protocol,
    "square": square_protocol,
    "square2": square2_protocol,
    "protocol4": line_replication_protocol,
    "protocol5": no_leader_line_replication_protocol,
    "self-replicating": self_replicating_lines_protocol,
}


# ----------------------------------------------------------------------
# Shared emission helpers
# ----------------------------------------------------------------------


def _emit_result(
    result: ExperimentResult,
    json_target: Optional[str],
    human: Optional[Callable[[ExperimentResult], None]] = None,
) -> int:
    """Print ``result`` as JSON (``--json [PATH]``) or via ``human``."""
    if json_target is not None:
        if json_target == "-":
            print(result.to_json(indent=2))
        else:
            with open(json_target, "w") as fh:
                fh.write(result.to_json(indent=2) + "\n")
        return 0
    if human is not None:
        human(result)
    else:
        _print_generic(result)
    return 0


def _print_generic(result: ExperimentResult) -> None:
    params = ", ".join(f"{k}={v}" for k, v in result.params.items())
    print(f"scenario {result.scenario!r} ({params})")
    bits = []
    if result.seed is not None:
        bits.append(f"seed {result.seed}")
    if result.scheduler is not None:
        bits.append(f"scheduler {result.scheduler}")
    if result.stop_reason is not None:
        bits.append(f"stop {result.stop_reason}")
    if result.events is not None:
        bits.append(f"events {result.events}")
    if result.raw_steps is not None:
        bits.append(f"raw steps {result.raw_steps}")
    bits.append(f"wall {result.wall_time:.3f}s")
    print("  " + ", ".join(bits))
    for key, value in result.metrics.items():
        print(f"  {key}: {value}")
    for name, render in result.renders.items():
        print(f"--- {name} ---")
        print(render)


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the schema-validated result JSON (to PATH, or stdout)",
    )


def _add_uniform_flags(parser: argparse.ArgumentParser, scn) -> None:
    """The uniform per-scenario flags: --seed, --json, --scheduler."""
    seed_help = "trial seed"
    if scn.deterministic:
        seed_help += " (recorded; this scenario is deterministic)"
    parser.add_argument("--seed", type=int, default=None, help=seed_help)
    _add_json_flag(parser)
    if scn.schedulable:
        parser.add_argument(
            "--scheduler",
            choices=SCHEDULERS,
            default=None,
            help=(
                "uniform-scheduler implementation (all produce identical "
                "seeded trajectories) or the deterministic fair round-robin "
                "adversary"
            ),
        )


def _param_overrides(args: argparse.Namespace, scn) -> Dict[str, object]:
    overrides = {}
    for p in scn.params:
        value = getattr(args, f"param_{p.name}")
        if value is not None:
            overrides[p.name] = value
    return overrides


# ----------------------------------------------------------------------
# Generic registry commands
# ----------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    print(format_scenario_list(args.format), end="")
    if args.format == "text":
        print()
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    print(describe_scenario(get_scenario(args.scenario)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scn = get_scenario(args.scenario)
    spec = ExperimentSpec(
        scenario=scn.name,
        params=_param_overrides(args, scn),
        seed=args.seed,
        scheduler=getattr(args, "scheduler", None),
    )
    return _emit_result(run_experiment(spec), args.json)


def _sweep_from_args(args: argparse.Namespace, scn) -> SweepSpec:
    """The declarative sweep shared by ``sweep`` and ``submit``."""
    grid = {}
    for p in scn.params:
        raw = getattr(args, f"param_{p.name}")
        if raw is not None:
            grid[p.name] = [p.convert(tok) for tok in raw.split(",") if tok]
    return SweepSpec(
        scenario=scn.name,
        grid=grid,
        trials=args.seeds,
        base_seed=args.base_seed,
        scheduler=getattr(args, "scheduler", None),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    scn = get_scenario(args.scenario)
    sweep = _sweep_from_args(args, scn)
    store = None
    if args.cache or args.cache_dir is not None:
        store = TrialStore(args.cache_dir)
    results = run_sweep(sweep, workers=args.workers, cache=store)
    header = {
        "kind": "results",
        "sweep": {
            "scenario": scn.name,
            "grid": {k: list(v) for k, v in sweep.grid.items()},
            "trials": args.seeds,
            "base_seed": args.base_seed,
        },
    }
    if store is not None:
        header["cache"] = store.stats()
    if args.json is not None:
        if args.json == "-":
            print(json.dumps(results_payload(results, header), indent=2, sort_keys=True))
        else:
            write_results_json(args.json, results, header)
        return 0
    for result in results:
        params = ", ".join(f"{k}={v}" for k, v in result.params.items())
        numeric = ", ".join(
            f"{k}={v}"
            for k, v in result.metrics.items()
            if isinstance(v, (int, float))
        )
        print(f"[{result.scenario} {params} seed={result.seed}] {numeric}")
    print(f"{len(results)} trials")
    if store is not None:
        print(
            f"cache hits {store.hits}/{len(results)} "
            f"(misses {store.misses}, rejected {store.rejected})"
        )
    return 0


def _trace_validate(raw: bytes) -> Optional[List[str]]:
    """Validate ``raw`` as an NDJSON streaming trace, if it looks like one.

    Returns the error list (``[]`` = valid) when the first line is a
    ``repro.trace/v1`` header, ``None`` when the bytes are not a trace at
    all (so ``validate`` can report its generic JSON error instead).
    """
    from repro.trace.encoding import TRACE_SCHEMA
    from repro.trace.reader import validate_trace_bytes

    first = raw.split(b"\n", 1)[0]
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        return None
    if not isinstance(head, dict) or head.get("schema") != TRACE_SCHEMA:
        return None
    return validate_trace_bytes(raw)


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.paths:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"{path}: unreadable ({exc})")
            status = 1
            continue
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            # Not a single JSON document: streaming traces are NDJSON, so
            # dispatch on the first line's schema before giving up.
            errors = _trace_validate(raw)
            if errors is None:
                print(f"{path}: unreadable ({exc})")
                status = 1
            elif errors:
                status = 1
                print(f"{path}: INVALID")
                for err in errors:
                    print(f"  {err}")
            else:
                lines = len(raw.splitlines())
                print(f"{path}: ok (trace, {lines} records)")
            continue
        errors = validate_payload(data)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for err in errors:
                print(f"  {err}")
        elif data.get("kind") == "trace-diff":
            verdict = "identical" if data.get("identical") else "diverged"
            print(f"{path}: ok (trace diff, {verdict})")
        else:
            count = len(data.get("results", [data]))
            print(f"{path}: ok ({count} result{'s' if count != 1 else ''})")
    return status


# ----------------------------------------------------------------------
# Streaming trace commands (repro record / replay)
# ----------------------------------------------------------------------


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.trace.record import record_scenario

    scn = get_scenario(args.scenario)
    out = args.out if args.out is not None else f"{scn.name}.trace"
    result, writer = record_scenario(
        scn.name,
        params=_param_overrides(args, scn),
        seed=args.seed,
        scheduler=getattr(args, "scheduler", None),
        path=out,
        run_index=args.run,
        checkpoint_every=args.checkpoint_every,
    )
    print(
        f"recorded {writer.events} events "
        f"({writer.checkpoints} checkpoints, {writer.seq} records) "
        f"-> {writer.path}"
    )
    if args.verify:
        from repro.trace.replay import replay_trace

        # Replay from the header (no seek) so *every* checkpoint anchor
        # in the fresh trace is recomputed, not just the final digest.
        res = replay_trace(writer.path, verify=True, use_checkpoints=False)
        print(
            f"verified: replay reproduces world digest {res.digest[:12]} "
            f"({res.checkpoints_verified} checkpoint anchors recomputed)"
        )
    if args.json is not None:
        return _emit_result(result, args.json)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.trace.reader import TraceReader
    from repro.trace.replay import replay_trace
    from repro.viz.ascii_art import render_world

    trace = TraceReader.load(args.path)
    print(trace.describe())
    # A verified replay starts from the header, so every record and
    # checkpoint is applied and checked; only an unverified view seeks.
    res = replay_trace(
        trace,
        to_event=args.to_event,
        verify=args.verify,
        use_checkpoints=not (args.no_seek or args.verify),
    )
    bits = [
        f"seek start {res.start_events}",
        f"{res.records_applied} records applied",
    ]
    if args.verify:
        bits.append(f"{res.checkpoints_verified} checkpoints verified")
    print(
        f"replayed to event {res.events} ({', '.join(bits)}), "
        f"world digest {res.digest[:12]}"
    )
    if args.render:
        art = render_world(res.world, state_char=lambda s: "#")
        print(art if art.strip() else "(no multi-node components)")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.trace.diff import diff_traces, resimulate_from_header

    if args.live:
        if args.trace_b is not None:
            raise ReproError(
                "diff takes either a second trace or --live, not both"
            )
        side_b = resimulate_from_header(args.trace_a)
        label_b = "live re-simulation"
    else:
        if args.trace_b is None:
            raise ReproError(
                "diff needs a second trace (or --live to re-simulate "
                "from the first trace's header)"
            )
        side_b = args.trace_b
        label_b = str(args.trace_b)
    result = diff_traces(
        args.trace_a,
        side_b,
        neighborhood=not args.no_neighborhood,
        label_a=str(args.trace_a),
        label_b=label_b,
    )
    print(result.describe())
    if args.json is not None:
        text = json.dumps(result.to_payload(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    return 0 if result.identical else 1


def _cmd_goldens(args: argparse.Namespace) -> int:
    from repro.trace.goldens import (
        check_goldens,
        golden_specs,
        record_goldens,
    )

    root = Path(args.dir)
    names = args.names or None
    if args.action == "list":
        for spec in golden_specs(names):
            kind = spec.scenario or f"builder:{spec.builder}"
            print(
                f"{spec.name:<12} [{spec.family}] {kind} seed={spec.seed} "
                f"-- {spec.summary}"
            )
        return 0
    if args.action == "record":
        for spec, writer in record_goldens(root, names):
            print(
                f"recorded golden {spec.name!r}: {writer.events} events "
                f"({writer.seq} records) -> {writer.path}"
            )
        return 0
    reports = check_goldens(root, names)
    for report in reports:
        print(("ok   " if report.ok else "FAIL ") + report.message)
    failed = [r for r in reports if not r.ok]
    print(
        f"{len(reports) - len(failed)}/{len(reports)} goldens reproduce "
        f"bit-exactly under {root}"
    )
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Static analysis commands (repro analyze / lint)
# ----------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.report import analysis_payload, analyze_scenario
    from repro.experiments.registry import all_scenarios

    if args.all:
        if args.scenario is not None:
            raise ReproError(
                f"cannot combine a scenario name ({args.scenario!r}) with "
                "--all; pass one or the other"
            )
        targets = [s for s in all_scenarios() if s.protocols]
    else:
        if args.scenario is None:
            raise ReproError("analyze needs a scenario name (or --all)")
        targets = [get_scenario(args.scenario)]
        if not targets[0].protocols:
            raise ReproError(
                f"scenario {args.scenario!r} declares no protocols; "
                "nothing to analyze"
            )
    per_scenario = {scn.name: analyze_scenario(scn) for scn in targets}
    payload = analysis_payload(per_scenario)

    if args.json is not None:
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    else:
        for name in sorted(per_scenario):
            print(f"{name}:")
            for report in per_scenario[name]:
                print(f"  {report.name}: {report.summary()}")
                if not report.exact:
                    print(f"    {report.diagnostic}")
                    continue
                for state in report.unreachable_states:
                    print(f"    unreachable state: {state}")
                for rule in report.dead_rules:
                    print(f"    dead rule: {rule}")
                for rule in report.hot_violations:
                    print(f"    hot-set violation (no hot endpoint): {rule}")
                shadows = [s for s in report.shadows if s["matters"]]
                if shadows:
                    print(
                        f"    {len(shadows)} reachable ordered-table "
                        "shadow(s) (informational)"
                    )
                print(f"    stabilization: {report.stabilization_reason}")
        print(
            f"-- {payload['findings']} finding(s), "
            f"{payload['inexact']} protocol(s) skipped as not closed-world"
        )
    if payload["findings"]:
        return 1
    if args.strict and payload["inexact"]:
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import lint_paths

    findings = lint_paths(tuple(args.paths))
    if args.json is not None:
        payload = {
            "kind": "lint",
            "findings": [f.to_dict() for f in findings],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"-- {len(findings)} {noun}")
    return 1 if findings else 0


# ----------------------------------------------------------------------
# Sweep-service commands (repro serve / submit / status / fetch)
# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.service import ServiceClient, SweepService

    if args.stop:
        ServiceClient(state_dir=args.state_dir).shutdown()
        print("sweep service stopping")
        return 0
    store = TrialStore(args.cache_dir) if args.cache_dir is not None else None
    service = SweepService(
        state_dir=args.state_dir,
        port=args.port,
        workers=args.workers,
        store=store,
    )

    def on_ready(svc: SweepService) -> None:
        print(
            f"sweep service listening on {svc.host}:{svc.bound_port} "
            f"(state dir {svc.state_dir}, trial store {svc.store.root}, "
            f"{svc.workers} workers)",
            flush=True,
        )

    try:
        service.run(on_ready)
    except KeyboardInterrupt:
        pass  # queued jobs stay journalled; a restart resumes them
    return 0


def _print_progress(event: Dict) -> None:
    if event.get("event") == "trial":
        tag = "cached" if event.get("cached") else "computed"
        print(f"  trial {event['index']}: {tag} (seed {event.get('seed')})")
    elif event.get("event") == "job":
        print(f"job {event.get('id')}: {event.get('status')}")


def _trace_stream_handler(args: argparse.Namespace, out_fh):
    """The ``submit --trace --wait`` event handler: forward trace records.

    Non-trace progress lines go through :func:`_print_progress` (unless
    ``--quiet``); every streamed ``repro.trace/v1`` record is appended to
    ``--trace-out`` (canonical encoding, byte-identical to a writer-side
    file for single-trial jobs) and fed to the live ASCII view when
    ``--render`` is set.
    """
    from repro.trace.encoding import encode_line
    from repro.viz.live import LiveTraceView

    view = LiveTraceView() if args.render else None

    def on_event(event: Dict) -> None:
        if event.get("event") != "trace":
            if not args.quiet:
                _print_progress(event)
            return
        record = event["record"]
        if out_fh is not None:
            out_fh.write(encode_line(record))
        if view is not None:
            view.feed(record)

    return on_event


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.experiments.service import ServiceClient

    scn = get_scenario(args.scenario)
    sweep = _sweep_from_args(args, scn)
    client = ServiceClient(state_dir=args.state_dir)
    on_event = None if args.quiet else _print_progress
    out_fh = None
    try:
        if args.trace and args.wait:
            if args.trace_out is not None:
                out_fh = open(args.trace_out, "wb")
            on_event = _trace_stream_handler(args, out_fh)
        final = client.submit(
            sweep,
            workers=args.workers,
            wait=args.wait,
            on_event=on_event,
            trace=args.trace,
        )
    finally:
        if out_fh is not None:
            out_fh.close()
    if args.wait:
        print(
            f"job {final['id']}: {final['status']}, {final['total']} trials, "
            f"cache hits {final['hits']}/{final['total']} "
            f"(misses {final['misses']})"
        )
        return 0 if final["status"] == "done" else 1
    print(
        f"submitted {final['id']} ({final['total']} trials, "
        f"queue position {final['position']})"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.experiments.service import ServiceClient

    client = ServiceClient(state_dir=args.state_dir)
    final = client.status(args.job_id)
    jobs = [final["job"]] if args.job_id is not None else final["jobs"]
    if args.json is not None:
        text = json.dumps(jobs, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        line = (
            f"{job['id']}  {job['status']:<8} {job['scenario'] or '?':<16} "
            f"{job['completed']}/{job['total']} trials, "
            f"hits {job['hits']}, misses {job['misses']}"
        )
        if job.get("error"):
            line += f"  [{job['error']}]"
        print(line)
    store = final.get("store")
    if args.job_id is None and store is not None:
        print(
            f"trial store: {store['hits']} hits, {store['misses']} misses, "
            f"{store['rejected']} rejected"
        )
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.experiments.service import ServiceClient

    client = ServiceClient(state_dir=args.state_dir)
    payload = client.fetch(args.job_id)
    if args.json is not None and args.json != "-":
        with open(args.json, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# Historical commands — aliases onto the registry
# ----------------------------------------------------------------------


def _run_alias(args: argparse.Namespace, scenario: str, params: Dict) -> ExperimentResult:
    return run_experiment(
        ExperimentSpec(
            scenario=scenario,
            params=params,
            seed=getattr(args, "seed", None),
            scheduler=getattr(args, "scheduler", None),
        )
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    result = _run_alias(args, "demo", {"n": args.n})

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        print(
            f"spanning line on {m['n']} nodes: "
            f"{m['line_events']} effective interactions"
        )
        print(res.renders["line"])
        print(
            f"\n{m['side']}x{m['side']} square on {m['square_n']} nodes: "
            f"{m['square_events']} effective interactions"
        )
        print(res.renders["square"])

    return _emit_result(result, args.json, human)


def _cmd_count(args: argparse.Namespace) -> int:
    result = _run_alias(
        args,
        "counting",
        {"n": args.n, "b": args.head_start, "trials": args.trials},
    )

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        mean = m["mean_estimate"]
        print(
            f"counting n = {m['n']} (b = {m['b']}, {m['trials']} trials): "
            f"mean estimate {mean:.1f} ({mean / m['n']:.2%} of n), "
            f"success rate {m['successes']}/{m['trials']}"
        )

    return _emit_result(result, args.json, human)


def _cmd_construct(args: argparse.Namespace) -> int:
    result = _run_alias(args, "shape", {"shape": args.shape, "d": args.d})

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        print(
            f"constructed {m['shape']!r} on a {m['d']}x{m['d']} square: "
            f"{m['useful_space']} on-cells, waste {m['waste']}, "
            f"{m['interactions']} interactions"
        )
        print(res.renders["shape"])

    return _emit_result(result, args.json, human)


def _cmd_pattern(args: argparse.Namespace) -> int:
    result = _run_alias(args, "pattern", {"pattern": args.pattern, "d": args.d})

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        print(
            f"pattern {m['pattern']!r} on a {m['d']}x{m['d']} square "
            f"({m['colors']} colors, {m['interactions']} interactions)"
        )
        print(res.renders["pattern"])

    return _emit_result(result, args.json, human)


def _cmd_cube(args: argparse.Namespace) -> int:
    result = _run_alias(args, "cube", {"m": args.m})

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        print(
            f"{m['m']}x{m['m']}x{m['m']} cube on {m['n']} nodes: "
            f"{m['scheduler_events']} scheduler events, "
            f"{m['leader_interactions']} leader interactions"
        )
        print(res.renders["cube"])

    return _emit_result(result, args.json, human)


def _cmd_replicate(args: argparse.Namespace) -> int:
    result = _run_alias(
        args, "replicate", {"size": args.size, "approach": args.approach}
    )

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        print(
            f"replicated a random {m['size']}-cell shape by {m['approach']}: "
            f"{m['interactions']} interactions, waste {m['waste']}, "
            f"identical: {m['identical']}"
        )
        print("original:")
        print(res.renders["original"])
        print("replica:")
        print(res.renders["replica"])

    return _emit_result(result, args.json, human)


def _cmd_repair(args: argparse.Namespace) -> int:
    result = _run_alias(
        args, "repair", {"d": args.d, "fraction": args.fraction}
    )

    def human(res: ExperimentResult) -> None:
        m = res.metrics
        print(
            f"star on a {m['d']}x{m['d']} square: detached {m['detached']} cells, "
            f"repaired in {m['interactions']} interactions "
            f"({m['nodes_attached']} re-attached, {m['bonds_restored']} bonds)"
        )
        print("damaged:")
        print(res.renders["damaged"])
        print("repaired:")
        print(res.renders["repaired"])

    return _emit_result(result, args.json, human)


def _cmd_inspect(args: argparse.Namespace) -> int:
    protocol = PROTOCOLS[args.protocol]()
    print(format_protocol(protocol))
    seeds = ("i", "e") if "protocol" in args.protocol or args.protocol == "self-replicating" else ()
    report = lint_protocol(protocol, extra_initial=seeds)
    print(
        f"\nlint: {'clean' if report.clean else 'FINDINGS'}; "
        f"{report.bond_forming_rules} bond-forming, "
        f"{report.bond_breaking_rules} bond-breaking rules"
    )
    for note in report.notes:
        print(f"  note: {note}")
    for state in report.unreachable_states:
        print(f"  unreachable state: {state!r}")
    return 0


# ----------------------------------------------------------------------
# Parser construction
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Terminating distributed construction of shapes and patterns "
            "(Michail, 2015) — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --- generic registry commands -----------------------------------
    p = sub.add_parser("list", help="list every registered scenario")
    p.add_argument("--format", choices=("text", "md"), default="text")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("describe", help="print one scenario's param schema")
    p.add_argument("scenario", choices=scenario_names())
    p.set_defaults(func=_cmd_describe)

    run_parser = sub.add_parser("run", help="run one scenario spec")
    run_sub = run_parser.add_subparsers(dest="scenario", required=True)
    sweep_parser = sub.add_parser(
        "sweep", help="declarative grid × seeds sweep (parallel workers)"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="scenario", required=True)
    submit_parser = sub.add_parser(
        "submit", help="queue a sweep on the running sweep service"
    )
    submit_sub = submit_parser.add_subparsers(dest="scenario", required=True)
    record_parser = sub.add_parser(
        "record",
        help="run one scenario under the streaming repro.trace/v1 writer",
    )
    record_sub = record_parser.add_subparsers(dest="scenario", required=True)
    for scn in all_scenarios():

        def _add_run_param_flags(p, scn=scn):
            for prm in scn.params:
                p.add_argument(
                    f"--{prm.name.replace('_', '-')}",
                    dest=f"param_{prm.name}",
                    type=prm.pytype,
                    choices=prm.choices,
                    default=None,
                    help=f"{prm.help} (default {prm.default!r})",
                )

        p = run_sub.add_parser(scn.name, help=scn.summary)
        _add_run_param_flags(p)
        _add_uniform_flags(p, scn)
        p.set_defaults(func=_cmd_run)

        p = record_sub.add_parser(scn.name, help=scn.summary)
        _add_run_param_flags(p)
        _add_uniform_flags(p, scn)
        p.add_argument(
            "--out", default=None, metavar="PATH",
            help=f"trace file to write (default {scn.name}.trace)",
        )
        p.add_argument(
            "--checkpoint-every", type=int, default=256, metavar="N",
            help="events between checkpoint snapshots (0 = none)",
        )
        p.add_argument(
            "--run", type=int, default=0, metavar="K",
            help="which Simulation of a multi-run scenario to record",
        )
        p.add_argument(
            "--verify", action="store_true",
            help="replay the finished trace and recompute every digest",
        )
        p.set_defaults(func=_cmd_record)

        def _add_sweep_grid_flags(p, scn=scn):
            for prm in scn.params:
                p.add_argument(
                    f"--{prm.name.replace('_', '-')}",
                    dest=f"param_{prm.name}",
                    type=str,
                    default=None,
                    metavar="V[,V...]",
                    help=f"values to sweep for {prm.name} (default {prm.default!r})",
                )
            p.add_argument(
                "--seeds", type=int, default=1,
                help="trials per grid point (seeds derived deterministically)",
            )
            p.add_argument("--base-seed", type=int, default=0)
            if scn.schedulable:
                p.add_argument("--scheduler", choices=SCHEDULERS, default=None)

        p = sweep_sub.add_parser(scn.name, help=scn.summary)
        _add_sweep_grid_flags(p)
        p.add_argument(
            "--workers", type=int, default=1,
            help="process fan-out; results are identical for any count",
        )
        p.add_argument(
            "--cache", action="store_true",
            help=(
                "serve repeated trials from the content-addressed trial "
                "store (~/.cache/repro/trials) instead of recomputing"
            ),
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="trial-store root (implies --cache)",
        )
        _add_json_flag(p)
        p.set_defaults(func=_cmd_sweep)

        p = submit_sub.add_parser(scn.name, help=scn.summary)
        _add_sweep_grid_flags(p)
        p.add_argument(
            "--workers", type=int, default=None,
            help="per-job process fan-out (default: the service's setting)",
        )
        p.add_argument(
            "--wait", action="store_true",
            help="stream per-trial progress and block until the job finishes",
        )
        p.add_argument("--quiet", action="store_true", help="no progress lines")
        p.add_argument(
            "--state-dir", default=None, metavar="PATH",
            help="service state directory (default ~/.cache/repro/service)",
        )
        p.add_argument(
            "--trace", action="store_true",
            help=(
                "stream per-event repro.trace/v1 records (uncached trials "
                "run sequentially under a recording)"
            ),
        )
        p.add_argument(
            "--render", action="store_true",
            help="with --trace --wait: live ASCII view of the streamed run",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help=(
                "with --trace --wait: append every streamed record to PATH "
                "(a valid trace file for single-trial jobs)"
            ),
        )
        p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "validate",
        help=(
            "validate emitted JSON (or NDJSON streaming traces) against "
            "the known schemas"
        ),
    )
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "replay",
        help="bit-exact replay of a recorded trace (seek, verify, render)",
    )
    p.add_argument("path", metavar="TRACE")
    p.add_argument(
        "--to-event", type=int, default=None, metavar="N",
        help=(
            "reconstruct the world just after event N, including its "
            "same-step faults (default: the end of the trace)"
        ),
    )
    p.add_argument(
        "--verify", action="store_true",
        help=(
            "replay from the header, recomputing the world digest against "
            "every anchor"
        ),
    )
    p.add_argument(
        "--render", action="store_true",
        help="ASCII-render the reconstructed world",
    )
    p.add_argument(
        "--no-seek", action="store_true",
        help=(
            "replay from the header instead of seeking to a checkpoint "
            "(implied by --verify)"
        ),
    )
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "diff",
        help=(
            "stream two traces in lockstep and report the first "
            "diverging event (repro.trace.diff/v1)"
        ),
    )
    p.add_argument("trace_a", metavar="TRACE_A")
    p.add_argument("trace_b", nargs="?", default=None, metavar="TRACE_B")
    p.add_argument(
        "--live", action="store_true",
        help=(
            "instead of a second trace, re-simulate from TRACE_A's header "
            "identity with the current code and diff against that"
        ),
    )
    p.add_argument(
        "--no-neighborhood", action="store_true",
        help="skip decoding the world neighborhood around the divergence",
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "goldens",
        help=(
            "golden-trace regression set: record, check (replay + diff "
            "vs a fresh run), or list the committed specs"
        ),
    )
    p.add_argument(
        "action", choices=("list", "record", "check"),
        help="what to do with the golden set",
    )
    p.add_argument(
        "names", nargs="*", metavar="NAME",
        help="golden names to operate on (default: all)",
    )
    p.add_argument(
        "--dir", default="tests/goldens", metavar="PATH",
        help="golden directory (default: tests/goldens)",
    )
    p.set_defaults(func=_cmd_goldens)

    # --- static analysis ----------------------------------------------
    p = sub.add_parser(
        "analyze",
        help=(
            "static protocol analysis: reachability, dead rules, "
            "shadowing, hot-set soundness, stabilization witness"
        ),
    )
    p.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario whose protocols to analyze",
    )
    p.add_argument(
        "--all", action="store_true",
        help="analyze every registered scenario that declares protocols",
    )
    p.add_argument(
        "--strict", action="store_true",
        help=(
            "also fail (exit 1) on handler-lowered protocols that cannot "
            "be analyzed statically"
        ),
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "lint",
        help="determinism linter over src/repro (AST pass, zero deps)",
    )
    p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the repro package)",
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_lint)

    # --- sweep service ------------------------------------------------
    p = sub.add_parser(
        "serve",
        help=(
            "run the sweep service: persistent FIFO job queue, "
            "content-addressed trial cache, process-pool fan-out"
        ),
    )
    p.add_argument(
        "--state-dir", default=None, metavar="PATH",
        help="journal/port/results directory (default ~/.cache/repro/service)",
    )
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port on 127.0.0.1 (0 = ephemeral, written to the port file)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="default process fan-out for uncached trials",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="trial-store root (default ~/.cache/repro/trials)",
    )
    p.add_argument(
        "--stop", action="store_true",
        help="shut down the running service instead of starting one",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("status", help="list the sweep service's jobs")
    p.add_argument("job_id", nargs="?", default=None, metavar="JOB")
    p.add_argument("--state-dir", default=None, metavar="PATH")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "fetch", help="retrieve a finished job's results payload"
    )
    p.add_argument("job_id", metavar="JOB")
    p.add_argument("--state-dir", default=None, metavar="PATH")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_fetch)

    # --- historical commands (registry aliases) ----------------------
    p = sub.add_parser("demo", help="quickstart: spanning line + square")
    p.add_argument("-n", type=int, default=10, help="population size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default=None,
        help=(
            "uniform-scheduler implementation (all produce identical seeded "
            "trajectories) or the deterministic fair round-robin adversary"
        ),
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("count", help="Theorem 1 terminating counting")
    p.add_argument("n", type=int, help="population size")
    p.add_argument("-b", "--head-start", type=int, default=4)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("construct", help="Theorem 4 universal construction")
    p.add_argument("shape", choices=sorted(SHAPES))
    p.add_argument("-d", type=int, default=9, help="square dimension")
    p.add_argument(
        "--seed", type=int, default=None,
        help="recorded in the result (the construction is deterministic)",
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("pattern", help="Remark 4 pattern construction")
    p.add_argument("pattern", choices=sorted(PATTERNS))
    p.add_argument("-d", type=int, default=8, help="square dimension")
    p.add_argument(
        "--seed", type=int, default=None,
        help="recorded in the result (the construction is deterministic)",
    )
    _add_json_flag(p)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("cube", help="3D Cube-Knowing-n")
    p.add_argument("-m", type=int, default=3, help="cube side (>= 3)")
    p.add_argument("--seed", type=int, default=0)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("replicate", help="§7 shape self-replication")
    p.add_argument("--size", type=int, default=12, help="cells in the shape")
    p.add_argument(
        "--approach", choices=("shifting", "columns"), default="shifting"
    )
    p.add_argument("--seed", type=int, default=0)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_replicate)

    p = sub.add_parser("repair", help="§8 damage-and-repair scenario")
    p.add_argument("-d", type=int, default=9, help="square dimension")
    p.add_argument("--fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser(
        "inspect", help="print a protocol's rule table (paper notation)"
    )
    p.add_argument("protocol", choices=sorted(PROTOCOLS))
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro list | head`; not an error
        return 0
    except ReproError as exc:
        # Spec/param problems (bad sweep values, out-of-range params,
        # scheduler on a deterministic scenario) are usage errors, not
        # tracebacks.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
