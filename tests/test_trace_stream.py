"""Tests for the streaming trace subsystem (``repro.trace``).

The contract under test: a recorded ``repro.trace/v1`` file replays into
**any** intermediate world bit-exactly — across all four schedulers and
under injected faults — and a tampered or truncated trace is *rejected*
with :class:`TraceError`, never replayed into a wrong world. Trace bytes
themselves are deterministic: identical (initial world, seed, scheduler)
produce byte-identical files.

Also covers the in-memory compatibility layer's sharpened divergence
diagnostics (``repro.core.trace.replay`` now validates node states, not
just bond state) and the sweep service's ``trace`` streaming mode.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.scheduler import make_scheduler
from repro.core.simulator import Simulation
from repro.core.trace import TraceRecorder, world_from_dict, world_to_dict
from repro.core.world import World
from repro.errors import SimulationError, TraceError
from repro.faults.injection import FaultySimulation
from repro.geometry.vec import Vec
from repro.protocols.line import spanning_line_protocol
from repro.trace import (
    TraceReader,
    TraceWriter,
    record_scenario,
    recording,
    replay_trace,
    validate_trace_bytes,
    world_digest,
)
from repro.trace.encoding import (
    CHAIN_SEED,
    bond_from_record,
    chain_advance,
    encode_line,
    payload_digest,
)
from repro.trace.reader import validate_trace_file

SCHEDULERS = ("hot", "enumerate", "rejection", "round-robin")


def record_line_run(path, n, seed, scheduler="hot", checkpoint_every=8):
    """Record one spanning-line run; returns (final world, writer)."""
    protocol = spanning_line_protocol()
    world = World.of_free_nodes(n, protocol, leaders=1)
    writer = TraceWriter(
        path,
        scenario="line",
        seed=seed,
        scheduler=scheduler,
        checkpoint_every=checkpoint_every,
    )
    with recording(writer):
        sim = Simulation(
            world, protocol, scheduler=make_scheduler(scheduler), seed=seed
        )
        sim.run(max_events=100_000)
    writer.finalize()
    return world, writer


class TestRoundTrip:
    """record -> replay reproduces the final world hash bit-exactly."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @given(
        n=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=6, deadline=None)
    def test_final_world_bit_exact(self, scheduler, n, seed, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        world, writer = record_line_run(
            tmp / "run.trace", n, seed, scheduler=scheduler
        )
        res = replay_trace(writer.path, verify=True)
        assert res.digest == world_digest(world)
        assert world_to_dict(res.world) == world_to_dict(world)

    @given(
        n=st.integers(min_value=6, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_intermediate_worlds_bit_exact(
        self, n, seed, frac, tmp_path_factory
    ):
        # Any --to-event target must equal a live run paused at that many
        # events — with and without checkpoint seek.
        tmp = tmp_path_factory.mktemp("trace")
        _world, writer = record_line_run(tmp / "run.trace", n, seed)
        trace = TraceReader.load(writer.path)
        target = round(frac * trace.events)
        seeked = replay_trace(trace, to_event=target, verify=True)
        full = replay_trace(trace, to_event=target, use_checkpoints=False)
        assert seeked.digest == full.digest
        assert seeked.events == full.events == target

        protocol = spanning_line_protocol()
        live_world = World.of_free_nodes(n, protocol, leaders=1)
        sim = Simulation(
            live_world, protocol, scheduler=make_scheduler("hot"), seed=seed
        )
        while sim.events < target:
            assert sim.step() is not None
        assert seeked.digest == world_digest(live_world)

    def test_checkpoint_seek_applies_fewer_records(self, tmp_path):
        _world, writer = record_line_run(
            tmp_path / "run.trace", 24, 7, checkpoint_every=4
        )
        trace = TraceReader.load(writer.path)
        assert trace.checkpoints(), "run too short to exercise seek"
        target = trace.events - 1
        seeked = replay_trace(trace, to_event=target)
        full = replay_trace(trace, to_event=target, use_checkpoints=False)
        assert seeked.digest == full.digest
        assert seeked.start_events > 0
        assert seeked.records_applied < full.records_applied

    def test_trace_bytes_deterministic(self, tmp_path):
        record_line_run(tmp_path / "a.trace", 10, 42)
        record_line_run(tmp_path / "b.trace", 10, 42)
        assert (tmp_path / "a.trace").read_bytes() == (
            tmp_path / "b.trace"
        ).read_bytes()

    def test_out_of_range_target_rejected(self, tmp_path):
        _world, writer = record_line_run(tmp_path / "run.trace", 6, 1)
        trace = TraceReader.load(writer.path)
        with pytest.raises(TraceError, match="outside the recorded range"):
            replay_trace(trace, to_event=trace.events + 1)


class TestFaultRoundTrip:
    """Out-of-band detach/excise records replay bit-exactly."""

    def build(self, seed, n=12):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(n, protocol, leaders=1)
        fsim = FaultySimulation(
            world,
            protocol,
            break_prob=0.2,
            excise_prob=0.05,
            seed=seed,
            max_bonds_broken=5,
            max_excisions=2,
        )
        return world, fsim

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_faulty_run_replays_bit_exact(self, seed, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        writer = TraceWriter(tmp / "f.trace", checkpoint_every=4)
        with recording(writer):
            world, fsim = self.build(seed)
            fsim.run(max_steps=5_000)
        writer.finalize()
        trace = TraceReader.load(writer.path)
        kinds = {r["kind"] for r in trace.records}
        if fsim.breakages:
            assert "detach" in kinds
        if fsim.excisions:
            assert "excise" in kinds

        res = replay_trace(trace, verify=True)
        assert res.digest == world_digest(world)

        # Mid-trace target == a live run paused at that many events
        # (same-step faults included; see repro.trace.replay docstring).
        target = trace.events // 2
        paused = replay_trace(trace, to_event=target, verify=True)
        live_world, live = self.build(seed)
        while live.events < target:
            assert live.step()
        assert paused.digest == world_digest(live_world)

    def test_untraced_trajectory_unchanged_by_recording(self, tmp_path):
        # Recording only observes: the traced run's final world equals an
        # untraced run of the same seed bit for bit.
        writer = TraceWriter(tmp_path / "f.trace")
        with recording(writer):
            traced_world, traced = self.build(123)
            traced.run(max_steps=5_000)
        writer.finalize()
        bare_world, bare = self.build(123)
        bare.run(max_steps=5_000)
        assert world_to_dict(bare_world) == world_to_dict(traced_world)


class TestTamperRejection:
    """A flipped byte is rejected with TraceError — never a wrong world."""

    @given(
        pos_frac=st.floats(min_value=0.0, max_value=1.0),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=20, deadline=None)
    def test_single_byte_flip_rejected(
        self, pos_frac, flip, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("trace")
        _world, writer = record_line_run(tmp / "run.trace", 8, 3)
        raw = bytearray(writer.path.read_bytes())
        pos = min(int(pos_frac * len(raw)), len(raw) - 1)
        raw[pos] ^= flip
        tampered = tmp / "tampered.trace"
        tampered.write_bytes(bytes(raw))
        assert validate_trace_bytes(bytes(raw)), "tampering went undetected"
        with pytest.raises(TraceError):
            replay_trace(tampered, verify=True)

    def test_truncated_trace_rejected(self, tmp_path):
        _world, writer = record_line_run(tmp_path / "run.trace", 8, 3)
        lines = writer.path.read_bytes().splitlines(keepends=True)
        truncated = b"".join(lines[:-1])  # drop the end anchor
        errors = validate_trace_bytes(truncated)
        assert any("end" in e for e in errors)

    def test_record_reordering_rejected(self, tmp_path):
        _world, writer = record_line_run(tmp_path / "run.trace", 8, 3)
        lines = writer.path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 4
        lines[1], lines[2] = lines[2], lines[1]
        assert validate_trace_bytes(b"".join(lines))


class TestWriterAndReader:
    def test_stream_only_mode_touches_no_disk(self, tmp_path):
        records = []
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(6, protocol, leaders=1)
        writer = TraceWriter(None, sink=records.append, checkpoint_every=2)
        with recording(writer):
            Simulation(world, protocol, seed=1).run(max_events=1_000)
        assert writer.finalize() is None
        assert not list(tmp_path.iterdir())
        assert records[0]["kind"] == "header"
        assert records[-1]["kind"] == "end"
        # The streamed records reassemble into a loadable trace.
        trace = TraceReader.from_records(records)
        res = replay_trace(trace, verify=True)
        assert res.digest == records[-1]["world_digest"]

    def test_recording_nothing_raises(self, tmp_path):
        writer = TraceWriter(tmp_path / "empty.trace")
        with recording(writer):
            pass
        with pytest.raises(TraceError, match="captured no simulation"):
            writer.finalize()
        assert not (tmp_path / "empty.trace").exists()

    def test_pure_pipeline_scenario_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="captured no simulation"):
            record_scenario("repair", path=tmp_path / "repair.trace")

    def test_run_index_selects_simulation(self, tmp_path):
        # demo builds two Simulations (line then square); run_index picks.
        _r0, w0 = record_scenario(
            "demo", params={"n": 6}, seed=2, path=tmp_path / "r0.trace"
        )
        _r1, w1 = record_scenario(
            "demo",
            params={"n": 6},
            seed=2,
            path=tmp_path / "r1.trace",
            run_index=1,
        )
        h0 = TraceReader.load(w0.path).header
        h1 = TraceReader.load(w1.path).header
        assert h0["run"] == 0 and h1["run"] == 1
        assert h0["snapshot"] != h1["snapshot"]
        for path in (w0.path, w1.path):
            replay_trace(path, verify=True)

    def test_atomic_finalize_discipline(self, tmp_path):
        # Until finalize, nothing exists at the target path; an abort
        # leaves no tempfile behind either.
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(5, protocol, leaders=1)
        path = tmp_path / "run.trace"
        writer = TraceWriter(path)
        with recording(writer):
            Simulation(world, protocol, seed=0).run(max_events=1_000)
            assert not path.exists()
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_validate_trace_bytes_accepts_good_trace(self, tmp_path):
        _world, writer = record_line_run(tmp_path / "run.trace", 8, 9)
        assert validate_trace_bytes(writer.path.read_bytes()) == []


class TestCompatLayerDiagnostics:
    """Satellite: core replay validates node states with detail."""

    def _record(self, n=6, seed=4):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(n, protocol, leaders=1)
        recorder = TraceRecorder()
        sim = Simulation(world, protocol, seed=seed, trace=recorder.hook)
        sim.run(max_events=1_000)
        return protocol, recorder.to_list()

    def test_state_divergence_reported_with_detail(self):
        from repro.core.trace import replay

        protocol, events = self._record()
        # Find a node an event updates and a *later* event touches again:
        # mutating its state between the two must fail at the later event,
        # naming the node and both states — the diagnostic for a world
        # that changed outside the replayed interaction stream.
        touched = {}
        later = nid = None
        for j, ev in enumerate(events):
            for cand in (ev["nid1"], ev["nid2"]):
                if cand in touched:
                    later, nid = j, cand
                    break
            if later is not None:
                break
            touched[ev["nid1"]] = j
            touched[ev["nid2"]] = j
        assert later is not None, "no node touched twice; enlarge the run"

        fresh = World.of_free_nodes(6, protocol, leaders=1)

        def stream():
            for j, ev in enumerate(events):
                if j == later:
                    fresh.set_state(nid, "rogue-state")
                yield ev

        with pytest.raises(SimulationError) as exc:
            replay(fresh, stream())
        msg = str(exc.value)
        assert f"replay event {events[later]['index']}" in msg
        assert f"node {nid} state diverged" in msg
        assert "rogue-state" in msg  # expected-vs-actual detail

    def test_bond_divergence_reports_expected_vs_actual(self):
        from repro.core.trace import replay

        protocol, events = self._record()
        bad = json.loads(json.dumps(events))
        bad[0]["bond"] = 1 - bad[0]["bond"]
        fresh = World.of_free_nodes(6, protocol, leaders=1)
        with pytest.raises(SimulationError, match="bond state diverged"):
            replay(fresh, bad)

    def test_clean_replay_still_passes(self):
        from repro.core.trace import replay

        protocol, events = self._record()
        fresh = World.of_free_nodes(6, protocol, leaders=1)
        replay(fresh, events, check_invariants=True)


class TestSnapshotRestore:
    def test_world_from_dict_bumps_versions(self):
        protocol = spanning_line_protocol()
        world = World.of_free_nodes(6, protocol, leaders=1)
        Simulation(world, protocol, seed=0).run(max_events=1_000)
        snapshot = world_to_dict(world)
        restored = world_from_dict(snapshot)
        # Restored components are rebuilt wholesale: their versions must
        # not alias the version a freshly-built component would carry.
        for comp in restored.components.values():
            assert comp.version >= 1
        assert world_to_dict(restored) == snapshot
        assert world_digest(restored) == world_digest(world)


class TestServiceTraceStream:
    """The sweep service's trace mode streams writer-identical records."""

    def test_streamed_records_match_local_recording(self, tmp_path):
        from repro.experiments.service import ServiceClient, serve_in_thread
        from repro.experiments.spec import SweepSpec
        from repro.errors import ReproError
        from repro.trace.encoding import encode_line

        _service, thread = serve_in_thread(
            tmp_path / "state", workers=1, store=tmp_path / "trials"
        )
        client = ServiceClient(state_dir=tmp_path / "state", timeout=120.0)
        sweep = SweepSpec(
            scenario="faulty-line",
            grid={"n": [10], "break_prob": [0.15]},
            trials=1,
            base_seed=5,
        )
        try:
            records = []
            final = client.submit(
                sweep,
                wait=True,
                trace=True,
                on_event=lambda ev: records.append(ev["record"])
                if ev.get("event") == "trace"
                else None,
            )
            assert final["status"] == "done" and final["misses"] == 1
            assert records[0]["kind"] == "header"
            assert records[-1]["kind"] == "end"

            streamed = b"".join(encode_line(r) for r in records)
            spec = [s.resolved() for s in sweep.specs()][0]
            _res, writer = record_scenario(
                spec.scenario,
                params=spec.params,
                seed=spec.seed,
                scheduler=spec.scheduler,
                path=tmp_path / "local.trace",
            )
            assert streamed == writer.path.read_bytes()

            # Resubmission is fully cached: nothing runs, nothing streams.
            rerun = []
            final2 = client.submit(
                sweep, wait=True, trace=True, on_event=rerun.append
            )
            assert final2["hits"] == 1
            assert not [e for e in rerun if e.get("event") == "trace"]
        finally:
            try:
                client.shutdown()
            except ReproError:
                pass
            thread.join(timeout=30)


class TestReaderEdgeCases:
    """Adversarial inputs: the reader rejects, never misreads."""

    def _record(self, tmp_path, checkpoint_every=8):
        path = tmp_path / "edge.trace"
        record_line_run(path, n=6, seed=4, checkpoint_every=checkpoint_every)
        return path

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        assert validate_trace_bytes(b"") == ["empty trace (no header line)"]
        with pytest.raises(TraceError, match="empty trace"):
            TraceReader.load(path)
        with pytest.raises(TraceError, match="empty trace"):
            replay_trace(path)

    def test_header_only_is_unfinalized(self, tmp_path):
        path = self._record(tmp_path)
        header_line = path.read_bytes().splitlines(keepends=True)[0]
        lone = tmp_path / "header-only.trace"
        lone.write_bytes(header_line)
        errors = validate_trace_bytes(header_line)
        assert errors and "unfinalized" in errors[0]
        with pytest.raises(TraceError, match="unfinalized"):
            replay_trace(lone)

    def test_truncation_on_checkpoint_still_unfinalized(self, tmp_path):
        # Ending *exactly* on a checkpoint line is still a torn trace: a
        # checkpoint is a seek anchor, not an end anchor.
        path = self._record(tmp_path, checkpoint_every=2)
        lines = path.read_bytes().splitlines(keepends=True)
        last_cp = max(
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "checkpoint"
        )
        torn = b"".join(lines[: last_cp + 1])
        errors = validate_trace_bytes(torn)
        assert errors and "unfinalized" in errors[0]

    def test_final_event_on_checkpoint_boundary_seeks_to_zero_applies(
        self, tmp_path
    ):
        # A finalized trace whose last event lands exactly on a checkpoint:
        # seek-replay starts at that anchor and applies zero records.
        probe = self._record(tmp_path)
        events = TraceReader.load(probe).events
        path = tmp_path / "boundary.trace"
        record_line_run(path, n=6, seed=4, checkpoint_every=events)
        res = replay_trace(path, verify=True, use_checkpoints=True)
        assert res.start_events == events
        assert res.records_applied == 0
        full = replay_trace(path, verify=True, use_checkpoints=False)
        assert full.digest == res.digest

    def test_duplicate_end_record_rejected(self, tmp_path):
        path = self._record(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        doubled = b"".join(lines) + lines[-1]
        errors = validate_trace_bytes(doubled)
        assert errors == [f"line {len(lines)}: record after the end anchor"]

    def test_replay_to_event_zero_is_initial_world(self, tmp_path):
        path = self._record(tmp_path)
        res = replay_trace(path, to_event=0, verify=True)
        assert res.events == 0
        assert res.records_applied == 0
        header = TraceReader.load(path).header
        assert res.digest == header["snapshot_digest"]


def _rechain(records):
    """Encode edited records as a trace whose hash chain and digests all
    check out again — a forgery only the decoders can catch."""
    chain = CHAIN_SEED
    out = []
    for rec in records:
        rec = dict(rec)
        if rec["kind"] in ("header", "checkpoint"):
            rec["snapshot_digest"] = payload_digest(rec["snapshot"])
        if rec["kind"] in ("checkpoint", "end"):
            rec["chain"] = chain
        if rec["kind"] == "end":
            rec.pop("self_digest")
            rec["self_digest"] = payload_digest(rec)
        line = encode_line(rec)
        out.append(line)
        chain = chain_advance(chain, line.rstrip(b"\n"))
    return b"".join(out)


class TestDecodersFailClosed:
    """A re-chained trace with an undecodable record raises TraceError at
    replay (exit 2 at the CLI), never a bare ValueError or a wrong world."""

    def _forge(self, tmp_path, edit):
        _world, writer = record_line_run(tmp_path / "run.trace", 8, 3)
        records = [json.loads(l) for l in writer.path.read_bytes().splitlines()]
        first_bond = next(
            r for r in records if r["kind"] == "event" and r["rotation"]
        )
        edit(first_bond)
        forged = tmp_path / "forged.trace"
        forged.write_bytes(_rechain(records))
        assert validate_trace_bytes(forged.read_bytes()) == []
        return forged, first_bond["index"]

    def test_unknown_event_port(self, tmp_path, capsys):
        forged, index = self._forge(
            tmp_path, lambda r: r.update(port1="zz")
        )
        with pytest.raises(TraceError, match=f"index {index}: unknown port 'zz'"):
            replay_trace(forged, verify=True)
        assert main(["replay", str(forged), "--verify"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_unknown_detach_port(self):
        record = {"kind": "detach", "index": 4, "bond": [[0, "zz"], [1, "r"]]}
        with pytest.raises(TraceError, match="detach record at index 4"):
            bond_from_record(record)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],  # not a rotation at all
            [[1, 0, 0], [0, 0, -1], [0, 1, 0]],  # a 3D rotation in 2D
        ],
    )
    def test_placement_outside_the_group(self, tmp_path, matrix):
        forged, index = self._forge(
            tmp_path, lambda r: r.update(rotation=matrix)
        )
        with pytest.raises(TraceError, match=f"event {index}: placement"):
            replay_trace(forged, verify=True)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
        ],
    )
    def test_snapshot_orientation_outside_the_group(self, matrix):
        protocol = spanning_line_protocol()
        data = world_to_dict(World.of_free_nodes(3, protocol, leaders=1))
        data["nodes"][1]["orientation"] = matrix
        with pytest.raises(SimulationError, match="node 1 has orientation"):
            world_from_dict(data)

    def test_snapshot_bond_port_unknown(self):
        world = World(2)
        world.add_component_from_cells({Vec(0, 0): "g", Vec(1, 0): "g"})
        data = world_to_dict(world)
        data["bonds"][0][1] = "zz"
        with pytest.raises(SimulationError, match="unknown port"):
            world_from_dict(data)


class TestOnePassLoad:
    """TraceReader.load reads and parses once, and rejects exactly what
    validate_trace_file reports."""

    def _defects(self, tmp_path):
        path = tmp_path / "good.trace"
        record_line_run(path, 6, 4, checkpoint_every=2)
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0x21
        last_cp = max(
            i
            for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "checkpoint"
        )
        return {
            "byte-flip": bytes(flipped),
            "truncated": b"".join(lines[:-1]),
            "torn-tail": b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2],
            "doubled-end": data + lines[-1],
            "header-only": lines[0],
            "empty": b"",
            "truncated-on-checkpoint": b"".join(lines[: last_cp + 1]),
        }

    def test_defects_raise_the_validator_messages(self, tmp_path):
        for name, data in self._defects(tmp_path).items():
            path = tmp_path / f"{name}.trace"
            path.write_bytes(data)
            errors = validate_trace_file(path)
            assert errors, name
            with pytest.raises(TraceError) as info:
                TraceReader.load(path)
            assert str(info.value) == f"invalid trace {path}: " + "; ".join(
                errors[:4]
            ), name

    def test_valid_trace_is_read_and_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "run.trace"
        record_line_run(path, 8, 3)
        n_lines = len(path.read_bytes().splitlines())
        reads = []
        parses = []
        read_bytes = Path.read_bytes
        loads = json.loads

        def counting_read(self):
            reads.append(self)
            return read_bytes(self)

        def counting_loads(raw, *args, **kwargs):
            parses.append(raw)
            return loads(raw, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counting_read)
        monkeypatch.setattr(json, "loads", counting_loads)
        reader = TraceReader.load(path)
        assert len(reads) == 1
        assert len(parses) == n_lines
        assert 1 + len(reader.records) == n_lines
