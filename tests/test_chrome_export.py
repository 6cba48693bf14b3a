"""Tests for the Chrome/Perfetto trace-event export (repro.obs.chrome).

A converted trace must be valid trace-event JSON (loadable by
``chrome://tracing`` / ui.perfetto.dev): metadata first, then complete
events with non-negative microsecond timestamps sorted monotonically,
one thread track per engine on sharded traces, and counter tracks for
queue occupancy and NoC flits.
"""

from __future__ import annotations

import json

from repro.algorithms import make_algorithm
from repro.core.streaming import JetStreamEngine
from repro.obs import JsonlSink, Tracer, chrome_trace, read_trace, write_chrome_trace
from repro.streams import StreamGenerator

from conftest import make_graph_for


def traced_trace_file(tmp_path, **kwargs):
    path = tmp_path / "run.jsonl"
    tracer = Tracer([JsonlSink(str(path))])
    algorithm = make_algorithm("sssp", source=0)
    graph = make_graph_for(algorithm, n=40, m=160, seed=5)
    engine = JetStreamEngine(graph, algorithm, tracer=tracer, **kwargs)
    stream = StreamGenerator(engine.graph, seed=6)
    engine.initial_compute()
    for _ in range(2):
        engine.apply_batch(stream.next_batch(10))
    tracer.close()
    return read_trace(path)


def split_events(payload):
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    rest = [e for e in payload["traceEvents"] if e["ph"] != "M"]
    return meta, rest


class TestChromeTrace:
    def test_payload_is_valid_trace_event_json(self, tmp_path):
        trace = traced_trace_file(tmp_path)
        payload = chrome_trace(trace)
        # Must survive a JSON round trip (what the viewers consume).
        payload = json.loads(json.dumps(payload))
        assert payload["displayTimeUnit"] == "ms"
        meta, events = split_events(payload)
        assert meta and events
        for event in events:
            assert event["ph"] in ("X", "C", "i")
            assert event["ts"] >= 0.0
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
        phases = {e["ph"] for e in events}
        assert "X" in phases and "C" in phases

    def test_timestamps_sorted_monotonically(self, tmp_path):
        trace = traced_trace_file(tmp_path)
        _, events = split_events(chrome_trace(trace))
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        assert stamps[0] == 0.0  # normalized to the earliest span start

    def test_metadata_precedes_events(self, tmp_path):
        trace = traced_trace_file(tmp_path)
        payload = chrome_trace(trace)
        kinds = [e["ph"] for e in payload["traceEvents"]]
        last_meta = max(i for i, ph in enumerate(kinds) if ph == "M")
        assert all(ph == "M" for ph in kinds[: last_meta + 1])
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "orchestrator" in names

    def test_sharded_trace_gets_one_track_per_engine(self, tmp_path):
        num_engines = 4
        trace = traced_trace_file(tmp_path, num_engines=num_engines)
        payload = chrome_trace(trace)
        meta, events = split_events(payload)
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        engine_tids = {
            e["tid"] for e in events if e["ph"] == "X" and e["cat"] == "engine"
        }
        assert engine_tids == set(range(1, num_engines + 1))
        for engine_id in range(num_engines):
            assert thread_names[engine_id + 1] == f"engine {engine_id}"
        # Orchestration spans stay on tid 0.
        orch = [e for e in events if e["ph"] == "X" and e["cat"] != "engine"]
        assert orch and all(e["tid"] == 0 for e in orch)

    def test_round_spans_carry_work_args_and_names(self, tmp_path):
        trace = traced_trace_file(tmp_path)
        _, events = split_events(chrome_trace(trace))
        rounds = [e for e in events if e["ph"] == "X" and e["cat"] == "round"]
        assert rounds
        assert all(e["name"].startswith("round ") for e in rounds)
        assert len({e["name"] for e in rounds}) == len(rounds)
        assert all("events_processed" in e["args"] for e in rounds)

    def test_counter_tracks_for_occupancy_and_flits(self, tmp_path):
        trace = traced_trace_file(tmp_path, num_engines=4)
        _, events = split_events(chrome_trace(trace))
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "queue occupancy" in counters
        assert "noc flits" in counters

    def test_transfer_events_become_instants(self, tmp_path):
        from repro.host import Accelerator

        path = tmp_path / "host.jsonl"
        tracer = Tracer([JsonlSink(str(path))])
        accel = Accelerator(tracer=tracer)
        session = accel.load_graph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], num_vertices=4
        )
        session.configure("sssp", source=0)
        session.run()
        session.read_results()
        tracer.close()
        _, events = split_events(chrome_trace(read_trace(path)))
        instants = [e for e in events if e["ph"] == "i"]
        assert instants
        assert all(e["cat"] == "event" and e["s"] == "t" for e in instants)
        assert any(e["name"] == "transfer" for e in instants)

    def test_write_chrome_trace_file(self, tmp_path):
        trace = traced_trace_file(tmp_path)
        out = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(trace, out)
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == count
        assert count > 0

    def test_empty_trace_exports_metadata_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        tracer = Tracer([JsonlSink(str(path))])
        tracer.close()
        payload = chrome_trace(read_trace(path))
        meta, events = split_events(payload)
        assert events == []
        assert any(e["name"] == "process_name" for e in meta)


class TestChromeCli:
    def test_trace_export_command(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.jsonl"
        tracer = Tracer([JsonlSink(str(trace))])
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=30, m=90, seed=3)
        JetStreamEngine(graph, algorithm, tracer=tracer).initial_compute()
        tracer.close()

        out = tmp_path / "run.chrome.json"
        assert main(["trace", "export", str(trace), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        captured = capsys.readouterr().out
        assert str(out) in captured

    def test_trace_export_default_output_path(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "run.jsonl"
        tracer = Tracer([JsonlSink(str(trace))])
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=30, m=90, seed=3)
        JetStreamEngine(graph, algorithm, tracer=tracer).initial_compute()
        tracer.close()

        assert main(["trace", "export", str(trace)]) == 0
        assert (tmp_path / "run.jsonl.chrome.json").exists()
