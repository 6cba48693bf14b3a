"""Tests for served requests as spans (:mod:`repro.obs.requests`).

Covers the tail-latency attribution pipeline end to end:

* stage marks partition a request span's wall time (monotonic, clamped,
  explicit-timestamp carve-outs like the express lane's classify split);
* the queue-wait stage grows deterministically under a writer-gate pause;
* the slow-request sink's ring evicts oldest-first at its bound, and
  the registry folds request spans into stage histograms with exemplars;
* request spans in a JSONL trace round-trip through
  :func:`analyze_requests`, including its monotonicity gate;
* the wall-clock anchor reaches every sink and the trace file;
* the serve HTTP surface: ``GET /debug/requests``, and every engine run
  span and ``express`` event under the request that caused it, also
  with two sessions writing at once.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.host import Accelerator
from repro.obs import (
    REGISTRY,
    JsonlSink,
    MemorySink,
    SlowRequestSink,
    Tracer,
    analyze_requests,
    end_request,
    mark,
    read_trace,
    render_request_table,
    validate_trace,
)
from repro.obs.metrics import Histogram
from repro.obs.sinks import TRACE_FORMAT, TRACE_VERSION
from repro.serve import ServeApp, ServeServer

from tests.test_serve import EDGES, HttpClient, wait_until

A = pytest.approx


class FakeClock:
    """A span clock the test moves by hand."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def request(tracer, path="/x", method="POST"):
    return tracer.start("request", method=method, path=path)


@pytest.fixture
def traced():
    """A ``ServeApp`` whose accelerator traces into a memory sink."""
    sink = MemorySink()
    app = ServeApp(accelerator=Accelerator(tracer=Tracer([sink])))
    yield app, sink
    app.close()


def make_session(app, name="s", **kwargs):
    return app.create_session(EDGES, "sssp", name=name, source=0, **kwargs)


class TestRequestContext:
    """Stage marks on a request span partition its wall time."""

    def test_explicit_marks_partition_deterministically(self):
        clock = FakeClock()
        tracer = Tracer([], clock=clock)
        span = request(tracer, "/sessions/s/update")
        t0 = span.t_start
        mark(span, "parse", t=t0 + 0.010)
        mark(span, "queued", t=t0 + 0.030)
        mark(span, "classify", t=t0 + 0.031)
        mark(span, "apply", t=t0 + 0.050)
        clock.now = t0 + 0.060
        end_request(tracer, span, "update", 200)
        assert span.attrs["stages"] == {
            "parse": A(0.010),
            "queued": A(0.020),
            "classify": A(0.001),
            "apply": A(0.019),
        }
        assert span.attrs["unaccounted"] == A(0.010)
        assert "marks" not in span.attrs
        # The partition is exact by construction.
        assert sum(span.attrs["stages"].values()) + span.attrs["unaccounted"] == A(
            span.dur_s
        )
        assert span.dur_s == A(0.060)

    def test_out_of_order_mark_clamps_to_zero_not_negative(self):
        clock = FakeClock()
        tracer = Tracer([], clock=clock)
        span = request(tracer, method="GET")
        t0 = span.t_start
        mark(span, "parse", t=t0 + 0.020)
        mark(span, "rewind", t=t0 + 0.005)  # clock ran "backwards"
        mark(span, "respond", t=t0 + 0.030)
        clock.now = t0 + 0.030
        end_request(tracer, span, "read", 200)
        stages = span.attrs["stages"]
        assert stages["rewind"] == 0.0
        # The respond stage is measured from the furthest mark seen, so
        # the partition still sums to the wall time.
        assert stages["respond"] == A(0.010)
        assert sum(stages.values()) + span.attrs["unaccounted"] == A(0.030)

    def test_live_marks_are_monotonic_and_sum_to_wall_time(self):
        tracer = Tracer([])
        span = request(tracer)
        mark(span, "parse")
        time.sleep(0.002)
        mark(span, "apply")
        end_request(tracer, span, "ingest", 200)
        stages, unaccounted = span.attrs["stages"], span.attrs["unaccounted"]
        assert all(v >= 0.0 for v in stages.values())
        assert unaccounted >= 0.0
        assert sum(stages.values()) + unaccounted == A(span.dur_s)

    def test_repeated_stage_accumulates(self):
        clock = FakeClock()
        tracer = Tracer([], clock=clock)
        span = request(tracer, method="GET")
        t0 = span.t_start
        mark(span, "chunk", t=t0 + 0.010)
        mark(span, "other", t=t0 + 0.015)
        mark(span, "chunk", t=t0 + 0.025)
        clock.now = t0 + 0.025
        end_request(tracer, span, "read", 200)
        assert span.attrs["stages"]["chunk"] == A(0.020)


class TestRequestLog:
    """The slow-request sink, the registry fold, and the analyzer."""

    def finish(self, tracer, route="update", status=200):
        span = request(tracer)
        mark(span, "respond")
        end_request(tracer, span, route, status)
        return span

    def test_ring_evicts_oldest_first(self):
        sink = SlowRequestSink(ring_size=2, slow_threshold_s=0.0)
        tracer = Tracer([sink])
        spans = [self.finish(tracer) for _ in range(3)]
        payload = sink.debug_payload()
        assert payload["requests_total"] == 3
        assert payload["slow_total"] == 3
        assert [r["id"] for r in payload["ring"]] == [s.span_id for s in spans[1:]]

    def test_threshold_keeps_fast_requests_out_of_the_ring(self):
        sink = SlowRequestSink(slow_threshold_s=10.0)
        tracer = Tracer([sink])
        self.finish(tracer, route="read")
        with tracer.span("run", "batch"):  # not a request: not counted
            pass
        payload = sink.debug_payload()
        assert payload["requests_total"] == 1
        assert payload["slow_total"] == 0
        assert payload["ring"] == []

    def test_concurrent_request_spans_are_all_counted_and_written(self, tmp_path):
        # Handler threads end request spans at once: no count and no
        # JSONL line may be lost or torn.
        path = str(tmp_path / "trace.jsonl")
        ring = SlowRequestSink(ring_size=8, slow_threshold_s=0.0)
        tracer = Tracer([ring, JsonlSink(path)])
        threads, per_thread = 6, 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [self.finish(tracer) for _ in range(per_thread)]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        tracer.close()
        total = threads * per_thread
        assert ring.requests == ring.slow == total
        assert len(ring.debug_payload()["ring"]) == 8
        assert validate_trace(path) == []
        assert analyze_requests(path)["requests"] == total

    def test_ring_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SlowRequestSink(ring_size=0)

    def test_finish_folds_stage_histograms_with_exemplars(self):
        REGISTRY.enable().reset()
        try:
            tracer = Tracer([REGISTRY])
            span = request(tracer, "/sessions/s/update")
            mark(span, "parse")
            mark(span, "apply")
            end_request(tracer, span, "update", 200)
            families = {f["name"]: f for f in REGISTRY.snapshot()["families"]}
            family = families["repro_serve_stage_latency_seconds"]
            labels = {tuple(sorted(s["labels"].items())) for s in family["series"]}
            assert (("route", "update"), ("stage", "parse")) in labels
            assert (("route", "update"), ("stage", "apply")) in labels
            exemplar_ids = {
                ex["id"]
                for s in family["series"]
                for ex in s.get("exemplars", {}).values()
            }
            assert str(span.span_id) in exemplar_ids
            assert (
                REGISTRY.value("repro_serve_requests_total", route="update", status="200")
                == 1
            )
        finally:
            REGISTRY.disable().reset()

    def test_access_log_roundtrips_through_the_analyzer(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer([JsonlSink(path)])
        for route, marks in (
            ("ingest", ("parse", "queued", "apply", "publish", "respond")),
            ("read", ("parse", "snapshot", "respond")),
        ):
            span = request(tracer, f"/sessions/s/{route}")
            for stage in marks:
                time.sleep(0.001)
                mark(span, stage)
            end_request(tracer, span, route, 200)
        tracer.close()

        assert validate_trace(path) == []
        analysis = analyze_requests(path)
        assert analysis["requests"] == 2
        assert analysis["errors"] == []
        assert [r["route"] for r in analysis["routes"]] == ["ingest", "read"]
        stage_names = {
            row["stage"] for row in analysis["stages"] if row["route"] == "ingest"
        }
        assert {"parse", "queued", "apply", "publish", "respond"} <= stage_names
        attribution = analysis["attribution"]
        assert attribution["slow_requests"] >= 1
        # Stages were marked right up to the end: the residual is tiny.
        assert attribution["min_share"] > 0.90
        # The rendered table carries the acceptance-facing numbers.
        table = render_request_table(analysis)
        assert "slowest decile" in table
        assert "ingest" in table

    def test_analyzer_flags_schema_and_monotonicity_violations(self, tmp_path):
        good = {
            "type": "span",
            "kind": "request",
            "name": "read",
            "id": 1,
            "parent": None,
            "t_start": 0.0,
            "t_end": 0.010,
            "dur_s": 0.010,
            "attrs": {
                "status": 200,
                "stages": {"parse": 0.004, "snapshot": 0.005},
                "unaccounted": 0.001,
            },
        }
        negative = dict(good, id=2, attrs=dict(good["attrs"], stages={"parse": -0.002}))
        unbalanced = dict(
            good,
            id=3,
            attrs=dict(good["attrs"], stages={"parse": 0.001}, unaccounted=0.0),
        )
        header = {"type": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION}

        def write(path, *records):
            with open(path, "w", encoding="utf-8") as handle:
                for record in (header,) + records:
                    handle.write(json.dumps(record) + "\n")
            return path

        path = write(str(tmp_path / "bad.jsonl"), good, negative, unbalanced)
        analysis = analyze_requests(path)
        assert analysis["requests"] == 1
        assert [r["count"] for r in analysis["routes"]] == [1]
        assert len(analysis["errors"]) == 2
        assert any("monotonic" in e for e in analysis["errors"])

        # A request span without its status fails the trace schema.
        statusless = dict(good, attrs={k: v for k, v in good["attrs"].items() if k != "status"})
        path = write(str(tmp_path / "schema.jsonl"), statusless)
        assert any("status" in e for e in validate_trace(path))
        analysis = analyze_requests(path)
        assert analysis["requests"] == 0 and analysis["errors"]

    def test_analyzer_requires_the_header_line(self, tmp_path):
        path = str(tmp_path / "headerless.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "span"}) + "\n")
        assert analyze_requests(path)["errors"]


class TestServeSessionTracing:
    def test_queue_wait_is_attributed_under_writer_pause(self, traced):
        app, sink = traced
        served = make_session(app)
        tracer = app.accelerator.tracer
        served.pause_writer()
        done = threading.Event()
        reply = {}

        def submit():
            # The submitting thread's open span is the op's request span.
            span = request(tracer, "/sessions/s/update")
            mark(span, "parse")
            reply["result"] = served.submit("update", {"u": 1, "v": 3, "w": 0.5})
            end_request(tracer, span, "update", 200)
            reply["span"] = span
            done.set()

        threading.Thread(target=submit, daemon=True).start()
        # The op holds the write lock and is parked at the gate.
        wait_until(
            lambda: served._admitted == 1 and served.queue_depth() == 0
        )
        time.sleep(0.05)
        served.resume_writer()
        assert done.wait(5.0)
        assert reply["result"]["safe"] is True
        span = reply["span"]
        stages = span.attrs["stages"]
        # The pause is the queue wait; the gate held the op >= 50 ms.
        assert stages["queued"] >= 0.045
        assert {"parse", "queued", "classify", "apply", "publish"} <= set(stages)
        assert span.attrs["safe"] is True
        assert sum(stages.values()) + span.attrs["unaccounted"] == A(span.dur_s)

    def test_update_carves_classify_out_of_apply(self, traced):
        app, sink = traced
        served = make_session(app)
        tracer = app.accelerator.tracer
        span = request(tracer, "/sessions/s/update")
        mark(span, "parse")
        served.submit("update", {"u": 1, "v": 3, "w": 0.5})
        end_request(tracer, span, "update", 200)
        stages = span.attrs["stages"]
        assert stages["classify"] >= 0.0
        assert stages["apply"] >= 0.0
        # The lane's express event nests under the request it served.
        (express,) = [e for e in sink.events if e.name == "express"]
        assert express.parent_id == span.span_id

    def test_applied_log_bound_drops_oldest_and_counts(self):
        app = ServeApp()
        try:
            served = make_session(app, log_bound=2)
            new_edges = [(1, 3, 0.5), (0, 3, 2.5), (3, 1, 1.0)]
            for u, v, w in new_edges:
                served.submit("batch", {"insertions": [[u, v, w]]})
            log = served.applied_log()
            assert log["dropped"] == 1
            assert [e["seq"] for e in log["log"]] == [2, 3]
            stats = served.stats()
            assert stats["log_bound"] == 2
            assert stats["log_dropped"] == 1
        finally:
            app.close()

    def test_log_bound_must_be_positive(self):
        app = ServeApp()
        try:
            with pytest.raises(ValueError):
                make_session(app, log_bound=0)
        finally:
            app.close()


class TestSpanLinksAndAnchor:
    def test_anchor_reaches_memory_sink(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        assert sink.anchor is not None
        assert sink.anchor["epoch_s"] == tracer.epoch_s
        assert sink.anchor["perf_counter"] == tracer.clock_origin

    def test_anchor_is_second_line_of_jsonl_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer([JsonlSink(path)])
        with tracer.span("run", "r"):
            pass
        tracer.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert lines[0]["type"] == "header"
        assert lines[1]["type"] == "anchor"
        assert lines[1]["epoch_s"] == A(tracer.epoch_s)
        problems = validate_trace(path)
        assert problems == []
        trace = read_trace(path)
        assert trace.anchor is not None
        assert trace.anchor["perf_counter"] == A(tracer.clock_origin)


def request_of(by_id, parent_id):
    """The nearest ``request`` span above ``parent_id``, or ``None``."""
    while parent_id is not None:
        span = by_id[parent_id]
        if span.kind == "request":
            return span
        parent_id = span.parent_id
    return None


class TestHttpRequestTracing:
    @pytest.fixture
    def traced_server(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        REGISTRY.enable().reset()
        ring = SlowRequestSink(slow_threshold_s=0.0)
        memory = MemorySink()
        tracer = Tracer([ring, REGISTRY, memory, JsonlSink(trace)])
        app = ServeApp(accelerator=Accelerator(tracer=tracer))
        server = ServeServer(app, port=0).start()
        try:
            yield HttpClient(server.url), trace, tracer, ring, memory
        finally:
            server.stop()
            tracer.close()
            REGISTRY.disable().reset()

    def drive(self, client, ring):
        status, _ = client.post(
            "/sessions",
            {"edges": [list(e) for e in EDGES], "algorithm": "sssp", "name": "s"},
        )
        assert status == 201
        status, _ = client.post("/sessions/s/ingest", {"insertions": [[1, 3, 0.5]]})
        assert status == 200
        status, _ = client.post("/sessions/s/update", {"u": 0, "v": 3, "w": 0.1})
        assert status == 200
        status, _ = client.get("/sessions/s/read?vertices=3")
        assert status == 200
        # A request span ends after its response bytes go out: wait for
        # the last one before scraping or analyzing.
        wait_until(lambda: ring.requests >= 4)

    def test_debug_requests_payload(self, traced_server):
        client, _, _, ring, _ = traced_server
        self.drive(client, ring)
        status, payload = client.get("/debug/requests")
        assert status == 200
        assert payload["enabled"] is True
        # The four driven requests (the /debug scrape itself is counted
        # only after its payload is built).
        assert payload["requests_total"] >= 4
        assert payload["slow_total"] >= 4  # threshold 0: everything slow
        ring_routes = {r["name"] for r in payload["ring"]}
        assert {"session", "ingest", "update", "read"} <= ring_routes
        for record in payload["ring"]:
            assert record["kind"] == "request"
            assert record["attrs"]["stages"]
            assert record["attrs"]["unaccounted"] >= 0.0
        histograms = {f["name"] for f in payload["histograms"]}
        assert "repro_serve_stage_latency_seconds" in histograms
        assert "repro_serve_request_latency_seconds" in histograms

    def test_access_log_joins_engine_trace_end_to_end(self, traced_server):
        client, trace, tracer, ring, _ = traced_server
        self.drive(client, ring)
        tracer.flush()
        analysis = analyze_requests(trace)
        assert analysis["errors"] == []
        assert analysis["requests"] >= 4
        engine = analysis["engine"]
        # Both writes covered: the ingest batch by the run span under its
        # request span, the safe update by the express event under its.
        assert engine["writes"] == 2
        assert engine["matched"] == 2
        assert engine["coverage"] == 1.0
        assert engine["run_spans"] >= 1
        assert engine["express_events"] >= 1
        table = render_request_table(analysis)
        assert "engine work" in table

    def test_concurrent_sessions_nest_engine_work_under_their_own_requests(
        self, traced_server
    ):
        client, _, _, ring, memory = traced_server
        chain = [[i, i + 1, 1.0] for i in range(20)]
        for name in ("a", "b"):
            status, _ = client.post(
                "/sessions", {"edges": chain, "algorithm": "sssp", "name": name}
            )
            assert status == 201
        writes = 5

        def session_a():
            # One-edge batches and heavy (safe) express inserts.
            for i in range(writes):
                client.post("/sessions/a/ingest", {"insertions": [[i, i + 5, 1e9]]})
                client.post("/sessions/a/update", {"u": i, "v": i + 7, "w": 1e9})

        def session_b():
            # Two-edge batches and express deletes of tree edges.
            for i in range(writes):
                client.post(
                    "/sessions/b/ingest",
                    {"insertions": [[i, i + 9, 1e9], [i, i + 11, 1e9]]},
                )
                client.post(
                    "/sessions/b/update", {"u": 19 - i, "v": 20 - i, "op": "delete"}
                )

        threads = [threading.Thread(target=f) for f in (session_a, session_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wait_until(lambda: ring.requests >= 2 + 4 * writes)

        by_id = {s.span_id: s for s in memory.spans}
        requests = [s for s in memory.spans if s.kind == "request"]
        assert all(r.attrs["status"] in (200, 201) for r in requests)
        batch_shapes = {"a": {(1, 0)}, "b": {(2, 0), (0, 1)}}
        ops = {"a": "insert", "b": "delete"}
        runs_under = {r.span_id: 0 for r in requests}
        for run in (s for s in memory.spans if s.kind == "run"):
            owner = request_of(by_id, run.parent_id)
            assert owner is not None, run
            runs_under[owner.span_id] += 1
            if run.name == "initial":
                assert owner.name == "session"
            else:
                shape = (run.attrs["insertions"], run.attrs["deletions"])
                assert shape in batch_shapes[owner.attrs["session"]]
        express = [e for e in memory.events if e.name == "express"]
        assert len(express) == 2 * writes
        for event in express:
            owner = request_of(by_id, event.parent_id)
            assert owner is not None and owner.name == "update"
            assert event.attrs["op"] == ops[owner.attrs["session"]]
        ingests = [r for r in requests if r.name == "ingest"]
        assert len(ingests) == 2 * writes
        assert all(runs_under[r.span_id] == 1 for r in ingests)


class TestHistogramExemplars:
    def test_observe_records_last_exemplar_per_bucket(self):
        h = Histogram("h", [0.1, 1.0])
        h.observe(0.05, exemplar="a")
        h.observe(0.07, exemplar="b")  # same bucket: last write wins
        h.observe(5.0, exemplar="c")  # overflow bucket
        h.observe(0.5)  # no exemplar: bucket untouched
        assert h.exemplars[0] == {"id": "b", "value": 0.07}
        assert h.exemplars[2] == {"id": "c", "value": 5.0}
        assert 1 not in h.exemplars
