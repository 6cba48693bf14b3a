"""Tests for the live metrics registry (repro.obs.metrics + scrape).

The registry is a trace sink. The central contract: attached to a tracer
(``Tracer([REGISTRY])``) and enabled, the counters it folds from the
spans and events must equal the run's in-process :class:`RunMetrics`,
``TransferStats`` and express-lane totals exactly — on every engine
substrate — and disabled it records nothing and perturbs nothing.
"""

from __future__ import annotations

import http.client
import json
import math
import statistics
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.metrics import RoundWork, RunMetrics
from repro.core.streaming import JetStreamEngine
from repro.host import Accelerator
from repro.obs import (
    NULL_TRACER,
    MetricsServer,
    Tracer,
    log_buckets,
    metrics_payload,
    render_prometheus,
    send_payload,
    work_attrs,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.oracle import on_oracle
from repro.streams import StreamGenerator

from conftest import make_graph_for

SUBSTRATES = [
    pytest.param("scalar", {}, id="scalar"),
    # ``auto`` runs the vectorized substrate; the id names it.
    pytest.param("auto", {}, id="vectorized"),
    pytest.param("sharded", {"num_engines": 4}, id="sharded"),
]


@pytest.fixture
def registry():
    """The process-wide REGISTRY, enabled and clean; restored after.

    Engine numbers reach it only through a tracer that carries it, so the
    helpers below attach ``Tracer([REGISTRY])`` to their engines.
    """
    REGISTRY.enable().reset()
    yield REGISTRY
    REGISTRY.disable().reset()


def run_stream(engine_mode: str, batches: int = 2, tracer=None, **kwargs):
    """A short SSSP stream; the engine's tracer defaults to the registry."""
    algorithm = make_algorithm("sssp", source=0)
    graph = make_graph_for(algorithm, n=40, m=160, seed=5)
    engine = JetStreamEngine(
        graph, algorithm, tracer=tracer or Tracer([REGISTRY]), **kwargs
    )
    if engine_mode == "scalar":
        on_oracle(engine)
    stream = StreamGenerator(engine.graph, seed=6)
    results = [engine.initial_compute()]
    for _ in range(batches):
        results.append(engine.apply_batch(stream.next_batch(10)))
    return results


def family_total(snapshot: dict, name: str) -> float:
    """Sum a counter/gauge family's value across all label series."""
    for family in snapshot["families"]:
        if family["name"] == name:
            return sum(entry["value"] for entry in family["series"])
    return 0.0


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_only_goes_up(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        g = Gauge("x")
        g.set(7)
        g.inc(-3)
        assert g.value == 4

    def test_log_buckets_geometry(self):
        bounds = log_buckets(1.0, 16.0, factor=2.0)
        assert bounds == (1.0, 2.0, 4.0, 8.0, 16.0)
        # The last bound always reaches hi, even when hi is not a power.
        assert log_buckets(1.0, 5.0, factor=2.0)[-1] == 8.0
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, factor=1.0)

    def test_histogram_bucket_assignment(self):
        h = Histogram("x", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            h.observe(value)
        # le semantics: a value equal to a bound lands in that bucket.
        assert h.counts == [2, 0, 1, 1]
        assert h.cumulative() == [2, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=())


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry(enabled=True)
        a = reg.counter("c", "help")
        b = reg.counter("c")
        assert a is b
        assert reg.counter("c", kind="x") is not a  # distinct label set

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c")
        with pytest.raises(ValueError):
            reg.gauge("c", mode="other")

    def test_value_and_get(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c").inc(3)
        assert reg.value("c") == 3
        assert reg.get("missing") is None
        assert reg.value("missing") is None

    def test_reset_drops_everything(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot()["families"] == []

    def test_record_round_folds_work_vector(self):
        reg = MetricsRegistry(enabled=True)
        # Clock reads: the tracer's origin, the span start, the span end.
        tracer = Tracer([reg], clock=iter([0.0, 0.0, 0.25]).__next__)
        work = RoundWork(
            events_processed=8,
            events_generated=5,
            queue_inserts=10,
            coalesce_ops=5,
            spill_bytes=256,
        )
        span = tracer.start("round", occupancy_start=1)
        tracer.end(span, **work_attrs(work), occupancy_end=3)
        assert reg.value("repro_rounds_total") == 1
        assert reg.value("repro_events_processed_total") == 8
        assert reg.value("repro_queue_occupancy") == 3
        latency = reg.get("repro_round_latency_seconds")
        assert latency.count == 1 and latency.sum == pytest.approx(0.25)
        ratio = reg.get("repro_round_coalesce_ratio")
        assert ratio.count == 1 and ratio.sum == pytest.approx(0.5)
        spill = reg.get("repro_round_spill_bytes")
        assert spill.count == 1 and spill.sum == pytest.approx(256)
        assert reg.value("repro_queue_peak_occupancy") == 3

    def test_round_scope_times_with_the_injected_clock(self):
        reg = MetricsRegistry(enabled=True)
        tracer = Tracer([reg], clock=iter([0.0, 1.0, 1.5]).__next__)
        with tracer.round(RoundWork(events_processed=2)):
            pass
        assert reg.value("repro_rounds_total") == 1
        assert reg.get("repro_round_latency_seconds").sum == pytest.approx(0.5)

    def test_disabled_record_helpers_are_inert(self):
        reg = MetricsRegistry(enabled=False)
        tracer = Tracer([reg])
        span = tracer.start("round", occupancy_start=2)
        tracer.end(
            span,
            **work_attrs(RoundWork(events_processed=1)),
            occupancy_end=2,
            noc_events_local=1,
            noc_events_remote=2,
            noc_flits=3,
            noc_cycles=4.0,
        )
        tracer.event("transfer", direction="graph_uploads", bytes=64)
        tracer.event(
            "express",
            op="insert",
            safe=True,
            reason="insert-no-improvement",
            latency_s=1e-6,
            classify_s=1e-6,
            edges_scanned=3,
            state_reads=4,
        )
        with tracer.round(RoundWork(events_processed=1)):
            pass
        assert reg.snapshot()["families"] == []


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_rounds_total", "Scheduler rounds.").inc(3)
        reg.gauge("repro_queue_occupancy").set(7)
        text = reg.to_prometheus()
        assert "# HELP repro_rounds_total Scheduler rounds." in text
        assert "# TYPE repro_rounds_total counter" in text
        assert "repro_rounds_total 3" in text
        assert "repro_queue_occupancy 7" in text
        assert text.endswith("\n")

    def test_labels_render_sorted(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c", zeta="z", alpha="a").inc()
        assert 'c{alpha="a",zeta="z"} 1' in reg.to_prometheus()

    def test_histogram_cumulative_buckets_and_inf(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            h.observe(value)
        text = reg.to_prometheus()
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_sum 101" in text
        assert "h_count 3" in text

    def test_render_prometheus_round_trips_json_snapshot(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c").inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        path = tmp_path / "metrics.json"
        reg.dump_json(str(path))
        snapshot = json.loads(path.read_text())
        assert snapshot["format"] == "repro-metrics"
        assert render_prometheus(snapshot) == reg.to_prometheus()

    def test_render_prometheus_rejects_foreign_json(self):
        with pytest.raises(ValueError):
            render_prometheus({"rows": []})


# ----------------------------------------------------------------------
# Instrumentation parity: registry counters == RunMetrics totals
# ----------------------------------------------------------------------
class TestInstrumentationParity:
    @pytest.mark.parametrize("mode,kwargs", SUBSTRATES)
    def test_counters_match_run_metrics(self, registry, mode, kwargs):
        results = run_stream(mode, **kwargs)
        snapshot = registry.snapshot()
        metrics = [r.metrics for r in results]
        assert family_total(
            snapshot, "repro_events_processed_total"
        ) == sum(m.total.events_processed for m in metrics)
        assert family_total(snapshot, "repro_queue_inserts_total") == sum(
            m.total.queue_inserts for m in metrics
        )
        assert family_total(snapshot, "repro_coalesce_ops_total") == sum(
            m.total.coalesce_ops for m in metrics
        )
        assert family_total(snapshot, "repro_spill_bytes_total") == sum(
            m.total.spill_bytes for m in metrics
        )
        assert family_total(snapshot, "repro_rounds_total") == sum(
            p.num_rounds for m in metrics for p in m.phases
        )
        assert family_total(snapshot, "repro_phases_total") == sum(
            len(m.phases) for m in metrics
        )
        # Run accounting: one "initial" plus one "batch" per applied batch.
        assert registry.value("repro_runs_total", kind="initial") == 1
        assert registry.value("repro_runs_total", kind="batch") == len(results) - 1
        latency = registry.get("repro_round_latency_seconds")
        assert latency.count == family_total(snapshot, "repro_rounds_total")

    def test_noc_counters_match_summary(self, registry):
        results = run_stream("sharded", num_engines=4)
        combined = {"events_local": 0, "events_remote": 0, "flits": 0}
        for result in results:
            noc = result.metrics.noc_summary()
            for key in combined:
                combined[key] += noc[key]
        assert (registry.value("repro_noc_events_local_total") or 0) == combined[
            "events_local"
        ]
        assert (registry.value("repro_noc_events_remote_total") or 0) == combined[
            "events_remote"
        ]
        assert (registry.value("repro_noc_flits_total") or 0) == combined["flits"]
        fraction = registry.get("repro_noc_remote_fraction")
        if combined["events_local"] + combined["events_remote"]:
            assert fraction is not None and fraction.count > 0

    def test_transfer_counters_match_transfer_stats(self, registry):
        accel = Accelerator(tracer=Tracer([REGISTRY]))
        session = accel.load_graph(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], num_vertices=4
        )
        session.configure("sssp", source=0)
        session.run()
        session.push_updates(insertions=[(0, 3, 2.0)])
        session.run()
        session.read_results()
        snapshot = registry.snapshot()
        assert family_total(
            snapshot, "repro_transfer_bytes_total"
        ) == session.transfer_stats().total

    def test_occupancy_gauges_agree_across_substrates(self, registry):
        """Queue occupancy is read off the round spans, so the boxed and
        the array queue end a stream with the same gauges."""
        gauges = {}
        for mode in ("scalar", "auto"):
            registry.reset()
            run_stream(mode)
            gauges[mode] = (
                registry.value("repro_queue_occupancy"),
                registry.value("repro_queue_peak_occupancy"),
            )
        assert gauges["scalar"] == gauges["auto"]
        assert gauges["auto"][1] > 0

    def test_run_at_versions_phases_reach_registry(self, registry):
        accel = Accelerator(tracer=Tracer([REGISTRY]))
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=40, m=160, seed=5)
        session = accel.load_graph(
            np.column_stack(graph.edge_arrays()), graph.num_vertices
        )
        session.configure("sssp", source=0)
        session.enable_versioning()
        session.run()
        stream = StreamGenerator(session.graph, seed=6)
        for _ in range(3):
            batch = stream.next_batch(10)
            session.push_updates(batch.ins, batch.dels)
            session.run()
        before = registry.value("repro_events_processed_total")
        result = session.run_at_versions(0)
        phases = {
            entry["labels"]["phase"]: entry["value"]
            for family in registry.snapshot()["families"]
            if family["name"] == "repro_phases_total"
            for entry in family["series"]
        }
        assert phases["common-convergence"] == 1
        assert len(result.versions) == 4
        for ver in result.versions:
            assert phases[f"addition-pass@v{ver}"] == 1
        assert (
            registry.value("repro_events_processed_total") - before
            == result.total_events
        )

    def test_disabled_registry_records_nothing(self):
        REGISTRY.disable().reset()
        run_stream("auto")
        assert REGISTRY.snapshot()["families"] == []

    def test_enabled_registry_does_not_perturb_results(self, registry):
        enabled_results = run_stream("auto")
        disabled_results = run_stream("auto", tracer=NULL_TRACER)
        for a, b in zip(enabled_results, disabled_results):
            assert a.states.tobytes() == b.states.tobytes()
            assert a.metrics.to_rows() == b.metrics.to_rows()


# ----------------------------------------------------------------------
# Express lane: per-update counters and deterministic scan histogram
# ----------------------------------------------------------------------
def run_express(count: int = 24, seed: int = 9):
    """Drive ``count`` seeded single updates through the express lane."""
    from repro.core.fastpath import ExpressLane
    from repro.core.policies import DeletePolicy

    algorithm = make_algorithm("sssp", source=0)
    graph = make_graph_for(algorithm, n=40, m=160, seed=5)
    engine = JetStreamEngine(
        graph, algorithm, policy=DeletePolicy.DAP, tracer=Tracer([REGISTRY])
    )
    engine.initial_compute()
    lane = ExpressLane(engine)
    generator = StreamGenerator(engine.graph, seed=seed)
    rng = np.random.default_rng(seed + 1)
    results = []
    # The generator samples from the live edge set of the engine's graph,
    # which lane.apply mutates — the stream stays consistent by itself.
    for _ in range(count):
        ratio = 0.0 if rng.random() < 0.3 else 1.0
        batch = generator.next_batch(1, insertion_ratio=ratio)
        if batch.insertions:
            e = batch.insertions[0]
            results.append(lane.apply(e.u, e.v, e.w, "insert"))
        else:
            e = batch.deletions[0]
            results.append(lane.apply(e.u, e.v, e.w, "delete"))
    stats = dict(lane.stats)
    return results, stats


class TestExpressLaneMetrics:
    COUNT = 24

    def test_counter_totals_match_update_count(self, registry):
        results, stats = run_express(count=self.COUNT)
        snapshot = registry.snapshot()
        # Every update is counted exactly once, in every express family.
        assert family_total(
            snapshot, "repro_express_updates_total"
        ) == self.COUNT
        assert family_total(
            snapshot, "repro_express_reasons_total"
        ) == self.COUNT
        scan = registry.get("repro_express_scan_entries")
        assert scan is not None and scan.count == self.COUNT
        lat_count = 0
        for outcome in ("safe", "unsafe"):
            hist = registry.get(
                "repro_express_latency_seconds", outcome=outcome
            )
            if hist is not None:
                lat_count += hist.count
        assert lat_count == self.COUNT
        # Per-(op, outcome) series partition the total and match the lane.
        safe = sum(1 for r in results if r.safe)
        assert safe == stats["safe_applied"]
        for op in ("insert", "delete"):
            for outcome in ("safe", "unsafe"):
                expected = sum(
                    1
                    for r in results
                    if r.op == op and r.safe == (outcome == "safe")
                )
                actual = (
                    registry.value(
                        "repro_express_updates_total", op=op, outcome=outcome
                    )
                    or 0
                )
                assert actual == expected, (op, outcome)
        ratio = registry.value("repro_express_safe_ratio")
        assert ratio == pytest.approx(safe / self.COUNT)

    def test_scan_histogram_buckets_exactly_deterministic(self, registry):
        """Same seed, same graph -> bit-equal scan-work bucket vector.

        The scan histogram observes deterministic work counters (adjacency
        entries + state reads), never wall clock, so two identical runs
        must land every observation in the same bucket.
        """
        run_express(count=self.COUNT, seed=9)
        scan = registry.get("repro_express_scan_entries")
        first_counts = list(scan.counts)
        first_sum = scan.sum
        first_reasons = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for family in registry.snapshot()["families"]
            if family["name"] == "repro_express_reasons_total"
            for entry in family["series"]
        }
        registry.reset()
        run_express(count=self.COUNT, seed=9)
        scan = registry.get("repro_express_scan_entries")
        assert list(scan.counts) == first_counts
        assert scan.sum == first_sum
        second_reasons = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for family in registry.snapshot()["families"]
            if family["name"] == "repro_express_reasons_total"
            for entry in family["series"]
        }
        assert second_reasons == first_reasons
        assert sum(first_counts) == self.COUNT


# ----------------------------------------------------------------------
# Sharded substrate: per-engine utilization
# ----------------------------------------------------------------------
class TestShardedPoolMetrics:
    def test_per_engine_counters_match_utilization(self, registry):
        results = run_stream("sharded", num_engines=4)
        metrics = [r.metrics for r in results]
        expected = [RoundWork() for _ in range(4)]
        for m in metrics:
            for engine_id, work in enumerate(m.per_engine_totals()):
                expected[engine_id].merge(work)
        for engine_id, work in enumerate(expected):
            assert (
                registry.value(
                    "repro_engine_events_processed_total", engine=str(engine_id)
                )
                or 0
            ) == work.events_processed
            assert (
                registry.value(
                    "repro_engine_events_generated_total", engine=str(engine_id)
                )
                or 0
            ) == work.events_generated
        # The labelled series partition the unlabelled totals exactly...
        snapshot = registry.snapshot()
        assert family_total(
            snapshot, "repro_engine_events_processed_total"
        ) == family_total(snapshot, "repro_events_processed_total")
        # ...so per-engine fractions equal RunMetrics.engine_utilization.
        processed = sum(w.events_processed for w in expected)
        fractions = [
            (
                registry.value(
                    "repro_engine_events_processed_total", engine=str(i)
                )
                or 0
            )
            / processed
            for i in range(4)
        ]
        combined = RunMetrics(phases=[p for m in metrics for p in m.phases])
        assert fractions == pytest.approx(combined.engine_utilization())


# ----------------------------------------------------------------------
# Live scrape endpoint
# ----------------------------------------------------------------------
class TestMetricsServer:
    def scrape(self, url: str) -> str:
        with urllib.request.urlopen(url, timeout=5) as response:
            assert response.status == 200
            return response.read().decode("utf-8")

    def parse_value(self, text: str, name: str) -> float:
        for line in text.splitlines():
            if line.startswith(name + " ") or line.startswith(name + "{"):
                return float(line.rsplit(" ", 1)[1])
        raise AssertionError(f"{name} not found in scrape:\n{text}")

    def test_serves_strictly_increasing_counters_mid_run(self, registry):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=40, m=160, seed=5)
        engine = JetStreamEngine(graph, algorithm, tracer=Tracer([REGISTRY]))
        stream = StreamGenerator(engine.graph, seed=6)
        with MetricsServer(registry, port=0) as server:
            assert server.port != 0
            readings = []
            engine.initial_compute()
            readings.append(
                self.parse_value(
                    self.scrape(server.url), "repro_events_processed_total"
                )
            )
            for _ in range(2):
                engine.apply_batch(stream.next_batch(10))
                readings.append(
                    self.parse_value(
                        self.scrape(server.url), "repro_events_processed_total"
                    )
                )
        assert all(b > a for a, b in zip(readings, readings[1:])), readings
        assert readings[0] > 0

    def test_serves_json_snapshot_and_404(self, registry):
        registry.counter("repro_rounds_total").inc(2)
        with MetricsServer(registry) as server:
            base = f"http://{server.host}:{server.port}"
            snapshot = json.loads(self.scrape(base + "/metrics.json"))
            assert snapshot["format"] == "repro-metrics"
            assert family_total(snapshot, "repro_rounds_total") == 2
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/nope", timeout=5)
            assert err.value.code == 404

    def test_content_type_is_prometheus_text(self, registry):
        with MetricsServer(registry) as server:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )

    def test_stop_is_idempotent(self, registry):
        server = MetricsServer(registry).start()
        port = server.port
        assert port > 0
        server.stop()
        server.stop()
        # A fresh start binds again (possibly on a different free port).
        server.start()
        assert server.port > 0
        server.stop()

    def test_port_survives_stop(self, registry):
        """Regression: after stop() the ``port`` property used to fall
        back to the *requested* port — a stale ``0`` for auto-bind — so
        late log lines and test assertions read a meaningless address."""
        server = MetricsServer(registry, port=0).start()
        bound = server.port
        assert bound > 0
        server.stop()
        assert server.port == bound

    def test_head_request_sends_headers_without_body(self, registry):
        registry.counter("repro_rounds_total").inc(1)
        with MetricsServer(registry) as server:
            request = urllib.request.Request(server.url, method="HEAD")
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 200
                assert int(response.headers["Content-Length"]) > 0
                assert response.read() == b""

    def test_keepalive_scrapes_do_not_stall(self, registry):
        """Regression: headers and body left as two sends, so on a
        persistent connection Nagle held the body for the client's
        delayed ACK — ~44 ms per scrape however small the registry."""
        registry.counter("repro_rounds_total").inc(1)
        with MetricsServer(registry) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
            try:
                conn.connect()
                sock = conn.sock
                round_trips = []
                for _ in range(40):
                    t0 = time.perf_counter()
                    conn.request("GET", "/metrics")
                    response = conn.getresponse()
                    body = response.read()
                    round_trips.append(time.perf_counter() - t0)
                    assert response.status == 200
                    assert b"repro_rounds_total 1" in body
                    # Same socket throughout: a reconnect per request
                    # would hide the stall.
                    assert conn.sock is sock
            finally:
                conn.close()
        assert statistics.median(round_trips) < 0.010


class TestSendPayloadHardening:
    """Regression: a client dropping the connection mid-write used to
    kill the handler with an unhandled BrokenPipeError traceback."""

    class _FakeHandler:
        """Just enough of PayloadHandler for send_payload: a buffered
        ``wfile`` whose flush is the (possibly failing) socket write."""

        def __init__(self, fail_with=None):
            self.close_connection = False
            self.headers_sent = []
            self.body = b""
            self.flushes = 0
            self._fail_with = fail_with
            handler = self

            class _WFile:
                pending = b""

                def write(self, data):
                    self.pending += data

                def flush(self):
                    if handler._fail_with is not None:
                        raise handler._fail_with
                    handler.flushes += 1
                    handler.body += self.pending
                    self.pending = b""

            self.wfile = _WFile()

        def send_response(self, status):
            self.status = status

        def send_header(self, key, value):
            self.headers_sent.append((key, value))

        def end_headers(self):
            pass

    @pytest.mark.parametrize(
        "exc", [BrokenPipeError(), ConnectionResetError(), TimeoutError()]
    )
    def test_client_disconnect_is_swallowed(self, exc):
        handler = self._FakeHandler(fail_with=exc)
        ok = send_payload(handler, 200, "text/plain", b"hello")
        assert ok is False
        assert handler.close_connection is True

    def test_complete_write_returns_true(self):
        handler = self._FakeHandler()
        ok = send_payload(handler, 200, "text/plain", b"hello")
        assert ok is True
        assert handler.body == b"hello"
        assert handler.flushes == 1  # the one socket write of the response
        assert ("Content-Length", "5") in handler.headers_sent
        assert handler.close_connection is False

    def test_head_only_skips_the_body_write(self):
        handler = self._FakeHandler()
        ok = send_payload(handler, 200, "text/plain", b"hello", head_only=True)
        assert ok is True
        assert handler.flushes == 1 and handler.body == b""
        assert ("Content-Length", "5") in handler.headers_sent


class TestMetricsPayloadRouting:
    def test_routes_and_fallthrough(self, registry):
        registry.counter("repro_rounds_total").inc(3)
        ctype, body = metrics_payload(registry, "/metrics")
        assert ctype.startswith("text/plain; version=0.0.4")
        assert b"repro_rounds_total 3" in body
        ctype, body = metrics_payload(registry, "/metrics.json")
        assert ctype == "application/json"
        assert json.loads(body)["format"] == "repro-metrics"
        # Paths the metrics endpoint does not own fall through to the host.
        assert metrics_payload(registry, "/healthz") is None


def test_histogram_inf_formatting_in_exposition():
    reg = MetricsRegistry(enabled=True)
    reg.histogram("h", buckets=(1.0,)).observe(math.inf)
    text = reg.to_prometheus()
    assert 'h_bucket{le="+Inf"} 1' in text
