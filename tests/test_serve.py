"""Tests for the ``repro serve`` streaming service (host daemon).

Covers the serving contract end to end:

* snapshot-isolated reads — the torn-read checker replays the service's
  applied-write log through an oracle :class:`~repro.host.Session` and
  requires every ``(seq, digest)`` a concurrent reader observed to match
  the oracle's digest at that seq;
* bounded-queue backpressure — 429 ``QUEUE_FULL`` exactly at the
  configured bound, driven deterministically via the writer gate;
* graceful shutdown — queued ops drain and answer their clients before
  the session is torn down;
* the HTTP protocol surface (routes, error codes, metrics mount);
* the transport — keep-alive round trips that do not stall, and request
  framing that survives HEAD errors and a bad ``Content-Length``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import reference
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.host import Accelerator
from repro.obs import REGISTRY, MemorySink, Tracer
from repro.serve import (
    DEFAULT_QUEUE_BOUND,
    ReadSnapshot,
    ServeApp,
    ServeError,
    ServeServer,
)

EDGES = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 9.0), (2, 3, 1.0)]


def state_digest(states) -> str:
    """Same content hash :class:`ReadSnapshot` publishes."""
    return hashlib.sha1(np.array(states, copy=True).tobytes()).hexdigest()


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached within timeout")
        time.sleep(0.001)


@pytest.fixture
def app():
    app = ServeApp()
    yield app
    app.close()


def make_session(app, name="s", queue_bound=None, edges=EDGES, algorithm="sssp"):
    return app.create_session(
        edges, algorithm, name=name, source=0, queue_bound=queue_bound
    )


class TestServeSessionCore:
    def test_initial_snapshot_is_converged_seq_zero(self, app):
        served = make_session(app)
        snapshot = served.read_snapshot()
        assert snapshot.seq == 0
        assert list(snapshot.states) == [0.0, 2.0, 5.0, 6.0]
        assert snapshot.digest == state_digest(snapshot.states)

    def test_digest_is_sha1_of_the_states_bytes(self):
        # Clients recompute the digest as SHA-1 over the float64 states'
        # bytes, so the hex string itself is the contract.
        states = np.array([0.0, -0.0, 2.5, np.inf, 1e-300, 6.0])
        states.setflags(write=False)
        snapshot = ReadSnapshot(seq=1, stamp=2, graph_version=3, states=states)
        assert snapshot.digest == hashlib.sha1(states.tobytes()).hexdigest()
        assert snapshot.digest == "b8ae782e23faab89ae3db56683bf6fba07f7828b"

    def test_snapshot_states_are_write_protected(self, app):
        snapshot = make_session(app).read_snapshot()
        with pytest.raises(ValueError):
            snapshot.states[0] = 123.0

    def test_batch_write_bumps_seq_and_is_read_your_writes(self, app):
        served = make_session(app)
        reply = served.submit("batch", {"insertions": [[1, 3, 0.5]]})
        assert reply["kind"] == "batch"
        assert reply["seq"] == 1
        snapshot = served.read_snapshot()
        assert snapshot.seq >= reply["seq"]
        assert snapshot.states[3] == 2.5

    def test_express_update_goes_through_the_lane(self, app):
        served = make_session(app)
        reply = served.submit("update", {"u": 1, "v": 3, "w": 0.5})
        assert reply["kind"] == "update"
        assert reply["safe"] is True
        assert served.read_snapshot().states[3] == 2.5
        assert served.session.express_stats()["safe_applied"] == 1

    def test_applied_log_records_ops_in_order(self, app):
        served = make_session(app)
        served.submit("batch", {"insertions": [[1, 3, 0.5]]})
        served.submit("update", {"u": 0, "v": 3, "w": 9.0, "op": "insert"})
        log = served.applied_log()
        assert log["dropped"] == 0
        assert [entry["kind"] for entry in log["log"]] == ["batch", "update"]
        assert [entry["seq"] for entry in log["log"]] == [1, 2]

    def test_applied_log_rebuilds_replayable_json(self, app):
        # The log is stored packed; what /log returns must still be plain
        # JSON that replays to the live state, with the server's defaults
        # for an update sent without w/op spelled out.
        served = make_session(app)
        served.submit(
            "batch", {"insertions": [[1, 3, 0.5], [3, 0, 2]], "deletions": [[0, 2]]}
        )
        served.submit("batch", {"deletions": [[3, 0]]})
        served.submit("update", {"u": 0, "v": 3})
        served.submit("update", {"u": 0, "v": 3, "op": "delete", "extra": 1})
        served.submit("update", {"u": 2, "v": 0, "w": 4, "op": "insert"})
        log = json.loads(json.dumps(served.applied_log()))
        assert log["dropped"] == 0
        assert log["log"] == [
            {
                "kind": "batch",
                "payload": {
                    "insertions": [[1, 3, 0.5], [3, 0, 2.0]],
                    "deletions": [[0, 2]],
                },
                "seq": 1,
            },
            {
                "kind": "batch",
                "payload": {"insertions": [], "deletions": [[3, 0]]},
                "seq": 2,
            },
            {
                "kind": "update",
                "payload": {"u": 0, "v": 3, "w": 1.0, "op": "insert"},
                "seq": 3,
            },
            {
                "kind": "update",
                "payload": {"u": 0, "v": 3, "w": 1.0, "op": "delete"},
                "seq": 4,
            },
            {
                "kind": "update",
                "payload": {"u": 2, "v": 0, "w": 4.0, "op": "insert"},
                "seq": 5,
            },
        ]
        # == cannot tell 3 from 3.0: ids stay ints, weights floats.
        for entry in log["log"]:
            payload = entry["payload"]
            if entry["kind"] == "update":
                ids, weights = [payload["u"], payload["v"]], [payload["w"]]
            else:
                ids = [x for e in payload["insertions"] for x in e[:2]]
                ids += [x for e in payload["deletions"] for x in e]
                weights = [e[2] for e in payload["insertions"]]
            assert all(type(x) is int for x in ids)
            assert all(type(w) is float for w in weights)

        oracle = Accelerator().load_graph(EDGES)
        oracle.configure("sssp", source=0)
        oracle.run()
        for entry in log["log"]:
            payload = entry["payload"]
            if entry["kind"] == "batch":
                oracle.push_updates(
                    insertions=[tuple(e) for e in payload["insertions"]],
                    deletions=[tuple(e) for e in payload["deletions"]],
                )
                oracle.run()
            else:
                oracle.apply_update(
                    payload["u"], payload["v"], payload["w"], op=payload["op"]
                )
        snapshot = served.read_snapshot()
        assert snapshot.seq == 5
        assert state_digest(oracle.read_results()) == snapshot.digest
        oracle.close()

    def test_applied_log_ring_keeps_the_newest_entries(self, app):
        served = app.create_session(EDGES, "sssp", name="ring", log_bound=2)
        served.submit("batch", {"insertions": [[1, 3, 0.5]]})
        served.submit("update", {"u": 0, "v": 3, "w": 9.0})
        served.submit("update", {"u": 0, "v": 3, "op": "delete"})
        log = served.applied_log()
        assert log["dropped"] == 1
        assert [(e["seq"], e["kind"]) for e in log["log"]] == [
            (2, "update"),
            (3, "update"),
        ]
        assert log["log"][1]["payload"]["op"] == "delete"
        assert served.stats()["log_dropped"] == 1

    def test_writer_error_is_rethrown_in_the_submitter(self, app):
        served = make_session(app)
        # Deleting a non-existent edge is rejected by the store.
        with pytest.raises(ServeError) as exc:
            served.submit("update", {"u": 3, "v": 0, "op": "delete"})
        assert exc.value.status == 409
        assert exc.value.code == "REJECTED"
        # The writer survived: the next op still applies.
        assert served.submit("update", {"u": 1, "v": 3, "w": 0.5})["safe"]

    def test_stats_shape(self, app):
        served = make_session(app)
        stats = served.stats()
        assert stats["algorithm"] == "sssp"
        assert stats["queue_bound"] == DEFAULT_QUEUE_BOUND
        assert stats["applied_seq"] == 0
        assert stats["num_vertices"] == 4
        assert set(stats["express"]) == {
            "safe_applied",
            "engine_fallthroughs",
            "resyncs",
        }
        assert stats["transfers"]["graph_uploads"] > 0


class TestBackpressure:
    def _park_writer_with_inflight_op(self, served, results, errors):
        """Writer parked at the gate holding op A; queue empty again."""
        served.pause_writer()

        def submitter(payload):
            try:
                results.append(served.submit("batch", payload))
            except ServeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=submitter, args=({"insertions": [[1, 3, 0.5]]},))
        t1.start()
        # One write admitted and none waiting == A holds the write lock
        # and is parked at the gate — deterministic, no sleeps.
        wait_until(
            lambda: served._admitted == 1 and served.queue_depth() == 0
        )
        return t1, submitter

    def test_queue_full_rejects_with_429(self, app):
        served = make_session(app, queue_bound=1)
        results, errors = [], []
        t1, submitter = self._park_writer_with_inflight_op(served, results, errors)
        # Fill the single queue slot with op B.
        t2 = threading.Thread(target=submitter, args=({"insertions": [[0, 3, 9.0]]},))
        t2.start()
        wait_until(lambda: served.queue_depth() == 1)

        with pytest.raises(ServeError) as exc:
            served.submit("batch", {"insertions": [[2, 1, 1.0]]})
        assert exc.value.status == 429
        assert exc.value.code == "QUEUE_FULL"

        served.resume_writer()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert not errors
        # Both queued ops applied, in order; the rejected one did not.
        assert sorted(r["seq"] for r in results) == [1, 2]
        assert served.read_snapshot().seq == 2

    def test_rejection_is_immediate_not_blocking(self, app):
        served = make_session(app, queue_bound=1)
        results, errors = [], []
        t1, submitter = self._park_writer_with_inflight_op(served, results, errors)
        t2 = threading.Thread(target=submitter, args=({"insertions": [[0, 3, 9.0]]},))
        t2.start()
        wait_until(lambda: served.queue_depth() == 1)

        t0 = time.perf_counter()
        with pytest.raises(ServeError):
            served.submit("update", {"u": 2, "v": 1, "w": 1.0})
        rejected_in = time.perf_counter() - t0
        # The write holding the lock is parked, yet the reject returned at once.
        assert rejected_in < 1.0

        served.resume_writer()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert not errors


def _target(kind: str, payload: dict) -> int:
    """The head of the one edge a write of :class:`TestInlineWrites` inserts."""
    return payload["v"] if kind == "update" else payload["insertions"][0][1]


class TestInlineWrites:
    """A write applies on its submitter's thread, one at a time under the
    session's write lock; the session starts no thread of its own."""

    K = 8
    N = 12

    def test_concurrent_submitters_apply_in_lock_order(self, monkeypatch):
        base = [(v, v + 1, 10.0) for v in range(self.N - 1)]
        writes = [
            ("update", {"u": 0, "v": v, "w": float(v)})
            if v % 2
            else ("batch", {"insertions": [[0, v, float(v)]]})
            for v in range(2, 2 + self.K)
        ]
        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            real_start(thread)

        before = set(threading.enumerate())
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        # Switch threads often, so a lost update to the admission counts
        # would show as a wrong depth or a close that never returns.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        app = ServeApp()
        replies, errors = {}, []
        try:
            served = make_session(app, queue_bound=self.K, edges=base)
            served.pause_writer()

            def submitter(i):
                try:
                    replies[i] = served.submit(*writes[i])
                except ServeError as exc:
                    errors.append(exc)

            submitters = [
                threading.Thread(target=submitter, args=(i,)) for i in range(self.K)
            ]
            for thread in submitters:
                thread.start()
            # All admitted: one holds the lock at the gate, K - 1 wait.
            wait_until(lambda: served._admitted == self.K)
            assert served.queue_depth() == self.K - 1
            # (Threads an earlier test left may end meanwhile: only new
            # threads are compared.)
            assert set(threading.enumerate()) - before == set(submitters)
            served.resume_writer()
            for thread in submitters:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert not errors
            seqs = {i: reply["seq"] for i, reply in replies.items()}
            assert sorted(seqs.values()) == list(range(1, self.K + 1))
            log = served.applied_log()["log"]
            assert [entry["seq"] for entry in log] == list(range(1, self.K + 1))
            # Each write inserts a distinct edge (0, v): the log names it.
            by_seq = {seq: i for i, seq in seqs.items()}
            for entry in log:
                kind, payload = writes[by_seq[entry["seq"]]]
                assert entry["kind"] == kind
                assert _target(kind, entry["payload"]) == _target(kind, payload)
            edges = base + [(0, v, float(v)) for v in range(2, 2 + self.K)]
            want = reference.sssp(CSRGraph(self.N, edges), 0)
            assert np.array_equal(served.read_snapshot().states, want)
        finally:
            app.close()
            sys.setswitchinterval(switch_interval)
        assert set(threading.enumerate()) - before == set()
        assert started == submitters

    def test_failed_apply_answers_500_and_releases_the_lock(self, app, monkeypatch):
        served = make_session(app)
        real_run = served.session.run
        calls = []

        def run_failing_once(*args, **kwargs):
            # Run first: a batch left staged would refuse every later push.
            result = real_run(*args, **kwargs)
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("engine invariant broken")
            return result

        monkeypatch.setattr(served.session, "run", run_failing_once)
        with pytest.raises(ServeError) as exc:
            served.submit("batch", {"insertions": [[1, 3, 0.5]]})
        assert exc.value.status == 500 and exc.value.code == "INTERNAL"
        assert "engine invariant broken" in exc.value.message
        assert not served._write_lock.locked()
        assert served.queue_depth() == 0 and served._admitted == 0
        reply = served.submit("batch", {"insertions": [[0, 3, 9.0]]})
        assert reply["seq"] == 1
        assert served.read_snapshot().seq == 1
        assert served.queue_depth() == 0


class TestGracefulShutdown:
    def test_drain_answers_queued_clients_before_teardown(self, app):
        served = make_session(app, name="drain", queue_bound=4)
        served.pause_writer()
        results, errors = [], []

        def submitter(u, v):
            try:
                results.append(served.submit("batch", {"insertions": [[u, v, 0.5]]}))
            except ServeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=submitter, args=(1, 3))
        t1.start()
        wait_until(
            lambda: served._admitted == 1 and served.queue_depth() == 0
        )
        t2 = threading.Thread(target=submitter, args=(0, 3))
        t2.start()
        wait_until(lambda: served.queue_depth() == 1)

        # close_session drains: both clients get real responses.
        app.close_session("drain")
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert not errors
        assert sorted(r["seq"] for r in results) == [1, 2]
        assert served.session.closed

    def test_abandon_fails_queued_ops_but_finishes_inflight(self, app):
        served = make_session(app, name="abort", queue_bound=4)
        served.pause_writer()
        results, errors = [], []

        def submitter(u, v):
            try:
                results.append(served.submit("batch", {"insertions": [[u, v, 0.5]]}))
            except ServeError as exc:
                errors.append(exc)

        t1 = threading.Thread(target=submitter, args=(1, 3))
        t1.start()
        wait_until(
            lambda: served._admitted == 1 and served.queue_depth() == 0
        )
        t2 = threading.Thread(target=submitter, args=(0, 3))
        t2.start()
        wait_until(lambda: served.queue_depth() == 1)

        app.sessions.pop("abort")
        served.close(drain=False)
        t1.join(timeout=10)
        t2.join(timeout=10)
        # The in-flight op (held by the writer) completes; the queued one
        # is failed fast with 409 CLOSING.
        assert [r["seq"] for r in results] == [1]
        assert len(errors) == 1 and errors[0].code == "CLOSING"

    def test_submit_after_close_rejected(self, app):
        served = make_session(app, name="gone")
        app.close_session("gone")
        with pytest.raises(ServeError) as exc:
            served.submit("batch", {"insertions": [[1, 3, 0.5]]})
        assert exc.value.status == 409 and exc.value.code == "CLOSING"

    def test_app_close_closes_accelerator_and_sessions(self):
        app = ServeApp()
        served = make_session(app)
        app.close()
        assert served.session.closed
        assert app.accelerator.sessions == []
        # Idempotent, and new sessions are refused while closed.
        app.close()
        with pytest.raises(ServeError):
            make_session(app, name="late")


class TestAppRouting:
    def test_read_with_vertices(self, app):
        make_session(app)
        reply = app.handle_read("s", [0, 3])
        assert reply["values"] == {"0": 0.0, "3": 6.0}
        assert reply["seq"] == 0
        assert reply["digest"] == state_digest([0.0, 2.0, 5.0, 6.0])

    def test_read_vertex_out_of_range(self, app):
        make_session(app)
        with pytest.raises(ServeError) as exc:
            app.handle_read("s", [99])
        assert exc.value.status == 400 and exc.value.code == "BAD_VERTEX"

    def test_unknown_session_404(self, app):
        with pytest.raises(ServeError) as exc:
            app.handle_read("nope")
        assert exc.value.status == 404 and exc.value.code == "NO_SESSION"

    def test_duplicate_name_409_and_no_leak(self, app):
        make_session(app, name="dup")
        before = len(app.accelerator.sessions)
        with pytest.raises(ServeError) as exc:
            make_session(app, name="dup")
        assert exc.value.status == 409 and exc.value.code == "EXISTS"
        # The orphaned host session was closed and deregistered.
        assert len(app.accelerator.sessions) == before

    def test_bad_algorithm_400(self, app):
        with pytest.raises(ServeError) as exc:
            make_session(app, algorithm="not-an-algorithm")
        assert exc.value.status == 400 and exc.value.code == "BAD_SESSION"

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"algorithm": "nope"}, None),
            ({"policy": "bogus"}, None),
            ({"policy": "commongraph"}, None),
            ({"num_engines": 0}, None),
            ({"algorithm": 5}, "algorithm"),
            ({"policy": 5}, "policy"),
            ({"num_engines": 5}, None),  # more engines than the 4 vertices
            ({"algorithm": "cc"}, None),  # needs a symmetric graph
        ],
        ids=[
            "algorithm",
            "policy",
            "policy-commongraph",
            "num-engines-zero",
            "algorithm-int",
            "policy-int",
            "num-engines-over-vertices",
            "cc-directed",
        ],
    )
    def test_refused_create_leaks_no_session(self, app, kwargs, field):
        make_session(app, name="kept")
        before = len(app.accelerator.sessions)
        args = {"algorithm": "sssp", **kwargs}
        with pytest.raises(ServeError) as exc:
            app.create_session(EDGES, name="refused", **args)
        assert exc.value.status == 400 and exc.value.code == "BAD_SESSION"
        if field is not None:
            assert repr(field) in exc.value.message
        assert len(app.accelerator.sessions) == before
        assert sorted(app.sessions) == ["kept"]

    def test_refused_log_bound_leaks_no_session(self, app):
        with pytest.raises(ValueError):
            app.create_session(EDGES, "sssp", log_bound=0)
        assert app.accelerator.sessions == [] and app.sessions == {}

    def test_update_validation(self, app):
        make_session(app)
        with pytest.raises(ServeError, match="missing field"):
            app.handle_update("s", {"u": 0})
        with pytest.raises(ServeError, match="insert|delete"):
            app.handle_update("s", {"u": 0, "v": 1, "op": "upsert"})
        for bad in (1.7, -1, True, "1"):
            with pytest.raises(ServeError) as exc:
                app.handle_update("s", {"u": bad, "v": 3})
            assert exc.value.status == 400 and exc.value.code == "BAD_UPDATE"

    @pytest.mark.parametrize("w", [math.nan, -math.inf, "abc", [1], True, None])
    def test_bad_weight_is_400_before_queueing(self, app, w):
        """Regression: a NaN weight was applied and poisoned the states,
        ``"abc"`` came back as 409 REJECTED and ``[1]`` as 500 INTERNAL."""
        served = make_session(app)
        with pytest.raises(ServeError) as exc:
            app.handle_update("s", {"u": 1, "v": 3, "w": w})
        assert exc.value.status == 400 and exc.value.code == "BAD_UPDATE"
        assert served.read_snapshot().seq == 0 and served.applied_log()["log"] == []
        assert not served.session.graph.has_edge(1, 3)

    @pytest.mark.parametrize(
        "payload",
        [
            {"insertions": [[1.7, 3, 0.5]]},
            {"insertions": [[1, 3, 0.5], [True, 3, 0.5]]},
            {"insertions": [[-1, 3, 0.5]]},
            {"insertions": [[1, 3]]},
            {"insertions": [1, 3, 0.5]},
            {"deletions": [[0, 1.5]]},
            {"deletions": [[False, 1]]},
            {"deletions": [["0", "1"]]},
            {"insertions": [[1, 3, math.nan]]},
            {"insertions": [[1, 3, 0.5], [2, 0, math.inf]]},
        ],
        ids=[
            "float",
            "bool",
            "negative",
            "short-row",
            "flat",
            "float-key",
            "bool-key",
            "string-key",
            "nan-weight",
            "inf-weight",
        ],
    )
    def test_bad_batch_is_400_before_queueing(self, app, payload):
        """Regression: the writer's ``int(u)`` read JSON ``1.7`` (and
        ``true``) as vertex 1 and applied the batch."""
        served = make_session(app)
        with pytest.raises(ServeError) as exc:
            app.handle_ingest("s", payload)
        assert exc.value.status == 400 and exc.value.code == "BAD_BATCH"
        assert served.read_snapshot().seq == 0 and served.applied_log()["log"] == []
        assert not served.session.graph.has_edge(1, 3)
        assert app.handle_ingest("s", {"insertions": [[1, 3, 0.5]]})["seq"] == 1


class TestTimeTravelReads:
    def _session_with_writes(self, app, keep_versions=None, writes=3):
        served = app.create_session(
            EDGES, "sssp", name="tt", source=0, keep_versions=keep_versions
        )
        for i in range(writes):
            served.submit("batch", {"insertions": [[0, 4 + i, 0.5 + i]]})
        return served

    def test_version_read_returns_that_versions_states(self, app):
        self._session_with_writes(app)
        latest = app.handle_read("tt")
        assert latest["graph_version"] == 3
        assert latest["historical"] is False
        for version in range(4):
            reply = app.handle_read("tt", version=version)
            assert reply["graph_version"] == version
            assert reply["historical"] is True
        # Version 0 predates every write: the initial converged snapshot.
        v0 = app.handle_read("tt", vertices=[3], version=0)
        assert v0["values"] == {"3": 6.0}
        assert v0["num_vertices"] == 4

    def test_express_singles_are_versioned_too(self, app):
        served = app.create_session(EDGES, "sssp", name="tt", source=0)
        served.submit("update", {"u": 1, "v": 3, "w": 0.5})
        reply = app.handle_read("tt", vertices=[3], version=1)
        assert reply["values"] == {"3": 2.5}
        assert app.handle_read("tt", vertices=[3], version=0)["values"] == {
            "3": 6.0
        }

    def test_eviction_past_retention_is_404(self, app):
        self._session_with_writes(app, keep_versions=2, writes=4)
        with pytest.raises(ServeError) as exc:
            app.handle_read("tt", version=0)
        assert exc.value.status == 404
        assert exc.value.code == "VERSION_EVICTED"
        # Retained versions still read fine.
        assert app.handle_read("tt", version=4)["graph_version"] == 4

    def test_future_version_is_404_no_version(self, app):
        self._session_with_writes(app, writes=1)
        with pytest.raises(ServeError) as exc:
            app.handle_read("tt", version=99)
        assert exc.value.status == 404
        assert exc.value.code == "NO_VERSION"

    def test_stats_surface_history_and_store(self, app):
        served = self._session_with_writes(app, keep_versions=2, writes=4)
        stats = served.stats()
        assert stats["history"] == {
            "keep_versions": 2,
            "versions_held": 2,
            "evicted": 3,
        }
        # The ring is served history; no graph deltas are recorded.
        assert "version_store" not in stats["store"]
        # The arena counters surface too: vertex 0's growing out-run is
        # rewritten at the tail by every write and compacts twice.
        store = served.session.graph.store_stats()
        assert stats["store"]["compactions"] == store["compactions"] == 2
        assert stats["store"]["slots_written"] == store["slots_written"] == 26

    def test_negative_version_is_400_bad_version(self, app):
        # Not "evicted by retention": no ring ever holds version -1.
        app.create_session(EDGES, "sssp", name="tt", source=0, keep_versions=None)
        with pytest.raises(ServeError) as exc:
            app.handle_read("tt", version=-1)
        assert exc.value.status == 400
        assert exc.value.code == "BAD_VERSION"

    def test_historical_reads_counted_separately(self):
        REGISTRY.enable()
        app = ServeApp(accelerator=Accelerator(tracer=Tracer([REGISTRY])))
        try:
            self._session_with_writes(app, writes=1)
            app.handle_read("tt")
            app.handle_read("tt", version=0)
            app.handle_read("tt", version=1)
            historical = REGISTRY.value(
                "repro_serve_reads_total", kind="historical"
            )
            latest = REGISTRY.value("repro_serve_reads_total", kind="latest")
            assert historical == 2
            assert latest == 1
        finally:
            app.close()
            REGISTRY.disable()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class HttpClient:
    """urllib wrapper returning ``(status, parsed_json)`` even on errors."""

    def __init__(self, base_url: str):
        self.base = base_url

    def request(self, method, path, body=None, head=False):
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                raw = response.read()
                if head or not raw:
                    return response.status, raw
                return response.status, json.loads(raw.decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            return exc.code, payload

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body=None):
        return self.request("POST", path, body=body)


@pytest.fixture
def server():
    # The registry folds the daemon's request spans and serve events only
    # through the tracer that carries it (it records while enabled).
    app = ServeApp(accelerator=Accelerator(tracer=Tracer([REGISTRY])))
    server = ServeServer(app, port=0).start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    return HttpClient(server.url)


def create_http_session(client, name="s", edges=EDGES, **extra):
    body = {"edges": [list(e) for e in edges], "algorithm": "sssp", "name": name}
    body.update(extra)
    return client.post("/sessions", body)


class TestHttpProtocol:
    def test_healthz(self, client):
        status, payload = client.get("/healthz")
        assert status == 200
        assert payload == {"status": "ok", "sessions": []}

    def test_session_create_read_update_close(self, client):
        status, created = create_http_session(client)
        assert status == 201
        assert created == {
            "session": "s",
            "num_vertices": 4,
            "num_edges": 4,
            "seq": 0,
        }

        status, read = client.get("/sessions/s/read?vertices=0,3")
        assert status == 200
        assert read["values"] == {"0": 0.0, "3": 6.0}

        status, ingest = client.post(
            "/sessions/s/ingest", {"insertions": [[1, 3, 0.5]]}
        )
        assert status == 200 and ingest["seq"] == 1

        status, update = client.post(
            "/sessions/s/update", {"u": 0, "v": 3, "w": 0.1}
        )
        assert status == 200 and update["seq"] == 2 and update["safe"]

        # Read-your-writes: the published snapshot includes both writes.
        status, read = client.get("/sessions/s/read?vertices=3")
        assert read["seq"] == 2 and read["values"]["3"] == 0.1

        # Time travel: graph version 1 predates the express update.
        status, old = client.get("/sessions/s/read?vertices=3&version=1")
        assert status == 200
        assert old["historical"] is True
        assert old["graph_version"] == 1 and old["values"]["3"] == 2.5
        status, gone = client.get("/sessions/s/read?version=99")
        assert status == 404 and gone["error"] == "NO_VERSION"
        status, bad = client.get("/sessions/s/read?version=abc")
        assert status == 400 and bad["error"] == "BAD_VERSION"

        status, log = client.get("/sessions/s/log")
        assert [e["kind"] for e in log["log"]] == ["batch", "update"]

        status, closed = client.post("/sessions/s/close")
        assert status == 200 and closed["closed"] is True
        status, _ = client.get("/sessions/s/read")
        assert status == 404

    def test_error_statuses(self, client):
        status, payload = client.get("/sessions/nope/read")
        assert status == 404 and payload["error"] == "NO_SESSION"

        status, payload = client.get("/no/such/route")
        assert status == 404 and payload["error"] == "NO_ROUTE"

        status, payload = client.post("/sessions", {"algorithm": "sssp"})
        assert status == 400 and payload["error"] == "BAD_SESSION"

        create_http_session(client)
        status, payload = client.get("/sessions/s/read?vertices=abc")
        assert status == 400 and payload["error"] == "BAD_VERTEX"
        status, payload = client.post("/sessions/s/update", {"u": 0})
        assert status == 400 and payload["error"] == "BAD_UPDATE"
        # json.loads accepts the NaN literal; the weight check refuses it.
        status, payload = client.post(
            "/sessions/s/update", {"u": 1, "v": 3, "w": math.nan}
        )
        assert status == 400 and payload["error"] == "BAD_UPDATE"
        status, payload = client.post(
            "/sessions/s/ingest", {"insertions": [[1, 3, math.nan]]}
        )
        assert status == 400 and payload["error"] == "BAD_BATCH"
        status, payload = client.post(
            "/sessions", {"edges": [[0, 1, math.nan]], "algorithm": "sssp"}
        )
        assert status == 400 and payload["error"] == "BAD_SESSION"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_engines", "many"),
            ("source", [1]),
            ("keep_versions", "x"),
            ("num_vertices", {"n": 4}),
            ("queue_bound", "big"),
            ("log_bound", [8]),
            ("num_engines", 2.5),
            ("num_engines", True),
            # The removed substrate field: a silently dropped "sharded"
            # would lose the client's per-engine accounting.
            ("engine", "sharded"),
            ("keep_versions", -1),
        ],
    )
    def test_malformed_session_field_is_a_400(self, client, field, value):
        # These used to raise out of the handler: the client saw the
        # connection drop with no status.
        status, payload = create_http_session(client, **{field: value})
        assert status == 400 and payload["error"] == "BAD_SESSION"
        assert field in payload["message"]
        status, healthz = client.get("/healthz")
        assert status == 200 and healthz["sessions"] == []

    def test_oversized_num_engines_is_a_fast_400(self, client):
        # Partitioning and every round cost O(num_engines): an uncapped
        # count from a client would stall the daemon or exhaust its memory.
        started = time.perf_counter()
        status, payload = create_http_session(client, num_engines=10**9)
        assert time.perf_counter() - started < 1.0
        assert status == 400 and payload["error"] == "BAD_SESSION"
        assert "num_engines" in payload["message"]
        status, healthz = client.get("/healthz")
        assert status == 200 and healthz["sessions"] == []

    @pytest.mark.parametrize("log_bound", [0, -3])
    def test_non_positive_log_bound_is_a_400(self, client, log_bound):
        # This used to raise out of ServeSession.__init__: the client saw
        # the connection drop with no response.
        status, payload = create_http_session(client, log_bound=log_bound)
        assert status == 400 and payload["error"] == "BAD_SESSION"
        assert "log_bound" in payload["message"]
        status, healthz = client.get("/healthz")
        assert status == 200 and healthz["sessions"] == []

    def test_negative_version_over_http_is_400(self, client):
        create_http_session(client, keep_versions=None)
        status, payload = client.get("/sessions/s/read?version=-1")
        assert status == 400 and payload["error"] == "BAD_VERSION"

    def test_unexpected_error_is_a_500_on_the_request_span(self):
        sink = MemorySink()
        app = ServeApp(accelerator=Accelerator(tracer=Tracer([sink])))

        def broken():
            raise RuntimeError("boom")

        app.healthz = broken
        server = ServeServer(app, port=0).start()
        try:
            client = HttpClient(server.url)
            status, payload = client.get("/healthz")
            assert status == 500 and payload["error"] == "INTERNAL"
            assert "boom" in payload["message"]
            wait_until(lambda: sink.find("request"))
            assert sink.find("request")[0].attrs["status"] == 500
            # The handler thread survived: the next request is answered.
            del app.healthz
            assert client.get("/healthz")[0] == 200
        finally:
            server.stop()

    def test_bad_json_body(self, server, client):
        create_http_session(client)
        request = urllib.request.Request(
            server.url + "/sessions/s/ingest",
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=60)
        assert exc.value.code == 400
        assert json.loads(exc.value.read())["error"] == "BAD_JSON"

    def test_queue_full_over_http(self, server, client):
        create_http_session(client, name="bp", queue_bound=1)
        served = server.app.get_session("bp")
        served.pause_writer()
        statuses = []

        def submit(u, v):
            status, _ = client.post(
                "/sessions/bp/ingest", {"insertions": [[u, v, 0.5]]}
            )
            statuses.append(status)

        t1 = threading.Thread(target=submit, args=(1, 3))
        t1.start()
        wait_until(
            lambda: served._admitted == 1 and served.queue_depth() == 0
        )
        t2 = threading.Thread(target=submit, args=(2, 0))
        t2.start()
        wait_until(lambda: served.queue_depth() == 1)

        status, payload = client.post(
            "/sessions/bp/ingest", {"insertions": [[3, 1, 9.0]]}
        )
        assert status == 429 and payload["error"] == "QUEUE_FULL"

        served.resume_writer()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert statuses == [200, 200]

    def test_shutdown_route_drains_and_stops(self):
        server = ServeServer(ServeApp(), port=0).start()
        client = HttpClient(server.url)
        create_http_session(client)
        status, payload = client.post("/shutdown")
        assert status == 200 and payload["status"] == "draining"
        # serve_until_shutdown returns promptly and drains everything.
        server.serve_until_shutdown(poll_s=0.01)
        assert server.app._closed
        assert server.app.accelerator.sessions == []
        # The bound port is still reported after stop (not the stale 0).
        assert server.port > 0

    def test_metrics_routes_mounted(self, server, client):
        REGISTRY.enable().reset()
        try:
            create_http_session(client)
            client.get("/sessions/s/read")
            client.post("/sessions/s/ingest", {"insertions": [[1, 3, 0.5]]})

            request = urllib.request.Request(server.url + "/metrics")
            with urllib.request.urlopen(request, timeout=60) as response:
                text = response.read().decode("utf-8")
                ctype = response.headers["Content-Type"]
            assert "version=0.0.4" in ctype
            assert "repro_serve_reads_total" in text
            assert "repro_serve_queue_depth" in text
            assert 'repro_serve_requests_total{route="read",status="200"}' in text

            status, snapshot = client.get("/metrics.json")
            assert status == 200 and snapshot["format"] == "repro-metrics"

            # HEAD works on the mounted scrape route too.
            request = urllib.request.Request(
                server.url + "/metrics", method="HEAD"
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.read() == b""
                assert int(response.headers["Content-Length"]) > 0
        finally:
            REGISTRY.disable().reset()

    def test_serve_metrics_families_recorded(self, server, client):
        REGISTRY.enable().reset()
        try:
            create_http_session(client, name="m", queue_bound=1)
            client.post("/sessions/m/ingest", {"insertions": [[1, 3, 0.5]]})
            client.post("/sessions/m/update", {"u": 0, "v": 3, "w": 0.1})
            client.get("/sessions/m/read")

            assert REGISTRY.value("repro_serve_sessions") == 1
            assert (
                REGISTRY.value("repro_serve_writes_applied_total", kind="batch")
                == 1
            )
            assert (
                REGISTRY.value("repro_serve_writes_applied_total", kind="update")
                == 1
            )
            assert (
                REGISTRY.value("repro_serve_reads_total", kind="latest") == 1
            )

            served = server.app.get_session("m")
            served.pause_writer()
            statuses = []

            def submit(u, v):
                status, _ = client.post(
                    "/sessions/m/ingest", {"insertions": [[u, v, 5.0]]}
                )
                statuses.append(status)

            t1 = threading.Thread(target=submit, args=(2, 0))
            t1.start()
            wait_until(
                lambda: served._admitted == 1 and served.queue_depth() == 0
            )
            t2 = threading.Thread(target=submit, args=(3, 0))
            t2.start()
            wait_until(lambda: served.queue_depth() == 1)
            status, _ = client.post(
                "/sessions/m/ingest", {"insertions": [[3, 1, 5.0]]}
            )
            assert status == 429
            assert (
                REGISTRY.value("repro_serve_rejected_total", kind="batch") == 1
            )
            served.resume_writer()
            t1.join(timeout=10)
            t2.join(timeout=10)
        finally:
            REGISTRY.disable().reset()


class TestKeepAliveTransport:
    """One persistent connection, as a real client (and the repo
    benchmark) uses: responses must not stall and framing must hold."""

    @pytest.fixture
    def conn(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.connect()
        yield conn
        conn.close()

    @staticmethod
    def round_trip(conn, method, path, body=None, headers=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, body=data, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response, raw

    def test_back_to_back_requests_do_not_stall(self, client, conn):
        """Regression: every keep-alive response cost ~44 ms — headers and
        body were two sends, and Nagle held the second for the client's
        delayed ACK. A 13 us express update was a 44 ms request."""
        create_http_session(client)
        sock = conn.sock

        def timed(method, path, body=None):
            t0 = time.perf_counter()
            response, raw = self.round_trip(conn, method, path, body)
            elapsed = time.perf_counter() - t0
            assert response.status == 200, raw
            # Same socket throughout: a reconnect per request hides it.
            assert conn.sock is sock
            return elapsed

        gets = [timed("GET", "/healthz") for _ in range(40)]
        posts = [
            timed(
                "POST",
                "/sessions/s/update",
                {"u": 0, "v": 3, "w": 100.0, "op": "insert"}
                if i % 2 == 0
                else {"u": 0, "v": 3, "op": "delete"},
            )
            for i in range(40)
        ]
        assert statistics.median(gets) < 0.010
        assert statistics.median(posts) < 0.010

    @pytest.mark.parametrize("path", ["/nope", "/sessions/zz/read"])
    def test_head_error_reply_has_no_body(self, conn, path):
        """Regression: the error reply ignored head_only, and its JSON body
        was read by the client as the start of the next response."""
        response, raw = self.round_trip(conn, "HEAD", path)
        assert response.status == 404
        assert int(response.headers["Content-Length"]) > 0
        assert raw == b""
        response, raw = self.round_trip(conn, "GET", "/healthz")
        assert response.status == 200
        assert json.loads(raw) == {"status": "ok", "sessions": []}

    def test_expect_100_continue_is_not_held_in_the_buffer(self, server, client):
        # curl sends Expect: 100-continue with any body over 1 KB and
        # waits for the interim response before sending it; that response
        # has no send_payload flush of its own.
        create_http_session(client)
        body = json.dumps({"insertions": [[1, 3, 0.5]]}).encode("utf-8")
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(
                b"POST /sessions/s/ingest HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(1024).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            reply = b""
            while not reply.endswith(b"}\n"):  # the JSON body's last bytes
                reply += sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["seq"] == 1

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_400_not_a_dead_thread(
        self, server, client, conn, capfd, length
    ):
        """Regression: int("abc") raised out of the handler (traceback on
        stderr, connection dropped with no reply); negatives read as
        "no body" and applied an empty batch."""
        create_http_session(client)
        response, raw = self.round_trip(
            conn,
            "POST",
            "/sessions/s/ingest",
            headers={"Content-Length": length},
        )
        assert response.status == 400
        assert json.loads(raw)["error"] == "BAD_LENGTH"
        # The request's extent is unknown, so the server says it will
        # close rather than parse whatever follows as the next request.
        assert response.headers["Connection"] == "close"
        assert "Traceback" not in capfd.readouterr().err
        # Nothing was applied, and the server still answers.
        status, read = client.get("/sessions/s/read")
        assert status == 200 and read["seq"] == 0
        status, reply = client.post(
            "/sessions/s/ingest", {"insertions": [[1, 3, 0.5]]}
        )
        assert status == 200 and reply["seq"] == 1


# ---------------------------------------------------------------------------
# Torn-read checker: the serving consistency contract under concurrency
# ---------------------------------------------------------------------------


class TestTornReads:
    """Concurrent readers must only ever observe converged snapshots.

    Ingest/update clients race each other and the readers; afterwards the
    applied-write log is replayed through an oracle host session and every
    ``(seq, digest)`` pair any reader observed must equal the oracle's
    digest at that seq. A torn read (mid-convergence state, partial numpy
    copy, wrong snapshot swap order) cannot produce a digest that matches
    the converged state for its seq.
    """

    N = 48
    INGEST_CLIENTS = 2
    BATCHES = 5
    BATCH_SIZE = 3
    UPDATES = 6
    READS = 40
    HEAVY = 1.0e9

    def _base_edges(self):
        return [
            (int(u), int(v), float(w))
            for u, v, w in generators.ensure_reachable_core(
                generators.erdos_renyi(self.N, 4 * self.N, seed=5), self.N, seed=6
            )
        ]

    def _fresh_edges(self, base, lane, count):
        """Globally fresh edges with sources ``u ≡ lane (mod 3)``."""
        existing = {(u, v) for u, v, _ in base}
        rng = np.random.default_rng(100 + lane)
        out = []
        while len(out) < count:
            u = int(rng.integers(0, self.N // 3)) * 3 + lane
            v = int(rng.integers(0, self.N))
            if u >= self.N or u == v or (u, v) in existing:
                continue
            existing.add((u, v))
            out.append((u, v, self.HEAVY))
        return out

    def test_concurrent_reads_never_torn(self):
        base = self._base_edges()
        app = ServeApp()
        server = ServeServer(app, port=0).start()
        observed = []  # (seq, digest) from every read client
        errors = []
        try:
            client = HttpClient(server.url)
            status, _ = create_http_session(client, name="t", edges=base)
            assert status == 201

            def ingest_worker(lane):
                http = HttpClient(server.url)
                edges = self._fresh_edges(
                    base, lane, self.BATCHES * self.BATCH_SIZE
                )
                try:
                    for i in range(self.BATCHES):
                        batch = edges[
                            i * self.BATCH_SIZE : (i + 1) * self.BATCH_SIZE
                        ]
                        status, _ = http.post(
                            "/sessions/t/ingest",
                            {"insertions": [list(e) for e in batch]},
                        )
                        assert status == 200
                except Exception as exc:
                    errors.append(repr(exc))

            def update_worker():
                http = HttpClient(server.url)
                try:
                    for u, v, w in self._fresh_edges(base, 2, self.UPDATES):
                        status, _ = http.post(
                            "/sessions/t/update", {"u": u, "v": v, "w": w}
                        )
                        assert status == 200
                except Exception as exc:
                    errors.append(repr(exc))

            def read_worker():
                http = HttpClient(server.url)
                try:
                    for _ in range(self.READS):
                        status, reply = http.get("/sessions/t/read")
                        assert status == 200
                        observed.append((reply["seq"], reply["digest"]))
                except Exception as exc:
                    errors.append(repr(exc))

            threads = (
                [
                    threading.Thread(target=ingest_worker, args=(lane,))
                    for lane in range(self.INGEST_CLIENTS)
                ]
                + [threading.Thread(target=update_worker)]
                + [threading.Thread(target=read_worker) for _ in range(2)]
            )
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors

            status, log = client.get("/sessions/t/log")
            assert status == 200
            applied = log["log"]
            total_ops = self.INGEST_CLIENTS * self.BATCHES + self.UPDATES
            assert [e["seq"] for e in applied] == list(range(1, total_ops + 1))
        finally:
            server.stop()

        # Oracle replay: the same writes in the same order through a plain
        # host session give the only digests any reader may have seen.
        oracle = Accelerator().load_graph(base)
        oracle.configure("sssp", source=0)
        oracle.run()
        digests = {0: state_digest(oracle.read_results())}
        for entry in applied:
            payload = entry["payload"]
            if entry["kind"] == "batch":
                oracle.push_updates(
                    insertions=[
                        (int(u), int(v), float(w))
                        for u, v, w in payload.get("insertions", [])
                    ],
                    deletions=[
                        (int(u), int(v)) for u, v in payload.get("deletions", [])
                    ],
                )
                oracle.run()
            else:
                oracle.apply_update(
                    int(payload["u"]),
                    int(payload["v"]),
                    float(payload.get("w", 1.0)),
                    op=payload.get("op", "insert"),
                )
            digests[entry["seq"]] = state_digest(oracle.read_results())
        oracle.close()

        assert observed, "read clients observed nothing"
        for seq, digest in observed:
            assert seq in digests, f"read observed unknown seq {seq}"
            assert digest == digests[seq], (
                f"TORN READ at seq {seq}: digest {digest} does not match "
                f"the converged state for that seq"
            )


class TestReadSnapshotDigest:
    def test_digest_cached_per_snapshot(self):
        states = np.array([1.0, 2.0], dtype=np.float64)
        states.setflags(write=False)
        snapshot = ReadSnapshot(seq=0, stamp=0, graph_version=0, states=states)
        assert snapshot.digest == state_digest(states)
        assert snapshot.digest is snapshot.digest  # cached, not recomputed
