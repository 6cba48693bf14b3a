"""Long-running streaming service: ``repro serve`` (§4.1 as a host daemon).

The paper's programming model assumes a host that keeps feeding the
accelerator interleaved update batches and queries for as long as the
deployment lives; every other entry point in this repo is a one-shot CLI
run. This module is that host: a stdlib-only JSON-over-HTTP server (the
same ``ThreadingHTTPServer`` substrate as :mod:`repro.obs.scrape`) that
accepts ingest batches, single-edge express updates, and read queries
from many concurrent clients over named sessions.

Concurrency model
-----------------
*Writes are serialized, reads are snapshot-isolated.* A write op (batch
or express update) runs on the handler thread that received it, through
the existing :meth:`repro.host.Session.run` /
:meth:`~repro.host.Session.apply_update` machinery, under the session's
one write lock, so the engine never sees concurrent mutation. The
handler threads blocked on that lock are the session's **bounded**
ingest queue: when ``max(1, queue_bound)`` writes already wait, the
request is rejected immediately with HTTP 429 ``QUEUE_FULL`` —
backpressure, not unbounded buffering. Concurrent writes apply in the
order they take the lock, which is not defined between connections;
one connection's requests are served one after another, so its writes
apply in the order it sent them.

After each applied write the session publishes a :class:`ReadSnapshot`:
the converged vertex states, write-protected, keyed by the store's
``mutation_stamp`` — a fresh copy, or, after an express update whose
verdict wrote no state, the previous snapshot's array and digest under
the new ``seq``. Reads grab the current snapshot reference with a
single atomic attribute load and serve from it **lock-free**: a query
never waits on an in-flight batch, and can never observe a torn,
mid-convergence state. A client that completed a write is guaranteed
to see a snapshot at least as new as its own write on a subsequent
read (writes respond only after publishing).

Time travel
-----------
Each published snapshot carries the graph version that produced it, and
the session retains the last ``keep_versions`` of them in a ring; the
ring is the whole of served history (no graph deltas are recorded).
``GET /sessions/<s>/read?version=<v>`` serves from the retained snapshot
for graph version ``v`` — still lock-free, still immutable — and answers
404 ``VERSION_EVICTED`` once retention has dropped it; a negative version
is a 400 ``BAD_VERSION``. Historical reads are counted separately from
latest reads (``repro_serve_reads_total{kind="historical"}``).

Shutdown drains: the server stops accepting new work, every write
already admitted applies (its client gets a real response), and only
then are engines/sessions closed.

Transport
---------
Connections are persistent (HTTP/1.1) and every response — status line,
headers, body — leaves in one socket write with ``TCP_NODELAY`` set:
the handler inherits :class:`repro.obs.scrape.PayloadHandler` and all
replies go through :func:`~repro.obs.scrape.send_payload`. Written as
two sends (the stdlib default) a keep-alive response stalls ~40 ms on
Nagle waiting for the client's delayed ACK, which made a 13 µs express
update a 44 ms request.

Applied-write log
-----------------
``GET /sessions/<s>/log`` returns every applied write as
``{"kind", "payload", "seq"}`` in apply order. The session keeps the
log packed — two numpy arrays per batch, one 4-tuple per update — and
rebuilds the JSON on request, so a daemon that lives for millions of
writes does not retain each request's parsed body (7.4 KB of GC-tracked
lists per 25+25 batch). The rebuilt payload is normalized: ids are
ints, weights floats, and an update's defaulted ``w``/``op`` are
spelled out.

Tracing
-------
Every HTTP request is a ``request`` span on the accelerator's tracer,
with end-of-stage marks (:mod:`repro.obs.requests`). A write applies on
the thread whose request span is open, so the engine spans the op causes
are that request's descendants. Samples that are not one request's —
reads, rejections, publishes, the session count — are ``serve.*``
events. A metrics registry on the tracer folds both into the
``repro_serve_*`` families; the ``/metrics`` and ``/metrics.json``
scrape routes of :mod:`repro.obs.scrape` are mounted on the same server.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from http.server import ThreadingHTTPServer
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.policies import DeletePolicy
from repro.host import Accelerator, HostApiError, Session
from repro.obs.metrics import REGISTRY as METRICS
from repro.obs.requests import debug_requests, end_request, mark
from repro.obs.scrape import PayloadHandler, metrics_payload, send_payload
from repro.streams import deletion_rows, finite_weight, insertion_rows, vertex_id

__all__ = [
    "DEFAULT_KEEP_VERSIONS",
    "DEFAULT_QUEUE_BOUND",
    "ReadSnapshot",
    "ServeApp",
    "ServeError",
    "ServeServer",
    "ServeSession",
]

#: Default bound of each session's ingest queue (write ops, not bytes).
DEFAULT_QUEUE_BOUND = 64

#: Default number of graph versions a serve session keeps readable via
#: ``?version=`` (snapshot ring + the host session's delta store bound).
DEFAULT_KEEP_VERSIONS = 64


class ServeError(Exception):
    """Protocol-level error carrying the HTTP status and error code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


@dataclass(frozen=True)
class ReadSnapshot:
    """One published converged state: what every read is served from.

    ``seq`` is the number of write ops applied when it was published
    (0 = the initial evaluation), ``stamp`` the graph store's
    ``mutation_stamp`` — reads report both so clients (and the torn-read
    checker in the test suite) can order what they observed.
    """

    seq: int
    stamp: int
    graph_version: int
    states: np.ndarray  # write-protected; never written once published
    _digest_cell: list = field(default_factory=list, repr=False, compare=False)

    @property
    def digest(self) -> str:
        """Content hash of the states array (torn-read verification).

        SHA-1 of ``states.tobytes()``, hashed from the array's own
        (contiguous) buffer without copying it, by the first reader of
        any snapshot over that array: every snapshot sharing the array
        shares the cached value.
        """
        cell = self._digest_cell
        if not cell:
            cell.append(hashlib.sha1(self.states.data).hexdigest())
        return cell[0]


class ServeSession:
    """One served query session: bounded write admission + snapshot publisher.

    Wraps a :class:`repro.host.Session` whose initial evaluation has
    already run. All writes go through :meth:`submit` and are applied on
    the submitting thread, one at a time under the session's write lock;
    reads go through :meth:`read_snapshot` and never touch the engine.
    """

    def __init__(
        self,
        name: str,
        session: Session,
        queue_bound: int,
        log_bound: Optional[int] = None,
        keep_versions: Optional[int] = DEFAULT_KEEP_VERSIONS,
    ):
        self.name = name
        self.session = session
        self.queue_bound = queue_bound
        if log_bound is not None and log_bound < 1:
            raise ValueError("log_bound must be >= 1 (or None for keep-all)")
        self.log_bound = log_bound
        if keep_versions is not None and keep_versions < 1:
            raise ValueError("keep_versions must be >= 1 (or None for keep-all)")
        self.keep_versions = keep_versions
        #: Retained published snapshots keyed by graph version — the
        #: ``?version=`` read path, bounded by ``keep_versions``.
        self._history: "OrderedDict[int, ReadSnapshot]" = OrderedDict()
        self._history_evicted = 0
        self._history_lock = threading.Lock()
        #: Held by the one write being applied; the writes blocked on it
        #: are the session's queue.
        self._write_lock = threading.Lock()
        #: Guards the admission counts: ``_waiting`` writes are blocked on
        #: the write lock (at most ``max(1, queue_bound)``), ``_admitted``
        #: writes are not answered yet (close waits for them).
        self._admission = threading.Condition()
        self._waiting = 0
        self._admitted = 0
        self._abandon = False
        self._applied_seq = 0
        self._reads_on_snapshot = 0
        #: Applied-write log, ``(seq, kind, packed payload)`` in apply
        #: order (see :func:`_log_entry`), so clients can audit/replay
        #: exactly what the session executed. With a log_bound it becomes
        #: a ring: the oldest prefix is dropped and counted so auditors
        #: can still anchor on seq numbers.
        self._log: deque = deque()
        self._log_dropped = 0
        self._log_lock = threading.Lock()
        self._closing = False
        self._snapshot = self._build_snapshot()
        self._remember(self._snapshot)
        # Test/ops hook: when cleared, the write holding the lock parks
        # before it applies (never mid-apply), so tests fill the queue
        # deterministically.
        self._gate = threading.Event()
        self._gate.set()

    # -- snapshot publication ------------------------------------------
    def _build_snapshot(self, kept: Optional[ReadSnapshot] = None) -> ReadSnapshot:
        """This seq's snapshot: a fresh copy, or ``kept``'s array and
        digest when no state was written since it was published."""
        if kept is None:
            states, cell = self.session.read_results(), []  # a copy: freeze it
            states.setflags(write=False)
        else:
            states, cell = kept.states, kept._digest_cell
        graph = self.session.graph
        return ReadSnapshot(
            self._applied_seq, graph.mutation_stamp, graph.version, states, cell
        )

    def _remember(self, snapshot: ReadSnapshot) -> None:
        """Retain ``snapshot`` in the version ring; evict past the bound.

        A re-published graph version (a write that didn't mutate the
        graph) replaces its predecessor — the ring holds one snapshot per
        version, newest write wins.
        """
        with self._history_lock:
            self._history[snapshot.graph_version] = snapshot
            self._history.move_to_end(snapshot.graph_version)
            if self.keep_versions is not None:
                while len(self._history) > self.keep_versions:
                    self._history.popitem(last=False)
                    self._history_evicted += 1

    def read_snapshot(self) -> ReadSnapshot:
        """The latest published converged snapshot (lock-free)."""
        snapshot = self._snapshot  # single atomic attribute load
        self._reads_on_snapshot += 1  # stats-only; benign race
        tracer = self.session.tracer
        if tracer.enabled:
            tracer.event("serve.read", kind="latest")
        return snapshot

    def read_version(self, version: int) -> ReadSnapshot:
        """A retained historical snapshot for graph ``version``.

        Raises 400 ``BAD_VERSION`` for a negative version, 404
        ``NO_VERSION`` for one newer than anything published, and 404
        ``VERSION_EVICTED`` for one the retention bound has dropped.
        """
        if version < 0:
            raise ServeError(
                400, "BAD_VERSION", f"version must be >= 0, got {version}"
            )
        latest = self._snapshot
        with self._history_lock:
            snapshot = self._history.get(version)
            oldest = next(iter(self._history), None)
        if snapshot is None:
            if version > latest.graph_version:
                raise ServeError(
                    404,
                    "NO_VERSION",
                    f"version {version} not published yet "
                    f"(latest is {latest.graph_version})",
                )
            raise ServeError(
                404,
                "VERSION_EVICTED",
                f"version {version} evicted by retention "
                f"(keep_versions={self.keep_versions}, oldest retained "
                f"{oldest})",
            )
        tracer = self.session.tracer
        if tracer.enabled:
            tracer.event("serve.read", kind="historical")
        return snapshot

    # -- write path ----------------------------------------------------
    def submit(self, kind: str, payload: dict) -> dict:
        """Apply one write op on the calling thread and return its reply.

        Writes apply one at a time under the session's write lock, in
        the order they take it; the caller's open span (its request span
        when served over HTTP) parents the engine work and carries the
        queued/apply/publish stage marks. Raises :class:`ServeError` 429
        immediately when ``max(1, queue_bound)`` writes already wait
        (backpressure) and 409 when the session is closing.
        """
        tracer = self.session.tracer
        submitted_at = perf_counter()
        with self._admission:
            if self._closing:
                raise ServeError(409, "CLOSING", "session is shutting down")
            if self._waiting >= max(1, self.queue_bound):
                if tracer.enabled:
                    tracer.event("serve.reject", kind=kind)
                raise ServeError(
                    429,
                    "QUEUE_FULL",
                    f"ingest queue at bound ({self.queue_bound}); retry later",
                )
            self._waiting += 1
            self._admitted += 1
        try:
            with self._write_lock:
                with self._admission:
                    self._waiting -= 1
                if self._abandon:
                    raise ServeError(409, "CLOSING", "session closed before apply")
                self._gate.wait()
                try:
                    return self._apply(kind, payload, submitted_at)
                except ServeError:
                    raise
                except (HostApiError, ValueError) as exc:
                    raise ServeError(409, "REJECTED", str(exc)) from exc
                except Exception as exc:  # engine invariant violation: surface
                    traceback.print_exc()
                    raise ServeError(500, "INTERNAL", repr(exc)) from exc
        finally:
            with self._admission:
                self._admitted -= 1
                self._admission.notify_all()

    def _apply(self, kind: str, payload: dict, submitted_at: float) -> dict:
        tracer = self.session.tracer
        span = tracer.current()
        # End of the queued stage: the op waited for the write lock (and
        # any gate pause) from its parse mark until now.
        mark(span, "queued")
        previous, stamp = self._snapshot, self.session.graph.mutation_stamp
        applied, packed, wrote_states = self._apply_op(kind, payload, span)
        self._applied_seq += 1
        retired_reads, self._reads_on_snapshot = self._reads_on_snapshot, 0
        # A failed write that moved the store since ``previous`` staled it.
        kept = None if wrote_states or previous.stamp != stamp else previous
        self._snapshot = snapshot = self._build_snapshot(kept)
        self._remember(snapshot)
        applied.update(seq=snapshot.seq, stamp=snapshot.stamp)
        with self._log_lock:
            self._log.append((snapshot.seq, kind, packed))
            if self.log_bound is not None:
                while len(self._log) > self.log_bound:
                    self._log.popleft()
                    self._log_dropped += 1
        if tracer.enabled:
            tracer.event(
                "serve.publish",
                kind=kind,
                latency_s=perf_counter() - submitted_at,
                queue_depth=self._waiting,
                reads=retired_reads,
            )
        mark(span, "publish")
        return applied

    def _apply_op(self, kind: str, payload: dict, span) -> Tuple[dict, tuple, bool]:
        """Apply one op; returns the reply, its packed log payload and
        whether it may have written a state (a safe express verdict
        writes exactly its ``state_updates``)."""
        session = self.session
        if kind == "batch":
            # handle_ingest already converted the JSON lists; the same
            # arrays are staged, applied and logged.
            insertions, deletions = _batch_arrays(payload)
            session.push_updates(insertions=insertions, deletions=deletions)
            result = session.run()
            events = int(result.metrics.events_processed)
            mark(span, "apply", events_processed=events)
            applied: dict = {
                "kind": "batch",
                "insertions": len(insertions),
                "deletions": len(deletions),
                "events_processed": events,
            }
            packed: tuple = (insertions, deletions)
            wrote_states = True
        elif kind == "update":
            u, v, w, edge_op = packed = (
                vertex_id(payload["u"]),
                vertex_id(payload["v"]),
                finite_weight(payload.get("w", 1.0)),
                payload.get("op", "insert"),
            )
            t_apply = perf_counter()
            express = session.apply_update(u, v, w, op=edge_op)
            # Carve the classify stage out of the apply window using the
            # express lane's own split; the rest of the window is the safe
            # apply or the engine fallthrough.
            mark(span, "classify", t_apply + express.classify_s)
            mark(span, "apply", safe=express.safe, reason=express.reason)
            applied = {
                "kind": "update",
                "op": express.op,
                "safe": express.safe,
                "reason": express.reason,
                "express_latency_s": express.latency_s,
            }
            wrote_states = not express.safe or bool(express.state_updates)
        else:  # pragma: no cover - submit() only produces the two kinds
            raise ServeError(400, "BAD_KIND", f"unknown write kind {kind!r}")
        return applied, packed, wrote_states

    # -- introspection -------------------------------------------------
    def queue_depth(self) -> int:
        """Write ops waiting for the write lock (not the one holding it)."""
        return self._waiting

    def applied_log(self) -> dict:
        """The applied-write log plus the count of dropped-prefix entries.

        ``log`` holds the retained entries in apply order; ``dropped`` is
        how many oldest entries the ring bound evicted (0 when unbounded),
        so an auditor knows the first retained entry's position in the
        full write history.
        """
        with self._log_lock:
            entries, dropped = list(self._log), self._log_dropped
        return {"log": [_log_entry(*e) for e in entries], "dropped": dropped}

    def stats(self) -> dict:
        snapshot = self._snapshot
        transfers = self.session.transfer_stats()
        return {
            "session": self.name,
            "algorithm": self.session._engine.algorithm.name
            if self.session._engine is not None
            else None,
            "queue_depth": self.queue_depth(),
            "queue_bound": self.queue_bound,
            "log_bound": self.log_bound,
            "log_dropped": self._log_dropped,
            "applied_seq": snapshot.seq,
            "snapshot_stamp": snapshot.stamp,
            "graph_version": snapshot.graph_version,
            "history": {
                "keep_versions": self.keep_versions,
                "versions_held": len(self._history),
                "evicted": self._history_evicted,
            },
            "num_vertices": self.session.graph.num_vertices,
            "num_edges": self.session.graph.num_edges,
            "express": self.session.express_stats(),
            "transfers": {
                "graph_uploads": transfers.graph_uploads,
                "update_records": transfers.update_records,
                "results_read": transfers.results_read,
            },
            "store": self.session.graph_store_stats(),
        }

    # -- lifecycle / test hooks ----------------------------------------
    def pause_writer(self) -> None:
        """Park the next write to take the lock before it applies
        (deterministic backpressure tests)."""
        self._gate.clear()

    def resume_writer(self) -> None:
        self._gate.set()

    def close(self, drain: bool = True) -> None:
        """Refuse new writes, answer the admitted ones, release the session.

        ``drain=True`` (the default, and what shutdown uses) lets every
        admitted write apply and answer its client before the session is
        torn down; ``drain=False`` fails the writes still waiting for the
        lock with a 409, while the one holding it completes.
        """
        with self._admission:
            if self._closing:
                return
            self._closing = True
            self._abandon = not drain
            self._gate.set()
            self._admission.wait_for(lambda: self._admitted == 0, timeout=60.0)
        self.session.close()


def _batch_arrays(payload: dict) -> Tuple[np.ndarray, np.ndarray]:
    """An ingest payload as the host API's arrays, converted once.

    ``insertions`` become ``(n, 3)`` float64 ``(u, v, w)`` rows and
    ``deletions`` ``(m, 2)`` int64 keys (arrays pass through). Raises 400
    ``BAD_BATCH`` for malformed rows and for vertex ids that are not
    non-negative integers, JSON ``1.7`` and ``true`` included — ``int()``
    would quietly read them as vertex 1.
    """
    rows = payload.get("insertions", [])
    keys = payload.get("deletions", [])
    try:
        for updates in (rows, keys):
            if not isinstance(updates, np.ndarray) and any(
                type(x) is bool for row in updates for x in row[:2]
            ):
                raise ValueError("vertex ids must be integers, not booleans")
        return insertion_rows(rows), deletion_rows(keys)[0]
    except (TypeError, ValueError) as exc:
        raise ServeError(400, "BAD_BATCH", str(exc)) from None


def _log_entry(seq: int, kind: str, packed: tuple) -> dict:
    """One applied-write log entry as JSON, rebuilt from its packed form.

    A batch is packed as an ``(n, 3)`` float64 insertion array plus an
    ``(m, 2)`` int64 deletion array, an update as ``(u, v, w, op)``.
    """
    if kind == "batch":
        insertions, deletions = packed
        payload: dict = {
            "insertions": [
                [int(u), int(v), w] for u, v, w in insertions.tolist()
            ],
            "deletions": deletions.tolist(),
        }
    else:
        u, v, w, op = packed
        payload = {"u": u, "v": v, "w": w, "op": op}
    return {"kind": kind, "payload": payload, "seq": seq}


class ServeApp:
    """Session registry + request router (transport-independent core).

    The HTTP layer (:class:`ServeServer`) is a thin translation onto this
    object; tests can drive it directly without sockets.
    """

    def __init__(
        self,
        accelerator: Optional[Accelerator] = None,
        queue_bound: int = DEFAULT_QUEUE_BOUND,
        log_bound: Optional[int] = None,
    ):
        self.accelerator = accelerator or Accelerator()
        self.queue_bound = queue_bound
        self.log_bound = log_bound
        self.sessions: Dict[str, ServeSession] = {}
        self._lock = threading.Lock()  # registry mutation only
        self._names = itertools.count()
        self._closed = False

    # -- session lifecycle ---------------------------------------------
    def create_session(
        self,
        edges,
        algorithm: str,
        name: Optional[str] = None,
        source: int = 0,
        policy: str = DeletePolicy.DAP.value,
        num_engines: Optional[int] = None,
        symmetric: bool = False,
        num_vertices: int = 0,
        queue_bound: Optional[int] = None,
        log_bound: Optional[int] = None,
        keep_versions: Optional[int] = DEFAULT_KEEP_VERSIONS,
    ) -> ServeSession:
        """Load a graph, run the initial evaluation, register the session.

        ``edges`` is an ``(n, 3)`` array or a list of ``[u, v, w]`` rows
        (the JSON body). A refused create closes the session it loaded,
        so neither registry keeps it.
        """
        if self._closed:
            raise ServeError(409, "CLOSING", "server is shutting down")
        for field, value in (("algorithm", algorithm), ("policy", policy)):
            if not isinstance(value, str):
                raise ServeError(
                    400, "BAD_SESSION", f"{field!r} must be a string, got {value!r}"
                )
        if keep_versions is not None and keep_versions < 1:
            raise ServeError(400, "BAD_SESSION", "keep_versions must be >= 1")
        session = None
        try:
            try:
                # An array, not the request's lists: the store's index then
                # owns fresh ids and the lists are freed whole (an index that
                # shared the JSON ints kept the daemon's peak RSS ~7% higher).
                session = self.accelerator.load_graph(
                    insertion_rows(edges),
                    num_vertices=num_vertices,
                    symmetric=symmetric,
                )
                session.configure(
                    algorithm,
                    source=source,
                    policy=DeletePolicy(policy),
                    num_engines=num_engines,
                )
                session.run()  # initial evaluation: serve needs a converged state
            except (HostApiError, ValueError, KeyError) as exc:
                raise ServeError(400, "BAD_SESSION", str(exc))
            with self._lock:
                if name is None:
                    name = f"s{next(self._names)}"
                if name in self.sessions:
                    raise ServeError(409, "EXISTS", f"session {name!r} already open")
                served = ServeSession(
                    name,
                    session,
                    queue_bound if queue_bound is not None else self.queue_bound,
                    log_bound=log_bound if log_bound is not None else self.log_bound,
                    keep_versions=keep_versions,
                )
                self.sessions[name] = served
        except BaseException:
            # A refused create must not leave its graph registered.
            if session is not None:
                session.close()
            raise
        self._count_sessions()
        return served

    def get_session(self, name: str) -> ServeSession:
        served = self.sessions.get(name)
        if served is None:
            raise ServeError(404, "NO_SESSION", f"no session {name!r}")
        return served

    def close_session(self, name: str, drain: bool = True) -> None:
        with self._lock:
            served = self.sessions.pop(name, None)
        if served is None:
            raise ServeError(404, "NO_SESSION", f"no session {name!r}")
        served.close(drain=drain)
        self._count_sessions()

    def _count_sessions(self) -> None:
        tracer = self.accelerator.tracer
        if tracer.enabled:
            tracer.event("serve.sessions", count=len(self.sessions))

    def close(self, drain: bool = True) -> None:
        """Drain and close every session, then the accelerator."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            sessions = list(self.sessions.values())
            self.sessions.clear()
        for served in sessions:
            served.close(drain=drain)
        self.accelerator.close()

    # -- request handlers ----------------------------------------------
    def handle_read(
        self,
        name: str,
        vertices: Optional[List[int]] = None,
        version: Optional[int] = None,
    ) -> dict:
        """Serve a read from a published snapshot (lock-free).

        ``version=None`` reads the latest snapshot; an explicit version
        is a time-travel read from the retained ring (404
        ``VERSION_EVICTED`` once retention dropped it).
        """
        served = self.get_session(name)
        if version is None:
            snapshot = served.read_snapshot()
        else:
            snapshot = served.read_version(int(version))
        reply: dict = {
            "session": name,
            "seq": snapshot.seq,
            "stamp": snapshot.stamp,
            "graph_version": snapshot.graph_version,
            "historical": version is not None,
            "num_vertices": int(snapshot.states.shape[0]),
            "digest": snapshot.digest,
        }
        if vertices is not None:
            n = snapshot.states.shape[0]
            values = {}
            for v in vertices:
                v = int(v)
                if not 0 <= v < n:
                    raise ServeError(
                        400, "BAD_VERTEX", f"vertex {v} out of range [0, {n})"
                    )
                values[str(v)] = float(snapshot.states[v])
            reply["values"] = values
        return reply

    def handle_ingest(self, name: str, payload: dict) -> dict:
        served = self.get_session(name)
        insertions, deletions = _batch_arrays(payload)  # 400 before queueing
        return served.submit(
            "batch", {"insertions": insertions, "deletions": deletions}
        )

    def handle_update(self, name: str, payload: dict) -> dict:
        for key in ("u", "v"):
            if key not in payload:
                raise ServeError(400, "BAD_UPDATE", f"missing field {key!r}")
        try:
            vertex_id(payload["u"]), vertex_id(payload["v"])
            finite_weight(payload.get("w", 1.0))
        except ValueError as exc:
            raise ServeError(400, "BAD_UPDATE", str(exc)) from None
        if payload.get("op", "insert") not in ("insert", "delete"):
            raise ServeError(400, "BAD_UPDATE", "op must be insert|delete")
        return self.get_session(name).submit("update", payload)

    def healthz(self) -> dict:
        return {
            "status": "draining" if self._closed else "ok",
            "sessions": sorted(self.sessions),
        }


class _ServeHandler(PayloadHandler):
    """Routes: the JSON-over-HTTP protocol (see docs/architecture.md).

    ======  ==============================  =====================================
    method  path                            action
    ======  ==============================  =====================================
    GET     /healthz                        liveness + open session names
    GET     /metrics, /metrics.json         shared scrape routes (registry)
    GET     /debug/requests                 slow-request ring + stage histograms
    POST    /sessions                       create session (graph + algorithm)
    GET     /sessions/<s>/read              snapshot read (never blocks on writes)
                [?vertices=][&version=]     version= = time-travel read (ring)
    GET     /sessions/<s>/stats             queue depth, transfers, express stats
    GET     /sessions/<s>/log               applied-write log (apply order)
    POST    /sessions/<s>/ingest            update batch (429 when too many wait)
    POST    /sessions/<s>/update            single express update (429 likewise)
    POST    /sessions/<s>/close             drain + close one session
    POST    /shutdown                       drain all sessions, stop the server
    ======  ==============================  =====================================
    """

    app: ServeApp  # set on the per-server subclass
    server_ref: "ServeServer"

    # -- plumbing ------------------------------------------------------
    def _reply(self, status: int, payload: dict, head_only: bool = False) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        send_payload(self, status, "application/json", body, head_only)

    def _read_json(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError(raw_length)
        except ValueError:
            # Where this request ends on the wire is unknown: answer, then
            # drop the connection instead of parsing its body as a request.
            self.close_connection = True
            raise ServeError(
                400, "BAD_LENGTH", f"bad Content-Length {raw_length!r}"
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(400, "BAD_JSON", f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise ServeError(400, "BAD_JSON", "request body must be an object")
        return payload

    def _route(self, method: str, head_only: bool = False) -> None:
        tracer = self.app.accelerator.tracer
        span = tracer.start("request", method=method, path=self.path)
        path, _, query = self.path.partition("?")
        route, status = "unknown", 200
        try:
            if method == "GET" and path in ("/metrics", "/metrics.json"):
                # Shared scrape routes, mounted on the serving port.
                route = "metrics"
                ctype, body = metrics_payload(METRICS, path)
                send_payload(self, 200, ctype, body, head_only)
            else:
                parts = [p for p in path.split("/") if p]
                route, status, payload = self._dispatch(
                    method, path, parts, query, span
                )
                self._reply(status, payload, head_only)
        except ServeError as exc:
            status = exc.status
            self._reply(status, {"error": exc.code, "message": exc.message}, head_only)
        except (BrokenPipeError, ConnectionResetError):
            status = 499  # client went away mid-request
            self.close_connection = True
        except Exception as exc:  # a handler bug: log it, answer it, keep serving
            traceback.print_exc()
            status = 500
            self._reply(status, {"error": "INTERNAL", "message": repr(exc)}, head_only)
        finally:
            if span is not None:
                if status != 499:
                    mark(span, "respond")
                end_request(tracer, span, route, status)

    def _dispatch(
        self, method: str, path: str, parts: List[str], query: str, span
    ) -> Tuple[str, int, dict]:
        app = self.app
        if method == "GET":
            if path in ("/healthz", "/"):
                return "healthz", 200, app.healthz()
            if path == "/debug/requests":
                return "debug", 200, debug_requests(app.accelerator.tracer)
            if len(parts) == 3 and parts[0] == "sessions":
                name, action = parts[1], parts[2]
                if action == "read":
                    vertices = _parse_vertices(query)
                    version = _parse_version(query)
                    mark(span, "parse", session=name)
                    reply = app.handle_read(name, vertices, version=version)
                    mark(span, "snapshot")
                    return "read", 200, reply
                if action == "stats":
                    return "stats", 200, app.get_session(name).stats()
                if action == "log":
                    return "log", 200, {
                        "session": name,
                        **app.get_session(name).applied_log(),
                    }
        elif method == "POST":
            if path == "/sessions":
                body = self._read_json()
                mark(span, "parse")
                if "edges" not in body or "algorithm" not in body:
                    raise ServeError(
                        400, "BAD_SESSION", "need 'edges' and 'algorithm'"
                    )
                if "engine" in body:
                    # A silently ignored "sharded" would drop the client's
                    # per-engine accounting, so the old field is refused.
                    raise ServeError(
                        400,
                        "BAD_SESSION",
                        "'engine' is no longer a session field; send "
                        "'num_engines' for per-engine accounting, or omit it",
                    )
                # keep_versions: absent -> default ring, 0/null -> unbounded.
                keep_versions = (
                    _int_field(body, "keep_versions", None)
                    if "keep_versions" in body
                    else DEFAULT_KEEP_VERSIONS
                )
                log_bound = _int_field(body, "log_bound", None)
                if log_bound is not None and log_bound < 1:
                    raise ServeError(
                        400, "BAD_SESSION", f"'log_bound' must be >= 1, got {log_bound}"
                    )
                served = app.create_session(
                    body["edges"],
                    body["algorithm"],
                    name=body.get("name"),
                    source=_int_field(body, "source", 0),
                    policy=body.get("policy", DeletePolicy.DAP.value),
                    num_engines=_int_field(body, "num_engines", None),
                    symmetric=bool(body.get("symmetric", False)),
                    num_vertices=_int_field(body, "num_vertices", 0),
                    queue_bound=_int_field(body, "queue_bound", None),
                    log_bound=log_bound,
                    keep_versions=keep_versions or None,
                )
                mark(span, "apply", session=served.name)
                stats = served.stats()
                return "session", 201, {
                    "session": served.name,
                    "num_vertices": stats["num_vertices"],
                    "num_edges": stats["num_edges"],
                    "seq": stats["applied_seq"],
                }
            if path == "/shutdown":
                self.server_ref.request_shutdown()
                return "shutdown", 200, {"status": "draining"}
            if len(parts) == 3 and parts[0] == "sessions":
                name, action = parts[1], parts[2]
                if action == "ingest":
                    body = self._read_json()
                    mark(span, "parse", session=name)
                    return "ingest", 200, app.handle_ingest(name, body)
                if action == "update":
                    body = self._read_json()
                    mark(span, "parse", session=name)
                    return "update", 200, app.handle_update(name, body)
                if action == "close":
                    app.close_session(name)
                    return "session", 200, {"session": name, "closed": True}
        raise ServeError(404, "NO_ROUTE", f"no route {method} {path}")

    def do_GET(self):  # noqa: N802 (http.server API)
        self._route("GET")

    def do_HEAD(self):  # noqa: N802
        self._route("GET", head_only=True)

    def do_POST(self):  # noqa: N802
        self._route("POST")


def _parse_vertices(query: str) -> Optional[List[int]]:
    for part in query.split("&"):
        if part.startswith("vertices="):
            raw = part[len("vertices="):]
            if not raw:
                return []
            try:
                return [int(v) for v in raw.split(",")]
            except ValueError:
                raise ServeError(
                    400, "BAD_VERTEX", "vertices must be comma-separated ints"
                )
    return None


def _int_field(body: dict, field: str, default: Optional[int]) -> Optional[int]:
    """``body[field]`` as an int, ``default`` when absent or null.

    A value ``int()`` refuses (``"many"``, ``[1]``) is a 400 that names
    the field, not an exception out of the handler. So are the values it
    would silently change: ``true`` (1) and a non-integral float (``2.7``
    would become 2).
    """
    value = body.get(field)
    if value is None:
        return default
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError(value)
        return int(value)
    except (TypeError, ValueError):
        raise ServeError(
            400, "BAD_SESSION", f"{field!r} must be an integer, got {value!r}"
        )


def _parse_version(query: str) -> Optional[int]:
    for part in query.split("&"):
        if part.startswith("version="):
            raw = part[len("version="):]
            try:
                return int(raw)
            except ValueError:
                raise ServeError(
                    400, "BAD_VERSION", "version must be an integer"
                )
    return None


class ServeServer:
    """The HTTP front end: ``ThreadingHTTPServer`` over a :class:`ServeApp`.

    Usage (also what ``repro serve`` does)::

        app = ServeApp(queue_bound=64)
        with ServeServer(app, port=8800) as server:
            server.serve_until_shutdown()   # Ctrl-C or POST /shutdown

    Requests are handled on per-connection threads; a write handler
    applies its op under the session's write lock (a bounded number may
    wait for it), read handlers return immediately from the published
    snapshot.
    """

    def __init__(self, app: ServeApp, port: int = 0, host: str = "127.0.0.1"):
        self.app = app
        self.host = host
        self._requested_port = port
        self._bound_port: Optional[int] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._shutdown_requested = threading.Event()

    @property
    def port(self) -> int:
        if self._server is not None:
            return self._server.server_address[1]
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServeServer":
        if self._server is not None:
            return self
        handler = type(
            "_BoundServeHandler",
            (_ServeHandler,),
            {"app": self.app, "server_ref": self},
        )
        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._bound_port = self._server.server_address[1]
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def request_shutdown(self) -> None:
        """Signal :meth:`serve_until_shutdown` to drain and stop."""
        self._shutdown_requested.set()

    def serve_until_shutdown(self, poll_s: float = 0.2) -> None:
        """Block until ``POST /shutdown`` or KeyboardInterrupt, then drain."""
        try:
            while not self._shutdown_requested.wait(poll_s):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful stop: close the listener, then drain every session."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._server = None
        self._thread = None
        self.app.close(drain=True)

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
