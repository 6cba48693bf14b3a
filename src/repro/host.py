"""Host-side co-processor API (§4.1).

The paper's accelerator "is designed to work alongside a host as an
ASIC/FPGA-based co-processor with dedicated DRAM memory": the host
allocates and initializes the graph and initial events in accelerator
memory via a provided API, kicks off computation, is alerted on completion,
and reads the state back. :class:`Accelerator` reproduces that programming
model as the highest-level entry point of the library:

    accel = Accelerator()
    session = accel.load_graph(edges)
    session.configure(algorithm="sssp", source=0)
    session.run()                       # initial evaluation
    session.push_updates(insertions=[(2, 0, 1.0)], deletions=[(0, 1)])
    session.run()                       # incremental re-evaluation
    distances = session.read_results()

A batch crosses the API as arrays — ``(n, 3)`` float64 ``(u, v, w)``
insertion rows and ``(m, 2)`` int64 ``(u, v)`` deletion keys — and stays
one :class:`~repro.streams.UpdateBatch` down to the graph store's CSR
splice; a tuple list is converted once at :meth:`Session.push_updates`.

The facade also tracks the host<->accelerator transfer volumes (graph CSR
upload, batch records, result read-back) the way a driver would, exposing
them through :meth:`Session.transfer_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms import make_algorithm
from repro.algorithms.base import ExpressResult
from repro.core.config import AcceleratorConfig
from repro.core.policies import DeletePolicy
from repro.core.fastpath import EXPRESS_STAT_KEYS, ExpressLane
from repro.core.streaming import (
    JetStreamEngine,
    MultiVersionResult,
    StreamingResult,
    evaluate_at_versions,
)
from repro.graph.csr import EDGE_ENTRY_BYTES, VERTEX_STATE_BYTES
from repro.graph.dynamic import DeltaVersionStore, DynamicGraph, build_symmetric_graph
from repro.obs.tracer import NULL_TRACER
from repro.streams import UpdateBatch

EdgeTuple = Tuple[int, int, float]


class HostApiError(RuntimeError):
    """Raised when the host protocol is violated (e.g. run before load)."""


@dataclass
class TransferStats:
    """Host <-> accelerator DMA volumes (bytes)."""

    graph_uploads: int = 0
    update_records: int = 0
    results_read: int = 0

    @property
    def total(self) -> int:
        return self.graph_uploads + self.update_records + self.results_read


class Session:
    """One query session on the accelerator."""

    def __init__(self, accelerator: "Accelerator", graph: DynamicGraph):
        self._accelerator = accelerator
        self._graph = graph
        self._engine: Optional[JetStreamEngine] = None
        self._pending: Optional[UpdateBatch] = None
        self._last_result: Optional[StreamingResult] = None
        self._express: Optional[ExpressLane] = None
        self._version_store: Optional[DeltaVersionStore] = None
        self._closed = False
        self.transfers = TransferStats()
        # Initial CSR upload: out + in structures plus vertex states.
        upload = 2 * graph.num_edges * EDGE_ENTRY_BYTES
        upload += graph.num_vertices * VERTEX_STATE_BYTES
        self._account_transfer("graph_uploads", upload)

    @property
    def tracer(self):
        """The accelerator's observability hook (NULL_TRACER when off)."""
        return self._accelerator.tracer

    def _require_open(self) -> None:
        if self._closed:
            raise HostApiError("session is closed; open a new one with load_graph()")

    def _account_transfer(self, direction: str, nbytes: int) -> None:
        setattr(self.transfers, direction, getattr(self.transfers, direction) + nbytes)
        tracer = self._accelerator.tracer
        if tracer.enabled:
            tracer.event("transfer", direction=direction, bytes=nbytes)

    # ------------------------------------------------------------------
    def configure(
        self,
        algorithm: str,
        source: int = 0,
        policy: DeletePolicy = DeletePolicy.DAP,
        num_engines: Optional[int] = None,
        **algorithm_kwargs,
    ) -> "Session":
        """Bind the application (Reduce/Propagate pair) to the session.

        ``num_engines=None`` (default) runs one engine; ``num_engines=n``
        also reports the per-engine work and NoC traffic of ``n`` graph
        slices (Table 1, §4.7). ``n`` may not exceed the vertex count:
        partitioning and every round cost O(n), so the count is capped
        (``ValueError``) before it can stall the host.

        Reconfiguring an already-run session starts a fresh query: the next
        :meth:`run` is an initial evaluation on the current graph, and
        :meth:`read_results` is refused until it happens. A staged
        (un-run) batch blocks reconfiguration — run or it would be lost.
        """
        self._require_open()
        if self._pending is not None:
            raise HostApiError(
                "cannot reconfigure with a staged update batch; run() it "
                "first (the batch would otherwise be silently dropped)"
            )
        if num_engines is not None and num_engines > max(1, self._graph.num_vertices):
            raise ValueError(
                f"num_engines={num_engines} exceeds the graph's "
                f"{self._graph.num_vertices} vertices"
            )
        algo = make_algorithm(algorithm, source=source, **algorithm_kwargs)
        if algo.needs_symmetric and not self._graph.symmetric:
            raise HostApiError(
                f"{algorithm} needs a symmetric graph; pass symmetric=True "
                "to Accelerator.load_graph"
            )
        self._engine = JetStreamEngine(
            self._graph,
            algo,
            config=self._accelerator.config,
            policy=policy,
            num_engines=num_engines,
            tracer=self._accelerator.tracer,
        )
        # A new engine has no results: drop the previous query's state so
        # run() performs the initial evaluation instead of demanding a
        # batch for an engine that never ran initial_compute().
        self._last_result = None
        self._express = None
        return self

    def enable_versioning(
        self, keep_versions: Optional[int] = None
    ) -> "Session":
        """Start recording graph versions for time-travel queries.

        From this point every applied batch (:meth:`run`) and express
        single (:meth:`apply_update`) records the graph's new version in a
        :class:`~repro.graph.dynamic.DeltaVersionStore` — the per-vertex run
        pointers that changed — making historical versions reconstructible
        and enabling :meth:`run_at_versions`. ``keep_versions`` bounds
        retention (the oldest versions are scattered into the base and
        report ``KeyError``); ``None`` keeps all. Re-enabling rebases the
        store on the current version.
        """
        self._require_open()
        self._version_store = DeltaVersionStore(
            self._graph, keep_versions=keep_versions
        )
        return self

    @property
    def version_store(self) -> Optional[DeltaVersionStore]:
        """The delta version store (None until :meth:`enable_versioning`)."""
        return self._version_store

    def push_updates(
        self,
        insertions: Union[np.ndarray, Sequence[EdgeTuple]] = (),
        deletions: Union[np.ndarray, Sequence[Tuple[int, int]]] = (),
    ) -> "Session":
        """Stage a batch of streaming updates for the next :meth:`run`.

        ``insertions`` is an ``(n, 3)`` float64 array of ``(u, v, w)`` rows
        and ``deletions`` an ``(m, 2)`` int64 array of ``(u, v)`` keys, used
        as given; tuple lists are converted once here. Raises
        ``ValueError`` for a vertex id that is not a non-negative integer
        (``1.7``, ``-1``, a boolean array). The batch is checked against
        the graph at :meth:`run`: a delete of a missing edge or an insert
        of a live one (unless the batch also deletes it — the
        weight-change idiom) raises there and leaves graph and results
        untouched. Refused before :meth:`configure` (nothing could run the
        batch) and after :meth:`close`.
        """
        self._require_open()
        if self._engine is None:
            raise HostApiError("configure() the session before push_updates()")
        if self._pending is not None:
            raise HostApiError("a batch is already staged; run() it first")
        self._pending = UpdateBatch(insertions, deletions)
        self._account_transfer(
            "update_records",
            self._pending.size * self._accelerator.config.stream_record_bytes,
        )
        return self

    def run(self) -> StreamingResult:
        """Run the accelerator: initial evaluation, or the staged batch."""
        self._require_open()
        if self._engine is None:
            raise HostApiError("configure() the session before run()")
        if self._last_result is None:
            self._last_result = self._engine.initial_compute()
        else:
            if self._pending is None:
                raise HostApiError("no staged updates; push_updates() first")
            batch, self._pending = self._pending, None
            self._last_result = self._engine.apply_batch(batch)
            # The host swaps a fresh CSR pointer after each batch (§4.7).
            self._account_transfer("graph_uploads", 2 * batch.size * EDGE_ENTRY_BYTES)
            if self._version_store is not None:
                self._version_store.record()
        return self._last_result

    def run_at_versions(
        self, v_lo: int, v_hi: Optional[int] = None
    ) -> MultiVersionResult:
        """Evaluate the configured query at every retained version in range.

        Reconstructs the snapshots ``v_lo..v_hi`` (inclusive; ``v_hi``
        defaults to the current version) via the delta version store,
        extracts their common edge set, converges the query on it *once*,
        and fans out one addition-only pass per version — the CommonGraph
        work-sharing conversion amortized across snapshots. Selective
        algorithms share the prefix; accumulative ones fall back to
        independent cold evaluations (``result.shared`` says which
        happened). Requires :meth:`enable_versioning` and a configured
        session.
        """
        self._require_open()
        if self._engine is None:
            raise HostApiError("configure() the session before run_at_versions()")
        if self._version_store is None:
            raise HostApiError(
                "enable_versioning() before run_at_versions() — no version "
                "history is being recorded"
            )
        if self._pending is not None:
            raise HostApiError(
                "a batch is staged; run() it before run_at_versions()"
            )
        if v_hi is None:
            v_hi = self._graph.version
        versions = [
            v for v in self._version_store.versions() if v_lo <= v <= v_hi
        ]
        if not versions:
            raise HostApiError(
                f"no retained versions in [{v_lo}, {v_hi}]; retained: "
                f"{self._version_store.versions()}"
            )
        result = evaluate_at_versions(
            self._version_store,
            self._engine.algorithm,
            versions,
            config=self._accelerator.config,
            num_engines=self._engine.core.num_engines,
            tracer=self._accelerator.tracer,
        )
        for ver in result.versions:
            self._account_transfer(
                "results_read",
                result.states[ver].shape[0] * VERTEX_STATE_BYTES,
            )
        return result

    def apply_update(
        self, u: int, v: int, w: float = 1.0, op: str = "insert"
    ) -> ExpressResult:
        """Apply one edge update on the express lane (sub-batch latency).

        Classifies the insert/delete against the converged state: safe
        updates are absorbed with an O(degree) check and at most one state
        write, cascading inserts and (DAP) unsupported deletes with a
        bounded local repair; the rest transparently run as a single-edge
        batch on the engine. Requires a converged state — :meth:`configure` *and* an
        initial :meth:`run` must have happened — and refuses to overtake a
        staged batch (the stream order would silently invert).
        """
        self._require_open()
        if self._engine is None:
            raise HostApiError("configure() the session before apply_update()")
        if self._last_result is None:
            raise HostApiError(
                "apply_update() needs a converged state to classify "
                "against; run() the initial evaluation first"
            )
        if self._pending is not None:
            raise HostApiError(
                "a batch is staged; run() it before apply_update() "
                "(the single update would overtake the batch in the stream)"
            )
        if self._express is None:
            self._express = ExpressLane(self._engine)
        self._account_transfer(
            "update_records", self._accelerator.config.stream_record_bytes
        )
        result = self._express.apply(u, v, w, op)
        if self._version_store is not None:
            # Both express paths (safe absorb and engine fallthrough) bump
            # the graph version by one; record it so time-travel reads see
            # express traffic too.
            self._version_store.record()
        if result.engine_result is not None:
            self._last_result = result.engine_result
            # The fallthrough ran as a one-edge batch on the engine, which
            # swaps a fresh CSR pointer exactly like run() does — mirror its
            # per-batch upload record so transfer accounting stays identical
            # between the two paths for the same update.
            self._account_transfer("graph_uploads", 2 * EDGE_ENTRY_BYTES)
        return result

    def express_stats(self) -> dict:
        """Express-lane counters: safe applies (``local_repairs`` of them
        repaired locally) and engine fallthroughs.

        ``resyncs`` is always 0 (the lane reads the store directly and
        keeps no copy to re-synchronize); the key stays for its readers.
        """
        if self._express is None:
            return {key: 0 for key in EXPRESS_STAT_KEYS}
        return dict(self._express.stats)

    def read_results(self) -> np.ndarray:
        """DMA the converged vertex states back to the host."""
        self._require_open()
        if self._last_result is None:
            raise HostApiError("nothing computed yet; run() first")
        states = self._engine.query_result()
        self._account_transfer("results_read", states.shape[0] * VERTEX_STATE_BYTES)
        return states

    def transfer_stats(self) -> TransferStats:
        """Cumulative host<->accelerator transfer volumes."""
        return self.transfers

    def graph_store_stats(self) -> dict:
        """Counters of the host-side dynamic graph store.

        Exposes :meth:`repro.graph.dynamic.DynamicGraph.store_stats` —
        batches applied, array splices, lazy flushes, snapshot builds and
        cache hits, full rebuilds — so a driver can verify the incremental
        snapshot path is actually engaged for its update pattern. With
        :meth:`enable_versioning` active, a ``version_store`` sub-dict
        reports retention counters (versions held, diff and arena bytes,
        evictions).
        """
        stats = self._graph.store_stats()
        if self._version_store is not None:
            stats["version_store"] = self._version_store.stats()
        return stats

    @property
    def graph(self) -> DynamicGraph:
        """The session's evolving graph (host-side master copy)."""
        return self._graph

    @property
    def last_result(self) -> Optional[StreamingResult]:
        """The most recent run's result record."""
        return self._last_result

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the session."""
        return self._closed

    def close(self) -> None:
        """Release the session and deregister it from the accelerator.

        Idempotent. A long-running host opens and closes many sessions
        over its lifetime; deregistering here is what keeps
        ``Accelerator.sessions`` from leaking every engine/graph ever
        opened. A closed session refuses every further protocol call with
        :class:`HostApiError`.
        """
        if self._closed:
            return
        self._closed = True
        self._engine = None
        self._express = None
        self._accelerator._deregister(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Accelerator:
    """The co-processor as the host driver sees it.

    ``tracer`` (a :class:`repro.obs.Tracer`) threads the observability
    layer through every session's engine and records host DMA transfers
    as trace events; the default :data:`NULL_TRACER` keeps it all off.
    """

    def __init__(self, config: Optional[AcceleratorConfig] = None, tracer=None):
        self.config = config or AcceleratorConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sessions: List[Session] = []

    def load_graph(
        self,
        edges: Union[np.ndarray, Iterable[EdgeTuple]],
        num_vertices: int = 0,
        symmetric: bool = False,
    ) -> Session:
        """Allocate and upload a graph, returning a fresh session.

        ``edges`` is an ``(n, 3)`` array or an iterable of ``(u, v, w)``
        tuples; either way the store is bulk-built from arrays.
        """
        if symmetric:
            graph = build_symmetric_graph(edges, num_vertices)
        else:
            graph = DynamicGraph.from_edges(edges, num_vertices)
        session = Session(self, graph)
        self.sessions.append(session)
        return session

    def _deregister(self, session: Session) -> None:
        """Drop a closed session from the registry (close() calls this)."""
        try:
            self.sessions.remove(session)
        except ValueError:
            pass  # already deregistered (double close, or external removal)

    def close(self) -> None:
        """Release every open session (tolerates already-closed ones)."""
        for session in list(self.sessions):
            session.close()

    def __enter__(self) -> "Accelerator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
