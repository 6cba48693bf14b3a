"""The event-driven compute engine (GraphPulse datapath, §3.1 / §4.6.1).

:class:`EngineCore` owns the vertex state array (plus the DAP dependency
array), the bound graph snapshot, and the two event-processing loops:

* :meth:`EngineCore.run_regular` — the ordinary computation phase of
  Algorithm 1, extended with JetStream's request-flag semantics (§3.4);
* :meth:`EngineCore.run_delete` — the recovery phase of Algorithm 4, with
  the Base/VAP/DAP impact tests (§5).

:class:`GraphPulseEngine` wraps the core for *static* evaluation — exactly
what the original GraphPulse accelerator does, and what the cold-start
baseline of Table 3 reruns after every batch. The streaming extension lives
in :mod:`repro.core.streaming`.

Every loop records per-round work vectors (:class:`~repro.core.metrics`)
that the architectural timing model later converts to cycles.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.algorithms.base import NULL_CONTEXT, AlgorithmKind, SourceContext
from repro.core import parallel
from repro.core.config import AcceleratorConfig
from repro.core.events import NO_SOURCE, Event, EventBatch
from repro.core.metrics import (
    PhaseStats,
    RoundWork,
    RunMetrics,
    segmented_distinct_count,
    segmented_interval_union,
)
from repro.core.policies import DeletePolicy
from repro.core.queue import CoalescingQueue, VectorQueue
from repro.graph.csr import CSRGraph
from repro.obs.metrics import REGISTRY as METRICS
from repro.obs.tracer import NULL_TRACER, work_attrs
from repro.graph.partition import extend_assignment, extend_partition, partition_graph

#: Hard cap on scheduler rounds — generous (real runs take tens to a few
#: thousand rounds); exceeding it indicates non-termination.
MAX_ROUNDS = 1_000_000

_LINE = 64  # cache-line bytes (fixed by the DRAM interface)

#: Engine substrate choices: ``auto`` picks the vectorized path whenever the
#: algorithm provides the array hooks, falling back to scalar otherwise;
#: ``sharded`` runs the vectorized kernels over ``num_engines`` parallel
#: graph slices (Table 1, §4.7) with deterministic merge.
ENGINE_MODES = ("auto", "scalar", "vectorized", "sharded")

#: Sharded execution backends: ``thread`` runs shard kernels on one
#: persistent thread pool over the heap arrays; ``process`` runs one
#: worker process per pool slot against shared-memory segments
#: (:mod:`repro.core.shm`) — real CPU parallelism instead of GIL-limited
#: threads, with bit-identical results (see repro.core.parallel).
SHARD_BACKENDS = ("thread", "process")


def _release_core_resources(cleanup: dict) -> None:
    """GC finalizer for :class:`EngineCore` — must not reference the core."""
    executor = cleanup.pop("executor", None)
    if executor is not None:
        parallel.release_shard_executor(executor)
    arena = cleanup.pop("arena", None)
    if arena is not None:
        arena.close()


class EngineCore:
    """Shared datapath state and event loops for all engine variants."""

    def __init__(
        self,
        algorithm,
        config: Optional[AcceleratorConfig] = None,
        policy: DeletePolicy = DeletePolicy.DAP,
        queue_event_bytes: Optional[int] = None,
        engine: str = "auto",
        num_engines: int = 8,
        shard_workers: Optional[int] = None,
        backend: str = "thread",
        tracer=None,
    ):
        self.algorithm = algorithm
        self.config = config or AcceleratorConfig()
        self.policy = policy
        #: Observability hook (repro.obs). The default NULL_TRACER keeps
        #: the event loops' per-round cost at one attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if engine not in ENGINE_MODES:
            raise ValueError(f"engine must be one of {ENGINE_MODES}, got {engine!r}")
        if engine in ("vectorized", "sharded") and not algorithm.supports_vectorized:
            raise ValueError(
                f"{algorithm.name} provides no vectorized hooks; "
                "use engine='scalar' or 'auto'"
            )
        if num_engines < 1:
            raise ValueError("num_engines must be >= 1")
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"backend must be one of {SHARD_BACKENDS}, got {backend!r}"
            )
        if backend == "process" and engine != "sharded":
            raise ValueError("backend='process' requires engine='sharded'")
        self.engine_mode = engine
        self.num_engines = num_engines
        self.shard_workers = shard_workers
        self.backend = backend
        #: Shared-memory state (process backend): the arena owning every
        #: segment, plus the live state/graph/queue segments. Cleanup runs
        #: through ``close()`` — or, for abandoned cores, the GC finalizer
        #: over ``_cleanup`` (which must never reference the core itself).
        self._arena = None
        self._state_segment = None
        self._dependency_segment = None
        self._graph_segments: Optional[dict] = None
        self._queue_segments: list = []
        self._shard_executor = None
        self._cleanup: dict = {"arena": None, "executor": None}
        self._finalizer = weakref.finalize(
            self, _release_core_resources, self._cleanup
        )
        self.event_bytes = (
            queue_event_bytes
            if queue_event_bytes is not None
            else policy.event_bytes(self.config)
        )
        self.states: np.ndarray = np.empty(0, dtype=np.float64)
        self.dependency: np.ndarray = np.empty(0, dtype=np.int64)
        self.csr: Optional[CSRGraph] = None
        self._out_degree: Optional[np.ndarray] = None
        self._out_weight_sum: Optional[np.ndarray] = None
        self._slice_of: Optional[np.ndarray] = None
        self._custom_slice_of: Optional[np.ndarray] = None
        self._prop_factor: Optional[np.ndarray] = None
        self._shard_plan = None  # PartitionResult driving engine="sharded"
        self.num_slices = 1

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def allocate(self, num_vertices: int) -> None:
        """(Re)initialize vertex state to Identity for ``num_vertices``."""
        if self.backend == "process":
            arena = self._ensure_arena()
            old_state = self._state_segment
            old_dep = self._dependency_segment
            self._state_segment = arena.full(
                num_vertices, self.algorithm.identity, np.float64
            )
            self._dependency_segment = arena.full(num_vertices, NO_SOURCE, np.int64)
            arena.release(old_state)
            arena.release(old_dep)
            self.states = self._state_segment.array
            self.dependency = self._dependency_segment.array
        else:
            self.states = np.full(
                num_vertices, self.algorithm.identity, dtype=np.float64
            )
            self.dependency = np.full(num_vertices, NO_SOURCE, dtype=np.int64)
        self._custom_slice_of = None
        self._shard_plan = None
        self._assign_slices(num_vertices)

    def grow(self, num_vertices: int) -> None:
        """Extend the state arrays for vertices created mid-stream.

        A custom slice assignment installed with :meth:`set_slice_assignment`
        is *extended* (lightest slice, lowest id on ties — see
        :func:`repro.graph.partition.extend_assignment`), not discarded: the
        old behaviour of rebuilding the contiguous-range slicing silently
        dropped an edge-cut partition the moment a streamed insert created a
        vertex. The active shard plan grows by the same rule.
        """
        current = self.states.shape[0]
        if num_vertices <= current:
            return
        extra = num_vertices - current
        if self.backend == "process":
            # Reallocate into fresh segments; the old ones unlink as soon
            # as the contents are copied out (workers re-attach at the
            # next phase bind — segment names change, stale ones drop).
            arena = self._ensure_arena()
            old_state = self._state_segment
            old_dep = self._dependency_segment
            self._state_segment = arena.empty(num_vertices, np.float64)
            self._state_segment.array[:current] = self.states
            self._state_segment.array[current:] = self.algorithm.identity
            self._dependency_segment = arena.empty(num_vertices, np.int64)
            self._dependency_segment.array[:current] = self.dependency
            self._dependency_segment.array[current:] = NO_SOURCE
            arena.release(old_state)
            arena.release(old_dep)
            self.states = self._state_segment.array
            self.dependency = self._dependency_segment.array
        else:
            self.states = np.concatenate(
                [self.states, np.full(extra, self.algorithm.identity, dtype=np.float64)]
            )
            self.dependency = np.concatenate(
                [self.dependency, np.full(extra, NO_SOURCE, dtype=np.int64)]
            )
        if self._custom_slice_of is not None:
            self._custom_slice_of = extend_assignment(
                self._custom_slice_of, num_vertices, self.num_slices
            )
            self._slice_of = self._custom_slice_of
        else:
            self._assign_slices(num_vertices)
        if self._shard_plan is not None:
            self._shard_plan = extend_partition(self._shard_plan, num_vertices)

    def reset_states(self, num_vertices: Optional[int] = None) -> None:
        """Return every vertex to Identity without discarding the topology.

        Unlike :meth:`allocate`, this keeps the installed slice assignment
        and shard plan intact — a common-graph pass binds a *smaller* edge
        set over the same vertex range, and repartitioning there would give
        the base and addition phases different vertex→engine maps (and
        nondeterministic shard ids between them). The fill happens in place,
        so shared-memory views stay valid for the process backend.
        """
        target = self.states.shape[0] if num_vertices is None else num_vertices
        if self.states.shape[0] == 0:
            self.allocate(target)
            return
        self.states.fill(self.algorithm.identity)
        self.dependency.fill(NO_SOURCE)
        if target > self.states.shape[0]:
            self.grow(target)

    def load_states(
        self, states: np.ndarray, dependency: Optional[np.ndarray] = None
    ) -> None:
        """Install a previously converged state vector as the base state.

        The addition-only passes (COMMONGRAPH batches, multi-version
        evaluation) start from a converged prefix instead of Identity:
        ``states[:n]`` is copied in, any vertices beyond ``n`` (created by
        later insertions) start at Identity. Slice assignment and shard
        plan survive, same as :meth:`reset_states`.
        """
        n = states.shape[0]
        if self.states.shape[0] == 0:
            self.allocate(n)
        elif self.states.shape[0] < n:
            self.grow(n)
        self.states.fill(self.algorithm.identity)
        self.dependency.fill(NO_SOURCE)
        self.states[:n] = states
        if dependency is not None:
            self.dependency[:n] = dependency

    def _assign_slices(self, num_vertices: int) -> None:
        capacity = self.config.queue_capacity_vertices(self.event_bytes)
        self.num_slices = max(1, -(-num_vertices // capacity)) if num_vertices else 1
        if self.num_slices == 1:
            self._slice_of = None
        else:
            # Contiguous-range slicing; experiments may swap in an edge-cut
            # assignment from repro.graph.partition via set_slice_assignment.
            self._slice_of = np.arange(num_vertices, dtype=np.int64) // capacity

    def set_slice_assignment(self, slice_of: np.ndarray) -> None:
        """Install an externally computed slice assignment (e.g. edge-cut)."""
        slice_of = np.asarray(slice_of, dtype=np.int64)
        if slice_of.shape[0] != self.states.shape[0]:
            raise ValueError("assignment must cover every vertex")
        self._slice_of = slice_of
        self._custom_slice_of = slice_of
        self.num_slices = int(slice_of.max()) + 1 if slice_of.size else 1

    def bind_graph(self, csr: CSRGraph) -> None:
        """Point the datapath at a graph snapshot (host CSR swap, §4.7)."""
        self.csr = csr
        if self.engine_mode == "sharded" and self._shard_plan is None:
            # Edge-cut the first bound snapshot across the engines; growth
            # extends this plan (see grow), so mid-stream snapshots keep a
            # consistent vertex→engine map until an explicit re-partition.
            self._shard_plan = partition_graph(csr, self.num_engines)
        if self.algorithm.kind is AlgorithmKind.ACCUMULATIVE:
            offsets = csr.out_offsets
            self._out_degree = np.diff(offsets)
            # Sum of out-edge weights per vertex (Adsorption normalizer).
            sums = np.zeros(csr.num_vertices, dtype=np.float64)
            if csr.num_edges:
                cumulative = np.concatenate(([0.0], np.cumsum(csr.out_weights)))
                sums = cumulative[offsets[1:]] - cumulative[offsets[:-1]]
            self._out_weight_sum = sums
            # Hoisted per-source propagation factor (linear fast path),
            # built in one vectorized pass per bind — the scalar per-vertex
            # loop was an O(V) Python cost on every CSR swap (twice per
            # streaming batch).
            self._prop_factor = self.algorithm.propagation_factor_arrays(
                self._out_degree, sums
            )
        else:
            self._out_degree = None
            self._out_weight_sum = None
            self._prop_factor = None
        if self.backend == "process":
            self._refresh_graph_segments(csr)

    # ------------------------------------------------------------------
    # Shared-memory lifecycle (backend="process")
    # ------------------------------------------------------------------
    def _ensure_arena(self):
        if self._arena is None:
            from repro.core.shm import SharedArena

            self._arena = SharedArena(tag="engine")
            self._cleanup["arena"] = self._arena
        return self._arena

    def _refresh_graph_segments(self, csr: CSRGraph) -> None:
        """Mirror the bound CSR's out-arrays (+ hoisted propagation factors)
        into fresh shared segments, unlinking the previous snapshot's."""
        arena = self._ensure_arena()
        old = self._graph_segments or {}
        segments = csr.share_out_arrays(arena)
        if self._prop_factor is not None:
            segments["prop_factor"] = arena.from_array(self._prop_factor)
        self._graph_segments = segments
        for segment in old.values():
            arena.release(segment)

    def _queue_array_factory(self):
        """Allocator placing queue cell arrays in shared segments (or None).

        Called once per :meth:`new_queue`; the previous queue's segments
        unlink here — the old queue is obsolete by construction, and an
        unlinked mapping stays valid for any straggling reference.
        """
        if self.backend != "process":
            return None
        arena = self._ensure_arena()
        for segment in self._queue_segments:
            arena.release(segment)
        self._queue_segments = []
        segments = self._queue_segments

        def factory(num: int, fill_value, dtype) -> np.ndarray:
            segment = arena.full(int(num), fill_value, dtype)
            segments.append(segment)
            return segment.array

        return factory

    def _process_bind_payload(self) -> dict:
        """Attach recipe + algorithm/policy shipped to worker processes at
        the start of every sharded phase (keys match the kernel context)."""
        segments = self._graph_segments or {}
        prop = segments.get("prop_factor")
        return {
            "algorithm": self.algorithm,
            "policy": self.policy,
            "arrays": {
                "states": self._state_segment.spec,
                "dependency": self._dependency_segment.spec,
                "prop_factor": None if prop is None else prop.spec,
                "offsets": segments["offsets"].spec,
                "out_targets": segments["out_targets"].spec,
                "out_weights": segments["out_weights"].spec,
            },
        }

    def shard_executor(self):
        """The run's persistent shard executor (created on first use).

        Thread backend: one pool for every round/phase/batch of the run.
        Process backend: a warm worker-process pool, checked out of the
        module cache and returned by :meth:`close`.
        """
        if self._shard_executor is None:
            workers = (
                self.shard_workers
                if self.shard_workers is not None
                else parallel._default_workers(self.num_engines)
            )
            self._shard_executor = parallel.acquire_shard_executor(
                self.backend, workers
            )
            self._cleanup["executor"] = self._shard_executor
        elif METRICS.enabled:
            METRICS.record_shard_pool(
                self.backend, "reuse", self._shard_executor.workers
            )
        return self._shard_executor

    def close(self) -> None:
        """Release the shard executor and unlink every shm segment.

        Idempotent, and safe to call from any point — including exception
        paths; a GC finalizer covers cores that are dropped without an
        explicit close, so neither worker processes nor ``/dev/shm``
        segments can outlive the engine.
        """
        executor = self._shard_executor
        self._shard_executor = None
        self._cleanup["executor"] = None
        if executor is not None:
            parallel.release_shard_executor(executor)
        arena = self._arena
        if arena is not None:
            # Detach the engine-facing views to private copies so final
            # states stay readable after the segments go away.
            if self._state_segment is not None:
                self.states = self.states.copy()
                self.dependency = self.dependency.copy()
            self._state_segment = None
            self._dependency_segment = None
            self._graph_segments = None
            self._queue_segments = []
            self._arena = None
            self._cleanup["arena"] = None
            arena.close()

    def source_context(self, v: int) -> SourceContext:
        """Out-edge context of ``v`` in the bound graph."""
        if self._out_degree is None:
            return NULL_CONTEXT
        return SourceContext(
            out_degree=int(self._out_degree[v]),
            out_weight_sum=float(self._out_weight_sum[v]),
        )

    @property
    def uses_vectorized(self) -> bool:
        """Whether this core runs on the structure-of-arrays substrate."""
        if self.engine_mode == "scalar":
            return False
        return self.algorithm.supports_vectorized

    def new_queue(self):
        """A coalescing queue sized/partitioned for the current state.

        Returns a :class:`VectorQueue` on the vectorized substrate, a
        :class:`~repro.core.parallel.ShardedQueueGroup` (one queue per
        engine) in sharded mode, and the boxed-event
        :class:`CoalescingQueue` otherwise; all expose the same
        insertion/slicing interface, and the event loops dispatch on the
        type.
        """
        if self.engine_mode == "sharded":
            if self._slice_of is not None:
                raise ValueError(
                    "engine='sharded' keeps each engine's slice resident in "
                    "its own queue (§4.7) and does not compose with "
                    "capacity-forced queue slicing; raise queue_bytes or "
                    "shrink the graph"
                )
            plan = self._shard_plan
            return parallel.ShardedQueueGroup(
                self.algorithm,
                self.config,
                self.policy,
                num_vertices=self.states.shape[0],
                shard_of=None if plan is None else plan.assignment,
                num_engines=self.num_engines,
                workers=self.shard_workers,
                queue_array_factory=self._queue_array_factory(),
            )
        queue_cls = VectorQueue if self.uses_vectorized else CoalescingQueue
        return queue_cls(
            self.algorithm,
            self.config,
            self.policy,
            num_vertices=self.states.shape[0],
            slice_of=self._slice_of,
        )

    def seed_initial(self, queue, work: RoundWork) -> None:
        """Feed InitialEvents() into ``queue`` (the Initializer, §4.6)."""
        if isinstance(queue, CoalescingQueue):
            for vertex, payload in self.algorithm.initial_events(self.csr):
                queue.insert(Event(vertex, payload, 0, NO_SOURCE), work)
        else:
            targets, payloads = self.algorithm.initial_events_arrays(self.csr)
            queue.insert_batch(EventBatch.from_arrays(targets, payloads), work)

    # ------------------------------------------------------------------
    # Event loops
    # ------------------------------------------------------------------
    def run_regular(self, queue, phase: PhaseStats) -> None:
        """Computation phase: process events until the queue drains (§4.6.1).

        Implements Algorithm 1 plus request-flag semantics: a vertex
        receiving a request event propagates its state along all out-edges
        even when the state did not change (§3.4). A :class:`VectorQueue`
        or ``ShardedQueueGroup`` runs on the array driver
        (:meth:`_run_array_rounds`); the boxed :class:`CoalescingQueue`
        runs the scalar oracle loop below.
        """
        if not isinstance(queue, CoalescingQueue):
            self._run_array_rounds(queue, phase, delete=False)
            return
        algorithm = self.algorithm
        csr = self.csr
        states = self.states
        dependency = self.dependency
        track_dep = self.policy.tracks_dependency
        accumulative = algorithm.kind is AlgorithmKind.ACCUMULATIVE
        reduce_ = algorithm.reduce
        propagate = algorithm.propagate
        threshold = algorithm.propagation_threshold
        weight_scaled = algorithm.weight_scaled_propagation
        prop_factor = self._prop_factor
        offsets = csr.out_offsets
        targets = csr.out_targets
        weights = csr.out_weights
        page_bytes = self.config.dram_page_bytes
        tracer = self.tracer

        max_rows = self.config.scheduler_rows_per_round
        rounds = 0
        while queue.pending():
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError("engine exceeded MAX_ROUNDS; non-termination?")
            work = phase.new_round()
            round_span = (
                tracer.start("round", occupancy_start=queue.occupancy())
                if tracer.enabled
                else None
            )
            m_t0 = METRICS.clock() if METRICS.enabled else 0.0
            if not queue.active_pending():
                # Charge the activated slice's spill read-back to this round.
                queue.activate_next_slice(work)
            for batch in queue.drain_round(work, max_rows):
                self._account_vertex_batch(batch, work, page_bytes)
                edge_lines = set()
                edge_pages = set()
                for event in batch:
                    v = event.target
                    work.events_processed += 1
                    work.vertex_reads += 1
                    state = states[v]
                    new_state = reduce_(state, event.payload)
                    changed = new_state != state
                    if changed:
                        states[v] = new_state
                        work.vertex_writes += 1
                        if track_dep:
                            dependency[v] = event.source
                    if not (changed or event.flags & 2):
                        continue
                    start = offsets[v]
                    stop = offsets[v + 1]
                    if stop == start:
                        continue
                    work.edges_read += int(stop - start)
                    edge_lines.update(
                        range(int(start * 8) // _LINE, int(stop * 8 - 1) // _LINE + 1)
                    )
                    edge_pages.update(
                        range(
                            int(start * 8) // page_bytes,
                            int(stop * 8 - 1) // page_bytes + 1,
                        )
                    )
                    if accumulative:
                        # Linear fast path: forwarded delta is the incoming
                        # delta scaled by the hoisted per-source factor.
                        base_value = (new_state - state) * prop_factor[v]
                        if weight_scaled:
                            for i in range(start, stop):
                                value = base_value * weights[i]
                                if value > threshold or value < -threshold:
                                    work.events_generated += 1
                                    queue.insert(Event(int(targets[i]), value, 0, v), work)
                        elif base_value > threshold or base_value < -threshold:
                            for i in range(start, stop):
                                work.events_generated += 1
                                queue.insert(
                                    Event(int(targets[i]), base_value, 0, v), work
                                )
                    else:
                        basis = states[v]
                        for i in range(start, stop):
                            value = propagate(basis, weights[i], NULL_CONTEXT)
                            work.events_generated += 1
                            queue.insert(Event(int(targets[i]), value, 0, v), work)
                work.edge_lines += len(edge_lines)
                work.dram_pages += len(edge_pages)
            if round_span is not None:
                tracer.end(
                    round_span, **work_attrs(work), occupancy_end=queue.occupancy()
                )
            if METRICS.enabled:
                METRICS.record_round(work, METRICS.clock() - m_t0, queue.occupancy())

    def run_delete(self, queue, phase: PhaseStats) -> List[int]:
        """Recovery phase: propagate delete tags, reset impacted vertices.

        Implements ``ResetImpacted`` of Algorithm 4 with the policy impact
        tests of §5. The queue must contain the initial delete events
        (``ProcessDeletesSelective``); the bound graph must be the
        *previous* version (§3.5). Returns the impacted-vertex list (the
        Impact Buffer contents, §4.5). Dispatches like
        :meth:`run_regular`: array driver for the array queues, scalar
        oracle loop for the boxed queue.
        """
        if not isinstance(queue, CoalescingQueue):
            return self._run_array_rounds(queue, phase, delete=True)
        algorithm = self.algorithm
        csr = self.csr
        states = self.states
        dependency = self.dependency
        policy = self.policy
        identity = algorithm.identity
        propagate = algorithm.propagate
        more_progressed = algorithm.more_progressed
        offsets = csr.out_offsets
        targets = csr.out_targets
        weights = csr.out_weights
        page_bytes = self.config.dram_page_bytes
        base_policy = policy is DeletePolicy.BASE
        vap = policy is DeletePolicy.VAP
        dap = policy is DeletePolicy.DAP

        max_rows = self.config.scheduler_rows_per_round
        tracer = self.tracer
        impacted: List[int] = []
        rounds = 0
        while queue.pending():
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError("delete phase exceeded MAX_ROUNDS")
            work = phase.new_round()
            round_span = (
                tracer.start("round", occupancy_start=queue.occupancy())
                if tracer.enabled
                else None
            )
            m_t0 = METRICS.clock() if METRICS.enabled else 0.0
            if not queue.active_pending():
                # Charge the activated slice's spill read-back to this round.
                queue.activate_next_slice(work)
            for batch in queue.drain_round(work, max_rows):
                self._account_vertex_batch(batch, work, page_bytes)
                edge_lines = set()
                edge_pages = set()
                for event in batch:
                    v = event.target
                    work.events_processed += 1
                    work.vertex_reads += 1
                    state = states[v]
                    if state == identity:
                        phase.deletes_discarded += 1
                        continue
                    if dap and dependency[v] != event.source:
                        phase.deletes_discarded += 1
                        continue
                    if vap and more_progressed(state, event.payload):
                        phase.deletes_discarded += 1
                        continue
                    # Reset (tag) the vertex — Algorithm 4, line 11.
                    states[v] = identity
                    work.vertex_writes += 1
                    if dap:
                        dependency[v] = NO_SOURCE
                    impacted.append(v)
                    phase.vertices_reset += 1
                    start = offsets[v]
                    stop = offsets[v + 1]
                    if stop == start:
                        continue
                    work.edges_read += int(stop - start)
                    edge_lines.update(
                        range(int(start * 8) // _LINE, int(stop * 8 - 1) // _LINE + 1)
                    )
                    edge_pages.update(
                        range(
                            int(start * 8) // page_bytes,
                            int(stop * 8 - 1) // page_bytes + 1,
                        )
                    )
                    for i in range(start, stop):
                        # BASE carries no value (Algorithm 4 queues <v, 0>);
                        # VAP/DAP carry the contribution computed from the
                        # pre-reset state (§5.1, §5.2).
                        payload = (
                            0.0
                            if base_policy
                            else propagate(state, weights[i], NULL_CONTEXT)
                        )
                        work.events_generated += 1
                        queue.insert(
                            Event(int(targets[i]), payload, 1, v),
                            work,
                        )
                work.edge_lines += len(edge_lines)
                work.dram_pages += len(edge_pages)
            if round_span is not None:
                tracer.end(
                    round_span, **work_attrs(work), occupancy_end=queue.occupancy()
                )
            if METRICS.enabled:
                METRICS.record_round(work, METRICS.clock() - m_t0, queue.occupancy())
        return impacted

    # ------------------------------------------------------------------
    # Array substrate: one round driver over the shared kernels
    # ------------------------------------------------------------------
    def _kernel_context(self) -> dict:
        """Kernel context over the core's heap arrays (see repro.core.parallel)."""
        return {
            "algorithm": self.algorithm,
            "policy": self.policy,
            "states": self.states,
            "dependency": self.dependency,
            "prop_factor": self._prop_factor,
            "offsets": self.csr.out_offsets,
            "out_targets": self.csr.out_targets,
            "out_weights": self.csr.out_weights,
        }

    def _run_array_rounds(self, queue, phase: PhaseStats, delete: bool) -> List[int]:
        """The array round loop — regular and delete, single-engine and sharded.

        One round: drain the queue as a vertex-sorted :class:`EventBatch`,
        run the round kernel (:func:`~repro.core.parallel.
        regular_shard_kernel` or :func:`~repro.core.parallel.
        delete_shard_kernel`), account the touched vertex/edge lines per
        row batch, and insert the generated events as one batch. A
        :class:`VectorQueue` is the one-shard case: the kernel runs inline
        over the whole drain. A ``ShardedQueueGroup`` drains every engine,
        runs the same kernel per shard on the core's persistent executor
        (:func:`~repro.core.parallel.run_shard_round`) and routes the
        generated events through the inter-engine channel. Work accounting
        runs on the merged round, so the per-round vectors are identical
        either way — and equal to the scalar loops' (docs/architecture.md,
        "Vectorized substrate"). Returns the impacted vertices (delete
        rounds; ascending vertex id per round).
        """
        group = queue if isinstance(queue, parallel.ShardedQueueGroup) else None
        kind = "delete" if delete else "regular"
        kernel = parallel.ROUND_KERNELS[kind]
        ctx = self._kernel_context()
        if group is not None:
            executor = self.shard_executor()
            if executor.backend == "process":
                executor.bind(self._process_bind_payload())
        offsets = self.csr.out_offsets
        page_bytes = self.config.dram_page_bytes
        max_rows = self.config.scheduler_rows_per_round
        tracer = self.tracer

        impacted: List[int] = []
        rounds = 0
        while queue.pending():
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError(f"{kind} phase exceeded MAX_ROUNDS; non-termination?")
            work = phase.new_round()
            if group is not None:
                shard_works = [RoundWork() for _ in range(group.num_engines)]
                phase.shard_rounds.append(shard_works)
            round_span = None
            if tracer.enabled:
                round_span = tracer.start("round", occupancy_start=queue.occupancy())
                noc_before = parallel.noc_snapshot(phase)
            m_t0 = METRICS.clock() if METRICS.enabled else 0.0
            try:
                if not queue.active_pending():
                    # Charge the activated slice's spill read-back to this round.
                    queue.activate_next_slice(work)
                if group is None:
                    batch, starts = queue.drain_round(work, max_rows)
                else:
                    batch, starts = group.drain_round_merged(max_rows, executor.pool)
                k = len(batch)
                if k == 0:
                    continue
                t = batch.targets
                seg_start = np.zeros(k, dtype=bool)
                seg_start[starts] = True
                self._account_vertex_batch_arrays(t, seg_start, work, page_bytes)

                if group is None:
                    producers, gen_t, gen_p, gen_s = kernel(
                        ctx, t, batch.payloads, batch.flags, batch.sources, work
                    )
                else:
                    producers, gen_t, gen_p, gen_s = parallel.run_shard_round(
                        executor,
                        kind,
                        ctx,
                        group.shard_of,
                        batch,
                        shard_works,
                        tracer,
                        round_span,
                    )
                    for shard_work in shard_works:
                        work.merge(shard_work)

                v = t[producers]
                start = offsets[v]
                deg = offsets[v + 1] - start
                if delete:
                    # Every producer is a reset vertex; only those with
                    # out-edges touched edge lines.
                    n_reset = int(v.shape[0])
                    phase.deletes_discarded += k - n_reset
                    phase.vertices_reset += n_reset
                    impacted.extend(v.tolist())
                    has_edges = deg > 0
                    producers = producers[has_edges]
                    start = start[has_edges]
                    deg = deg[has_edges]
                row_ids = np.searchsorted(starts, producers, side="right")
                self._account_edge_batches(start, start + deg, row_ids, work, page_bytes)

                generated = EventBatch.from_arrays(gen_t, gen_p, int(delete), gen_s)
                if group is None:
                    queue.insert_batch(generated, work)
                else:
                    group.route_generated(generated, work, phase)
            finally:
                if round_span is not None:
                    tracer.end(
                        round_span,
                        **work_attrs(work),
                        occupancy_end=queue.occupancy(),
                        **(
                            parallel.noc_delta_attrs(phase, noc_before)
                            if group is not None
                            else {}
                        ),
                    )
                if METRICS.enabled:
                    METRICS.record_round(
                        work, METRICS.clock() - m_t0, queue.occupancy()
                    )
                    if group is not None:
                        METRICS.record_engine_work(shard_works)
        return impacted

    # ------------------------------------------------------------------
    @staticmethod
    def _account_vertex_batch(
        batch: List[Event], work: RoundWork, page_bytes: int
    ) -> None:
        """Prefetcher accounting: unique state lines/pages per batch (§4.4)."""
        lines = set()
        pages = set()
        for event in batch:
            addr = event.target * 8
            lines.add(addr // _LINE)
            pages.add(addr // page_bytes)
        work.vertex_lines += len(lines)
        work.dram_pages += len(pages)

    @staticmethod
    def _account_vertex_batch_arrays(
        targets: np.ndarray, seg_start: np.ndarray, work: RoundWork, page_bytes: int
    ) -> None:
        """Array form of :meth:`_account_vertex_batch` over a whole round.

        ``targets`` is the drained round sorted by vertex id; ``seg_start``
        marks the first event of each row batch. Distinct lines/pages per
        batch reduce to counting value changes within segments.
        """
        work.vertex_lines += segmented_distinct_count(
            targets // (_LINE // 8), seg_start
        )
        work.dram_pages += segmented_distinct_count(
            (targets * 8) // page_bytes, seg_start
        )

    @staticmethod
    def _account_edge_batches(
        start: np.ndarray,
        stop: np.ndarray,
        row_ids: np.ndarray,
        work: RoundWork,
        page_bytes: int,
    ) -> None:
        """Unique edge lines/pages per row batch via interval unions.

        ``start``/``stop`` are CSR edge ranges of propagating vertices in
        ascending id order (so the byte intervals are monotone) and
        ``row_ids`` assigns each vertex to its row batch.
        """
        if start.shape[0] == 0:
            return
        seg = np.empty(row_ids.shape[0], dtype=bool)
        seg[0] = True
        np.not_equal(row_ids[1:], row_ids[:-1], out=seg[1:])
        work.edge_lines += segmented_interval_union(
            (start * 8) // _LINE, (stop * 8 - 1) // _LINE, seg
        )
        work.dram_pages += segmented_interval_union(
            (start * 8) // page_bytes, (stop * 8 - 1) // page_bytes, seg
        )


@dataclass
class ComputeResult:
    """Outcome of a static evaluation."""

    states: np.ndarray
    metrics: RunMetrics
    #: Lifetime queue counters (inserts/coalesces/peak/switches) — identical
    #: across engine substrates; kept for the parity oracle.
    queue_stats: Optional[dict] = None

    @property
    def num_rounds(self) -> int:
        """Scheduler rounds executed."""
        return sum(p.num_rounds for p in self.metrics.phases)


class GraphPulseEngine:
    """Static event-driven evaluation — the original GraphPulse (§3.1).

    Also serves as the cold-start baseline: rerunning :meth:`compute` on
    each mutated snapshot is exactly the "GP" comparison rows of Table 3.

    Parameters
    ----------
    algorithm:
        A :class:`~repro.algorithms.base.Algorithm`.
    config:
        Accelerator configuration (defaults to Table 1).
    graphpulse_event_size:
        Use the narrower GraphPulse event encoding for queue capacity
        accounting (the static accelerator carries no flags/source).
    engine:
        Substrate selection: ``auto`` (vectorized when the algorithm
        provides array hooks), ``vectorized``, ``sharded`` (parallel
        multi-engine slices, Table 1), or ``scalar`` (the boxed reference
        oracle).
    num_engines:
        Parallel engine count for ``engine="sharded"`` (default 8, Table 1).
    shard_workers:
        Worker-pool width for sharded execution (default: one per engine,
        capped at the CPU count; 1 forces serial shard execution).
    backend:
        Sharded execution backend: ``"thread"`` (persistent thread pool
        over the heap arrays) or ``"process"`` (worker processes over
        shared-memory segments — see repro.core.parallel). Results are
        bit-identical across backends.
    tracer:
        A :class:`repro.obs.Tracer` for run observability (default: the
        no-op :data:`~repro.obs.NULL_TRACER`).
    """

    def __init__(
        self,
        algorithm,
        config: Optional[AcceleratorConfig] = None,
        graphpulse_event_size: bool = True,
        engine: str = "auto",
        num_engines: int = 8,
        shard_workers: Optional[int] = None,
        backend: str = "thread",
        tracer=None,
    ):
        config = config or AcceleratorConfig()
        event_bytes = config.event_bytes_graphpulse if graphpulse_event_size else None
        self.core = EngineCore(
            algorithm,
            config,
            policy=DeletePolicy.BASE,
            queue_event_bytes=event_bytes,
            engine=engine,
            num_engines=num_engines,
            shard_workers=shard_workers,
            backend=backend,
            tracer=tracer,
        )

    @property
    def algorithm(self):
        """The bound algorithm."""
        return self.core.algorithm

    @property
    def tracer(self):
        """The observability hook shared with the core."""
        return self.core.tracer

    def close(self) -> None:
        """Release the worker pool and any shared-memory segments.

        Safe to skip for throwaway engines — a GC finalizer does the same
        cleanup — but explicit close (or the context-manager form) makes
        teardown deterministic.
        """
        self.core.close()

    def __enter__(self) -> "GraphPulseEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def compute(self, csr: CSRGraph) -> ComputeResult:
        """Evaluate the query on ``csr`` from scratch (cold start)."""
        core = self.core
        tracer = core.tracer
        run_t0 = METRICS.clock() if METRICS.enabled else 0.0
        with tracer.span(
            "run",
            "static",
            algorithm=self.algorithm.name,
            engine_mode=core.engine_mode,
            num_vertices=csr.num_vertices,
            num_edges=csr.num_edges,
        ):
            core.allocate(csr.num_vertices)
            core.bind_graph(csr)
            metrics = RunMetrics()
            phase = metrics.phase("initial")
            queue = core.new_queue()
            with tracer.phase(phase):
                seed_work = phase.new_round()
                with tracer.round(seed_work, queue), METRICS.round_scope(
                    seed_work, queue
                ):
                    core.seed_initial(queue, seed_work)
                core.run_regular(queue, phase)
            if METRICS.enabled:
                METRICS.record_phase(phase)
        if METRICS.enabled:
            METRICS.record_run(
                "static",
                METRICS.clock() - run_t0,
                num_vertices=csr.num_vertices,
                num_edges=csr.num_edges,
            )
        return ComputeResult(
            states=core.states.copy(),
            metrics=metrics,
            queue_stats=queue.lifetime_stats(),
        )
