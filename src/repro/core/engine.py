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

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.algorithms.base import AlgorithmKind
from repro.core import parallel
from repro.core.config import AcceleratorConfig
from repro.core.events import NO_SOURCE, EventBatch
from repro.core.metrics import (
    PhaseStats,
    RoundWork,
    RunMetrics,
    segmented_distinct_count,
    segmented_interval_union,
)
from repro.core.policies import DeletePolicy
from repro.core.queue import VectorQueue
from repro.graph.csr import CSRGraph
from repro.graph.partition import extend_assignment, partition_graph
from repro.obs.tracer import NULL_TRACER, work_attrs

#: Hard cap on scheduler rounds — generous (real runs take tens to a few
#: thousand rounds); exceeding it indicates non-termination.
MAX_ROUNDS = 1_000_000

_LINE = 64  # cache-line bytes (fixed by the DRAM interface)


class EngineCore:
    """Shared datapath state and the array event loop for every engine.

    ``num_engines=n`` also reports the work and crossbar traffic of ``n``
    graph slices (Table 1, §4.7); ``None`` runs one engine without it.
    """

    def __init__(
        self,
        algorithm,
        config: Optional[AcceleratorConfig] = None,
        policy: DeletePolicy = DeletePolicy.DAP,
        queue_event_bytes: Optional[int] = None,
        num_engines: Optional[int] = None,
        tracer=None,
    ):
        self.algorithm = algorithm
        self.config = config or AcceleratorConfig()
        self.policy = policy
        #: Observability hook (repro.obs). The default NULL_TRACER keeps
        #: the event loops' per-round cost at one attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        algorithm.require_array_hooks()
        if num_engines is not None and num_engines < 1:
            raise ValueError("num_engines must be >= 1")
        self.num_engines = num_engines
        self.event_bytes = (
            queue_event_bytes
            if queue_event_bytes is not None
            else policy.event_bytes(self.config)
        )
        self.states: np.ndarray = np.empty(0, dtype=np.float64)
        self.dependency: np.ndarray = np.empty(0, dtype=np.int64)
        self.csr: Optional[CSRGraph] = None
        self._slice_of: Optional[np.ndarray] = None
        self._custom_slice_of: Optional[np.ndarray] = None
        self._prop_factor: Optional[np.ndarray] = None
        #: Vertex -> engine map when ``num_engines`` is set (None otherwise).
        self._shard_of: Optional[np.ndarray] = None
        self._channel: Optional[parallel.InterEngineChannel] = None
        if num_engines is not None:
            self._channel = parallel.InterEngineChannel(
                self.config, policy.event_bytes(self.config)
            )
        self.num_slices = 1

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def allocate(self, num_vertices: int) -> None:
        """(Re)initialize vertex state to Identity for ``num_vertices``."""
        self.states = np.full(num_vertices, self.algorithm.identity, dtype=np.float64)
        self.dependency = np.full(num_vertices, NO_SOURCE, dtype=np.int64)
        self._custom_slice_of = None
        self._shard_of = None
        self._assign_slices(num_vertices)

    def grow(self, num_vertices: int) -> None:
        """Extend the state arrays for vertices created mid-stream.

        A custom slice assignment installed with :meth:`set_slice_assignment`
        is *extended* (lightest slice, lowest id on ties — see
        :func:`repro.graph.partition.extend_assignment`), not discarded: the
        old behaviour of rebuilding the contiguous-range slicing silently
        dropped an edge-cut partition the moment a streamed insert created a
        vertex. The vertex->engine map of ``num_engines`` grows by the same
        rule.
        """
        current = self.states.shape[0]
        if num_vertices <= current:
            return
        extra = num_vertices - current
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
        if self._shard_of is not None:
            self._shard_of = extend_assignment(
                self._shard_of, num_vertices, self.num_engines
            )

    def load_states(
        self, states: np.ndarray, dependency: Optional[np.ndarray] = None
    ) -> None:
        """Install a previously converged state vector as the base state.

        The addition-only passes of multi-version evaluation start from a
        converged prefix instead of Identity: ``states[:n]`` is copied in,
        any vertices beyond ``n`` (created by later insertions) start at
        Identity. Unlike :meth:`allocate`, the slice assignment and
        vertex→engine map survive, so every pass shares one partition.
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
        if self._channel is not None and self._shard_of is None:
            # Edge-cut the first bound snapshot across the engines; growth
            # extends this map (see grow), so mid-stream snapshots keep a
            # consistent vertex→engine map until an explicit re-partition.
            self._shard_of = partition_graph(csr, self.num_engines).assignment
        self._prop_factor = None
        if self.algorithm.kind is AlgorithmKind.ACCUMULATIVE:
            # Hoisted per-source propagation factor (linear fast path),
            # built in one vectorized pass per bind. Only Adsorption's
            # normaliser reads the O(E) out-weight sums.
            if self.algorithm.ctx_needs_weight_sums:
                sums = csr.out_weight_sums()
            else:
                sums = np.zeros(csr.num_vertices, dtype=np.float64)
            self._prop_factor = self.algorithm.propagation_factor_arrays(
                csr.out_degrees, sums
            )

    def new_queue(self) -> VectorQueue:
        """A coalescing queue sized/partitioned for the current state."""
        if self._channel is not None and self._slice_of is not None:
            raise ValueError(
                "num_engines keeps each engine's slice resident in its own "
                "queue (§4.7) and does not compose with capacity-forced "
                "queue slicing; raise queue_bytes or shrink the graph"
            )
        return VectorQueue(
            self.algorithm,
            self.config,
            self.policy,
            num_vertices=self.states.shape[0],
            slice_of=self._slice_of,
        )

    def seed_initial(self, queue, work: RoundWork) -> None:
        """Feed InitialEvents() into ``queue`` (the Initializer, §4.6)."""
        targets, payloads = self.algorithm.initial_events_arrays(self.csr)
        queue.insert_batch(EventBatch.from_arrays(targets, payloads), work)

    def converge_initial(self, phase: PhaseStats):
        """Seed InitialEvents() into a fresh queue and run the computation
        phase to convergence as ``phase``; returns the drained queue."""
        queue = self.new_queue()
        with self.tracer.phase(phase):
            work = phase.new_round()
            with self.tracer.round(work, queue):
                self.seed_initial(queue, work)
            self.run_regular(queue, phase)
        return queue

    # ------------------------------------------------------------------
    # Event loops
    # ------------------------------------------------------------------
    def run_regular(self, queue, phase: PhaseStats) -> None:
        """Computation phase: process events until the queue drains (§4.6.1).

        Implements Algorithm 1 plus request-flag semantics: a vertex
        receiving a request event propagates its state along all out-edges
        even when the state did not change (§3.4).
        """
        self._run_array_rounds(queue, phase, delete=False)

    def run_delete(self, queue, phase: PhaseStats) -> List[int]:
        """Recovery phase: propagate delete tags, reset impacted vertices.

        Implements ``ResetImpacted`` of Algorithm 4 with the policy impact
        tests of §5. The queue must contain the initial delete events
        (``ProcessDeletesSelective``); the bound graph must be the
        *previous* version (§3.5). Returns the impacted-vertex list (the
        Impact Buffer contents, §4.5).
        """
        return self._run_array_rounds(queue, phase, delete=True)

    def _kernel_context(self) -> dict:
        """Kernel context over the core's arrays (see repro.core.parallel)."""
        return {
            "algorithm": self.algorithm,
            "policy": self.policy,
            "states": self.states,
            "dependency": self.dependency,
            "prop_factor": self._prop_factor,
            "starts": self.csr.out_starts,
            "degrees": self.csr.out_degrees,
            "out_targets": self.csr.out_targets,
            "out_weights": self.csr.out_weights,
            "gen_sources": self.policy.tracks_dependency or self._channel is not None,
        }

    def _run_array_rounds(self, queue, phase: PhaseStats, delete: bool) -> List[int]:
        """The array round loop — regular and delete.

        One round: drain the queue as a vertex-sorted :class:`EventBatch`,
        run the round kernel (:func:`~repro.core.parallel.
        regular_shard_kernel` or :func:`~repro.core.parallel.
        delete_shard_kernel`) over the whole drain, account the touched
        vertex/edge lines per row batch, and insert the generated events as
        one batch. The per-round vectors equal the scalar oracle's
        (:mod:`repro.oracle`; docs/architecture.md, "Vectorized
        substrate"). With ``num_engines`` set the round's work is also split
        by owning engine into ``phase.shard_rounds`` and the generated
        events crossing engines are charged to the crossbar
        (``phase.noc_*``); execution is the same. Returns the impacted vertices (delete rounds; ascending
        vertex id per round).
        """
        kind = "delete" if delete else "regular"
        kernel = parallel.delete_shard_kernel if delete else parallel.regular_shard_kernel
        ctx = self._kernel_context()
        owner = None
        if self._channel is not None:
            owner = self._shard_of = extend_assignment(
                self._shard_of, self.states.shape[0], self.num_engines
            )
        # Edge addresses are the compact CSR's (logical offsets), so the
        # accounting does not depend on the store's arena layout.
        offsets = self.csr.out_offsets
        row_width = self.config.queue_row_vertices
        page_bytes = self.config.dram_page_bytes
        tracer = self.tracer

        impacted: List[int] = []
        rounds = 0
        while queue.pending():
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError(f"{kind} phase exceeded MAX_ROUNDS; non-termination?")
            work = phase.new_round()
            round_span = None
            if tracer.enabled:
                round_span = tracer.start("round", occupancy_start=queue.occupancy())
                noc_before = parallel.noc_snapshot(phase)
            try:
                if not queue.active_pending():
                    # Charge the activated slice's spill read-back to this round.
                    queue.activate_next_slice(work)
                batch, starts = queue.drain_round()
                k = len(batch)
                if k == 0:
                    continue
                t = batch.targets
                seg_start = np.zeros(k, dtype=bool)
                seg_start[starts] = True
                self._account_vertex_batch_arrays(t, seg_start, work, page_bytes)

                t0 = tracer.clock() if round_span is not None else 0.0
                v, deg, written, gen_t, gen_p, gen_s = kernel(
                    ctx, t, batch.payloads, batch.flags, batch.sources, work
                )
                t1 = tracer.clock() if round_span is not None else 0.0
                start = offsets[v]
                if owner is not None:
                    shard_works = parallel.engine_round_work(
                        owner, self.num_engines, t, written, v, deg, gen_s
                    )
                    phase.shard_rounds.append(shard_works)
                    if round_span is not None:
                        self._emit_engine_spans(shard_works, t0, t1, round_span)
                if delete:
                    # Every producer is a reset vertex; only those with
                    # out-edges touched edge lines.
                    n_reset = int(v.shape[0])
                    phase.deletes_discarded += k - n_reset
                    phase.vertices_reset += n_reset
                    impacted.extend(v.tolist())
                    has_edges = deg > 0
                    v = v[has_edges]
                    start = start[has_edges]
                    deg = deg[has_edges]
                # A producer's row batch is its queue row: the drain is
                # vertex-sorted, so rows and row batches change together.
                self._account_edge_batches(
                    start, start + deg, v // row_width, work, page_bytes
                )

                if owner is not None and gen_t.shape[0]:
                    self._channel.record(owner[gen_s], owner[gen_t], phase)
                generated = EventBatch.from_arrays(gen_t, gen_p, int(delete), gen_s)
                queue.insert_batch(generated, work)
            finally:
                if round_span is not None:
                    tracer.end(
                        round_span,
                        **work_attrs(work),
                        occupancy_end=queue.occupancy(),
                        **(
                            parallel.noc_delta_attrs(phase, noc_before)
                            if owner is not None
                            else {}
                        ),
                    )
        return impacted

    def _emit_engine_spans(self, shard_works, t0: float, t1: float, round_span) -> None:
        """One ``engine`` span per engine under ``round_span``, each covering
        the round's kernel call (``t0``..``t1``) and carrying that engine's
        work."""
        for engine_id, shard_work in enumerate(shard_works):
            self.tracer.emit(
                "engine",
                f"engine-{engine_id}",
                t0,
                t1,
                parent=round_span,
                engine=engine_id,
                **work_attrs(shard_work),
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _account_vertex_batch_arrays(
        targets: np.ndarray, seg_start: np.ndarray, work: RoundWork, page_bytes: int
    ) -> None:
        """Prefetcher accounting: unique state lines/pages per row batch
        (§4.4), over a whole round.

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
        ``row_ids`` assigns each vertex to its queue row (row batch).
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
    #: on the scalar oracle; kept for the parity suites.
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
    num_engines:
        ``None`` (default): one engine, no per-engine accounting. ``n``:
        also report per-engine work and NoC traffic over ``n`` graph
        slices (Table 1 has 8).
    tracer:
        A :class:`repro.obs.Tracer` for run observability (default: the
        no-op :data:`~repro.obs.NULL_TRACER`).
    """

    def __init__(
        self,
        algorithm,
        config: Optional[AcceleratorConfig] = None,
        num_engines: Optional[int] = None,
        tracer=None,
    ):
        config = config or AcceleratorConfig()
        # Queue capacity is accounted at the narrower GraphPulse event
        # encoding: the static accelerator carries no flags/source.
        self.core = EngineCore(
            algorithm,
            config,
            policy=DeletePolicy.BASE,
            queue_event_bytes=config.event_bytes_graphpulse,
            num_engines=num_engines,
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

    def compute(self, csr: CSRGraph) -> ComputeResult:
        """Evaluate the query on ``csr`` from scratch (cold start)."""
        core = self.core
        tracer = core.tracer
        with tracer.span(
            "run",
            "static",
            algorithm=self.algorithm.name,
            num_engines=core.num_engines,
            num_vertices=csr.num_vertices,
            num_edges=csr.num_edges,
        ):
            core.allocate(csr.num_vertices)
            core.bind_graph(csr)
            metrics = RunMetrics()
            queue = core.converge_initial(metrics.phase("initial"))
        return ComputeResult(
            states=core.states.copy(),
            metrics=metrics,
            queue_stats=queue.lifetime_stats(),
        )
