"""JetStream: incremental evaluation over streaming graphs (§3.3–§3.5).

:class:`JetStreamEngine` drives a query over a
:class:`~repro.graph.dynamic.DynamicGraph` as update batches arrive. It
reuses :class:`~repro.core.engine.EngineCore` for all event processing and
adds the streaming orchestration:

* **Selective algorithms** (Algorithm 5): queue delete events from the
  deleted edges (``ProcessDeletesSelective``), run the recovery phase on
  the *old* graph (``ResetImpacted``), queue request events along the
  impacted vertices' in-edges plus their self events
  (``Reapproximate``), queue insertion events (``ProcessInserts``),
  switch to the new graph, and re-run the computation phase.
* **Accumulative algorithms** (Algorithm 6, Fig. 5): expand the mutation
  to all out-edges of every modified source (degree-dependent
  propagation), negate each stale contribution and add its replacement
  at the new degrees, fold the pair into one *net* correction event per
  target vertex, and converge once on the new graph. The paper's
  two-wave flow (drain negatives on an intermediate graph whose mutated
  sources are sinks, then re-add) reaches the same fixed point; the net
  flow skips its two near-canceling full-magnitude waves (DESIGN.md §4).

The per-phase work metrics feed the architectural timing model
(:mod:`repro.sim.timing`); no timing is computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmKind
from repro.core.config import AcceleratorConfig
from repro.core.engine import EngineCore
from repro.core.events import NO_SOURCE, EventBatch
from repro.core.metrics import RunMetrics
from repro.core.policies import DeletePolicy
from repro.graph.csr import CSRGraph, run_indices
from repro.graph.dynamic import CheckedBatch, DynamicGraph, EdgeArrays
from repro.streams import UpdateBatch

def _source_ctx(algorithm, csr, sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-element ``(out_degree, out_weight_sum)`` context in ``csr``.

    Degrees are a gather of ``out_degrees``. When the algorithm's context hook
    reads the weight sums, they are reproduced **bit for bit** with
    :meth:`SourceContext.of` — a per-source left fold over the CSR-ordered
    out-edges. A prefix-sum difference or pairwise ``reduceat`` would round
    differently, so the fold stays a Python loop over the (few) distinct
    touched sources. Selective algorithms with a vectorized propagate
    ignore the context entirely, so the fold is skipped for them.
    """
    degrees = csr.out_degrees[sources]
    selective_fast = (
        algorithm.kind is AlgorithmKind.SELECTIVE
        and type(algorithm).propagate_arrays is not Algorithm.propagate_arrays
    )
    if selective_fast or not algorithm.ctx_needs_weight_sums or len(sources) == 0:
        return degrees, np.zeros(len(sources), dtype=np.float64)
    uniq, inverse = np.unique(sources, return_inverse=True)
    weights = csr.out_weights
    sums = np.empty(len(uniq), dtype=np.float64)
    for i, u in enumerate(uniq):
        total = 0.0
        start = int(csr.out_starts[u])
        for j in range(start, start + int(csr.out_degrees[u])):
            total += float(weights[j])
        sums[i] = total
    return degrees, sums[inverse]


def _edge_payloads(core: EngineCore, work, csr, edges: EdgeArrays) -> np.ndarray:
    """Each edge's contribution from its source's current state, priced on
    ``csr`` — the stream reader's one state read per edge (§3.3)."""
    u, _v, w = edges
    work.vertex_reads += len(u)
    degrees, wsums = _source_ctx(core.algorithm, csr, u)
    return core.algorithm.propagate_ctx_arrays(core.states[u], w, degrees, wsums)


def _insertion_seeds(core: EngineCore, work, csr, insertions: EdgeArrays) -> EventBatch:
    """``ProcessInserts``: one event per inserted edge, priced on ``csr``.

    Shared by the selective flow and :func:`evaluate_at_versions`; the
    caller inserts the batch.
    """
    iu, iv, _iw = insertions
    work.events_generated += len(iu)
    return EventBatch.from_arrays(iv, _edge_payloads(core, work, csr, insertions), 0, iu)


def _seed_new_vertices(algorithm, queue, work, old_n: int, new_n: int) -> None:
    """Deliver owed initial events to vertices ``old_n .. new_n - 1``."""
    if new_n <= old_n:
        return
    targets, payloads = algorithm.seed_events_for_new_vertices(old_n, new_n)
    work.events_generated += len(targets)
    queue.insert_batch(EventBatch.from_arrays(targets, payloads, 0, NO_SOURCE), work)


@dataclass
class StreamingResult:
    """Outcome of one engine run (initial evaluation or one batch)."""

    states: np.ndarray
    metrics: RunMetrics
    graph_version: int
    #: Vertices reset during the recovery phase (selective only).
    impacted: List[int] = field(default_factory=list)
    #: Lifetime queue counters — identical on the scalar oracle; kept for
    #: the parity suites.
    queue_stats: Optional[dict] = None

    @property
    def vertices_reset(self) -> int:
        """Number of vertices reset while recovering the approximation."""
        return len(self.impacted)


class JetStreamEngine:
    """Streaming query evaluation with incremental re-computation.

    Parameters
    ----------
    graph:
        The evolving graph. For algorithms with
        ``needs_symmetric=True`` (CC) the graph must be symmetric.
    algorithm:
        A DAIC :class:`~repro.algorithms.base.Algorithm`.
    config:
        Accelerator configuration (Table 1 defaults).
    policy:
        Deletion-propagation policy (§5). DAP is the paper's best
        performer and the default.
    num_engines:
        ``None`` (default): one engine, no per-engine accounting. ``n``:
        also report per-engine work and NoC traffic over ``n`` graph
        slices (Table 1 / §4.7 has 8).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm,
        config: Optional[AcceleratorConfig] = None,
        policy: DeletePolicy = DeletePolicy.DAP,
        num_engines: Optional[int] = None,
        tracer=None,
    ):
        if algorithm.needs_symmetric and not graph.symmetric:
            raise ValueError(
                f"{algorithm.name} requires a symmetric graph "
                "(DynamicGraph(symmetric=True))"
            )
        if algorithm.kind is AlgorithmKind.ACCUMULATIVE and policy is not DeletePolicy.BASE:
            # VAP/DAP only affect the selective recovery phase; accumulative
            # deletion uses negative events (§3.3). Normalize to BASE so the
            # event size accounting matches the narrower encoding.
            policy = DeletePolicy.BASE
        self.graph = graph
        self.algorithm = algorithm
        self.policy = policy
        self.core = EngineCore(
            algorithm,
            config or AcceleratorConfig(),
            policy,
            num_engines=num_engines,
            tracer=tracer,
        )
        self._initialized = False
        #: Batches applied so far (labels the run spans). Results are
        #: returned, never retained: a long-lived session would otherwise
        #: pin a full state copy per batch.
        self._batches_applied = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The observability hook shared with the engine core."""
        return self.core.tracer

    @property
    def states(self) -> np.ndarray:
        """Current (converged) vertex states — read-only view."""
        return self.core.states

    def query_result(self) -> np.ndarray:
        """Copy of the current converged query result."""
        return self.core.states.copy()

    # ------------------------------------------------------------------
    # Initial (static) evaluation — §4.6.1
    # ------------------------------------------------------------------
    def initial_compute(self) -> StreamingResult:
        """Evaluate the query on the current graph from initial state."""
        core = self.core
        tracer = core.tracer
        csr = self.graph.snapshot()
        core.allocate(csr.num_vertices)
        core.bind_graph(csr)
        metrics = RunMetrics()
        with tracer.span(
            "run",
            "initial",
            algorithm=self.algorithm.name,
            num_engines=core.num_engines,
            num_vertices=csr.num_vertices,
            num_edges=csr.num_edges,
            graph_version=self.graph.version,
            stream_records=0,
        ):
            queue = core.converge_initial(metrics.phase("initial"))
        self._initialized = True
        return StreamingResult(
            states=core.states.copy(),
            metrics=metrics,
            graph_version=self.graph.version,
            queue_stats=queue.lifetime_stats(),
        )

    # ------------------------------------------------------------------
    # Incremental evaluation — §4.6.2
    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> StreamingResult:
        """Apply one update batch and incrementally re-converge the query.

        The batch's deletions must exist in the current graph and its
        insertions must be fresh edges (:class:`repro.streams.UpdateBatch`
        semantics). The graph is mutated as a side effect (version + 1).
        The whole directed batch is checked against the graph first
        (:meth:`DynamicGraph.check_batch`), so a rejected batch leaves the
        graph and the converged states as they were.
        """
        if not self._initialized:
            raise RuntimeError("call initial_compute() before apply_batch()")
        checked = self.graph.check_batch(batch)
        with self.tracer.span(
            "run",
            "batch",
            algorithm=self.algorithm.name,
            num_engines=self.core.num_engines,
            batch_index=self._batches_applied,
            insertions=len(batch.ins),
            deletions=len(batch.dels),
            stream_records=batch.size,
        ) as run_span:
            if self.algorithm.kind is AlgorithmKind.SELECTIVE:
                result = self._apply_selective(checked)
            else:
                result = self._apply_accumulative(checked)
            if run_span is not None:
                run_span.attrs["num_vertices"] = self.graph.num_vertices
        self._batches_applied += 1
        return result

    # -- selective flow (Algorithm 5) ----------------------------------
    def _apply_selective(self, checked: CheckedBatch) -> StreamingResult:
        core = self.core
        metrics = RunMetrics()
        old_csr = self.graph.snapshot()
        core.bind_graph(old_csr)
        deletions, insertions = checked.deletions, checked.insertions

        # Phase 1: ProcessDeletesSelective + ResetImpacted on the old graph.
        tracer = core.tracer
        delete_phase = metrics.phase("delete-propagation")
        queue = core.new_queue()
        queue.set_delete_coalescing(self.policy.coalesces_deletes)
        with tracer.phase(delete_phase):
            seed_work = delete_phase.new_round()
            with tracer.round(seed_work, queue):
                self._seed_deletes(queue, seed_work, old_csr, deletions)
            impacted = core.run_delete(queue, delete_phase)
        queue.set_delete_coalescing(True)

        # Mutate the graph; switch to the new structure.
        self.graph.apply_batch(checked)
        new_csr = self.graph.snapshot()
        core.grow(new_csr.num_vertices)
        core.bind_graph(new_csr)

        # Phase 2: Reapproximate + ProcessInserts + recompute.
        compute_phase = metrics.phase("reevaluation")
        with tracer.phase(compute_phase):
            work = compute_phase.new_round()
            with tracer.round(work, queue):
                seeds = [
                    self._reapprox_seeds(work, compute_phase, new_csr, impacted),
                    _insertion_seeds(core, work, new_csr, insertions),
                ]
                queue.insert_batch(EventBatch.concat(seeds), work)
                _seed_new_vertices(
                    self.algorithm,
                    queue,
                    work,
                    old_csr.num_vertices,
                    new_csr.num_vertices,
                )
            core.run_regular(queue, compute_phase)

        return StreamingResult(
            states=core.states.copy(),
            metrics=metrics,
            graph_version=self.graph.version,
            impacted=impacted,
            queue_stats=queue.lifetime_stats(),
        )

    # -- accumulative flow (Algorithm 6 / Fig. 5) ----------------------
    def _stale_and_replacements(self, old_csr, checked: CheckedBatch):
        """Edges whose contribution a batch retracts, and those it (re)adds.

        For degree-dependent propagation every mutated source's out-degree
        changes, so ALL its previous out-edge contributions are stale
        (Fig. 5) and every surviving one is re-added beside the batch's
        insertions; otherwise only the deleted/inserted edges themselves.
        """
        du, dv, dw = checked.deletions
        iu, iv, iw = checked.insertions
        if not self.algorithm.degree_dependent:
            return (du, dv, dw), (iu, iv, iw)
        old_n = old_csr.num_vertices
        modified = np.unique(np.concatenate([du, iu[iu < old_n]]))
        su, sv, sw = self._expand_out_edges(old_csr, modified)
        keep = ~self._edge_key_member(su, sv, du, dv, old_n)
        replacements = (
            np.concatenate([su[keep], iu]),
            np.concatenate([sv[keep], iv]),
            np.concatenate([sw[keep], iw]),
        )
        return (su, sv, sw), replacements

    def _apply_accumulative(self, checked: CheckedBatch) -> StreamingResult:
        """Net-correction flow: Algorithm 6's fixed point in one wave.

        Every stale contribution of a mutated source is negated and its
        replacement added *as one coalesced seed per target vertex*; the
        net corrections then converge in a single computation phase on the
        new graph. The correction is a linear-operator series either way,
        so this is the fixed point of the paper's two-wave flow, without
        launching two near-canceling full-magnitude waves, which at
        stand-in graph scale would swamp the incremental advantage the
        paper measures at 45M–1.46B-edge scale (DESIGN.md §4). The per-target
        fold is ``np.add.at``, which applies updates sequentially in index
        order — stale edges first, then replacements, each in edge order.
        """
        core = self.core
        algorithm = self.algorithm
        metrics = RunMetrics()
        old_csr = self.graph.snapshot()
        old_n = old_csr.num_vertices
        stale, replacements = self._stale_and_replacements(old_csr, checked)

        tracer = core.tracer
        phase = metrics.phase("reevaluation")
        with tracer.phase(phase):
            work = phase.new_round()
            # The queue does not exist yet (corrections are computed across
            # the graph mutation), so the seed round span carries no
            # occupancy samples — only the work vector.
            with tracer.round(work):
                stale_delta = -_edge_payloads(core, work, old_csr, stale)

                # Mutate; replacements are priced against the new structure.
                self.graph.apply_batch(checked)
                new_csr = self.graph.snapshot()
                core.grow(new_csr.num_vertices)
                core.bind_graph(new_csr)
                repl_delta = _edge_payloads(core, work, new_csr, replacements)

                corrections = np.zeros(new_csr.num_vertices, dtype=np.float64)
                np.add.at(corrections, stale[1], stale_delta)
                np.add.at(corrections, replacements[1], repl_delta)
                # The predicate only ever sees touched targets.
                touched = np.zeros(new_csr.num_vertices, dtype=bool)
                touched[stale[1]] = True
                touched[replacements[1]] = True
                seeds = np.flatnonzero(touched)
                seeds = seeds[self._should_propagate_mask(corrections[seeds])]

                queue = core.new_queue()
                work.events_generated += len(seeds)
                queue.insert_batch(
                    EventBatch.from_arrays(seeds, corrections[seeds], 0, NO_SOURCE),
                    work,
                )
                _seed_new_vertices(
                    algorithm, queue, work, old_n, new_csr.num_vertices
                )
            core.run_regular(queue, phase)

        return StreamingResult(
            states=core.states.copy(),
            metrics=metrics,
            graph_version=self.graph.version,
            queue_stats=queue.lifetime_stats(),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _expand_out_edges(csr, sources: np.ndarray) -> EdgeArrays:
        """All out-edges of ``sources`` (ascending ids), in CSR edge order.

        The degree-dependent accumulative flow expands each mutated source
        to its full stale out-edge set; this gathers those runs in one shot.
        """
        lengths = csr.out_degrees[sources]
        edge_idx = run_indices(csr.out_starts[sources], lengths)
        return (
            np.repeat(sources, lengths),
            csr.out_targets[edge_idx].astype(np.int64, copy=False),
            csr.out_weights[edge_idx],
        )

    @staticmethod
    def _edge_key_member(
        u: np.ndarray,
        v: np.ndarray,
        key_u: np.ndarray,
        key_v: np.ndarray,
        num_vertices: int,
    ) -> np.ndarray:
        """Boolean mask: is ``(u[i], v[i])`` in the ``(key_u, key_v)`` set?"""
        if len(key_u) == 0 or len(u) == 0:
            return np.zeros(len(u), dtype=bool)
        stride = np.int64(max(num_vertices, 1))
        keys = np.unique(key_u * stride + key_v)
        probe = u * stride + v
        pos = np.searchsorted(keys, probe)
        pos_clipped = np.minimum(pos, len(keys) - 1)
        return (pos < len(keys)) & (keys[pos_clipped] == probe)

    def _should_propagate_mask(self, deltas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`Algorithm.should_propagate` over seed deltas."""
        algorithm = self.algorithm
        if type(algorithm).should_propagate is Algorithm.should_propagate:
            if algorithm.kind is AlgorithmKind.ACCUMULATIVE:
                return np.abs(deltas) > algorithm.propagation_threshold
            return np.ones(len(deltas), dtype=bool)
        return np.fromiter(
            (algorithm.should_propagate(float(d)) for d in deltas),
            dtype=bool,
            count=len(deltas),
        )

    def _seed_deletes(self, queue, work, old_csr, deletions: EdgeArrays) -> None:
        """``ProcessDeletesSelective``: one delete event per deleted edge.

        The stream reader computes the payload from the previous converged
        source state (§3.3); BASE events carry no value.
        """
        du, dv, _dw = deletions
        work.events_generated += len(du)
        if self.policy is DeletePolicy.BASE:
            work.vertex_reads += len(du)
            payloads = np.zeros(len(du), dtype=np.float64)
        else:
            payloads = _edge_payloads(self.core, work, old_csr, deletions)
        queue.insert_batch(EventBatch.from_arrays(dv, payloads, 1, du), work)

    def _reapprox_seeds(self, work, compute_phase, new_csr, impacted) -> EventBatch:
        """``Reapproximate``: self + request events of the impacted vertices.

        Per impacted vertex: an optional self event (its re-injected
        initial value) followed by one request event per in-neighbor. The
        self events are scattered into the head slot of each vertex's run
        and the request targets gathered straight from the in-CSR.
        """
        algorithm = self.algorithm
        imp = np.asarray(impacted, dtype=np.int64)
        self_mask, self_payloads = algorithm.self_events_arrays(imp)
        requests_per = new_csr.in_degrees[imp]
        lengths = self_mask.astype(np.int64) + requests_per
        total = int(lengths.sum())
        starts = np.cumsum(lengths) - lengths

        targets = np.empty(total, dtype=np.int64)
        payloads = np.full(total, algorithm.identity, dtype=np.float64)
        flags = np.full(total, 2, dtype=np.int64)
        self_pos = starts[self_mask]
        targets[self_pos] = imp[self_mask]
        payloads[self_pos] = self_payloads[self_mask]
        flags[self_pos] = 0
        request_pos = np.ones(total, dtype=bool)
        request_pos[self_pos] = False
        edge_idx = run_indices(new_csr.in_starts[imp], requests_per)
        targets[request_pos] = new_csr.in_sources[edge_idx]

        n_requests = int(requests_per.sum())
        work.events_generated += int(self_mask.sum()) + n_requests
        compute_phase.request_events += n_requests
        return EventBatch.from_arrays(targets, payloads, flags, NO_SOURCE)


# ----------------------------------------------------------------------
# Shared-prefix multi-version evaluation (CommonGraph work sharing)
# ----------------------------------------------------------------------
@dataclass
class MultiVersionResult:
    """Outcome of :func:`evaluate_at_versions` over a version range."""

    #: Evaluated versions, ascending.
    versions: List[int]
    #: Converged states per version (length = that version's vertex count).
    states: Dict[int, np.ndarray]
    #: Events processed by each per-version addition pass.
    per_version_events: Dict[int, int]
    #: Events spent converging the shared common graph (once).
    common_events: int
    #: Directed edge count of the shared common graph.
    common_edges: int
    #: True when the versions shared one converged common prefix
    #: (selective algorithms); False for the independent fallback.
    shared: bool

    @property
    def total_events(self) -> int:
        """All events processed across the common + per-version passes."""
        return self.common_events + sum(self.per_version_events.values())


def evaluate_at_versions(
    store,
    algorithm,
    versions,
    config: Optional[AcceleratorConfig] = None,
    num_engines: Optional[int] = None,
    tracer=None,
) -> MultiVersionResult:
    """Evaluate ``algorithm`` at several recorded graph versions at once.

    For monotonic selective algorithms the versions share one converged
    prefix: the store's :meth:`~repro.graph.dynamic.DeltaVersionStore.
    common_slice` extracts the edge set common to every requested version,
    the engine converges on it exactly once, and each version is then an
    addition-only pass from that base state (CommonGraph work sharing: one
    common-graph convergence amortized across snapshots). Accumulative
    algorithms fall back to independent cold evaluations per version
    (``shared=False``).

    ``store`` is a :class:`~repro.graph.dynamic.DeltaVersionStore`;
    ``versions`` any iterable of recorded version numbers (deduplicated,
    evaluated ascending). Raises ``KeyError`` for unrecorded or evicted
    versions.
    """
    versions = sorted({int(v) for v in versions})
    if not versions:
        raise ValueError("versions must be non-empty")
    core = EngineCore(
        algorithm,
        config or AcceleratorConfig(),
        DeletePolicy.BASE,
        num_engines=num_engines,
        tracer=tracer,
    )
    if algorithm.kind is not AlgorithmKind.SELECTIVE:
        return _evaluate_versions_independent(store, core, versions)

    slice_ = store.common_slice(versions)
    common_csr = CSRGraph.from_arrays(slice_.common_vertices, *slice_.common_edges)
    metrics = RunMetrics()
    states: Dict[int, np.ndarray] = {}
    per_version_events: Dict[int, int] = {}
    tracer_ = core.tracer
    # Converge the shared common graph once, from Identity.
    common_phase = metrics.phase("common-convergence")
    core.allocate(slice_.common_vertices)
    core.bind_graph(common_csr)
    core.converge_initial(common_phase)
    base_states = core.states[: slice_.common_vertices].copy()
    common_events = common_phase.events_processed

    # Fan out: every version is a pure addition pass from the base.
    # The vertex→engine map installed by the first bind survives
    # (load_states never repartitions), so all passes share it.
    for ver in versions:
        csr_v = slice_.graphs[ver]
        n_v = csr_v.num_vertices
        additions = slice_.additions[ver]
        phase = metrics.phase(f"addition-pass@v{ver}")
        core.load_states(base_states)
        core.grow(n_v)
        core.bind_graph(csr_v)
        queue = core.new_queue()
        with tracer_.phase(phase):
            work = phase.new_round()
            with tracer_.round(work, queue):
                queue.insert_batch(
                    _insertion_seeds(core, work, csr_v, additions), work
                )
                _seed_new_vertices(
                    algorithm, queue, work, slice_.common_vertices, n_v
                )
            core.run_regular(queue, phase)
        states[ver] = core.states[:n_v].copy()
        per_version_events[ver] = phase.events_processed
    return MultiVersionResult(
        versions=versions,
        states=states,
        per_version_events=per_version_events,
        common_events=common_events,
        common_edges=len(slice_.common_edges[0]),
        shared=True,
    )


def _evaluate_versions_independent(store, core, versions) -> MultiVersionResult:
    """Per-version cold evaluation — no shareable prefix (accumulative)."""
    metrics = RunMetrics()
    states: Dict[int, np.ndarray] = {}
    per_version_events: Dict[int, int] = {}
    for ver in versions:
        csr = store.reconstruct(ver)
        phase = metrics.phase(f"cold@v{ver}")
        core.allocate(csr.num_vertices)
        core.bind_graph(csr)
        core.converge_initial(phase)
        states[ver] = core.states.copy()
        per_version_events[ver] = phase.events_processed
    return MultiVersionResult(
        versions=list(versions),
        states=states,
        per_version_events=per_version_events,
        common_events=0,
        common_edges=0,
        shared=False,
    )
