"""Express lane: sub-millisecond single-update application (RisGraph-style).

The streaming engine (:mod:`repro.core.streaming`) re-converges after every
batch — correct for any update, but its fixed per-batch orchestration cost
(snapshot, phase setup, scheduler rounds) dominates when the batch is a
single edge. RisGraph observes that on a *converged* state most single-edge
updates are provably absorbable with an O(degree) check: an insert that
improves nothing, or improves exactly one endpoint without cascading; a
delete whose edge was not load bearing, or whose target keeps another
strict witness. Most of the rest stay local too (RisGraph's per-update
path): a cascading insert relaxes forward from the endpoint it improves,
and under DAP an unsupported delete resets and re-converges just the
dependency subtree it supported. :class:`ExpressLane` applies those *safe*
updates with their state writes and a pending single-edge store edit, and
falls through to the full engine path for everything else: accumulative
algorithms, vertex growth, BASE/VAP unsupported deletes (no dependency
tree), and repairs that outgrow
:data:`~repro.algorithms.base.REPAIR_EDGE_BOUND`.

The classification itself lives next to the algorithms
(:func:`repro.algorithms.base.classify_monotonic_update`), which reads the
store and the engine's state and dependency arrays directly and returns
the :class:`~repro.algorithms.base.ExpressResult` this lane completes and
returns: one record per update, whose ``state_updates`` and
``dependency_updates`` are the writes a safe apply commits. This module
is the apply kernel that keeps the
:class:`~repro.graph.dynamic.DynamicGraph` store, the engine state
arrays, and the DAP dependency tree coherent. The store answers
adjacency queries from its arrays plus its pending single-edge edits
without flushing, so the lane keeps no copy of the graph: whatever
mutated the store last (a safe apply, an engine batch, external code),
the next classification reads it as it is.
"""

from __future__ import annotations

from time import perf_counter

from repro.algorithms.base import (
    REPAIR_REASONS,
    SELF_SUPPORT,
    AlgorithmKind,
    ExpressResult,
    classify_monotonic_update,
)
from repro.core.events import NO_SOURCE
from repro.core.streaming import JetStreamEngine, StreamingResult
from repro.streams import UpdateBatch, finite_weight, vertex_id


#: Counter keys of :attr:`ExpressLane.stats`. :meth:`Session.express_stats`
#: derives its lane-less zero shape from this tuple, so the two can never
#: drift apart when a counter is added. ``safe_applied`` counts every update
#: absorbed without the engine, ``local_repairs`` the part of those that
#: needed a local repair. ``resyncs`` stays 0: the lane has no private graph
#: copy to re-synchronize, but readers of the key remain.
EXPRESS_STAT_KEYS = ("safe_applied", "engine_fallthroughs", "resyncs", "local_repairs")


class ExpressLane:
    """Single-update fast path over a converged :class:`JetStreamEngine`.

    The engine must have completed its initial evaluation (the lane
    classifies against a *converged* state; there is nothing to classify
    against before one exists).
    """

    def __init__(self, engine: JetStreamEngine):
        if not engine._initialized:
            raise RuntimeError(
                "ExpressLane needs a converged state; run initial_compute() "
                "before applying express updates"
            )
        self.engine = engine
        self.tracks_dependency = engine.policy.tracks_dependency
        self.stats = {key: 0 for key in EXPRESS_STAT_KEYS}

    # ------------------------------------------------------------------
    def classify(self, u: int, v: int, w: float, op: str) -> ExpressResult:
        """Classify one update against the converged state (no mutation).

        Selective algorithms go through :func:`classify_monotonic_update`;
        accumulative ones are never safe (``unclassified-algorithm``).
        """
        engine = self.engine
        if engine.algorithm.kind is not AlgorithmKind.SELECTIVE:
            return ExpressResult(False, "unclassified-algorithm")
        core = engine.core
        dependency = core.dependency if self.tracks_dependency else None
        return classify_monotonic_update(
            engine.algorithm, engine.graph, core.states, dependency, u, v, w, op
        )

    def apply(self, u: int, v: int, w: float = 1.0, op: str = "insert") -> ExpressResult:
        """Classify-and-apply one edge update.

        Safe updates, local repairs included, mutate the store (a pending
        edit, no CSR splice) and the engine's state/dependency arrays in
        one pass; unsafe updates are wrapped in a single-edge
        :class:`UpdateBatch` and handed to :meth:`JetStreamEngine.apply_batch`.
        Either way the converged invariant holds again when this returns.
        The classifier's record comes back with the update, its timings
        and, on a fall-through, the engine's result filled in.
        """
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown update op {op!r}")
        u, v = vertex_id(u), vertex_id(v)
        graph = self.engine.graph
        t0 = perf_counter()
        if op == "insert":
            if graph.has_edge(u, v):
                raise ValueError(
                    f"edge {u}->{v} already exists; model a weight change "
                    "as delete followed by insert"
                )
            w = finite_weight(w)
        else:
            if not graph.has_edge(u, v):
                raise ValueError(f"cannot delete missing edge {u}->{v}")
            w = graph.edge_weight(u, v)

        result = self.classify(u, v, w, op)
        result.classify_s = perf_counter() - t0
        if result.safe:
            self._apply_safe(u, v, w, op, result)
        else:
            result.engine_result = self._apply_engine(u, v, w, op)
        result.latency_s = perf_counter() - t0
        result.op, result.u, result.v, result.w = op, u, v, w
        tracer = self.engine.tracer
        if tracer.enabled:
            # Safe updates produce no run span; this event is every
            # update's trace footprint (served, it nests under the
            # request span of the handler thread that applies it).
            tracer.event(
                "express",
                op=op,
                safe=result.safe,
                reason=result.reason,
                latency_s=result.latency_s,
                classify_s=result.classify_s,
                edges_scanned=result.edges_scanned,
                state_reads=result.state_reads,
            )
        return result

    # ------------------------------------------------------------------
    def _apply_safe(
        self, u: int, v: int, w: float, op: str, verdict: ExpressResult
    ) -> None:
        graph = self.engine.graph
        core = self.engine.core
        for vtx, value in verdict.state_updates:
            core.states[vtx] = value
        if self.tracks_dependency:
            for vtx, src in verdict.dependency_updates:
                core.dependency[vtx] = NO_SOURCE if src == SELF_SUPPORT else src
        if op == "insert":
            graph.add_checked_edge(u, v, w)  # apply() checked ids, weight, absence
        else:
            graph.remove_edge(u, v)
        self.stats["safe_applied"] += 1
        self.stats["local_repairs"] += verdict.reason in REPAIR_REASONS

    def _apply_engine(self, u: int, v: int, w: float, op: str) -> StreamingResult:
        if op == "insert":
            batch = UpdateBatch(insertions=[(u, v, w)])
        else:
            batch = UpdateBatch(deletions=[(u, v)])
        result = self.engine.apply_batch(batch)
        self.stats["engine_fallthroughs"] += 1
        return result
