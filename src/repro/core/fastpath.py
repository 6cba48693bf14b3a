"""Express lane: sub-millisecond single-update application (RisGraph-style).

The streaming engine (:mod:`repro.core.streaming`) re-converges after every
batch — correct for any update, but its fixed per-batch orchestration cost
(snapshot, phase setup, scheduler rounds) dominates when the batch is a
single edge. RisGraph observes that on a *converged* state most single-edge
updates are provably absorbable with an O(degree) check: an insert that
improves nothing, or improves exactly one endpoint without cascading; a
delete whose edge was not load bearing, or whose target keeps another
strict witness. :class:`ExpressLane` applies those *safe* updates with one
state write and a pending single-edge store edit, and falls through to the
full engine path for everything else.

The classification itself lives next to the algorithms
(:func:`repro.algorithms.base.classify_monotonic_update`); this module
supplies the converged *view* the classifier reads — the engine's states
and dependency tree over the store's live edge set — and the apply kernel
that keeps the :class:`~repro.graph.dynamic.DynamicGraph` store, the engine
state arrays, and the DAP dependency tree coherent. The store answers
adjacency queries from its arrays plus its pending single-edge edits
without flushing, so the lane keeps no copy of the graph: whatever
mutated the store last (a safe apply, an engine batch, external code),
the next classification reads it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Optional, Tuple

from repro.algorithms.base import SELF_SUPPORT, UpdateClassification
from repro.core.events import NO_SOURCE
from repro.core.streaming import JetStreamEngine, StreamingResult
from repro.streams import UpdateBatch, finite_weight, vertex_id


#: Counter keys of :attr:`ExpressLane.stats`. :meth:`Session.express_stats`
#: derives its lane-less zero shape from this tuple, so the two can never
#: drift apart when a counter is added. ``resyncs`` stays 0: the lane has no
#: private graph copy to re-synchronize, but readers of the key remain.
EXPRESS_STAT_KEYS = ("safe_applied", "engine_fallthroughs", "resyncs")


@dataclass(frozen=True)
class ExpressResult:
    """Outcome of one :meth:`ExpressLane.apply` call."""

    op: str
    u: int
    v: int
    w: float
    #: True when the update was absorbed on the express path; False when
    #: it fell through to the engine.
    safe: bool
    #: Classification rule that fired (see ``classify_monotonic_update``).
    reason: str
    latency_s: float
    #: Time spent in classification alone (the prefix of ``latency_s``);
    #: the remainder is the safe apply or the engine fallthrough. Request
    #: tracing uses the split to carve a ``classify`` stage out of the
    #: apply window.
    classify_s: float
    #: Adjacency entries examined while classifying.
    edges_scanned: int
    #: Vertex-state reads performed while classifying.
    state_reads: int
    #: The single state write a safe improving insert performed.
    new_state: Optional[Tuple[int, float]] = None
    #: Full engine result when the update took the fallthrough path.
    engine_result: Optional[StreamingResult] = None


class _ConvergedView:
    """What the classifier sees: converged states over the live edge set.

    States and dependencies read through ``engine.core`` on every call —
    the core replaces its arrays on allocate/grow, so caching a
    reference would go stale. Adjacency is the store's own query.
    """

    __slots__ = ("_lane",)

    def __init__(self, lane: "ExpressLane"):
        self._lane = lane

    @property
    def num_vertices(self) -> int:
        return self._lane.engine.graph.num_vertices

    @property
    def symmetric(self) -> bool:
        return self._lane.engine.graph.symmetric

    def state(self, x: int) -> float:
        return float(self._lane.engine.core.states[x])

    def dependency(self, x: int) -> Optional[int]:
        lane = self._lane
        if not lane.tracks_dependency:
            return None
        return int(lane.engine.core.dependency[x])

    def out_edges(self, x: int) -> Iterator[Tuple[int, float]]:
        return self._lane.engine.graph.out_edges(x)

    def in_edges(self, x: int) -> Iterator[Tuple[int, float]]:
        return self._lane.engine.graph.in_edges(x)


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
        self._view = _ConvergedView(self)
        self.stats = {key: 0 for key in EXPRESS_STAT_KEYS}

    # ------------------------------------------------------------------
    def classify(self, u: int, v: int, w: float, op: str) -> UpdateClassification:
        """Classify one update against the converged view (no mutation)."""
        return self.engine.algorithm.classify_update(self._view, u, v, w, op)

    def apply(self, u: int, v: int, w: float = 1.0, op: str = "insert") -> ExpressResult:
        """Classify-and-apply one edge update.

        Safe updates mutate the store (a pending edit, no CSR splice) and the
        engine's state/dependency arrays in one pass; unsafe updates are
        wrapped in a single-edge :class:`UpdateBatch` and handed to
        :meth:`JetStreamEngine.apply_batch`. Either way the converged
        invariant holds again when this returns.
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

        cls = self.classify(u, v, w, op)
        classify_s = perf_counter() - t0
        if cls.safe:
            self._apply_safe(u, v, w, op, cls)
            result = ExpressResult(
                op=op,
                u=u,
                v=v,
                w=w,
                safe=True,
                reason=cls.reason,
                latency_s=perf_counter() - t0,
                classify_s=classify_s,
                edges_scanned=cls.edges_scanned,
                state_reads=cls.state_reads,
                new_state=cls.new_state,
            )
        else:
            engine_result = self._apply_engine(u, v, w, op)
            result = ExpressResult(
                op=op,
                u=u,
                v=v,
                w=w,
                safe=False,
                reason=cls.reason,
                latency_s=perf_counter() - t0,
                classify_s=classify_s,
                edges_scanned=cls.edges_scanned,
                state_reads=cls.state_reads,
                engine_result=engine_result,
            )
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
                classify_s=classify_s,
                edges_scanned=result.edges_scanned,
                state_reads=result.state_reads,
            )
        return result

    # ------------------------------------------------------------------
    def _apply_safe(
        self, u: int, v: int, w: float, op: str, cls: UpdateClassification
    ) -> None:
        graph = self.engine.graph
        core = self.engine.core
        if cls.new_state is not None:
            b, nv = cls.new_state
            core.states[b] = nv
        if self.tracks_dependency:
            for vtx, src in cls.dependency_updates:
                core.dependency[vtx] = NO_SOURCE if src == SELF_SUPPORT else src
        if op == "insert":
            graph.add_edge(u, v, w)
        else:
            graph.remove_edge(u, v)
        self.stats["safe_applied"] += 1

    def _apply_engine(self, u: int, v: int, w: float, op: str) -> StreamingResult:
        if op == "insert":
            batch = UpdateBatch(insertions=[(u, v, w)])
        else:
            batch = UpdateBatch(deletions=[(u, v)])
        result = self.engine.apply_batch(batch)
        self.stats["engine_fallthroughs"] += 1
        return result
