"""The DAIC ``Algorithm`` interface consumed by the engines.

GraphPulse's execution model (§3.1, Algorithm 1) requires the application to
supply:

* ``identity`` — the non-dominant value of ``Reduce`` and the initial vertex
  state;
* ``reduce(a, b)`` — order-insensitive combination of a vertex state with an
  incoming delta (the *Reordering Property*);
* ``propagate(value, weight, ctx)`` — the delta contributed over an outgoing
  edge;
* the initial event set.

JetStream additionally needs, for *selective* algorithms, a strict
progression order (``more_progressed``) used by the VAP optimization and by
the recoverable-approximation invariant (§3.2); and for *accumulative*
algorithms, whether propagation depends on the source's out-degree/weight
(which forces the Fig. 5 sink construction on mutation).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.core.streaming import StreamingResult


#: Sentinel dependency for a vertex supported by its own initial/self
#: event rather than an in-edge. Matches ``repro.core.events.NO_SOURCE``
#: numerically but is defined here so the algorithm layer stays free of
#: core imports.
SELF_SUPPORT = -1

#: Edge scans a local repair (``insert-cascade-repaired``,
#: ``delete-subtree-repaired``) may spend before it gives up, writes
#: nothing, and leaves the update to the engine. A scan costs about a
#: microsecond of Python; a one-edge engine batch costs 1-2 ms whatever it
#: touches, and a repair that gives up pays its scans on top of that batch.
#: 512 scans repair 97% of the unsafe updates of the e2e ``serve-updates``
#: stream and keep the wasted work of the rest under the batch's cost.
REPAIR_EDGE_BOUND = 512

#: Reasons of the safe verdicts that carry a local repair.
REPAIR_REASONS = frozenset({"insert-cascade-repaired", "delete-subtree-repaired"})


@dataclass
class ExpressResult:
    """Verdict and outcome of one express-lane update.

    :func:`classify_monotonic_update` fills the verdict (``safe`` through
    ``state_reads``); :meth:`repro.core.fastpath.ExpressLane.apply` then
    sets the update itself, its timings and, on a fall-through only, the
    engine's result on the same record. ``safe`` means the update provably
    cannot invalidate the converged state beyond the recorded
    ``state_updates`` / ``dependency_updates`` writes, so the express lane
    may apply it with an array touch per write; unsafe updates fall
    through to the full incremental engine. RisGraph-style classification
    (PAPERS.md).
    """

    safe: bool
    #: Short machine-readable tag naming the rule that fired (pinned by
    #: the fastpath goldens so refactors can't silently reclassify).
    reason: str
    #: ``(vertex, value)`` state writes: one for a local improvement, one
    #: per touched vertex for a local repair (``REPAIR_REASONS``).
    state_updates: Tuple[Tuple[int, float], ...] = ()
    #: ``(vertex, source)`` dependency-tree rewrites (DAP coherence).
    #: ``source == SELF_SUPPORT`` records support by the vertex's own
    #: initial event.
    dependency_updates: Tuple[Tuple[int, int], ...] = ()
    #: Adjacency entries examined while classifying (the O(degree) work).
    edges_scanned: int = 0
    #: Vertex-state reads performed while classifying.
    state_reads: int = 0
    op: str = ""
    u: int = -1
    v: int = -1
    w: float = 0.0
    #: Time spent in classification alone (the prefix of ``latency_s``);
    #: the remainder is the safe apply or the engine fallthrough. Request
    #: tracing uses the split to carve a ``classify`` stage out of the
    #: apply window.
    classify_s: float = 0.0
    latency_s: float = 0.0
    #: Full engine result when the update took the fallthrough path.
    engine_result: Optional["StreamingResult"] = None


class _LocalRepair:
    """A bounded repair of one unsafe update, into a tentative overlay.

    ``values`` / ``deps`` map every vertex the repair touches to its new
    state and dependency (``SELF_SUPPORT``: its self event, or nothing);
    the store and the converged ``states`` / ``dependency`` arrays are
    only read. Each method returns False once the repair has scanned more
    than :data:`REPAIR_EDGE_BOUND` edges, and the caller then drops the
    overlay, so an update is repaired whole or not at all.
    """

    __slots__ = (
        "algorithm", "graph", "states", "dependency", "scanned", "reads", "values", "deps"
    )

    def __init__(self, algorithm, graph, states, dependency, scanned: int, reads: int):
        self.algorithm = algorithm
        self.graph = graph
        self.states = states
        self.dependency = dependency
        self.scanned = scanned
        self.reads = reads
        self.values = {}
        self.deps = {}

    def state(self, x: int) -> float:
        value = self.values.get(x)
        if value is None:
            self.reads += 1
            value = self.states.item(x)
        return value

    def relax(self, frontier, removed, added) -> bool:
        """Propagate from the ``frontier`` vertices (already in ``values``)
        until no state improves, over the live out-edges less the
        ``removed`` ``(u, v)`` pairs plus ``added`` (``{u: [(v, w)]}``,
        the insert's edges the store does not hold yet)."""
        mp, prop = self.algorithm.more_progressed, self.algorithm.propagate
        identity = self.algorithm.identity
        values, deps, out_edges = self.values, self.deps, self.graph.out_edges
        queue, queued = deque(frontier), set(frontier)
        while queue:
            x = queue.popleft()
            queued.discard(x)
            value = values[x]
            if value == identity:
                continue
            for t, wt in chain(out_edges(x), added.get(x, ())):
                self.scanned += 1
                if self.scanned > REPAIR_EDGE_BOUND:
                    return False
                if (x, t) in removed:
                    continue
                cand = prop(value, wt, NULL_CONTEXT)
                if mp(cand, self.state(t)):
                    values[t], deps[t] = cand, x
                    if t not in queued:
                        queued.add(t)
                        queue.append(t)
        return True

    def reset_subtrees(self, directed) -> bool:
        """Reset, re-approximate and relax the dependency subtrees the
        deleted ``directed`` edges support (DAP's reset set, §5.2)."""
        algorithm, graph, dependency = self.algorithm, self.graph, self.dependency.item
        mp, prop = algorithm.more_progressed, algorithm.propagate
        removed = set(directed)
        members = [b for a, b in directed if dependency(b) == a]
        inside = set(members)
        for x in members:  # grows as the walk finds dependency children
            for t, _ in graph.out_edges(x):
                self.scanned += 1
                if self.scanned > REPAIR_EDGE_BOUND:
                    return False
                if t not in inside and dependency(t) == x:
                    inside.add(t)
                    members.append(t)
        for x in members:
            best, dep = algorithm.self_event(x), SELF_SUPPORT
            if best is None:
                best = algorithm.identity
            for s, ws in graph.in_edges(x):
                self.scanned += 1
                if self.scanned > REPAIR_EDGE_BOUND:
                    return False
                if s in inside or (s, x) in removed:
                    continue
                cand = prop(self.state(s), ws, NULL_CONTEXT)
                if mp(cand, best):
                    best, dep = cand, s
            self.values[x], self.deps[x] = best, dep
        return self.relax(members, removed, {})

    def verdict(self, reason: str) -> ExpressResult:
        return ExpressResult(
            True,
            reason,
            tuple(self.values.items()),
            tuple(self.deps.items()),
            self.scanned,
            self.reads,
        )


def classify_monotonic_update(
    algorithm, graph, states, dependency, u, v, w, op
) -> ExpressResult:
    """Safe/unsafe classifier for selective (monotonic) algorithms.

    The decision is made against the converged picture and mutates
    nothing: ``graph`` is the store (``num_vertices``, ``symmetric``, and
    ``out_edges(x)`` / ``in_edges(x)`` with its pending edits included),
    ``states`` the converged state array and ``dependency`` the DAP
    dependency array, or ``None`` when the policy keeps no tree.
    Accumulative algorithms are never classified (a single edge shifts
    mass globally; no local write absorbs it).

    The rules (proofs sketched per case; ``mp`` is the strict progression
    order, ``prop`` the context-free propagate):

    * **insert, no improvement** — ``prop(state(u), w)`` does not beat
      ``state(v)`` in any mirrored direction: the converged state is
      already a fixed point of the larger graph. Safe, no write.
    * **insert, local improvement** — exactly one direction improves its
      target ``v`` to ``nv``, and no out-edge of ``v`` (including the
      mirror edge) improves *its* target under ``nv``: the improvement is
      absorbed in one write. Safe, writes ``state(v) = nv`` and
      ``dependency(v) = u``.
    * **delete, identity state** — the target never progressed; removing
      an in-edge cannot regress the bottom value. Safe.
    * **delete, non-support** — ``state(v)`` is strictly more progressed
      than the deleted edge's contribution, so the edge was not load
      bearing. Safe.
    * **delete, alternative strict support** — the contribution equals
      ``state(v)`` but the vertex keeps a witness: its own self event, or
      another in-edge ``(s, v)`` whose contribution equals ``state(v)``
      with ``state(s)`` *strictly* more progressed. Strictness is what
      rules out plateau cycles sustaining a spurious fixed point (e.g.
      an SSWP capacity loop feeding itself, where ``min(x, w) == x``
      whenever ``w >= x``); an equal-value supporter is NOT accepted. On
      SSSP (positive weights) and BFS every supporter is strictly closer
      anyway; on CC a label passes through unchanged, so no in-edge is
      ever a strict witness. Safe, rewrites ``dependency(v)`` to the witness.

    Two unsafe cases are repaired here instead, into a tentative overlay
    (:class:`_LocalRepair`) that the express lane commits whole:

    * **insert, cascade** — the improved endpoint ``b`` takes ``nv`` and
      the improvement relaxes forward from ``b`` until nothing improves.
      Safe, ``insert-cascade-repaired``. A local improvement is the same
      relaxation stopping at ``b``.
    * **delete, unsupported, DAP** — the dependency subtree of each
      endpoint whose dependency is the deleted edge (the vertices whose
      chain runs through it) resets; each reset vertex is re-approximated
      from its self event and its in-edges from outside the subtree, whose
      states the delete cannot touch, and the subtree then relaxes from
      inside. Safe, ``delete-subtree-repaired``. Without a dependency tree
      (BASE/VAP) nothing says which states the edge supported.

    Both end on the unique fixed point of the new graph, the one the
    engine reaches; only the dependency chosen on ties may differ. A
    repair that would scan more than :data:`REPAIR_EDGE_BOUND` edges
    writes nothing and keeps its unsafe verdict (``insert-cascades``,
    ``delete-unsupported``). Everything else — vertex growth, state
    inconsistencies, unsupported deletes without a dependency tree — is
    unsafe and takes the engine path.
    """
    mp = algorithm.more_progressed
    prop = algorithm.propagate
    state = states.item
    n = graph.num_vertices
    reads = 0
    scanned = 0

    if u >= n or v >= n or u < 0 or v < 0:
        return ExpressResult(False, "vertex-growth")

    mirrored = graph.symmetric and u != v
    directed = [(u, v), (v, u)] if mirrored else [(u, v)]

    if op == "insert":
        improving = []
        cands = {}
        for a, b in directed:
            cand = prop(state(a), w, NULL_CONTEXT)
            reads += 2
            cands[(a, b)] = cand
            if mp(cand, state(b)):
                improving.append((a, b))
            elif mp(state(b), cand) or cand == state(b):
                pass
            else:
                # Incomparable values (NaN-like): leave it to the engine.
                return ExpressResult(False, "insert-incomparable", state_reads=reads)
        if not improving:
            return ExpressResult(True, "insert-no-improvement", state_reads=reads)
        if len(improving) > 1:
            # Impossible at a genuine fixed point with sane weights;
            # defensively routed to the engine rather than reasoned about.
            return ExpressResult(
                False, "insert-improves-both-endpoints", state_reads=reads
            )
        a, b = improving[0]
        # Relax forward from b in the post-insert graph (the inserted edge
        # and its mirror join the adjacency the store does not hold yet).
        repair = _LocalRepair(algorithm, graph, states, dependency, scanned, reads)
        repair.values[b], repair.deps[b] = cands[(a, b)], a
        added = {}
        for x, y in directed:
            added.setdefault(x, []).append((y, w))
        if not repair.relax([b], (), added):
            return ExpressResult(
                False,
                "insert-cascades",
                edges_scanned=repair.scanned,
                state_reads=repair.reads,
            )
        if len(repair.values) > 1:
            return repair.verdict("insert-cascade-repaired")
        return repair.verdict("insert-local-improvement")

    if op != "delete":
        raise ValueError(f"unknown update op {op!r}")

    removed = set(directed)
    dep_updates = []
    reason = "delete-non-support"
    for a, b in directed:
        state_b = state(b)
        reads += 1
        if state_b == algorithm.identity:
            # Never progressed: nothing for the delete to invalidate. A
            # stale dependency on the deleted edge is impossible (resets
            # clear it), so no defensive check is needed.
            continue
        cand = prop(state(a), w, NULL_CONTEXT)
        reads += 1
        if mp(cand, state_b):
            # The converged state is not a fixed point of the current
            # graph — never the lane's job to repair.
            return ExpressResult(False, "delete-state-inconsistent", state_reads=reads)
        if mp(state_b, cand):
            if dependency is not None and dependency.item(b) == a:
                # A non-supporting edge recorded as the dependency means
                # the dependency tree is stale; let the engine re-derive.
                return ExpressResult(
                    False, "delete-stale-dependency", state_reads=reads
                )
            continue
        # Equal contribution: the edge may be b's witness. Re-anchor on
        # the self event or another *strictly* more progressed in-edge.
        self_payload = algorithm.self_event(b)
        if self_payload is not None and self_payload == state_b:
            dep_updates.append((b, SELF_SUPPORT))
            reason = "delete-self-supported"
            continue
        witness = None
        for s, ws in graph.in_edges(b):
            if (s, b) in removed:
                continue
            scanned += 1
            state_s = state(s)
            reads += 1
            if (
                prop(state_s, ws, NULL_CONTEXT) == state_b
                and mp(state_s, state_b)
            ):
                witness = s
                break
        if witness is None:
            if dependency is not None:  # DAP keeps the tree
                repair = _LocalRepair(
                    algorithm, graph, states, dependency, scanned, reads
                )
                if repair.reset_subtrees(directed):
                    return repair.verdict("delete-subtree-repaired")
                scanned, reads = repair.scanned, repair.reads
            return ExpressResult(
                False,
                "delete-unsupported",
                edges_scanned=scanned,
                state_reads=reads,
            )
        dep_updates.append((b, witness))
        reason = "delete-rewitnessed"
    return ExpressResult(
        True,
        reason,
        dependency_updates=tuple(dep_updates),
        edges_scanned=scanned,
        state_reads=reads,
    )


class AlgorithmKind(enum.Enum):
    """The two algorithm families JetStream serves (§2.2, §3.5)."""

    #: Vertex computation is a selection (min/max) over single-edge
    #: contributions; monotonic; served by tag-propagation deletion.
    SELECTIVE = "selective"
    #: Vertex state accumulates contributions (sum); served by
    #: negative-event deletion.
    ACCUMULATIVE = "accumulative"


@dataclass(frozen=True)
class SourceContext:
    """Out-edge context of a propagating vertex.

    Degree-dependent algorithms (PageRank divides by out-degree, Adsorption
    normalizes by total out-weight) need this to compute a propagated delta.
    The engine always fills it from the graph version the propagation is
    defined against (old graph for negations, new graph for re-insertions).
    """

    out_degree: int
    out_weight_sum: float

    @staticmethod
    def of(graph, u: int) -> "SourceContext":
        """Context of vertex ``u`` in ``graph`` (CSR or dynamic)."""
        total = 0.0
        degree = 0
        for _, w in graph.out_edges(u):
            total += w
            degree += 1
        return SourceContext(out_degree=degree, out_weight_sum=total)


#: Context used where degree does not matter (selective algorithms).
NULL_CONTEXT = SourceContext(out_degree=0, out_weight_sum=0.0)


class Algorithm(ABC):
    """Base class for DAIC applications.

    Subclasses set :attr:`name`, :attr:`kind`, :attr:`identity` and
    implement the abstract hooks. Selective algorithms must also implement
    :meth:`more_progressed`.
    """

    #: Paper short name (``sssp``, ``pagerank``, ...).
    name: str = "abstract"
    #: Selective or accumulative (determines the streaming delete flow).
    kind: AlgorithmKind = AlgorithmKind.SELECTIVE
    #: The Reduce identity; also the initial vertex value.
    identity: float = 0.0
    #: Whether the engine must run on a symmetrized edge set (CC).
    needs_symmetric: bool = False
    #: Whether ``propagate`` depends on :class:`SourceContext` — if so, edge
    #: mutation changes all out-edge contributions of the source and the
    #: accumulative delete flow applies the Fig. 5 sink construction.
    degree_dependent: bool = False
    #: Deltas with magnitude below this are not propagated (accumulative
    #: termination). Selective algorithms ignore it.
    propagation_threshold: float = 0.0

    # ------------------------------------------------------------------
    # DAIC hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def reduce(self, a: float, b: float) -> float:
        """Combine vertex state ``a`` with incoming delta ``b``."""

    @abstractmethod
    def propagate(self, value: float, weight: float, ctx: SourceContext) -> float:
        """Delta contributed over an out-edge.

        ``value`` is the source's state (selective) or the delta being
        forwarded (accumulative); ``weight`` the edge attribute; ``ctx`` the
        source's out-edge context.
        """

    @abstractmethod
    def initial_events(self, graph) -> List[Tuple[int, float]]:
        """The InitialEvents() set: ``(vertex, payload)`` pairs."""

    # ------------------------------------------------------------------
    # Streaming hooks
    # ------------------------------------------------------------------
    def self_event(self, v: int) -> Optional[float]:
        """Initial-event payload that must be re-injected if ``v`` resets.

        Resetting an impacted vertex erases contributions that arrived via
        *initial* events (the SSSP root's 0, a CC vertex's own label), which
        no neighbor can restore. The streaming engine re-injects this during
        re-approximation. ``None`` when ``v`` receives no initial event.
        """
        return None

    def seed_event_for_new_vertex(self, v: int) -> Optional[float]:
        """Initial payload owed to a vertex created mid-stream (e.g. the
        PageRank teleport mass). ``None`` when nothing is owed."""
        return None

    def more_progressed(self, a: float, b: float) -> bool:
        """True when ``a`` is *strictly* closer to convergence than ``b``.

        Selective algorithms progress monotonically from ``identity`` toward
        the converged value (§3.2); this is the order VAP prunes with.
        """
        raise NotImplementedError(f"{self.name} does not define a progression order")

    def should_propagate(self, delta: float) -> bool:
        """Whether a computed out-edge delta is worth sending."""
        if self.kind is AlgorithmKind.ACCUMULATIVE:
            return abs(delta) > self.propagation_threshold
        return True

    #: Accumulative fast path: when True the propagated delta is
    #: ``delta * propagation_factor(ctx) * weight``; when False the weight
    #: is ignored (``delta * propagation_factor(ctx)``). Lets the engine
    #: hoist the factor out of the per-edge loop.
    weight_scaled_propagation: bool = False

    def propagation_factor(self, ctx: SourceContext) -> float:
        """Per-source multiplier of the accumulative fast path.

        Must satisfy ``propagate(delta, w, ctx) ==
        delta * propagation_factor(ctx) * (w if weight_scaled_propagation
        else 1)`` for accumulative algorithms.
        """
        raise NotImplementedError(f"{self.name} has no linear propagation factor")

    # ------------------------------------------------------------------
    # Vectorized (structure-of-arrays) hooks
    # ------------------------------------------------------------------
    #: NumPy ufunc implementing ``reduce`` element-wise (``np.minimum``,
    #: ``np.maximum``, ``np.add``). ``None`` means the algorithm has no
    #: vectorized form, and the engine refuses it
    #: (:meth:`require_array_hooks`).
    reduce_ufunc: Optional[np.ufunc] = None

    def propagate_arrays(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Vectorized ``propagate`` for selective algorithms.

        ``values[i]`` is the propagating state and ``weights[i]`` the edge
        weight of out-edge ``i``; must return the per-edge deltas, matching
        ``propagate(values[i], weights[i], NULL_CONTEXT)`` exactly.
        (Accumulative algorithms instead go through the linear
        :meth:`propagation_factor` fast path, which the vectorized engine
        evaluates with plain array arithmetic.)
        """
        raise NotImplementedError(f"{self.name} has no vectorized propagate")

    def more_progressed_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise :meth:`more_progressed` (selective algorithms)."""
        raise NotImplementedError(f"{self.name} has no vectorized progression order")

    def require_array_hooks(self) -> None:
        """Raise ``ValueError`` naming the array hooks the engine needs and
        this algorithm lacks: :attr:`reduce_ufunc`, and for selective
        algorithms :meth:`propagate_arrays` and :meth:`more_progressed_arrays`
        (accumulative ones use the linear fast path instead)."""
        names = ["reduce_ufunc"]
        if self.kind is AlgorithmKind.SELECTIVE:
            names += ["propagate_arrays", "more_progressed_arrays"]
        missing = [n for n in names if getattr(type(self), n) is getattr(Algorithm, n)]
        if missing:
            raise ValueError(
                f"{self.name} lacks the array hooks the engine runs on: "
                + ", ".join(missing)
            )

    def initial_events_arrays(self, graph) -> Tuple[np.ndarray, np.ndarray]:
        """InitialEvents() as ``(targets, payloads)`` arrays.

        The default materialises :meth:`initial_events`; algorithms whose
        initial set covers every vertex override this to skip the list.
        """
        events = self.initial_events(graph)
        n = len(events)
        targets = np.fromiter((v for v, _ in events), dtype=np.int64, count=n)
        payloads = np.fromiter((p for _, p in events), dtype=np.float64, count=n)
        return targets, payloads

    #: Whether :meth:`propagate_ctx_arrays` actually reads the
    #: ``out_weight_sums`` column. The streaming seed pipeline computes
    #: exact per-source weight sums with a per-run left fold (to stay
    #: bit-identical with :meth:`SourceContext.of`); algorithms whose
    #: context hooks ignore the sums clear this to skip that fold.
    ctx_needs_weight_sums: bool = True

    def propagate_ctx_arrays(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        out_degrees: np.ndarray,
        out_weight_sums: np.ndarray,
    ) -> np.ndarray:
        """Degree-aware vectorized ``propagate`` (streaming seed payloads).

        ``values[i]``/``weights[i]`` are the propagating state and edge
        weight, ``out_degrees[i]``/``out_weight_sums[i]`` the source's
        context in the graph version the propagation is priced against.
        Must match ``propagate(values[i], weights[i],
        SourceContext(out_degrees[i], out_weight_sums[i]))`` bit for bit.

        Selective algorithms ignore the context and reuse
        :meth:`propagate_arrays`; context-dependent accumulative
        algorithms (PageRank, Adsorption) override this, and the default
        falls back to an element-wise scalar loop so every algorithm can
        ride the array seed pipeline.
        """
        if (
            self.kind is AlgorithmKind.SELECTIVE
            and type(self).propagate_arrays is not Algorithm.propagate_arrays
        ):
            return self.propagate_arrays(values, weights)
        out = np.empty(len(values), dtype=np.float64)
        for i in range(len(values)):
            out[i] = self.propagate(
                float(values[i]),
                float(weights[i]),
                SourceContext(int(out_degrees[i]), float(out_weight_sums[i])),
            )
        return out

    def propagation_factor_arrays(
        self, out_degrees: np.ndarray, out_weight_sums: np.ndarray
    ) -> np.ndarray:
        """Per-vertex :meth:`propagation_factor` over context arrays.

        Used by the engine to build its propagation-factor table in one
        vectorized pass per graph bind; must match the scalar method
        exactly. The default is the element-wise loop.
        """
        out = np.empty(len(out_degrees), dtype=np.float64)
        for i in range(len(out_degrees)):
            out[i] = self.propagation_factor(
                SourceContext(int(out_degrees[i]), float(out_weight_sums[i]))
            )
        return out

    def self_events_arrays(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`self_event` over impacted vertices.

        Returns ``(mask, payloads)``: ``mask[i]`` is True where
        ``vertices[i]`` is owed a re-injected initial event, with its
        payload in ``payloads[i]``. Must match the scalar hook exactly.
        """
        n = len(vertices)
        mask = np.zeros(n, dtype=bool)
        payloads = np.zeros(n, dtype=np.float64)
        for i in range(n):
            payload = self.self_event(int(vertices[i]))
            if payload is not None:
                mask[i] = True
                payloads[i] = payload
        return mask, payloads

    def seed_events_for_new_vertices(
        self, start: int, stop: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`seed_event_for_new_vertex` over an id range.

        Returns ``(targets, payloads)`` for the vertices in
        ``range(start, stop)`` that are owed an initial payload.
        """
        targets: List[int] = []
        payloads: List[float] = []
        for v in range(start, stop):
            payload = self.seed_event_for_new_vertex(v)
            if payload is not None:
                targets.append(v)
                payloads.append(payload)
        return (
            np.asarray(targets, dtype=np.int64),
            np.asarray(payloads, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Result helpers
    # ------------------------------------------------------------------
    def values_close(self, a: float, b: float) -> bool:
        """Result comparison with the tolerance appropriate to the kind."""
        if self.kind is AlgorithmKind.ACCUMULATIVE:
            # Propagation-threshold truncation accumulates over long paths;
            # empirical worst-case error is a few hundred thresholds.
            scale = max(1.0, abs(a), abs(b))
            return abs(a - b) <= max(1e-6, 500.0 * self.propagation_threshold) * scale
        if a == b:
            return True
        import math

        return math.isinf(a) and math.isinf(b) and (a > 0) == (b > 0)

    def states_close(self, xs: Iterable[float], ys: Iterable[float]) -> bool:
        """Element-wise :meth:`values_close` over two state vectors."""
        return all(self.values_close(a, b) for a, b in zip(xs, ys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
