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
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np


#: Sentinel dependency for a vertex supported by its own initial/self
#: event rather than an in-edge. Matches ``repro.core.events.NO_SOURCE``
#: numerically but is defined here so the algorithm layer stays free of
#: core imports.
SELF_SUPPORT = -1


@dataclass(frozen=True)
class UpdateClassification:
    """Verdict of :meth:`Algorithm.classify_update` on one edge update.

    ``safe`` means the update provably cannot invalidate the converged
    state beyond the recorded ``new_state`` write, so the express lane may
    apply it with an O(degree) array touch; unsafe updates fall through to
    the full incremental engine. RisGraph-style classification (PAPERS.md).
    """

    safe: bool
    #: Short machine-readable tag naming the rule that fired (pinned by
    #: the fastpath goldens so refactors can't silently reclassify).
    reason: str
    #: The single ``(vertex, value)`` state write a safe improving insert
    #: performs; ``None`` when the converged state is untouched.
    new_state: Optional[Tuple[int, float]] = None
    #: ``(vertex, source)`` dependency-tree rewrites (DAP coherence).
    #: ``source == SELF_SUPPORT`` records support by the vertex's own
    #: initial event.
    dependency_updates: Tuple[Tuple[int, int], ...] = ()
    #: Adjacency entries examined while classifying (the O(degree) work).
    edges_scanned: int = 0
    #: Vertex-state reads performed while classifying.
    state_reads: int = 0


def classify_monotonic_update(algorithm, view, u, v, w, op) -> UpdateClassification:
    """Shared safe/unsafe classifier for selective (monotonic) algorithms.

    ``view`` provides the converged picture the decision is made against:
    ``num_vertices``, ``symmetric``, ``state(x)``, ``dependency(x)`` (or
    ``None`` when the policy does not track dependencies), ``out_edges(x)``
    and ``in_edges(x)`` iterators, and for deletes the directed edge set
    being removed.

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
      an SSWP capacity loop feeding itself); an equal-value supporter is
      NOT accepted. Safe, rewrites ``dependency(v)`` to the witness.

    Everything else — cascading inserts, vertex growth, unsupported
    deletes, state inconsistencies — is unsafe and takes the engine path.
    """
    mp = algorithm.more_progressed
    prop = algorithm.propagate
    n = view.num_vertices
    reads = 0
    scanned = 0

    if u >= n or v >= n or u < 0 or v < 0:
        return UpdateClassification(False, "vertex-growth")

    mirrored = view.symmetric and u != v
    directed = [(u, v), (v, u)] if mirrored else [(u, v)]

    if op == "insert":
        improving = []
        cands = {}
        for a, b in directed:
            cand = prop(view.state(a), w, NULL_CONTEXT)
            reads += 2
            cands[(a, b)] = cand
            if mp(cand, view.state(b)):
                improving.append((a, b))
            elif mp(view.state(b), cand) or cand == view.state(b):
                pass
            else:
                # Incomparable values (NaN-like): leave it to the engine.
                return UpdateClassification(
                    False, "insert-incomparable", state_reads=reads
                )
        if not improving:
            return UpdateClassification(
                True, "insert-no-improvement", state_reads=reads
            )
        if len(improving) > 1:
            # Impossible at a genuine fixed point with sane weights;
            # defensively routed to the engine rather than reasoned about.
            return UpdateClassification(
                False, "insert-improves-both-endpoints", state_reads=reads
            )
        a, b = improving[0]
        nv = cands[(a, b)]
        # Would the improved value cascade past b? Scan b's out-edges in
        # the post-insert graph (the mirror edge joins them when symmetric).
        out = list(view.out_edges(b))
        if mirrored:
            out.append((a, w))
        for t, wt in out:
            scanned += 1
            out_cand = prop(nv, wt, NULL_CONTEXT)
            basis = nv if t == b else view.state(t)
            reads += 0 if t == b else 1
            if mp(out_cand, basis):
                return UpdateClassification(
                    False,
                    "insert-cascades",
                    edges_scanned=scanned,
                    state_reads=reads,
                )
        return UpdateClassification(
            True,
            "insert-local-improvement",
            new_state=(b, nv),
            dependency_updates=((b, a),),
            edges_scanned=scanned,
            state_reads=reads,
        )

    if op != "delete":
        raise ValueError(f"unknown update op {op!r}")

    removed = set(directed)
    dep_updates = []
    reason = "delete-non-support"
    for a, b in directed:
        state_b = view.state(b)
        reads += 1
        if state_b == algorithm.identity:
            # Never progressed: nothing for the delete to invalidate. A
            # stale dependency on the deleted edge is impossible (resets
            # clear it), so no defensive check is needed.
            continue
        cand = prop(view.state(a), w, NULL_CONTEXT)
        reads += 1
        if mp(cand, state_b):
            # The converged state is not a fixed point of the current
            # graph — never the lane's job to repair.
            return UpdateClassification(
                False, "delete-state-inconsistent", state_reads=reads
            )
        if mp(state_b, cand):
            dep = view.dependency(b)
            if dep is not None and dep == a:
                # A non-supporting edge recorded as the dependency means
                # the dependency tree is stale; let the engine re-derive.
                return UpdateClassification(
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
        for s, ws in view.in_edges(b):
            if (s, b) in removed:
                continue
            scanned += 1
            state_s = view.state(s)
            reads += 1
            if (
                prop(state_s, ws, NULL_CONTEXT) == state_b
                and mp(state_s, state_b)
            ):
                witness = s
                break
        if witness is None:
            return UpdateClassification(
                False,
                "delete-unsupported",
                edges_scanned=scanned,
                state_reads=reads,
            )
        dep_updates.append((b, witness))
        reason = "delete-rewitnessed"
    return UpdateClassification(
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

    def classify_update(self, view, u: int, v: int, w: float, op: str) -> UpdateClassification:
        """Safe/unsafe verdict for a single edge update (express lane).

        The default is maximally conservative: every update is unsafe and
        takes the full engine path. Selective (monotonic) algorithms
        override this with :func:`classify_monotonic_update`; accumulative
        algorithms (PageRank, Adsorption) keep the default because a
        single edge shifts mass globally — no single-write application
        exists.
        """
        return UpdateClassification(False, "unclassified-algorithm")

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
