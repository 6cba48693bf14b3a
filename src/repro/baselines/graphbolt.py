"""GraphBolt baseline: dependency-driven synchronous incremental refinement.

Re-implements the behaviour of Mariappan & Vora (EuroSys 2019) for the
accumulative algorithms the paper compares on (PageRank, Adsorption):

* the initial evaluation is a synchronous delta iteration that also builds
  GraphBolt's *aggregation dependency history* (per-iteration aggregation
  values), whose maintenance traffic we charge as bookkeeping bytes;
* on a batch, per-edge corrections are computed against the converged
  state (removed contributions negative, added contributions positive,
  degree changes re-weighting every out-edge of a mutated source — the
  same math as JetStream's Fig. 5 expansion), then refined through
  synchronous BSP iterations with a barrier per iteration and dependency
  history updates per touched vertex.

The functional results are exact (same fixed point as the event-driven
engine); the *cost* differences — two barriers per iteration, history
maintenance, synchronous full-frontier sweeps — are what make GraphBolt
slower than JetStream in Table 3/Fig. 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmKind, SourceContext
from repro.baselines.bsp import BSPEngine
from repro.core.metrics import SoftwareWork
from repro.graph.dynamic import DynamicGraph
from repro.streams import UpdateBatch

#: Bytes of aggregation-history state GraphBolt maintains per live vertex
#: per iteration (value + iteration tag + frontier membership).
_HISTORY_BYTES_PER_VERTEX = 24


@dataclass
class GraphBoltResult:
    """Outcome of one GraphBolt run (initial or per batch)."""

    states: np.ndarray
    work: SoftwareWork


class GraphBolt:
    """Streaming engine for accumulative algorithms."""

    def __init__(self, graph: DynamicGraph, algorithm):
        if algorithm.kind is not AlgorithmKind.ACCUMULATIVE:
            raise ValueError("GraphBolt model supports accumulative algorithms only")
        self.graph = graph
        self.algorithm = algorithm
        self.bsp = BSPEngine(algorithm)
        self.states: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def initial_compute(self) -> GraphBoltResult:
        """Full synchronous evaluation, building the dependency history."""
        csr = self.graph.snapshot()
        algorithm = self.algorithm
        self.states = np.full(csr.num_vertices, algorithm.identity, dtype=np.float64)
        deltas = np.zeros(csr.num_vertices)
        for v, payload in algorithm.initial_events(csr):
            deltas[v] += payload
        work = SoftwareWork()
        self.bsp.run_accumulative(
            csr,
            self.states,
            deltas,
            work,
            bookkeeping_bytes_per_vertex=_HISTORY_BYTES_PER_VERTEX,
        )
        result = GraphBoltResult(states=self.states.copy(), work=work)
        return result

    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> GraphBoltResult:
        """Compute per-edge corrections and refine synchronously."""
        if self.states is None:
            raise RuntimeError("call initial_compute() before apply_batch()")
        batch.validate()
        algorithm = self.algorithm
        work = SoftwareWork()
        old_csr = self.graph.snapshot()
        old_n = old_csr.num_vertices

        deletions = [
            (e.u, e.v, self.graph.edge_weight(e.u, e.v)) for e in batch.deletions
        ]
        insertions = [(e.u, e.v, e.w) for e in batch.insertions]

        # Mutated sources: degree-dependent propagation re-weights every
        # out-edge (same expansion as JetStream's Fig. 5).
        if algorithm.degree_dependent:
            modified: Set[int] = {u for u, _, _ in deletions}
            modified.update(u for u, _, _ in insertions if u < old_n)
        else:
            modified = set()

        # Corrections against the old structure (negative removals).
        corrections: List[Tuple[int, float]] = []
        deleted_keys = {(u, v) for u, v, _ in deletions}
        for u in sorted(modified):
            ctx = SourceContext.of(old_csr, u)
            for v, w in old_csr.out_edges(u):
                work.vertex_reads_random += 1
                corrections.append(
                    (v, -algorithm.propagate(float(self.states[u]), w, ctx))
                )
        if not algorithm.degree_dependent:
            for u, v, w in deletions:
                ctx = SourceContext.of(old_csr, u)
                work.vertex_reads_random += 1
                corrections.append(
                    (v, -algorithm.propagate(float(self.states[u]), w, ctx))
                )

        # Mutate, then positive re-additions against the new structure.
        self.graph.apply_batch(batch.ins, batch.dels)
        new_csr = self.graph.snapshot()
        self._grow(new_csr.num_vertices)
        if algorithm.degree_dependent:
            readd_sources = set(modified)
            readd_sources.update(
                u for u, _, _ in insertions if u >= old_n
            )
            for u in sorted(readd_sources):
                ctx = SourceContext.of(new_csr, u)
                for v, w in new_csr.out_edges(u):
                    work.vertex_reads_random += 1
                    corrections.append(
                        (v, algorithm.propagate(float(self.states[u]), w, ctx))
                    )
        else:
            for u, v, w in insertions:
                ctx = SourceContext.of(new_csr, u)
                work.vertex_reads_random += 1
                corrections.append(
                    (v, algorithm.propagate(float(self.states[u]), w, ctx))
                )
        for v in range(old_n, new_csr.num_vertices):
            payload = algorithm.seed_event_for_new_vertex(v)
            if payload is not None:
                corrections.append((v, payload))

        # Dependency-driven refinement: every vertex whose in-contributions
        # changed re-aggregates (pulls all in-edges); changes ripple
        # synchronously until the aggregation history is consistent again.
        base = np.zeros(new_csr.num_vertices)
        for v, payload in algorithm.initial_events(new_csr):
            base[v] += payload
        seeds = {v for v, _ in corrections}
        seeds.update(range(old_n, new_csr.num_vertices))
        from repro.baselines.bsp import run_pull_refinement

        run_pull_refinement(
            algorithm,
            new_csr,
            self.states,
            base,
            seeds,
            work,
            bookkeeping_bytes_per_vertex=_HISTORY_BYTES_PER_VERTEX,
        )
        result = GraphBoltResult(states=self.states.copy(), work=work)
        return result

    # ------------------------------------------------------------------
    def _grow(self, n: int) -> None:
        current = self.states.shape[0]
        if n > current:
            self.states = np.concatenate(
                [self.states, np.full(n - current, self.algorithm.identity)]
            )
