"""KickStarter baseline: trimmed approximations for streaming graphs.

Re-implements the algorithm of Vora et al. (ASPLOS 2017) as the paper
characterizes it (§2.2, §3.4, §5.2, Fig. 10):

* per-vertex *value + dependency* tracking, with dependencies approximated
  by **levels** (depth in the computation) rather than exact sources;
* on deletion, **trimming**: a vertex whose value could have come through a
  deleted edge is re-approximated by re-reading *all* its in-neighbors
  (random reads + atomics — the inefficiency JetStream's request events
  eliminate), and the tag is propagated to its value/level-dependent
  children;
* afterwards, BSP recomputation from the trimmed set and insertion targets.

The value+level dependence test is *conservative*: any in-neighbor whose
propagated value equals the vertex value at a smaller level counts as a
potential parent, so ties over-tag — exactly why JetStream's exact-source
DAP resets fewer vertices (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmKind
from repro.baselines.bsp import BSPEngine, neighbors_pull
from repro.core.metrics import SoftwareWork
from repro.graph.dynamic import DynamicGraph
from repro.streams import UpdateBatch


@dataclass
class KickStarterResult:
    """Outcome of one KickStarter run (initial or per batch)."""

    states: np.ndarray
    work: SoftwareWork
    trimmed: List[int] = field(default_factory=list)

    @property
    def vertices_reset(self) -> int:
        """Vertices whose approximation was trimmed (Fig. 10 metric)."""
        return len(self.trimmed)


class KickStarter:
    """Streaming engine for selective/monotonic algorithms."""

    def __init__(self, graph: DynamicGraph, algorithm):
        if algorithm.kind is not AlgorithmKind.SELECTIVE:
            raise ValueError("KickStarter supports selective algorithms only")
        if algorithm.needs_symmetric and not graph.symmetric:
            raise ValueError(f"{algorithm.name} requires a symmetric graph")
        self.graph = graph
        self.algorithm = algorithm
        self.bsp = BSPEngine(algorithm)
        self.states: Optional[np.ndarray] = None
        self.dependency: Optional[np.ndarray] = None
        self.level: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def initial_compute(self) -> KickStarterResult:
        """Full BSP evaluation building the value/level dependency data."""
        csr = self.graph.snapshot()
        n = csr.num_vertices
        algorithm = self.algorithm
        self.states = np.full(n, algorithm.identity, dtype=np.float64)
        self.dependency = np.full(n, -1, dtype=np.int64)
        self.level = np.zeros(n, dtype=np.int64)
        work = SoftwareWork()
        frontier: Set[int] = set()
        for v, payload in algorithm.initial_events(csr):
            if algorithm.reduce(self.states[v], payload) != self.states[v]:
                self.states[v] = payload
                frontier.add(v)
        self.bsp.run_selective(
            csr, self.states, frontier, work, self.dependency, self.level
        )
        result = KickStarterResult(states=self.states.copy(), work=work)
        return result

    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch) -> KickStarterResult:
        """Trim, re-approximate, and incrementally recompute."""
        if self.states is None:
            raise RuntimeError("call initial_compute() before apply_batch()")
        algorithm = self.algorithm
        work = SoftwareWork()
        # The directed batch (mirrors included), deletions at their stored
        # weights; raises before anything mutates.
        checked = self.graph.check_batch(batch)
        old_csr = self.graph.snapshot()
        deletions = list(zip(*(col.tolist() for col in checked.deletions)))
        insertions = list(zip(*(col.tolist() for col in checked.insertions)))

        # --- Phase 1: tag & trim (value + level dependence) ------------
        # ``in_question`` holds vertices awaiting re-approximation; a vertex
        # may be re-tagged after resolution if a source it was approximated
        # from degrades later (values only move toward Identity during
        # trimming, so this terminates).
        trimmed_set: Set[int] = set()
        trimmed: List[int] = []
        in_question: Set[int] = set()
        worklist: List[int] = []
        for u, v, w in deletions:
            work.vertex_reads_random += 2
            if self._depends(u, v, w):
                if v not in in_question:
                    in_question.add(v)
                    worklist.append(v)

        # Mutate the graph before re-approximation so trimmed vertices
        # re-read only surviving in-edges.
        self.graph.apply_batch(checked)
        new_csr = self.graph.snapshot()
        self._grow(new_csr.num_vertices)

        # Levels from the previous convergence gate the re-approximation:
        # a trimmed vertex may only adopt a contribution from a neighbor at
        # a strictly smaller level, which makes cyclic self-support (two
        # stale vertices validating each other around a cycle) impossible.
        level_snapshot = self.level.copy()

        while worklist:
            v = worklist.pop()
            in_question.discard(v)
            old_value = self.states[v]
            new_value, parent, parent_level = self._approximate(
                new_csr, v, in_question, level_snapshot, work
            )
            work.atomics += 1
            self.states[v] = new_value
            self.dependency[v] = parent
            self.level[v] = parent_level + 1 if parent >= 0 else 0
            if v not in trimmed_set:
                trimmed_set.add(v)
                trimmed.append(v)
                work.vertices_reset += 1
            if new_value == old_value:
                # Approximation recovered the same value — children safe.
                continue
            # Tag children that may have depended on the old value.
            start = int(old_csr.out_starts[v])
            stop = start + int(old_csr.out_degrees[v])
            work.edges_traversed += int(stop - start)
            for i in range(start, stop):
                child = int(old_csr.out_targets[i])
                weight = float(old_csr.out_weights[i])
                work.vertex_reads_random += 1
                if child in in_question:
                    continue
                if (
                    algorithm.propagate(old_value, weight, None) == self.states[child]
                    and self.states[child] != algorithm.identity
                ):
                    in_question.add(child)
                    worklist.append(child)

        # --- Phase 2: incremental BSP recomputation --------------------
        # The level gate above may have denied a trimmed vertex a perfectly
        # valid contribution from a higher-level neighbor; that neighbor is
        # untrimmed and will never push. One ungated pull per trimmed
        # vertex is safe now — every live value is recoverable (at or below
        # its converged target), so pulled candidates can only be
        # recoverable too.
        for v in trimmed:
            for u, w in neighbors_pull(new_csr, v, work):
                candidate = algorithm.propagate(self.states[u], w, None)
                if algorithm.reduce(self.states[v], candidate) != self.states[v]:
                    self.states[v] = candidate
                    self.dependency[v] = u
                    self.level[v] = self.level[u] + 1
                    work.vertex_writes += 1

        frontier: Set[int] = set(trimmed)
        for u, v, w in insertions:
            candidate = algorithm.propagate(self.states[u], w, None)
            work.vertex_reads_random += 2
            work.atomics += 1
            if algorithm.reduce(self.states[v], candidate) != self.states[v]:
                self.states[v] = candidate
                self.dependency[v] = u
                self.level[v] = self.level[u] + 1
                frontier.add(v)
        for v in range(old_csr.num_vertices, new_csr.num_vertices):
            payload = algorithm.self_event(v)
            if payload is not None and algorithm.reduce(self.states[v], payload) != self.states[v]:
                self.states[v] = payload
                frontier.add(v)
        self.bsp.run_selective(
            new_csr, self.states, frontier, work, self.dependency, self.level
        )
        result = KickStarterResult(
            states=self.states.copy(), work=work, trimmed=trimmed
        )
        return result

    # ------------------------------------------------------------------
    def _depends(self, u: int, v: int, w: float) -> bool:
        """Value dependence test: could v's value have come via u→v?

        Pure value equality — strictly conservative (never misses a real
        dependence; over-tags on ties). KickStarter's level filter prunes
        some ties but levels go stale when a parent's value changes without
        changing the child's (e.g. SSWP), so we keep the safe test; the
        over-tagging it causes is exactly the Fig. 10 contrast with
        JetStream's exact-source DAP.
        """
        algorithm = self.algorithm
        if self.states[v] == algorithm.identity:
            return False
        return algorithm.propagate(self.states[u], w, None) == self.states[v]

    def _approximate(
        self,
        csr,
        v: int,
        in_question: Set[int],
        level_snapshot: np.ndarray,
        work: SoftwareWork,
    ) -> Tuple[float, int, int]:
        """Re-approximate ``v`` by reading all surviving in-neighbors.

        Safe sources are neighbors that are not currently in question AND
        sit at a strictly smaller level than ``v`` in the previous
        computation's dependency structure — the level gate is what rules
        out a cycle of stale vertices re-validating each other (the
        "trimmed approximations" rule of KickStarter). The vertex's own
        initial event (root value, CC self-label) also competes.
        """
        algorithm = self.algorithm
        best = algorithm.identity
        parent = -1
        parent_level = -1
        v_level = int(level_snapshot[v]) if v < level_snapshot.shape[0] else 0
        self_payload = algorithm.self_event(v)
        if self_payload is not None:
            best = self_payload
        for u, w in neighbors_pull(csr, v, work):
            if u in in_question:
                continue
            if u < level_snapshot.shape[0] and level_snapshot[u] >= v_level:
                continue
            candidate = algorithm.propagate(self.states[u], w, None)
            if algorithm.reduce(best, candidate) != best:
                best = candidate
                parent = u
                parent_level = int(level_snapshot[u]) if u < level_snapshot.shape[0] else 0
        return best, parent, parent_level

    def _grow(self, n: int) -> None:
        current = self.states.shape[0]
        if n <= current:
            return
        extra = n - current
        self.states = np.concatenate(
            [self.states, np.full(extra, self.algorithm.identity)]
        )
        self.dependency = np.concatenate(
            [self.dependency, np.full(extra, -1, dtype=np.int64)]
        )
        self.level = np.concatenate([self.level, np.zeros(extra, dtype=np.int64)])
