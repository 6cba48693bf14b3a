"""Synchronous (BSP) vertex-centric substrate for the software baselines.

Both KickStarter and GraphBolt are built over Ligra-style shared-memory BSP
processing (§7): per-iteration frontiers, push-mode edge relaxation with
atomics, and a barrier between iterations. This module provides that
substrate with :class:`~repro.core.metrics.SoftwareWork` counting so the
cost model can price each run on the Table 1 software platform.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmKind
from repro.core.metrics import SoftwareWork
from repro.graph.csr import CSRGraph


class BSPEngine:
    """Frontier-based synchronous engine with work accounting."""

    def __init__(self, algorithm):
        self.algorithm = algorithm

    # ------------------------------------------------------------------
    # Selective (monotonic) computation
    # ------------------------------------------------------------------
    def run_selective(
        self,
        csr: CSRGraph,
        states: np.ndarray,
        frontier: Set[int],
        work: SoftwareWork,
        dependency: np.ndarray = None,
        level: np.ndarray = None,
    ) -> None:
        """Push-mode BSP relaxation until the frontier empties.

        Mutates ``states`` (and the optional KickStarter ``dependency`` /
        ``level`` arrays) in place; counts one barrier per iteration, one
        atomic + random read per relaxation attempt.
        """
        algorithm = self.algorithm
        if algorithm.kind is not AlgorithmKind.SELECTIVE:
            raise ValueError("run_selective requires a selective algorithm")
        propagate = algorithm.propagate
        reduce_ = algorithm.reduce
        while frontier:
            work.iterations += 1
            # Dense (Ligra-style) frontier representation: each iteration
            # scans the full vertex-sized bitmap to build the frontier.
            work.vertex_reads_sequential += csr.num_vertices
            next_frontier: Set[int] = set()
            for u in sorted(frontier):
                value = states[u]
                start = int(csr.out_starts[u])
                stop = start + int(csr.out_degrees[u])
                work.edges_traversed += int(stop - start)
                for i in range(start, stop):
                    v = int(csr.out_targets[i])
                    candidate = propagate(value, float(csr.out_weights[i]), None)
                    work.vertex_reads_random += 1
                    work.atomics += 1
                    if reduce_(states[v], candidate) != states[v]:
                        states[v] = candidate
                        work.vertex_writes += 1
                        if dependency is not None:
                            dependency[v] = u
                        if level is not None:
                            level[v] = level[u] + 1
                        next_frontier.add(v)
            frontier = next_frontier

    # ------------------------------------------------------------------
    # Accumulative (delta) computation
    # ------------------------------------------------------------------
    def run_accumulative(
        self,
        csr: CSRGraph,
        states: np.ndarray,
        deltas: np.ndarray,
        work: SoftwareWork,
        bookkeeping_bytes_per_vertex: int = 0,
    ) -> None:
        """Synchronous Jacobi delta iteration until all deltas die out.

        ``deltas`` holds the per-vertex correction injected this run; each
        iteration applies the live deltas to the states and forwards them
        through the propagation operator, exactly the synchronous
        counterpart of the event-driven accumulation.
        """
        algorithm = self.algorithm
        if algorithm.kind is not AlgorithmKind.ACCUMULATIVE:
            raise ValueError("run_accumulative requires an accumulative algorithm")
        threshold = algorithm.propagation_threshold
        propagate = algorithm.propagate
        from repro.algorithms.base import SourceContext

        degrees = csr.out_degrees
        weight_sums = csr.out_weight_sums()

        live = {int(v) for v in np.flatnonzero(np.abs(deltas) > threshold)}
        while live:
            work.iterations += 1
            work.vertex_reads_sequential += csr.num_vertices
            next_deltas = np.zeros_like(deltas)
            for u in sorted(live):
                delta = deltas[u]
                states[u] += delta
                work.vertex_writes += 1
                start = int(csr.out_starts[u])
                stop = start + int(degrees[u])
                work.edges_traversed += int(stop - start)
                ctx = SourceContext(int(degrees[u]), float(weight_sums[u]))
                for i in range(start, stop):
                    v = int(csr.out_targets[i])
                    share = propagate(delta, float(csr.out_weights[i]), ctx)
                    work.vertex_reads_random += 1
                    work.atomics += 1
                    next_deltas[v] += share
                deltas[u] = 0.0
            if bookkeeping_bytes_per_vertex:
                work.bookkeeping_bytes += bookkeeping_bytes_per_vertex * len(live)
            deltas = next_deltas
            live = {int(v) for v in np.flatnonzero(np.abs(deltas) > threshold)}


def run_pull_refinement(
    algorithm,
    csr: CSRGraph,
    states: np.ndarray,
    base: np.ndarray,
    seeds: Iterable[int],
    work: SoftwareWork,
    bookkeeping_bytes_per_vertex: int = 0,
    max_iterations: int = 100_000,
) -> None:
    """GraphBolt-style dependency-driven refinement (pull mode).

    Each iteration re-*aggregates* every vertex whose inputs changed: the
    vertex re-reads **all** its in-edges and recomputes its value from its
    neighbors' current states plus its ``base`` (teleport/injection) term.
    Changed vertices schedule their out-neighbors for the next iteration.
    This is the synchronous Gauss–Jacobi refinement GraphBolt's aggregation
    dependency tracking performs — and the reason its per-batch cost is
    dominated by random in-edge reads rather than pushed deltas.
    """
    from repro.algorithms.base import SourceContext

    threshold = algorithm.propagation_threshold
    degrees = csr.out_degrees
    weight_sums = csr.out_weight_sums()

    changed: Set[int] = {int(v) for v in seeds}
    iteration = 0
    while changed and iteration < max_iterations:
        iteration += 1
        work.iterations += 1
        # Dense aggregation-state pass over the per-iteration history.
        work.vertex_reads_sequential += csr.num_vertices
        next_changed: Set[int] = set()
        updates = []
        for v in sorted(changed):
            total = base[v]
            start = int(csr.in_starts[v])
            stop = start + int(csr.in_degrees[v])
            work.edges_traversed += int(stop - start)
            for i in range(start, stop):
                u = int(csr.in_sources[i])
                work.vertex_reads_random += 1
                ctx = SourceContext(int(degrees[u]), float(weight_sums[u]))
                total += algorithm.propagate(
                    float(states[u]), float(csr.in_weights[i]), ctx
                )
            updates.append((v, total))
        for v, total in updates:
            if abs(total - states[v]) > threshold:
                states[v] = total
                work.vertex_writes += 1
                work.atomics += 1
                next_changed.update(csr.out_neighbors(v).tolist())
        if bookkeeping_bytes_per_vertex:
            work.bookkeeping_bytes += bookkeeping_bytes_per_vertex * len(changed)
        changed = next_changed


def neighbors_pull(
    csr: CSRGraph, v: int, work: SoftwareWork
) -> Iterable[Tuple[int, float]]:
    """Read every in-edge of ``v`` (KickStarter's neighbor re-read pattern).

    Counts the random reads the paper attributes to KickStarter's
    re-approximation ("this approach generates many memory reads with a
    random access pattern", §3.4).
    """
    sources: List[Tuple[int, float]] = []
    start = int(csr.in_starts[v])
    stop = start + int(csr.in_degrees[v])
    work.edges_traversed += int(stop - start)
    for i in range(start, stop):
        work.vertex_reads_random += 1
        sources.append((int(csr.in_sources[i]), float(csr.in_weights[i])))
    return sources
