"""Edge-cut graph partitioning (PuLP substitute, §4.7 / §6).

GraphPulse/JetStream process one *slice* of a large graph at a time because
the on-chip coalescing queue holds one entry per vertex; events crossing
slices are spilled to off-chip memory. The paper slices with PuLP
(minimum-edge-cut, balanced). We provide a deterministic BFS-grown greedy
partitioner with the same contract: balanced vertex counts, heuristically
minimized edge cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass
class PartitionResult:
    """Outcome of partitioning a graph into slices."""

    num_slices: int
    assignment: np.ndarray  # vertex -> slice id
    slice_sizes: List[int]
    cut_edges: int
    total_edges: int
    #: Vertices of each slice, ascending (the queue maps a slice densely).
    members: List[np.ndarray] = field(default_factory=list)

    @property
    def cut_fraction(self) -> float:
        """Fraction of edges crossing slice boundaries."""
        if self.total_edges == 0:
            return 0.0
        return self.cut_edges / self.total_edges


def partition_graph(
    graph: CSRGraph, num_slices: int, balance_slack: float = 0.05
) -> PartitionResult:
    """Partition ``graph`` into ``num_slices`` balanced slices.

    BFS-grows each slice from the highest-degree unassigned seed, preferring
    frontier vertices with the most already-assigned neighbors in the
    current slice (greedy cut minimization), until the slice reaches its
    capacity ``ceil(n / k) * (1 + balance_slack)``.
    """
    n = graph.num_vertices
    if num_slices <= 0:
        raise ValueError("num_slices must be positive")
    if num_slices == 1 or n == 0:
        assignment = np.zeros(n, dtype=np.int64)
        return _finalize(graph, 1, assignment)

    capacity = int(np.ceil(n / num_slices) * (1 + balance_slack))
    assignment = np.full(n, -1, dtype=np.int64)
    degrees = graph.out_degrees + graph.in_degrees
    seed_order = np.argsort(-degrees, kind="stable")
    seed_cursor = 0

    for slice_id in range(num_slices):
        remaining = capacity if slice_id < num_slices - 1 else n
        size = 0
        queue: deque = deque()
        while size < remaining:
            if not queue:
                while seed_cursor < n and assignment[seed_order[seed_cursor]] != -1:
                    seed_cursor += 1
                if seed_cursor >= n:
                    break
                queue.append(int(seed_order[seed_cursor]))
            v = queue.popleft()
            if assignment[v] != -1:
                continue
            assignment[v] = slice_id
            size += 1
            neighbors = list(graph.out_neighbors(v)) + list(graph.in_neighbors(v))
            for u in neighbors:
                if assignment[u] == -1:
                    queue.append(int(u))
    # Any stragglers (isolated vertices) go to the lightest slice.
    sizes = [int((assignment == s).sum()) for s in range(num_slices)]
    for v in range(n):
        if assignment[v] == -1:
            lightest = int(np.argmin(sizes))
            assignment[v] = lightest
            sizes[lightest] += 1
    return _finalize(graph, num_slices, assignment)


def _finalize(graph: CSRGraph, num_slices: int, assignment: np.ndarray) -> PartitionResult:
    src, dst, _ = graph.edge_arrays()
    cut = int(np.count_nonzero(assignment[src] != assignment[dst]))
    members = [np.flatnonzero(assignment == s) for s in range(num_slices)]
    return PartitionResult(
        num_slices=num_slices,
        assignment=assignment,
        slice_sizes=[int(m.size) for m in members],
        cut_edges=cut,
        total_edges=graph.num_edges,
        members=members,
    )


def extend_assignment(
    assignment: np.ndarray, num_vertices: int, num_slices: int = 0
) -> np.ndarray:
    """Deterministically extend ``assignment`` to cover ``num_vertices``.

    Vertices created mid-stream have no edges in the partitioned snapshot,
    so there is nothing for the edge-cut heuristic to optimize; each new
    vertex simply joins the currently lightest slice (lowest slice id on
    ties). The rule is a pure function of the existing assignment, so every
    holder of the same base assignment — the engine's slice map, the
    sharded queue group, a staged :class:`PartitionResult` — extends to the
    same result regardless of when growth is observed.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    n = assignment.shape[0]
    if num_vertices <= n:
        return assignment
    if num_slices <= 0:
        num_slices = int(assignment.max()) + 1 if assignment.size else 1
    sizes = np.bincount(assignment, minlength=num_slices).astype(np.int64)
    extended = np.empty(num_vertices, dtype=np.int64)
    extended[:n] = assignment
    for v in range(n, num_vertices):
        lightest = int(np.argmin(sizes))
        extended[v] = lightest
        sizes[lightest] += 1
    return extended


def extend_partition(result: PartitionResult, num_vertices: int) -> PartitionResult:
    """A :class:`PartitionResult` covering ``num_vertices`` vertices.

    Growth keeps the original slice structure and applies the
    :func:`extend_assignment` rule; ``cut_edges``/``total_edges`` still
    describe the snapshot that was partitioned (new vertices carry no edges
    at extension time — §4.7's repartitioning drift is measured separately
    by :func:`repartition_report`).
    """
    if num_vertices <= result.assignment.shape[0]:
        return result
    assignment = extend_assignment(result.assignment, num_vertices, result.num_slices)
    members = [np.flatnonzero(assignment == s) for s in range(result.num_slices)]
    return PartitionResult(
        num_slices=result.num_slices,
        assignment=assignment,
        slice_sizes=[int(m.size) for m in members],
        cut_edges=result.cut_edges,
        total_edges=result.total_edges,
        members=members,
    )


def slices_required(num_vertices: int, queue_capacity: int) -> int:
    """Number of slices needed so each slice fits the on-chip queue."""
    if queue_capacity <= 0:
        raise ValueError("queue_capacity must be positive")
    return max(1, -(-num_vertices // queue_capacity))


def repartition_report(
    graph: CSRGraph, assignments: Sequence[np.ndarray]
) -> Dict[str, float]:
    """Compare cut fractions of successive assignments (evolving graphs).

    §4.7 notes slices drift from optimal as the graph evolves and suggests
    periodic repartitioning; this helper quantifies the drift for the
    examples and tests.
    """
    src, dst, _ = graph.edge_arrays()
    fractions = []
    for assignment in assignments:
        cut = int(np.count_nonzero(assignment[src] != assignment[dst]))
        fractions.append(cut / max(1, graph.num_edges))
    return {
        "first_cut_fraction": fractions[0] if fractions else 0.0,
        "last_cut_fraction": fractions[-1] if fractions else 0.0,
        "max_cut_fraction": max(fractions) if fractions else 0.0,
    }
