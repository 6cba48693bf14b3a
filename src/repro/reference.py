"""Reference implementations used as correctness oracles.

Classical textbook algorithms, independent of the event-driven machinery:
Dijkstra for SSSP, a max-bottleneck Dijkstra for SSWP, plain BFS,
union-find for CC, and fixed-point iteration for PageRank/Adsorption using
the same (unnormalized, non-redistributing) formulations the DAIC versions
converge to. Tests compare the engines against these on every graph state.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph


def sssp(csr: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra shortest-path distances (``inf`` = unreachable)."""
    dist = np.full(csr.num_vertices, math.inf)
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in csr.out_edges(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def sswp(csr: CSRGraph, source: int) -> np.ndarray:
    """Widest-path capacities (``0`` = unreachable, source = ``inf``)."""
    width = np.zeros(csr.num_vertices)
    width[source] = math.inf
    heap: List[Tuple[float, int]] = [(-math.inf, source)]
    while heap:
        neg_w, u = heapq.heappop(heap)
        cur = -neg_w
        if cur < width[u]:
            continue
        for v, w in csr.out_edges(u):
            cand = min(cur, w)
            if cand > width[v]:
                width[v] = cand
                heapq.heappush(heap, (-cand, v))
    return width


def bfs(csr: CSRGraph, source: int) -> np.ndarray:
    """Hop distances (``inf`` = unreachable)."""
    dist = np.full(csr.num_vertices, math.inf)
    dist[source] = 0.0
    frontier = [source]
    level = 0.0
    while frontier:
        level += 1.0
        nxt = []
        for u in frontier:
            for v in csr.out_neighbors(u):
                v = int(v)
                if dist[v] == math.inf:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return dist


def connected_components(csr: CSRGraph) -> np.ndarray:
    """Minimum-vertex-id labels over the *undirected* closure of the edges."""
    parent = list(range(csr.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in csr.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    minimum: Dict[int, int] = {}
    for v in range(csr.num_vertices):
        root = find(v)
        minimum[root] = min(minimum.get(root, v), v)
    return np.array(
        [float(minimum[find(v)]) for v in range(csr.num_vertices)], dtype=np.float64
    )


def pagerank(
    csr: CSRGraph, alpha: float = 0.85, tol: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Unnormalized PageRank fixed point matching the DAIC formulation:

        r(v) = (1 - alpha) + alpha * sum_{u->v} r(u) / out_degree(u)

    (dangling mass is absorbed, no normalization).
    """
    csr = csr.compact()
    n = csr.num_vertices
    ranks = np.full(n, 1.0 - alpha)
    degrees = csr.out_degrees.astype(np.float64)
    for _ in range(max_iter):
        incoming = np.zeros(n)
        for u in range(n):
            if degrees[u] == 0:
                continue
            share = alpha * ranks[u] / degrees[u]
            start, stop = csr.out_offsets[u], csr.out_offsets[u + 1]
            np.add.at(incoming, csr.out_targets[start:stop], share)
        new_ranks = (1.0 - alpha) + incoming
        if np.abs(new_ranks - ranks).max() < tol:
            return new_ranks
        ranks = new_ranks
    return ranks


def adsorption(
    csr: CSRGraph,
    injections: Dict[int, float],
    p_inject: float = 0.25,
    p_continue: float = 0.70,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Scalar adsorption fixed point matching the DAIC formulation:

        s(v) = p_inject*inj(v) + p_continue * sum_{u->v} (w/W_out(u)) * s(u)
    """
    csr = csr.compact()
    n = csr.num_vertices
    base = np.zeros(n)
    for v, mass in injections.items():
        base[v] = p_inject * mass
    weight_sums = np.zeros(n)
    for u in range(n):
        start, stop = csr.out_offsets[u], csr.out_offsets[u + 1]
        weight_sums[u] = csr.out_weights[start:stop].sum()
    state = base.copy()
    for _ in range(max_iter):
        incoming = np.zeros(n)
        for u in range(n):
            if weight_sums[u] <= 0:
                continue
            start, stop = csr.out_offsets[u], csr.out_offsets[u + 1]
            share = p_continue * state[u] / weight_sums[u]
            np.add.at(
                incoming, csr.out_targets[start:stop], share * csr.out_weights[start:stop]
            )
        new_state = base + incoming
        if np.abs(new_state - state).max() < tol:
            return new_state
        state = new_state
    return state


def compute_reference(algorithm, csr: CSRGraph) -> np.ndarray:
    """Dispatch on an :class:`~repro.algorithms.base.Algorithm` instance."""
    name = algorithm.name
    if name == "sssp":
        return sssp(csr, algorithm.source)
    if name == "sswp":
        return sswp(csr, algorithm.source)
    if name == "bfs":
        return bfs(csr, algorithm.source)
    if name == "cc":
        return connected_components(csr)
    if name == "pagerank":
        return pagerank(csr, alpha=algorithm.alpha)
    if name == "adsorption":
        return adsorption(
            csr,
            algorithm.injections,
            p_inject=algorithm.p_inject,
            p_continue=algorithm.p_continue,
        )
    raise ValueError(f"no reference for {name}")
