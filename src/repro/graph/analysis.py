"""Graph statistics used to validate the dataset stand-ins.

DESIGN.md claims the stand-ins preserve the paper's topology classes:
WK/UK are "narrow graphs with long paths" (high effective diameter), while
FB/LJ/TW are "highly connected networks" (low diameter, heavy-tailed
degrees). These helpers quantify that, and the dataset tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass
class GraphProfile:
    """Summary statistics of one graph."""

    num_vertices: int
    num_edges: int
    max_out_degree: int
    mean_out_degree: float
    degree_skew: float
    effective_diameter: float
    reachable_fraction: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "max_out_degree": self.max_out_degree,
            "mean_out_degree": self.mean_out_degree,
            "degree_skew": self.degree_skew,
            "effective_diameter": self.effective_diameter,
            "reachable_fraction": self.reachable_fraction,
        }


def degree_distribution(csr: CSRGraph) -> np.ndarray:
    """Out-degree of every vertex."""
    return csr.out_degrees.copy()


def degree_skew(csr: CSRGraph) -> float:
    """Max-degree over mean-degree: ~1 for regular, large for power-law."""
    degrees = degree_distribution(csr)
    mean = degrees.mean() if degrees.size else 0.0
    return float(degrees.max() / mean) if mean else 0.0


def bfs_levels(csr: CSRGraph, root: int = 0) -> np.ndarray:
    """Hop distance from ``root`` (-1 = unreachable), array of ints."""
    levels = np.full(csr.num_vertices, -1, dtype=np.int64)
    levels[root] = 0
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in csr.out_neighbors(u):
                v = int(v)
                if levels[v] == -1:
                    levels[v] = depth
                    nxt.append(v)
        frontier = nxt
    return levels


def effective_diameter(
    csr: CSRGraph, root: int = 0, percentile: float = 90.0
) -> float:
    """The ``percentile``-th percentile of finite BFS depths from ``root``.

    The standard robust alternative to the exact diameter (which one
    stray path dominates).
    """
    levels = bfs_levels(csr, root)
    finite = levels[levels >= 0]
    if finite.size == 0:
        return 0.0
    return float(np.percentile(finite, percentile))


def reachable_fraction(csr: CSRGraph, root: int = 0) -> float:
    """Fraction of vertices reachable from ``root``."""
    levels = bfs_levels(csr, root)
    return float((levels >= 0).sum() / max(1, csr.num_vertices))


def component_sizes(csr: CSRGraph) -> List[int]:
    """Weakly connected component sizes, descending."""
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
    counts: Dict[int, int] = {}
    for v in range(csr.num_vertices):
        root = find(v)
        counts[root] = counts.get(root, 0) + 1
    return sorted(counts.values(), reverse=True)


def profile(csr: CSRGraph, root: int = 0) -> GraphProfile:
    """Full :class:`GraphProfile` of a graph."""
    degrees = degree_distribution(csr)
    return GraphProfile(
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        max_out_degree=int(degrees.max()) if degrees.size else 0,
        mean_out_degree=float(degrees.mean()) if degrees.size else 0.0,
        degree_skew=degree_skew(csr),
        effective_diameter=effective_diameter(csr, root),
        reachable_fraction=reachable_fraction(csr, root),
    )
