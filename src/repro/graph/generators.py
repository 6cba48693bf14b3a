"""Seeded synthetic graph generators.

These substitute for the paper's downloaded datasets (Table 2): the
evaluation does not depend on the exact graphs, only on their topological
class ("narrow graphs with long paths" vs "large, highly connected
networks", §6.1). Every generator is deterministic given a seed.

All generators return plain edge lists ``[(u, v, w), ...]`` with no
duplicate directed edges, suitable for :class:`repro.graph.DynamicGraph`.
"""

from __future__ import annotations

import math
from typing import List, Set, Tuple

import numpy as np

Edge = Tuple[int, int, float]


def _weights(rng: np.random.Generator, count: int, weighted: bool) -> np.ndarray:
    if weighted:
        # Integer-ish distinct-leaning weights in [1, 64): keeps SSSP paths
        # well separated, which matters for the VAP optimization study.
        return rng.integers(1, 64, size=count).astype(np.float64)
    return np.ones(count, dtype=np.float64)


def rmat(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = True,
) -> List[Edge]:
    """Recursive-MATrix (Kronecker) power-law graph.

    The standard generator behind Graph500 and the social-network stand-ins
    (Facebook/LiveJournal/Twitter classes). ``a + b + c <= 1``; the
    remainder is the probability of the fourth quadrant.
    """
    if num_vertices < 2:
        raise ValueError("rmat needs at least 2 vertices")
    if not 0 < a + b + c <= 1:
        raise ValueError("quadrant probabilities must sum to at most 1")
    rng = np.random.default_rng(seed)
    scale = int(math.ceil(math.log2(num_vertices)))
    edges: Set[Tuple[int, int]] = set()
    probs = np.array([a, b, c, 1.0 - a - b - c])
    # Oversample: duplicates and out-of-range endpoints are discarded.
    attempts = 0
    max_attempts = 20 * num_edges + 100
    while len(edges) < num_edges and attempts < max_attempts:
        need = num_edges - len(edges)
        quadrants = rng.choice(4, size=(need, scale), p=probs)
        row_bit = (quadrants >= 2).astype(np.int64)
        col_bit = (quadrants % 2).astype(np.int64)
        powers = 1 << np.arange(scale - 1, -1, -1, dtype=np.int64)
        us = (row_bit * powers).sum(axis=1)
        vs = (col_bit * powers).sum(axis=1)
        for u, v in zip(us, vs):
            if u != v and u < num_vertices and v < num_vertices:
                edges.add((int(u), int(v)))
        attempts += need
    edge_arr = sorted(edges)
    w = _weights(rng, len(edge_arr), weighted)
    return [(u, v, float(wi)) for (u, v), wi in zip(edge_arr, w)]


def erdos_renyi(
    num_vertices: int, num_edges: int, seed: int = 0, weighted: bool = True
) -> List[Edge]:
    """Uniform random directed graph with exactly ``num_edges`` edges."""
    rng = np.random.default_rng(seed)
    edges: Set[Tuple[int, int]] = set()
    max_possible = num_vertices * (num_vertices - 1)
    if num_edges > max_possible:
        raise ValueError("too many edges requested")
    while len(edges) < num_edges:
        need = num_edges - len(edges)
        us = rng.integers(0, num_vertices, size=2 * need + 8)
        vs = rng.integers(0, num_vertices, size=2 * need + 8)
        for u, v in zip(us, vs):
            if u != v:
                edges.add((int(u), int(v)))
                if len(edges) == num_edges:
                    break
    edge_arr = sorted(edges)
    w = _weights(rng, len(edge_arr), weighted)
    return [(u, v, float(wi)) for (u, v), wi in zip(edge_arr, w)]


def watts_strogatz(
    num_vertices: int,
    k: int = 4,
    rewire_p: float = 0.1,
    seed: int = 0,
    weighted: bool = True,
) -> List[Edge]:
    """Small-world ring lattice with random rewiring (directed both ways)."""
    if k % 2 or k <= 0:
        raise ValueError("k must be a positive even integer")
    rng = np.random.default_rng(seed)
    pairs: Set[Tuple[int, int]] = set()
    for u in range(num_vertices):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % num_vertices
            if rng.random() < rewire_p:
                v = int(rng.integers(0, num_vertices))
            if u != v:
                pairs.add((u, v))
                pairs.add((v, u))
    edge_arr = sorted(pairs)
    w = _weights(rng, len(edge_arr), weighted)
    return [(u, v, float(wi)) for (u, v), wi in zip(edge_arr, w)]


def long_path_web(
    num_vertices: int,
    num_edges: int,
    backbone_fraction: float = 0.45,
    seed: int = 0,
    weighted: bool = True,
) -> List[Edge]:
    """Web-crawl-like graph: long directed chains plus sparse cross links.

    Models the "narrow graphs with long paths" class (Wikipedia, UK-2002):
    a few long backbone chains (deep site hierarchies) connected by
    power-law cross edges. Diameter grows with ``backbone_fraction``.
    """
    rng = np.random.default_rng(seed)
    edges: Set[Tuple[int, int]] = set()
    n_backbone = max(2, int(num_vertices * backbone_fraction))
    # Several parallel chains over a shuffled vertex order.
    order = rng.permutation(num_vertices)
    chains = max(1, n_backbone // 512)
    chain_len = n_backbone // chains
    idx = 0
    for _ in range(chains):
        chain = order[idx : idx + chain_len]
        idx += chain_len
        for i in range(len(chain) - 1):
            edges.add((int(chain[i]), int(chain[i + 1])))
    # Power-law cross links for the remainder.
    remaining = max(0, num_edges - len(edges))
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    popularity = 1.0 / ranks
    popularity /= popularity.sum()
    attempts = 0
    while len(edges) < num_edges and attempts < 20 * remaining + 100:
        need = num_edges - len(edges)
        us = rng.integers(0, num_vertices, size=need + 8)
        vs = rng.choice(num_vertices, size=need + 8, p=popularity)
        for u, v in zip(us, vs):
            if u != v:
                edges.add((int(u), int(v)))
                if len(edges) >= num_edges:
                    break
        attempts += need
    edge_arr = sorted(edges)
    w = _weights(rng, len(edge_arr), weighted)
    return [(u, v, float(wi)) for (u, v), wi in zip(edge_arr, w)]


def grid_road(
    rows: int, cols: int, seed: int = 0, diagonal_p: float = 0.05
) -> List[Edge]:
    """Planar grid road network with weights ~ travel times (both ways)."""
    rng = np.random.default_rng(seed)
    edges: List[Edge] = []

    def vid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            u = vid(r, c)
            if c + 1 < cols:
                w = float(rng.integers(1, 16))
                edges.append((u, vid(r, c + 1), w))
                edges.append((vid(r, c + 1), u, w))
            if r + 1 < rows:
                w = float(rng.integers(1, 16))
                edges.append((u, vid(r + 1, c), w))
                edges.append((vid(r + 1, c), u, w))
            if r + 1 < rows and c + 1 < cols and rng.random() < diagonal_p:
                w = float(rng.integers(1, 24))
                edges.append((u, vid(r + 1, c + 1), w))
                edges.append((vid(r + 1, c + 1), u, w))
    return edges


def ensure_reachable_core(
    edges: List[Edge], num_vertices: int, root: int = 0, seed: int = 0
) -> List[Edge]:
    """Add minimal edges so that a large fraction of vertices is reachable
    from ``root``.

    Synthetic power-law digraphs can strand many vertices; queries rooted at
    ``root`` would then trivially ignore them, weakening the experiments.
    We stitch unreachable vertices to random reachable ones.
    """
    rng = np.random.default_rng(seed)
    out: dict = {}
    existing = set()
    for u, v, _ in edges:
        out.setdefault(u, []).append(v)
        existing.add((u, v))
    reachable = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in out.get(u, ()):
                if v not in reachable:
                    reachable.add(v)
                    nxt.append(v)
        frontier = nxt
    edges = list(edges)
    reachable_list = sorted(reachable)
    for v in range(num_vertices):
        if v not in reachable:
            u = reachable_list[int(rng.integers(0, len(reachable_list)))]
            if (u, v) not in existing:
                edges.append((u, v, float(rng.integers(1, 64))))
                existing.add((u, v))
            reachable.add(v)
            reachable_list.append(v)
    return edges


def largest_weakly_connected(edges: List[Edge], num_vertices: int) -> Tuple[List[Edge], int]:
    """Restrict to the largest weakly connected component, re-labelling ids.

    Returns the filtered/relabelled edge list and the new vertex count.
    """
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes: dict = {}
    for v in range(num_vertices):
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    big = max(sizes, key=sizes.get)
    keep = [v for v in range(num_vertices) if find(v) == big]
    relabel = {v: i for i, v in enumerate(keep)}
    new_edges = [
        (relabel[u], relabel[v], w) for u, v, w in edges if find(u) == big and find(v) == big
    ]
    return new_edges, len(keep)
