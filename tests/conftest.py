"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.dynamic import DynamicGraph

Edge = Tuple[int, int, float]


def random_digraph(n: int = 40, m: int = 160, seed: int = 0) -> DynamicGraph:
    """Seeded random directed graph with integer weights."""
    return DynamicGraph.from_edges(generators.erdos_renyi(n, m, seed=seed), n)


def random_symmetric_graph(n: int = 40, m: int = 160, seed: int = 0) -> DynamicGraph:
    """Seeded random symmetric graph (for CC)."""
    edges = generators.erdos_renyi(n, m, seed=seed)
    dedup: Dict[Tuple[int, int], float] = {}
    for u, v, w in edges:
        if (v, u) not in dedup:
            dedup[(u, v)] = w
    return DynamicGraph.from_edges(
        [(u, v, w) for (u, v), w in sorted(dedup.items())], n, symmetric=True
    )


def make_graph_for(algorithm, n: int = 40, m: int = 160, seed: int = 0) -> DynamicGraph:
    """A graph matching the algorithm's symmetry requirement."""
    if algorithm.needs_symmetric:
        return random_symmetric_graph(n, m, seed)
    return random_digraph(n, m, seed)


def assert_states_match(algorithm, actual, expected, context: str = "") -> None:
    """Element-wise comparison with the algorithm's tolerance."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, context
    bad = [
        (i, float(actual[i]), float(expected[i]))
        for i in range(len(expected))
        if not algorithm.values_close(actual[i], expected[i])
    ]
    assert not bad, f"{context}: first mismatches {bad[:5]}"


@pytest.fixture
def small_digraph() -> DynamicGraph:
    """The paper's Fig. 4 example graph (A..G = 0..6)."""
    edges = [
        (0, 1, 8.0),  # A->B
        (0, 2, 9.0),  # A->C
        (1, 3, 4.0),  # B->D
        (1, 4, 8.0),  # B->E
        (2, 4, 5.0),  # C->E
        (2, 5, 8.0),  # C->F
        (3, 4, 7.0),  # D->E
        (3, 6, 7.0),  # D->G
        (4, 5, 5.0),  # E->F
        (6, 4, 3.0),  # G->E
    ]
    return DynamicGraph.from_edges(edges, 7)
