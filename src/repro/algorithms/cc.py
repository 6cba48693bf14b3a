"""Connected Components (label propagation by minimum id) — event-driven.

Every vertex seeds its own id; labels spread along (symmetrized) edges and
each vertex keeps the minimum label it has seen. Like BFS, CC settles large
clusters to one shared value, defeating VAP and motivating DAP (§5.2).

CC is the one application that needs an undirected view of the graph
(:attr:`needs_symmetric`): deleting an edge may split a component, and the
tag/request propagation must travel against the original edge direction.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmKind, SourceContext


class ConnectedComponents(Algorithm):
    """Minimum-vertex-id component labels.

    * ``identity`` = +inf; ``reduce`` = min; ``propagate`` = state
      (labels pass through unchanged);
    * every vertex receives its own id as an initial event, and that same
      payload is its self event (re-injected if the vertex resets — without
      it a split-off component could never rediscover its new minimum).
    """

    name = "cc"
    kind = AlgorithmKind.SELECTIVE
    identity = math.inf
    needs_symmetric = True
    reduce_ufunc = np.minimum

    def reduce(self, a: float, b: float) -> float:
        return a if a <= b else b

    def propagate(self, value: float, weight: float, ctx: SourceContext) -> float:
        return value

    def initial_events(self, graph) -> List[Tuple[int, float]]:
        return [(v, float(v)) for v in range(graph.num_vertices)]

    def self_event(self, v: int) -> Optional[float]:
        return float(v)

    def seed_event_for_new_vertex(self, v: int) -> Optional[float]:
        return float(v)

    def more_progressed(self, a: float, b: float) -> bool:
        return a < b

    def propagate_arrays(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return values

    def more_progressed_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a < b

    def initial_events_arrays(self, graph):
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        return ids, ids.astype(np.float64)

    def self_events_arrays(self, vertices):
        return np.ones(len(vertices), dtype=bool), vertices.astype(np.float64)

    def seed_events_for_new_vertices(self, start, stop):
        ids = np.arange(start, stop, dtype=np.int64)
        return ids, ids.astype(np.float64)
