"""Breadth-First Search (hop distance) — event-driven.

BFS is the paper's motivating case for the DAP optimization (§5.2): large
plateaus of vertices share the same level value, so value comparison (VAP)
cannot prune delete propagation, while source-dependency tracking can.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmKind, SourceContext


class BFS(Algorithm):
    """Hop distance from ``source`` (edge weights are ignored).

    * ``identity`` = +inf; ``reduce`` = min; ``propagate`` = state + 1.
    """

    name = "bfs"
    kind = AlgorithmKind.SELECTIVE
    identity = math.inf
    reduce_ufunc = np.minimum

    def __init__(self, source: int = 0):
        if source < 0:
            raise ValueError("source must be a valid vertex id")
        self.source = int(source)

    def reduce(self, a: float, b: float) -> float:
        return a if a <= b else b

    def propagate(self, value: float, weight: float, ctx: SourceContext) -> float:
        return value + 1.0

    def initial_events(self, graph) -> List[Tuple[int, float]]:
        if self.source >= graph.num_vertices:
            raise ValueError(
                f"source {self.source} outside graph of {graph.num_vertices} vertices"
            )
        return [(self.source, 0.0)]

    def self_event(self, v: int) -> Optional[float]:
        return 0.0 if v == self.source else None

    def more_progressed(self, a: float, b: float) -> bool:
        return a < b

    def propagate_arrays(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return values + 1.0

    def more_progressed_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a < b

    def self_events_arrays(self, vertices):
        mask = vertices == self.source
        return mask, np.where(mask, 0.0, 0.0)
