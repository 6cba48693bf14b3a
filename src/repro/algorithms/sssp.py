"""Single-Source Shortest Path in the event-driven model (Algorithm 1)."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmKind, SourceContext


class SSSP(Algorithm):
    """Shortest path distances from ``source``.

    * ``identity`` = +inf (unreachable / initial value);
    * ``reduce`` = min (keep the shortest incoming path);
    * ``propagate`` = state + edge weight;
    * monotonic direction: decreasing (smaller is more progressed).
    """

    name = "sssp"
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
        return value + weight

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
        return values + weights

    def more_progressed_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a < b

    def self_events_arrays(self, vertices):
        mask = vertices == self.source
        return mask, np.where(mask, 0.0, 0.0)
