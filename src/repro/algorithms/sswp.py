"""Single-Source Widest Path (maximum bottleneck capacity) — event-driven."""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Algorithm, AlgorithmKind, SourceContext


class SSWP(Algorithm):
    """Widest-path capacity from ``source``.

    * ``identity`` = 0 (no path);
    * ``reduce`` = max (keep the widest incoming path);
    * ``propagate`` = min(state, edge weight) — the bottleneck narrows;
    * monotonic direction: increasing (larger is more progressed).

    The source itself has unbounded capacity (+inf).
    """

    name = "sswp"
    kind = AlgorithmKind.SELECTIVE
    identity = 0.0
    reduce_ufunc = np.maximum

    def __init__(self, source: int = 0):
        if source < 0:
            raise ValueError("source must be a valid vertex id")
        self.source = int(source)

    def reduce(self, a: float, b: float) -> float:
        return a if a >= b else b

    def propagate(self, value: float, weight: float, ctx: SourceContext) -> float:
        return value if value <= weight else weight

    def initial_events(self, graph) -> List[Tuple[int, float]]:
        if self.source >= graph.num_vertices:
            raise ValueError(
                f"source {self.source} outside graph of {graph.num_vertices} vertices"
            )
        return [(self.source, math.inf)]

    def self_event(self, v: int) -> Optional[float]:
        return math.inf if v == self.source else None

    def more_progressed(self, a: float, b: float) -> bool:
        return a > b

    def propagate_arrays(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.minimum(values, weights)

    def more_progressed_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a > b

    def self_events_arrays(self, vertices):
        mask = vertices == self.source
        return mask, np.where(mask, math.inf, 0.0)
