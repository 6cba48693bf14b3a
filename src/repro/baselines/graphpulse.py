"""Cold-start GraphPulse baseline (the "GP" rows of Table 3).

The straightforward way to handle a streaming update on a static-graph
accelerator: apply the batch to the graph, then recompute the query from
scratch. JetStream's headline claim is the 13× average advantage of
incremental reuse over exactly this (§6.2), so the baseline runs on the
*same* accelerator model with the *same* timing configuration — only the
algorithmic reuse differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.core.engine import GraphPulseEngine
from repro.core.metrics import RunMetrics
from repro.graph.dynamic import DynamicGraph
from repro.streams import UpdateBatch


@dataclass
class ColdStartResult:
    """Outcome of one cold-start evaluation."""

    states: np.ndarray
    metrics: RunMetrics
    graph_version: int


class GraphPulseColdStart:
    """Re-evaluates the full query after every batch."""

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm,
        config: Optional[AcceleratorConfig] = None,
    ):
        if algorithm.needs_symmetric and not graph.symmetric:
            raise ValueError(f"{algorithm.name} requires a symmetric graph")
        self.graph = graph
        self.algorithm = algorithm
        self.engine = GraphPulseEngine(algorithm, config)

    def initial_compute(self) -> ColdStartResult:
        """Static evaluation of the current graph."""
        return self._recompute()

    def apply_batch(self, batch: UpdateBatch) -> ColdStartResult:
        """Apply the batch, then recompute from scratch."""
        self.graph.apply_batch(batch.ins, batch.dels)
        return self._recompute()

    def _recompute(self) -> ColdStartResult:
        compute = self.engine.compute(self.graph.snapshot())
        return ColdStartResult(
            states=compute.states,
            metrics=compute.metrics,
            graph_version=self.graph.version,
        )
