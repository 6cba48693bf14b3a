"""Fig. 10: number of vertices reset by a deletion-only batch.

The paper deletes 30K edges and counts how many vertices each system resets
while recovering a recoverable approximation: JetStream's exact-source DAP
resets fewer vertices than KickStarter's value/level trimming on almost
every (algorithm, graph) point. The 30K batch is scaled to the stand-ins
with the same edge-ratio rule as Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.policies import DeletePolicy
from repro.experiments.harness import run_cell
from repro.experiments.report import render_table
from repro.graph import datasets

ALGORITHMS = ["sswp", "sssp", "bfs", "cc"]
GRAPHS = datasets.ORDER


@dataclass
class ResetCount:
    """One bar group of the figure."""

    algorithm: str
    graph: str
    jetstream_resets: int
    kickstarter_resets: int


def run(
    graphs: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[ResetCount]:
    """Deletion-only batches through JetStream (DAP) and KickStarter."""
    out: List[ResetCount] = []
    for algo in algorithms or ALGORITHMS:
        for graph in graphs or GRAPHS:
            batch = int(round(datasets.scaled_batch_size(graph) * 0.3)) or 8
            cell = run_cell(
                graph,
                algo,
                policy=DeletePolicy.DAP,
                batch_size=batch,
                insertion_ratio=0.0,
                seed=seed,
                systems=("jetstream", "software"),
            )
            out.append(
                ResetCount(
                    algorithm=algo,
                    graph=graph,
                    jetstream_resets=cell.systems["jetstream"].vertices_reset,
                    kickstarter_resets=cell.systems["kickstarter"].vertices_reset,
                )
            )
    return out


def render(counts: List[ResetCount]) -> str:
    """Text rendering of the bar chart."""
    return render_table(
        [
            "Algorithm",
            "Graph",
            "JetStream resets",
            "KickStarter resets",
        ],
        [
            [
                c.algorithm.upper(),
                c.graph,
                c.jetstream_resets,
                c.kickstarter_resets,
            ]
            for c in counts
        ],
        title="Fig. 10: vertices reset by a deletion-only batch (lower = tighter trimming)",
    )
