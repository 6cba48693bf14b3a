"""Fig. 14: sensitivity to batch composition.

SSSP and CC on LiveJournal with insertion:deletion mixes of 100:0, 50:50
and 0:100, runtimes normalized to JetStream at 50:50. Deletions are the
expensive direction for selective algorithms (recovery phase + reevaluation
of the impacted set); an insertion-only batch converges several times
faster than a deletion-only one. Accumulative algorithms handle both kinds
through the same negative/positive events and are largely insensitive —
checked on a PageRank curve (``run(algorithms=["pagerank"])``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.policies import DeletePolicy
from repro.experiments.harness import run_cell
from repro.experiments.report import render_table

GRAPH = "LJ"
ALGORITHMS = ["sssp", "cc"]
COMPOSITIONS = [1.0, 0.5, 0.0]  # insertion ratios for 100:0 / 50:50 / 0:100


@dataclass
class CompositionCurve:
    """One system's normalized runtimes across compositions."""

    algorithm: str
    system: str
    #: insertion ratio -> runtime normalized to JetStream at 50:50.
    points: Dict[float, float] = field(default_factory=dict)


def run(
    algorithms: Optional[Sequence[str]] = None,
    compositions: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> List[CompositionCurve]:
    """Sweep compositions for JetStream and the software comparator."""
    algorithms = list(algorithms or ALGORITHMS)
    compositions = list(compositions or COMPOSITIONS)
    curves: List[CompositionCurve] = []
    for algo in algorithms:
        selective = algo in ("sssp", "sswp", "bfs", "cc")
        sw_name = "kickstarter" if selective else "graphbolt"
        anchor = run_cell(
            GRAPH,
            algo,
            policy=DeletePolicy.DAP,
            insertion_ratio=0.5,
            seed=seed,
            systems=("jetstream", "software"),
        )
        anchor_ms = anchor.systems["jetstream"].mean_batch_time_ms
        jet = CompositionCurve(algorithm=algo, system="jetstream")
        sw = CompositionCurve(algorithm=algo, system=sw_name)
        for ratio in compositions:
            cell = run_cell(
                GRAPH,
                algo,
                policy=DeletePolicy.DAP,
                insertion_ratio=ratio,
                seed=seed,
                systems=("jetstream", "software"),
            )
            jet.points[ratio] = cell.systems["jetstream"].mean_batch_time_ms / max(
                1e-12, anchor_ms
            )
            sw.points[ratio] = cell.systems[sw_name].mean_batch_time_ms / max(
                1e-12, anchor_ms
            )
        curves.extend([jet, sw])
    return curves


def render(curves: List[CompositionCurve]) -> str:
    """Text rendering of the composition curves."""
    ratios = sorted({r for c in curves for r in c.points}, reverse=True)

    def label(ratio: float) -> str:
        return f"{int(ratio * 100)}:{int((1 - ratio) * 100)}"

    return render_table(
        ["Algorithm", "System"] + [label(r) for r in ratios],
        [
            [c.algorithm.upper(), c.system]
            + [c.points.get(r, float("nan")) for r in ratios]
            for c in curves
        ],
        title=(
            "Fig. 14: batch-composition sensitivity on LiveJournal "
            "(runtime normalized to JetStream at 50:50; columns = ins:del)"
        ),
    )
