"""Design studies behind two of the paper's claims.

Not a paper table, but questions the paper's argument rests on:

* **Coalescing effectiveness** — what fraction of queue inserts are merged
  by the in-place Reduce (the feature that removes atomics, §4.2)?
* **Software per-batch overhead** — the Fig. 13 crossover driver: where
  does JetStream's advantage come from as the floor varies?

The ``paper`` suite of ``repro bench check`` runs and gates both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.algorithms import make_algorithm
from repro.core.config import SoftwareConfig
from repro.core.streaming import JetStreamEngine
from repro.graph import datasets
from repro.sim.cost_models import SoftwareCostModel
from repro.sim.timing import AcceleratorTimingModel
from repro.streams import StreamGenerator


@dataclass
class CoalescingStat:
    """Coalescing effectiveness for one workload."""

    algorithm: str
    graph: str
    inserts: int
    coalesced: int

    @property
    def rate(self) -> float:
        """Fraction of inserts merged into an existing event."""
        return self.coalesced / self.inserts if self.inserts else 0.0


def coalescing_effectiveness(
    graphs: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[CoalescingStat]:
    """Measure queue-coalescing rates during initial evaluation."""
    out = []
    for algo in algorithms or ["sssp", "bfs", "cc", "pagerank"]:
        for key in graphs or ["WK", "LJ"]:
            algorithm = make_algorithm(algo, source=0)
            if algo in ("pagerank", "adsorption"):
                algorithm = make_algorithm(algo, tolerance=1e-4)
            graph = datasets.load(key, seed=seed, symmetric=algorithm.needs_symmetric)
            engine = JetStreamEngine(graph, algorithm)
            result = engine.initial_compute()
            total = result.metrics.total
            out.append(
                CoalescingStat(
                    algorithm=algo,
                    graph=key,
                    inserts=total.queue_inserts,
                    coalesced=total.coalesce_ops,
                )
            )
    return out


@dataclass
class OverheadPoint:
    """Software-floor sensitivity at one batch size."""

    overhead_us: float
    batch_size: int
    jetstream_ms: float
    software_ms: float

    @property
    def advantage(self) -> float:
        return self.software_ms / self.jetstream_ms if self.jetstream_ms else 0.0


def software_overhead_sensitivity(
    overheads_us: Sequence[float] = (0.0, 40.0, 120.0, 400.0),
    batch_sizes: Sequence[int] = (4, 83),
    seed: int = 0,
) -> List[OverheadPoint]:
    """How the software per-batch floor shapes the small-batch advantage."""
    from repro.baselines import KickStarter

    points = []
    timing = AcceleratorTimingModel()
    for batch_size in batch_sizes:
        # One pair of runs per batch size; re-price under each floor.
        graph_jet = datasets.load("LJ", seed=seed)
        jet = JetStreamEngine(graph_jet, make_algorithm("sssp", source=0))
        jet.initial_compute()
        jet_result = jet.apply_batch(
            StreamGenerator(graph_jet, seed=seed + 2).next_batch(batch_size)
        )
        jet_ms = timing.run_time(jet_result.metrics, stream_records=batch_size).time_ms

        graph_ks = datasets.load("LJ", seed=seed)
        kick = KickStarter(graph_ks, make_algorithm("sssp", source=0))
        kick.initial_compute()
        ks_result = kick.apply_batch(
            StreamGenerator(graph_ks, seed=seed + 2).next_batch(batch_size)
        )
        for overhead in overheads_us:
            model = SoftwareCostModel(
                SoftwareConfig(per_batch_overhead_us=overhead)
            )
            points.append(
                OverheadPoint(
                    overhead_us=overhead,
                    batch_size=batch_size,
                    jetstream_ms=jet_ms,
                    software_ms=model.time_ms(ks_result.work),
                )
            )
    return points
