"""Synthetic stand-ins for the paper's five input graphs (Table 2).

The paper evaluates on Wikipedia (WK), Facebook (FB), LiveJournal (LJ),
UK-2002 (UK) and Twitter (TW). Those graphs are 45M–1.46B edges — far
beyond what a Python architectural model can sweep — and are anyway only
characterized in the paper by topology class:

* WK, UK — "narrow graphs with long paths" (web-crawl-like, high diameter)
* FB, LJ, TW — "large, highly connected networks" (social, low diameter,
  heavy-tailed degrees)

Each stand-in reproduces the class at laptop scale with the same *relative*
size ordering (TW largest, UK next, then LJ > FB ≈ WK). All are seeded and
deterministic. See DESIGN.md §1 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, build_symmetric_graph

Edge = Tuple[int, int, float]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic stand-in dataset."""

    key: str
    name: str
    paper_nodes: str
    paper_edges: str
    description: str
    num_vertices: int
    num_edges: int
    builder: Callable[["DatasetSpec", int], List[Edge]]

    def build_edges(self, seed: int = 0) -> List[Edge]:
        """Generate the (seeded) edge list for this dataset."""
        return self.builder(self, seed)


def _social(spec: DatasetSpec, seed: int) -> List[Edge]:
    edges = generators.rmat(spec.num_vertices, spec.num_edges, seed=seed)
    return generators.ensure_reachable_core(edges, spec.num_vertices, seed=seed + 1)


def _web(spec: DatasetSpec, seed: int) -> List[Edge]:
    edges = generators.long_path_web(spec.num_vertices, spec.num_edges, seed=seed)
    return generators.ensure_reachable_core(edges, spec.num_vertices, seed=seed + 1)


#: The five stand-ins, keyed the way the paper abbreviates them.
SPECS: Dict[str, DatasetSpec] = {
    "WK": DatasetSpec(
        key="WK",
        name="Wikipedia (stand-in)",
        paper_nodes="3.56M",
        paper_edges="45.03M",
        description="Wikipedia page links — narrow, long paths",
        num_vertices=6144,
        num_edges=36_864,
        builder=_web,
    ),
    "FB": DatasetSpec(
        key="FB",
        name="Facebook (stand-in)",
        paper_nodes="3.01M",
        paper_edges="47.33M",
        description="Facebook social network — highly connected",
        num_vertices=6144,
        num_edges=43_008,
        builder=_social,
    ),
    "LJ": DatasetSpec(
        key="LJ",
        name="LiveJournal (stand-in)",
        paper_nodes="4.84M",
        paper_edges="68.99M",
        description="LiveJournal social network — highly connected",
        num_vertices=8192,
        num_edges=57_344,
        builder=_social,
    ),
    "UK": DatasetSpec(
        key="UK",
        name="UK-2002 (stand-in)",
        paper_nodes="18.5M",
        paper_edges="298M",
        description=".uk domain web crawl — narrow, long paths",
        num_vertices=12_288,
        num_edges=73_728,
        builder=_web,
    ),
    "TW": DatasetSpec(
        key="TW",
        name="Twitter (stand-in)",
        paper_nodes="41.65M",
        paper_edges="1.46B",
        description="Twitter follower graph — highly connected, largest",
        num_vertices=16_384,
        num_edges=131_072,
        builder=_social,
    ),
}

#: Dataset ordering used across the paper's tables/figures.
ORDER = ["WK", "FB", "LJ", "UK", "TW"]


def load(key: str, seed: int = 0, symmetric: bool = False) -> DynamicGraph:
    """Build the stand-in dataset ``key`` as a :class:`DynamicGraph`."""
    spec = SPECS[key.upper()]
    edges = spec.build_edges(seed)
    if symmetric:
        # Generators weight (u, v) and (v, u) independently: keep the first.
        return build_symmetric_graph(edges, spec.num_vertices, on_conflict="silent")
    return DynamicGraph.from_edges(edges, spec.num_vertices)


def load_csr(key: str, seed: int = 0) -> CSRGraph:
    """Build the stand-in dataset ``key`` as an immutable CSR snapshot."""
    return load(key, seed).snapshot()


def scaled_batch_size(key: str, paper_batch: int = 100_000) -> int:
    """Scale the paper's batch size to the stand-in graph size.

    The paper uses 100K-edge batches on graphs of 45M–1.46B edges, i.e. a
    batch is roughly 0.007%–0.2% of the edges. We keep the batch/graph edge
    ratio of the *paper's* graph so batch-size-relative effects are
    preserved.
    """
    spec = SPECS[key.upper()]
    paper_edges = {
        "WK": 45_030_000,
        "FB": 47_330_000,
        "LJ": 68_990_000,
        "UK": 298_000_000,
        "TW": 1_460_000_000,
    }[key.upper()]
    ratio = paper_batch / paper_edges
    # Keep the paper's batch:graph edge ratio exactly (floored at 16 so the
    # smallest batches still mix insertions and deletions); Fig. 13 sweeps
    # the absolute size anyway.
    return max(16, int(round(spec.num_edges * ratio)))


def table2_rows(seed: int = 0) -> List[Dict[str, str]]:
    """Rows for the Table 2 reproduction (paper scale vs stand-in scale)."""
    rows = []
    for key in ORDER:
        spec = SPECS[key]
        graph = load(key, seed)
        rows.append(
            {
                "graph": spec.name,
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
                "standin_nodes": str(graph.num_vertices),
                "standin_edges": str(graph.num_edges),
                "description": spec.description,
            }
        )
    return rows
