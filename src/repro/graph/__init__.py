"""Graph substrates: CSR storage, dynamic graphs, generators, datasets,
partitioning, and edge-list I/O.

The accelerator (``repro.core``) consumes :class:`~repro.graph.csr.CSRGraph`
snapshots produced by :class:`~repro.graph.dynamic.DynamicGraph`, which plays
the role of the host-side graph-versioning framework described in §4.7 of the
paper.
"""

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import CommonSlice, DeltaVersionStore, DynamicGraph
from repro.graph import analysis
from repro.graph import generators
from repro.graph import datasets
from repro.graph.partition import partition_graph, PartitionResult

__all__ = [
    "CSRGraph",
    "CommonSlice",
    "DeltaVersionStore",
    "DynamicGraph",
    "analysis",
    "generators",
    "datasets",
    "partition_graph",
    "PartitionResult",
]
