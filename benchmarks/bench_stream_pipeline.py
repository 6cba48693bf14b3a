"""Streaming update-pipeline throughput: incremental store vs full rebuild.

Drives :class:`JetStreamEngine` over a pre-generated update stream at
several batch sizes and compares the two host graph-store strategies:

* **incremental** — the :class:`DynamicGraph` edge arena rewrites only
  the touched vertices' adjacency runs, copy-on-write at the arena tail,
  and snapshots it without building an O(E) array (the shipped
  behaviour);
* **full_rebuild** — the bench points its own graph instance's
  ``snapshot`` at :meth:`DynamicGraph.rebuild_snapshot`, so every snapshot
  is a from-scratch iterate-and-sort CSR build, i.e. the pre-incremental
  store.

Both modes process identical batches and converge to bit-identical states
(the parity suites enforce this); the difference is pure host-side
per-batch overhead. Each batch size emits both modes' summed events
processed (``exact``), the incremental store's arena slots written per
batch (``exact``: run slots plus compacted slots, so "store work scales
with the touched runs" is gated by a count), their batches/s (``info``)
and the full-rebuild /
incremental median per-batch speedup as a ``ratio`` row: at least 1× on the
quick grid, and at least :data:`SMALL_BATCH_SPEEDUP` for the full grid's
≤100-edge batches on the ≥100k-edge RMAT graph — per-batch cost must
scale with the batch, not with E.

Run and gated only by ``repro bench check --suite stream``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import statistics
import time

from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.obs.bench_gate import row
from repro.streams import StreamGenerator

ALGORITHM = "sssp"
STREAM_SEED = 23
#: Minimum full-grid speedup of batches of at most 100 edges.
SMALL_BATCH_SPEEDUP = 5.0


def build_graph(quick: bool):
    n, m = (2_048, 12_288) if quick else (16_384, 131_072)
    edges = generators.ensure_reachable_core(
        generators.rmat(n, m, seed=17), n, seed=18
    )
    return n, edges


def batch_plan(quick: bool):
    """(batch_size, num_batches) grid."""
    if quick:
        return [(1, 12), (100, 6), (1_000, 3)]
    return [(1, 30), (100, 10), (10_000, 3)]


def pregenerate_batches(edges, num_vertices: int, batch_size: int, num_batches: int):
    """Produce the batch sequence once, off the clock, on a scratch graph."""
    scratch = DynamicGraph.from_edges(edges, num_vertices)
    gen = StreamGenerator(scratch, seed=STREAM_SEED)
    return list(gen.stream(batch_size, num_batches))


def run_mode(edges, num_vertices: int, batches, incremental: bool) -> dict:
    graph = DynamicGraph.from_edges(edges, num_vertices)
    if not incremental:
        graph.snapshot = graph.rebuild_snapshot
    engine = JetStreamEngine(
        graph, make_algorithm(ALGORITHM, source=0), policy=DeletePolicy.DAP
    )
    engine.initial_compute()

    latencies = []
    events = 0
    slots = graph.store_stats()["slots_written"]
    started = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        result = engine.apply_batch(batch)
        latencies.append(time.perf_counter() - t0)
        events += result.metrics.events_processed
    elapsed = time.perf_counter() - started
    slots = graph.store_stats()["slots_written"] - slots
    return {
        "slots_written_per_batch": slots / len(batches),
        "batches_per_s": len(batches) / elapsed,
        "median_batch_s": statistics.median(latencies),
        "events_processed": int(events),
    }


def speedup_bound(quick: bool, batch_size: int) -> dict:
    """The ``min`` a batch size's speedup must reach; ``{}`` leaves it ``info``."""
    if quick:
        return {"min": 1.0}
    return {"min": SMALL_BATCH_SPEEDUP} if batch_size <= 100 else {}


def collect(quick: bool) -> dict:
    num_vertices, edges = build_graph(quick)
    rows = []
    for batch_size, num_batches in batch_plan(quick):
        batches = pregenerate_batches(edges, num_vertices, batch_size, num_batches)
        incremental = run_mode(edges, num_vertices, batches, incremental=True)
        full = run_mode(edges, num_vertices, batches, incremental=False)
        if incremental["events_processed"] != full["events_processed"]:
            raise AssertionError(
                f"batch_size={batch_size}: store modes processed different "
                f"event counts ({incremental['events_processed']} vs "
                f"{full['events_processed']}) — pipeline parity broken"
            )
        cell = f"batch{batch_size}"
        for mode, sample in (("incremental", incremental), ("full_rebuild", full)):
            rows += [
                row(f"{cell}/{mode}", "exact", sample["events_processed"]),
                row(f"{cell}/{mode}/batches_per_s", "info", sample["batches_per_s"]),
            ]
        slots = incremental["slots_written_per_batch"]
        rows.append(row(f"{cell}/incremental/slots_written_per_batch", "exact", slots))
        speedup = full["median_batch_s"] / incremental["median_batch_s"]
        bound = speedup_bound(quick, batch_size)
        kind = "ratio" if bound else "info"
        rows.append(row(f"{cell}/speedup", kind, speedup, **bound))
    return {"suite": "stream", "quick": quick, "rows": rows}
