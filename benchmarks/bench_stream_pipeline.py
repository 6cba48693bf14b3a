"""Streaming update-pipeline throughput: incremental store vs full rebuild.

Drives :class:`JetStreamEngine` over a pre-generated update stream at
several batch sizes and compares the two host graph-store strategies:

* **incremental** — the array-native :class:`DynamicGraph` store splices
  only the touched adjacency runs per snapshot (the shipped behaviour);
* **full_rebuild** — the bench points its own graph instance's
  ``snapshot`` at :meth:`DynamicGraph.rebuild_snapshot`, so every snapshot
  is a from-scratch iterate-and-sort CSR build, i.e. the pre-incremental
  store.

Both modes process identical batches and converge to bit-identical states
(the parity suites enforce this); the difference is pure host-side
per-batch overhead. The headline gate — small (≤100-edge) batches on the
≥100k-edge RMAT graph must run ≥5× faster incrementally — captures the
point of the store: per-batch cost must scale with the batch, not with E.

Usable two ways:

* ``python benchmarks/bench_stream_pipeline.py`` — standalone, writes
  ``BENCH_stream.json`` at the repo root. ``REPRO_BENCH_QUICK=1`` shrinks
  the graph and batch counts for CI smoke runs.
* ``repro bench check`` — the ``stream`` suite re-runs :func:`collect`
  and gates batches/s and exact event counts against the committed
  baseline.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.streams import StreamGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_stream.json"

ALGORITHM = "sssp"
STREAM_SEED = 23


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def build_graph(quick: bool):
    if quick:
        name, n, m = "rmat-2k", 2_048, 12_288
    else:
        name, n, m = "rmat-131k", 16_384, 131_072
    edges = generators.ensure_reachable_core(
        generators.rmat(n, m, seed=17), n, seed=18
    )
    return name, n, edges


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
    started = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        result = engine.apply_batch(batch)
        latencies.append(time.perf_counter() - t0)
        events += result.metrics.events_processed
    elapsed = time.perf_counter() - started
    return {
        "wall_clock_s": elapsed,
        "batches_per_s": len(batches) / elapsed if elapsed > 0 else float("inf"),
        "per_batch_ms": {
            "median": statistics.median(latencies) * 1e3,
            "max": max(latencies) * 1e3,
        },
        "events_processed": int(events),
        "store": graph.store_stats(),
    }


def collect(quick: bool) -> dict:
    graph_name, num_vertices, edges = build_graph(quick)
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
        speedup = (
            full["per_batch_ms"]["median"] / incremental["per_batch_ms"]["median"]
            if incremental["per_batch_ms"]["median"] > 0
            else float("inf")
        )
        rows.append(
            {
                "batch_size": batch_size,
                "num_batches": num_batches,
                "incremental": incremental,
                "full_rebuild": full,
                "speedup": speedup,
            }
        )
        print(
            f"batch {batch_size:>6}: incremental "
            f"{incremental['per_batch_ms']['median']:9.2f} ms/batch  "
            f"full-rebuild {full['per_batch_ms']['median']:9.2f} ms/batch  "
            f"speedup {speedup:6.2f}x"
        )
    return {
        "quick": quick,
        "graph": {
            "name": graph_name,
            "num_vertices": num_vertices,
            "num_edges": len(edges),
        },
        "algorithm": ALGORITHM,
        "results": rows,
    }


def main() -> int:
    quick = quick_mode()
    report = collect(quick)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {OUTPUT_PATH}]")
    if not quick:
        failed = [
            r
            for r in report["results"]
            if r["batch_size"] <= 100 and r["speedup"] < 5.0
        ]
        for row in failed:
            print(
                f"WARNING: batch {row['batch_size']} incremental speedup "
                f"{row['speedup']:.2f}x below the 5x gate",
                file=sys.stderr,
            )
        if failed:
            return 1
    return 0


def test_stream_pipeline_speedup(benchmark):
    """pytest-benchmark entry: quick grid, incremental must not be slower."""
    os.environ.setdefault("REPRO_BENCH_QUICK", "1")
    report = benchmark.pedantic(lambda: collect(True), rounds=1, iterations=1)
    for row in report["results"]:
        assert row["speedup"] > 1.0, (
            f"batch {row['batch_size']}: incremental store slower than "
            "full rebuild"
        )
    benchmark.extra_info["speedups"] = {
        str(r["batch_size"]): round(r["speedup"], 2) for r in report["results"]
    }


if __name__ == "__main__":
    sys.exit(main())
