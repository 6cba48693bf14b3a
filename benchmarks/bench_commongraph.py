"""CommonGraph multi-version evaluation vs independent cold runs.

The ``commongraph`` suite measures the evaluator behind
``Session.run_at_versions`` / ``repro query --at-versions``: the versions
of a recorded stream share one common graph, the engine converges on it
once, and every version is an addition-only pass from that base state
(:func:`repro.core.streaming.evaluate_at_versions`). The comparator is what
the evaluator replaces: one cold ``initial_compute()`` per version on the
graph ``DeltaVersionStore.reconstruct(v)`` returns.

Each grid point applies :data:`NUM_BATCHES` seeded batches of
:data:`BATCH_SIZE` records (insertion ratio :data:`INSERTION_RATIO`) to
the WK stand-in with versioning on, then evaluates all
``NUM_BATCHES + 1`` versions both ways. States must be identical per
version, and the cold runs must process at least :data:`RATIO_GATE` times
the evaluator's events. ``ratio_wall`` (cold / shared seconds) is printed
but not gated.

The regression-gate event column is the exact pair ``[total_events,
cold_events]``; both are deterministic engine counters, so any drift in
the evaluator or in cold evaluation fails the gate.

Usable two ways:

* ``python benchmarks/bench_commongraph.py`` — standalone, writes
  ``BENCH_commongraph.json`` at the repo root. ``REPRO_BENCH_QUICK=1``
  shrinks the grid for CI smoke runs.
* ``repro bench check --suite commongraph`` — re-runs :func:`collect`
  and compares the exact event counts against the baseline.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.streaming import JetStreamEngine, evaluate_at_versions
from repro.graph import datasets
from repro.graph.dynamic import DeltaVersionStore, DynamicGraph
from repro.streams import StreamGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_commongraph.json"

GRAPH = "WK"
STREAM_SEED = 42
NUM_BATCHES = 8
BATCH_SIZE = 200
INSERTION_RATIO = 0.5

#: Minimum cold/shared event ratio on every point.
RATIO_GATE = 2.0


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def grid(quick: bool):
    """Algorithms for the run mode."""
    return ["sssp", "cc"] if quick else ["sssp", "cc", "sswp", "bfs"]


def recorded_stream(algorithm):
    """The WK stand-in after the seeded stream, with every version kept."""
    graph = datasets.load(GRAPH, symmetric=algorithm.needs_symmetric, seed=0)
    store = DeltaVersionStore(graph)
    generator = StreamGenerator(
        graph, seed=STREAM_SEED, insertion_ratio=INSERTION_RATIO
    )
    for _ in range(NUM_BATCHES):
        batch = generator.next_batch(BATCH_SIZE)
        graph.apply_batch(batch.ins, batch.dels)
        store.record_batch(batch.ins, batch.dels)
    return store


def cold_run(store, algorithm_name: str, version: int):
    """One cold evaluation of ``version``: reconstruct, load, converge."""
    algorithm = make_algorithm(algorithm_name, source=0)
    csr = store.reconstruct(version)
    u, v, w = csr.edge_arrays()
    if algorithm.needs_symmetric:
        # The loader re-mirrors; hand it each undirected edge once.
        half = u <= v
        u, v, w = u[half], v[half], w[half]
    graph = DynamicGraph.from_arrays(
        u, v, w, csr.num_vertices, symmetric=algorithm.needs_symmetric
    )
    return JetStreamEngine(graph, algorithm).initial_compute()


def run_point(algorithm_name: str) -> dict:
    store = recorded_stream(make_algorithm(algorithm_name, source=0))
    versions = store.versions()

    started = time.perf_counter()
    shared = evaluate_at_versions(
        store, make_algorithm(algorithm_name, source=0), versions
    )
    shared_s = time.perf_counter() - started

    cold_events = 0
    identical = True
    started = time.perf_counter()
    for version in versions:
        cold = cold_run(store, algorithm_name, version)
        cold_events += int(cold.metrics.events_processed)
        identical &= bool(np.array_equal(cold.states, shared.states[version]))
    cold_s = time.perf_counter() - started

    return {
        "graph": GRAPH,
        "algorithm": algorithm_name,
        "versions": len(versions),
        "common_edges": int(shared.common_edges),
        "common_events": int(shared.common_events),
        "total_events": int(shared.total_events),
        "cold_events": cold_events,
        "ratio_events": cold_events / shared.total_events,
        "shared_wall_s": shared_s,
        "cold_wall_s": cold_s,
        "ratio_wall": cold_s / shared_s,
        "states_identical": identical,
    }


def collect(quick: bool) -> dict:
    results = []
    for algorithm_name in grid(quick):
        row = run_point(algorithm_name)
        print(
            f"{GRAPH}/{algorithm_name} x{row['versions']} versions: "
            f"shared {row['total_events']:>7} events "
            f"(common {row['common_events']})  "
            f"cold {row['cold_events']:>7} events  "
            f"ratio {row['ratio_events']:5.2f}x  "
            f"wall {row['shared_wall_s']:.3f}s vs {row['cold_wall_s']:.3f}s "
            f"(ratio_wall {row['ratio_wall']:.2f}x)  "
            f"identical={row['states_identical']}"
        )
        results.append(row)
    return {
        "quick": quick,
        "graph": GRAPH,
        "num_batches": NUM_BATCHES,
        "batch_size": BATCH_SIZE,
        "insertion_ratio": INSERTION_RATIO,
        "ratio_gate": RATIO_GATE,
        "min_ratio_events": min(r["ratio_events"] for r in results),
        "results": results,
    }


def main() -> int:
    report = collect(quick_mode())
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {OUTPUT_PATH}]")
    failed = False
    if not all(r["states_identical"] for r in report["results"]):
        print("ERROR: shared-prefix states diverged from the cold runs",
              file=sys.stderr)
        failed = True
    if report["min_ratio_events"] < RATIO_GATE:
        print(
            f"ERROR: min cold/shared event ratio "
            f"{report['min_ratio_events']:.2f}x below the {RATIO_GATE:.0f}x gate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def test_commongraph_event_ratio(benchmark):
    """pytest-benchmark entry: quick grid, sharing must halve the events."""
    report = benchmark.pedantic(lambda: collect(True), rounds=1, iterations=1)
    assert all(r["states_identical"] for r in report["results"])
    assert report["min_ratio_events"] >= RATIO_GATE, (
        f"{report['min_ratio_events']:.2f}x fewer events than cold runs"
    )
    benchmark.extra_info["min_ratio_events"] = round(report["min_ratio_events"], 2)


if __name__ == "__main__":
    sys.exit(main())
