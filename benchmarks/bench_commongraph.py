"""CommonGraph multi-version evaluation vs independent cold runs.

The ``commongraph`` suite measures the evaluator behind
``Session.run_at_versions`` / ``repro query --at-versions``: the versions
of a recorded stream share one common graph, the engine converges on it
once, and every version is an addition-only pass from that base state
(:func:`repro.core.streaming.evaluate_at_versions`). The comparator is what
the evaluator replaces: one cold ``initial_compute()`` per version on the
graph ``DeltaVersionStore.reconstruct(v)`` returns. The store records each
version's changed run pointers (``record()`` after every batch), and both
sides take a version's CSR from ``reconstruct`` (an arena view, no sort);
the shared side builds one sorted CSR, the common graph's.

Each grid point applies :data:`NUM_BATCHES` seeded batches of
:data:`BATCH_SIZE` records (insertion ratio :data:`INSERTION_RATIO`) to
the WK stand-in with versioning on, then evaluates all
``NUM_BATCHES + 1`` versions both ways. States must be identical per
version (``collect`` raises otherwise). Each point emits the exact pair
``[total_events, cold_events]`` (both deterministic engine counters), the
cold/shared event ratio as a ``ratio`` row of at least
:data:`RATIO_GATE`, and the cold/shared wall-clock ratio ``ratio_wall``
as a ``ratio`` row of at least :data:`WALL_RATIO_GATE`.

Run and gated only by ``repro bench check --suite commongraph``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.streaming import JetStreamEngine, evaluate_at_versions
from repro.graph import datasets
from repro.graph.dynamic import DeltaVersionStore, DynamicGraph
from repro.obs.bench_gate import row
from repro.streams import StreamGenerator

GRAPH = "WK"
STREAM_SEED = 42
NUM_BATCHES = 8
BATCH_SIZE = 200
INSERTION_RATIO = 0.5

#: Minimum cold/shared event ratio on every point.
RATIO_GATE = 2.0
#: Minimum cold/shared wall-clock ratio: sharing must not lose on seconds.
WALL_RATIO_GATE = 1.0


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
        store.record()
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


def run_point(algorithm_name: str) -> list:
    store = recorded_stream(make_algorithm(algorithm_name, source=0))
    versions = store.versions()

    started = time.perf_counter()
    shared = evaluate_at_versions(
        store, make_algorithm(algorithm_name, source=0), versions
    )
    shared_s = time.perf_counter() - started

    cold_events = 0
    started = time.perf_counter()
    for version in versions:
        cold = cold_run(store, algorithm_name, version)
        cold_events += int(cold.metrics.events_processed)
        if not np.array_equal(cold.states, shared.states[version]):
            raise AssertionError(
                f"{GRAPH}/{algorithm_name} v{version}: shared-prefix states "
                "diverged from the cold run"
            )
    cold_s = time.perf_counter() - started

    total = int(shared.total_events)
    cell = f"{GRAPH}/{algorithm_name}/v{len(versions)}"
    return [
        row(cell, "exact", [total, cold_events]),
        row(f"{cell}/ratio_events", "ratio", cold_events / total, min=RATIO_GATE),
        row(f"{cell}/ratio_wall", "ratio", cold_s / shared_s, min=WALL_RATIO_GATE),
        row(f"{cell}/common_events", "info", int(shared.common_events)),
        row(f"{cell}/shared_wall_s", "info", shared_s),
        row(f"{cell}/cold_wall_s", "info", cold_s),
    ]


def collect(quick: bool) -> dict:
    rows = [r for algorithm_name in grid(quick) for r in run_point(algorithm_name)]
    return {"suite": "commongraph", "quick": quick, "rows": rows}
