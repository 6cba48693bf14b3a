"""Multi-version evaluation tests (CommonGraph work sharing).

``Session.run_at_versions`` over a recorded stream converges the versions'
common graph once and fans out one addition-only pass per version. For
every retained version it must return exactly the states a cold run on
that version's reconstructed graph returns, and spend fewer events than
those cold runs together; accumulative algorithms take the independent
fallback.
"""

from __future__ import annotations

import pytest

from repro.algorithms import make_algorithm
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.host import Accelerator
from repro.reference import compute_reference
from repro.streams import StreamGenerator

NUM_VERTICES = 50
NUM_EDGES = 200
GRAPH_SEED = 13
STREAM_SEED = 17
NUM_BATCHES = 3
BATCH_SIZE = 12
#: Deletion-heavy, so the versions' common graph is well below each one.
INSERTION_RATIO = 0.25


def _build_graph(algorithm) -> DynamicGraph:
    edges = generators.erdos_renyi(NUM_VERTICES, NUM_EDGES, seed=GRAPH_SEED)
    if algorithm.needs_symmetric:
        seen, kept = set(), []
        for u, v, w in edges:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                kept.append((u, v, w))
        return DynamicGraph.from_edges(kept, NUM_VERTICES, symmetric=True)
    return DynamicGraph.from_edges(edges, NUM_VERTICES)


# ----------------------------------------------------------------------
# Multi-version evaluation (Session.run_at_versions)
# ----------------------------------------------------------------------
def _session_with_history(name: str, keep_versions=None):
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm)
    edges = [(u, v, w) for u, v, w in graph.edges()]
    if algorithm.needs_symmetric:
        edges = [(u, v, w) for u, v, w in edges if u <= v]
    accel = Accelerator()
    session = accel.load_graph(
        edges,
        num_vertices=graph.num_vertices,
        symmetric=algorithm.needs_symmetric,
    )
    session.configure(name, source=0)
    session.enable_versioning(keep_versions=keep_versions)
    session.run()
    generator = StreamGenerator(
        session.graph, seed=STREAM_SEED, insertion_ratio=INSERTION_RATIO
    )
    for _ in range(NUM_BATCHES):
        batch = generator.next_batch(BATCH_SIZE)
        session.push_updates(
            insertions=[(e.u, e.v, e.w) for e in batch.insertions],
            deletions=[(e.u, e.v) for e in batch.deletions],
        )
        session.run()
    return accel, session, algorithm


@pytest.mark.parametrize("name", ["sssp", "cc"])
def test_run_at_versions_matches_per_version_reference(name):
    accel, session, algorithm = _session_with_history(name)
    try:
        result = session.run_at_versions(0)
        assert result.shared, "selective algorithms share the common prefix"
        assert result.versions == session.version_store.versions()
        for version in result.versions:
            csr = session.version_store.reconstruct(version)
            expected = compute_reference(algorithm, csr)
            states = result.states[version]
            assert states.shape[0] == csr.num_vertices
            for i in range(csr.num_vertices):
                assert algorithm.values_close(
                    float(states[i]), float(expected[i])
                ), f"{name} v{version}: vertex {i}"
    finally:
        session.close()
        accel.close()


def test_run_at_versions_accumulative_fallback():
    accel, session, algorithm = _session_with_history("pagerank")
    try:
        result = session.run_at_versions(0)
        assert not result.shared, "pagerank cannot share a monotone prefix"
        for version in result.versions:
            csr = session.version_store.reconstruct(version)
            expected = compute_reference(algorithm, csr)
            states = result.states[version]
            for i in range(csr.num_vertices):
                assert algorithm.values_close(
                    float(states[i]), float(expected[i])
                ), f"pagerank v{version}: vertex {i}"
    finally:
        session.close()
        accel.close()


def test_run_at_versions_shares_work():
    """The point of the shared prefix: total events across N versions is
    well below N independent cold runs."""
    accel, session, algorithm = _session_with_history("sssp")
    try:
        result = session.run_at_versions(0)
        cold_total = 0
        for version in result.versions:
            csr = session.version_store.reconstruct(version)
            cold = JetStreamEngine(
                DynamicGraph.from_edges(
                    [(u, v, w) for u, v, w in csr.edges()], csr.num_vertices
                ),
                make_algorithm("sssp", source=0),
            )
            cold_total += cold.initial_compute().metrics.events_processed
        assert result.total_events < cold_total, (
            f"shared evaluation ({result.total_events} events) should beat "
            f"{len(result.versions)} cold runs ({cold_total} events)"
        )
    finally:
        session.close()
        accel.close()


def test_run_at_versions_respects_retention():
    accel, session, _ = _session_with_history("sssp", keep_versions=2)
    try:
        result = session.run_at_versions(0)
        assert result.versions == session.version_store.versions()
        assert len(result.versions) == 2
    finally:
        session.close()
        accel.close()
