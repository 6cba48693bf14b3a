"""CommonGraph conversion goldens + multi-version evaluation tests.

Pins the observable behaviour of the ``delete_policy=commongraph``
tentpole the same way ``tests/test_stream_golden.py`` pins the seed
pipeline — in a separate golden file so the pre-existing pinned records
stay untouched:

1. **Golden equality** — each (selective algorithm × deletion-heavy
   stream) scenario, replayed with the conversion, matches
   ``tests/data/commongraph_goldens.json`` field for field: states hash,
   per-phase round work vectors, queue counters. The conversion's
   signature shape — a ``common-convergence`` phase followed by an
   ``addition-pass`` phase, zero ``vertices_reset`` everywhere — is part
   of the record.
2. **Engine parity** — scalar, vectorized, and sharded substrates
   produce bit-identical records.
3. **Oracle parity** — final states equal the DAP recovery path and the
   cold-start reference.
4. **Multi-version evaluation** — ``Session.run_at_versions`` over a
   recorded stream returns, for every retained version, exactly the
   states a cold run on that version's reconstructed graph returns;
   accumulative algorithms take the independent fallback.

Regenerate (only on purpose, from a known-good tree):

    PYTHONPATH=src python tests/test_commongraph_golden.py --update
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.host import Accelerator
from repro.reference import compute_reference
from repro.streams import StreamGenerator, UpdateBatch

from test_stream_golden import _result_record

GOLDEN_PATH = Path(__file__).parent / "data" / "commongraph_goldens.json"

#: Selective algorithms only — the conversion is monotone-only by design.
ALGORITHMS = ["sssp", "bfs", "cc", "sswp"]
ENGINES = ["scalar", "vectorized", "sharded"]

NUM_VERTICES = 50
NUM_EDGES = 200
GRAPH_SEED = 13
STREAM_SEED = 17
NUM_BATCHES = 3
BATCH_SIZE = 12
#: Deletion-heavy: the conversion path, not the monotone addition path,
#: carries every batch.
INSERTION_RATIO = 0.25


def _build_graph(algorithm) -> DynamicGraph:
    edges = generators.erdos_renyi(NUM_VERTICES, NUM_EDGES, seed=GRAPH_SEED)
    if algorithm.needs_symmetric:
        graph = DynamicGraph(NUM_VERTICES, symmetric=True)
        seen = set()
        for u, v, w in edges:
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            graph.add_edge(u, v, w, _count_version=False)
        return graph
    return DynamicGraph.from_edges(edges, NUM_VERTICES)


def _stream_batches(algorithm) -> List[UpdateBatch]:
    graph = _build_graph(algorithm)
    generator = StreamGenerator(
        graph, seed=STREAM_SEED, insertion_ratio=INSERTION_RATIO
    )
    return list(generator.stream(BATCH_SIZE, NUM_BATCHES))


def run_scenario(
    name: str, engine: str = "auto", policy: DeletePolicy = DeletePolicy.COMMONGRAPH
) -> Tuple[dict, JetStreamEngine]:
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm)
    kwargs = {"engine": engine}
    if engine == "sharded":
        kwargs["num_engines"] = 4
    stream_engine = JetStreamEngine(graph, algorithm, policy=policy, **kwargs)
    runs = [stream_engine.initial_compute()]
    for batch in _stream_batches(algorithm):
        runs.append(stream_engine.apply_batch(batch))
    record = {
        "scenario": name,
        "runs": [_result_record(r) for r in runs],
    }
    return record, stream_engine


def _assert_records_equal(actual: dict, expected: dict, context: str) -> None:
    assert len(actual["runs"]) == len(expected["runs"]), context
    for i, (a, e) in enumerate(zip(actual["runs"], expected["runs"])):
        ctx = f"{context} run {i}"
        assert a["version"] == e["version"], ctx
        assert a["impacted"] == e["impacted"], ctx
        assert a["queue"] == e["queue"], f"{ctx}: queue stats drifted"
        assert len(a["phases"]) == len(e["phases"]), ctx
        for ap, ep in zip(a["phases"], e["phases"]):
            pctx = f"{ctx} phase {ep['name']}"
            assert ap["name"] == ep["name"], pctx
            assert ap["request_events"] == ep["request_events"], pctx
            assert ap["vertices_reset"] == ep["vertices_reset"], pctx
            assert ap["rounds"] == ep["rounds"], f"{pctx}: work drifted"
        assert a["states_sha"] == e["states_sha"], f"{ctx}: states drifted"


# ----------------------------------------------------------------------
# Golden + parity tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def goldens() -> Dict[str, dict]:
    if not GOLDEN_PATH.exists():
        pytest.skip(f"golden file missing: {GOLDEN_PATH}")
    data = json.loads(GOLDEN_PATH.read_text())
    return {rec["scenario"]: rec for rec in data["scenarios"]}


@pytest.mark.parametrize("name", ALGORITHMS)
def test_matches_golden(goldens, name):
    record, _ = run_scenario(name)
    _assert_records_equal(record, goldens[name], name)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_conversion_never_resets(name):
    record, _ = run_scenario(name)
    for i, run in enumerate(record["runs"][1:], start=1):
        for phase in run["phases"]:
            assert phase["vertices_reset"] == 0, (
                f"{name} run {i} phase {phase['name']}: the conversion "
                "must never reset a vertex"
            )


@pytest.mark.parametrize("engine", ["vectorized", "sharded"])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_engine_substrates_bit_identical(name, engine):
    scalar, _ = run_scenario(name, engine="scalar")
    other, _ = run_scenario(name, engine=engine)
    # Work vectors legitimately differ across substrates (batched rounds);
    # versions, final states, and reset-freedom must not.
    for i, (a, e) in enumerate(zip(other["runs"], scalar["runs"])):
        assert a["version"] == e["version"], f"{name}/{engine} run {i}"
        assert a["states_sha"] == e["states_sha"], (
            f"{name}/{engine} run {i}: states diverged from scalar"
        )


@pytest.mark.parametrize("name", ALGORITHMS)
def test_matches_dap_oracle_and_reference(name):
    cg, cg_engine = run_scenario(name)
    dap, dap_engine = run_scenario(name, policy=DeletePolicy.DAP)
    assert np.array_equal(cg_engine.states, dap_engine.states), (
        f"{name}: conversion states differ from the DAP recovery oracle"
    )
    csr = cg_engine.graph.snapshot()
    expected = compute_reference(cg_engine.algorithm, csr)
    for i in range(csr.num_vertices):
        assert cg_engine.algorithm.values_close(
            float(cg_engine.states[i]), float(expected[i])
        ), f"{name}: vertex {i} diverges from cold-start reference"


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


# ----------------------------------------------------------------------
# Regeneration entry point
# ----------------------------------------------------------------------
def _regenerate() -> None:
    records = []
    for name in ALGORITHMS:
        record, _ = run_scenario(name)
        records.append(record)
        print(f"captured {name}: {len(record['runs'])} runs")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({"scenarios": records}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
