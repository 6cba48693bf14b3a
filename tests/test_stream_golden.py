"""Streaming-equivalence goldens: the seed pipeline is bit-stable.

The array seed pipeline (array-native ``DynamicGraph`` + batched seed
generation in ``core/streaming.py``) must reproduce the original per-edge
Python orchestrator *exactly*: identical converged states (hashed), the
same per-phase/per-round work vectors (``events_processed``,
``events_generated``, ``vertex_reads``, ``request_events``, ...), the same
impacted-vertex sets, and the same lifetime queue counters.

``tests/data/stream_goldens.json`` pins those observables as captured from
the pre-refactor scalar implementation. Three invariants are enforced:

1. **Golden equality** — every scenario, replayed on the current code with
   its default configuration, matches the pinned record field for field.
2. **Hook-default parity** — an algorithm shipping no array hooks rides
   the same pipeline through the ``Algorithm`` defaults on the scalar
   oracle (:mod:`repro.oracle`; the array engine refuses it), same record.
3. **Reference states** — final converged states equal a cold-start
   ``reference.py`` computation on the final graph (per-algorithm
   tolerance), across algorithms × policies.

Regenerate (only on purpose, from a known-good tree):

    PYTHONPATH=src python tests/test_stream_golden.py --update
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.base import Algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.oracle import on_oracle
from repro.reference import compute_reference
from repro.streams import Edge, StreamGenerator, UpdateBatch

GOLDEN_PATH = Path(__file__).parent / "data" / "stream_goldens.json"

ALGORITHMS = ["sssp", "bfs", "cc", "sswp", "pagerank", "adsorption"]
POLICIES = {
    "base": DeletePolicy.BASE,
    "vap": DeletePolicy.VAP,
    "dap": DeletePolicy.DAP,
}

NUM_VERTICES = 50
NUM_EDGES = 200
GRAPH_SEED = 11
STREAM_SEED = 7
NUM_BATCHES = 3
BATCH_SIZE = 12

#: Round-vector column order (mirrors ``repro.core.metrics.CSV_HEADER``
#: minus the phase/round labels).
ROUND_FIELDS = (
    "events_processed",
    "events_generated",
    "queue_inserts",
    "coalesce_ops",
    "vertex_reads",
    "vertex_writes",
    "edges_read",
    "vertex_lines",
    "edge_lines",
    "dram_pages",
    "spill_bytes",
)


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------
def _build_graph(algorithm, n: int = NUM_VERTICES, m: int = NUM_EDGES,
                 seed: int = GRAPH_SEED) -> DynamicGraph:
    edges = generators.erdos_renyi(n, m, seed=seed)
    if algorithm.needs_symmetric:
        seen, kept = set(), []
        for u, v, w in edges:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                kept.append((u, v, w))
        return DynamicGraph.from_edges(kept, n, symmetric=True)
    return DynamicGraph.from_edges(edges, n)


def _stream_batches(algorithm) -> List[UpdateBatch]:
    """The scenario's stream, captured against a throwaway graph copy."""
    graph = _build_graph(algorithm)
    generator = StreamGenerator(graph, seed=STREAM_SEED)
    return list(generator.stream(BATCH_SIZE, NUM_BATCHES))


def _growth_batches(n: int) -> List[UpdateBatch]:
    """Manual batches that create vertices mid-stream (§2.1 growth)."""
    return [
        UpdateBatch(
            insertions=[Edge(n, 3, 5.0), Edge(n + 1, n, 2.0)],
            deletions=[],
        ),
        UpdateBatch(
            insertions=[Edge(5, n + 1, 4.0), Edge(n + 2, n + 2, 1.0)],
            deletions=[Edge(n, 3)],
        ),
    ]


def _scenarios() -> List[dict]:
    out = []
    for name in ALGORITHMS:
        for policy in POLICIES:
            out.append(
                {
                    "key": f"{name}/{policy}",
                    "algorithm": name,
                    "policy": policy,
                    "flavor": "stream",
                }
            )
    for name in ("sssp", "cc", "pagerank"):
        out.append(
            {
                "key": f"{name}/growth",
                "algorithm": name,
                "policy": "dap" if name == "sssp" else "base",
                "flavor": "growth",
            }
        )
    return out


SCENARIOS = _scenarios()
SCENARIO_KEYS = [s["key"] for s in SCENARIOS]


# ----------------------------------------------------------------------
# Scenario execution and observation capture
# ----------------------------------------------------------------------
def _phase_record(phase) -> dict:
    return {
        "name": phase.name,
        "request_events": int(phase.request_events),
        "vertices_reset": int(phase.vertices_reset),
        "deletes_discarded": int(phase.deletes_discarded),
        "rounds": [
            [int(getattr(work, f)) for f in ROUND_FIELDS]
            for work in phase.rounds
        ],
    }


def _result_record(result) -> dict:
    return {
        "version": int(result.graph_version),
        "states_sha": hashlib.sha256(result.states.tobytes()).hexdigest(),
        "impacted": [int(v) for v in result.impacted],
        "queue": {k: int(v) for k, v in sorted((result.queue_stats or {}).items())},
        "phases": [_phase_record(p) for p in result.metrics.phases],
    }


def run_scenario(scenario: dict, prepare=None) -> Tuple[dict, JetStreamEngine]:
    """Replay one scenario; returns (serializable record, engine).

    ``prepare`` may adjust the built engine before it runs (see
    :func:`_scalar_only_twin`).
    """
    algorithm = make_algorithm(scenario["algorithm"], source=0)
    graph = _build_graph(algorithm)
    stream_engine = JetStreamEngine(
        graph,
        algorithm,
        policy=POLICIES[scenario["policy"]],
    )
    if prepare is not None:
        prepare(stream_engine)
    if scenario["flavor"] == "growth":
        batches = _growth_batches(graph.num_vertices)
    else:
        batches = _stream_batches(algorithm)
    runs = [stream_engine.initial_compute()]
    for batch in batches:
        runs.append(stream_engine.apply_batch(batch))
    record = {
        "scenario": scenario["key"],
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
            assert ap["deletes_discarded"] == ep["deletes_discarded"], pctx
            assert ap["rounds"] == ep["rounds"], (
                f"{pctx}: round work vectors drifted "
                f"(fields {ROUND_FIELDS})"
            )
        assert a["states_sha"] == e["states_sha"], f"{ctx}: states drifted"


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def goldens() -> Dict[str, dict]:
    if not GOLDEN_PATH.exists():
        pytest.skip(f"golden file missing: {GOLDEN_PATH}")
    data = json.loads(GOLDEN_PATH.read_text())
    return {rec["scenario"]: rec for rec in data["scenarios"]}


def _scalar_only_twin(engine: JetStreamEngine) -> None:
    """Put ``engine`` on the scalar oracle and its algorithm's every array
    hook back at its default (the array engine would refuse such a twin at
    construction, so the hooks go after it is built)."""
    on_oracle(engine)
    twin = engine.algorithm
    hooks = ("propagate_arrays", "propagate_ctx_arrays", "propagation_factor_arrays",
             "self_events_arrays", "seed_events_for_new_vertices")
    defaults = {hook: getattr(Algorithm, hook) for hook in hooks}
    twin.__class__ = type("ScalarOnly", (type(twin),), {"reduce_ufunc": None, **defaults})


SCALAR_ONLY_KEYS = ["sssp/dap", "sssp/growth", "pagerank/base", "pagerank/growth"]


@pytest.mark.parametrize("key", SCENARIO_KEYS + [f"{k}@scalar-only" for k in SCALAR_ONLY_KEYS])
def test_matches_pre_refactor_golden(goldens, key):
    """The pipeline reproduces the pinned pre-refactor observables — with
    the shipped array hooks and (``@scalar-only``) through the element-wise
    ``Algorithm`` hook defaults of a twin that ships none, on the scalar
    oracle."""
    key, _, scalar_only = key.partition("@")
    scenario = next(s for s in SCENARIOS if s["key"] == key)
    record, _ = run_scenario(scenario, _scalar_only_twin if scalar_only else None)
    _assert_records_equal(record, goldens[key], key)


@pytest.mark.parametrize("key", SCENARIO_KEYS)
def test_final_states_match_reference(key):
    """Incremental convergence equals a cold-start reference computation."""
    scenario = next(s for s in SCENARIOS if s["key"] == key)
    _, engine = run_scenario(scenario)
    csr = engine.graph.snapshot()
    expected = compute_reference(engine.algorithm, csr)
    states = engine.states
    bad = [
        i
        for i in range(csr.num_vertices)
        if not engine.algorithm.values_close(float(states[i]), float(expected[i]))
    ]
    assert not bad, f"{key}: states diverge from reference at {bad[:5]}"


# ----------------------------------------------------------------------
# Regeneration entry point
# ----------------------------------------------------------------------
def _regenerate() -> None:
    records = []
    for scenario in SCENARIOS:
        record, _ = run_scenario(scenario)
        records.append(record)
        print(f"captured {scenario['key']}: {len(record['runs'])} runs")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"scenarios": records}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
