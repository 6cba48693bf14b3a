"""Express-lane safety properties.

Two claims back the whole fast path, and both are checked here directly:

1. **Safe ⇒ fixed point.** After every update the classifier labels safe
   and the lane applies, the state arrays are *already* the converged
   answer for the mutated graph: a cold-start ``reference.py`` computation
   changes nothing, and neither does re-running the engine from scratch.
   If classification were even slightly optimistic, this is where it
   shows up.

2. **The harness has teeth.** A deliberately mislabeled update — a
   forged ``safe`` verdict for a load-bearing delete or a cascading
   insert, pushed straight through the lane's apply kernel — must be
   caught by the same fixed-point assertion. This pins the test's own
   sensitivity: a future weakening of ``assert_fixed_point`` (or an
   accidental re-convergence hidden in the apply path) fails loudly.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.algorithms.base import UpdateClassification
from repro.core.fastpath import ExpressLane
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.reference import compute_reference
from repro.streams import StreamGenerator

PROPERTY_ALGORITHMS = ["sssp", "sswp", "bfs", "cc"]
PROPERTY_SEEDS = [0, 1]

NUM_VERTICES = 48
NUM_EDGES = 150
NUM_SINGLES = 24
DELETE_PROB = 0.3


def _build_graph(algorithm, seed: int) -> DynamicGraph:
    edges = generators.rmat(NUM_VERTICES, NUM_EDGES, seed=seed, weighted=True)
    if algorithm.needs_symmetric:
        seen, kept = set(), []
        for u, v, w in edges:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                kept.append((u, v, w))
        return DynamicGraph.from_edges(kept, NUM_VERTICES, symmetric=True)
    return DynamicGraph.from_edges(edges, NUM_VERTICES)


def assert_fixed_point(engine: JetStreamEngine, context: str = "") -> None:
    """The engine's states are the converged answer for its current graph.

    Compares against a cold-start reference computation on a fresh
    snapshot; for the selective algorithms under test ``values_close`` is
    exact equality (modulo shared infinities), so a single stale vertex
    fails.
    """
    algorithm = engine.algorithm
    states = engine.query_result()
    expected = compute_reference(algorithm, engine.graph.snapshot())
    bad = [
        (i, float(states[i]), float(expected[i]))
        for i in range(len(expected))
        if not algorithm.values_close(float(states[i]), float(expected[i]))
    ]
    assert not bad, f"{context}: state is not a fixed point; stale {bad[:5]}"


def _singles(name: str, seed: int) -> List[Tuple[int, int, float, str]]:
    """A mixed single-update stream consistent with the scenario graph."""
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    generator = StreamGenerator(graph, seed=seed + 3000)
    rng = np.random.default_rng(seed + 5000)
    singles = []
    for _ in range(NUM_SINGLES):
        ratio = 0.0 if rng.random() < DELETE_PROB else 1.0
        batch = generator.next_batch(1, insertion_ratio=ratio)
        graph.apply_batch(
            [(e.u, e.v, e.w) for e in batch.insertions],
            [e.key() for e in batch.deletions],
        )
        if batch.insertions:
            e = batch.insertions[0]
            singles.append((e.u, e.v, e.w, "insert"))
        else:
            e = batch.deletions[0]
            singles.append((e.u, e.v, e.w, "delete"))
    return singles


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
@pytest.mark.parametrize("name", PROPERTY_ALGORITHMS)
def test_safe_updates_leave_state_a_fixed_point(name, seed):
    """Every safe-labeled apply lands on an already-converged state."""
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    engine = JetStreamEngine(graph, algorithm, policy=DeletePolicy.DAP)
    engine.initial_compute()
    lane = ExpressLane(engine)
    safe_seen = 0
    for u, v, w, op in _singles(name, seed):
        result = lane.apply(u, v, w, op)
        if result.safe:
            safe_seen += 1
            assert_fixed_point(
                engine,
                f"{name}/seed={seed}: after safe {op} "
                f"({u}, {v}, {w}) [{result.reason}]",
            )
    # The property must not pass vacuously: the stream has to hit the
    # fast path. Mixed 70/30 streams classify mostly safe in practice.
    assert safe_seen >= NUM_SINGLES // 4, (
        f"{name}/seed={seed}: only {safe_seen}/{NUM_SINGLES} updates "
        "took the fast path; the fixed-point property was barely tested"
    )

    # Literal engine re-run on the final graph: nothing changes.
    symmetric = algorithm.needs_symmetric
    live = sorted(engine.graph.edges())
    rerun_graph = DynamicGraph.from_edges(
        [(u, v, w) for u, v, w in live if u <= v or not symmetric],
        engine.graph.num_vertices,
        symmetric=symmetric,
    )
    rerun = JetStreamEngine(
        rerun_graph, make_algorithm(name, source=0), policy=DeletePolicy.DAP
    )
    rerun.initial_compute()
    fresh = rerun.query_result()
    current = engine.query_result()
    bad = [
        (i, float(current[i]), float(fresh[i]))
        for i in range(len(fresh))
        if not algorithm.values_close(float(current[i]), float(fresh[i]))
    ]
    assert not bad, (
        f"{name}/seed={seed}: engine re-run changed states {bad[:5]}"
    )


# ----------------------------------------------------------------------
# Mislabel detection: the harness catches a forged safe verdict.
# ----------------------------------------------------------------------
CHAIN_EDGES = [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)]


def _chain_engine() -> JetStreamEngine:
    graph = DynamicGraph.from_edges(CHAIN_EDGES, 4)
    engine = JetStreamEngine(
        graph, make_algorithm("sssp", source=0), policy=DeletePolicy.DAP
    )
    engine.initial_compute()
    # Converged SSSP distances along the chain.
    assert list(engine.query_result()) == [0.0, 2.0, 5.0, 6.0]
    return engine


def test_mislabeled_load_bearing_delete_is_caught():
    """Forging ``safe`` for a support-edge delete trips the harness."""
    engine = _chain_engine()
    lane = ExpressLane(engine)
    # The real classifier refuses this delete: 0->1 is 1's only support.
    verdict = lane.classify(0, 1, 2.0, "delete")
    assert not verdict.safe
    assert verdict.reason == "delete-unsupported"

    forged = UpdateClassification(safe=True, reason="delete-non-support")
    lane._apply_safe(0, 1, 2.0, "delete", forged)
    with pytest.raises(AssertionError, match="not a fixed point"):
        assert_fixed_point(engine, "forged delete (0, 1)")


def test_mislabeled_cascading_insert_is_caught():
    """Forging ``safe`` for a cascading insert trips the harness."""
    engine = _chain_engine()
    lane = ExpressLane(engine)
    # Insert 0->2 with weight 1: improves vertex 2 (5 -> 1) but the
    # improvement must cascade to 3, so the classifier rejects it.
    verdict = lane.classify(0, 2, 1.0, "insert")
    assert not verdict.safe
    assert verdict.reason == "insert-cascades"

    forged = UpdateClassification(
        safe=True,
        reason="insert-local-improvement",
        new_state=(2, 1.0),
        dependency_updates=((2, 0),),
    )
    lane._apply_safe(0, 2, 1.0, "insert", forged)
    with pytest.raises(AssertionError, match="not a fixed point"):
        assert_fixed_point(engine, "forged insert (0, 2)")


def test_classification_is_pure():
    """``classify`` mutates nothing: repeated calls give identical verdicts
    and the converged state stays untouched."""
    engine = _chain_engine()
    lane = ExpressLane(engine)
    before = np.array(engine.query_result(), copy=True)
    first = lane.classify(1, 3, 1.0, "insert")
    second = lane.classify(1, 3, 1.0, "insert")
    assert first == second
    assert np.array_equal(before, engine.query_result())
    assert lane.stats["safe_applied"] == 0
    assert lane.stats["engine_fallthroughs"] == 0
