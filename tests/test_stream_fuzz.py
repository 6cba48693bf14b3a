"""Property-based stream fuzzing for the sharded incremental engine.

The invariant under test: **incremental evaluation on the sharded
engine equals a cold-start reference computation** on the final graph —
``incremental(sharded) == cold_start(reference.py)`` within each
algorithm's tolerance — for seeded random RMAT graphs driven by random
batched insert/delete streams. Every scenario is reproducible from its
``(algorithm, seed)`` pair; on failure the test bisects the batch list
and prints the minimal failing stream prefix, so a regression can be
replayed directly.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.oracle import on_oracle
from repro.reference import compute_reference
from repro.streams import StreamGenerator, UpdateBatch

#: 3 algorithms × 9 seeds = 27 seeded scenarios (the issue floor is 25).
FUZZ_ALGORITHMS = ["pagerank", "sssp", "cc"]
SCENARIO_SEEDS = list(range(9))

NUM_VERTICES = 48
NUM_EDGES = 150
NUM_BATCHES = 4
BATCH_SIZE = 10
NUM_ENGINES = 8


def _build_graph(algorithm, seed: int) -> DynamicGraph:
    """Deterministic RMAT graph honouring the algorithm's symmetry need."""
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


def _make_batches(name: str, seed: int) -> List[UpdateBatch]:
    """The scenario's update stream, captured up front so prefixes replay."""
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    generator = StreamGenerator(graph, seed=seed + 1000)
    return list(generator.stream(BATCH_SIZE, NUM_BATCHES))


def _mismatches(algorithm, states, csr) -> List[int]:
    expected = compute_reference(algorithm, csr)
    return [
        i
        for i in range(len(expected))
        if not algorithm.values_close(float(states[i]), float(expected[i]))
    ]


def _replay(name: str, seed: int, batches: List[UpdateBatch]) -> Optional[int]:
    """Run the scenario prefix incrementally on the sharded engine.

    Returns the smallest prefix length after which the incremental states
    diverge from the cold-start reference (0 = the initial evaluation
    already diverges), or ``None`` when the whole prefix holds.
    """
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    engine = JetStreamEngine(graph, algorithm, num_engines=NUM_ENGINES)
    engine.initial_compute()
    if _mismatches(algorithm, engine.query_result(), graph.snapshot()):
        return 0
    for index, batch in enumerate(batches):
        engine.apply_batch(batch)
        if _mismatches(algorithm, engine.query_result(), graph.snapshot()):
            return index + 1
    return None


def _minimal_failing_prefix(
    name: str,
    seed: int,
    batches: List[UpdateBatch],
    failing_len: int,
) -> int:
    """Bisect the batch list down to the shortest prefix that still fails."""
    if failing_len == 0:
        return 0
    lo, hi = 1, failing_len
    while lo < hi:
        mid = (lo + hi) // 2
        if _replay(name, seed, batches[:mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _format_prefix(batches: List[UpdateBatch]) -> str:
    lines = []
    for index, batch in enumerate(batches):
        ins = [(e.u, e.v, round(e.w, 3)) for e in batch.insertions]
        dels = [(e.u, e.v) for e in batch.deletions]
        lines.append(f"  batch {index}: insert {ins} delete {dels}")
    return "\n".join(lines) if lines else "  (initial evaluation, no batches)"


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
@pytest.mark.parametrize("name", FUZZ_ALGORITHMS)
def test_incremental_sharded_matches_cold_start(name, seed):
    batches = _make_batches(name, seed)
    failing = _replay(name, seed, batches)
    if failing is None:
        return
    minimal = _minimal_failing_prefix(name, seed, batches, failing)
    pytest.fail(
        f"scenario {name}/seed={seed}: incremental(sharded, "
        f"{NUM_ENGINES} engines) diverged from cold_start(reference) after "
        f"{minimal} batch(es). Minimal failing stream prefix "
        f"(RMAT n={NUM_VERTICES} m={NUM_EDGES} seed={seed}, stream seed="
        f"{seed + 1000}):\n" + _format_prefix(batches[:minimal])
    )


def test_scenario_count_meets_floor():
    """The issue's acceptance bar: at least 25 seeded stream scenarios."""
    assert len(FUZZ_ALGORITHMS) * len(SCENARIO_SEEDS) >= 25


# ----------------------------------------------------------------------
# Deletion-heavy policy matrix
# ----------------------------------------------------------------------
# The deletion-policy invariant: VAP's coalesced resets and DAP's
# dependency-aware trimming must land on the same cold-start reference
# states, on every engine substrate. Streams here are deletion-heavy (20%
# insertions) so the recovery machinery, not the monotone addition path,
# carries each batch.

DELETION_POLICIES = [DeletePolicy.VAP, DeletePolicy.DAP]
#: ``auto`` runs sssp/cc on the vectorized substrate; the id names it.
DELETION_ENGINES = ["scalar", pytest.param("auto", id="vectorized"), "sharded"]
DELETION_ALGORITHMS = ["sssp", "cc"]
DELETION_SEEDS = list(range(3))
DELETION_INSERTION_RATIO = 0.2


def _make_deletion_batches(name: str, seed: int) -> List[UpdateBatch]:
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    generator = StreamGenerator(
        graph, seed=seed + 2000, insertion_ratio=DELETION_INSERTION_RATIO
    )
    return list(generator.stream(BATCH_SIZE, NUM_BATCHES))


def _replay_policy(
    name: str,
    seed: int,
    batches: List[UpdateBatch],
    policy: DeletePolicy,
    engine: str,
) -> Optional[int]:
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    num_engines = NUM_ENGINES if engine == "sharded" else None
    stream_engine = JetStreamEngine(
        graph, algorithm, policy=policy, num_engines=num_engines
    )
    if engine == "scalar":
        on_oracle(stream_engine)
    stream_engine.initial_compute()
    if _mismatches(algorithm, stream_engine.query_result(), graph.snapshot()):
        return 0
    for index, batch in enumerate(batches):
        stream_engine.apply_batch(batch)
        if _mismatches(
            algorithm, stream_engine.query_result(), graph.snapshot()
        ):
            return index + 1
    return None


@pytest.mark.parametrize("seed", DELETION_SEEDS)
@pytest.mark.parametrize("engine", DELETION_ENGINES)
@pytest.mark.parametrize("policy", DELETION_POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", DELETION_ALGORITHMS)
def test_deletion_policies_match_cold_start(name, policy, engine, seed):
    batches = _make_deletion_batches(name, seed)
    failing = _replay_policy(name, seed, batches, policy, engine)
    if failing is None:
        return
    pytest.fail(
        f"scenario {name}/{policy.value}/{engine}/seed={seed}: incremental "
        f"states diverged from cold_start(reference) after {failing} "
        f"batch(es) of a deletion-heavy stream "
        f"(insertion_ratio={DELETION_INSERTION_RATIO}):\n"
        + _format_prefix(batches[:failing])
    )
