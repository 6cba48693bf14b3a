"""Express-lane fuzzing: single updates interleaved with engine batches.

The invariant under test: **a stream driven through the express lane
(:class:`repro.core.fastpath.ExpressLane`) is bit-identical to running the
exact same update sequence purely through the engine** — safe updates
absorbed with an O(degree) touch, unsafe ones falling through as one-edge
batches, full batches hitting ``apply_batch`` directly in between (which
deliberately goes *around* the lane, so every round the lane must
classify against a store it did not mutate itself).

Every scenario is reproducible from its ``(algorithm, policy, seed)``
triple over seeded RMAT graphs and seeded mixed insert/delete streams.
The express replay and the engine-only oracle run in lockstep, comparing
states after every step, so the first divergent step is found directly;
on failure the prefix is additionally re-verified by bisection (the
minimal-failing-prefix reporter from ``test_stream_fuzz.py``) and printed
as a replayable trace.

Final states are also checked against a cold-start ``reference.py``
computation on the final graph, so the lane and the engine cannot agree
on a wrong answer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.fastpath import ExpressLane
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.reference import compute_reference
from repro.streams import Edge, StreamGenerator, UpdateBatch

#: 4 monotonic algorithms × 3 policies × 3 seeds = 36 seeded scenarios
#: (the issue floor is 25). PageRank/adsorption have no classifier and
#: never reach the fast path, so they are out of scope here.
EXPRESS_ALGORITHMS = ["sssp", "sswp", "bfs", "cc"]
POLICIES = {
    "base": DeletePolicy.BASE,
    "vap": DeletePolicy.VAP,
    "dap": DeletePolicy.DAP,
}
SCENARIO_SEEDS = list(range(3))

NUM_VERTICES = 48
NUM_EDGES = 150
NUM_ROUNDS = 3
SINGLES_PER_ROUND = 8
BATCH_SIZE = 8
DELETE_PROB = 0.3

#: A step is either one express single update or one engine batch.
ExpressStep = Tuple[str, int, int, float, str]  # ("express", u, v, w, op)
BatchStep = Tuple[str, UpdateBatch]  # ("batch", batch)
Step = Union[ExpressStep, BatchStep]


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


def _apply_to(graph: DynamicGraph, batch: UpdateBatch) -> None:
    graph.apply_batch(
        [(e.u, e.v, e.w) for e in batch.insertions],
        [e.key() for e in batch.deletions],
    )


def _make_steps(name: str, seed: int) -> List[Step]:
    """The scenario's step sequence, captured up front so prefixes replay.

    Each round is ``SINGLES_PER_ROUND`` express singles (op drawn per
    update — ``next_batch`` at size 1 would otherwise round 70/30 to
    all-inserts) followed by one full engine batch. Generated against a
    scratch graph that tracks the same mutations the replays will apply,
    so deletions always target live edges and insertions are fresh.
    """
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    generator = StreamGenerator(graph, seed=seed + 2000)
    rng = np.random.default_rng(seed + 4000)
    steps: List[Step] = []
    for _ in range(NUM_ROUNDS):
        for _ in range(SINGLES_PER_ROUND):
            ratio = 0.0 if rng.random() < DELETE_PROB else 1.0
            single = generator.next_batch(1, insertion_ratio=ratio)
            _apply_to(graph, single)
            if single.insertions:
                e = single.insertions[0]
                steps.append(("express", e.u, e.v, e.w, "insert"))
            else:
                e = single.deletions[0]
                steps.append(("express", e.u, e.v, e.w, "delete"))
        batch = generator.next_batch(BATCH_SIZE)
        _apply_to(graph, batch)
        steps.append(("batch", batch))
    return steps


def _make_engine(name: str, policy: DeletePolicy, seed: int) -> JetStreamEngine:
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm, seed)
    engine = JetStreamEngine(graph, algorithm, policy=policy)
    engine.initial_compute()
    return engine


def _oracle_batch(step: ExpressStep) -> UpdateBatch:
    _, u, v, w, op = step
    if op == "insert":
        return UpdateBatch(insertions=[Edge(u, v, w)])
    return UpdateBatch(deletions=[Edge(u, v, w)])


def _replay(
    name: str, policy: DeletePolicy, seed: int, steps: List[Step]
) -> Optional[int]:
    """Express replay vs engine-only oracle, in lockstep.

    Returns the smallest prefix length after which the express-lane states
    differ bitwise from the oracle's (0 = the initial evaluations already
    differ, which would be an engine determinism bug), or ``None`` when
    the whole prefix holds. Because states are compared after *every*
    step, the returned length is already the minimal failing prefix.
    """
    express = _make_engine(name, policy, seed)
    oracle = _make_engine(name, policy, seed)
    lane = ExpressLane(express)
    if not np.array_equal(express.query_result(), oracle.query_result()):
        return 0
    for index, step in enumerate(steps):
        if step[0] == "express":
            _, u, v, w, op = step
            lane.apply(u, v, w, op)
            oracle.apply_batch(_oracle_batch(step))
        else:
            express.apply_batch(step[1])
            oracle.apply_batch(step[1])
        if not np.array_equal(express.query_result(), oracle.query_result()):
            return index + 1
    return None


def _final_states_diverge(
    name: str, policy: DeletePolicy, seed: int, steps: List[Step]
) -> bool:
    """Single-shot prefix check used by the bisecting re-verifier."""
    express = _make_engine(name, policy, seed)
    oracle = _make_engine(name, policy, seed)
    lane = ExpressLane(express)
    for step in steps:
        if step[0] == "express":
            _, u, v, w, op = step
            lane.apply(u, v, w, op)
            oracle.apply_batch(_oracle_batch(step))
        else:
            express.apply_batch(step[1])
            oracle.apply_batch(step[1])
    return not np.array_equal(express.query_result(), oracle.query_result())


def _minimal_failing_prefix(
    name: str, policy: DeletePolicy, seed: int, steps: List[Step], failing_len: int
) -> int:
    """Bisect the step list down to the shortest prefix that still fails.

    Lockstep comparison already yields the minimal prefix; the bisection
    re-verifies it from scratch (fresh engines per probe) so the reported
    trace is guaranteed replayable in isolation.
    """
    if failing_len == 0:
        return 0
    lo, hi = 1, failing_len
    while lo < hi:
        mid = (lo + hi) // 2
        if _final_states_diverge(name, policy, seed, steps[:mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _format_prefix(steps: List[Step]) -> str:
    lines = []
    for index, step in enumerate(steps):
        if step[0] == "express":
            _, u, v, w, op = step
            lines.append(f"  step {index}: express {op} ({u}, {v}, {round(w, 3)})")
        else:
            batch = step[1]
            ins = [(e.u, e.v, round(e.w, 3)) for e in batch.insertions]
            dels = [(e.u, e.v) for e in batch.deletions]
            lines.append(f"  step {index}: batch insert {ins} delete {dels}")
    return "\n".join(lines) if lines else "  (initial evaluation, no steps)"


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("name", EXPRESS_ALGORITHMS)
def test_express_lane_matches_engine_oracle(name, policy_name, seed):
    policy = POLICIES[policy_name]
    steps = _make_steps(name, seed)
    failing = _replay(name, policy, seed, steps)
    if failing is not None:
        minimal = _minimal_failing_prefix(name, policy, seed, steps, failing)
        pytest.fail(
            f"scenario {name}/{policy_name}/seed={seed}: express lane "
            f"diverged bitwise from the engine-only oracle after {minimal} "
            f"step(s). Minimal failing step prefix (RMAT n={NUM_VERTICES} "
            f"m={NUM_EDGES} seed={seed}, stream seed={seed + 2000}, op seed="
            f"{seed + 4000}):\n" + _format_prefix(steps[:minimal])
        )
    # Ground truth: the agreed-upon final state is also the cold-start
    # reference answer on the final graph (lane+engine can't co-drift).
    engine = _make_engine(name, policy, seed)
    lane = ExpressLane(engine)
    for step in steps:
        if step[0] == "express":
            _, u, v, w, op = step
            lane.apply(u, v, w, op)
        else:
            engine.apply_batch(step[1])
    algorithm = engine.algorithm
    states = engine.query_result()
    expected = compute_reference(algorithm, engine.graph.snapshot())
    bad = [
        (i, float(states[i]), float(expected[i]))
        for i in range(len(expected))
        if not algorithm.values_close(float(states[i]), float(expected[i]))
    ]
    assert not bad, (
        f"scenario {name}/{policy_name}/seed={seed}: final states differ "
        f"from cold-start reference; first mismatches {bad[:5]}"
    )
    # The lane must actually be exercised: every scenario has express
    # steps, and each lands either as a safe apply or a fallthrough.
    stats = lane.stats
    singles = sum(1 for s in steps if s[0] == "express")
    assert stats["safe_applied"] + stats["engine_fallthroughs"] == singles


def test_scenario_count_meets_floor():
    """The issue's acceptance bar: at least 25 seeded express scenarios."""
    assert len(EXPRESS_ALGORITHMS) * len(POLICIES) * len(SCENARIO_SEEDS) >= 25
