"""Express-lane classification goldens: reasons and work counters are pinned.

For each monotonic algorithm, a deterministic 20-update mixed
insert/delete trace is replayed through :class:`ExpressLane` on a seeded
RMAT graph, and every per-update observable the classifier produces is
pinned in ``tests/data/fastpath_goldens.json``:

* the **safe/unsafe verdict** and the **reason tag** (the exact rule that
  fired — a refactor of ``classify_monotonic_update`` cannot silently
  reclassify an update or rename a rule);
* the **work counters** (``edges_scanned``, ``state_reads``) — the
  O(degree) claim in numbers; a scan-cost regression shows up as a
  counter diff, not a flaky timing assertion;
* the single state write of a safe improving insert
  (``insert-local-improvement``), kept under its ``new_state`` key.

The unclassified fallback (``unclassified-algorithm`` for accumulative
algorithms like PageRank) is pinned too, via classify-only probes.

Regenerate (only on purpose, from a known-good tree):

    PYTHONPATH=src python tests/test_fastpath_golden.py --update
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.fastpath import ExpressLane
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.streams import StreamGenerator

GOLDEN_PATH = Path(__file__).parent / "data" / "fastpath_goldens.json"

TRACE_ALGORITHMS = ["sssp", "sswp", "bfs", "cc"]
TRACE_LEN = 20
NUM_VERTICES = 48
NUM_EDGES = 150
GRAPH_SEED = 5
DELETE_PROB = 0.35


def _build_graph(algorithm) -> DynamicGraph:
    edges = generators.rmat(NUM_VERTICES, NUM_EDGES, seed=GRAPH_SEED, weighted=True)
    if algorithm.needs_symmetric:
        seen, kept = set(), []
        for u, v, w in edges:
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                kept.append((u, v, w))
        return DynamicGraph.from_edges(kept, NUM_VERTICES, symmetric=True)
    return DynamicGraph.from_edges(edges, NUM_VERTICES)


def _trace_updates(name: str) -> List[Tuple[int, int, float, str]]:
    """The algorithm's pinned 20-update trace, captured off a scratch graph."""
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm)
    generator = StreamGenerator(graph, seed=GRAPH_SEED + 100)
    rng = np.random.default_rng(GRAPH_SEED + 200)
    updates = []
    for _ in range(TRACE_LEN):
        ratio = 0.0 if rng.random() < DELETE_PROB else 1.0
        batch = generator.next_batch(1, insertion_ratio=ratio)
        graph.apply_batch(
            [(e.u, e.v, e.w) for e in batch.insertions],
            [e.key() for e in batch.deletions],
        )
        if batch.insertions:
            e = batch.insertions[0]
            updates.append((e.u, e.v, e.w, "insert"))
        else:
            e = batch.deletions[0]
            updates.append((e.u, e.v, e.w, "delete"))
    return updates


def run_trace(name: str) -> dict:
    """Replay the trace through the lane; returns a serializable record."""
    algorithm = make_algorithm(name, source=0)
    graph = _build_graph(algorithm)
    engine = JetStreamEngine(graph, algorithm, policy=DeletePolicy.DAP)
    engine.initial_compute()
    lane = ExpressLane(engine)
    updates = []
    for u, v, w, op in _trace_updates(name):
        result = lane.apply(u, v, w, op)
        updates.append(
            {
                "op": op,
                "u": u,
                "v": v,
                "w": w,
                "safe": result.safe,
                "reason": result.reason,
                "edges_scanned": result.edges_scanned,
                "state_reads": result.state_reads,
                "new_state": (
                    list(result.state_updates[0])
                    if result.reason == "insert-local-improvement"
                    else None
                ),
            }
        )
    return {
        "algorithm": name,
        "updates": updates,
        "lane": dict(lane.stats),
    }


def run_unclassified_probes() -> dict:
    """Classify-only probes against an accumulative algorithm (PageRank)."""
    algorithm = make_algorithm("pagerank", source=0)
    graph = _build_graph(algorithm)
    engine = JetStreamEngine(graph, algorithm, policy=DeletePolicy.BASE)
    engine.initial_compute()
    lane = ExpressLane(engine)
    probes = []
    for u, v, w, op in [(0, 47, 3.0, "insert"), (1, 46, 2.0, "insert")]:
        verdict = lane.classify(u, v, w, op)
        probes.append(
            {
                "op": op,
                "u": u,
                "v": v,
                "safe": verdict.safe,
                "reason": verdict.reason,
                "edges_scanned": verdict.edges_scanned,
                "state_reads": verdict.state_reads,
            }
        )
    return {"algorithm": "pagerank", "probes": probes}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def goldens() -> Dict[str, dict]:
    if not GOLDEN_PATH.exists():
        pytest.skip(f"golden file missing: {GOLDEN_PATH}")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", TRACE_ALGORITHMS)
def test_trace_matches_golden(goldens, name):
    """Verdicts, reason tags, and work counters reproduce exactly."""
    record = run_trace(name)
    expected = goldens["traces"][name]
    assert len(record["updates"]) == len(expected["updates"]) == TRACE_LEN
    for i, (actual, pinned) in enumerate(
        zip(record["updates"], expected["updates"])
    ):
        assert actual == pinned, (
            f"{name} update {i} drifted:\n  actual {actual}\n  pinned {pinned}"
        )
    assert record["lane"] == expected["lane"], f"{name}: lane stats drifted"


@pytest.mark.parametrize("name", TRACE_ALGORITHMS)
def test_trace_is_mixed_and_diverse(goldens, name):
    """The pinned trace earns its keep: mixed ops, several distinct rules."""
    updates = goldens["traces"][name]["updates"]
    ops = {u["op"] for u in updates}
    assert ops == {"insert", "delete"}, f"{name}: trace is not mixed"
    reasons = {u["reason"] for u in updates}
    assert len(reasons) >= 3, (
        f"{name}: only {sorted(reasons)} rules exercised; the golden "
        "no longer covers classification meaningfully"
    )


def test_unclassified_fallback_matches_golden(goldens):
    record = run_unclassified_probes()
    assert record == goldens["unclassified"]
    for probe in record["probes"]:
        assert probe["safe"] is False
        assert probe["reason"] == "unclassified-algorithm"


# ----------------------------------------------------------------------
# Regeneration entry point
# ----------------------------------------------------------------------
def _regenerate() -> None:
    traces = {}
    for name in TRACE_ALGORITHMS:
        record = run_trace(name)
        traces[name] = record
        reasons = sorted({u["reason"] for u in record["updates"]})
        safe = sum(1 for u in record["updates"] if u["safe"])
        print(f"captured {name}: {safe}/{TRACE_LEN} safe, rules {reasons}")
    payload = {"traces": traces, "unclassified": run_unclassified_probes()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
