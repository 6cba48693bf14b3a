"""Sharded accounting goldens: per-engine work and NoC traffic are pinned.

``num_engines`` reports what the paper's 8 engines (Table 1,
§4.4/§4.7) would each have done: per-engine ``RoundWork`` per kernel
round (``PhaseStats.shard_rounds``), the load split
(``RunMetrics.engine_utilization``), the crossbar traffic
(``RunMetrics.noc_summary``) and the NoC deltas carried on every engine
round span. The parity suite only checks that the per-engine vectors sum
to the single-engine totals; ``tests/data/sharded_goldens.json`` pins the
vectors themselves, captured from the thread-pool shard runtime, so the
accounting view must split the work exactly as that runtime did.

Grid: sssp / pagerank / cc × BASE / DAP × ``num_engines`` ∈ {2, 8}, each
an initial evaluation plus three streaming batches, and two growth
scenarios that create vertices mid-stream (the shard plan's extension
rule).

Regenerate (only on purpose, from a known-good tree):

    PYTHONPATH=src python tests/test_sharded_goldens.py --update
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.obs.sinks import MemorySink
from repro.obs.tracer import WORK_FIELDS, Tracer
from repro.streams import Edge, StreamGenerator, UpdateBatch

from conftest import make_graph_for

GOLDEN_PATH = Path(__file__).parent / "data" / "sharded_goldens.json"

ALGORITHMS = ["sssp", "pagerank", "cc"]
POLICIES = {"base": DeletePolicy.BASE, "dap": DeletePolicy.DAP}
ENGINE_COUNTS = [2, 8]
NOC_FIELDS = ("noc_events_local", "noc_events_remote", "noc_flits", "noc_cycles")

NUM_VERTICES = 50
NUM_EDGES = 200
GRAPH_SEED = 11
STREAM_SEED = 12
NUM_BATCHES = 3
BATCH_SIZE = 12


def _growth_batches(n: int) -> List[UpdateBatch]:
    """Batches that create vertices ``n .. n + 3`` mid-stream."""
    return [
        UpdateBatch(insertions=[Edge(0, n, 1.0), Edge(n, n + 1, 2.0)]),
        UpdateBatch(
            insertions=[Edge(n + 1, 3, 4.0), Edge(n + 2, n + 3, 1.0)],
            deletions=[Edge(0, n)],
        ),
    ]


def _scenarios() -> List[dict]:
    out = [
        {"key": f"{name}/{policy}/e{engines}", "algorithm": name,
         "policy": policy, "engines": engines, "growth": False}
        for name in ALGORITHMS
        for policy in POLICIES
        for engines in ENGINE_COUNTS
    ]
    out += [
        {"key": f"{name}/{policy}/e8/growth", "algorithm": name,
         "policy": policy, "engines": 8, "growth": True}
        for name, policy in (("sssp", "dap"), ("pagerank", "base"))
    ]
    return out


SCENARIOS = _scenarios()
SCENARIO_KEYS = [s["key"] for s in SCENARIOS]


def _run_record(result, round_spans) -> dict:
    metrics = result.metrics
    return {
        "phases": [
            {
                "name": phase.name,
                "shard_rounds": [
                    [[int(getattr(w, f)) for f in WORK_FIELDS] for w in works]
                    for works in phase.shard_rounds
                ],
            }
            for phase in metrics.phases
        ],
        "engine_utilization": metrics.engine_utilization(),
        "noc_summary": metrics.noc_summary(),
        "noc_span_deltas": [
            [span.attrs[f] for f in NOC_FIELDS]
            for span in round_spans
            if "noc_flits" in span.attrs
        ],
    }


def run_scenario(scenario: dict) -> dict:
    """Replay one scenario with ``num_engines`` set; a JSON-ready record."""
    algorithm = make_algorithm(scenario["algorithm"], source=0)
    graph = make_graph_for(algorithm, n=NUM_VERTICES, m=NUM_EDGES, seed=GRAPH_SEED)
    memory = MemorySink()
    engine = JetStreamEngine(
        graph,
        algorithm,
        policy=POLICIES[scenario["policy"]],
        num_engines=scenario["engines"],
        tracer=Tracer([memory]),
    )
    if scenario["growth"]:
        batches = _growth_batches(graph.num_vertices)
    else:
        stream = StreamGenerator(graph, seed=STREAM_SEED)
        batches = [stream.next_batch(BATCH_SIZE) for _ in range(NUM_BATCHES)]
    runs = []
    for step in range(len(batches) + 1):
        seen = len(memory.spans)
        result = (
            engine.initial_compute() if step == 0
            else engine.apply_batch(batches[step - 1])
        )
        round_spans = [s for s in memory.spans[seen:] if s.kind == "round"]
        runs.append(_run_record(result, round_spans))
    # Normalise through JSON so tuples/ints/floats compare as stored.
    return json.loads(json.dumps({"scenario": scenario["key"], "runs": runs}))


@pytest.fixture(scope="module")
def goldens() -> Dict[str, dict]:
    data = json.loads(GOLDEN_PATH.read_text())
    return {rec["scenario"]: rec for rec in data["scenarios"]}


@pytest.mark.parametrize("key", SCENARIO_KEYS)
def test_sharded_accounting_matches_golden(goldens, key):
    scenario = next(s for s in SCENARIOS if s["key"] == key)
    record = run_scenario(scenario)
    expected = goldens[key]
    assert len(record["runs"]) == len(expected["runs"]), key
    for index, (actual, pinned) in enumerate(zip(record["runs"], expected["runs"])):
        context = f"{key} run {index}"
        for field in ("phases", "engine_utilization", "noc_summary", "noc_span_deltas"):
            assert actual[field] == pinned[field], f"{context}: {field} drifted"


def test_goldens_cover_every_scenario(goldens):
    assert sorted(goldens) == sorted(SCENARIO_KEYS)


def _regenerate() -> None:
    records = []
    for scenario in SCENARIOS:
        records.append(run_scenario(scenario))
        print(f"captured {scenario['key']}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    GOLDEN_PATH.write_text('{"scenarios":[\n' + lines + "\n]}\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
