"""Sharded accounting determinism grid.

``num_engines=n`` executes the one array round and splits its work by
owning engine (``repro.core.parallel``). For each (graph,
algorithm, ``num_engines`` ∈ {1, 2, 8}) on a generated RMAT power-law
graph this checks that states and per-round work vectors equal the
single-engine oracle's, then emits one ``exact`` row per cell:
``[events_processed, noc_flits, per-engine events_processed...]``. The
oracle's and the sharded run's wall clock are ``info`` rows.

Run and gated only by ``repro bench check --suite sharded``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import time

from repro.algorithms import make_algorithm
from repro.core.engine import GraphPulseEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.obs.bench_gate import row

ENGINE_COUNTS = [1, 2, 8]


def build_graph(quick: bool):
    if quick:
        name, n, m = "rmat-2k", 2_048, 12_288
    else:
        name, n, m = "rmat-131k", 16_384, 131_072
    edges = generators.ensure_reachable_core(
        generators.rmat(n, m, seed=17), n, seed=18
    )
    return name, DynamicGraph.from_edges(edges, n)


def run_once(name: str, csr, num_engines=None):
    engine = GraphPulseEngine(make_algorithm(name, source=0), num_engines=num_engines)
    started = time.perf_counter()
    result = engine.compute(csr)
    return result, time.perf_counter() - started


def collect(quick: bool) -> dict:
    """One row per (graph, algorithm, num_engines), checked against the oracle."""
    graph_name, graph = build_graph(quick)
    csr = graph.snapshot()
    algorithms = ["sssp", "pagerank"] if quick else ["pagerank"]
    rows = []
    for algo in algorithms:
        oracle, oracle_s = run_once(algo, csr)
        rows.append(row(f"{graph_name}/{algo}/oracle_wall_clock_s", "info", oracle_s))
        for engines in ENGINE_COUNTS:
            result, sharded_s = run_once(algo, csr, num_engines=engines)
            cell = f"{graph_name}/{algo}/e{engines}"
            if result.states.tobytes() != oracle.states.tobytes():
                raise AssertionError(f"{cell}: states diverge from the single-engine oracle")
            if result.metrics.to_rows() != oracle.metrics.to_rows():
                raise AssertionError(f"{cell}: per-round work vectors diverge")
            metrics = result.metrics
            counts = [
                metrics.events_processed,
                metrics.noc_summary()["flits"],
                *(w.events_processed for w in metrics.per_engine_totals()),
            ]
            rows += [
                row(cell, "exact", counts),
                row(f"{cell}/wall_clock_s", "info", sharded_s),
            ]
    return {"suite": "sharded", "quick": quick, "rows": rows}
