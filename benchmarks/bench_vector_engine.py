"""Scalar oracle vs array engine wall-clock comparison.

Runs static convergence on the array engine and on the per-event scalar
oracle (:mod:`repro.oracle`) on generated RMAT
(power-law) and uniform (Erdős–Rényi) graphs across all six algorithms.
Each cell emits the events both substrates processed (``exact``), their
events/s (``info``) and the oracle/array wall-clock speedup. The speedup
is a ``ratio`` row: at least 1× on every quick cell, and at least
:data:`HEADLINE_SPEEDUP` on the full grid's ≥100k-edge RMAT PageRank.

Run and gated only by ``repro bench check --suite engine``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import time

from repro.algorithms import make_algorithm
from repro.core.engine import GraphPulseEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph, build_symmetric_graph
from repro.obs.bench_gate import row
from repro.oracle import on_oracle

ALGORITHMS = ["sssp", "bfs", "cc", "sswp", "pagerank", "adsorption"]
#: Minimum speedup of the full grid's ≥100k-edge RMAT PageRank cell.
HEADLINE_SPEEDUP = 5.0


def build_graphs(quick: bool):
    """(name, DynamicGraph) grid: one power-law, one uniform."""
    if quick:
        shapes = [("rmat-2k", generators.rmat, 2_048, 12_288),
                  ("uniform-2k", generators.erdos_renyi, 2_048, 12_288)]
    else:
        shapes = [("rmat-131k", generators.rmat, 16_384, 131_072),
                  ("uniform-131k", generators.erdos_renyi, 16_384, 131_072)]
    graphs = []
    for name, gen, n, m in shapes:
        edges = generators.ensure_reachable_core(gen(n, m, seed=17), n, seed=18)
        graphs.append((name, len(edges), DynamicGraph.from_edges(edges, n)))
    return graphs


def make_benchmark_algorithm(name: str):
    if name == "pagerank":
        return make_algorithm(name, tolerance=1e-4)
    if name == "adsorption":
        return make_algorithm(name, tolerance=1e-4)
    return make_algorithm(name, source=0)


def run_once(name: str, graph: DynamicGraph, oracle: bool):
    algorithm = make_benchmark_algorithm(name)
    if algorithm.needs_symmetric:
        graph = build_symmetric_graph(
            graph.snapshot().edges(), graph.num_vertices, on_conflict="silent"
        )
    csr = graph.snapshot()
    engine = GraphPulseEngine(algorithm)
    if oracle:
        on_oracle(engine)
    started = time.perf_counter()
    result = engine.compute(csr)
    elapsed = time.perf_counter() - started
    events = result.metrics.events_processed
    return {
        "wall_clock_s": elapsed,
        "events_processed": events,
        "events_per_s": events / elapsed if elapsed > 0 else float("inf"),
    }


def speedup_bound(quick: bool, graph_name: str, num_edges: int, algo: str) -> dict:
    """The ``min`` a cell's speedup must reach; ``{}`` leaves it ``info``."""
    if quick:
        return {"min": 1.0}
    if algo == "pagerank" and graph_name.startswith("rmat") and num_edges >= 100_000:
        return {"min": HEADLINE_SPEEDUP}
    return {}


def collect(quick: bool) -> dict:
    graphs = build_graphs(quick)
    algorithms = ["sssp", "pagerank"] if quick else ALGORITHMS
    rows = []
    for graph_name, num_edges, graph in graphs:
        for algo in algorithms:
            scalar = run_once(algo, graph, oracle=True)
            vector = run_once(algo, graph, oracle=False)
            if scalar["events_processed"] != vector["events_processed"]:
                raise AssertionError(
                    f"{graph_name}/{algo}: engines processed different event "
                    f"counts ({scalar['events_processed']} vs "
                    f"{vector['events_processed']}) — parity broken"
                )
            cell = f"{graph_name}/{algo}"
            for mode, sample in (("scalar", scalar), ("vectorized", vector)):
                rows += [
                    row(f"{cell}/{mode}", "exact", sample["events_processed"]),
                    row(f"{cell}/{mode}/events_per_s", "info", sample["events_per_s"]),
                ]
            bound = speedup_bound(quick, graph_name, num_edges, algo)
            speedup = scalar["wall_clock_s"] / vector["wall_clock_s"]
            kind = "ratio" if bound else "info"
            rows.append(row(f"{cell}/speedup", kind, speedup, **bound))
    return {"suite": "engine", "quick": quick, "rows": rows}
