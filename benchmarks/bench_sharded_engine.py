"""Sharded accounting determinism grid.

``num_engines=n`` executes the one array round and splits its work by
owning engine (``repro.core.parallel``). For each (graph,
algorithm, ``num_engines`` ∈ {1, 2, 8}) on a generated RMAT power-law
graph this checks that states and per-round work vectors equal the
single-engine oracle's, then records the exact counts the gate compares —
``events_processed``, the per-engine ``events_processed`` vector and the
NoC flits — in ``BENCH_sharded.json`` at the repo root. The oracle's and
the sharded run's wall clock are recorded and printed, not gated.

Usable two ways:

* ``python benchmarks/bench_sharded_engine.py`` — standalone, writes the
  report file and prints a table. ``REPRO_BENCH_QUICK=1`` shrinks the
  graph for CI smoke runs.
* ``pytest benchmarks/bench_sharded_engine.py`` — the same grid as a
  pytest-benchmark test (quick grid unless overridden).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import make_algorithm
from repro.core.engine import GraphPulseEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph

REPO_ROOT = Path(__file__).resolve().parent.parent
SHARDED_OUTPUT_PATH = REPO_ROOT / "BENCH_sharded.json"

ENGINE_COUNTS = [1, 2, 8]


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def build_graph(quick: bool):
    if quick:
        name, n, m = "rmat-2k", 2_048, 12_288
    else:
        name, n, m = "rmat-131k", 16_384, 131_072
    edges = generators.ensure_reachable_core(
        generators.rmat(n, m, seed=17), n, seed=18
    )
    return name, len(edges), DynamicGraph.from_edges(edges, n)


def run_once(name: str, csr, num_engines=None):
    engine = GraphPulseEngine(make_algorithm(name, source=0), num_engines=num_engines)
    started = time.perf_counter()
    result = engine.compute(csr)
    return result, time.perf_counter() - started


def run_grid(quick: bool) -> dict:
    """One row per (graph, algorithm, num_engines), checked against the oracle."""
    graph_name, num_edges, graph = build_graph(quick)
    csr = graph.snapshot()
    algorithms = ["sssp", "pagerank"] if quick else ["pagerank"]
    rows = []
    for algo in algorithms:
        oracle, oracle_s = run_once(algo, csr)
        for engines in ENGINE_COUNTS:
            result, sharded_s = run_once(algo, csr, num_engines=engines)
            cell = f"{graph_name}/{algo}/e{engines}"
            if result.states.tobytes() != oracle.states.tobytes():
                raise AssertionError(f"{cell}: states diverge from the single-engine oracle")
            if result.metrics.to_rows() != oracle.metrics.to_rows():
                raise AssertionError(f"{cell}: per-round work vectors diverge")
            per_engine = [w.events_processed for w in result.metrics.per_engine_totals()]
            rows.append({
                "graph": graph_name,
                "num_edges": num_edges,
                "algorithm": algo,
                "num_engines": engines,
                "events_processed": result.metrics.events_processed,
                "engine_events_processed": per_engine,
                "noc_flits": result.metrics.noc_summary()["flits"],
                "oracle_wall_clock_s": oracle_s,
                "wall_clock_s": sharded_s,
            })
            print(
                f"{graph_name:>12} {algo:>10} e{engines}: "
                f"oracle {oracle_s:8.3f}s  sharded {sharded_s:8.3f}s  "
                f"per-engine events {per_engine}"
            )
    return {"quick": quick, "results": rows}


def main() -> int:
    report = run_grid(quick_mode())
    SHARDED_OUTPUT_PATH.write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"[wrote {SHARDED_OUTPUT_PATH}]")
    return 0


def test_sharded_engine_parity(benchmark):
    """pytest-benchmark entry: quick grid; parity is asserted inside."""
    os.environ.setdefault("REPRO_BENCH_QUICK", "1")
    report = benchmark.pedantic(lambda: run_grid(True), rounds=1, iterations=1)
    benchmark.extra_info["rows"] = {
        f"{r['graph']}/{r['algorithm']}/e{r['num_engines']}": r["engine_events_processed"]
        for r in report["results"]
    }


if __name__ == "__main__":
    sys.exit(main())
