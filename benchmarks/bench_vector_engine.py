"""Scalar oracle vs array engine wall-clock comparison.

Runs static convergence on the array engine and on the per-event scalar
oracle (:mod:`repro.oracle`) on generated RMAT
(power-law) and uniform (Erdős–Rényi) graphs across all six algorithms,
and records wall-clock plus events/s in a machine-readable
``BENCH_engine.json`` at the repo root so the perf trajectory is tracked
across PRs. The headline row — PageRank on a ≥100k-edge RMAT graph — is
the ISSUE acceptance gate (≥5× speedup).

Usable two ways:

* ``python benchmarks/bench_vector_engine.py`` — standalone, writes
  ``BENCH_engine.json`` and prints a table. ``REPRO_BENCH_QUICK=1``
  shrinks the grid (small graphs, two algorithms) for CI smoke runs.
* ``pytest benchmarks/bench_vector_engine.py`` — the same comparison as
  a pytest-benchmark test (quick grid unless overridden).
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
from repro.graph.dynamic import DynamicGraph, build_symmetric_graph
from repro.oracle import on_oracle

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"

ALGORITHMS = ["sssp", "bfs", "cc", "sswp", "pagerank", "adsorption"]


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


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


def run_grid(quick: bool) -> dict:
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
            rows.append({
                "graph": graph_name,
                "num_edges": num_edges,
                "algorithm": algo,
                "scalar": scalar,
                "vectorized": vector,
                "speedup": scalar["wall_clock_s"] / vector["wall_clock_s"],
            })
            print(
                f"{graph_name:>12} {algo:>10}: "
                f"scalar {scalar['wall_clock_s']:8.3f}s  "
                f"vectorized {vector['wall_clock_s']:8.3f}s  "
                f"speedup {rows[-1]['speedup']:6.2f}x  "
                f"({vector['events_per_s']:,.0f} ev/s)"
            )
    return {"quick": quick, "results": rows}


def main() -> int:
    quick = quick_mode()
    report = run_grid(quick)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {OUTPUT_PATH}]")
    if not quick:
        headline = [
            r for r in report["results"]
            if r["algorithm"] == "pagerank" and r["graph"].startswith("rmat")
            and r["num_edges"] >= 100_000
        ]
        if headline and headline[0]["speedup"] < 5.0:
            print(
                f"WARNING: headline RMAT PageRank speedup "
                f"{headline[0]['speedup']:.2f}x below the 5x gate",
                file=sys.stderr,
            )
            return 1
    return 0


def test_vector_engine_speedup(benchmark):
    """pytest-benchmark entry: quick-grid comparison, asserts speedup > 1."""
    os.environ.setdefault("REPRO_BENCH_QUICK", "1")
    report = benchmark.pedantic(lambda: run_grid(True), rounds=1, iterations=1)
    for row in report["results"]:
        assert row["speedup"] > 1.0, (
            f"{row['graph']}/{row['algorithm']}: vectorized slower than scalar"
        )
    benchmark.extra_info["speedups"] = {
        f"{r['graph']}/{r['algorithm']}": round(r["speedup"], 2)
        for r in report["results"]
    }


if __name__ == "__main__":
    sys.exit(main())
