"""Single-update tail latency: express lane vs engine path at batch 1.

Measures what the express lane (:mod:`repro.core.fastpath`) exists for:
per-update latency on a converged state. Three workloads over the same
RMAT graph, SSSP/DAP:

* **express/safe_insert** — fresh high-weight edges that always classify
  safe (``insert-no-improvement``): the pure fast-path cost of classify +
  dict-level store mutation. The headline gate: its median must be ≥ 50×
  faster than the engine path at batch size 1.
* **express/mixed** — a generated 70/30 insert/delete single-update
  stream replayed through :meth:`ExpressLane.apply`, so unsafe updates
  fall through to the engine. Reports the safe ratio and per-outcome
  latency percentiles — the realistic blended cost.
* **engine/batch1** — the same single-update stream shape run as
  one-edge :class:`UpdateBatch` es through ``apply_batch``, i.e. what
  every update would cost without the lane.

The regression-gate ``events`` column uses deterministic work counters
(classification scan entries + engine events processed), never wall
clock, so event drift always means a behaviour change.

Usable two ways:

* ``python benchmarks/bench_update_latency.py`` — standalone, writes
  ``BENCH_latency.json`` at the repo root. ``REPRO_BENCH_QUICK=1``
  shrinks the graph and update counts for CI smoke runs.
* ``repro bench check --suite latency`` — re-runs :func:`collect` and
  gates updates/s and exact work counts against the committed baseline.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.fastpath import ExpressLane
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.streams import StreamGenerator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_latency.json"

ALGORITHM = "sssp"
STREAM_SEED = 23
#: Weight far above any converged SSSP distance on the bench graphs, so
#: the safe-insert workload classifies ``insert-no-improvement`` always.
HEAVY_WEIGHT = 1.0e9

#: The headline acceptance gate (full mode only).
SPEEDUP_GATE = 50.0


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
    return name, n, edges


def update_plan(quick: bool):
    """(safe_inserts, mixed_updates, engine_batches)."""
    if quick:
        return 100, 60, 12
    return 300, 150, 30


def make_engine(edges, num_vertices: int) -> JetStreamEngine:
    graph = DynamicGraph.from_edges(edges, num_vertices)
    engine = JetStreamEngine(
        graph,
        make_algorithm(ALGORITHM, source=0),
        policy=DeletePolicy.DAP,
    )
    engine.initial_compute()
    return engine


def fresh_edges(graph, count: int, seed: int):
    """``count`` fresh (u, v) pairs absent from ``graph``, deterministic."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    out, chosen = [], set()
    while len(out) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or (u, v) in chosen or graph.has_edge(u, v):
            continue
        chosen.add((u, v))
        out.append((u, v))
    return out


def pregenerate_single_updates(edges, num_vertices: int, count: int):
    """A consistent single-update stream, produced off the clock.

    Returns ``(u, v, w, op)`` tuples; generated against a scratch graph so
    the timed replay sees the exact sequence without generation cost.
    """
    scratch = DynamicGraph.from_edges(edges, num_vertices)
    gen = StreamGenerator(scratch, seed=STREAM_SEED)
    updates = []
    for batch in gen.stream(1, count):
        for e in batch.insertions:
            updates.append((e.u, e.v, e.w, "insert"))
        for e in batch.deletions:
            updates.append((e.u, e.v, e.w, "delete"))
    return updates


def percentiles(latencies):
    xs = sorted(latencies)
    n = len(xs)
    return {
        "p50_us": statistics.median(xs) * 1e6,
        "p99_us": xs[min(n - 1, max(0, (99 * n) // 100))] * 1e6,
        "max_us": xs[-1] * 1e6,
    }


def run_safe_inserts(edges, num_vertices: int, count: int) -> dict:
    engine = make_engine(edges, num_vertices)
    lane = ExpressLane(engine)
    targets = fresh_edges(engine.graph, count, seed=41)
    latencies, work = [], 0
    started = time.perf_counter()
    for u, v in targets:
        result = lane.apply(u, v, HEAVY_WEIGHT, "insert")
        latencies.append(result.latency_s)
        work += result.edges_scanned + result.state_reads
        assert result.safe, f"heavy insert {u}->{v} classified {result.reason}"
    elapsed = time.perf_counter() - started
    return {
        "updates": count,
        "wall_clock_s": elapsed,
        "updates_per_s": count / elapsed if elapsed > 0 else float("inf"),
        "latency": percentiles(latencies),
        "work_entries": int(work),
    }


def run_mixed(edges, num_vertices: int, count: int) -> dict:
    updates = pregenerate_single_updates(edges, num_vertices, count)
    engine = make_engine(edges, num_vertices)
    lane = ExpressLane(engine)
    safe_lat, unsafe_lat = [], []
    work = 0
    started = time.perf_counter()
    for u, v, w, op in updates:
        result = lane.apply(u, v, w, op)
        (safe_lat if result.safe else unsafe_lat).append(result.latency_s)
        work += result.edges_scanned + result.state_reads
        if result.engine_result is not None:
            work += result.engine_result.metrics.events_processed
    elapsed = time.perf_counter() - started
    stats = dict(lane.stats)
    report = {
        "updates": len(updates),
        "wall_clock_s": elapsed,
        "updates_per_s": len(updates) / elapsed if elapsed > 0 else float("inf"),
        "safe": len(safe_lat),
        "unsafe": len(unsafe_lat),
        "safe_ratio": len(safe_lat) / len(updates) if updates else 0.0,
        "work_entries": int(work),
        "lane": stats,
    }
    if safe_lat:
        report["safe_latency"] = percentiles(safe_lat)
    if unsafe_lat:
        report["unsafe_latency"] = percentiles(unsafe_lat)
    return report


def run_engine_batch1(edges, num_vertices: int, count: int) -> dict:
    from repro.streams import Edge, UpdateBatch

    updates = pregenerate_single_updates(edges, num_vertices, count)
    engine = make_engine(edges, num_vertices)
    latencies, events = [], 0
    started = time.perf_counter()
    for u, v, w, op in updates:
        if op == "insert":
            batch = UpdateBatch(insertions=[Edge(u, v, w)])
        else:
            batch = UpdateBatch(deletions=[Edge(u, v)])
        t0 = time.perf_counter()
        result = engine.apply_batch(batch)
        latencies.append(time.perf_counter() - t0)
        events += result.metrics.events_processed
    elapsed = time.perf_counter() - started
    return {
        "updates": len(updates),
        "wall_clock_s": elapsed,
        "updates_per_s": len(updates) / elapsed if elapsed > 0 else float("inf"),
        "latency": percentiles(latencies),
        "events_processed": int(events),
    }


def collect(quick: bool) -> dict:
    graph_name, num_vertices, edges = build_graph(quick)
    n_safe, n_mixed, n_engine = update_plan(quick)

    safe = run_safe_inserts(edges, num_vertices, n_safe)
    mixed = run_mixed(edges, num_vertices, n_mixed)
    engine = run_engine_batch1(edges, num_vertices, n_engine)

    speedup = (
        engine["latency"]["p50_us"] / safe["latency"]["p50_us"]
        if safe["latency"]["p50_us"] > 0
        else float("inf")
    )
    print(
        f"safe insert p50 {safe['latency']['p50_us']:8.1f} us  "
        f"p99 {safe['latency']['p99_us']:8.1f} us"
    )
    print(
        f"engine batch1 p50 {engine['latency']['p50_us']:8.1f} us  "
        f"p99 {engine['latency']['p99_us']:8.1f} us  "
        f"express speedup {speedup:7.1f}x"
    )
    print(
        f"mixed stream: {mixed['safe']}/{mixed['updates']} safe "
        f"({mixed['safe_ratio']:.0%})"
    )
    return {
        "quick": quick,
        "graph": {
            "name": graph_name,
            "num_vertices": num_vertices,
            "num_edges": len(edges),
        },
        "algorithm": ALGORITHM,
        "speedup_p50": speedup,
        "results": {
            "safe_insert": safe,
            "mixed": mixed,
            "engine_batch1": engine,
        },
    }


def main() -> int:
    quick = quick_mode()
    report = collect(quick)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {OUTPUT_PATH}]")
    if not quick and report["speedup_p50"] < SPEEDUP_GATE:
        print(
            f"WARNING: express speedup {report['speedup_p50']:.1f}x below "
            f"the {SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


def test_update_latency_speedup(benchmark):
    """pytest-benchmark entry: quick grid, express must beat the engine."""
    os.environ.setdefault("REPRO_BENCH_QUICK", "1")
    report = benchmark.pedantic(lambda: collect(True), rounds=1, iterations=1)
    assert report["speedup_p50"] > 5.0, (
        f"express safe insert only {report['speedup_p50']:.1f}x faster "
        "than the engine path at batch 1"
    )
    benchmark.extra_info["speedup_p50"] = round(report["speedup_p50"], 1)


if __name__ == "__main__":
    sys.exit(main())
