"""Single-update tail latency: express lane vs engine path at batch 1.

Measures what the express lane (:mod:`repro.core.fastpath`) exists for:
per-update latency on a converged state. Three workloads over the same
RMAT graph, SSSP/DAP:

* **express/safe_insert** — fresh high-weight edges that always classify
  safe (``insert-no-improvement``): the pure fast-path cost of classify +
  store mutation.
* **express/mixed** — a generated 70/30 insert/delete single-update
  stream replayed through :meth:`ExpressLane.apply`: cascading inserts
  and unsupported deletes are repaired on the lane, and the rest fall
  through to the engine. Reports the safe ratio — the realistic blended
  cost.
* **engine/batch1** — the same single-update stream shape run as
  one-edge :class:`UpdateBatch` es through ``apply_batch``, i.e. what
  every update would cost without the lane.

Each workload's ``exact`` row is its deterministic work counter
(classification scan entries, plus fallthrough engine events for the
mixed stream; engine events for batch 1), so drift always means a
behaviour change. Rates and percentiles are ``info``. The ``ratio`` row
is the engine/express p50 speedup: at least :data:`QUICK_SPEEDUP` on the
quick grid and :data:`FULL_SPEEDUP` on the full one. Its two p50s come
from one interleaved loop, so a busy host slows both sides of the ratio
rather than whichever loop it happened to overlap.

Run and gated only by ``repro bench check --suite latency``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.fastpath import ExpressLane
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.obs.bench_gate import row
from repro.streams import StreamGenerator

ALGORITHM = "sssp"
STREAM_SEED = 23
#: Weight far above any converged SSSP distance on the bench graphs, so
#: the safe-insert workload classifies ``insert-no-improvement`` always.
HEAVY_WEIGHT = 1.0e9

#: Minimum engine-batch-1 / express-safe-insert p50 speedup per grid.
QUICK_SPEEDUP = 5.0
FULL_SPEEDUP = 50.0

#: Rounds of the interleaved safe-insert / engine-batch loop. Few and
#: long, because the first safe inserts after an engine batch run on a
#: cache that batch evicted, at about twice the warm cost: a batch after
#: every tenth insert put a fifth of the safe samples there and moved
#: their p50 by 1-1.5 us, where three rounds leave about 2% of them cold.
INTERLEAVE_ROUNDS = 3


def build_graph(quick: bool):
    n, m = (2_048, 12_288) if quick else (16_384, 131_072)
    edges = generators.ensure_reachable_core(
        generators.rmat(n, m, seed=17), n, seed=18
    )
    return n, edges


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


def _round_slice(items, r: int):
    """Round ``r``'s share of ``items`` under :data:`INTERLEAVE_ROUNDS`."""
    n = len(items)
    return items[r * n // INTERLEAVE_ROUNDS : (r + 1) * n // INTERLEAVE_ROUNDS]


def run_safe_and_batch1(edges, num_vertices: int, n_safe: int, n_engine: int):
    """The safe-insert and engine-batch-1 workloads, sampled in one loop
    of :data:`INTERLEAVE_ROUNDS` rounds (each a slice of the safe inserts,
    then a slice of the engine batches), so host load moves both p50s and
    their ratio together. Each workload runs on its own engine, so its
    counters do not depend on the interleaving. Returns ``(safe, engine)``
    sample dicts."""
    from repro.streams import Edge, UpdateBatch

    lane = ExpressLane(make_engine(edges, num_vertices))
    targets = fresh_edges(lane.engine.graph, n_safe, seed=41)
    batcher = make_engine(edges, num_vertices)
    updates = pregenerate_single_updates(edges, num_vertices, n_engine)
    safe_lat, safe_wall, work = [], 0.0, 0
    engine_lat, events = [], 0
    for r in range(INTERLEAVE_ROUNDS):
        for u, v in _round_slice(targets, r):
            t0 = time.perf_counter()
            result = lane.apply(u, v, HEAVY_WEIGHT, "insert")
            safe_wall += time.perf_counter() - t0
            safe_lat.append(result.latency_s)
            work += result.edges_scanned + result.state_reads
            assert result.safe, f"heavy insert {u}->{v} classified {result.reason}"
        for u, v, w, op in _round_slice(updates, r):
            if op == "insert":
                batch = UpdateBatch(insertions=[Edge(u, v, w)])
            else:
                batch = UpdateBatch(deletions=[Edge(u, v)])
            t0 = time.perf_counter()
            engine_result = batcher.apply_batch(batch)
            engine_lat.append(time.perf_counter() - t0)
            events += engine_result.metrics.events_processed
    safe = {
        "updates_per_s": n_safe / safe_wall,
        "latency": percentiles(safe_lat),
        "work_entries": int(work),
    }
    engine = {
        "updates_per_s": len(engine_lat) / sum(engine_lat),
        "latency": percentiles(engine_lat),
        "events_processed": int(events),
    }
    return safe, engine


def run_mixed(edges, num_vertices: int, count: int) -> dict:
    updates = pregenerate_single_updates(edges, num_vertices, count)
    engine = make_engine(edges, num_vertices)
    lane = ExpressLane(engine)
    safe, work = 0, 0
    started = time.perf_counter()
    for u, v, w, op in updates:
        result = lane.apply(u, v, w, op)
        safe += result.safe
        work += result.edges_scanned + result.state_reads
        if result.engine_result is not None:
            work += result.engine_result.metrics.events_processed
    elapsed = time.perf_counter() - started
    return {
        "updates_per_s": len(updates) / elapsed,
        "safe_ratio": safe / len(updates),
        "work_entries": int(work),
    }


def collect(quick: bool) -> dict:
    num_vertices, edges = build_graph(quick)
    n_safe, n_mixed, n_engine = update_plan(quick)

    safe, engine = run_safe_and_batch1(edges, num_vertices, n_safe, n_engine)
    mixed = run_mixed(edges, num_vertices, n_mixed)
    speedup = engine["latency"]["p50_us"] / safe["latency"]["p50_us"]
    bound = QUICK_SPEEDUP if quick else FULL_SPEEDUP
    rows = [
        row("express/safe_insert", "exact", safe["work_entries"]),
        row("express/mixed", "exact", mixed["work_entries"]),
        row("engine/batch1", "exact", engine["events_processed"]),
        row("speedup_p50", "ratio", speedup, min=bound),
        row("express/mixed/safe_ratio", "info", mixed["safe_ratio"]),
    ]
    for key, sample in (
        ("express/safe_insert", safe),
        ("express/mixed", mixed),
        ("engine/batch1", engine),
    ):
        rows.append(row(f"{key}/updates_per_s", "info", sample["updates_per_s"]))
        for name, value in sample.get("latency", {}).items():
            rows.append(row(f"{key}/{name}", "info", value))
    return {"suite": "latency", "quick": quick, "rows": rows}
