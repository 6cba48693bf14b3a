"""CommonGraph deletion-to-addition conversion vs DAP recovery.

The headline number for the ``delete_policy=commongraph`` tentpole: on
Fig. 10-style deletion-heavy batches the conversion must process at
least :data:`RATIO_GATE` (2x) fewer events than JetStream's own
dependency-aware (DAP) recovery, while producing bit-identical final
states and resetting zero vertices.

Each grid point deletes a fixed fraction of the graph's edges in one
batch and replays it twice from the same converged state:

* **dap** — Algorithm 4 recovery: invalidation cascade along the
  dependency tree, request events, reconvergence.
* **commongraph** — converge the common graph (current edges minus the
  delete set) once; with a deletion-only batch there are no insertions
  to re-apply, so that single monotonic pass is the whole batch.

The regression-gate ``events`` column is the engine's deterministic
event counter, so policy drift fails the gate exactly; ``events_per_s``
carries the machine-dependent throughput check.

Usable two ways:

* ``python benchmarks/bench_commongraph.py`` — standalone, writes
  ``BENCH_commongraph.json`` at the repo root. ``REPRO_BENCH_QUICK=1``
  shrinks the grid for CI smoke runs.
* ``repro bench check --suite commongraph`` — re-runs :func:`collect`
  and gates events/s and exact event counts against the baseline.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph import datasets
from repro.streams import Edge, UpdateBatch

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_commongraph.json"

GRAPH = "WK"
BATCH_SEED = 42

#: Gated points delete 30% of the edges — the deletion-heavy end of the
#: Fig. 10 sweep, where DAP's reset cascade is at its most expensive.
#: The 10% point rides along informationally (full mode only).
GATED_FRACTION = 0.3

#: Minimum DAP/commongraph event ratio on the gated points.
RATIO_GATE = 2.0


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def grid(quick: bool):
    """(algorithms, delete_fractions) for the run mode."""
    if quick:
        return ["sssp", "cc"], [GATED_FRACTION]
    return ["sssp", "cc", "sswp", "bfs"], [0.1, GATED_FRACTION]


def deletion_batch(graph, fraction: float) -> UpdateBatch:
    """A deletion-only batch removing ``fraction`` of the logical edges."""
    edges = [(u, v, w) for u, v, w in graph.edges()]
    if graph.symmetric:
        edges = [(u, v, w) for u, v, w in edges if u <= v]
    rng = random.Random(BATCH_SEED)
    dels = rng.sample(edges, int(len(edges) * fraction))
    return UpdateBatch(deletions=[Edge(u, v, w) for u, v, w in dels])


def run_policy(algorithm: str, policy: DeletePolicy, fraction: float) -> dict:
    algo = make_algorithm(algorithm, source=0)
    graph = datasets.load(GRAPH, symmetric=algo.needs_symmetric, seed=0)
    engine = JetStreamEngine(graph, algo, policy=policy)
    engine.initial_compute()
    batch = deletion_batch(graph, fraction)
    started = time.perf_counter()
    result = engine.apply_batch(batch)
    elapsed = time.perf_counter() - started
    events = int(result.metrics.events_processed)
    return {
        "batch_edges": len(batch.deletions),
        "wall_clock_s": elapsed,
        "events_processed": events,
        "events_per_s": events / elapsed if elapsed > 0 else float("inf"),
        "vertices_reset": int(result.vertices_reset),
        "states": result.states.copy(),
    }


def collect(quick: bool) -> dict:
    algorithms, fractions = grid(quick)
    results = []
    for algorithm in algorithms:
        for fraction in fractions:
            dap = run_policy(algorithm, DeletePolicy.DAP, fraction)
            cg = run_policy(algorithm, DeletePolicy.COMMONGRAPH, fraction)
            identical = bool(np.array_equal(dap.pop("states"), cg.pop("states")))
            ratio = (
                dap["events_processed"] / cg["events_processed"]
                if cg["events_processed"]
                else float("inf")
            )
            gated = fraction >= GATED_FRACTION
            print(
                f"{GRAPH}/{algorithm} del={fraction:.0%}: "
                f"DAP {dap['events_processed']:>6} events "
                f"({dap['vertices_reset']} resets)  "
                f"CG {cg['events_processed']:>6} events "
                f"({cg['vertices_reset']} resets)  "
                f"ratio {ratio:5.2f}x  identical={identical}"
            )
            results.append(
                {
                    "graph": GRAPH,
                    "algorithm": algorithm,
                    "delete_fraction": fraction,
                    "gated": gated,
                    "dap": dap,
                    "commongraph": cg,
                    "ratio_events": ratio,
                    "states_identical": identical,
                }
            )
    gated_ratios = [r["ratio_events"] for r in results if r["gated"]]
    return {
        "quick": quick,
        "graph": GRAPH,
        "ratio_gate": RATIO_GATE,
        "min_gated_ratio": min(gated_ratios) if gated_ratios else None,
        "results": results,
    }


def main() -> int:
    quick = quick_mode()
    report = collect(quick)
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[saved to {OUTPUT_PATH}]")
    failed = False
    if any(not r["states_identical"] for r in report["results"]):
        print("ERROR: commongraph states diverged from the DAP oracle",
              file=sys.stderr)
        failed = True
    if report["min_gated_ratio"] is not None and (
        report["min_gated_ratio"] < RATIO_GATE
    ):
        print(
            f"WARNING: min DAP/commongraph event ratio "
            f"{report['min_gated_ratio']:.2f}x below the {RATIO_GATE:.0f}x gate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def test_commongraph_event_ratio(benchmark):
    """pytest-benchmark entry: quick grid, conversion must beat DAP 2x."""
    os.environ.setdefault("REPRO_BENCH_QUICK", "1")
    report = benchmark.pedantic(lambda: collect(True), rounds=1, iterations=1)
    assert all(r["states_identical"] for r in report["results"])
    assert report["min_gated_ratio"] >= RATIO_GATE, (
        f"commongraph only {report['min_gated_ratio']:.2f}x fewer events "
        f"than DAP on the gated deletion batches"
    )
    benchmark.extra_info["min_gated_ratio"] = round(report["min_gated_ratio"], 2)


if __name__ == "__main__":
    sys.exit(main())
