"""Tracing/metrics overhead benchmark: the one-attribute-check contract.

Measures static-convergence throughput four ways on the same graph:

* ``off``      — default engines (shared ``NULL_TRACER``): the shipping
  configuration, whose cost over an uninstrumented build is one
  ``enabled`` check per scheduler round;
* ``metrics``  — a tracer whose one sink is the process-wide
  :data:`repro.obs.metrics.REGISTRY`, enabled (counters/gauges/histograms
  folded from every finished round span);
* ``memory``   — full tracing into a :class:`MemorySink`;
* ``jsonl``    — full tracing streamed to a JSONL file.

Writes ``BENCH_trace.json`` at the repo root and prints a table. The
acceptance gates: the disabled path stays within noise of itself (≤ ~2%
across runs) and the enabled registry stays within ~10% of ``off``. The
traced modes are reported for context, not gated.

Run: ``python benchmarks/bench_trace_overhead.py``
(``REPRO_BENCH_QUICK=1`` shrinks the grid.)
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import make_algorithm
from repro.core.engine import GraphPulseEngine
from repro.graph import generators
from repro.obs import JsonlSink, MemorySink, Tracer
from repro.obs.metrics import REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_trace.json"

MODES = ("off", "metrics", "memory", "jsonl")


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def build_csr(quick: bool):
    n, m = (2_048, 12_288) if quick else (16_384, 131_072)
    edges = generators.ensure_reachable_core(
        generators.rmat(n, m, seed=17), n, seed=18
    )
    from repro.graph.dynamic import DynamicGraph

    return DynamicGraph.from_edges(edges, n).snapshot()


def run_once(csr, tracer=None) -> tuple:
    engine = GraphPulseEngine(make_algorithm("sssp", source=0), tracer=tracer)
    started = time.perf_counter()
    result = engine.compute(csr)
    elapsed = time.perf_counter() - started
    return elapsed, result.metrics.events_processed


def measure(csr, mode: str, repeats: int) -> dict:
    times = []
    events = 0
    for _ in range(repeats):
        tracer = None
        cleanup = lambda: None  # noqa: E731
        if mode == "metrics":
            tracer = Tracer([REGISTRY.enable().reset()])
            cleanup = lambda: REGISTRY.disable().reset()  # noqa: E731
        elif mode == "memory":
            tracer = Tracer([MemorySink()])
            cleanup = tracer.close
        elif mode == "jsonl":
            handle = tempfile.NamedTemporaryFile(
                "w", suffix=".jsonl", delete=False
            )
            tracer = Tracer([JsonlSink(handle)])

            def cleanup(tracer=tracer, handle=handle):
                tracer.close()
                os.unlink(handle.name)

        elapsed, events = run_once(csr, tracer)
        cleanup()
        times.append(elapsed)
    median = statistics.median(times)
    return {
        "mode": mode,
        "median_s": median,
        "events": events,
        "events_per_s": events / median if median else 0.0,
    }


def collect(quick: bool) -> dict:
    """Run the full mode grid and return the report (no file writes)."""
    csr = build_csr(quick)
    repeats = 3 if quick else 5
    rows = [measure(csr, mode, repeats) for mode in MODES]
    off = rows[0]["events_per_s"]
    for row in rows:
        row["relative_throughput"] = row["events_per_s"] / off if off else 0.0
    return {
        "quick": quick,
        "graph": {
            "num_vertices": csr.num_vertices,
            "num_edges": csr.num_edges,
        },
        "repeats": repeats,
        "rows": rows,
    }


def main() -> int:
    report = collect(quick_mode())
    print(f"{'mode':>8} {'median s':>10} {'events/s':>14} {'vs off':>8}")
    for row in report["rows"]:
        print(
            f"{row['mode']:>8} {row['median_s']:>10.4f} "
            f"{row['events_per_s']:>14,.0f} "
            f"{row['relative_throughput']:>7.1%}"
        )

    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
