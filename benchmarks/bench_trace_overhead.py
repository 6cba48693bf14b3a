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

Each mode emits its events processed (``exact``: tracing must not change
the work), its median events/s and its throughput relative to ``off``.
The last two are ``info`` rows: on a shared 2-core host ``metrics``/``off``
has measured from about 70% to 98% run to run, so no bound is set.

Run and gated only by ``repro bench check --suite trace``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from repro.algorithms import make_algorithm
from repro.core.engine import GraphPulseEngine
from repro.graph import generators
from repro.obs import JsonlSink, MemorySink, Tracer
from repro.obs.bench_gate import row
from repro.obs.metrics import REGISTRY

MODES = ("off", "metrics", "memory", "jsonl")


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
    """Run the mode grid and return its rows (no file writes)."""
    csr = build_csr(quick)
    repeats = 3 if quick else 5
    samples = [measure(csr, mode, repeats) for mode in MODES]
    off = samples[0]["events_per_s"]
    rows = []
    for sample in samples:
        mode = sample["mode"]
        rows += [
            row(mode, "exact", sample["events"]),
            row(f"{mode}/events_per_s", "info", sample["events_per_s"]),
            row(f"{mode}/relative_throughput", "info", sample["events_per_s"] / off),
        ]
    return {"suite": "trace", "quick": quick, "rows": rows}
