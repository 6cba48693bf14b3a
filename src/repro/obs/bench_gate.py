"""Benchmark regression gate (``repro bench check``).

Re-runs the benchmark suites in ``benchmarks/`` and compares their
throughput medians against the committed baselines — ``BENCH_engine.json``
and ``BENCH_trace.json`` at the repo root for full runs, or the quick-mode
snapshots under ``benchmarks/baselines/`` for ``--quick`` — so the perf
trajectory the ROADMAP tracks is enforced by CI instead of eyeballs.

Two checks per comparable row:

* **throughput** — ``events_per_s`` may drop at most ``tolerance``
  (relative) below the baseline median. Wall-clock is machine-dependent,
  so CI runs this informationally (generous tolerance, or ``--no-fail``,
  which forgives this check only) while local runs on the baseline
  machine use the strict default.
* **work** — ``events_processed`` must match the baseline *exactly*.
  Event counts are deterministic and machine-independent; any drift means
  the functional behaviour changed, which no tolerance excuses.

Baselines are regenerated with ``repro bench check --update-baselines``
(run on the machine that owns the committed numbers).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = [
    "BenchGateError",
    "collect_commongraph",
    "collect_engine",
    "collect_latency",
    "collect_serve",
    "collect_sharded",
    "collect_stream",
    "collect_trace",
    "compare_rows",
    "default_baseline_path",
    "flatten_commongraph",
    "flatten_engine",
    "flatten_latency",
    "flatten_serve",
    "flatten_sharded",
    "flatten_stream",
    "flatten_trace",
    "render_table",
    "run_gate",
]

REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
BASELINES_DIR = BENCHMARKS_DIR / "baselines"

SUITES = (
    "engine",
    "trace",
    "stream",
    "sharded",
    "latency",
    "serve",
    "commongraph",
)

#: Default allowed relative drop in events_per_s before a row regresses.
DEFAULT_TOLERANCE = 0.30


class BenchGateError(RuntimeError):
    """Raised when the gate cannot run (missing baseline, bad schema)."""


def _load_bench_module(name: str):
    path = BENCHMARKS_DIR / f"{name}.py"
    if not path.exists():
        raise BenchGateError(f"benchmark script not found: {path}")
    spec = importlib.util.spec_from_file_location(f"repro_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collect_engine(quick: bool) -> dict:
    """Run the scalar-vs-vectorized grid and return its report."""
    return _load_bench_module("bench_vector_engine").run_grid(quick)


def collect_trace(quick: bool) -> dict:
    """Run the tracing/metrics overhead grid and return its report."""
    return _load_bench_module("bench_trace_overhead").collect(quick)


def collect_stream(quick: bool) -> dict:
    """Run the incremental-vs-rebuild streaming store grid."""
    return _load_bench_module("bench_stream_pipeline").collect(quick)


def collect_sharded(quick: bool) -> dict:
    """Run the sharded accounting determinism grid."""
    return _load_bench_module("bench_sharded_engine").run_grid(quick)


def collect_latency(quick: bool) -> dict:
    """Run the express-lane vs engine single-update latency grid."""
    return _load_bench_module("bench_update_latency").collect(quick)


def collect_serve(quick: bool) -> dict:
    """Run the many-client serve load test and return its report."""
    return _load_bench_module("bench_serve").collect(quick)


def collect_commongraph(quick: bool) -> dict:
    """Run the multi-version evaluator vs cold-runs grid."""
    return _load_bench_module("bench_commongraph").collect(quick)


def default_baseline_path(suite: str, quick: bool) -> Path:
    """Where the committed baseline for ``suite`` lives: the quick-mode
    snapshot under ``benchmarks/baselines/``, or the full report at the
    repo root."""
    if suite not in SUITES:
        raise BenchGateError(f"unknown suite {suite!r} (choose from {SUITES})")
    if quick:
        return BASELINES_DIR / f"BENCH_{suite}.quick.json"
    return REPO_ROOT / f"BENCH_{suite}.json"


# ----------------------------------------------------------------------
# Flattening: per-suite reports -> comparable rows
# ----------------------------------------------------------------------
def flatten_engine(report: dict) -> List[dict]:
    """``BENCH_engine.json`` → one row per (graph, algorithm, substrate)."""
    rows = []
    for entry in report.get("results", []):
        for mode in ("scalar", "vectorized"):
            sample = entry.get(mode)
            if not sample:
                continue
            rows.append(
                {
                    "suite": "engine",
                    "key": f"{entry['graph']}/{entry['algorithm']}/{mode}",
                    "events_per_s": float(sample["events_per_s"]),
                    "events": int(sample["events_processed"]),
                }
            )
    return rows


def flatten_trace(report: dict) -> List[dict]:
    """``BENCH_trace.json`` → one row per tracing mode."""
    rows = []
    for entry in report.get("rows", []):
        rows.append(
            {
                "suite": "trace",
                "key": entry["mode"],
                "events_per_s": float(entry["events_per_s"]),
                "events": int(entry["events"]),
            }
        )
    return rows


def flatten_stream(report: dict) -> List[dict]:
    """``BENCH_stream.json`` → one row per (batch size, store mode).

    Throughput is batches/s (the unit the suite optimizes); the event
    count is the summed ``events_processed`` across the stream, which is
    deterministic and must match the baseline exactly — it doubles as a
    cross-mode pipeline-parity check in CI.
    """
    rows = []
    for entry in report.get("results", []):
        for mode in ("incremental", "full_rebuild"):
            sample = entry.get(mode)
            if not sample:
                continue
            rows.append(
                {
                    "suite": "stream",
                    "key": f"batch{entry['batch_size']}/{mode}",
                    "events_per_s": float(sample["batches_per_s"]),
                    "events": int(sample["events_processed"]),
                }
            )
    return rows


def flatten_sharded(report: dict) -> List[dict]:
    """``BENCH_sharded.json`` → one row per (graph, algorithm, engines).

    A sharded run executes the vectorized round and only adds per-engine
    accounting, so its wall clock is not gated: ``events_per_s`` is 0,
    which skips the throughput check. The event column is the exact
    ``[events_processed, noc_flits, per-engine events_processed...]``
    vector, so any drift in how work or traffic splits across engines
    fails the comparison.
    """
    return [
        {
            "suite": "sharded",
            "key": f"{entry['graph']}/{entry['algorithm']}/e{entry['num_engines']}",
            "events_per_s": 0.0,
            "events": [
                int(entry["events_processed"]),
                int(entry["noc_flits"]),
                *(int(n) for n in entry["engine_events_processed"]),
            ],
        }
        for entry in report.get("results", [])
    ]


def flatten_latency(report: dict) -> List[dict]:
    """``BENCH_latency.json`` → one row per single-update workload.

    Throughput is updates/s. The event column is the deterministic work
    measure of each workload — classification scan entries for the
    express rows (plus fallthrough engine events for the mixed stream),
    engine events processed for the batch-1 comparator — so any drift in
    classification decisions or engine behaviour fails the gate exactly.
    """
    results = report.get("results", {})
    rows = []
    for key, events_field in (
        ("safe_insert", "work_entries"),
        ("mixed", "work_entries"),
        ("engine_batch1", "events_processed"),
    ):
        sample = results.get(key)
        if not sample:
            continue
        prefix = "engine" if key == "engine_batch1" else "express"
        name = "batch1" if key == "engine_batch1" else key
        rows.append(
            {
                "suite": "latency",
                "key": f"{prefix}/{name}",
                "events_per_s": float(sample["updates_per_s"]),
                "events": int(sample[events_field]),
            }
        )
    return rows


def flatten_serve(report: dict) -> List[dict]:
    """``BENCH_serve.json`` → one row per serve traffic shape.

    Throughput is batches/s (mixed ingest), reads/s (the same phase's
    read side), and updates/s (express singles). The event counts are the
    exact request totals the workload configuration fixes — records
    applied, reads served, updates applied — so the determinism check
    survives the nondeterministic client interleaving wall-clock brings.

    The ``*_keepalive`` rows are the same shapes from a client holding one
    connection open — the only rows that see a per-response stall on a
    persistent connection. ``read_keepalive`` gates the median round trip
    as its reciprocal (sequential reads/s of that one client).
    """
    results = report.get("results", {})
    rows: List[dict] = []

    def row(key: str, events_per_s: float, events: int) -> None:
        rows.append(
            {
                "suite": "serve",
                "key": key,
                "events_per_s": float(events_per_s),
                "events": int(events),
            }
        )

    mixed = results.get("mixed")
    if mixed:
        row("mixed_ingest", mixed["batches_per_s"], mixed["records_applied"])
        row("mixed_read", mixed["reads_per_s"], mixed["reads_total"])
        if "read_keepalive_p50_us" in mixed:
            row(
                "read_keepalive",
                1e6 / mixed["read_keepalive_p50_us"],
                mixed["reads_keepalive"],
            )
    for key in ("express", "express_keepalive"):
        express = results.get(key)
        if express:
            row(key, express["updates_per_s"], express["updates"])
    traced = results.get("mixed_traced")
    if traced:
        # The tracing-overhead gate: this row regressing while
        # mixed_ingest holds means request tracing itself got slower.
        row(
            "mixed_ingest_traced",
            traced["batches_per_s"],
            traced["records_applied"],
        )
    return rows


def flatten_commongraph(report: dict) -> List[dict]:
    """``BENCH_commongraph.json`` → one row per (graph, algorithm).

    The event column is the exact ``[total_events, cold_events]`` pair:
    the multi-version evaluator's events over every version, and the sum
    of one cold run per version. Wall clock is printed by the benchmark,
    not gated (``events_per_s`` is 0); the cold/shared event *ratio* is
    asserted by the benchmark's own gate.
    """
    return [
        {
            "suite": "commongraph",
            "key": f"{entry['graph']}/{entry['algorithm']}/v{entry['versions']}",
            "events_per_s": 0.0,
            "events": [int(entry["total_events"]), int(entry["cold_events"])],
        }
        for entry in report.get("results", [])
    ]


_FLATTENERS: Dict[str, Callable[[dict], List[dict]]] = {
    "engine": flatten_engine,
    "trace": flatten_trace,
    "stream": flatten_stream,
    "sharded": flatten_sharded,
    "latency": flatten_latency,
    "serve": flatten_serve,
    "commongraph": flatten_commongraph,
}

_COLLECTORS: Dict[str, Callable[[bool], dict]] = {
    "engine": collect_engine,
    "trace": collect_trace,
    "stream": collect_stream,
    "sharded": collect_sharded,
    "latency": collect_latency,
    "serve": collect_serve,
    "commongraph": collect_commongraph,
}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare_rows(
    current: List[dict], baseline: List[dict], tolerance: float
) -> List[dict]:
    """Join current and baseline rows by key; classify each pair.

    Statuses: ``ok`` (within tolerance), ``improved`` (faster than
    baseline by more than the tolerance), ``regression`` (throughput drop
    beyond tolerance OR an exact event-count mismatch — the latter also
    sets ``drift``), ``new`` (no baseline row), ``removed`` (baseline row
    with no current run).
    """
    base_by_key = {(r["suite"], r["key"]): r for r in baseline}
    out: List[dict] = []
    for row in current:
        base = base_by_key.pop((row["suite"], row["key"]), None)
        entry = {
            "suite": row["suite"],
            "key": row["key"],
            "events_per_s": row["events_per_s"],
            "baseline_events_per_s": base["events_per_s"] if base else None,
            "delta": None,
            "status": "new",
            "drift": False,
            "note": "",
        }
        if base is not None:
            if base["events_per_s"] > 0:
                entry["delta"] = (
                    row["events_per_s"] / base["events_per_s"] - 1.0
                )
            if row["events"] != base["events"]:
                entry["status"] = "regression"
                entry["drift"] = True
                entry["note"] = (
                    f"events_processed drifted: {row['events']} vs "
                    f"baseline {base['events']} (determinism break)"
                )
            elif entry["delta"] is not None and entry["delta"] < -tolerance:
                entry["status"] = "regression"
                entry["note"] = (
                    f"throughput {-entry['delta']:.1%} below baseline "
                    f"(tolerance {tolerance:.0%})"
                )
            elif entry["delta"] is not None and entry["delta"] > tolerance:
                entry["status"] = "improved"
            else:
                entry["status"] = "ok"
        out.append(entry)
    for (suite, key), base in base_by_key.items():
        out.append(
            {
                "suite": suite,
                "key": key,
                "events_per_s": None,
                "baseline_events_per_s": base["events_per_s"],
                "delta": None,
                "status": "removed",
                "drift": False,
                "note": "row present in baseline but not in this run",
            }
        )
    return out


def render_table(comparisons: List[dict]) -> str:
    """Human-readable per-row delta table."""
    lines = [
        f"{'suite':>7} {'row':<34} {'events/s':>14} "
        f"{'baseline':>14} {'delta':>8}  status"
    ]
    for c in comparisons:
        cur = f"{c['events_per_s']:,.0f}" if c["events_per_s"] else "-"
        base = (
            f"{c['baseline_events_per_s']:,.0f}"
            if c["baseline_events_per_s"]
            else "-"
        )
        delta = f"{c['delta']:+.1%}" if c["delta"] is not None else "-"
        note = f"  ({c['note']})" if c["note"] else ""
        lines.append(
            f"{c['suite']:>7} {c['key']:<34} {cur:>14} "
            f"{base:>14} {delta:>8}  {c['status']}{note}"
        )
    return "\n".join(lines)


def run_gate(
    suites: Optional[List[str]] = None,
    quick: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
    baseline_paths: Optional[Dict[str, Path]] = None,
    collectors: Optional[Dict[str, Callable[[bool], dict]]] = None,
    update_baselines: bool = False,
) -> dict:
    """Run the selected suites and gate them against their baselines.

    Returns ``{"comparisons": [...], "reports": {suite: report},
    "regressions": int, "drifts": int}`` — ``drifts`` counts the
    regressions that are event-count mismatches. ``collectors`` lets tests
    substitute canned report producers for the real benchmark runs.
    """
    suites = list(suites or SUITES)
    collectors = collectors or _COLLECTORS
    comparisons: List[dict] = []
    reports: Dict[str, dict] = {}
    for suite in suites:
        if suite not in _FLATTENERS:
            raise BenchGateError(f"unknown suite {suite!r} (choose from {SUITES})")
        report = collectors[suite](quick)
        reports[suite] = report
        path = Path(
            (baseline_paths or {}).get(suite)
            or default_baseline_path(suite, quick)
        )
        if update_baselines:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report, indent=2) + "\n")
            continue
        if not Path(path).exists():
            raise BenchGateError(
                f"no committed baseline for suite {suite!r} at {path}; "
                "generate one with --update-baselines"
            )
        baseline = json.loads(Path(path).read_text())
        comparisons.extend(
            compare_rows(
                _FLATTENERS[suite](report),
                _FLATTENERS[suite](baseline),
                tolerance,
            )
        )
    regressions = sum(1 for c in comparisons if c["status"] == "regression")
    return {
        "comparisons": comparisons,
        "reports": reports,
        "regressions": regressions,
        "drifts": sum(1 for c in comparisons if c["drift"]),
    }
