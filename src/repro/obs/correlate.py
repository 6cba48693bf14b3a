"""Post-run correlation: trace wall-clock vs. modeled accelerator cycles.

A trace's round spans carry the complete per-round work vectors, so a
:class:`~repro.core.metrics.RunMetrics` can be rebuilt *offline* from the
JSONL file alone and re-priced by
:class:`~repro.sim.timing.AcceleratorTimingModel`. Joining the modeled
cycles with the measured wall-clock of each phase span yields the
modeled-cycles-per-wall-clock-second rate — the number that says how many
accelerator cycles one second of this Python simulation stands for, per
phase. ``repro trace summarize`` renders the result as a table.

The second half of this module is the serve-side analyzer behind
``repro trace requests``: it reads the ``request`` spans of a daemon's
JSONL trace (:mod:`repro.obs.requests`), checks that their stages
partition their wall time, computes p50/p95/p99 latency per route and
per stage, and attributes engine wall time to the requests it sits
under in the span tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import AcceleratorConfig
from repro.core.metrics import RunMetrics
from repro.obs.trace_file import PathLike, TraceData, TraceFormatError, read_trace
from repro.obs.trace_file import _is_num
from repro.obs.tracer import WORK_FIELDS
from repro.sim.timing import AcceleratorTimingModel

#: Phase extras copied back onto the rebuilt PhaseStats.
_PHASE_EXTRAS = (
    "vertices_reset",
    "deletes_discarded",
    "request_events",
    "noc_events_local",
    "noc_events_remote",
    "noc_flits",
    "noc_cycles",
)


@dataclass
class PhaseCorrelation:
    """One phase's joined trace/model row."""

    run_name: str
    run_index: int
    phase_index: int
    name: str
    rounds: int
    events_processed: int
    events_generated: int
    wall_s: float
    modeled_cycles: float
    modeled_us: float

    @property
    def cycles_per_wall_s(self) -> float:
        """Modeled accelerator cycles represented per wall-clock second."""
        return self.modeled_cycles / self.wall_s if self.wall_s > 0 else 0.0


def rebuild_run_metrics(trace: TraceData, run: Dict[str, object]) -> RunMetrics:
    """Reconstruct a run's :class:`RunMetrics` from its trace spans.

    Raises :class:`TraceFormatError` when a phase span's aggregate attrs
    disagree with the sum of its round spans — the trace is internally
    inconsistent and any derived numbers would be wrong.
    """
    metrics = RunMetrics()
    for phase_record in trace.children_of(run["id"], "phase"):
        attrs = phase_record["attrs"]
        stats = metrics.phase(phase_record["name"])
        for name in _PHASE_EXTRAS:
            setattr(stats, name, attrs.get(name, 0))
        rounds = trace.children_of(phase_record["id"], "round")
        for round_record in rounds:
            work = stats.new_round()
            for name in WORK_FIELDS:
                setattr(work, name, round_record["attrs"][name])
        if stats.num_rounds != attrs.get("rounds"):
            raise TraceFormatError(
                f"phase {phase_record['name']!r} (span {phase_record['id']}) "
                f"declares {attrs.get('rounds')} rounds but the trace holds "
                f"{stats.num_rounds} round spans"
            )
        total = stats.total
        for name in WORK_FIELDS:
            if getattr(total, name) != attrs.get(name):
                raise TraceFormatError(
                    f"phase {phase_record['name']!r} (span "
                    f"{phase_record['id']}): aggregate {name}="
                    f"{attrs.get(name)} != sum of round spans "
                    f"{getattr(total, name)}"
                )
    return metrics


def correlate_run(
    trace: TraceData,
    run: Dict[str, object],
    run_index: int = 0,
    config: Optional[AcceleratorConfig] = None,
) -> List[PhaseCorrelation]:
    """Join one run's phase wall-clock with re-modeled cycle estimates."""
    metrics = rebuild_run_metrics(trace, run)
    model = AcceleratorTimingModel(config)
    stream_records = int(run["attrs"].get("stream_records", 0))
    report = model.run_time(metrics, stream_records=stream_records)
    rows: List[PhaseCorrelation] = []
    phases = trace.children_of(run["id"], "phase")
    for phase_index, (record, timing) in enumerate(zip(phases, report.phases)):
        attrs = record["attrs"]
        rows.append(
            PhaseCorrelation(
                run_name=run["name"],
                run_index=run_index,
                phase_index=phase_index,
                name=record["name"],
                rounds=int(attrs["rounds"]),
                events_processed=int(attrs["events_processed"]),
                events_generated=int(attrs["events_generated"]),
                wall_s=float(record["dur_s"]),
                modeled_cycles=float(timing.total_cycles),
                modeled_us=float(
                    timing.total_cycles / (report.clock_ghz * 1e9) * 1e6
                ),
            )
        )
    return rows


def correlate(
    trace: TraceData, config: Optional[AcceleratorConfig] = None
) -> List[PhaseCorrelation]:
    """Correlation rows for every run span of a trace, in start order."""
    rows: List[PhaseCorrelation] = []
    for run_index, run in enumerate(trace.runs()):
        rows.extend(correlate_run(trace, run, run_index, config))
    return rows


def render_correlation(rows: List[PhaseCorrelation]) -> str:
    """The per-phase table (`repro trace summarize` output)."""
    if not rows:
        return "(empty trace: no run spans)"
    header = (
        f"{'run':>12} {'phase':>20} {'rounds':>7} {'events':>12} "
        f"{'wall ms':>10} {'model cycles':>14} {'model us':>10} {'Mcyc/s':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        run_label = f"{row.run_index}:{row.run_name}"
        lines.append(
            f"{run_label:>12} {row.name:>20} {row.rounds:>7} "
            f"{row.events_processed:>12,} {row.wall_s * 1e3:>10.2f} "
            f"{row.modeled_cycles:>14,.0f} {row.modeled_us:>10.1f} "
            f"{row.cycles_per_wall_s / 1e6:>10.2f}"
        )
    total_wall = sum(r.wall_s for r in rows)
    total_cycles = sum(r.modeled_cycles for r in rows)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':>12} {'':>20} {sum(r.rounds for r in rows):>7} "
        f"{sum(r.events_processed for r in rows):>12,} "
        f"{total_wall * 1e3:>10.2f} {total_cycles:>14,.0f} {'':>10} "
        f"{(total_cycles / total_wall if total_wall > 0 else 0.0) / 1e6:>10.2f}"
    )
    return "\n".join(lines)


def summarize(path: PathLike, config: Optional[AcceleratorConfig] = None) -> str:
    """Read a saved JSONL trace and render the per-phase table."""
    trace = read_trace(path)
    return render_correlation(correlate(trace, config))


# ----------------------------------------------------------------------
# Served-request analysis (`repro trace requests`)
# ----------------------------------------------------------------------
def _stage_error(span: dict) -> Optional[str]:
    """Why a request span's stage partition is wrong, or ``None``.

    Stage durations must be non-negative (a negative one means a mark ran
    backwards) and, with the ``unaccounted`` residual, add up to the
    span's wall time.
    """
    where = f"request span {span['id']}"
    total = 0.0
    for stage, dur in span["attrs"]["stages"].items():
        if not _is_num(dur) or dur < 0:
            return (
                f"{where}: stage {stage!r} duration is negative or "
                "non-numeric (stage marks not monotonic)"
            )
        total += dur
    unaccounted, dur_s = span["attrs"]["unaccounted"], span["dur_s"]
    if dur_s < 0 or unaccounted < 0:
        return f"{where}: negative duration"
    total += unaccounted
    if abs(total - dur_s) > 1e-6 + 0.01 * dur_s:
        return f"{where}: stages + unaccounted = {total:.6f}s but dur_s = {dur_s:.6f}s"
    return None


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(math.ceil(q * len(sorted_values))) - 1)
    return sorted_values[max(0, rank)]


def _latency_row(values: List[float]) -> dict:
    values = sorted(values)
    return {
        "count": len(values),
        "p50_ms": _percentile(values, 0.50) * 1e3,
        "p95_ms": _percentile(values, 0.95) * 1e3,
        "p99_ms": _percentile(values, 0.99) * 1e3,
        "max_ms": (values[-1] if values else 0.0) * 1e3,
        "total_s": sum(values),
    }


def analyze_requests(path: PathLike) -> dict:
    """Tail-latency attribution of the request spans in a serve trace.

    Returns a JSON-friendly analysis: per-route and per-stage latency
    percentiles, the stage-attribution quality of the slowest decile, and
    the engine work under each successful write. ``errors`` lists schema
    problems (then nothing else is read) and request spans whose stages
    do not partition their wall time (those are left out of the tables).
    """
    try:
        trace = read_trace(path)
    except TraceFormatError as exc:
        trace, errors = TraceData({}), [str(exc)]
    else:
        errors = []
    records: List[dict] = []
    for span in trace.spans:
        if span["kind"] == "request":
            problem = _stage_error(span)
            if problem is None:
                records.append(span)
            else:
                errors.append(problem)
    by_route: Dict[str, List[float]] = {}
    by_stage: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        route, attrs = record["name"], record["attrs"]
        by_route.setdefault(route, []).append(record["dur_s"])
        for stage, dur in attrs["stages"].items():
            by_stage.setdefault((route, stage), []).append(dur)
        if attrs["unaccounted"] > 0.0:
            by_stage.setdefault((route, "unaccounted"), []).append(
                attrs["unaccounted"]
            )
    route_total = {route: sum(vals) for route, vals in by_route.items()}
    return {
        "requests": len(records),
        "errors": errors,
        "routes": [
            {"route": route, **_latency_row(vals)}
            for route, vals in sorted(by_route.items())
        ],
        "stages": [
            {
                "route": route,
                "stage": stage,
                **_latency_row(vals),
                "share": (
                    sum(vals) / route_total[route] if route_total[route] > 0 else 0.0
                ),
            }
            for (route, stage), vals in sorted(by_stage.items())
        ],
        "attribution": _attribution(records),
        "engine": _engine_work(trace, records),
    }


def _attribution(records: List[dict]) -> dict:
    """Stage-attribution quality of the slowest decile of requests.

    ``min_share`` is the acceptance number: the worst fraction of a slow
    request's wall time that named stages (everything but
    ``unaccounted``) explain.
    """
    if not records:
        return {"slow_requests": 0, "min_share": 1.0, "mean_share": 1.0}
    ranked = sorted(records, key=lambda r: r["dur_s"], reverse=True)
    slow = ranked[: max(1, len(ranked) // 10)]
    shares = [
        (r["dur_s"] - r["attrs"]["unaccounted"]) / r["dur_s"] if r["dur_s"] > 0 else 1.0
        for r in slow
    ]
    return {
        "slow_requests": len(slow),
        "min_share": min(shares),
        "mean_share": sum(shares) / len(shares),
    }


def _engine_work(trace: TraceData, records: List[dict]) -> dict:
    """Engine work under each successful write request, by span ancestry.

    A write is covered when a run span (a batch, or an express refusal's
    engine run) or an ``express`` event sits under its request span.
    """
    by_id = trace.by_id()

    def request_of(parent: Optional[int]) -> Optional[int]:
        while parent is not None:
            span = by_id.get(parent)
            if span is None:
                return None
            if span["kind"] == "request":
                return span["id"]
            parent = span["parent"]
        return None

    run_wall: Dict[int, float] = {}
    for span in trace.spans:
        if span["kind"] == "run":
            owner = request_of(span["parent"])
            if owner is not None:
                run_wall[owner] = run_wall.get(owner, 0.0) + float(span["dur_s"])
    express = {
        request_of(e["parent"]) for e in trace.events if e["name"] == "express"
    } - {None}
    writes = [
        r["id"]
        for r in records
        if r["name"] in ("ingest", "update") and r["attrs"]["status"] == 200
    ]
    matched = [w for w in writes if w in run_wall or w in express]
    return {
        "writes": len(writes),
        "matched": len(matched),
        "coverage": len(matched) / len(writes) if writes else 1.0,
        "run_spans": len(run_wall),
        "express_events": len(express),
        "engine": _latency_row([run_wall[w] for w in writes if w in run_wall]),
    }


def render_request_table(analysis: dict) -> str:
    """Human-readable tables for ``repro trace requests``."""
    lines: List[str] = []
    lines.append(
        f"trace: {analysis['requests']} requests, "
        f"{len(analysis['errors'])} schema violation(s)"
    )
    for problem in analysis["errors"]:
        lines.append(f"  ! {problem}")
    if analysis["routes"]:
        header = (
            f"{'route':>10} {'count':>7} {'p50 ms':>9} {'p95 ms':>9} "
            f"{'p99 ms':>9} {'max ms':>9}"
        )
        lines += ["", header, "-" * len(header)]
        for row in analysis["routes"]:
            lines.append(
                f"{row['route']:>10} {row['count']:>7} {row['p50_ms']:>9.2f} "
                f"{row['p95_ms']:>9.2f} {row['p99_ms']:>9.2f} "
                f"{row['max_ms']:>9.2f}"
            )
    if analysis["stages"]:
        header = (
            f"{'route':>10} {'stage':>12} {'count':>7} {'p50 ms':>9} "
            f"{'p95 ms':>9} {'p99 ms':>9} {'share':>7}"
        )
        lines += ["", header, "-" * len(header)]
        for row in analysis["stages"]:
            lines.append(
                f"{row['route']:>10} {row['stage']:>12} {row['count']:>7} "
                f"{row['p50_ms']:>9.2f} {row['p95_ms']:>9.2f} "
                f"{row['p99_ms']:>9.2f} {row['share']:>6.1%}"
            )
    attribution = analysis["attribution"]
    lines.append(
        f"\nslowest decile ({attribution['slow_requests']} request(s)): "
        f"named stages explain {attribution['min_share']:.1%} (min) / "
        f"{attribution['mean_share']:.1%} (mean) of wall time"
    )
    engine = analysis["engine"]
    lines.append(
        f"engine work: {engine['matched']}/{engine['writes']} writes have it "
        f"under their request span ({engine['coverage']:.1%}) — "
        f"{engine['run_spans']} with run spans, "
        f"{engine['express_events']} with express events; "
        f"engine p99 {engine['engine']['p99_ms']:.2f} ms"
    )
    return "\n".join(lines)
