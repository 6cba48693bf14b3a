"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

Where the run trace (:mod:`repro.obs.tracer`) records *what happened* as a
post-hoc span tree, this module keeps *live* aggregates that can be
scraped mid-run — the software analogue of the hardware counters the
paper's evaluation is built on (events, accesses, queue occupancy, NoC
flits; Figs. 9–14). :class:`MetricsRegistry` is a trace sink: attached to
a tracer (``Tracer([REGISTRY, ...])``) it folds the finished ``run`` /
``phase`` / ``round`` / ``engine`` / ``request`` spans and the
``transfer`` / ``express`` / ``serve.*`` events, so every engine, queue,
express-lane, host and serve number is emitted once, through the tracer,
and the registry is derived from that one emission. The
shared :data:`REGISTRY` is exported as Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus`, served live by
:class:`repro.obs.scrape.MetricsServer`) or a JSON snapshot
(:meth:`MetricsRegistry.snapshot`, rendered by ``repro metrics dump``).

**Overhead contract.** The engines never look at the registry: their hot
loops check ``tracer.enabled`` once per scheduler round, so metrics cost
nothing until a tracer carries the registry (``benchmarks/
bench_trace_overhead.py``, mode ``off`` vs ``metrics``).

Thread-safety: the serving daemon emits from its handler threads, so
all mutation goes through a registry-wide lock, taken once per
folded span or event.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.sinks import Sink
from repro.obs.tracer import NOC_FIELDS, PHASE_EXTRAS, WORK_FIELDS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "log_buckets",
    "render_prometheus",
]

LabelPairs = Tuple[Tuple[str, str], ...]


def log_buckets(lo: float, hi: float, factor: float = 2.0) -> Tuple[float, ...]:
    """Fixed logarithmic bucket upper bounds: ``lo, lo*factor, ... >= hi``.

    The fixed-at-construction geometry is what makes scrape deltas
    meaningful: two snapshots of the same histogram are always
    bucket-compatible.
    """
    if lo <= 0 or factor <= 1:
        raise ValueError("log buckets need lo > 0 and factor > 1")
    bounds: List[float] = []
    value = float(lo)
    while value < hi:
        bounds.append(value)
        value *= factor
    bounds.append(value)
    return tuple(bounds)


def _label_key(labels: Dict[str, str]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: LabelPairs, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Counter:
    """Monotonically increasing value (scrapes may only ever see it grow)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (queue occupancy, graph size)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed log-bucket histogram with Prometheus cumulative semantics.

    Buckets can carry an *exemplar* — the id of one observation that
    landed in them (last write wins), in the spirit of OpenMetrics
    exemplars. Request spans attach their span id, so a latency bucket
    in a scrape points at a concrete request to look up in the trace.
    Exemplars appear in the JSON snapshot only; the 0.0.4 Prometheus
    text format has no syntax for them.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count", "exemplars")

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float], labels: LabelPairs = ()):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty list")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self.sum: float = 0.0
        self.count: int = 0
        self.exemplars: Dict[int, Dict[str, object]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        index = bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if exemplar is not None:
            self.exemplars[index] = {"id": exemplar, "value": value}

    def cumulative(self) -> List[int]:
        """Cumulative per-bucket counts (Prometheus ``le`` semantics)."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


#: Default bucket geometries for the registry's built-in histograms.
ROUND_LATENCY_BUCKETS = log_buckets(1e-5, 8.0, factor=2.0)  # 10 µs .. 8 s
BATCH_EVENTS_BUCKETS = log_buckets(1.0, 4.0**10, factor=4.0)  # 1 .. ~1M events
RATIO_BUCKETS = log_buckets(1.0 / 1024, 1.0, factor=2.0)  # 2^-10 .. 1
SPILL_BYTES_BUCKETS = log_buckets(64.0, 4.0**15, factor=4.0)  # 64 B .. ~1 GiB
RUN_LATENCY_BUCKETS = log_buckets(1e-4, 128.0, factor=2.0)  # 100 µs .. ~2 min
EXPRESS_LATENCY_BUCKETS = log_buckets(1e-7, 2.0, factor=2.0)  # 100 ns .. 2 s
EXPRESS_SCAN_BUCKETS = log_buckets(1.0, 4096.0, factor=2.0)  # 1 .. 4K entries
SERVE_LATENCY_BUCKETS = log_buckets(1e-5, 32.0, factor=2.0)  # 10 µs .. 32 s
SERVE_READS_BUCKETS = log_buckets(1.0, 65536.0, factor=4.0)  # 1 .. 64K reads


class MetricsRegistry(Sink):
    """Named metric families, folded from trace spans and events.

    One registry is the process-wide default (:data:`REGISTRY`); tests may
    construct private instances. As a sink it folds finished spans and
    events (see the module docstring), and only while ``enabled``: a
    disabled registry records nothing, attached or not.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        #: Series by key: the family name when unlabelled (one string lookup
        #: on the per-round fold), else ``(name, labels)``.
        self._metrics: Dict[object, object] = {}
        self._help: Dict[str, str] = {}
        self._kind: Dict[str, str] = {}
        #: Express updates folded, and how many of them were safe.
        self._express_total = self._express_safe = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def reset(self) -> "MetricsRegistry":
        """Drop every recorded series (help/kind metadata included)."""
        with self._lock:
            self._metrics.clear()
            self._help.clear()
            self._kind.clear()
            self._express_total = self._express_safe = 0
        return self

    # ------------------------------------------------------------------
    # Family accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help_text: str, labels: Dict[str, str], **kwargs):
        with self._lock:
            registered = self._kind.get(name)
            if registered is not None and registered != cls.kind:
                raise ValueError(f"metric {name!r} already registered as {registered}")
            metric = self._series(cls, name, _label_key(labels), **kwargs)
            if help_text:
                self._help[name] = help_text
            return metric

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._get(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help_text, labels)

    def histogram(
        self, name: str, buckets: Sequence[float], help_text: str = "", **labels
    ) -> Histogram:
        return self._get(Histogram, name, help_text, labels, buckets=buckets)

    def get(self, name: str, **labels):
        """Existing metric, or ``None`` (tests/exporters; never creates)."""
        label_pairs = _label_key(labels)
        return self._metrics.get((name, label_pairs) if label_pairs else name)

    def value(self, name: str, **labels) -> Optional[float]:
        """Convenience: the current value of a counter/gauge series."""
        metric = self.get(name, **labels)
        return None if metric is None else metric.value

    def _series(self, cls, name: str, labels: LabelPairs = (), **kwargs):
        """Get-or-create one series; ``labels`` sorted (caller holds the lock)."""
        key = (name, labels) if labels else name
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, labels=labels, **kwargs)
            self._kind[name] = cls.kind
            self._help.setdefault(name, _HELP.get(name, ""))
        return metric

    # ------------------------------------------------------------------
    # Sink: the one way engine-side numbers arrive
    # ------------------------------------------------------------------
    def on_span_end(self, span) -> None:
        fold = _SPAN_FOLDS.get(span.kind)
        if fold is not None and self.enabled:
            with self._lock:
                fold(self, span)

    def on_event(self, event) -> None:
        fold = _EVENT_FOLDS.get(event.name)
        if fold is not None and self.enabled:
            with self._lock:
                fold(self, event.attrs)

    def _fold_round(self, span) -> None:
        """One scheduler round: work counters, round histograms, queue
        occupancy and (sharded rounds) crossbar traffic."""
        attrs = span.attrs
        series = self._series
        series(Counter, "repro_rounds_total").inc()
        self._add_totals(attrs, _WORK_TOTALS)
        series(
            Histogram, "repro_round_latency_seconds", buckets=ROUND_LATENCY_BUCKETS
        ).observe(span.dur_s)
        series(
            Histogram, "repro_round_batch_events", buckets=BATCH_EVENTS_BUCKETS
        ).observe(attrs.get("events_processed", 0))
        inserts = attrs.get("queue_inserts")
        if inserts:
            series(
                Histogram, "repro_round_coalesce_ratio", buckets=RATIO_BUCKETS
            ).observe(attrs["coalesce_ops"] / inserts)
        spill = attrs.get("spill_bytes")
        if spill:
            series(
                Histogram, "repro_round_spill_bytes", buckets=SPILL_BYTES_BUCKETS
            ).observe(spill)
        if "occupancy_end" in attrs:
            end = attrs["occupancy_end"]
            series(Gauge, "repro_queue_occupancy").set(end)
            peak = series(Gauge, "repro_queue_peak_occupancy")
            peak.set(max(peak.value, attrs.get("occupancy_start", 0), end))
        if "noc_events_local" in attrs:
            self._add_totals(attrs, _NOC_TOTALS)
            remote = attrs["noc_events_remote"]
            delivered = attrs["noc_events_local"] + remote
            if delivered:
                series(
                    Histogram, "repro_noc_remote_fraction", buckets=RATIO_BUCKETS
                ).observe(remote / delivered)

    def _fold_engine(self, span) -> None:
        """One engine's share of a sharded round (utilization counters);
        the labelled series partition the unlabelled work totals."""
        labels = (("engine", str(span.attrs["engine"])),)
        for field in ("events_processed", "events_generated"):
            amount = span.attrs.get(field)
            if amount:
                self._series(Counter, f"repro_engine_{field}_total", labels).inc(amount)

    def _fold_phase(self, span) -> None:
        """One finished phase: its count and extras (its rounds fold alone)."""
        self._series(Counter, "repro_phases_total", (("phase", span.name),)).inc()
        self._add_totals(span.attrs, _PHASE_TOTALS)

    def _add_totals(self, attrs, totals) -> None:
        """Add each nonzero ``attrs[field]`` to its ``repro_<field>_total``."""
        metrics = self._metrics
        for field, total_name in totals:
            amount = attrs.get(field)
            if amount:
                counter = metrics.get(total_name) or self._series(Counter, total_name)
                counter.inc(amount)

    def _fold_run(self, span) -> None:
        """One engine run (initial evaluation, stream batch, static)."""
        attrs = span.attrs
        kind = (("kind", span.name),)
        self._series(Counter, "repro_runs_total", kind).inc()
        records = attrs.get("stream_records")
        if records:
            self._series(Counter, "repro_stream_records_total").inc(records)
        self._series(
            Histogram, "repro_run_latency_seconds", kind, buckets=RUN_LATENCY_BUCKETS
        ).observe(span.dur_s)
        if "num_vertices" in attrs:
            self._series(Gauge, "repro_graph_vertices").set(attrs["num_vertices"])
        if "num_edges" in attrs:
            self._series(Gauge, "repro_graph_edges").set(attrs["num_edges"])

    def _fold_transfer(self, attrs) -> None:
        """One host<->accelerator DMA transfer (:mod:`repro.host`)."""
        self._series(
            Counter, "repro_transfer_bytes_total", (("direction", attrs["direction"]),)
        ).inc(attrs["bytes"])

    def _fold_express(self, attrs) -> None:
        """One express-lane update (:mod:`repro.core.fastpath`). The scan
        histogram observes classification work (adjacency entries + state
        reads): deterministic per update sequence, unlike the latency."""
        outcome = (("outcome", "safe" if attrs["safe"] else "unsafe"),)
        self._series(
            Counter, "repro_express_updates_total", (("op", attrs["op"]),) + outcome
        ).inc()
        self._series(
            Counter, "repro_express_reasons_total", (("reason", attrs["reason"]),)
        ).inc()
        self._series(
            Histogram,
            "repro_express_latency_seconds",
            outcome,
            buckets=EXPRESS_LATENCY_BUCKETS,
        ).observe(attrs["latency_s"])
        self._series(
            Histogram, "repro_express_scan_entries", buckets=EXPRESS_SCAN_BUCKETS
        ).observe(attrs["edges_scanned"] + attrs["state_reads"])
        self._express_total += 1
        self._express_safe += bool(attrs["safe"])
        self._series(Gauge, "repro_express_safe_ratio").set(
            self._express_safe / self._express_total
        )

    def _fold_request(self, span) -> None:
        """One served HTTP request (:mod:`repro.obs.requests`): count by
        route and status, latency and per-stage histograms by route. The
        span id is each bucket's exemplar, so a scrape points at a
        request to look up in the trace."""
        attrs = span.attrs
        route = (("route", span.name),)
        exemplar = str(span.span_id)
        series = self._series
        status = (("status", str(attrs["status"])),)
        series(Counter, "repro_serve_requests_total", route + status).inc()
        series(
            Histogram,
            "repro_serve_request_latency_seconds",
            route,
            buckets=SERVE_LATENCY_BUCKETS,
        ).observe(span.dur_s, exemplar=exemplar)

        def stage_latency(stage: str) -> Histogram:
            return series(
                Histogram,
                "repro_serve_stage_latency_seconds",
                route + (("stage", stage),),
                buckets=SERVE_LATENCY_BUCKETS,
            )

        for stage, stage_s in attrs["stages"].items():
            stage_latency(stage).observe(stage_s, exemplar=exemplar)
        if attrs["unaccounted"] > 0.0:
            stage_latency("unaccounted").observe(attrs["unaccounted"])

    def _fold_serve_read(self, attrs) -> None:
        """One read served from a published snapshot, ``latest`` or
        ``historical`` (a ``?version=`` read from the retained ring)."""
        kind = (("kind", attrs["kind"]),)
        self._series(Counter, "repro_serve_reads_total", kind).inc()

    def _fold_serve_reject(self, attrs) -> None:
        """One write refused by backpressure (bounded ingest queue full)."""
        kind = (("kind", attrs["kind"]),)
        self._series(Counter, "repro_serve_rejected_total", kind).inc()

    def _fold_serve_publish(self, attrs) -> None:
        """One applied write op and the snapshot it published: queue wait
        + apply latency, the queue depth left behind, and how many reads
        the retired snapshot served (read/write amortization)."""
        kind = (("kind", attrs["kind"]),)
        series = self._series
        series(Counter, "repro_serve_writes_applied_total", kind).inc()
        series(
            Histogram,
            "repro_serve_ingest_latency_seconds",
            kind,
            buckets=SERVE_LATENCY_BUCKETS,
        ).observe(attrs["latency_s"])
        series(Gauge, "repro_serve_queue_depth").set(attrs["queue_depth"])
        series(Counter, "repro_serve_snapshots_total").inc()
        if attrs["reads"]:
            series(
                Histogram, "repro_serve_reads_per_snapshot", buckets=SERVE_READS_BUCKETS
            ).observe(attrs["reads"])

    def _fold_serve_sessions(self, attrs) -> None:
        """The number of open serve sessions, sampled on open and close."""
        self._series(Gauge, "repro_serve_sessions").set(attrs["count"])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every series (the dump format)."""
        with self._lock:
            grouped: Dict[str, List[Dict[str, object]]] = {}
            for metric in sorted(
                self._metrics.values(), key=lambda m: (m.name, m.labels)
            ):
                entry: Dict[str, object] = {"labels": dict(metric.labels)}
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.buckets)
                    entry["counts"] = list(metric.counts)
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                    if metric.exemplars:
                        entry["exemplars"] = {
                            str(index): dict(exemplar)
                            for index, exemplar in sorted(metric.exemplars.items())
                        }
                else:
                    entry["value"] = metric.value
                grouped.setdefault(metric.name, []).append(entry)
            families = [
                {
                    "name": name,
                    "kind": self._kind[name],
                    "help": self._help.get(name, ""),
                    "series": series,
                }
                for name, series in grouped.items()
            ]
            return {"format": "repro-metrics", "version": 1, "families": families}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        return render_prometheus(self.snapshot())

    def dump_json(self, path: str) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2)
            handle.write("\n")


_SPAN_FOLDS = {
    "round": MetricsRegistry._fold_round,
    "engine": MetricsRegistry._fold_engine,
    "phase": MetricsRegistry._fold_phase,
    "run": MetricsRegistry._fold_run,
    "request": MetricsRegistry._fold_request,
}
_EVENT_FOLDS = {
    "transfer": MetricsRegistry._fold_transfer,
    "express": MetricsRegistry._fold_express,
    "serve.read": MetricsRegistry._fold_serve_read,
    "serve.reject": MetricsRegistry._fold_serve_reject,
    "serve.publish": MetricsRegistry._fold_serve_publish,
    "serve.sessions": MetricsRegistry._fold_serve_sessions,
}

#: Span attribute -> counter family: ``repro_<attr>_total``.
_WORK_TOTALS = tuple((field, f"repro_{field}_total") for field in WORK_FIELDS)
_PHASE_TOTALS = tuple((field, f"repro_{field}_total") for field in PHASE_EXTRAS)
_NOC_TOTALS = tuple((field, f"repro_{field}_total") for field in NOC_FIELDS[:3])


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Shared by the live registry, the scrape endpoint, and
    ``repro metrics dump`` (which converts saved JSON snapshots offline).
    """
    if snapshot.get("format") != "repro-metrics":
        raise ValueError("not a repro-metrics snapshot")
    lines: List[str] = []
    for family in snapshot["families"]:
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['kind']}")
        for entry in family["series"]:
            labels = _label_key(entry.get("labels", {}))
            if family["kind"] == "histogram":
                running = 0
                for bound, count in zip(
                    list(entry["buckets"]) + [math.inf],
                    entry["counts"],
                ):
                    running += count
                    le = _format_labels(labels, f'le="{_format_value(float(bound))}"')
                    lines.append(f"{name}_bucket{le} {running}")
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(float(entry['sum']))}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {entry['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(float(entry['value']))}"
                )
    return "\n".join(lines) + "\n"


_HELP = {
    "repro_rounds_total": "Scheduler rounds executed.",
    "repro_events_processed_total": "Events drained and processed by the engines.",
    "repro_events_generated_total": "Events generated along out-edges.",
    "repro_queue_inserts_total": "Event insertions into the coalescing queue.",
    "repro_coalesce_ops_total": "In-queue coalesce operations (Reduce folds).",
    "repro_vertex_reads_total": "Vertex state reads.",
    "repro_vertex_writes_total": "Vertex state write-backs.",
    "repro_edges_read_total": "CSR edges read during propagation.",
    "repro_vertex_lines_total": "Unique 64B vertex-state lines fetched.",
    "repro_edge_lines_total": "Unique 64B edge-list lines fetched.",
    "repro_dram_pages_total": "Unique DRAM pages opened (row activations).",
    "repro_spill_bytes_total": "Off-chip spill traffic in bytes.",
    "repro_round_latency_seconds": "Wall-clock duration of one scheduler round.",
    "repro_round_batch_events": "Events processed per scheduler round.",
    "repro_round_coalesce_ratio": "Per-round coalesce ops / queue inserts.",
    "repro_round_spill_bytes": "Per-round off-chip spill bytes (rounds that spill).",
    "repro_phases_total": "Execution phases completed, by phase name.",
    "repro_vertices_reset_total": "Vertices reset during delete recovery.",
    "repro_deletes_discarded_total": "Delete events discarded by the impact tests.",
    "repro_request_events_total": "Request events queued during re-approximation.",
    "repro_noc_events_local_total": "Generated events delivered to the producing engine.",
    "repro_noc_events_remote_total": "Generated events routed across the crossbar NoC.",
    "repro_noc_flits_total": "NoC flits injected for remote event delivery.",
    "repro_noc_remote_fraction": "Per-round fraction of deliveries crossing the NoC.",
    "repro_queue_occupancy": "Events currently queued across all slices.",
    "repro_queue_peak_occupancy": "Lifetime peak queued events.",
    "repro_runs_total": "Engine runs, by kind (initial | batch | static).",
    "repro_stream_records_total": "Stream update records applied.",
    "repro_run_latency_seconds": "Wall-clock duration of one engine run.",
    "repro_graph_vertices": "Vertices in the bound graph snapshot.",
    "repro_graph_edges": "Edges in the bound graph snapshot.",
    "repro_transfer_bytes_total": "Host<->accelerator DMA bytes, by direction.",
    "repro_express_updates_total": "Express-lane updates, by op and safe/unsafe outcome.",
    "repro_express_reasons_total": "Express-lane classification verdicts, by rule.",
    "repro_express_latency_seconds": "Per-update express-lane latency, by outcome.",
    "repro_express_scan_entries": "Classification work per express update (edges + state reads).",
    "repro_express_safe_ratio": "Lifetime fraction of express updates classified safe.",
    "repro_engine_events_processed_total": "Events processed, by engine shard.",
    "repro_engine_events_generated_total": "Events generated, by engine shard.",
    "repro_serve_requests_total": "Serve HTTP requests handled, by route and status.",
    "repro_serve_request_latency_seconds": "Serve HTTP request latency, by route.",
    "repro_serve_stage_latency_seconds": "Serve HTTP request stage latency, by route and stage.",
    "repro_serve_writes_applied_total": "Serve write ops applied, by kind (batch | update).",
    "repro_serve_ingest_latency_seconds": "Queue wait + apply latency of serve write ops, by kind.",
    "repro_serve_queue_depth": "Ingest queue occupancy left behind by the last applied write.",
    "repro_serve_rejected_total": "Write ops rejected by ingest backpressure, by kind.",
    "repro_serve_reads_total": "Reads served from published immutable snapshots, by kind (latest | historical).",
    "repro_serve_snapshots_total": "Converged snapshots published by serve write ops.",
    "repro_serve_reads_per_snapshot": "Reads served by each retired snapshot.",
    "repro_serve_sessions": "Serve sessions currently open.",
}

#: The process-wide registry. Disabled by default; engine numbers reach it
#: only through a tracer that carries it (``Tracer([REGISTRY])``).
REGISTRY = MetricsRegistry(enabled=False)
