"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

Where the run trace (:mod:`repro.obs.tracer`) records *what happened* as a
post-hoc span tree, this module keeps *live* aggregates that can be
scraped mid-run — the software analogue of the hardware counters the
paper's evaluation is built on (events, accesses, queue occupancy, NoC
flits; Figs. 9–14). The engine substrates, queues, streaming orchestrator,
and host transfer paths all publish into one shared
:data:`REGISTRY`, exported as Prometheus text exposition
(:meth:`MetricsRegistry.to_prometheus`, served live by
:class:`repro.obs.scrape.MetricsServer`) or a JSON snapshot
(:meth:`MetricsRegistry.snapshot`, rendered by ``repro metrics dump``).

**Overhead contract.** Metrics are off by default, mirroring the
``NULL_TRACER`` pattern: every instrumentation site guards behind a single
``REGISTRY.enabled`` attribute check per scheduler round (never per
event), so the disabled hot paths stay within noise of an uninstrumented
build (``benchmarks/bench_trace_overhead.py``, mode ``off`` vs
``metrics``).

Thread-safety: the serving daemon publishes from its handler and writer
threads, so all mutation goes through a registry-wide lock. Instrumentation happens once
per scheduler round / phase / transfer, so the lock is uncontended in
practice.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

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
    exemplars. The serve layer attaches request ids, so a latency bucket
    in a scrape points at a concrete request to look up in the access
    log. Exemplars appear in the JSON snapshot only; the 0.0.4 Prometheus
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


class MetricsRegistry:
    """Named metric families plus the engine-facing recording helpers.

    One registry is the process-wide default (:data:`REGISTRY`); tests may
    construct private instances. ``enabled`` is the single attribute the
    instrumented hot paths check — all the ``record_*`` helpers assume the
    caller already performed that check (they re-check defensively, but
    the contract is one guard per round at the call site).
    """

    def __init__(self, enabled: bool = False, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelPairs], object] = {}
        self._help: Dict[str, str] = {}
        self._kind: Dict[str, str] = {}

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
        return self

    # ------------------------------------------------------------------
    # Family accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help_text: str, labels: Dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                registered = self._kind.get(name)
                if registered is not None and registered != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {registered}"
                    )
                metric = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = metric
                self._kind[name] = cls.kind
                if help_text or name not in self._help:
                    self._help[name] = help_text
            return metric

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._get(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help_text: str = "",
        **labels,
    ) -> Histogram:
        return self._get(Histogram, name, help_text, labels, buckets=buckets)

    def get(self, name: str, **labels):
        """Existing metric, or ``None`` (tests/exporters; never creates)."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels) -> Optional[float]:
        """Convenience: the current value of a counter/gauge series."""
        metric = self.get(name, **labels)
        return None if metric is None else metric.value

    # ------------------------------------------------------------------
    # Engine-facing recording helpers
    # ------------------------------------------------------------------
    def record_round(self, work, dur_s: float, occupancy: Optional[int] = None) -> None:
        """Fold one scheduler round's :class:`RoundWork` into the registry.

        Called once per round by every engine substrate (and by the
        orchestration seed rounds), so the work counters sum to exactly
        the run's :class:`~repro.core.metrics.RunMetrics` totals.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock("repro_rounds_total").inc()
            for field, total_name in _WORK_COUNTERS:
                amount = getattr(work, field)
                if amount:
                    self._counter_nolock(total_name).inc(amount)
            self._histogram_nolock(
                "repro_round_latency_seconds", ROUND_LATENCY_BUCKETS
            ).observe(dur_s)
            self._histogram_nolock(
                "repro_round_batch_events", BATCH_EVENTS_BUCKETS
            ).observe(work.events_processed)
            if work.queue_inserts:
                self._histogram_nolock(
                    "repro_round_coalesce_ratio", RATIO_BUCKETS
                ).observe(work.coalesce_ops / work.queue_inserts)
            if work.spill_bytes:
                self._histogram_nolock(
                    "repro_round_spill_bytes", SPILL_BYTES_BUCKETS
                ).observe(work.spill_bytes)
            if occupancy is not None:
                self._gauge_nolock("repro_queue_occupancy").set(occupancy)

    def record_phase(self, stats) -> None:
        """Fold one finished :class:`PhaseStats`' extras (not its rounds)."""
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock("repro_phases_total", phase=stats.name).inc()
            for field, total_name in _PHASE_COUNTERS:
                amount = getattr(stats, field)
                if amount:
                    self._counter_nolock(total_name).inc(amount)

    def record_noc(self, events_local: int, events_remote: int, flits: int) -> None:
        """Fold one round's inter-engine NoC deliveries (``engine="sharded"``)."""
        if not self.enabled:
            return
        with self._lock:
            if events_local:
                self._counter_nolock("repro_noc_events_local_total").inc(events_local)
            if events_remote:
                self._counter_nolock("repro_noc_events_remote_total").inc(events_remote)
            if flits:
                self._counter_nolock("repro_noc_flits_total").inc(flits)
            delivered = events_local + events_remote
            if delivered:
                self._histogram_nolock(
                    "repro_noc_remote_fraction", RATIO_BUCKETS
                ).observe(events_remote / delivered)

    def record_queue_occupancy(self, occupancy: int, peak: int) -> None:
        """Sample queue occupancy (called by the queues after inserts/drains)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauge_nolock("repro_queue_occupancy").set(occupancy)
            self._gauge_nolock("repro_queue_peak_occupancy").set(peak)

    def record_run(
        self,
        kind: str,
        dur_s: float,
        stream_records: int = 0,
        num_vertices: Optional[int] = None,
        num_edges: Optional[int] = None,
    ) -> None:
        """Fold one engine run (initial evaluation or one stream batch)."""
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock("repro_runs_total", kind=kind).inc()
            if stream_records:
                self._counter_nolock("repro_stream_records_total").inc(stream_records)
            self._histogram_nolock(
                "repro_run_latency_seconds", RUN_LATENCY_BUCKETS, kind=kind
            ).observe(dur_s)
            if num_vertices is not None:
                self._gauge_nolock("repro_graph_vertices").set(num_vertices)
            if num_edges is not None:
                self._gauge_nolock("repro_graph_edges").set(num_edges)

    def record_engine_work(self, shard_works) -> None:
        """Fold one sharded round's per-engine work (utilization counters).

        ``shard_works`` is the sequence of per-shard :class:`RoundWork`
        records indexed by engine id. The per-engine series mirror the
        in-process ``RunMetrics.per_engine_totals`` breakdown, so
        ``repro_engine_events_processed_total{engine=...}`` sums to the
        unlabelled ``repro_events_processed_total`` family.
        """
        if not self.enabled:
            return
        with self._lock:
            for engine_id, work in enumerate(shard_works):
                if work.events_processed:
                    self._counter_nolock(
                        "repro_engine_events_processed_total",
                        engine=str(engine_id),
                    ).inc(work.events_processed)
                if work.events_generated:
                    self._counter_nolock(
                        "repro_engine_events_generated_total",
                        engine=str(engine_id),
                    ).inc(work.events_generated)

    def record_express_update(
        self,
        op: str,
        outcome: str,
        reason: str,
        dur_s: float,
        edges_scanned: int,
        state_reads: int,
    ) -> None:
        """Fold one express-lane update (:mod:`repro.core.fastpath`).

        ``outcome`` is ``"safe"`` (absorbed on the express path) or
        ``"unsafe"`` (fell through to the engine). The scan histogram
        observes the classification work — adjacency entries plus state
        reads — which is deterministic for a given update sequence, unlike
        the wall-clock latency histogram.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock(
                "repro_express_updates_total", op=op, outcome=outcome
            ).inc()
            self._counter_nolock("repro_express_reasons_total", reason=reason).inc()
            self._histogram_nolock(
                "repro_express_latency_seconds", EXPRESS_LATENCY_BUCKETS,
                outcome=outcome,
            ).observe(dur_s)
            self._histogram_nolock(
                "repro_express_scan_entries", EXPRESS_SCAN_BUCKETS
            ).observe(edges_scanned + state_reads)
            total = safe = 0.0
            for (name, labels), metric in self._metrics.items():
                if name == "repro_express_updates_total":
                    total += metric.value
                    if ("outcome", "safe") in labels:
                        safe += metric.value
            self._gauge_nolock("repro_express_safe_ratio").set(
                safe / total if total else 0.0
            )

    def record_serve_request(
        self,
        route: str,
        status: int,
        dur_s: float,
        request_id: Optional[str] = None,
    ) -> None:
        """Fold one handled ``repro serve`` HTTP request (:mod:`repro.serve`).

        ``route`` is the logical route name (``ingest``, ``update``,
        ``read``, ``session``, ...), not the raw path — label cardinality
        must stay bounded no matter how many sessions a host opens.
        ``request_id`` (when request tracing is on) becomes the latency
        bucket's exemplar, so a scrape points at a concrete slow request.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock(
                "repro_serve_requests_total", route=route, status=str(status)
            ).inc()
            self._histogram_nolock(
                "repro_serve_request_latency_seconds",
                SERVE_LATENCY_BUCKETS,
                route=route,
            ).observe(dur_s, exemplar=request_id)

    def record_serve_stage(
        self,
        route: str,
        stage: str,
        dur_s: float,
        request_id: Optional[str] = None,
    ) -> None:
        """Fold one request-stage latency (:mod:`repro.obs.reqtrace`).

        One observation per named stage of each traced request (``parse``,
        ``queued``, ``apply``, ... plus the explicit ``unaccounted``
        residual), labelled by route and stage.
        """
        if not self.enabled:
            return
        with self._lock:
            self._histogram_nolock(
                "repro_serve_stage_latency_seconds",
                SERVE_LATENCY_BUCKETS,
                route=route,
                stage=stage,
            ).observe(dur_s, exemplar=request_id)

    def record_serve_queue_depth(self, depth: int) -> None:
        """Sample the ingest queue occupancy (at enqueue *and* dequeue).

        Observed from both sides of the queue so the gauge reflects live
        backpressure between scrapes instead of only post-drain values.
        """
        if not self.enabled:
            return
        with self._lock:
            self._gauge_nolock("repro_serve_queue_depth").set(depth)

    def record_serve_ingest(
        self, kind: str, dur_s: float, queue_depth: int
    ) -> None:
        """Fold one applied write op: queue wait + apply, and queue depth.

        ``kind`` is ``"batch"`` (an ingest batch through ``Session.run``)
        or ``"update"`` (a single-edge express update). ``queue_depth`` is
        the ingest queue occupancy right after the op was dequeued — the
        backpressure signal a dashboard alerts on.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock(
                "repro_serve_writes_applied_total", kind=kind
            ).inc()
            self._histogram_nolock(
                "repro_serve_ingest_latency_seconds",
                SERVE_LATENCY_BUCKETS,
                kind=kind,
            ).observe(dur_s)
            self._gauge_nolock("repro_serve_queue_depth").set(queue_depth)

    def record_serve_rejection(self, kind: str) -> None:
        """Fold one backpressure rejection (bounded ingest queue full)."""
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock(
                "repro_serve_rejected_total", kind=kind
            ).inc()

    def record_serve_read(self, kind: str = "latest") -> None:
        """Fold one read served from a published immutable snapshot.

        ``kind`` is ``"latest"`` (the live snapshot) or ``"historical"``
        (a ``?version=`` time-travel read from the retained ring).
        """
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock("repro_serve_reads_total", kind=kind).inc()

    def record_serve_snapshot(self, reads_served: int) -> None:
        """Fold one snapshot rotation (a write published a fresh one).

        ``reads_served`` is how many reads the *retired* snapshot served
        over its lifetime; the histogram shows read/write amortization —
        high values mean many queries rode one converged state.
        """
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock("repro_serve_snapshots_total").inc()
            if reads_served:
                self._histogram_nolock(
                    "repro_serve_reads_per_snapshot", SERVE_READS_BUCKETS
                ).observe(reads_served)

    def record_serve_sessions(self, count: int) -> None:
        """Sample the number of open serve sessions."""
        if not self.enabled:
            return
        with self._lock:
            self._gauge_nolock("repro_serve_sessions").set(count)

    def record_transfer(self, direction: str, nbytes: int) -> None:
        """Fold one host<->accelerator DMA transfer (:mod:`repro.host`)."""
        if not self.enabled:
            return
        with self._lock:
            self._counter_nolock(
                "repro_transfer_bytes_total", direction=direction
            ).inc(nbytes)

    def round_scope(self, work, queue=None):
        """Context manager timing an orchestration-level round.

        The engine event loops do *not* use this helper (they call
        :meth:`record_round` directly under their per-round guard); the
        streaming orchestrator wraps its seed rounds with it so counters
        stay equal to the in-process ``RunMetrics`` totals.
        """
        return _RoundScope(self, work, queue)

    # -- lock-free internals (caller holds self._lock) ------------------
    def _counter_nolock(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Counter(name, labels=key[1])
            self._metrics[key] = metric
            self._kind[name] = Counter.kind
            self._help.setdefault(name, _HELP.get(name, ""))
        return metric

    def _gauge_nolock(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, labels=key[1])
            self._metrics[key] = metric
            self._kind[name] = Gauge.kind
            self._help.setdefault(name, _HELP.get(name, ""))
        return metric

    def _histogram_nolock(self, name: str, buckets, **labels) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, buckets, labels=key[1])
            self._metrics[key] = metric
            self._kind[name] = Histogram.kind
            self._help.setdefault(name, _HELP.get(name, ""))
        return metric

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every series (the dump format)."""
        with self._lock:
            families: List[Dict[str, object]] = []
            for name in sorted(self._kind):
                series = []
                for (metric_name, labels), metric in sorted(self._metrics.items()):
                    if metric_name != name:
                        continue
                    entry: Dict[str, object] = {"labels": dict(labels)}
                    if isinstance(metric, Histogram):
                        entry["buckets"] = list(metric.buckets)
                        entry["counts"] = list(metric.counts)
                        entry["sum"] = metric.sum
                        entry["count"] = metric.count
                        if metric.exemplars:
                            entry["exemplars"] = {
                                str(index): dict(exemplar)
                                for index, exemplar in sorted(
                                    metric.exemplars.items()
                                )
                            }
                    else:
                        entry["value"] = metric.value
                    series.append(entry)
                families.append(
                    {
                        "name": name,
                        "kind": self._kind[name],
                        "help": self._help.get(name, ""),
                        "series": series,
                    }
                )
            return {"format": "repro-metrics", "version": 1, "families": families}

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        return render_prometheus(self.snapshot())

    def dump_json(self, path: str) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2)
            handle.write("\n")


class _RoundScope:
    __slots__ = ("registry", "work", "queue", "t0")

    def __init__(self, registry: MetricsRegistry, work, queue):
        self.registry = registry
        self.work = work
        self.queue = queue

    def __enter__(self):
        if self.registry.enabled:
            self.t0 = self.registry.clock()
        return self

    def __exit__(self, *exc):
        registry = self.registry
        if registry.enabled:
            occupancy = self.queue.occupancy() if self.queue is not None else None
            registry.record_round(
                self.work, registry.clock() - self.t0, occupancy
            )
        return False


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


#: RoundWork field -> counter family folded per scheduler round.
_WORK_COUNTERS = (
    ("events_processed", "repro_events_processed_total"),
    ("events_generated", "repro_events_generated_total"),
    ("queue_inserts", "repro_queue_inserts_total"),
    ("coalesce_ops", "repro_coalesce_ops_total"),
    ("vertex_reads", "repro_vertex_reads_total"),
    ("vertex_writes", "repro_vertex_writes_total"),
    ("edges_read", "repro_edges_read_total"),
    ("vertex_lines", "repro_vertex_lines_total"),
    ("edge_lines", "repro_edge_lines_total"),
    ("dram_pages", "repro_dram_pages_total"),
    ("spill_bytes", "repro_spill_bytes_total"),
)

#: PhaseStats extras folded once per finished phase.
_PHASE_COUNTERS = (
    ("vertices_reset", "repro_vertices_reset_total"),
    ("deletes_discarded", "repro_deletes_discarded_total"),
    ("request_events", "repro_request_events_total"),
)

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
    "repro_serve_stage_latency_seconds": "Traced request stage latency, by route and stage.",
    "repro_serve_writes_applied_total": "Serve write ops applied, by kind (batch | update).",
    "repro_serve_ingest_latency_seconds": "Queue wait + apply latency of serve write ops, by kind.",
    "repro_serve_queue_depth": "Ingest queue occupancy, observed at enqueue and dequeue.",
    "repro_serve_rejected_total": "Write ops rejected by ingest backpressure, by kind.",
    "repro_serve_reads_total": "Reads served from published immutable snapshots, by kind (latest | historical).",
    "repro_serve_snapshots_total": "Converged snapshots published by serve write ops.",
    "repro_serve_reads_per_snapshot": "Reads served by each retired snapshot.",
    "repro_serve_sessions": "Serve sessions currently open.",
}

#: The process-wide registry every substrate publishes into. Disabled by
#: default: hot paths pay one attribute check (`REGISTRY.enabled`).
REGISTRY = MetricsRegistry(enabled=False)
