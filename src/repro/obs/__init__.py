"""Run-trace observability: tracing, live metrics, sinks, correlation.

Public surface:

* :class:`Tracer` / :data:`NULL_TRACER` — span emission (request → run →
  phase → round → engine) with the one-attribute-check-when-off contract;
* :data:`REGISTRY` / :class:`MetricsRegistry` — live process-wide
  counters/gauges/histograms with Prometheus + JSON exporters, folded as
  a trace sink (``Tracer([REGISTRY])``) from the spans and events;
* :class:`MetricsServer` — stdlib HTTP ``/metrics`` scrape endpoint;
* :class:`MemorySink` / :class:`JsonlSink` / :class:`ProgressSink` —
  pluggable trace destinations;
* :func:`read_trace` / :func:`validate_trace` — the JSONL format;
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome/Perfetto
  trace-event export;
* :func:`correlate` / :func:`summarize` — join trace wall-clock against
  :class:`~repro.sim.timing.AcceleratorTimingModel` cycles;
* :func:`mark` / :func:`end_request` / :class:`SlowRequestSink` — served
  requests as ``request`` spans with stage marks, and the slow-request
  ring behind ``GET /debug/requests``;
* :func:`analyze_requests` / :func:`render_request_table` — the
  ``repro trace requests`` tail-latency attribution analyzer.

(The benchmark regression gate lives in :mod:`repro.obs.bench_gate`; it
is not re-exported here because it imports the ``benchmarks/`` scripts.)
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.correlate import (
    PhaseCorrelation,
    analyze_requests,
    correlate,
    correlate_run,
    rebuild_run_metrics,
    render_correlation,
    render_request_table,
    summarize,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_prometheus,
)
from repro.obs.requests import SlowRequestSink, debug_requests, end_request, mark
from repro.obs.scrape import MetricsServer, metrics_payload, send_payload
from repro.obs.sinks import (
    TRACE_FORMAT,
    TRACE_VERSION,
    JsonlSink,
    MemorySink,
    ProgressSink,
    Sink,
)
from repro.obs.trace_file import (
    TraceData,
    TraceFormatError,
    read_trace,
    validate_trace,
)
from repro.obs.tracer import (
    NULL_TRACER,
    SPAN_KINDS,
    WORK_FIELDS,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    phase_attrs,
    work_attrs,
)

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "metrics_payload",
    "send_payload",
    "log_buckets",
    "render_prometheus",
    "chrome_trace",
    "write_chrome_trace",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceEvent",
    "SPAN_KINDS",
    "WORK_FIELDS",
    "work_attrs",
    "phase_attrs",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "ProgressSink",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceData",
    "TraceFormatError",
    "read_trace",
    "validate_trace",
    "PhaseCorrelation",
    "correlate",
    "correlate_run",
    "rebuild_run_metrics",
    "render_correlation",
    "summarize",
    "SlowRequestSink",
    "debug_requests",
    "end_request",
    "mark",
    "analyze_requests",
    "render_request_table",
]
