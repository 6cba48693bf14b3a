"""Served requests as spans: stage marks and the slow-request sink.

``repro serve`` opens one ``request`` span per HTTP request on the
daemon's tracer. A write applies on the handler thread while that span
is open, so the engine's run / phase / round spans and ``express``
events are its descendants: where a slow write went is a walk down one
span tree.

Stage marks say where the request's own time went. Each :func:`mark`
records the *end* of a named stage on the span clock::

    write:  parse → queued → [classify →] apply → publish → respond
    read:   parse → snapshot → respond

:func:`end_request` turns the marks into the span's ``stages`` attr
(stage → seconds, differences of consecutive marks, so they partition
the wall time) plus the explicit ``unaccounted`` residual after the last
mark. Marks read ``time.perf_counter``, the tracer's default clock.

Downstream sinks: the metrics registry folds request spans into the
``repro_serve_*`` families, :class:`SlowRequestSink` keeps the slow ones
for ``GET /debug/requests``, and ``repro trace requests`` reads them back
from a JSONL trace (:func:`repro.obs.correlate.analyze_requests`).
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import Sink

__all__ = [
    "SlowRequestSink",
    "debug_requests",
    "end_request",
    "mark",
    "stage_partition",
]


def mark(span, stage: str, t: Optional[float] = None, **attrs) -> None:
    """Record the end of ``stage`` (and ``attrs``) on an open request span.

    Any other span, or ``None`` (an untraced or in-process caller), is
    left alone. ``t`` splits an interval the caller already timed (the
    express lane's ``classify_s`` carved out of the apply window) without
    a clock read.
    """
    if span is not None and span.kind == "request":
        span.attrs.setdefault("marks", []).append(
            (stage, perf_counter() if t is None else t)
        )
        span.attrs.update(attrs)


def stage_partition(
    t_start: float, marks: Iterable[Tuple[str, float]], t_end: float
) -> Tuple[Dict[str, float], float]:
    """``(stage → seconds, unaccounted)`` for marks between two clock values.

    A repeated stage accumulates; a mark earlier than the furthest one
    seen counts zero instead of negative, so the stages plus the residual
    always add up to ``t_end - t_start``.
    """
    stages: Dict[str, float] = {}
    prev = t_start
    for stage, t in marks:
        stages[stage] = stages.get(stage, 0.0) + max(0.0, t - prev)
        prev = max(prev, t)
    return stages, max(0.0, t_end - prev)


def end_request(tracer, span, route: str, status: int) -> None:
    """Close a request span: name it after its route, attach the status
    and the stage partition, and emit it."""
    t_end = tracer.clock()
    stages, unaccounted = stage_partition(
        span.t_start, span.attrs.pop("marks", ()), t_end
    )
    span.name = route
    tracer.end(span, t_end, status=status, stages=stages, unaccounted=unaccounted)


class SlowRequestSink(Sink):
    """Counts finished request spans; keeps the slow ones in a ring.

    A request at or above ``slow_threshold_s`` enters a ring of
    ``ring_size`` span records, oldest evicted first. Handler threads end
    spans concurrently, so counts and ring sit behind one lock.
    """

    def __init__(self, ring_size: int = 64, slow_threshold_s: float = 0.050):
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.ring_size = ring_size
        self.slow_threshold_s = float(slow_threshold_s)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=ring_size)
        self.requests = self.slow = 0
        self.anchor: Dict[str, float] = {}

    def on_anchor(self, epoch_s: float, clock_origin: float) -> None:
        self.anchor = {"epoch_s": epoch_s, "perf_counter": clock_origin}

    def on_span_end(self, span) -> None:
        if span.kind != "request":
            return
        slow = span.dur_s >= self.slow_threshold_s
        record = span.to_record() if slow else None
        with self._lock:
            self.requests += 1
            if slow:
                self.slow += 1
                self._ring.append(record)

    def debug_payload(self, registry: Optional[MetricsRegistry] = None) -> dict:
        """The ``/debug/requests`` reply: counts, ring, stage histograms."""
        with self._lock:
            payload: Dict[str, object] = {
                "enabled": True,
                "requests_total": self.requests,
                "slow_total": self.slow,
                "slow_threshold_s": self.slow_threshold_s,
                "ring_size": self.ring_size,
                **self.anchor,
                "ring": list(self._ring),
            }
        if registry is not None and registry.enabled:
            wanted = (
                "repro_serve_stage_latency_seconds",
                "repro_serve_request_latency_seconds",
            )
            payload["histograms"] = [
                family
                for family in registry.snapshot()["families"]
                if family["name"] in wanted
            ]
        return payload


def debug_requests(tracer) -> dict:
    """``GET /debug/requests`` for a tracer: its slow-request sink's view,
    with the histograms of the registry on the same tracer."""
    ring = registry = None
    for sink in tracer.sinks:
        if isinstance(sink, SlowRequestSink):
            ring = sink
        elif isinstance(sink, MetricsRegistry):
            registry = sink
    if ring is None:
        return {"enabled": False, "requests_total": 0, "slow_total": 0, "ring": []}
    return ring.debug_payload(registry)
