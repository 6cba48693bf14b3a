"""Structured run tracing: hierarchical spans over the engine substrates.

A :class:`Tracer` emits a tree of spans — ``run`` → ``phase`` → ``round``
(→ ``engine`` when ``num_engines`` is set) — carrying the exact per-round work
vectors the engines already record (:class:`~repro.core.metrics.RoundWork`)
plus wall-clock timings and queue/NoC occupancy snapshots. Spans and point
events are delivered to pluggable sinks (:mod:`repro.obs.sinks`); the
JSONL sink's on-disk format is documented in :mod:`repro.obs.trace_file`.

**Overhead contract.** Tracing is off by default: every engine holds the
shared :data:`NULL_TRACER` singleton, and the hot event loops guard all
instrumentation behind a single ``tracer.enabled`` attribute check per
scheduler round. With tracing off no span objects, clock reads, or
occupancy samples happen — the benchmarked substrates stay within noise of
the untraced build (``benchmarks/bench_trace_overhead.py``).

The tracer keeps one span stack per thread, so nesting is implicit: a
round span started inside an open phase span of the same thread becomes
its child, and sessions writing concurrently from their own threads
build separate trees. A served write applies on the handler thread that
opened its ``request`` span, so the engine work nests under the request
that caused it. The engine loops use the explicit
:meth:`Tracer.start`/:meth:`Tracer.end` pair under their ``enabled``
guard; orchestration code (one call per phase) uses the context-manager
helpers :meth:`Tracer.span`, :meth:`Tracer.phase`, and
:meth:`Tracer.round`. Sinks receive every finished span and event; the
live metrics registry (:mod:`repro.obs.metrics`) is one of them.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: RoundWork fields copied onto every round span (and, summed, onto phase
#: spans). Order matters only for display; names match the dataclass.
WORK_FIELDS = (
    "events_processed",
    "events_generated",
    "queue_inserts",
    "coalesce_ops",
    "vertex_reads",
    "vertex_writes",
    "edges_read",
    "vertex_lines",
    "edge_lines",
    "dram_pages",
    "spill_bytes",
)

#: PhaseStats extras carried by phase spans beside the summed work vector.
PHASE_EXTRAS = ("vertices_reset", "deletes_discarded", "request_events")

#: Crossbar counters: per-round deltas on sharded round spans, phase totals
#: on phase spans.
NOC_FIELDS = ("noc_events_local", "noc_events_remote", "noc_flits", "noc_cycles")

#: Span kinds a conforming trace may contain (``request``: one served
#: HTTP request, see :mod:`repro.obs.requests`).
SPAN_KINDS = ("run", "phase", "round", "engine", "request")


def work_attrs(work) -> Dict[str, int]:
    """The full work vector of a :class:`~repro.core.metrics.RoundWork`."""
    return {name: getattr(work, name) for name in WORK_FIELDS}


def phase_attrs(stats) -> Dict[str, object]:
    """Aggregate attributes of a finished :class:`PhaseStats`.

    These are the exact per-phase totals of ``RunMetrics`` — the trace's
    phase spans are guaranteed to match the in-process metrics because
    they are computed from the same object.
    """
    attrs: Dict[str, object] = {"rounds": stats.num_rounds}
    attrs.update(work_attrs(stats.total))
    for name in PHASE_EXTRAS + NOC_FIELDS:
        attrs[name] = getattr(stats, name)
    return attrs


class Span:
    """One timed node of the trace tree."""

    __slots__ = ("kind", "name", "span_id", "parent_id", "t_start", "t_end", "attrs")

    def __init__(
        self,
        kind: str,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        t_start: float,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.kind = kind
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}

    @property
    def dur_s(self) -> float:
        """Wall-clock duration in seconds (0.0 while still open)."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0.0

    def to_record(self) -> Dict[str, object]:
        """The JSONL record of a *finished* span (see ``trace_file``)."""
        return {
            "type": "span",
            "kind": self.kind,
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.kind}:{self.name} #{self.span_id})"


class TraceEvent:
    """A point event (no duration) — e.g. a host DMA transfer."""

    __slots__ = ("name", "t", "parent_id", "attrs")

    def __init__(
        self,
        name: str,
        t: float,
        parent_id: Optional[int],
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.t = t
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}

    def to_record(self) -> Dict[str, object]:
        """The JSONL record of this event (see ``trace_file``)."""
        return {
            "type": "event",
            "name": self.name,
            "t": self.t,
            "parent": self.parent_id,
            "attrs": self.attrs,
        }


class _ThreadState(threading.local):
    """One thread's open-span stack."""

    def __init__(self):
        self.stack: List[Span] = []


class Tracer:
    """Span emitter with per-thread nesting stacks and pluggable sinks."""

    enabled = True

    def __init__(self, sinks: Iterable = (), clock=time.perf_counter):
        self.sinks = list(sinks)
        self.clock = clock
        self._local = _ThreadState()
        self._ids = itertools.count(1)
        #: Wall-clock anchor: ``epoch_s`` (time.time) and the span clock
        #: read at the same instant. Offline tools use the pair to place
        #: perf_counter span timestamps on the wall clock.
        self.epoch_s = time.time()
        self.clock_origin = self.clock()
        for sink in self.sinks:
            sink.on_anchor(self.epoch_s, self.clock_origin)

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, or ``None``."""
        stack = self._local.stack
        return stack[-1] if stack else None

    def start(self, kind: str, name: str = "", **attrs) -> Span:
        """Open a span nested under the current one."""
        stack = self._local.stack
        parent = stack[-1].span_id if stack else None
        span = Span(kind, name or kind, next(self._ids), parent, self.clock(), attrs)
        stack.append(span)
        for sink in self.sinks:
            sink.on_span_start(span)
        return span

    def end(self, span: Span, t_end: Optional[float] = None, **attrs) -> Span:
        """Close ``span`` (and any forgotten children), emit to sinks.

        ``t_end`` pins the end time to a clock value the caller already
        read (a request span's stage partition is computed against it).
        """
        stack = self._local.stack
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.t_end = self.clock()  # orphaned child: close it too
            for sink in self.sinks:
                sink.on_span_end(top)
        span.t_end = self.clock() if t_end is None else t_end
        span.attrs.update(attrs)
        for sink in self.sinks:
            sink.on_span_end(span)
        return span

    def emit(
        self,
        kind: str,
        name: str,
        t_start: float,
        t_end: float,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Emit an already-timed span without touching the stack.

        Used for the per-engine spans of a sharded round, which all span
        the round's one kernel call.
        """
        if parent is None:
            parent = self.current()
        parent_id = parent.span_id if parent is not None else None
        span = Span(kind, name, next(self._ids), parent_id, t_start, attrs)
        span.t_end = t_end
        for sink in self.sinks:
            sink.on_span_end(span)
        return span

    def event(self, name: str, **attrs) -> TraceEvent:
        """Emit a point event under the current span."""
        parent = self.current()
        event = TraceEvent(
            name, self.clock(), parent.span_id if parent is not None else None, attrs
        )
        for sink in self.sinks:
            sink.on_event(event)
        return event

    # ------------------------------------------------------------------
    # Context-manager helpers (orchestration-layer use)
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, kind: str, name: str = "", **attrs):
        """``with tracer.span(...) as s:`` — attrs added to ``s.attrs``
        inside the body are included in the emitted record."""
        span = self.start(kind, name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def phase(self, stats):
        """Span around one execution phase; aggregates attached at exit."""
        span = self.start("phase", stats.name)
        try:
            yield span
        finally:
            self.end(span, **phase_attrs(stats))

    @contextmanager
    def round(self, work, queue=None):
        """Span around one orchestration-level round (seeding etc.).

        The engine event loops do *not* use this helper — they emit round
        spans with the explicit start/end pair under their ``enabled``
        guard so the disabled path stays a single attribute check.
        """
        attrs = {}
        if queue is not None:
            attrs["occupancy_start"] = queue.occupancy()
        span = self.start("round", "round", **attrs)
        try:
            yield span
        finally:
            end_attrs = work_attrs(work)
            if queue is not None:
                end_attrs["occupancy_end"] = queue.occupancy()
            self.end(span, **end_attrs)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush every sink (a long-running host's pre-analysis sync)."""
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Close the calling thread's open spans (innermost first), then
        the sinks."""
        stack = self._local.stack
        while stack:
            self.end(stack[-1])
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        # Runs on exceptions too: open spans are ended and every sink is
        # closed, so a run that dies mid-phase still leaves a flushed
        # (partial but parseable) trace on disk.
        self.close()
        return False


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CTX = _NullContext()


class NullTracer:
    """Do-nothing tracer; the default on every engine.

    Hot loops check :attr:`enabled` once per round and skip all
    instrumentation; orchestration context managers return a shared no-op
    context, so the traced and untraced code paths are the same shape.
    """

    enabled = False
    sinks = ()

    def current(self):
        return None

    def start(self, *args, **kwargs):
        return None

    def end(self, *args, **kwargs):
        return None

    def emit(self, *args, **kwargs):
        return None

    def event(self, *args, **kwargs):
        return None

    def span(self, *args, **kwargs):
        return _NULL_CTX

    def phase(self, *args, **kwargs):
        return _NULL_CTX

    def round(self, *args, **kwargs):
        return _NULL_CTX

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Shared no-op tracer — the default wherever a tracer is accepted.
NULL_TRACER = NullTracer()
