"""Trace sinks: where spans and events go.

* :class:`MemorySink` — keeps finished spans/events in lists (tests, the
  in-process correlator).
* :class:`JsonlSink` — appends one JSON object per record to a file, with
  a header line identifying the format (:mod:`repro.obs.trace_file`).
* :class:`ProgressSink` — human-readable live progress on a text stream
  (stderr by default): run/phase boundaries always, per-round ticks only
  on a TTY (carriage-return updates, no scrollback spam).
"""

from __future__ import annotations

import json
import sys
import threading
from typing import IO, List, Optional, Union

from repro.obs.tracer import Span, TraceEvent

#: Format marker written as the first line of every JSONL trace.
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


class Sink:
    """Base sink: all callbacks optional."""

    def on_anchor(self, epoch_s: float, clock_origin: float) -> None:
        """Wall-clock anchor, delivered once at tracer construction."""
        pass

    def on_span_start(self, span: Span) -> None:
        pass

    def on_span_end(self, span: Span) -> None:
        pass

    def on_event(self, event: TraceEvent) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink(Sink):
    """Collects finished spans and events in memory (end order)."""

    def __init__(self):
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self.anchor: Optional[dict] = None

    def on_anchor(self, epoch_s: float, clock_origin: float) -> None:
        self.anchor = {"epoch_s": epoch_s, "perf_counter": clock_origin}

    def on_span_end(self, span: Span) -> None:
        self.spans.append(span)

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def find(self, kind: str) -> List[Span]:
        """Finished spans of one kind, in end order."""
        return [s for s in self.spans if s.kind == kind]


class JsonlSink(Sink):
    """Writes one JSON record per line; spans are written when they end.

    Children therefore precede their parents in the file — readers must
    reassemble the tree from the ``parent`` pointers, which
    :func:`repro.obs.trace_file.read_trace` does. A serving daemon ends
    spans on many threads, so each line is written under a lock, and a
    span that ends after :meth:`close` (a request still answering as the
    daemon stops) is dropped.
    """

    def __init__(self, path_or_handle: Union[str, IO[str]]):
        if hasattr(path_or_handle, "write"):
            self._handle = path_or_handle
            self._owns = False
        else:
            self._handle = open(path_or_handle, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()
        self._write(
            {"type": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION}
        )

    def _write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if not self._handle.closed:
                self._handle.write(line)

    def on_anchor(self, epoch_s: float, clock_origin: float) -> None:
        # Written right after the header line: the wall-clock anchor that
        # lets offline joins align span clocks with epoch timestamps.
        self._write(
            {"type": "anchor", "epoch_s": epoch_s, "perf_counter": clock_origin}
        )

    def on_span_end(self, span: Span) -> None:
        self._write(span.to_record())

    def on_event(self, event: TraceEvent) -> None:
        self._write(event.to_record())

    def flush(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle.closed:
                return
            self._handle.flush()
            if self._owns:
                self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class ProgressSink(Sink):
    """Live human-readable progress (the ``--progress`` CLI flag).

    On a TTY, rounds tick on one carriage-return-updated line. On a
    non-TTY stream (piped logs, CI) the same information is throttled to
    one plain line every ``fallback_every`` rounds, so long phases still
    show forward motion without flooding the log.
    """

    def __init__(self, stream: Optional[IO[str]] = None, fallback_every: int = 50):
        if fallback_every < 1:
            raise ValueError("fallback_every must be >= 1")
        self.stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.fallback_every = fallback_every
        self._round_count = 0
        self._dirty_line = False

    def _println(self, text: str) -> None:
        if self._dirty_line:
            self.stream.write("\n")
            self._dirty_line = False
        self.stream.write(text + "\n")
        self.stream.flush()

    def on_span_start(self, span: Span) -> None:
        if span.kind == "run":
            self._println(f"[trace] run {span.name} started")
        elif span.kind == "phase":
            self._round_count = 0
            self._println(f"[trace]  phase {span.name}")

    def on_span_end(self, span: Span) -> None:
        if span.kind == "round":
            self._round_count += 1
            if self._tty:
                self.stream.write(
                    f"\r[trace]   round {self._round_count}: "
                    f"{span.attrs.get('events_processed', 0):,} events "
                    f"({span.dur_s * 1e3:.2f} ms)   "
                )
                self.stream.flush()
                self._dirty_line = True
            elif self._round_count % self.fallback_every == 0:
                self._println(
                    f"[trace]   round {self._round_count}: "
                    f"{span.attrs.get('events_processed', 0):,} events "
                    f"({span.dur_s * 1e3:.2f} ms)"
                )
        elif span.kind == "phase":
            self._println(
                f"[trace]  phase {span.name} done: "
                f"{span.attrs.get('rounds', 0)} rounds, "
                f"{span.attrs.get('events_processed', 0):,} events, "
                f"{span.dur_s * 1e3:.1f} ms"
            )
        elif span.kind == "run":
            self._println(f"[trace] run {span.name} done in {span.dur_s:.3f} s")

    def on_event(self, event: TraceEvent) -> None:
        if event.name == "transfer":
            self._println(
                f"[trace] transfer {event.attrs.get('direction', '?')}: "
                f"{event.attrs.get('bytes', 0):,} B"
            )

    def close(self) -> None:
        if self._dirty_line:
            self.stream.write("\n")
            self._dirty_line = False
        self.stream.flush()
