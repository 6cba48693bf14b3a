"""Outside-in span tracing for the benchmark's traced run.

Nothing in ``src/repro`` is edited: :meth:`Tracer.wrap` replaces a bound
method on one *instance* with a timing wrapper, so spans are recorded at
each layer's public boundary from the benchmark's own files. Each span
keeps name, start, end, parent and the op that caused it; a layer's self
time is its spans' duration minus the time their children cover.

A span opened on a thread with no open span of its own (the serve writer
thread applying an op the driver thread submitted) takes the driver
thread's innermost open span as its parent. That is sound because the
driver blocks on that span until the writer is done, and it is what lets
``serve.submit``'s self time exclude the ``Session`` call it caused.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s", "thread")

    def __init__(self, name: str, parent: Optional["Span"], op: int, thread: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.child_s = 0.0
        self.end = 0.0
        self.start = perf_counter()  # last, so construction is not timed

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; :meth:`dump` writes JSONL at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the op the driver is executing; stamped on every span.
        self.op = -1
        self._driver = threading.get_ident()
        self._stacks: Dict[int, List[Span]] = defaultdict(list)

    def open(self, name: str) -> Span:
        thread = threading.get_ident()
        stack = self._stacks[thread]
        if stack:
            parent = stack[-1]
        else:
            driver_stack = self._stacks[self._driver]
            parent = driver_stack[-1] if driver_stack else None
        span = Span(name, parent, self.op, thread)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stacks[span.thread].pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a parentless span that was timed elsewhere (the reader thread)."""
        span = Span(name, None, -1, 0)
        span.start, span.end = start, end
        self.spans.append(span)

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        sink: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``sink`` receives each return value (run results carry the event
        and round counts the per-layer metrics report).
        """
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(span)
            if sink is not None:
                sink(result)
            return result

        setattr(obj, attr, timed)

    # -- aggregation ---------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return totals

    def calls(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return counts

    def dump(self, path) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)),
                    "op": span.op,
                    "thread": span.thread,
                }
                out.write(json.dumps(record) + "\n")


def instrument_session(tracer: Tracer, session, run_results: list, express_results: list) -> None:
    """Wrap the layer boundaries under one converged ``repro.host.Session``.

    Every engine run — a staged batch or an express fall-through — goes
    through ``JetStreamEngine.apply_batch``, so ``run_results`` collects
    the ``StreamingResult`` of each; ``express_results`` collects every
    ``ExpressResult``.
    """
    from repro.core.fastpath import ExpressLane

    graph, engine = session.graph, session._engine
    tracer.wrap(graph, "apply_batch", "graph.dynamic.apply_batch")
    tracer.wrap(graph, "snapshot", "graph.dynamic.snapshot")
    tracer.wrap(engine, "apply_batch", "core.streaming.apply_batch", run_results.append)
    for method in ("run_regular", "run_delete", "bind_graph"):
        tracer.wrap(engine.core, method, f"core.engine.{method}")
    # Session creates its lane on the first apply_update; create it here
    # the same way so the instance exists to be wrapped.
    session._express = ExpressLane(engine)
    tracer.wrap(session._express, "apply", "core.fastpath.apply", express_results.append)
    for method in ("push_updates", "run", "apply_update", "read_results"):
        tracer.wrap(session, method, f"host.{method}")


def instrument_app(tracer: Tracer, app, served) -> None:
    """Wrap the serve layer: the session's submit and the app's handlers."""
    tracer.wrap(served, "submit", "serve.submit")
    for method in ("handle_read", "handle_update", "handle_ingest"):
        tracer.wrap(app, method, f"serve.{method}")
