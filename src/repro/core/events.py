"""Event records (§4.2).

GraphPulse events are ``<target vertex id, payload>`` tuples. JetStream
widens them with flag bits — a *delete* flag driving the recovery phase
(Algorithm 4) and a *request* flag asking a vertex to re-propagate its state
even if unchanged (§3.4) — and, under the DAP optimization (§5.2), a
*source id* field recording which vertex generated the event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np


class EventFlags(enum.IntFlag):
    """Flag bits carried in the event payload word."""

    NONE = 0
    #: Recovery-phase tag event: reset the receiver (Algorithm 4, line 11).
    DELETE = 1
    #: Re-approximation request: receiver must propagate its state to all
    #: out-neighbors even when its own state does not change (§3.4).
    REQUEST = 2


#: Source id used for initial/self events, which no vertex generated.
NO_SOURCE = -1


@dataclass
class Event:
    """A lightweight message triggering vertex computation at ``target``."""

    __slots__ = ("target", "payload", "flags", "source")

    target: int
    payload: float
    flags: EventFlags
    source: int

    def __init__(
        self,
        target: int,
        payload: float,
        flags: int = 0,
        source: int = NO_SOURCE,
    ):
        self.target = target
        self.payload = payload
        # Stored as a plain int: IntFlag arithmetic allocates enum objects
        # and dominates the hot loop (measured ~40% of runtime). IntFlag
        # values are ints, so callers may still pass EventFlags members.
        self.flags = flags
        self.source = source

    @property
    def is_delete(self) -> bool:
        """True for recovery-phase delete/tag events."""
        return bool(self.flags & 1)

    @property
    def is_request(self) -> bool:
        """True when the request flag is set."""
        return bool(self.flags & 2)

    def size_bytes(self, config, dap: bool) -> int:
        """On-chip footprint of this event under the given configuration.

        JetStream events carry flags (wider than GraphPulse); the DAP
        variant additionally carries the source id (§5.2 overheads).
        """
        if dap:
            return config.event_bytes_dap
        return config.event_bytes_jetstream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tags = []
        if self.is_delete:
            tags.append("DEL")
        if self.is_request:
            tags.append("REQ")
        suffix = f" [{','.join(tags)}]" if tags else ""
        src = f" src={self.source}" if self.source != NO_SOURCE else ""
        return f"Event(->{self.target}, {self.payload:g}{suffix}{src})"


@dataclass
class EventBatch:
    """A batch of events in structure-of-arrays form.

    The vectorized substrate never materialises :class:`Event` objects on
    the hot path: a batch is four parallel NumPy arrays (target, payload,
    flags, source), which is both the on-chip layout a hardware queue would
    use and the shape NumPy's scatter/gather kernels want. Positions are
    significant — index ``i`` of every array describes the same event, and
    array order is insertion/drain order.

    A field that is the same for every event (a scalar given to
    :meth:`from_arrays`) is a read-only stride-0 view, not an array: a
    generated regular batch carries only targets and payloads, plus
    sources under DAP (§5.2) or per-engine accounting. :attr:`plain` tells
    the queue that no event carries a flag bit without a pass over them.
    """

    targets: np.ndarray  # int64 destination vertex ids
    payloads: np.ndarray  # float64 payload values
    flags: np.ndarray  # int64 flag bits (EventFlags values)
    sources: np.ndarray  # int64 generating vertex ids (NO_SOURCE = none)

    def __len__(self) -> int:
        return int(self.targets.shape[0])

    @property
    def plain(self) -> bool:
        """True when no event carries a flag bit, known without reading the
        flags: they are one stride-0 zero (see :meth:`from_arrays`)."""
        f = self.flags
        return f.strides == (0,) and not (f.shape[0] and f[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "EventBatch":
        """A zero-length batch."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_arrays(
        cls,
        targets,
        payloads,
        flags=None,
        sources=None,
    ) -> "EventBatch":
        """Build a batch from array-likes; ``flags``/``sources`` default to
        0/``NO_SOURCE``, and a scalar one becomes a stride-0 view."""
        t = np.ascontiguousarray(targets, dtype=np.int64)
        p = np.ascontiguousarray(payloads, dtype=np.float64)
        f = int64_column(0 if flags is None else flags, t.shape[0])
        s = int64_column(NO_SOURCE if sources is None else sources, t.shape[0])
        if not (t.shape == p.shape == f.shape == s.shape):
            raise ValueError("EventBatch arrays must have matching lengths")
        return cls(t, p, f, s)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventBatch":
        """Convert boxed events (preserving order) to SoA form."""
        events = list(events)
        n = len(events)
        t = np.fromiter((e.target for e in events), dtype=np.int64, count=n)
        p = np.fromiter((e.payload for e in events), dtype=np.float64, count=n)
        f = np.fromiter((int(e.flags) for e in events), dtype=np.int64, count=n)
        s = np.fromiter((e.source for e in events), dtype=np.int64, count=n)
        return cls(t, p, f, s)

    @staticmethod
    def concat(batches: Sequence["EventBatch"]) -> "EventBatch":
        """Concatenate batches, preserving order."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return EventBatch.empty()
        if len(batches) == 1:
            return batches[0]
        return EventBatch(
            np.concatenate([b.targets for b in batches]),
            np.concatenate([b.payloads for b in batches]),
            np.concatenate([b.flags for b in batches]),
            np.concatenate([b.sources for b in batches]),
        )

    # ------------------------------------------------------------------
    # Views / conversion
    # ------------------------------------------------------------------
    def take(self, index) -> "EventBatch":
        """Subset/reorder by fancy index or boolean mask."""
        return EventBatch(
            self.targets[index],
            self.payloads[index],
            self.flags[index],
            self.sources[index],
        )

    def to_events(self) -> List[Event]:
        """Materialise boxed :class:`Event` objects (tests/debugging only)."""
        return [
            Event(int(t), float(p), int(f), int(s))
            for t, p, f, s in zip(self.targets, self.payloads, self.flags, self.sources)
        ]


def int64_column(values, k: int) -> np.ndarray:
    """An ``int64`` event field of length ``k``: a scalar is one read-only
    8-byte value seen through stride 0 (what ``np.broadcast_to`` makes, at
    a third of its cost, which shows on small rounds)."""
    if np.isscalar(values):
        return np.ndarray((k,), np.int64, np.int64(values).tobytes(), 0, (0,))
    return np.ascontiguousarray(values, dtype=np.int64)
