"""JSONL trace format: reading and schema validation.

One JSON object per line. The first line is a header::

    {"type": "header", "format": "repro-trace", "version": 1}

Every subsequent line is a ``span`` or ``event`` record (see
``docs/architecture.md`` § Observability for the full field table):

``span``
    ``kind`` ∈ {run, phase, round, engine, request}, ``name``, integer
    ``id``, ``parent`` (integer id or null), ``t_start``/``t_end``/``dur_s``
    wall-clock seconds (monotonic origin), ``attrs`` object. Round spans
    carry the complete :class:`~repro.core.metrics.RoundWork` vector;
    phase spans carry the phase aggregates (``rounds`` plus the summed
    work vector and the phase extras); request spans (one served HTTP
    request, named after its route) carry ``status``, ``stages`` and
    ``unaccounted`` (:mod:`repro.obs.requests`).

``event``
    ``name``, ``t``, ``parent``, ``attrs``.

``anchor``
    ``epoch_s`` (``time.time`` at tracer construction) and
    ``perf_counter`` (the span clock read at the same instant) — the
    wall-clock anchor that places span timestamps on the wall clock.
    Written immediately after the header by the JSONL sink.

Spans are written when they *end*, so children precede parents on disk;
:func:`read_trace` reassembles the tree from the ``parent`` pointers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.sinks import TRACE_FORMAT, TRACE_VERSION
from repro.obs.tracer import SPAN_KINDS, WORK_FIELDS

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """Raised by :func:`read_trace` on a malformed trace file."""


@dataclass
class TraceData:
    """Parsed trace: raw records plus parent→children index."""

    header: Dict[str, object]
    spans: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Wall-clock anchor record ({"epoch_s", "perf_counter"}), or None
    #: for traces written before the anchor existed.
    anchor: Optional[Dict[str, object]] = None

    def by_id(self) -> Dict[int, Dict[str, object]]:
        return {s["id"]: s for s in self.spans}

    def children_of(self, span_id: Optional[int], kind: Optional[str] = None):
        """Children of ``span_id`` (or roots for ``None``), start-ordered."""
        out = [
            s
            for s in self.spans
            if s["parent"] == span_id and (kind is None or s["kind"] == kind)
        ]
        return sorted(out, key=lambda s: s["t_start"])

    def runs(self) -> List[Dict[str, object]]:
        """Top-level run spans in start order."""
        return sorted(
            (s for s in self.spans if s["kind"] == "run"),
            key=lambda s: s["t_start"],
        )

    @classmethod
    def from_spans(cls, spans, events=()) -> "TraceData":
        """Build a trace from finished in-memory spans (a MemorySink)."""
        data = cls({"type": "header", "format": TRACE_FORMAT, "version": TRACE_VERSION})
        data.spans = [s.to_record() for s in spans]
        data.events = [e.to_record() for e in events]
        return data


def read_trace(path: PathLike) -> TraceData:
    """Parse a JSONL trace, raising :class:`TraceFormatError` on damage."""
    errors = validate_trace(path, max_errors=1)
    if errors:
        raise TraceFormatError(errors[0])
    header: Dict[str, object] = {}
    data = TraceData(header)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record["type"] == "header":
                data.header.update(record)
            elif record["type"] == "anchor":
                data.anchor = record
            elif record["type"] == "span":
                data.spans.append(record)
            else:
                data.events.append(record)
    return data


# ----------------------------------------------------------------------
# Validation (the CI smoke gate: `repro trace validate`)
# ----------------------------------------------------------------------
def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_span(record: dict, where: str) -> List[str]:
    errors = []
    if record.get("kind") not in SPAN_KINDS:
        errors.append(f"{where}: span kind {record.get('kind')!r} not in {SPAN_KINDS}")
    if not isinstance(record.get("name"), str):
        errors.append(f"{where}: span name must be a string")
    if not isinstance(record.get("id"), int):
        errors.append(f"{where}: span id must be an integer")
    parent = record.get("parent")
    if parent is not None and not isinstance(parent, int):
        errors.append(f"{where}: span parent must be an integer id or null")
    for key in ("t_start", "t_end", "dur_s"):
        if not _is_num(record.get(key)):
            errors.append(f"{where}: span {key} must be a number")
    if (
        _is_num(record.get("t_start"))
        and _is_num(record.get("t_end"))
        and record["t_end"] < record["t_start"]
    ):
        errors.append(f"{where}: span ends before it starts")
    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        errors.append(f"{where}: span attrs must be an object")
        return errors
    if record.get("kind") == "round":
        for name in WORK_FIELDS:
            if not isinstance(attrs.get(name), int):
                errors.append(f"{where}: round span missing integer attr {name!r}")
    if record.get("kind") == "phase":
        if not isinstance(attrs.get("rounds"), int):
            errors.append(f"{where}: phase span missing integer attr 'rounds'")
        for name in WORK_FIELDS:
            if not isinstance(attrs.get(name), int):
                errors.append(f"{where}: phase span missing integer attr {name!r}")
    if record.get("kind") == "request":
        if not isinstance(attrs.get("status"), int):
            errors.append(f"{where}: request span missing integer attr 'status'")
        if not isinstance(attrs.get("stages"), dict):
            errors.append(f"{where}: request span missing object attr 'stages'")
        if not _is_num(attrs.get("unaccounted")):
            errors.append(f"{where}: request span missing number attr 'unaccounted'")
    return errors


def _validate_event(record: dict, where: str) -> List[str]:
    errors = []
    if not isinstance(record.get("name"), str):
        errors.append(f"{where}: event name must be a string")
    if not _is_num(record.get("t")):
        errors.append(f"{where}: event t must be a number")
    if not isinstance(record.get("attrs"), dict):
        errors.append(f"{where}: event attrs must be an object")
    return errors


def validate_trace(path: PathLike, max_errors: int = 50) -> List[str]:
    """Check a JSONL trace against the documented schema.

    Returns a list of human-readable problems (empty = valid). Validation
    is structural — field presence and types — plus the cross-record check
    that every ``parent`` pointer resolves to a span that appears in the
    file.
    """
    errors: List[str] = []
    span_ids = set()
    parent_refs: List[tuple] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if len(errors) >= max_errors:
                return errors
            line = line.strip()
            if not line:
                continue
            where = f"line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: not valid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                errors.append(f"{where}: record must be a JSON object")
                continue
            kind = record.get("type")
            if lineno == 1:
                if kind != "header":
                    errors.append("line 1: first record must be the trace header")
                elif (
                    record.get("format") != TRACE_FORMAT
                    or record.get("version") != TRACE_VERSION
                ):
                    errors.append(
                        f"line 1: expected format={TRACE_FORMAT!r} "
                        f"version={TRACE_VERSION}, got format="
                        f"{record.get('format')!r} version={record.get('version')!r}"
                    )
                saw_header = kind == "header"
                continue
            if kind == "span":
                errors.extend(_validate_span(record, where))
                if isinstance(record.get("id"), int):
                    span_ids.add(record["id"])
                if isinstance(record.get("parent"), int):
                    parent_refs.append((lineno, record["parent"]))
            elif kind == "event":
                errors.extend(_validate_event(record, where))
                if isinstance(record.get("parent"), int):
                    parent_refs.append((lineno, record["parent"]))
            elif kind == "anchor":
                for key in ("epoch_s", "perf_counter"):
                    if not _is_num(record.get(key)):
                        errors.append(f"{where}: anchor {key} must be a number")
            elif kind == "header":
                errors.append(f"{where}: duplicate header record")
            else:
                errors.append(f"{where}: unknown record type {kind!r}")
    if not saw_header:
        errors.insert(0, "trace has no header line")
    for lineno, parent in parent_refs:
        if len(errors) >= max_errors:
            break
        if parent not in span_ids:
            errors.append(f"line {lineno}: parent span {parent} not found in trace")
    return errors
