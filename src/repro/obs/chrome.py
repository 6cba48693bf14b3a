"""Chrome/Perfetto trace-event export of JSONL span traces.

Converts a parsed :class:`~repro.obs.trace_file.TraceData` into the
Trace Event Format consumed by ``chrome://tracing`` and
https://ui.perfetto.dev (JSON object form, ``traceEvents`` array):

* one *thread* track per engine — tid 0 carries the orchestration spans
  (run → phase → round), tid ``engine_id + 1`` carries that engine's
  per-round work spans when ``num_engines`` is set;
* complete (``"ph": "X"``) events with microsecond ``ts``/``dur``
  normalized to the trace's earliest span start;
* counter (``"ph": "C"``) tracks for queue occupancy (sampled at round
  boundaries) and per-round NoC flits;
* instant (``"ph": "i"``) events for point records such as host DMA
  transfers.

Exposed on the CLI as ``repro trace export --format chrome``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.trace_file import PathLike, TraceData

__all__ = ["chrome_trace", "write_chrome_trace"]

_PID = 1
_ORCH_TID = 0


def _engine_tid(span: Dict[str, object]) -> Optional[int]:
    """Thread id for an engine span (``engine_id + 1``), else ``None``."""
    engine = span.get("attrs", {}).get("engine")
    if isinstance(engine, int):
        return engine + 1
    name = span.get("name", "")
    if isinstance(name, str) and name.startswith("engine-"):
        try:
            return int(name.split("-", 1)[1]) + 1
        except ValueError:
            return None
    return None


def chrome_trace(trace: TraceData) -> Dict[str, object]:
    """Build the Chrome trace-event JSON object for ``trace``."""
    spans = trace.spans
    times = [s["t_start"] for s in spans] + [e["t"] for e in trace.events]
    origin = min(times) if times else 0.0

    def us(t: float) -> float:
        return max(0.0, (t - origin) * 1e6)

    events: List[Dict[str, object]] = []
    tids = {_ORCH_TID}
    round_index = 0
    for span in spans:
        kind = span["kind"]
        if kind == "engine":
            tid = _engine_tid(span)
            if tid is None:
                tid = _ORCH_TID
        else:
            tid = _ORCH_TID
        tids.add(tid)
        name = span["name"]
        if kind == "round":
            round_index += 1
            name = f"round {round_index}" if name == "round" else name
        events.append(
            {
                "name": name,
                "cat": kind,
                "ph": "X",
                "ts": us(span["t_start"]),
                "dur": max(0.0, span["dur_s"] * 1e6),
                "pid": _PID,
                "tid": tid,
                "args": span.get("attrs", {}),
            }
        )
        if kind == "round":
            attrs = span.get("attrs", {})
            for key, at in (
                ("occupancy_start", span["t_start"]),
                ("occupancy_end", span["t_end"]),
            ):
                value = attrs.get(key)
                if isinstance(value, (int, float)):
                    events.append(
                        {
                            "name": "queue occupancy",
                            "ph": "C",
                            "ts": us(at),
                            "pid": _PID,
                            "tid": _ORCH_TID,
                            "args": {"events": value},
                        }
                    )
            flits = attrs.get("noc_flits")
            if isinstance(flits, (int, float)):
                events.append(
                    {
                        "name": "noc flits",
                        "ph": "C",
                        "ts": us(span["t_end"]),
                        "pid": _PID,
                        "tid": _ORCH_TID,
                        "args": {"flits": flits},
                    }
                )
    for record in trace.events:
        events.append(
            {
                "name": record["name"],
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": us(record["t"]),
                "pid": _PID,
                "tid": _ORCH_TID,
                "args": record.get("attrs", {}),
            }
        )

    events.sort(key=lambda e: (e["ts"], e.get("dur", 0.0) * -1))

    meta: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "args": {"name": "repro"},
        }
    ]
    for tid in sorted(tids):
        label = "orchestrator" if tid == _ORCH_TID else f"engine {tid - 1}"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: TraceData, path: PathLike) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    payload = chrome_trace(trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return len(payload["traceEvents"])
