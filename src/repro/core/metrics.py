"""Work accounting shared by the functional engines and the timing model.

The functional engines record, per scheduler *round* (one drain sweep over
the queue bins, §4.3), the work vector the architectural model needs:
events processed and generated, vertex/edge reads, unique DRAM lines and
pages touched by the prefetchers, coalescer operations, and spill traffic.
Phases aggregate rounds; runs aggregate phases.

This is the measurement substrate behind Table 3 (via the timing model),
Fig. 9 (vertex/edge access counts), and Fig. 11 (line-utilization ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np


def segmented_distinct_count(values: np.ndarray, seg_start: np.ndarray) -> int:
    """Number of distinct values per segment, summed over all segments.

    ``values`` must be sorted (non-decreasing) within each segment;
    ``seg_start`` is a boolean mask marking the first element of each
    segment. This is the vectorized equivalent of building one Python
    ``set`` per processing-buffer batch and summing their sizes — the
    prefetcher line/page accounting of §4.4 — and matches it exactly
    because sorted duplicates are adjacent.
    """
    n = values.shape[0]
    if n == 0:
        return 0
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return int(np.count_nonzero(new | seg_start))


def segmented_interval_union(
    lo: np.ndarray, hi: np.ndarray, seg_start: np.ndarray
) -> int:
    """Total size of the per-segment unions of integer intervals ``[lo, hi]``.

    Both bounds must be non-decreasing within each segment (true for edge
    line/page intervals of vertices processed in ascending id order, since
    CSR offsets are monotone). Replaces the scalar oracle's per-batch
    ``set.update(range(lo, hi + 1))`` with closed-form overlap arithmetic:
    each interval contributes the part of ``[lo, hi]`` that lies beyond the
    previous interval's end.
    """
    n = lo.shape[0]
    if n == 0:
        return 0
    prev_hi = np.empty_like(hi)
    prev_hi[0] = lo[0] - 1
    prev_hi[1:] = hi[:-1]
    # First interval of each segment overlaps nothing.
    prev_hi[seg_start] = lo[seg_start] - 1
    contrib = hi - np.maximum(lo - 1, prev_hi)
    return int(np.maximum(contrib, 0).sum())


@dataclass
class RoundWork:
    """Work vector of one scheduler round."""

    events_processed: int = 0
    events_generated: int = 0
    queue_inserts: int = 0
    coalesce_ops: int = 0
    vertex_reads: int = 0
    vertex_writes: int = 0
    edges_read: int = 0
    #: Unique 64B vertex-state lines fetched by the scratchpad prefetchers
    #: (uniqueness per processing-buffer batch, §4.4).
    vertex_lines: int = 0
    #: Unique 64B edge-list lines fetched through the edge cache.
    edge_lines: int = 0
    #: Unique DRAM pages opened (row-buffer activations).
    dram_pages: int = 0
    #: Off-chip spill traffic (DAP overflow buffer, cross-slice events).
    spill_bytes: int = 0

    def merge(self, other: "RoundWork") -> None:
        """Accumulate another round's counts into this one."""
        self.events_processed += other.events_processed
        self.events_generated += other.events_generated
        self.queue_inserts += other.queue_inserts
        self.coalesce_ops += other.coalesce_ops
        self.vertex_reads += other.vertex_reads
        self.vertex_writes += other.vertex_writes
        self.edges_read += other.edges_read
        self.vertex_lines += other.vertex_lines
        self.edge_lines += other.edge_lines
        self.dram_pages += other.dram_pages
        self.spill_bytes += other.spill_bytes


#: Column order of :meth:`RunMetrics.to_csv` — the round-trace schema.
CSV_HEADER = (
    "phase",
    "round",
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


@dataclass
class PhaseStats:
    """Aggregated work of one execution phase (§4.6).

    Phases: initial static evaluation, delete propagation, re-approximation
    setup, and re-evaluation. ``rounds`` retains per-round vectors for the
    timing model.
    """

    name: str
    rounds: List[RoundWork] = field(default_factory=list)
    vertices_reset: int = 0
    deletes_discarded: int = 0
    request_events: int = 0
    touched_vertices: Set[int] = field(default_factory=set)
    #: Per-engine work vectors of each *kernel* round when this phase runs
    #: with ``num_engines`` set (one ``List[RoundWork]`` per drained round,
    #: indexed by engine id). Orchestration/seed rounds add no entry. The
    #: per-round vectors in :attr:`rounds` are the single-engine ones; this
    #: is their per-engine decomposition, which the Fig. 11-style
    #: utilization analysis derives engine load from.
    shard_rounds: List[List[RoundWork]] = field(default_factory=list)
    #: Inter-engine NoC traffic when ``num_engines`` is set (§4.4/§4.7):
    #: generated events delivered to the producer's own engine vs. routed
    #: across the crossbar, with flit and contended-cycle estimates from
    #: :class:`repro.sim.noc.CrossbarModel`. Zero on single-engine runs.
    noc_events_local: int = 0
    noc_events_remote: int = 0
    noc_flits: int = 0
    noc_cycles: float = 0.0

    def new_round(self) -> RoundWork:
        """Open a new round and return its work vector."""
        work = RoundWork()
        self.rounds.append(work)
        return work

    @property
    def total(self) -> RoundWork:
        """Sum of all round vectors."""
        total = RoundWork()
        for work in self.rounds:
            total.merge(work)
        return total

    @property
    def num_rounds(self) -> int:
        """Number of scheduler rounds executed in this phase."""
        return len(self.rounds)

    def per_engine_totals(self) -> List[RoundWork]:
        """Per-engine work summed over this phase's sharded rounds.

        Empty when the phase ran without ``num_engines``.
        """
        if not self.shard_rounds:
            return []
        totals = [RoundWork() for _ in self.shard_rounds[0]]
        for shard_works in self.shard_rounds:
            for engine_id, work in enumerate(shard_works):
                totals[engine_id].merge(work)
        return totals

    # Convenience accessors used throughout the experiments -------------
    @property
    def events_processed(self) -> int:
        return self.total.events_processed

    @property
    def vertex_accesses(self) -> int:
        """Vertex reads + writes (the Fig. 9 'vertex access' metric)."""
        total = self.total
        return total.vertex_reads + total.vertex_writes

    @property
    def edge_accesses(self) -> int:
        """Edges read during propagation (the Fig. 9 'edge access' metric)."""
        return self.total.edges_read

    def bytes_used(self) -> int:
        """Bytes actually consumed by the compute engines (Fig. 11 numerator)."""
        total = self.total
        return 8 * (total.vertex_reads + total.vertex_writes) + 8 * total.edges_read

    def bytes_transferred(self) -> int:
        """Bytes moved from DRAM into on-chip memories (Fig. 11 denominator)."""
        total = self.total
        return 64 * (total.vertex_lines + total.edge_lines) + total.spill_bytes


@dataclass
class RunMetrics:
    """All phases of one engine run (static or streaming)."""

    phases: List[PhaseStats] = field(default_factory=list)

    def phase(self, name: str) -> PhaseStats:
        """Open (and register) a new phase."""
        stats = PhaseStats(name=name)
        self.phases.append(stats)
        return stats

    def find(self, name: str) -> Optional[PhaseStats]:
        """First phase with the given name, or ``None``."""
        for stats in self.phases:
            if stats.name == name:
                return stats
        return None

    @property
    def total(self) -> RoundWork:
        """Work summed over every phase."""
        total = RoundWork()
        for stats in self.phases:
            total.merge(stats.total)
        return total

    @property
    def vertex_accesses(self) -> int:
        return sum(p.vertex_accesses for p in self.phases)

    @property
    def edge_accesses(self) -> int:
        return sum(p.edge_accesses for p in self.phases)

    @property
    def vertices_reset(self) -> int:
        return sum(p.vertices_reset for p in self.phases)

    @property
    def events_processed(self) -> int:
        return sum(p.events_processed for p in self.phases)

    def per_engine_totals(self) -> List[RoundWork]:
        """Per-engine work summed across every sharded phase of the run."""
        totals: List[RoundWork] = []
        for stats in self.phases:
            for engine_id, work in enumerate(stats.per_engine_totals()):
                while len(totals) <= engine_id:
                    totals.append(RoundWork())
                totals[engine_id].merge(work)
        return totals

    def engine_utilization(self) -> List[float]:
        """Fraction of total processed events handled by each engine.

        The Fig. 11-style load-balance view of a sharded run: 1/N per
        engine is perfect balance. Empty for single-engine runs.
        """
        totals = self.per_engine_totals()
        processed = sum(t.events_processed for t in totals)
        if not totals or processed == 0:
            return []
        return [t.events_processed / processed for t in totals]

    def noc_summary(self) -> Dict[str, float]:
        """Inter-engine NoC traffic summed over all phases (sharded runs).

        Event and flit counts are exact integers (cycles stay float: the
        crossbar model amortizes fractional cycles per flit).
        """
        return {
            "events_local": int(sum(p.noc_events_local for p in self.phases)),
            "events_remote": int(sum(p.noc_events_remote for p in self.phases)),
            "flits": int(sum(p.noc_flits for p in self.phases)),
            "cycles": sum(p.noc_cycles for p in self.phases),
        }

    def memory_utilization(self) -> float:
        """Ratio of bytes used to bytes transferred (Fig. 11).

        Clamped to 1.0: dense rounds can consume one fetched line several
        times (multiple events in a batch sharing a line), which is reuse,
        not extra transfer.
        """
        used = sum(p.bytes_used() for p in self.phases)
        moved = sum(p.bytes_transferred() for p in self.phases)
        return min(1.0, used / moved) if moved else 0.0

    def to_rows(self) -> List[Dict[str, float]]:
        """Per-round rows (phase, round index, work vector) for CSV export."""
        rows = []
        for stats in self.phases:
            for index, work in enumerate(stats.rounds):
                rows.append(
                    {
                        "phase": stats.name,
                        "round": index,
                        "events_processed": work.events_processed,
                        "events_generated": work.events_generated,
                        "queue_inserts": work.queue_inserts,
                        "coalesce_ops": work.coalesce_ops,
                        "vertex_reads": work.vertex_reads,
                        "vertex_writes": work.vertex_writes,
                        "edges_read": work.edges_read,
                        "vertex_lines": work.vertex_lines,
                        "edge_lines": work.edge_lines,
                        "dram_pages": work.dram_pages,
                        "spill_bytes": work.spill_bytes,
                    }
                )
        return rows

    def to_csv(self, path: str) -> int:
        """Write the per-round trace as CSV; returns the row count.

        The hardware-debug view: one line per scheduler round, the raw
        material behind every timing estimate. The header is always
        written, even for zero-round runs, so downstream readers see a
        well-formed (if empty) table.
        """
        rows = self.to_rows()
        header = list(rows[0]) if rows else list(CSV_HEADER)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(str(row[k]) for k in header) + "\n")
        return len(rows)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline counters (for reports/tests)."""
        total = self.total
        return {
            "phases": len(self.phases),
            "rounds": sum(p.num_rounds for p in self.phases),
            "events_processed": total.events_processed,
            "events_generated": total.events_generated,
            "coalesce_ops": total.coalesce_ops,
            "vertex_accesses": self.vertex_accesses,
            "edge_accesses": self.edge_accesses,
            "vertices_reset": self.vertices_reset,
            "spill_bytes": total.spill_bytes,
            "memory_utilization": self.memory_utilization(),
        }


@dataclass
class SoftwareWork:
    """Work counters for the software baseline models (§6.1 left column).

    The software cost model (:mod:`repro.sim.cost_models`) converts these to
    wall-clock estimates on the Table 1 software platform.
    """

    iterations: int = 0
    edges_traversed: int = 0
    vertex_reads_random: int = 0
    vertex_reads_sequential: int = 0
    vertex_writes: int = 0
    atomics: int = 0
    vertices_reset: int = 0
    #: Extra bookkeeping bytes (dependency trees, aggregation history).
    bookkeeping_bytes: int = 0

    def merge(self, other: "SoftwareWork") -> None:
        """Accumulate another counter set into this one."""
        self.iterations += other.iterations
        self.edges_traversed += other.edges_traversed
        self.vertex_reads_random += other.vertex_reads_random
        self.vertex_reads_sequential += other.vertex_reads_sequential
        self.vertex_writes += other.vertex_writes
        self.atomics += other.atomics
        self.vertices_reset += other.vertices_reset
        self.bookkeeping_bytes += other.bookkeeping_bytes
