"""Experimental configurations (Table 1 of the paper).

The accelerator side models JetStream/GraphPulse: 8 processing engines at
1 GHz, a 64 MB eDRAM coalescing queue, 4 DDR3 channels at 17 GB/s. The
software side models the baseline platform: 36 Intel i9 cores at 3 GHz,
24 MB L2, 4 DDR4 channels at 19 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class AcceleratorConfig:
    """JetStream / GraphPulse hardware configuration (Table 1, right)."""

    # Compute
    num_processors: int = 8
    clock_ghz: float = 1.0
    generation_streams_per_processor: int = 4  # 32 total (§4.4)
    processor_issue_per_cycle: int = 1  # one event/cycle/pipeline
    pipeline_latency_cycles: int = 6

    # Coalescing queue (§4.2)
    queue_bytes: int = 64 * 1024 * 1024  # 64 MB eDRAM
    queue_bins: int = 16
    queue_row_vertices: int = 8  # vertices mapped per row (DRAM-page group)
    coalescer_latency_cycles: int = 3
    queue_insert_ports: int = 16  # one side of the 16x16 crossbar

    # Event sizes (§4.2, §5.2): GraphPulse events are <target, payload>;
    # JetStream adds flag bits; DAP adds a source-id field.
    event_bytes_graphpulse: int = 8
    event_bytes_jetstream: int = 10
    event_bytes_dap: int = 14

    # On-chip memories (§6.3)
    scratchpad_bytes: int = 2 * 1024
    edge_cache_bytes: int = 1 * 1024

    # NoC (§4.4): 16x16 crossbar between generation streams and queue bins.
    noc_ports: int = 16
    noc_flit_bytes: int = 16

    # Off-chip memory: 4x DDR3 @ 17 GB/s (Table 1)
    dram_channels: int = 4
    dram_channel_gbps: float = 17.0
    dram_page_bytes: int = 2048  # DRAM row-buffer page
    dram_line_bytes: int = 64  # cache-line transfer granularity
    dram_page_hit_cycles: int = 14
    dram_page_miss_cycles: int = 38

    # Scheduler (§4.3)
    round_barrier_cycles: int = 24
    phase_setup_cycles: int = 400

    # Host/stream reader (§4.5)
    stream_record_bytes: int = 16  # <source, destination, weight>

    def queue_capacity_vertices(self, event_bytes: int) -> int:
        """How many vertices the on-chip queue can map (one cell each)."""
        return self.queue_bytes // event_bytes

    def dram_bytes_per_cycle(self) -> float:
        """Aggregate DRAM bandwidth in bytes per accelerator cycle."""
        return self.dram_channels * self.dram_channel_gbps / self.clock_ghz

    def with_overrides(self, **kwargs) -> "AcceleratorConfig":
        """A copy with selected fields replaced (for sizing studies)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SoftwareConfig:
    """Software-framework platform configuration (Table 1, left)."""

    num_cores: int = 36
    clock_ghz: float = 3.0
    l2_bytes: int = 24 * 1024 * 1024
    dram_channels: int = 4
    dram_channel_gbps: float = 19.0
    cache_line_bytes: int = 64

    # Per-operation costs (ns) for the cost model; see
    # repro/sim/cost_models.py for derivations and calibration notes.
    random_access_ns: float = 38.0
    cached_access_ns: float = 1.4
    atomic_op_ns: float = 14.0
    edge_traverse_ns: float = 1.1
    vertex_work_ns: float = 2.2
    barrier_us: float = 18.0
    parallel_efficiency: float = 0.52
    #: Fixed per-run cost of a software framework batch: parallel region
    #: launches, frontier/bitmap allocation and clearing, versioned-graph
    #: bookkeeping. This floor is why software speedups stop improving as
    #: batches shrink (Fig. 13) while the accelerator's keep growing.
    per_batch_overhead_us: float = 120.0

    def effective_cores(self) -> float:
        """Cores discounted by parallel scaling efficiency."""
        return max(1.0, self.num_cores * self.parallel_efficiency)

    def with_overrides(self, **kwargs) -> "SoftwareConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)


#: The default experimental configuration pair used by every experiment.
DEFAULT_ACCELERATOR = AcceleratorConfig()
DEFAULT_SOFTWARE = SoftwareConfig()


def table1_rows():
    """Rows reproducing Table 1 (experimental configurations)."""
    acc = DEFAULT_ACCELERATOR
    sw = DEFAULT_SOFTWARE
    return [
        {
            "item": "Compute Unit",
            "software": f"{sw.num_cores}x Intel Core i9 @{sw.clock_ghz:g}GHz",
            "jetstream": f"{acc.num_processors}x JetStream Processor @{acc.clock_ghz:g}GHz",
        },
        {
            "item": "On-chip memory",
            "software": f"{sw.l2_bytes // (1024 * 1024)}MB L2 Cache",
            "jetstream": f"{acc.queue_bytes // (1024 * 1024)}MB eDRAM @22nm 1GHz",
        },
        {
            "item": "Off-chip Bandwidth",
            "software": f"{sw.dram_channels}x DDR4 {sw.dram_channel_gbps:g}GB/s Channel",
            "jetstream": f"{acc.dram_channels}x DDR3 {acc.dram_channel_gbps:g}GB/s Channel",
        },
    ]
