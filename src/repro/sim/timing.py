"""Event-level accelerator timing model (SST substitute).

Converts the per-round work vectors recorded by the functional engines into
cycles on the Table 1 JetStream configuration. Each scheduler round (§4.3)
is bounded by whichever unit saturates:

* the 8 event-processing pipelines (1 event/cycle each, §4.4);
* the 32 event-generation streams walking edge lists;
* the queue insertion path through the 16×16 crossbar plus coalescer;
* the DRAM channels (see :mod:`repro.sim.memory`).

Rounds are separated by a scheduler barrier ("the scheduler waits for the
processors to idle before starting a new round"); phases add a setup cost
and, for streaming phases, the Stream Reader's batch fetch (§4.5).

The model is deterministic and linear in the number of rounds — the reason
it can sweep the full experiment grid where a Python cycle-accurate
pipeline model could not (see DESIGN.md §1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import AcceleratorConfig
from repro.core.metrics import PhaseStats, RunMetrics
from repro.sim.memory import DRAMModel


@dataclass
class PhaseTiming:
    """Cycle breakdown of one execution phase."""

    name: str
    rounds: int
    compute_cycles: float = 0.0
    generation_cycles: float = 0.0
    queue_cycles: float = 0.0
    memory_cycles: float = 0.0
    barrier_cycles: float = 0.0
    setup_cycles: float = 0.0
    total_cycles: float = 0.0

    @property
    def bound(self) -> str:
        """Which unit bounds this phase most often (diagnostic)."""
        parts = {
            "compute": self.compute_cycles,
            "generation": self.generation_cycles,
            "queue": self.queue_cycles,
            "memory": self.memory_cycles,
        }
        return max(parts, key=parts.get)


@dataclass
class TimingReport:
    """Cycle/time estimate for a whole engine run."""

    phases: List[PhaseTiming] = field(default_factory=list)
    clock_ghz: float = 1.0

    @property
    def total_cycles(self) -> float:
        return sum(p.total_cycles for p in self.phases)

    @property
    def time_ms(self) -> float:
        """Wall-clock estimate in milliseconds."""
        return self.total_cycles / (self.clock_ghz * 1e9) * 1e3

    @property
    def time_us(self) -> float:
        """Wall-clock estimate in microseconds."""
        return self.total_cycles / (self.clock_ghz * 1e9) * 1e6

    def summary(self) -> Dict[str, float]:
        """Flat diagnostic dictionary.

        Phase keys carry the phase's position (``phase_2_reevaluation``) so
        runs whose schedule visits the same phase name twice keep one
        entry per phase instead of silently collapsing onto one key.
        """
        out: Dict[str, float] = {
            "total_cycles": self.total_cycles,
            "time_ms": self.time_ms,
        }
        for index, p in enumerate(self.phases):
            out[f"phase_{index}_{p.name}"] = p.total_cycles
        return out


class AcceleratorTimingModel:
    """Turns :class:`~repro.core.metrics.RunMetrics` into cycle estimates.

    ``model_noc_contention`` replaces the flat queue-insertion bound with
    the crossbar hashing-imbalance estimate of
    :class:`repro.sim.noc.CrossbarModel`.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        model_noc_contention: bool = False,
    ):
        self.config = config or AcceleratorConfig()
        self.dram = DRAMModel(self.config)
        self._crossbar = None
        if model_noc_contention:
            from repro.sim.noc import CrossbarModel

            self._crossbar = CrossbarModel(self.config)

    # ------------------------------------------------------------------
    def run_time(
        self, metrics: RunMetrics, stream_records: int = 0
    ) -> TimingReport:
        """Timing for a full run.

        ``stream_records`` is the number of edge-update records the Stream
        Reader must fetch from memory before streaming phases (§4.5).
        """
        report = TimingReport(clock_ghz=self.config.clock_ghz)
        stream_cycles = self._stream_reader_cycles(stream_records)
        first_streaming_phase = True
        for phase in metrics.phases:
            timing = self.phase_time(phase)
            if phase.name != "initial" and first_streaming_phase:
                timing.setup_cycles += stream_cycles
                timing.total_cycles += stream_cycles
                first_streaming_phase = False
            report.phases.append(timing)
        return report

    def phase_time(self, phase: PhaseStats) -> PhaseTiming:
        """Timing for one phase: sum of per-round bounds plus barriers."""
        config = self.config
        processors = config.num_processors * config.processor_issue_per_cycle
        generators = config.num_processors * config.generation_streams_per_processor
        insert_ports = min(config.queue_insert_ports, config.noc_ports)

        timing = PhaseTiming(name=phase.name, rounds=phase.num_rounds)
        for work in phase.rounds:
            compute = math.ceil(work.events_processed / processors)
            compute += config.pipeline_latency_cycles if work.events_processed else 0
            generation = math.ceil(work.edges_read / generators)
            if self._crossbar is not None:
                queue = self._crossbar.round_cycles(work.queue_inserts).contended_cycles
            else:
                queue = math.ceil(work.queue_inserts / insert_ports)
            queue += config.coalescer_latency_cycles if work.queue_inserts else 0
            memory = self.dram.service_cycles(self.dram.traffic_of(work))
            round_cycles = max(compute, generation, queue, memory)
            timing.compute_cycles += compute
            timing.generation_cycles += generation
            timing.queue_cycles += queue
            timing.memory_cycles += memory
            timing.barrier_cycles += config.round_barrier_cycles
            timing.total_cycles += round_cycles + config.round_barrier_cycles
        timing.setup_cycles += config.phase_setup_cycles
        timing.total_cycles += config.phase_setup_cycles
        return timing

    # ------------------------------------------------------------------
    def _stream_reader_cycles(self, records: int) -> float:
        """Stream Reader fetch of the update batch from main memory.

        Whole cycles: a transfer occupying a fraction of a DRAM burst slot
        still consumes the full cycle.
        """
        if records <= 0:
            return 0.0
        bytes_needed = records * self.config.stream_record_bytes
        return float(math.ceil(bytes_needed / self.config.dram_bytes_per_cycle()))

    # ------------------------------------------------------------------
    def energy_mj(self, metrics: RunMetrics, power_w: float) -> float:
        """Energy estimate (mJ) given a total power draw.

        Used for the ~13× energy-efficiency claim of §6.3: shorter
        processing at essentially equal power.
        """
        report = self.run_time(metrics)
        return power_w * report.time_ms  # W * ms = mJ
