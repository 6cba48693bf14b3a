"""The paper's contribution: the event-driven streaming accelerator.

* :mod:`repro.core.events` — event records and flags (§4.2);
* :mod:`repro.core.queue` — the coalescing event queue (§4.2);
* :mod:`repro.core.engine` — GraphPulse static event-driven compute
  (§3.1, Algorithm 1, §4.6.1);
* :mod:`repro.core.streaming` — JetStream incremental evaluation
  (§3.3–§3.5, §4.6.2, Algorithms 2–6);
* :mod:`repro.core.policies` — Base / VAP / DAP deletion-propagation
  policies (§3.4, §5);
* :mod:`repro.core.parallel` — the array round kernels and their
  per-engine work / NoC accounting over graph slices (Table 1, §4.7);
* :mod:`repro.core.config` — the Table 1 hardware/software configurations.
"""

from repro.core.config import AcceleratorConfig, SoftwareConfig
from repro.core.events import Event, EventFlags
from repro.core.queue import VectorQueue
from repro.core.engine import GraphPulseEngine, ComputeResult
from repro.core.parallel import InterEngineChannel
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine, StreamingResult
from repro.core.pipeline import ArrivalTrace, StreamingPipeline, PipelineReport

__all__ = [
    "InterEngineChannel",
    "AcceleratorConfig",
    "SoftwareConfig",
    "Event",
    "EventFlags",
    "VectorQueue",
    "GraphPulseEngine",
    "ComputeResult",
    "DeletePolicy",
    "JetStreamEngine",
    "StreamingResult",
    "ArrivalTrace",
    "StreamingPipeline",
    "PipelineReport",
]
