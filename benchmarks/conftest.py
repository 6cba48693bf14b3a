"""Puts ``src`` on ``sys.path`` for ``pytest benchmarks/bench_micro_engine.py``,
the layer micro-benchmarks. The gated suites run through ``repro bench
check``, which imports them itself."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
