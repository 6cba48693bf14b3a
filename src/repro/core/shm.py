"""Shared-memory leak probe.

No engine path creates a shared-memory segment. This probe lists the
``/dev/shm`` entries whose names start with :data:`SEGMENT_PREFIX`, so
tests and benchmarks can assert that a run left no segment of this
package behind.
"""

from __future__ import annotations

import os
from typing import List

__all__ = ["SEGMENT_PREFIX", "leaked_system_segments"]

#: Name prefix of the segments :func:`leaked_system_segments` looks for.
SEGMENT_PREFIX = "repro-shm"


def leaked_system_segments() -> List[str]:
    """``/dev/shm`` entries carrying :data:`SEGMENT_PREFIX` (leak check)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux hosts
        return []
    return sorted(
        entry for entry in os.listdir(shm_dir) if entry.startswith(SEGMENT_PREFIX)
    )
