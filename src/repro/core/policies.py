"""Deletion-propagation policies: Base, VAP, DAP (§3.4, §5).

All three share the tagging skeleton of Algorithm 4 — a delete event resets
its target and re-propagates along out-edges — and differ in the *impact
test* deciding whether a receiver must reset:

* **BASE** — unconditional: any non-identity receiver resets. Simple but
  tags far too many vertices ("often leading to work comparable to full
  recomputation", §6.2).
* **VAP** (Value-Aware Propagation, §5.1) — the delete event carries the
  value that was contributed over the deleted path; a receiver strictly
  more progressed than that contribution cannot depend on it and discards
  the event.
* **DAP** (Dependency-Aware Propagation, §5.2) — each vertex records the
  source of the event that set its state (a dependency-tree edge); a delete
  event resets the receiver only when its recorded dependency matches the
  event's source. Requires wider events (source id) and disables delete
  coalescing during recovery.
"""

from __future__ import annotations

import enum


class DeletePolicy(enum.Enum):
    """Which impact test the recovery phase applies."""

    BASE = "base"
    VAP = "vap"
    DAP = "dap"

    @property
    def tracks_dependency(self) -> bool:
        """True when per-vertex dependency fields must be maintained."""
        return self is DeletePolicy.DAP

    @property
    def coalesces_deletes(self) -> bool:
        """Whether delete events destined to one vertex may be coalesced.

        BASE deletes carry no information beyond the tag — one suffices.
        VAP deletes coalesce through Reduce (only the most progressed
        payload can matter, §5.1). DAP deletes from different sources are
        not interchangeable, so coalescing is disabled and extra events go
        through the overflow buffer (§5.2).
        """
        return self is not DeletePolicy.DAP

    def event_bytes(self, config) -> int:
        """On-chip event size under this policy (§5.2 overheads)."""
        if self is DeletePolicy.DAP:
            return config.event_bytes_dap
        return config.event_bytes_jetstream

