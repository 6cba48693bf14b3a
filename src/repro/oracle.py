"""The scalar oracle: the per-event engine loop and its boxed queue.

Production runs the array round of :class:`~repro.core.engine.EngineCore`
over a :class:`~repro.core.queue.VectorQueue`. This module keeps the
per-event reference (:class:`CoalescingQueue`, :class:`ScalarCore`) for
the parity suites and benches, which must see it agree with the array
path bit for bit: states, every per-round ``RoundWork`` vector and the
queue's lifetime counters. Only tests and benches import it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.algorithms.base import NULL_CONTEXT, AlgorithmKind
from repro.core.engine import _LINE, MAX_ROUNDS, EngineCore
from repro.core.events import NO_SOURCE, Event, EventBatch
from repro.core.metrics import PhaseStats, RoundWork
from repro.core.policies import DeletePolicy
from repro.core.queue import QueueError, _SlicedQueue
from repro.obs.tracer import work_attrs


class CoalescingQueue(_SlicedQueue):
    """Event queue with in-place coalescing, slicing, and work accounting.

    Parameters
    ----------
    algorithm:
        Supplies ``reduce`` and the progression order for coalescing.
    config:
        :class:`~repro.core.config.AcceleratorConfig` (row width, event
        sizes, bin count).
    policy:
        Deletion policy; controls delete coalescing and event width.
    num_vertices:
        Total vertex count (for slice assignment checks).
    slice_of:
        Optional array mapping vertex -> slice id. ``None`` = single slice.
    """

    def __init__(
        self,
        algorithm,
        config,
        policy: DeletePolicy = DeletePolicy.DAP,
        num_vertices: int = 0,
        slice_of: Optional[np.ndarray] = None,
    ):
        super().__init__(algorithm, config, policy, num_vertices, slice_of)
        self._cells: List[Dict[int, Event]] = [dict() for _ in range(self.num_slices)]
        self._overflow: List[Dict[int, List[Event]]] = [
            dict() for _ in range(self.num_slices)
        ]
        #: Cross-slice events written off-chip and not yet read back, per
        #: slice; charged as read-back traffic when the slice activates.
        self._spilled_pending = [0] * self.num_slices

    # ------------------------------------------------------------------
    # Insertion / coalescing
    # ------------------------------------------------------------------
    def insert(self, event: Event, work: RoundWork) -> None:
        """Insert ``event``, coalescing with any queued event for the target.

        ``work`` receives the insert/coalesce/spill accounting. Only DAP
        events carry a source (§5.2): under BASE and VAP the queue stores
        and drains ``NO_SOURCE``.
        """
        if event.source != NO_SOURCE and not self.policy.tracks_dependency:
            event = Event(event.target, event.payload, event.flags)
        self.total_inserts += 1
        work.queue_inserts += 1
        sid = self.slice_id(event.target) if self._slice_of is not None else 0
        if sid != self.active_slice:
            # Cross-slice event: written to off-chip memory now (§4.7); the
            # matching read-back is charged when the slice activates.
            work.spill_bytes += self.event_bytes
            self._spilled_pending[sid] += 1
        cells = self._cells[sid]
        existing = cells.get(event.target)
        if existing is None:
            cells[event.target] = event
            self._occupancy += 1
            if self._occupancy > self.peak_occupancy:
                self.peak_occupancy = self._occupancy
            return
        if (existing.flags & 1) != (event.flags & 1):
            raise QueueError(
                "delete and non-delete events may not coexist for a vertex; "
                "the scheduler separates the phases (§4.3)"
            )
        if (event.flags & 1) and self._delete_coalescing_off:
            # DAP recovery: queue extra events through the overflow buffer,
            # which spills to off-chip memory in blocks (§5.2).
            self._overflow[sid].setdefault(event.target, []).append(event)
            self._occupancy += 1
            if self._occupancy > self.peak_occupancy:
                self.peak_occupancy = self._occupancy
            work.spill_bytes += 2 * self.event_bytes
            return
        self._coalesce(existing, event)
        self.total_coalesces += 1
        work.coalesce_ops += 1

    def _coalesce(self, existing: Event, incoming: Event) -> None:
        """Coalesce ``incoming`` into ``existing`` in place (§4.2)."""
        algorithm = self.algorithm
        flags = existing.flags | incoming.flags
        if existing.flags & 1:
            if self.policy is DeletePolicy.VAP:
                # Keep the most progressed contribution — the only one that
                # can still force a reset (§5.1).
                reduced = algorithm.reduce(existing.payload, incoming.payload)
                if reduced != existing.payload:
                    existing.source = incoming.source
                existing.payload = reduced
            # BASE: tagging once suffices; payloads carry no information.
            existing.flags = flags
            return
        reduced = algorithm.reduce(existing.payload, incoming.payload)
        # Retain the source of the dominant contribution (§5.2); for
        # accumulative algorithms reduce is a sum and source is unused.
        if reduced != existing.payload:
            existing.source = incoming.source
        existing.payload = reduced
        existing.flags = flags

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pending(self) -> bool:
        """True when any slice holds events."""
        return any(
            cells or overflow
            for cells, overflow in zip(self._cells, self._overflow)
        )

    def active_pending(self) -> bool:
        """True when the active slice holds events."""
        return bool(
            self._cells[self.active_slice] or self._overflow[self.active_slice]
        )

    def activate_next_slice(self, work: Optional[RoundWork] = None) -> bool:
        """Swap to the next slice with pending events (§4.7).

        Counts the read-back of that slice's spilled events into ``work``:
        every event written off-chip while the slice was inactive must be
        fetched back before the slice can drain. Returns False when every
        slice is empty.
        """
        for step in range(1, self.num_slices + 1):
            candidate = (self.active_slice + step) % self.num_slices
            if self._cells[candidate] or self._overflow[candidate]:
                if candidate != self.active_slice:
                    self.slice_switches += 1
                if work is not None and self._spilled_pending[candidate]:
                    work.spill_bytes += (
                        self._spilled_pending[candidate] * self.event_bytes
                    )
                    self._spilled_pending[candidate] = 0
                self.active_slice = candidate
                return True
        return False

    def drain_round(self) -> List[List[Event]]:
        """Emit every queued event of the active slice as row batches.

        Events are sorted by destination vertex id and grouped by queue row
        (``config.queue_row_vertices`` consecutive vertices per row), which
        is exactly the spatial-locality grouping the scheduler exploits
        when assigning batches to processors (§4.3).
        """
        cells = self._cells[self.active_slice]
        overflow = self._overflow[self.active_slice]
        if not cells and not overflow:
            return []
        row_width = self.config.queue_row_vertices
        targets = sorted(set(cells) | set(overflow))

        events: List[Event] = []
        for target in targets:
            cell = cells.pop(target, None)
            if cell is not None:
                events.append(cell)
            extra = overflow.pop(target, None)
            if extra:
                events.extend(extra)
        self._occupancy -= len(events)

        batches: List[List[Event]] = []
        current_row = None
        for event in events:
            row = event.target // row_width
            if row != current_row:
                batches.append([])
                current_row = row
            batches[-1].append(event)
        return batches

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of queued events across all slices."""
        return sum(len(c) for c in self._cells) + sum(
            len(v) for o in self._overflow for v in o.values()
        )

    def insert_batch(self, batch: EventBatch, work: RoundWork) -> None:
        """Insert a whole :class:`EventBatch` in array order.

        The scalar queue simply loops; :class:`VectorQueue` overrides this
        with a scatter-reduce. Both produce identical queue state and
        identical work accounting for the same batch.
        """
        for event in batch.to_events():
            self.insert(event, work)


class ScalarCore(EngineCore):
    """:class:`~repro.core.engine.EngineCore` with the boxed queue and the
    per-event loops; state, graph binding and slicing are the core's."""

    def new_queue(self):
        """A boxed :class:`CoalescingQueue` sized/partitioned for the state."""
        return CoalescingQueue(
            self.algorithm,
            self.config,
            self.policy,
            num_vertices=self.states.shape[0],
            slice_of=self._slice_of,
        )

    def seed_initial(self, queue, work: RoundWork) -> None:
        """Feed InitialEvents() into ``queue`` (the Initializer, §4.6)."""
        for vertex, payload in self.algorithm.initial_events(self.csr):
            queue.insert(Event(vertex, payload, 0, NO_SOURCE), work)

    def run_regular(self, queue, phase: PhaseStats) -> None:
        """Computation phase: process events until the queue drains (§4.6.1).

        Implements Algorithm 1 plus request-flag semantics: a vertex
        receiving a request event propagates its state along all out-edges
        even when the state did not change (§3.4). One boxed event at a
        time, one ``set`` of touched lines per row batch.
        """
        algorithm = self.algorithm
        csr = self.csr
        states = self.states
        dependency = self.dependency
        track_dep = self.policy.tracks_dependency
        accumulative = algorithm.kind is AlgorithmKind.ACCUMULATIVE
        reduce_ = algorithm.reduce
        propagate = algorithm.propagate
        threshold = algorithm.propagation_threshold
        weight_scaled = algorithm.weight_scaled_propagation
        prop_factor = self._prop_factor
        csr = csr.compact()
        offsets = csr.out_offsets
        targets = csr.out_targets
        weights = csr.out_weights
        page_bytes = self.config.dram_page_bytes
        tracer = self.tracer

        rounds = 0
        while queue.pending():
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError("engine exceeded MAX_ROUNDS; non-termination?")
            work = phase.new_round()
            round_span = (
                tracer.start("round", occupancy_start=queue.occupancy())
                if tracer.enabled
                else None
            )
            if not queue.active_pending():
                # Charge the activated slice's spill read-back to this round.
                queue.activate_next_slice(work)
            for batch in queue.drain_round():
                self._account_vertex_batch(batch, work, page_bytes)
                edge_lines = set()
                edge_pages = set()
                for event in batch:
                    v = event.target
                    work.events_processed += 1
                    work.vertex_reads += 1
                    state = states[v]
                    new_state = reduce_(state, event.payload)
                    changed = new_state != state
                    if changed:
                        states[v] = new_state
                        work.vertex_writes += 1
                        if track_dep:
                            dependency[v] = event.source
                    if not (changed or event.flags & 2):
                        continue
                    start = offsets[v]
                    stop = offsets[v + 1]
                    if stop == start:
                        continue
                    work.edges_read += int(stop - start)
                    edge_lines.update(
                        range(int(start * 8) // _LINE, int(stop * 8 - 1) // _LINE + 1)
                    )
                    edge_pages.update(
                        range(
                            int(start * 8) // page_bytes,
                            int(stop * 8 - 1) // page_bytes + 1,
                        )
                    )
                    if accumulative:
                        # Linear fast path: forwarded delta is the incoming
                        # delta scaled by the hoisted per-source factor.
                        base_value = (new_state - state) * prop_factor[v]
                        if weight_scaled:
                            for i in range(start, stop):
                                value = base_value * weights[i]
                                if value > threshold or value < -threshold:
                                    work.events_generated += 1
                                    queue.insert(Event(int(targets[i]), value, 0, v), work)
                        elif base_value > threshold or base_value < -threshold:
                            for i in range(start, stop):
                                work.events_generated += 1
                                queue.insert(
                                    Event(int(targets[i]), base_value, 0, v), work
                                )
                    else:
                        basis = states[v]
                        for i in range(start, stop):
                            value = propagate(basis, weights[i], NULL_CONTEXT)
                            work.events_generated += 1
                            queue.insert(Event(int(targets[i]), value, 0, v), work)
                work.edge_lines += len(edge_lines)
                work.dram_pages += len(edge_pages)
            if round_span is not None:
                tracer.end(
                    round_span, **work_attrs(work), occupancy_end=queue.occupancy()
                )

    def run_delete(self, queue, phase: PhaseStats) -> List[int]:
        """Recovery phase: propagate delete tags, reset impacted vertices.

        Implements ``ResetImpacted`` of Algorithm 4 with the policy impact
        tests of §5. The queue must contain the initial delete events
        (``ProcessDeletesSelective``); the bound graph must be the
        *previous* version (§3.5). Returns the impacted-vertex list (the
        Impact Buffer contents, §4.5).
        """
        algorithm = self.algorithm
        csr = self.csr
        states = self.states
        dependency = self.dependency
        policy = self.policy
        identity = algorithm.identity
        propagate = algorithm.propagate
        more_progressed = algorithm.more_progressed
        csr = csr.compact()
        offsets = csr.out_offsets
        targets = csr.out_targets
        weights = csr.out_weights
        page_bytes = self.config.dram_page_bytes
        base_policy = policy is DeletePolicy.BASE
        vap = policy is DeletePolicy.VAP
        dap = policy is DeletePolicy.DAP

        tracer = self.tracer
        impacted: List[int] = []
        rounds = 0
        while queue.pending():
            rounds += 1
            if rounds > MAX_ROUNDS:
                raise RuntimeError("delete phase exceeded MAX_ROUNDS")
            work = phase.new_round()
            round_span = (
                tracer.start("round", occupancy_start=queue.occupancy())
                if tracer.enabled
                else None
            )
            if not queue.active_pending():
                # Charge the activated slice's spill read-back to this round.
                queue.activate_next_slice(work)
            for batch in queue.drain_round():
                self._account_vertex_batch(batch, work, page_bytes)
                edge_lines = set()
                edge_pages = set()
                for event in batch:
                    v = event.target
                    work.events_processed += 1
                    work.vertex_reads += 1
                    state = states[v]
                    if state == identity:
                        phase.deletes_discarded += 1
                        continue
                    if dap and dependency[v] != event.source:
                        phase.deletes_discarded += 1
                        continue
                    if vap and more_progressed(state, event.payload):
                        phase.deletes_discarded += 1
                        continue
                    # Reset (tag) the vertex — Algorithm 4, line 11.
                    states[v] = identity
                    work.vertex_writes += 1
                    if dap:
                        dependency[v] = NO_SOURCE
                    impacted.append(v)
                    phase.vertices_reset += 1
                    start = offsets[v]
                    stop = offsets[v + 1]
                    if stop == start:
                        continue
                    work.edges_read += int(stop - start)
                    edge_lines.update(
                        range(int(start * 8) // _LINE, int(stop * 8 - 1) // _LINE + 1)
                    )
                    edge_pages.update(
                        range(
                            int(start * 8) // page_bytes,
                            int(stop * 8 - 1) // page_bytes + 1,
                        )
                    )
                    for i in range(start, stop):
                        # BASE carries no value (Algorithm 4 queues <v, 0>);
                        # VAP/DAP carry the contribution computed from the
                        # pre-reset state (§5.1, §5.2).
                        payload = (
                            0.0
                            if base_policy
                            else propagate(state, weights[i], NULL_CONTEXT)
                        )
                        work.events_generated += 1
                        queue.insert(
                            Event(int(targets[i]), payload, 1, v),
                            work,
                        )
                work.edge_lines += len(edge_lines)
                work.dram_pages += len(edge_pages)
            if round_span is not None:
                tracer.end(
                    round_span, **work_attrs(work), occupancy_end=queue.occupancy()
                )
        return impacted

    @staticmethod
    def _account_vertex_batch(
        batch: List[Event], work: RoundWork, page_bytes: int
    ) -> None:
        """Prefetcher accounting: unique state lines/pages per batch (§4.4)."""
        lines = set()
        pages = set()
        for event in batch:
            addr = event.target * 8
            lines.add(addr // _LINE)
            pages.add(addr // page_bytes)
        work.vertex_lines += len(lines)
        work.dram_pages += len(pages)


def on_oracle(engine):
    """Put a built ``GraphPulseEngine`` or ``JetStreamEngine`` on
    :class:`ScalarCore` (it keeps its state, graph and tracer); returns it."""
    core = engine.core
    if core.num_engines is not None:
        raise ValueError(
            "the scalar oracle keeps no per-engine accounting; build the "
            "engine without num_engines"
        )
    core.__class__ = ScalarCore
    return engine
