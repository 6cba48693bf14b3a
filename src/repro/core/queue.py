"""The coalescing event queue (§4.2).

The queue is the on-chip storage for active events. It behaves like a
direct-mapped structure: one cell per vertex, organized in bins × rows so
that vertices sharing a DRAM page share a queue row and drain together
(spatial locality). Inserting an event for a vertex that already has one
*coalesces* the two through the application's Reduce — the key mechanism
that lets JetStream process a whole batch of updates without atomics.

JetStream extensions modelled here:

* delete-event coalescing during the recovery phase (§4.2), with the
  policy-specific rules of §5 (VAP keeps the most progressed payload; DAP
  disables coalescing and sends extra events through an *overflow buffer*
  that spills to off-chip memory);
* slice-partitioned operation for graphs whose vertex count exceeds the
  queue capacity (§4.7): events for inactive slices spill off-chip and are
  read back when their slice activates;
* a source id per event only under DAP (§5.2): BASE and VAP queues drain
  ``NO_SOURCE``.

Functionally the queue drains in deterministic *rounds*: a round emits all
currently queued events of the active slice, sorted by destination vertex
and grouped into row batches; events generated while processing a round
land in the queue for the next round. (Real hardware drains row by row and
overlaps draining and insertion; one full drain per round preserves
semantics — the Reordering Property makes order irrelevant — and gives the
timing model clean units.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmKind
from repro.core.events import NO_SOURCE, EventBatch, int64_column
from repro.core.metrics import RoundWork
from repro.core.policies import DeletePolicy


class QueueError(RuntimeError):
    """Raised on invalid queue operation (e.g. mixing event classes)."""


#: Later than any batch position (see :meth:`VectorQueue._first_position`).
_NO_POSITION = np.iinfo(np.int64).max


class _SlicedQueue:
    """What the boxed and the array queue hold alike: the slice map (§4.7),
    the delete-coalescing switch and the lifetime counters."""

    def __init__(self, algorithm, config, policy, num_vertices, slice_of):
        self.algorithm = algorithm
        self.config = config
        self.policy = policy
        self.num_vertices = num_vertices
        if slice_of is not None:
            slice_of = np.asarray(slice_of, dtype=np.int64)
            if slice_of.shape[0] < num_vertices:
                raise ValueError("slice_of must cover every vertex")
            self.num_slices = int(slice_of.max()) + 1 if slice_of.size else 1
        else:
            self.num_slices = 1
        self._slice_of = slice_of
        self.active_slice = 0
        self._occupancy = 0
        self._delete_coalescing_off = False
        self.event_bytes = policy.event_bytes(config)
        # Lifetime statistics
        self.total_inserts = 0
        self.total_coalesces = 0
        self.peak_occupancy = 0
        self.slice_switches = 0

    def set_delete_coalescing(self, enabled: bool) -> None:
        """Enable/disable delete coalescing (DAP recovery disables it)."""
        self._delete_coalescing_off = not enabled

    def slice_id(self, vertex: int) -> int:
        """Slice holding ``vertex``."""
        if self._slice_of is None:
            return 0
        return int(self._slice_of[vertex])

    def lifetime_stats(self) -> Dict[str, int]:
        """Lifetime counters (inserts, coalesces, peak occupancy, switches)."""
        return {
            "total_inserts": self.total_inserts,
            "total_coalesces": self.total_coalesces,
            "peak_occupancy": self.peak_occupancy,
            "slice_switches": self.slice_switches,
        }


class VectorQueue(_SlicedQueue):
    """Structure-of-arrays coalescing queue with batched scatter-reduce.

    The functional twin of the scalar oracle's boxed-event queue
    (:mod:`repro.oracle`): one direct-mapped cell per vertex held in
    parallel NumPy arrays (payload / flags / source / occupancy mask), so
    inserting a whole :class:`EventBatch` is a fixed number of O(k) gathers
    and scatters over the batch as it arrives — like the hardware queue,
    nothing is sorted:

    * an **empty cell** holds no flags and, accumulative, the fold
      identity ``-0.0`` (:meth:`drain_round` restores the cells it drains),
      so a :attr:`~repro.core.events.EventBatch.plain` batch skips every
      flag pass;
    * a regular batch into an **empty** queue — what a full drain leaves
      every round — skips the incumbent checks (:meth:`_insert_into_empty`);
    * otherwise the **first event of each empty target** is found with
      ``np.minimum.at`` over batch positions (:meth:`_first_position`; the
      scratch is the source field of the cells about to be written) and
      stored directly. A minimum is the same in whatever order duplicates
      are visited, so no result depends on NumPy's unspecified order for
      duplicate-index assignment;
    * **every other event coalesces** through ``reduce_ufunc.at``, which
      applies duplicate indices one after another in array order — each
      cell folds the event sequence the scalar queue folds, so an
      accumulative sum (``np.add.at``) is the scalar left fold bit for bit;
    * **selective coalescing** first drops the events that cannot beat
      their incumbent (ties keep the incumbent, as in the scalar Reduce),
      then gives the cell the payload of the first event attaining the
      folded optimum (again by position minimum) — the event at which the
      scalar fold last strictly improved. Copying the payload makes the
      sign of a zero that of the scalar fold's, whichever of
      ``-0.0``/``+0.0`` ``np.minimum`` returns for the pair;
    * **sources** are kept only under DAP (§5.2): the selective winner's,
      or an accumulative target's last event's; BASE/VAP drain ``NO_SOURCE``;
    * the DAP overflow buffer and slice spill accounting mirror the scalar
      queue operation for operation, so lifetime statistics and per-round
      work vectors stay identical.

    Drains return an :class:`EventBatch` (sorted by target) plus row-batch
    boundaries rather than the oracle's ``List[List[Event]]``.
    """

    def __init__(
        self,
        algorithm,
        config,
        policy: DeletePolicy = DeletePolicy.DAP,
        num_vertices: int = 0,
        slice_of: Optional[np.ndarray] = None,
    ):
        if getattr(algorithm, "reduce_ufunc", None) is None:
            raise QueueError(
                f"{algorithm!r} provides no reduce_ufunc to coalesce with"
            )
        super().__init__(algorithm, config, policy, num_vertices, slice_of)
        slice_of = self._slice_of
        n = int(num_vertices)
        self._payloads = np.full(n, -0.0, dtype=np.float64)
        self._flags = np.full(n, 0, dtype=np.int64)
        self._sources = np.full(n, NO_SOURCE, dtype=np.int64)
        self._occupied = np.full(n, False, dtype=bool)
        if slice_of is not None:
            self._slice_masks = [slice_of[:n] == s for s in range(self.num_slices)]
        else:
            self._slice_masks = None
        self._cell_counts = np.zeros(self.num_slices, dtype=np.int64)
        self._overflow_chunks: List[List[EventBatch]] = [
            [] for _ in range(self.num_slices)
        ]
        self._spilled_pending = np.zeros(self.num_slices, dtype=np.int64)

    # ------------------------------------------------------------------
    # Insertion / coalescing
    # ------------------------------------------------------------------
    def insert_batch(self, batch: EventBatch, work: RoundWork) -> None:
        """Insert ``batch`` in array order with scatter-reduce coalescing.

        Equivalent to inserting each event through the scalar queue in the
        same order — including every counter ``work`` receives — but every
        step is an O(k) gather or scatter over the unsorted arrays. Until
        the §4.3 coexistence check has passed nothing is written but source
        fields of empty cells, which nobody reads, so a rejected batch
        leaves the queue and ``work`` as it found them.
        """
        k = len(batch)
        if k == 0:
            return
        t, p, f, s = batch.targets, batch.payloads, batch.flags, batch.sources
        plain = batch.plain
        size = self._occupied.shape[0]
        grow_to = int(t.max()) + 1
        empty = self._occupancy == 0 and self._slice_of is None
        if empty and grow_to <= size and (plain or not (f & 1).any()):
            self._insert_into_empty(batch, work)
            return
        if grow_to > size:
            # Vertices created mid-stream (single-slice queues only — the
            # boxed queue likewise cannot map a new vertex to a slice).
            if self._slice_of is not None:
                raise QueueError(
                    "cannot grow a slice-partitioned queue; rebuild it with the "
                    "new slice assignment"
                )
            # Cells past the end are empty: read them through one padded
            # empty cell, so that the check runs before anything grows.
            cell = np.minimum(t, size)
            occupied = np.append(self._occupied, False)[cell]
            cell_flags = np.append(self._flags, 0)[cell]
            scratch = np.empty(grow_to, dtype=np.int64)
        else:
            occupied = self._occupied[t]
            cell_flags = self._flags[t]
            scratch = self._sources

        # The first event of each empty target creates the cell (a direct
        # store) and fixes its class; the target's later events meet that
        # cell like any other incumbent. An empty cell's source field is
        # dead until that store writes it, so it serves as the scratch.
        store = new = np.flatnonzero(~occupied)
        if new.shape[0]:
            first = self._first_position(scratch, t[new], new)
            if not plain:  # an empty cell already reads no flags
                cell_flags[new] = f[first]
            store = new[first == new]
        delete = np.int64(0) if plain else f & 1
        if (delete != (cell_flags & 1)).any():
            raise QueueError(
                "delete and non-delete events may not coexist for a vertex; "
                "the scheduler separates the phases (§4.3)"
            )

        self.total_inserts += k
        work.queue_inserts += k
        if grow_to > size:
            self._grow(grow_to)
        if self._slice_of is not None:
            sids = self._slice_of[t]
            cross = sids != self.active_slice
            n_cross = int(np.count_nonzero(cross))
            if n_cross:
                # Write half of the spill; read-back charged at activation.
                work.spill_bytes += n_cross * self.event_bytes
                np.add.at(self._spilled_pending, sids[cross], 1)
        created = int(store.shape[0])
        if created:
            ts = t[store]  # distinct, so plain assignment is well defined
            self._payloads[ts] = p[store]
            if not plain:  # an empty cell holds no flags
                self._flags[ts] = f[store]
            if self.policy.tracks_dependency:
                self._sources[ts] = s[store]
            self._occupied[ts] = True
            if self._slice_of is not None:
                np.add.at(self._cell_counts, self._slice_of[ts], 1)
            else:
                self._cell_counts[0] += created
            self._occupancy += created

        if created < k:
            # Every other event met a cell: it coalesces through Reduce
            # (§4.2) unless it is an extra delete while coalescing is off.
            met = np.ones(k, dtype=bool)
            met[store] = False
            coalesce = folds = np.flatnonzero(met)
            if delete.any() and (
                self._delete_coalescing_off or self.policy is not DeletePolicy.VAP
            ):
                # Only VAP folds delete payloads (it keeps the most progressed
                # one, §5.1); BASE tags carry no payload information.
                is_delete = delete[coalesce] == 1
                folds = coalesce[~is_delete]
                if self._delete_coalescing_off:
                    self._append_overflow(batch.take(coalesce[is_delete]), work)
                    coalesce = folds
            n_coalesce = int(coalesce.shape[0])
            self.total_coalesces += n_coalesce
            work.coalesce_ops += n_coalesce
            if n_coalesce and not plain and f[coalesce].any():
                # Request/delete flag bits always merge.
                np.bitwise_or.at(self._flags, t[coalesce], f[coalesce])
            if folds.shape[0]:
                self._fold(batch, folds)
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy

    def _insert_into_empty(self, batch: EventBatch, work: RoundWork) -> None:
        """:meth:`insert_batch` of a regular batch into an empty, unsliced
        queue that needs no growth: no incumbent, no §4.3 clash.

        Empty cells hold no flags and, accumulative, the exact IEEE additive
        identity ``-0.0`` (see :meth:`drain_round`), so an accumulative
        cell is the scalar left fold from the first event. A selective cell
        folds from any of its own payloads, then takes the payload bits of
        the first event attaining the optimum.
        """
        t, p, f = batch.targets, batch.payloads, batch.flags
        k = t.shape[0]
        self.total_inserts += k
        work.queue_inserts += k
        selective = self.algorithm.kind is AlgorithmKind.SELECTIVE
        if selective:
            self._payloads[t] = p
        self.algorithm.reduce_ufunc.at(self._payloads, t, p)
        if not batch.plain and f.any():
            np.bitwise_or.at(self._flags, t, f)
        self._occupied[t] = True
        created = int(np.count_nonzero(self._occupied))
        self._cell_counts[0] += created
        self._occupancy = created
        self.peak_occupancy = max(self.peak_occupancy, created)
        self.total_coalesces += k - created
        work.coalesce_ops += k - created
        if selective:
            attain = np.flatnonzero(p == self._payloads[t])
            self._stamp_winners(batch, attain, attain)
        elif self.policy.tracks_dependency:
            position = np.arange(k)
            self._stamp_winners(batch, position, -position)

    def _grow(self, num_vertices: int) -> None:
        """Extend the cell arrays for vertices created mid-stream."""
        extra = num_vertices - self._payloads.shape[0]
        self._payloads = np.concatenate(
            [self._payloads, np.full(extra, -0.0, dtype=np.float64)]
        )
        self._flags = np.concatenate([self._flags, np.zeros(extra, dtype=np.int64)])
        self._sources = np.concatenate(
            [self._sources, np.full(extra, NO_SOURCE, dtype=np.int64)]
        )
        self._occupied = np.concatenate(
            [self._occupied, np.zeros(extra, dtype=bool)]
        )
        self.num_vertices = num_vertices

    @staticmethod
    def _first_position(scratch, targets, position) -> np.ndarray:
        """Per event, the smallest ``position`` among the events of its target.

        A minimum is the same in whatever order duplicates are visited, so
        this needs no sort. ``scratch`` (one ``int64`` per vertex) needs no
        preparation and is left holding the result at ``targets``: callers
        pass source fields that they overwrite next or never read.
        """
        scratch[targets] = _NO_POSITION
        np.minimum.at(scratch, targets, position)
        return scratch[targets]

    def _append_overflow(self, chunk: EventBatch, work: RoundWork) -> None:
        """Queue extra delete events (in arrival order) in the overflow
        buffer, which spills to off-chip memory in blocks (DAP, §5.2)."""
        n_overflow = len(chunk)
        if not n_overflow:
            return
        if not self.policy.tracks_dependency:
            chunk.sources = int64_column(NO_SOURCE, n_overflow)
        work.spill_bytes += 2 * self.event_bytes * n_overflow
        self._occupancy += n_overflow
        if self._slice_of is not None:
            ov_sids = self._slice_of[chunk.targets]
            for sid in np.unique(ov_sids):
                self._overflow_chunks[int(sid)].append(chunk.take(ov_sids == sid))
        else:
            self._overflow_chunks[0].append(chunk)

    def _fold(self, batch: EventBatch, folds: np.ndarray) -> None:
        """Reduce the payloads of the events at positions ``folds`` into
        their cells.

        ``ufunc.at`` applies duplicate targets one after another in array
        order, so each cell folds the event sequence the scalar queue folds
        and an accumulative sum is the scalar left fold bit for bit.
        """
        t, p = batch.targets, batch.payloads
        tv = t[folds]
        reduce_ufunc = self.algorithm.reduce_ufunc
        if self.algorithm.kind is AlgorithmKind.ACCUMULATIVE:
            reduce_ufunc.at(self._payloads, tv, p[folds])
            if self.policy.tracks_dependency:
                # Source: the target's last event wins. (The scalar fold
                # re-stamps on every sum-changing coalesce, which is the
                # same unless an event leaves the sum unchanged.)
                self._stamp_winners(batch, folds, -folds)
            return
        # An event that cannot beat the incumbent changes nothing, now or
        # later in the fold (ties keep the incumbent, like the scalar
        # Reduce). Of the others the cell becomes the first to attain their
        # optimum — the event at which the scalar fold last strictly
        # improved — and takes that event's payload bits too, since a
        # min/max over -0.0 and +0.0 may return either.
        pv = p[folds]
        existing = self._payloads[tv]
        keep = np.flatnonzero(reduce_ufunc(existing, pv) != existing)
        folds, tv, pv = folds[keep], tv[keep], pv[keep]
        reduce_ufunc.at(self._payloads, tv, pv)
        folds = folds[pv == self._payloads[tv]]
        self._stamp_winners(batch, folds, folds)

    def _stamp_winners(self, batch: EventBatch, events, order) -> None:
        """Give each target of the events at positions ``events`` the source
        (DAP only) and, if selective, the payload of its smallest-``order``
        event. Every such target is stamped, so its source field is scratch.
        """
        winners = events[
            self._first_position(self._sources, batch.targets[events], order) == order
        ]
        tw = batch.targets[winners]
        if self.policy.tracks_dependency:
            self._sources[tw] = batch.sources[winners]
        if self.algorithm.kind is AlgorithmKind.SELECTIVE:
            self._payloads[tw] = batch.payloads[winners]

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pending(self) -> bool:
        """True when any slice holds events."""
        return self._occupancy > 0

    def active_pending(self) -> bool:
        """True when the active slice holds events."""
        sid = self.active_slice
        return bool(self._cell_counts[sid] or self._overflow_chunks[sid])

    def activate_next_slice(self, work: Optional[RoundWork] = None) -> bool:
        """Swap to the next slice with pending events (§4.7).

        Counts the read-back of that slice's spilled events into ``work``:
        every event written off-chip while the slice was inactive must be
        fetched back before the slice can drain. Returns False when every
        slice is empty.
        """
        for step in range(1, self.num_slices + 1):
            candidate = (self.active_slice + step) % self.num_slices
            if self._cell_counts[candidate] or self._overflow_chunks[candidate]:
                if candidate != self.active_slice:
                    self.slice_switches += 1
                if work is not None and self._spilled_pending[candidate]:
                    work.spill_bytes += (
                        int(self._spilled_pending[candidate]) * self.event_bytes
                    )
                    self._spilled_pending[candidate] = 0
                self.active_slice = candidate
                return True
        return False

    def drain_round(self) -> Tuple[EventBatch, np.ndarray]:
        """Emit every queued event of the active slice as one sorted batch.

        Returns ``(batch, row_starts)``: the drained events sorted by
        destination vertex (cell event first, then any overflow events for
        the same target in arrival order — the scalar drain order), and
        the indices where a new queue row of ``config.queue_row_vertices``
        consecutive vertices begins.
        """
        sid = self.active_slice
        if self._slice_masks is not None:
            cell_t = np.flatnonzero(self._occupied & self._slice_masks[sid])
        else:
            cell_t = np.flatnonzero(self._occupied)
        chunks = self._overflow_chunks[sid]
        if cell_t.shape[0] == 0 and not chunks:
            return EventBatch.empty(), np.empty(0, dtype=np.int64)

        if self.policy.tracks_dependency:
            sources = self._sources[cell_t]
        else:  # sources only under DAP (§5.2); otherwise the fields are scratch
            sources = int64_column(NO_SOURCE, cell_t.shape[0])
        # flatnonzero order: already target-sorted
        out = EventBatch(cell_t, self._payloads[cell_t], self._flags[cell_t], sources)
        if chunks:
            # Per target: the coalesced cell first, then overflow events in
            # arrival order (chunks were appended chronologically), which a
            # stable sort of cells-then-overflow by target keeps.
            merged = EventBatch.concat([out, *chunks])
            out = merged.take(np.argsort(merged.targets, kind="stable"))

        # Clear drained state: an empty cell holds no flags and, for an
        # accumulative fold, the identity -0.0 (see _insert_into_empty).
        self._occupied[cell_t] = False
        self._flags[cell_t] = 0
        if self.algorithm.kind is AlgorithmKind.ACCUMULATIVE:
            self._payloads[cell_t] = -0.0
        self._cell_counts[sid] -= cell_t.shape[0]
        self._overflow_chunks[sid] = []
        self._occupancy -= len(out)

        out_rows = out.targets // self.config.queue_row_vertices
        bstart = np.empty(len(out), dtype=bool)
        bstart[0] = True
        np.not_equal(out_rows[1:], out_rows[:-1], out=bstart[1:])
        return out, np.flatnonzero(bstart)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of queued events across all slices."""
        return int(self._occupancy)
