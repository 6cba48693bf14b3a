"""Unit tests for events and the coalescing queue."""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP
from repro.algorithms.base import AlgorithmKind
from repro.core.config import AcceleratorConfig
from repro.core.events import NO_SOURCE, Event, EventBatch, EventFlags
from repro.core.metrics import RoundWork
from repro.core.policies import DeletePolicy
from repro.core.queue import QueueError, VectorQueue
from repro.oracle import CoalescingQueue


def make_queue(policy=DeletePolicy.DAP, algorithm=None, num_vertices=64, slice_of=None):
    return CoalescingQueue(
        algorithm or SSSP(),
        AcceleratorConfig(),
        policy,
        num_vertices=num_vertices,
        slice_of=slice_of,
    )


class TestEvent:
    def test_flags(self):
        assert Event(0, 1.0, int(EventFlags.DELETE)).is_delete
        assert Event(0, 1.0, int(EventFlags.REQUEST)).is_request
        regular = Event(0, 1.0)
        assert not regular.is_delete and not regular.is_request

    def test_default_source(self):
        assert Event(3, 1.0).source == NO_SOURCE

    def test_size_bytes(self):
        config = AcceleratorConfig()
        event = Event(0, 1.0)
        assert event.size_bytes(config, dap=True) == config.event_bytes_dap
        assert event.size_bytes(config, dap=False) == config.event_bytes_jetstream

    def test_repr_mentions_flags(self):
        assert "DEL" in repr(Event(0, 1.0, 1))
        assert "REQ" in repr(Event(0, 1.0, 2))


class TestRegularCoalescing:
    def test_insert_then_drain(self):
        queue = make_queue()
        work = RoundWork()
        queue.insert(Event(5, 3.0), work)
        batches = queue.drain_round()
        assert [e.target for batch in batches for e in batch] == [5]
        assert not queue.pending()

    def test_coalesce_keeps_dominant(self):
        queue = make_queue()
        work = RoundWork()
        queue.insert(Event(5, 3.0, 0, 1), work)
        queue.insert(Event(5, 7.0, 0, 2), work)
        [batch] = queue.drain_round()
        assert batch[0].payload == 3.0  # min for SSSP
        assert batch[0].source == 1  # dominant contribution's source
        assert queue.total_coalesces == 1

    def test_coalesce_switches_source_when_new_dominates(self):
        queue = make_queue()
        work = RoundWork()
        queue.insert(Event(5, 7.0, 0, 1), work)
        queue.insert(Event(5, 3.0, 0, 2), work)
        [batch] = queue.drain_round()
        assert batch[0].payload == 3.0
        assert batch[0].source == 2

    def test_accumulative_coalesce_sums(self):
        queue = make_queue(algorithm=PageRank())
        work = RoundWork()
        queue.insert(Event(2, 0.5), work)
        queue.insert(Event(2, 0.25), work)
        [batch] = queue.drain_round()
        assert batch[0].payload == pytest.approx(0.75)

    def test_request_flag_survives_coalescing(self):
        queue = make_queue()
        work = RoundWork()
        queue.insert(Event(5, 3.0, int(EventFlags.REQUEST)), work)
        queue.insert(Event(5, 1.0, 0), work)
        [batch] = queue.drain_round()
        assert batch[0].is_request
        assert batch[0].payload == 1.0

    def test_one_event_per_vertex(self):
        queue = make_queue()
        work = RoundWork()
        for payload in (5.0, 4.0, 3.0):
            queue.insert(Event(7, payload), work)
        assert queue.occupancy() == 1

    def test_mixing_delete_and_regular_rejected(self):
        queue = make_queue()
        work = RoundWork()
        queue.insert(Event(5, 3.0), work)
        with pytest.raises(QueueError):
            queue.insert(Event(5, 3.0, int(EventFlags.DELETE)), work)


class TestDeleteCoalescing:
    def test_base_keeps_single_tag(self):
        queue = make_queue(policy=DeletePolicy.BASE)
        work = RoundWork()
        queue.insert(Event(5, 0.0, 1, 1), work)
        queue.insert(Event(5, 0.0, 1, 2), work)
        [batch] = queue.drain_round()
        assert len(batch) == 1

    def test_vap_keeps_most_progressed(self):
        queue = make_queue(policy=DeletePolicy.VAP)
        work = RoundWork()
        queue.insert(Event(5, 9.0, 1, 1), work)
        queue.insert(Event(5, 4.0, 1, 2), work)
        [batch] = queue.drain_round()
        assert batch[0].payload == 4.0  # most progressed for SSSP

    def test_dap_overflow_preserves_all(self):
        queue = make_queue(policy=DeletePolicy.DAP)
        queue.set_delete_coalescing(False)
        work = RoundWork()
        queue.insert(Event(5, 9.0, 1, 1), work)
        queue.insert(Event(5, 4.0, 1, 2), work)
        queue.insert(Event(5, 2.0, 1, 3), work)
        [batch] = queue.drain_round()
        assert len(batch) == 3
        assert {e.source for e in batch} == {1, 2, 3}

    def test_dap_overflow_counts_spill(self):
        queue = make_queue(policy=DeletePolicy.DAP)
        queue.set_delete_coalescing(False)
        work = RoundWork()
        queue.insert(Event(5, 9.0, 1, 1), work)
        queue.insert(Event(5, 4.0, 1, 2), work)
        assert work.spill_bytes == 2 * queue.event_bytes

    def test_reenabling_coalescing(self):
        queue = make_queue(policy=DeletePolicy.DAP)
        queue.set_delete_coalescing(False)
        queue.set_delete_coalescing(True)
        work = RoundWork()
        queue.insert(Event(5, 9.0, 1, 1), work)
        queue.insert(Event(5, 4.0, 1, 2), work)
        [batch] = queue.drain_round()
        assert len(batch) == 1


class TestDraining:
    def test_drain_sorted_by_vertex(self):
        queue = make_queue()
        work = RoundWork()
        for v in (33, 2, 17, 9):
            queue.insert(Event(v, 1.0), work)
        events = [e.target for b in queue.drain_round() for e in b]
        assert events == sorted(events)

    def test_row_batching(self):
        config = AcceleratorConfig()
        queue = make_queue()
        work = RoundWork()
        row = config.queue_row_vertices
        queue.insert(Event(0, 1.0), work)
        queue.insert(Event(1, 1.0), work)
        queue.insert(Event(row, 1.0), work)  # next row
        batches = queue.drain_round()
        assert len(batches) == 2
        assert [e.target for e in batches[0]] == [0, 1]

    def test_drain_empty(self):
        queue = make_queue()
        assert queue.drain_round() == []

    def test_generated_events_go_to_next_round(self):
        queue = make_queue()
        work = RoundWork()
        queue.insert(Event(1, 1.0), work)
        queue.drain_round()
        queue.insert(Event(2, 1.0), work)
        assert queue.pending()

    def test_peak_occupancy_tracked(self):
        queue = make_queue()
        work = RoundWork()
        for v in range(10):
            queue.insert(Event(v, 1.0), work)
        queue.drain_round()
        assert queue.peak_occupancy == 10
        assert queue.occupancy() == 0


class TestSlices:
    def test_cross_slice_spill_accounted(self):
        slice_of = np.array([0] * 32 + [1] * 32)
        queue = make_queue(slice_of=slice_of)
        work = RoundWork()
        queue.insert(Event(0, 1.0), work)  # active slice
        queue.insert(Event(40, 1.0), work)  # inactive slice: off-chip write
        assert work.spill_bytes == queue.event_bytes
        # The matching read-back is charged when the slice activates.
        queue.drain_round()
        assert queue.activate_next_slice(work)
        assert work.spill_bytes == 2 * queue.event_bytes
        # Re-activating later does not double-charge.
        readback = RoundWork()
        queue.activate_next_slice(readback)
        assert readback.spill_bytes == 0

    def test_drain_only_active_slice(self):
        slice_of = np.array([0] * 32 + [1] * 32)
        queue = make_queue(slice_of=slice_of)
        work = RoundWork()
        queue.insert(Event(0, 1.0), work)
        queue.insert(Event(40, 1.0), work)
        drained = [e.target for b in queue.drain_round() for e in b]
        assert drained == [0]
        assert queue.pending()

    def test_activate_next_slice(self):
        slice_of = np.array([0] * 32 + [1] * 32)
        queue = make_queue(slice_of=slice_of)
        work = RoundWork()
        queue.insert(Event(40, 1.0), work)
        assert queue.activate_next_slice()
        assert queue.active_slice == 1
        drained = [e.target for b in queue.drain_round() for e in b]
        assert drained == [40]

    def test_activate_when_all_empty(self):
        queue = make_queue()
        assert not queue.activate_next_slice()

    def test_short_slice_map_rejected(self):
        with pytest.raises(ValueError):
            make_queue(num_vertices=64, slice_of=np.zeros(10, dtype=np.int64))


def make_vector_queue(
    policy=DeletePolicy.DAP, algorithm=None, num_vertices=64, slice_of=None
):
    return VectorQueue(
        algorithm or SSSP(),
        AcceleratorConfig(),
        policy,
        num_vertices=num_vertices,
        slice_of=slice_of,
    )


class TestVectorQueue:
    """The SoA queue must mirror CoalescingQueue behavior exactly."""

    def test_rejects_algorithm_without_ufunc(self):
        class Hookless(SSSP):
            reduce_ufunc = None

        with pytest.raises(QueueError):
            make_vector_queue(algorithm=Hookless())

    def test_batch_coalesce_keeps_dominant_source(self):
        queue = make_vector_queue()
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([5, 5, 5]),
                np.array([7.0, 3.0, 4.0]),
                sources=np.array([1, 2, 3]),
            ),
            work,
        )
        batch, _ = queue.drain_round()
        assert batch.payloads.tolist() == [3.0]
        assert batch.sources.tolist() == [2]  # first event attaining the min
        assert queue.total_coalesces == 2

    def test_accumulative_batch_sums_in_order(self):
        queue = make_vector_queue(algorithm=PageRank())
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays(np.array([2, 2, 2]), np.array([0.5, 0.25, 0.125])),
            work,
        )
        batch, _ = queue.drain_round()
        assert batch.payloads[0] == pytest.approx(0.875)

    def test_request_flag_survives_batch_coalescing(self):
        queue = make_vector_queue()
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays([5], [3.0], int(EventFlags.REQUEST)), work
        )
        queue.insert_batch(EventBatch.from_arrays([5], [1.0]), work)
        batch, _ = queue.drain_round()
        assert batch.flags[0] & int(EventFlags.REQUEST)
        assert batch.payloads[0] == 1.0

    def test_mixing_delete_and_regular_rejected(self):
        queue = make_vector_queue()
        work = RoundWork()
        queue.insert_batch(EventBatch.from_arrays([5], [3.0]), work)
        with pytest.raises(QueueError):
            queue.insert_batch(
                EventBatch.from_arrays([5], [3.0], int(EventFlags.DELETE)), work
            )

    def test_vap_keeps_most_progressed_delete(self):
        queue = make_vector_queue(policy=DeletePolicy.VAP)
        work = RoundWork()
        queue.insert_batch(EventBatch.from_arrays([5], [9.0], 1, 1), work)
        queue.insert_batch(EventBatch.from_arrays([5], [4.0], 1, 2), work)
        batch, _ = queue.drain_round()
        assert len(batch) == 1
        assert batch.payloads[0] == 4.0

    def test_dap_overflow_preserves_all_and_counts_spill(self):
        queue = make_vector_queue(policy=DeletePolicy.DAP)
        queue.set_delete_coalescing(False)
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([5, 5, 5]),
                np.array([9.0, 4.0, 2.0]),
                flags=np.array([1, 1, 1]),
                sources=np.array([1, 2, 3]),
            ),
            work,
        )
        assert work.spill_bytes == 2 * 2 * queue.event_bytes
        batch, _ = queue.drain_round()
        assert len(batch) == 3
        assert set(batch.sources.tolist()) == {1, 2, 3}
        # Coalesced cell drains first, overflow in arrival order.
        assert batch.payloads.tolist() == [9.0, 4.0, 2.0]

    def test_drain_sorted_with_row_starts(self):
        config = AcceleratorConfig()
        queue = make_vector_queue()
        work = RoundWork()
        row = config.queue_row_vertices
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([row, 1, 0]), np.array([1.0, 1.0, 1.0])
            ),
            work,
        )
        batch, row_starts = queue.drain_round()
        assert batch.targets.tolist() == [0, 1, row]
        assert row_starts.tolist() == [0, 2]
        assert queue.occupancy() == 0

    def test_cross_slice_spill_accounted(self):
        slice_of = np.array([0] * 32 + [1] * 32)
        queue = make_vector_queue(slice_of=slice_of)
        work = RoundWork()
        queue.insert_batch(EventBatch.from_arrays([0], [1.0]), work)
        queue.insert_batch(EventBatch.from_arrays([40], [1.0]), work)
        assert work.spill_bytes == queue.event_bytes
        queue.drain_round()
        assert queue.activate_next_slice(work)
        assert work.spill_bytes == 2 * queue.event_bytes
        readback = RoundWork()
        queue.activate_next_slice(readback)
        assert readback.spill_bytes == 0

    def test_drain_only_active_slice(self):
        slice_of = np.array([0] * 32 + [1] * 32)
        queue = make_vector_queue(slice_of=slice_of)
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays(np.array([0, 40]), np.array([1.0, 1.0])), work
        )
        batch, _ = queue.drain_round()
        assert batch.targets.tolist() == [0]
        assert queue.pending()
        assert queue.activate_next_slice(work)
        batch, _ = queue.drain_round()
        assert batch.targets.tolist() == [40]

    def test_grows_for_out_of_range_target(self):
        queue = make_vector_queue(num_vertices=4)
        work = RoundWork()
        queue.insert_batch(EventBatch.from_arrays([9], [2.0]), work)
        batch, _ = queue.drain_round()
        assert batch.targets.tolist() == [9]

    def test_lifetime_stats_shape(self):
        queue = make_vector_queue()
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays(np.array([1, 1, 2]), np.array([3.0, 2.0, 1.0])),
            work,
        )
        queue.drain_round()
        stats = queue.lifetime_stats()
        assert stats["total_inserts"] == 3
        assert stats["total_coalesces"] == 1
        assert stats["peak_occupancy"] == 2
        assert stats["slice_switches"] == 0

    def test_rejected_batch_leaves_queue_untouched(self):
        """A §4.3 violation raises before anything is counted, grown or stored."""
        slice_of = np.array([0] * 32 + [1] * 32)

        def build(**kwargs):
            queue = make_vector_queue(**kwargs)
            queue.set_delete_coalescing(False)
            work = RoundWork()
            queue.insert_batch(
                EventBatch.from_arrays(
                    np.array([5, 40, 5, 9]),
                    np.array([3.0, 2.0, 1.0, 4.0]),
                    flags=np.array([1, 0, 1, 0]),
                    sources=np.array([1, 2, 3, 4]),
                ),
                work,
            )
            return queue, work

        mixed = [
            # regular event onto a delete cell, among acceptable ones
            ([9, 5, 41], [1.0, 1.0, 1.0], [0, 0, 0]),
            # two classes for one previously-empty target
            ([20, 20, 9], [1.0, 1.0, 1.0], [0, 1, 0]),
            # delete overflow + cross-slice spill + a new cell, then the clash
            ([5, 41, 50, 9], [1.0, 1.0, 1.0, 1.0], [1, 0, 0, 1]),
        ]
        for kwargs in ({"slice_of": slice_of}, {"num_vertices": 48}):
            for targets, payloads, flags in mixed:
                if "slice_of" not in kwargs:
                    targets = targets + [200]  # would also have to grow
                    payloads, flags = payloads + [1.0], flags + [0]
                queue, work = build(**kwargs)
                untouched, untouched_work = build(**kwargs)
                with pytest.raises(QueueError):
                    queue.insert_batch(
                        EventBatch.from_arrays(
                            np.array(targets), np.array(payloads), flags=np.array(flags)
                        ),
                        work,
                    )
                assert work == untouched_work
                assert queue.lifetime_stats() == untouched.lifetime_stats()
                assert queue.occupancy() == untouched.occupancy()
                assert queue.num_vertices == untouched.num_vertices
                while queue.pending():
                    assert untouched.pending()
                    if not queue.active_pending():
                        assert queue.activate_next_slice(work)
                        assert untouched.activate_next_slice(untouched_work)
                    got, got_rows = queue.drain_round()
                    want, want_rows = untouched.drain_round()
                    assert _batch_bytes(got) == _batch_bytes(want)
                    assert got_rows.tolist() == want_rows.tolist()
                assert not untouched.pending()
                assert work == untouched_work


def _batch_bytes(batch):
    return (
        batch.targets.tobytes(),
        batch.payloads.tobytes(),
        batch.flags.tobytes(),
        batch.sources.tobytes(),
    )


QUEUES = [
    pytest.param(make_queue, id="oracle"),
    pytest.param(make_vector_queue, id="vector"),
]


def _drained_sources(queue, work):
    drained = queue.drain_round()
    if isinstance(drained, tuple):  # VectorQueue: (batch, row_starts)
        return drained[0].sources.tolist()
    return [event.source for row in drained for event in row]


class TestSourceRule:
    """Events carry a source only under DAP (§5.2)."""

    @pytest.mark.parametrize("make", QUEUES)
    @pytest.mark.parametrize("occupied", [False, True], ids=["empty", "occupied"])
    @pytest.mark.parametrize("algorithm", [SSSP, PageRank], ids=lambda a: a.name)
    @pytest.mark.parametrize(
        "policy", [DeletePolicy.BASE, DeletePolicy.VAP], ids=lambda p: p.name
    )
    def test_base_and_vap_drain_no_source(self, make, occupied, algorithm, policy):
        queue = make(policy, algorithm())
        work = RoundWork()
        if occupied:
            queue.insert_batch(EventBatch.from_arrays([5], [9.0], 0, 9), work)
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([5, 5, 7, 5, 8]),
                np.array([7.0, 3.0, 2.0, 3.0, 1.0]),
                sources=np.array([1, 2, 3, 4, 5]),
            ),
            work,
        )
        assert _drained_sources(queue, work) == [NO_SOURCE] * 3

    @pytest.mark.parametrize("make", QUEUES)
    def test_base_overflow_drains_no_source(self, make):
        queue = make(DeletePolicy.BASE)
        queue.set_delete_coalescing(False)
        work = RoundWork()
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([5, 5]), np.array([9.0, 4.0]), 1, np.array([1, 2])
            ),
            work,
        )
        assert _drained_sources(queue, work) == [NO_SOURCE] * 2

    @pytest.mark.parametrize("make", QUEUES)
    @pytest.mark.parametrize("occupied", [False, True], ids=["empty", "occupied"])
    def test_dap_selective_keeps_first_to_reach_optimum(self, make, occupied):
        queue = make(DeletePolicy.DAP, SSSP())
        work = RoundWork()
        if occupied:
            queue.insert_batch(EventBatch.from_arrays([5], [9.0], 0, 9), work)
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([5, 5, 5, 5, 7]),
                np.array([7.0, 3.0, 4.0, 3.0, 1.0]),
                sources=np.array([1, 2, 3, 4, 5]),
            ),
            work,
        )
        assert _drained_sources(queue, work) == [2, 5]

    @pytest.mark.parametrize("make", QUEUES)
    @pytest.mark.parametrize("occupied", [False, True], ids=["empty", "occupied"])
    def test_dap_accumulative_keeps_last_event(self, make, occupied):
        queue = make(DeletePolicy.DAP, PageRank())
        work = RoundWork()
        if occupied:
            queue.insert_batch(EventBatch.from_arrays([2], [0.5], 0, 9), work)
        queue.insert_batch(
            EventBatch.from_arrays(
                np.array([2, 2, 3, 2]),
                np.array([0.5, 0.25, 1.0, 0.125]),
                sources=np.array([1, 2, 3, 4]),
            ),
            work,
        )
        assert _drained_sources(queue, work) == [4, 3]


class TestVectorQueueDifferential:
    """Seeded fuzz: VectorQueue against CoalescingQueue, insert by insert.

    Whole-engine parity runs only reach the queue through batches a kernel
    generates. This drives it directly with what a sort over targets used
    to hide: long duplicate runs, payload ties from different sources,
    ``-0.0``/``+0.0``/``inf``, all-occupied and all-new batches, overflow
    arrival order across inserts, growth past ``num_vertices``.
    """

    V = 48
    SELECTIVE_POOL = np.array([0.0, -0.0, np.inf, 0.5, 1.0, 1.0, 2.0, 3.0, 7.25])
    ACCUMULATIVE_POOL = np.array([0.125, 0.25, 0.5, 1.0, 1.0, 3.0, 1e-3])

    def _batch(self, rng, pool, targets, delete_of):
        targets = np.asarray(targets, dtype=np.int64)
        k = targets.shape[0]
        return EventBatch.from_arrays(
            targets,
            pool[rng.integers(0, pool.shape[0], k)],
            flags=delete_of(targets) | (2 * (rng.random(k) < 0.2)),
            sources=rng.integers(0, 10_000, k),
        )

    def _drain_both(self, scalar, vector, works, compare_sources):
        if not scalar.active_pending():
            moved = scalar.activate_next_slice(works[0])
            assert vector.activate_next_slice(works[1]) == moved
        rows = scalar.drain_round()
        got, row_starts = vector.drain_round()
        want = EventBatch.from_events([event for row in rows for event in row])
        if not compare_sources:
            want.sources = got.sources
        assert _batch_bytes(got) == _batch_bytes(want)
        assert np.diff(np.append(row_starts, len(got))).tolist() == [
            len(row) for row in rows
        ]
        self._assert_empty_cells_reset(vector)

    @staticmethod
    def _assert_empty_cells_reset(vector):
        """An empty cell holds no flags and, accumulative, exactly -0.0."""
        empty = ~vector._occupied
        assert not vector._flags[empty].any()
        if vector.algorithm.kind is AlgorithmKind.ACCUMULATIVE:
            payloads = vector._payloads[empty]
            assert payloads.tobytes() == np.full_like(payloads, -0.0).tobytes()

    @pytest.mark.parametrize("sliced", [False, True], ids=["grow", "sliced"])
    @pytest.mark.parametrize("coalescing", [True, False], ids=["coalesce", "overflow"])
    @pytest.mark.parametrize(
        "policy",
        [DeletePolicy.BASE, DeletePolicy.VAP, DeletePolicy.DAP],
        ids=lambda p: p.name,
    )
    @pytest.mark.parametrize("algorithm", [SSSP, PageRank], ids=lambda a: a.name)
    def test_matches_scalar_queue(self, algorithm, policy, coalescing, sliced):
        selective = algorithm is SSSP
        rng = np.random.default_rng(
            [selective, len(policy.name), ord(policy.name[0]), coalescing, sliced]
        )
        pool = self.SELECTIVE_POOL if selective else self.ACCUMULATIVE_POOL
        slice_of = rng.integers(0, 3, self.V) if sliced else None
        scalar = make_queue(policy, algorithm(), self.V, slice_of)
        vector = make_vector_queue(policy, algorithm(), self.V, slice_of)
        for queue in (scalar, vector):
            queue.set_delete_coalescing(coalescing)
        works = (RoundWork(), RoundWork())
        limit = self.V if sliced else self.V + 40  # past V: forces _grow

        def insert(targets, delete_of, special=False):
            batch = self._batch(rng, pool, targets, delete_of)
            if special:
                # ±0.0 and inf leave a sum unchanged, where the scalar queue
                # keeps the older source (see VectorQueue._fold).
                third = batch.payloads[::3]
                third[:] = rng.choice(self.SELECTIVE_POOL[:3], third.shape[0])
            scalar.insert_batch(batch, works[0])
            vector.insert_batch(batch, works[1])
            assert works[0] == works[1]
            assert scalar.lifetime_stats() == vector.lifetime_stats()
            assert scalar.occupancy() == vector.occupancy()

        def drain_all(compare_sources=True):
            while scalar.pending():
                self._drain_both(scalar, vector, works, compare_sources)
            assert not vector.pending()

        for phase in range(12):
            # One class per target until the queue is empty again (§4.3):
            # all regular, all delete, or split by target id.
            delete_of = (np.zeros_like, np.ones_like, lambda t: t % 2)[phase % 3]
            distinct = rng.permutation(limit)[: rng.integers(1, limit)]
            insert(distinct, delete_of)  # all new
            insert(distinct, delete_of)  # all already occupied, one event each
            insert(np.repeat(distinct[:3], 2), delete_of)  # overflow arrival order
            for _ in range(6):
                k = int(rng.integers(1, 80))
                hot = rng.integers(0, limit, 4)
                cold = rng.integers(0, limit, k)
                targets = np.where(rng.random(k) < 0.5, rng.choice(hot, k), cold)
                insert(targets, delete_of)  # onto the cells of earlier inserts
            # ≥1000 duplicates of one target, between other targets' events
            run = np.full(1200, int(distinct[0]))
            run[rng.integers(0, 1200, 100)] = rng.integers(0, limit, 100)
            insert(run, delete_of)
            drain_all()
            if not selective:
                insert(rng.integers(0, limit, 200), delete_of, special=True)
                drain_all(compare_sources=False)
        assert works[0] == works[1]
        assert scalar.lifetime_stats() == vector.lifetime_stats()

    @pytest.mark.parametrize("sliced", [False, True], ids=["grow", "sliced"])
    @pytest.mark.parametrize(
        "policy",
        [DeletePolicy.BASE, DeletePolicy.VAP, DeletePolicy.DAP],
        ids=lambda p: p.name,
    )
    @pytest.mark.parametrize("algorithm", [SSSP, PageRank], ids=lambda a: a.name)
    def test_empty_queue_matches_scalar_queue(self, algorithm, policy, sliced):
        """Regular batches with duplicates, ties and request flags, each
        inserted right after a full drain (the empty-queue path when the
        queue is unsliced and needs no growth)."""
        selective = algorithm is SSSP
        rng = np.random.default_rng([selective, ord(policy.name[0]), sliced, 7])
        pool = self.SELECTIVE_POOL if selective else self.ACCUMULATIVE_POOL
        slice_of = rng.integers(0, 3, self.V) if sliced else None
        scalar = make_queue(policy, algorithm(), self.V, slice_of)
        vector = make_vector_queue(policy, algorithm(), self.V, slice_of)
        works = (RoundWork(), RoundWork())
        limit = self.V if sliced else self.V + 40
        empty_inserts = []
        insert_into_empty = vector._insert_into_empty

        def spy(batch, work):
            empty_inserts.append(len(batch))
            insert_into_empty(batch, work)

        vector._insert_into_empty = spy
        # A sum that an event leaves unchanged keeps the scalar queue's
        # older source but not the array queue's (see VectorQueue._fold).
        compare_sources = selective or policy is not DeletePolicy.DAP

        def insert_after_drain(targets, ties=False, requests=True):
            while scalar.pending():
                self._drain_both(scalar, vector, works, compare_sources)
            assert not vector.pending()
            batch = self._batch(rng, pool, targets, np.zeros_like)
            if ties:
                third = batch.payloads[::3]
                third[:] = rng.choice(self.SELECTIVE_POOL[:3], third.shape[0])
            if not requests:
                batch.flags[:] = 0
            scalar.insert_batch(batch, works[0])
            vector.insert_batch(batch, works[1])
            assert works[0] == works[1]
            assert scalar.lifetime_stats() == vector.lifetime_stats()
            assert scalar.occupancy() == vector.occupancy()

        for _ in range(6):
            hot = int(rng.integers(0, limit))
            # ≥1000 duplicates of one target, between other targets' events
            run = np.full(1200, hot)
            run[rng.integers(0, 1200, 100)] = rng.integers(0, limit, 100)
            insert_after_drain(run)
            insert_after_drain(run, ties=True)
            insert_after_drain(rng.integers(0, limit, 200), ties=True)
            insert_after_drain(rng.integers(0, 8, 60), requests=False)
        while scalar.pending():
            self._drain_both(scalar, vector, works, compare_sources)
        assert works[0] == works[1]
        assert scalar.lifetime_stats() == vector.lifetime_stats()
        if sliced:
            assert not empty_inserts
        else:
            assert len(empty_inserts) >= 20

    @pytest.mark.parametrize(
        "policy",
        [DeletePolicy.BASE, DeletePolicy.VAP, DeletePolicy.DAP],
        ids=lambda p: p.name,
    )
    @pytest.mark.parametrize("algorithm", [SSSP, PageRank], ids=lambda a: a.name)
    def test_engine_batches_match_scalar_queue(self, algorithm, policy):
        """Regular batches in the form the engine generates — flags one
        stride-0 zero, sources only under DAP — into empty queues, queues
        left holding the previous step's cells, and queues holding
        request-flagged cells, with ±0.0 payloads and growth."""
        selective = algorithm is SSSP
        dap = policy is DeletePolicy.DAP
        rng = np.random.default_rng([selective, ord(policy.name[0]), 11])
        pool = np.concatenate(
            [
                [0.0, -0.0, -0.0],
                self.SELECTIVE_POOL if selective else self.ACCUMULATIVE_POOL,
            ]
        )
        scalar = make_queue(policy, algorithm(), self.V)
        vector = make_vector_queue(policy, algorithm(), self.V)
        works = (RoundWork(), RoundWork())
        # A sum that an event leaves unchanged keeps the scalar queue's
        # older source but not the array queue's (see VectorQueue._fold).
        compare_sources = selective or not dap
        limit = self.V + 16  # past V: the first such batch grows the queue

        def insert(batch):
            scalar.insert_batch(batch, works[0])
            vector.insert_batch(batch, works[1])
            assert works[0] == works[1]
            assert scalar.lifetime_stats() == vector.lifetime_stats()
            assert scalar.occupancy() == vector.occupancy()

        def engine_batch(targets):
            k = targets.shape[0]
            sources = rng.integers(0, 10_000, k) if dap else None
            batch = EventBatch.from_arrays(
                targets, pool[rng.integers(0, pool.shape[0], k)], 0, sources
            )
            assert batch.plain and batch.flags.strides == (0,)
            assert dap or batch.sources.strides == (0,)
            return batch

        def drain():
            self._drain_both(scalar, vector, works, compare_sources)

        def cells():
            cells = (vector._flags, vector._payloads, vector._occupied)
            return [cell.tobytes() for cell in cells]

        for step in range(60):
            if rng.random() < 0.3:  # request-flagged cells to coalesce into
                flagged = rng.integers(0, self.V, 20)
                insert(self._batch(rng, pool, flagged, np.zeros_like))
            hot = rng.integers(0, limit, 3)
            k = int(rng.integers(1, 300))
            cold = rng.integers(0, limit if step > 20 else self.V, k)
            targets = np.where(rng.random(k) < 0.5, rng.choice(hot, k), cold)
            insert(engine_batch(targets))
            if rng.random() >= 0.5:  # else the next step meets these cells
                while scalar.pending():
                    drain()
            if step % 10 == 9:
                # A plain batch meeting a delete cell is refused whole (§4.3).
                while scalar.pending():
                    drain()
                delete = self._batch(rng, pool, np.arange(0, 8), np.ones_like)
                insert(delete)
                before = cells()
                work = RoundWork()
                with pytest.raises(QueueError):
                    vector.insert_batch(engine_batch(np.arange(4, 20)), work)
                assert work == RoundWork()
                assert cells() == before
                while scalar.pending():
                    drain()
        assert vector._occupied.shape[0] == limit
        assert works[0] == works[1]
        assert scalar.lifetime_stats() == vector.lifetime_stats()
