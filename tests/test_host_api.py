"""Tests for the host-side co-processor API (§4.1) and the NoC model."""

import math

import numpy as np
import pytest

from repro import reference
from repro.core.config import AcceleratorConfig
from repro.core.policies import DeletePolicy
from repro.host import Accelerator, HostApiError
from repro.sim.noc import CrossbarModel
from repro.sim.timing import AcceleratorTimingModel


EDGES = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 9.0), (2, 3, 1.0)]


class TestSessionLifecycle:
    def test_full_protocol(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        states = session.read_results()
        assert list(states) == [0.0, 2.0, 5.0, 6.0]

    def test_streaming_round_trip(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.push_updates(insertions=[(3, 1, 1.0)], deletions=[(0, 1)])
        result = session.run()
        expected = reference.sssp(session.graph.snapshot(), 0)
        assert np.array_equal(result.states, expected)

    def test_run_before_configure_rejected(self):
        session = Accelerator().load_graph(EDGES)
        with pytest.raises(HostApiError):
            session.run()

    def test_push_before_configure_rejected(self):
        """Regression: the batch used to be staged, and then run() and
        configure() both refused for good (a wedged session)."""
        session = Accelerator().load_graph(EDGES)
        records = session.transfer_stats().update_records
        with pytest.raises(HostApiError, match="configure"):
            session.push_updates(insertions=[(3, 0, 1.0)])
        assert session.transfer_stats().update_records == records
        session.configure("sssp", source=0)
        session.run()
        session.push_updates(insertions=[(3, 0, 1.0)])
        session.run()

    def test_read_before_run_rejected(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp")
        with pytest.raises(HostApiError):
            session.read_results()

    def test_second_run_needs_staged_batch(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp")
        session.run()
        with pytest.raises(HostApiError):
            session.run()

    def test_double_stage_rejected(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp")
        session.run()
        session.push_updates(insertions=[(3, 0, 1.0)])
        with pytest.raises(HostApiError):
            session.push_updates(insertions=[(3, 1, 1.0)])

    def test_cc_requires_symmetric_load(self):
        session = Accelerator().load_graph(EDGES)
        with pytest.raises(HostApiError):
            session.configure("cc")

    def test_symmetric_load(self):
        session = Accelerator().load_graph(EDGES, symmetric=True)
        session.configure("cc")
        session.run()
        assert set(session.read_results()) == {0.0}

    def test_sessions_tracked(self):
        accel = Accelerator()
        accel.load_graph(EDGES)
        accel.load_graph(EDGES)
        assert len(accel.sessions) == 2

    def test_reconfigure_after_run_starts_fresh_query(self):
        """Regression: configure() after a completed run used to leave
        _last_result stale, so the next run() demanded a staged batch for
        an engine that never ran initial_compute()."""
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.configure("bfs", source=0)
        result = session.run()  # must be an initial evaluation, not a batch
        expected = reference.bfs(session.graph.snapshot(), 0)
        assert np.array_equal(result.states, expected)

    def test_reconfigure_resets_read_results(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.read_results()
        session.configure("bfs", source=0)
        with pytest.raises(HostApiError):
            session.read_results()  # new query has not run yet
        session.run()
        states = session.read_results()
        assert np.array_equal(states, reference.bfs(session.graph.snapshot(), 0))

    def test_reconfigure_with_staged_batch_rejected(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.push_updates(insertions=[(3, 0, 1.0)])
        with pytest.raises(HostApiError, match="staged"):
            session.configure("bfs", source=0)

    def test_empty_batch_is_legal(self):
        """An empty push_updates() batch runs and changes nothing."""
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        before = session.run().states.copy()
        session.push_updates()
        result = session.run()
        assert np.array_equal(result.states, before)
        assert session.graph.version == 1


class TestArrayBatches:
    """One batch type from push_updates to the store, and what it refuses."""

    PATH = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]

    def _session(self, edges=EDGES, algorithm="sssp", symmetric=False):
        session = Accelerator().load_graph(edges, symmetric=symmetric)
        session.configure(algorithm, source=0)
        session.run()
        return session

    def test_arrays_and_tuples_are_the_same_batch(self):
        batches = [
            ([(3, 1, 1.0), (2, 0, 4.0)], [(0, 1)]),
            ([(0, 2, 7.0)], [(0, 2), (2, 3)]),  # a weight change
            ([(3, 2, 1.0), (1, 2, 3.0)], [(1, 2)]),  # a no-op re-insert
        ]
        runs = []
        for as_arrays in (False, True):
            session = self._session()
            states = []
            for ins, dels in batches:
                if as_arrays:
                    ins = np.array(ins, dtype=np.float64).reshape(-1, 3)
                    dels = np.array(dels, dtype=np.int64).reshape(-1, 2)
                session.push_updates(insertions=ins, deletions=dels)
                states.append(session.run().states.tobytes())
            stats = session.transfer_stats()
            runs.append(
                (
                    states,
                    (stats.graph_uploads, stats.update_records, stats.results_read),
                    session.graph_store_stats(),
                )
            )
        assert runs[0] == runs[1]

    def test_refused_symmetric_batch_leaves_session_untouched(self):
        """Regression: a mirrored insert pair passed the per-edge checks,
        the delete phase ran, and the store raised halfway — 0–3 added,
        1–2 removed, version 0, and states reset to inf."""
        session = self._session(self.PATH, "cc", symmetric=True)
        before = session.read_results()
        edges_before = sorted(session.graph.edges())
        session.push_updates(insertions=[(0, 3, 1.0), (3, 0, 1.0)], deletions=[(1, 2)])
        with pytest.raises(ValueError, match="twice"):
            session.run()
        assert sorted(session.graph.edges()) == edges_before
        assert session.graph.version == 0
        np.testing.assert_array_equal(session.read_results(), before)
        # The next write applies on the intact state.
        session.push_updates(deletions=[(1, 2)])
        result = session.run()
        np.testing.assert_array_equal(
            result.states, reference.connected_components(session.graph.snapshot())
        )

    def test_refused_store_batch_deletes_nothing(self):
        """Regression: ``apply_batch`` deleted 0->1 before finding 5->6
        missing."""
        from repro.graph.dynamic import DynamicGraph, GraphMutationError

        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], 3)
        with pytest.raises(GraphMutationError, match="missing edge 5->6"):
            graph.apply_batch([(2, 0, 1.0)], [(0, 1), (5, 6)])
        assert sorted(graph.edges()) == [(0, 1, 1.0), (1, 2, 2.0)]
        assert graph.has_edge(0, 1) and not graph.has_edge(2, 0)
        assert graph.version == 0

    @pytest.mark.parametrize(
        "insertions, deletions",
        [
            ([(1.7, 3, 1.0)], []),
            ([(1, 3.5, 1.0)], []),
            ([(-1, 3, 1.0)], []),
            ([], [(0.5, 1)]),
            ([], [(-2, 1)]),
            (np.array([[True, False, True]]), []),
            ([], np.array([[True, True]])),
        ],
        ids=[
            "float-u",
            "float-v",
            "negative",
            "float-del",
            "negative-del",
            "bool-rows",
            "bool-keys",
        ],
    )
    def test_non_integer_vertex_ids_rejected(self, insertions, deletions):
        """Regression: ``(1.7, 3)`` was stored as dict key ``(1.7, 3)``
        while the CSR got edge 1->3, so ``has_edge(1, 3)`` was False for
        an edge the engine converged over."""
        session = self._session()
        with pytest.raises(ValueError, match="vertex id"):
            session.push_updates(insertions=insertions, deletions=deletions)
        # Nothing was staged: the session takes the next batch.
        session.push_updates(insertions=[(1, 3, 1.0)])
        session.run()
        assert session.graph.has_edge(1, 3)

    def test_integral_float_ids_are_ids(self):
        session = self._session()
        session.push_updates(insertions=np.array([[1.0, 3.0, 0.5]]))
        session.run()
        assert session.graph.has_edge(1, 3)
        assert list(session.read_results()) == [0.0, 2.0, 5.0, 2.5]

    @pytest.mark.parametrize("u", [1.7, -1, True])
    def test_express_update_ids_checked(self, u):
        session = self._session()
        with pytest.raises(ValueError, match="vertex id"):
            session.apply_update(u, 3, 0.5)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_refused(self, w):
        """Regression: an express insert at NaN left ``states[3] = nan``,
        and no later insert repaired it (NaN never compares better)."""
        session = self._session()
        with pytest.raises(ValueError, match="not finite"):
            session.apply_update(0, 3, w)
        with pytest.raises(ValueError, match="not finite"):
            session.push_updates(insertions=[(0, 3, w)])
        with pytest.raises(ValueError, match="not finite"):
            session.graph.add_edge(0, 3, w)
        assert not session.graph.has_edge(0, 3)
        assert list(session.read_results()) == [0.0, 2.0, 5.0, 6.0]
        assert session.apply_update(1, 3, 0.5).safe
        assert list(session.read_results()) == [0.0, 2.0, 5.0, 2.5]

    @pytest.mark.parametrize("w", ["abc", [1], True, None])
    def test_non_numeric_express_weights_refused(self, w):
        session = self._session()
        with pytest.raises(ValueError, match="not a number"):
            session.apply_update(0, 3, w)
        assert not session.graph.has_edge(0, 3)


class TestExpressLaneProtocol:
    def test_apply_update_before_configure_rejected(self):
        session = Accelerator().load_graph(EDGES)
        with pytest.raises(HostApiError, match="configure"):
            session.apply_update(0, 3, 1.0)

    def test_apply_update_before_initial_run_rejected(self):
        """Regression: the lane classifies against a *converged* state, so
        a configured-but-never-run session must refuse with a clear error
        instead of reading uninitialized state arrays."""
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        with pytest.raises(HostApiError, match="run\\(\\) the initial evaluation"):
            session.apply_update(0, 3, 1.0)
        # The refusal left the protocol intact: run() still works.
        session.run()
        assert list(session.read_results()) == [0.0, 2.0, 5.0, 6.0]

    def test_apply_update_cannot_overtake_staged_batch(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.push_updates(insertions=[(3, 0, 1.0)])
        with pytest.raises(HostApiError, match="staged"):
            session.apply_update(0, 3, 1.0)

    def test_safe_update_applies_without_engine_run(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        result = session.apply_update(1, 3, 0.5, "insert")
        assert result.safe and result.reason == "insert-local-improvement"
        assert result.state_updates == ((3, 2.5),)
        assert list(session.read_results()) == [0.0, 2.0, 5.0, 2.5]
        assert session.express_stats()["safe_applied"] == 1
        assert session.express_stats()["engine_fallthroughs"] == 0
        # Express states match a full incremental run's answer.
        expected = reference.sssp(session.graph.snapshot(), 0)
        assert np.array_equal(session.read_results(), expected)

    def test_unsafe_update_falls_through_to_engine(self):
        session = Accelerator().load_graph(EDGES)
        # VAP keeps no dependency tree, so the lane cannot repair a
        # load-bearing delete locally: it runs as a one-edge batch.
        session.configure("sssp", source=0, policy=DeletePolicy.VAP)
        session.run()
        result = session.apply_update(0, 1, op="delete")
        assert not result.safe
        assert result.engine_result is not None
        assert session.last_result is result.engine_result
        assert session.express_stats()["engine_fallthroughs"] == 1
        expected = reference.sssp(session.graph.snapshot(), 0)
        assert np.array_equal(session.read_results(), expected)

    def test_reconfigure_drops_the_lane(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.apply_update(1, 3, 0.5, "insert")
        session.configure("bfs", source=0)
        assert session.express_stats() == {
            "safe_applied": 0,
            "engine_fallthroughs": 0,
            "resyncs": 0,
            "local_repairs": 0,
        }
        with pytest.raises(HostApiError, match="run\\(\\) the initial evaluation"):
            session.apply_update(0, 3, 1.0)

    def test_fallthrough_transfers_match_batch_path(self):
        """Regression: the engine fallthrough swaps a fresh CSR exactly
        like run() but used to skip run()'s per-batch ``graph_uploads``
        record, so the same update was accounted differently depending on
        which path executed it."""
        from repro.graph.csr import EDGE_ENTRY_BYTES

        express = Accelerator().load_graph(EDGES)
        express.configure("sssp", source=0, policy=DeletePolicy.VAP)
        express.run()
        batch = Accelerator().load_graph(EDGES)
        batch.configure("sssp", source=0, policy=DeletePolicy.VAP)
        batch.run()

        before_express = express.transfer_stats().graph_uploads
        before_batch = batch.transfer_stats().graph_uploads
        result = express.apply_update(0, 1, op="delete")  # load-bearing
        assert not result.safe and result.engine_result is not None
        batch.push_updates(deletions=[(0, 1)])
        batch.run()

        delta_express = express.transfer_stats().graph_uploads - before_express
        delta_batch = batch.transfer_stats().graph_uploads - before_batch
        assert delta_express == delta_batch == 2 * EDGE_ENTRY_BYTES

    def test_express_updates_counted_as_transfers(self):
        config = AcceleratorConfig()
        session = Accelerator(config).load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.apply_update(1, 3, 0.5, "insert")
        session.apply_update(0, 3, 9.0, "insert")
        stats = session.transfer_stats()
        assert stats.update_records == 2 * config.stream_record_bytes


class TestSessionClose:
    def test_close_deregisters_from_accelerator(self):
        """Regression: close() used to leave the session in
        ``Accelerator.sessions`` forever — a leak for any long-running
        host that opens and closes many sessions."""
        accelerator = Accelerator()
        session = accelerator.load_graph(EDGES)
        assert accelerator.sessions == [session]
        session.close()
        assert accelerator.sessions == []
        assert session.closed

    def test_close_is_idempotent(self):
        session = Accelerator().load_graph(EDGES)
        session.close()
        session.close()  # second close is a no-op, not an error
        assert session.closed

    def test_accelerator_close_tolerates_already_closed_sessions(self):
        accelerator = Accelerator()
        first = accelerator.load_graph(EDGES)
        second = accelerator.load_graph(EDGES)
        first.close()
        accelerator.close()  # must not trip over the deregistered session
        assert second.closed
        assert accelerator.sessions == []

    def test_closed_session_refuses_configure(self):
        session = Accelerator().load_graph(EDGES)
        session.close()
        with pytest.raises(HostApiError, match="closed"):
            session.configure("sssp", source=0)

    def test_closed_session_refuses_push_and_read(self):
        """Regression: a closed session accepted (and counted) a batch,
        and read_results() died with an AttributeError."""
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        session.run()
        session.close()
        records = session.transfer_stats().update_records
        with pytest.raises(HostApiError, match="closed"):
            session.push_updates(insertions=[(3, 0, 1.0)])
        assert session.transfer_stats().update_records == records
        with pytest.raises(HostApiError, match="closed"):
            session.read_results()


class TestExpressStatsShape:
    def test_laneless_stats_match_lane_keys(self):
        """Regression: the lane-less zero dict was hardcoded and could
        silently drift from ``ExpressLane.stats`` when a counter is
        added; both now derive from ``EXPRESS_STAT_KEYS``."""
        from repro.core.fastpath import EXPRESS_STAT_KEYS

        session = Accelerator().load_graph(EDGES)
        session.configure("sssp", source=0)
        assert set(session.express_stats()) == set(EXPRESS_STAT_KEYS)
        session.run()
        session.apply_update(1, 3, 0.5, "insert")  # instantiates the lane
        assert set(session.express_stats()) == set(EXPRESS_STAT_KEYS)
        assert set(session._express.stats) == set(EXPRESS_STAT_KEYS)


class TestTransferAccounting:
    def test_upload_counted(self):
        session = Accelerator().load_graph(EDGES)
        stats = session.transfer_stats()
        assert stats.graph_uploads > 0
        assert stats.update_records == 0

    def test_batch_and_readback_counted(self):
        config = AcceleratorConfig()
        session = Accelerator(config).load_graph(EDGES)
        session.configure("sssp")
        session.run()
        session.push_updates(insertions=[(3, 0, 1.0)])
        session.run()
        session.read_results()
        stats = session.transfer_stats()
        assert stats.update_records == config.stream_record_bytes
        assert stats.results_read == 4 * 8
        assert stats.total == (
            stats.graph_uploads + stats.update_records + stats.results_read
        )

    def test_empty_batch_transfers_nothing(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp")
        session.run()
        session.push_updates()
        session.run()
        assert session.transfer_stats().update_records == 0

    def test_deletion_only_batch_counted(self):
        """Deletion records cross the bus like insertions do."""
        config = AcceleratorConfig()
        session = Accelerator(config).load_graph(EDGES)
        session.configure("sssp")
        session.run()
        session.push_updates(deletions=[(0, 1), (2, 3)])
        session.run()
        stats = session.transfer_stats()
        assert stats.update_records == 2 * config.stream_record_bytes

    def test_transfer_stats_accumulate_across_reconfigure(self):
        session = Accelerator().load_graph(EDGES)
        session.configure("sssp")
        session.run()
        session.read_results()
        read_before = session.transfer_stats().results_read
        session.configure("bfs")
        session.run()
        session.read_results()
        assert session.transfer_stats().results_read == 2 * read_before


class TestCrossbarModel:
    def test_flits_scale_with_event_size(self):
        config = AcceleratorConfig(noc_flit_bytes=8)
        wide = CrossbarModel(config, event_bytes=14)
        narrow = CrossbarModel(config, event_bytes=8)
        assert wide.flits_per_event > narrow.flits_per_event

    def test_contention_factor_above_one(self):
        model = CrossbarModel(AcceleratorConfig())
        estimate = model.round_cycles(5000)
        assert estimate.contention_factor > 1.0

    def test_contention_shrinks_with_load(self):
        """Relative imbalance falls as the per-port load grows."""
        model = CrossbarModel(AcceleratorConfig())
        light = model.round_cycles(100).contention_factor
        heavy = model.round_cycles(1_000_000).contention_factor
        assert heavy < light

    def test_zero_events(self):
        estimate = CrossbarModel(AcceleratorConfig()).round_cycles(0)
        assert estimate.flits == 0
        assert estimate.contention_factor == 1.0

    def test_timing_model_contention_slower(self):
        from repro.core.metrics import RunMetrics

        metrics = RunMetrics()
        phase = metrics.phase("reevaluation")
        work = phase.new_round()
        work.queue_inserts = 100_000
        flat = AcceleratorTimingModel().run_time(metrics)
        contended = AcceleratorTimingModel(model_noc_contention=True).run_time(metrics)
        assert contended.total_cycles >= flat.total_cycles
