"""JetStream streaming tests for selective algorithms (Algorithm 4/5)."""

import gc
import math
import weakref

import numpy as np
import pytest

from repro import reference
from repro.algorithms import make_algorithm
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph.dynamic import DynamicGraph
from repro.streams import Edge, StreamGenerator, UpdateBatch

from conftest import assert_states_match, make_graph_for

POLICIES = [DeletePolicy.BASE, DeletePolicy.VAP, DeletePolicy.DAP]
SELECTIVE = ["sssp", "sswp", "bfs", "cc"]


def check_against_reference(engine, context=""):
    algorithm = engine.algorithm
    expected = reference.compute_reference(algorithm, engine.graph.snapshot())
    assert_states_match(algorithm, engine.states, expected, context)


class TestRandomStreams:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", SELECTIVE)
    def test_streaming_matches_recompute(self, name, policy):
        algorithm = make_algorithm(name, source=0)
        graph = make_graph_for(algorithm, n=50, m=200, seed=21)
        engine = JetStreamEngine(graph, algorithm, policy=policy)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=22, insertion_ratio=0.6)
        for i in range(4):
            engine.apply_batch(stream.next_batch(12))
            check_against_reference(engine, f"{name}/{policy}/batch{i}")

    @pytest.mark.parametrize("ratio", [0.0, 0.3, 1.0])
    def test_compositions(self, ratio):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, seed=23)
        engine = JetStreamEngine(graph, algorithm)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=24)
        for _ in range(3):
            engine.apply_batch(stream.next_batch(10, insertion_ratio=ratio))
            check_against_reference(engine)


class TestDeletionScenarios:
    def test_delete_bridge_disconnects(self):
        """Deleting the only path leaves downstream unreachable (identity)."""
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(0, 1)]))
        assert result.states[1] == math.inf
        assert result.states[2] == math.inf

    @pytest.mark.parametrize("policy", POLICIES)
    def test_delete_edge_into_root_restores_root(self, policy):
        """The root's value comes from an initial event; resetting it must
        not lose it (self-event re-injection)."""
        graph = DynamicGraph.from_edges([(1, 0, 1.0), (0, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0), policy=policy)
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(1, 0)]))
        assert result.states[0] == 0.0
        assert result.states[2] == 1.0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cc_component_split(self, policy):
        """Deleting the bridge splits a component; the split-off side must
        rediscover its own minimum label."""
        graph = DynamicGraph.from_edges(
            [(u, u + 1, 1.0) for u in range(5)], 6, symmetric=True
        )
        engine = JetStreamEngine(graph, make_algorithm("cc"), policy=policy)
        engine.initial_compute()
        assert set(engine.states) == {0.0}
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(2, 3)]))
        assert list(result.states[:3]) == [0.0, 0.0, 0.0]
        assert list(result.states[3:]) == [3.0, 3.0, 3.0]

    def test_delete_and_reroute(self):
        """After deleting the best path, the next-best path takes over."""
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 5.0), (2, 3, 5.0)], 4
        )
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        assert engine.states[3] == 2.0
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(1, 3)]))
        assert result.states[3] == 10.0

    def test_cyclic_stale_value_collapses(self):
        """A cycle fed only through a deleted edge must fully reset —
        the classic case where naive recovery leaves a self-supporting
        stale loop (paper Fig. 2)."""
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)], 4
        )
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(0, 1)]))
        assert all(math.isinf(result.states[v]) for v in (1, 2, 3))

    def test_weight_change_idiom(self):
        """Weight modification = deletion + insertion in one batch (§2.1)."""
        graph = DynamicGraph.from_edges([(0, 1, 10.0)], 2)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(
            UpdateBatch(insertions=[Edge(0, 1, 3.0)], deletions=[Edge(0, 1)])
        )
        assert result.states[1] == 3.0


class TestInsertionScenarios:
    def test_insertion_improves_downstream(self):
        graph = DynamicGraph.from_edges([(0, 1, 10.0), (1, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(0, 2, 2.0)]))
        assert result.states[2] == 2.0

    def test_insertion_reaches_unreachable(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("bfs", source=0))
        engine.initial_compute()
        assert engine.states[2] == math.inf
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(1, 2, 1.0)]))
        assert result.states[2] == 2.0

    def test_insertion_creates_vertex(self):
        """Vertex addition modelled as the first edge to the vertex (§2.1)."""
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(1, 5, 2.0)]))
        assert len(result.states) == 6
        assert result.states[5] == 3.0
        assert math.isinf(result.states[4])

    def test_monotonic_stop(self):
        """An insertion worse than existing paths changes nothing (Fig 4b)."""
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(1, 2, 50.0)]))
        assert result.states[2] == 1.0
        assert result.vertices_reset == 0


class TestPolicyBehaviour:
    def _run_deletion(self, policy):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=60, m=260, seed=31)
        engine = JetStreamEngine(graph, algorithm, policy=policy)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=32)
        return engine.apply_batch(stream.next_batch(20, insertion_ratio=0.0))

    def test_base_resets_most(self):
        resets = {p: self._run_deletion(p).vertices_reset for p in POLICIES}
        assert resets[DeletePolicy.BASE] >= resets[DeletePolicy.VAP]
        assert resets[DeletePolicy.BASE] >= resets[DeletePolicy.DAP]

    def test_policies_agree_on_result(self):
        states = [self._run_deletion(p).states for p in POLICIES]
        assert np.array_equal(states[0], states[1])
        assert np.array_equal(states[1], states[2])

    def test_dap_tracks_dependency(self):
        algorithm = make_algorithm("sssp", source=0)
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, algorithm, policy=DeletePolicy.DAP)
        engine.initial_compute()
        assert engine.core.dependency[1] == 0
        assert engine.core.dependency[2] == 1

    def test_vap_spares_more_progressed_receiver(self):
        """VAP: a delete arriving with a less progressed value than the
        receiver's state is discarded (§5.1)."""
        # 3 has two paths: via 1 (cost 2) and via 2 (cost 10).
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (0, 2, 5.0), (1, 3, 1.0), (2, 3, 5.0)], 4
        )
        engine = JetStreamEngine(
            graph, make_algorithm("sssp", source=0), policy=DeletePolicy.VAP
        )
        engine.initial_compute()
        # Deleting 2->3 contributes value 10 to vertex 3 whose state is 2.
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(2, 3)]))
        assert result.vertices_reset == 0
        assert result.states[3] == 2.0


class TestApiContracts:
    @pytest.fixture
    def engine(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        return JetStreamEngine(graph, make_algorithm("sssp", source=0))

    def test_apply_before_initial_rejected(self, engine):
        with pytest.raises(RuntimeError):
            engine.apply_batch(UpdateBatch(insertions=[Edge(1, 0, 1.0)]))

    def test_missing_deletion_rejected(self, engine):
        engine.initial_compute()
        with pytest.raises(ValueError):
            engine.apply_batch(UpdateBatch(deletions=[Edge(1, 0)]))

    def test_duplicate_insertion_rejected(self, engine):
        engine.initial_compute()
        with pytest.raises(ValueError):
            engine.apply_batch(UpdateBatch(insertions=[Edge(0, 1, 2.0)]))

    def test_cc_requires_symmetric_graph(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        with pytest.raises(ValueError):
            JetStreamEngine(graph, make_algorithm("cc"))

    def test_results_are_not_retained(self, engine):
        """A long-lived session must not pin a state copy per batch."""
        batch = UpdateBatch(insertions=[Edge(1, 0, 1.0)])
        for run in (engine.initial_compute, lambda: engine.apply_batch(batch)):
            result = run()
            states_ref = weakref.ref(result.states)
            del result
            gc.collect()
            assert states_ref() is None

    def test_query_result_is_copy(self, engine):
        engine.initial_compute()
        result = engine.query_result()
        result[0] = 123.0
        assert engine.states[0] == 0.0

    def test_metrics_phases_named(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(1, 2)]))
        names = [p.name for p in result.metrics.phases]
        assert names == ["delete-propagation", "reevaluation"]
