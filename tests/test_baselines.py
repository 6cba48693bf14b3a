"""Tests for the software baselines (KickStarter, GraphBolt, cold start)."""

import gc
import weakref

import numpy as np
import pytest

from repro import reference
from repro.algorithms import make_algorithm
from repro.baselines import GraphBolt, GraphPulseColdStart, KickStarter
from repro.graph.dynamic import DynamicGraph
from repro.streams import Edge, StreamGenerator, UpdateBatch

from conftest import assert_states_match, make_graph_for, random_digraph


class TestKickStarterCorrectness:
    @pytest.mark.parametrize("name", ["sssp", "sswp", "bfs", "cc"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference_over_stream(self, name, seed):
        algorithm = make_algorithm(name, source=0)
        graph = make_graph_for(algorithm, n=50, m=200, seed=seed)
        engine = KickStarter(graph, algorithm)
        initial = engine.initial_compute()
        assert_states_match(
            algorithm,
            initial.states,
            reference.compute_reference(algorithm, graph.snapshot()),
        )
        stream = StreamGenerator(graph, seed=seed + 5, insertion_ratio=0.5)
        for i in range(4):
            result = engine.apply_batch(stream.next_batch(14))
            expected = reference.compute_reference(algorithm, graph.snapshot())
            assert_states_match(algorithm, result.states, expected, f"batch {i}")

    def test_cyclic_self_support_regression(self):
        """The SSWP case where two stale vertices once re-validated each
        other around a cycle (requires the level gate in re-approximation).
        """
        from repro.graph import generators

        edges = generators.erdos_renyi(60, 240, seed=1)
        graph = DynamicGraph.from_edges(edges, 60)
        algorithm = make_algorithm("sswp", source=0)
        engine = KickStarter(graph, algorithm)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=12, insertion_ratio=0.5)
        for _ in range(2):
            result = engine.apply_batch(stream.next_batch(12))
        expected = reference.compute_reference(algorithm, graph.snapshot())
        assert_states_match(algorithm, result.states, expected)

    def test_rejects_accumulative(self):
        with pytest.raises(ValueError):
            KickStarter(random_digraph(), make_algorithm("pagerank"))

    def test_rejects_asymmetric_for_cc(self):
        with pytest.raises(ValueError):
            KickStarter(random_digraph(), make_algorithm("cc"))

    def test_apply_before_initial_rejected(self):
        engine = KickStarter(random_digraph(), make_algorithm("sssp", source=0))
        with pytest.raises(RuntimeError):
            engine.apply_batch(UpdateBatch())


class TestKickStarterBehaviour:
    def test_resets_counted(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], 4)
        engine = KickStarter(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(0, 1)]))
        assert result.vertices_reset == 3  # 1, 2, 3 all depended on 0->1

    def test_untouched_vertices_not_reset(self):
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0)], 4
        )
        engine = KickStarter(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(deletions=[Edge(0, 1)]))
        assert 2 not in result.trimmed
        assert 3 not in result.trimmed

    def test_work_counters_populated(self):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, seed=9)
        engine = KickStarter(graph, algorithm)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=10)
        result = engine.apply_batch(stream.next_batch(12))
        assert result.work.iterations > 0
        assert result.work.vertex_reads_random > 0

    def test_vertex_growth(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = KickStarter(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(1, 4, 2.0)]))
        assert len(result.states) == 5
        assert result.states[4] == 3.0


class TestGraphBoltCorrectness:
    @pytest.mark.parametrize("name", ["pagerank", "adsorption"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_reference_over_stream(self, name, seed):
        algorithm = make_algorithm(name)
        graph = random_digraph(n=50, m=200, seed=seed)
        engine = GraphBolt(graph, algorithm)
        initial = engine.initial_compute()
        assert_states_match(
            algorithm,
            initial.states,
            reference.compute_reference(algorithm, graph.snapshot()),
        )
        stream = StreamGenerator(graph, seed=seed + 7, insertion_ratio=0.5)
        for i in range(4):
            result = engine.apply_batch(stream.next_batch(14))
            expected = reference.compute_reference(algorithm, graph.snapshot())
            assert_states_match(algorithm, result.states, expected, f"batch {i}")

    def test_rejects_selective(self):
        with pytest.raises(ValueError):
            GraphBolt(random_digraph(), make_algorithm("sssp"))

    def test_vertex_growth_seeded(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        algorithm = make_algorithm("pagerank")
        engine = GraphBolt(graph, algorithm)
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(1, 3, 1.0)]))
        expected = reference.pagerank(graph.snapshot())
        assert_states_match(algorithm, result.states, expected)

    def test_history_bookkeeping_charged(self):
        graph = random_digraph(n=40, m=160, seed=3)
        engine = GraphBolt(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=4)
        result = engine.apply_batch(stream.next_batch(10))
        assert result.work.bookkeeping_bytes > 0
        assert result.work.iterations > 0


class TestGraphPulseColdStart:
    def test_recompute_matches_reference(self):
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, seed=5)
        engine = GraphPulseColdStart(graph, algorithm)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=6)
        for _ in range(2):
            result = engine.apply_batch(stream.next_batch(10))
            expected = reference.compute_reference(algorithm, graph.snapshot())
            assert_states_match(algorithm, result.states, expected)

    def test_cost_independent_of_batch_size(self):
        """Cold start does full work regardless of how small the batch is
        — the inefficiency JetStream exists to remove."""
        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=80, m=320, seed=7)
        engine = GraphPulseColdStart(graph, algorithm)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=8)
        small = engine.apply_batch(stream.next_batch(2))
        large = engine.apply_batch(stream.next_batch(40))
        ratio = (
            small.metrics.events_processed / large.metrics.events_processed
        )
        assert 0.5 < ratio < 2.0


class TestResultsNotRetained:
    @pytest.mark.parametrize(
        "baseline, name",
        [(GraphPulseColdStart, "sssp"), (GraphBolt, "pagerank"), (KickStarter, "sssp")],
        ids=["GraphPulseColdStart", "GraphBolt", "KickStarter"],
    )
    def test_results_are_not_retained(self, baseline, name):
        """A long-lived baseline must not pin a state copy per batch."""
        algorithm = make_algorithm(name, source=0)
        graph = make_graph_for(algorithm, seed=9)
        engine = baseline(graph, algorithm)
        stream = StreamGenerator(graph, seed=10)
        for run in (
            engine.initial_compute,
            lambda: engine.apply_batch(stream.next_batch(5)),
        ):
            result = run()
            states_ref = weakref.ref(result.states)
            del result
            gc.collect()
            assert states_ref() is None


class TestCrossSystemAgreement:
    @pytest.mark.parametrize("name", ["sssp", "cc"])
    def test_jetstream_and_kickstarter_agree(self, name):
        from repro.core.streaming import JetStreamEngine

        algorithm = make_algorithm(name, source=0)
        graph_a = make_graph_for(algorithm, n=50, m=200, seed=11)
        graph_b = make_graph_for(algorithm, n=50, m=200, seed=11)
        jet = JetStreamEngine(graph_a, make_algorithm(name, source=0))
        kick = KickStarter(graph_b, make_algorithm(name, source=0))
        jet.initial_compute()
        kick.initial_compute()
        stream_a = StreamGenerator(graph_a, seed=12, insertion_ratio=0.5)
        stream_b = StreamGenerator(graph_b, seed=12, insertion_ratio=0.5)
        for _ in range(3):
            ra = jet.apply_batch(stream_a.next_batch(10))
            rb = kick.apply_batch(stream_b.next_batch(10))
            assert np.array_equal(ra.states, rb.states)
