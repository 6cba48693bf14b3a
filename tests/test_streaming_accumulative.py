"""JetStream streaming tests for accumulative algorithms (Algorithm 3/6)."""

import numpy as np
import pytest

from repro import reference
from repro.algorithms import make_algorithm
from repro.core.streaming import JetStreamEngine
from repro.graph.dynamic import DynamicGraph
from repro.streams import Edge, StreamGenerator, UpdateBatch

from conftest import assert_states_match, random_digraph

ACCUMULATIVE = ["pagerank", "adsorption"]


def check(engine, context=""):
    expected = reference.compute_reference(engine.algorithm, engine.graph.snapshot())
    assert_states_match(engine.algorithm, engine.states, expected, context)


class TestRandomStreams:
    @pytest.mark.parametrize("name", ACCUMULATIVE)
    def test_streaming_matches_reference(self, name):
        graph = random_digraph(n=50, m=200, seed=41)
        engine = JetStreamEngine(graph, make_algorithm(name))
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=42, insertion_ratio=0.6)
        for i in range(4):
            engine.apply_batch(stream.next_batch(12))
            check(engine, f"{name}/batch{i}")

    @pytest.mark.parametrize("ratio", [0.0, 1.0])
    def test_pure_compositions(self, ratio):
        graph = random_digraph(n=50, m=200, seed=43)
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=44)
        engine.apply_batch(stream.next_batch(10, insertion_ratio=ratio))
        check(engine)


class TestDegreeDependence:
    def test_insertion_reweights_existing_edges(self):
        """Adding an out-edge halves the source's other contributions."""
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 3)
        alg = make_algorithm("pagerank")
        engine = JetStreamEngine(graph, alg)
        engine.initial_compute()
        rank_before = engine.states[1]
        engine.apply_batch(UpdateBatch(insertions=[Edge(0, 2, 1.0)]))
        check(engine)
        assert engine.states[1] < rank_before

    def test_deletion_reroutes_mass(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        rank_before = engine.states[1]
        engine.apply_batch(UpdateBatch(deletions=[Edge(0, 2)]))
        check(engine)
        # Vertex 1 now receives vertex 0's full (previously split) mass.
        assert engine.states[1] > rank_before

    def test_cycle_with_deletion(self):
        """The Fig. 5 case: deleting one edge of a vertex on a cycle."""
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (1, 3, 1.0), (1, 4, 1.0)], 5
        )
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        engine.apply_batch(UpdateBatch(deletions=[Edge(1, 2)]))
        check(engine)

    def test_cycle_through_mutated_source(self):
        """A cycle through the mutated source: its stale contribution
        returns to it, and the net flow must still reach the reference."""
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0)], 3
        )
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        engine.apply_batch(UpdateBatch(deletions=[Edge(0, 2)]))
        check(engine)


class TestVertexGrowth:
    def test_new_vertex_gets_teleport_mass(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        engine.apply_batch(UpdateBatch(insertions=[Edge(1, 4, 1.0)]))
        assert len(engine.states) == 5
        check(engine)
        assert engine.states[3] == pytest.approx(0.15, abs=1e-3)

    def test_new_vertex_propagates_outward(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        engine.apply_batch(UpdateBatch(insertions=[Edge(3, 0, 1.0)]))
        check(engine)
        # Vertex 3's teleport mass flows into vertex 0.
        assert engine.states[0] > 0.15 + 0.1


class TestAdsorptionSpecifics:
    def test_weighted_normalization(self):
        """Adsorption splits by edge weight, not degree."""
        graph = DynamicGraph.from_edges([(0, 1, 3.0), (0, 2, 1.0)], 3)
        alg = make_algorithm("adsorption")
        engine = JetStreamEngine(graph, alg)
        engine.initial_compute()
        check(engine)
        assert engine.states[1] == pytest.approx(3 * engine.states[2], rel=1e-3)

    def test_injection_streaming(self):
        graph = random_digraph(n=30, m=120, seed=47)
        alg = make_algorithm("adsorption")
        alg.injections = {0: 1.0, 5: 2.0}
        engine = JetStreamEngine(graph, alg)
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=48)
        engine.apply_batch(stream.next_batch(10))
        check(engine)


class TestMetricsShape:
    def test_net_mode_single_phase(self):
        graph = random_digraph(n=30, m=120, seed=49)
        engine = JetStreamEngine(graph, make_algorithm("pagerank"))
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=50)
        result = engine.apply_batch(stream.next_batch(8))
        assert [p.name for p in result.metrics.phases] == ["reevaluation"]

    def test_incremental_cheaper_than_initial(self):
        """The headline property: a small batch costs far fewer events
        than the initial evaluation."""
        graph = random_digraph(n=200, m=900, seed=51)
        engine = JetStreamEngine(graph, make_algorithm("pagerank", tolerance=1e-4))
        initial = engine.initial_compute()
        stream = StreamGenerator(graph, seed=52)
        result = engine.apply_batch(stream.next_batch(4))
        assert (
            result.metrics.events_processed < initial.metrics.events_processed / 2
        )
