"""Unit tests for update batches and the stream generator."""

import math

import numpy as np
import pytest

from repro.graph.dynamic import DynamicGraph
from repro.streams import Edge, StreamGenerator, UpdateBatch, finite_weight

from conftest import random_digraph, random_symmetric_graph


class TestUpdateBatch:
    def test_size_and_ratio(self):
        batch = UpdateBatch(
            insertions=[Edge(0, 1), Edge(1, 2), Edge(2, 3)],
            deletions=[Edge(3, 4)],
        )
        assert batch.size == 4
        assert batch.insertion_ratio == 0.75

    def test_empty_batch(self):
        batch = UpdateBatch()
        assert batch.size == 0
        assert batch.insertion_ratio == 0.0

    def test_duplicate_insertion_rejected(self):
        batch = UpdateBatch(insertions=[Edge(0, 1, 1.0), Edge(0, 1, 2.0)])
        with pytest.raises(ValueError):
            batch.validate()

    def test_duplicate_deletion_rejected(self):
        batch = UpdateBatch(deletions=[Edge(0, 1), Edge(0, 1)])
        with pytest.raises(ValueError):
            batch.validate()

    def test_edge_key_ignores_weight(self):
        assert Edge(1, 2, 5.0).key() == Edge(1, 2, 9.0).key()

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_insertion_weight_rejected(self, w):
        with pytest.raises(ValueError, match="not finite"):
            UpdateBatch(insertions=[Edge(0, 1, 1.0), Edge(1, 2, w)])
        with pytest.raises(ValueError, match="not finite"):
            DynamicGraph.from_edges(np.array([[0, 1, w]]))


class TestFiniteWeight:
    @pytest.mark.parametrize("w", [0, 3, -2.5, np.float32(1.5), np.int64(4)])
    def test_finite_numbers_are_weights(self, w):
        assert finite_weight(w) == float(w)
        assert type(finite_weight(w)) is float

    @pytest.mark.parametrize(
        "w",
        [math.nan, math.inf, -math.inf, 10**400],
        ids=["nan", "inf", "-inf", "huge"],
    )
    def test_non_finite_rejected(self, w):
        with pytest.raises(ValueError, match="not finite"):
            finite_weight(w)

    @pytest.mark.parametrize("w", ["1.5", [1], None, True, np.bool_(False)])
    def test_non_numbers_rejected(self, w):
        with pytest.raises(ValueError, match="not a number"):
            finite_weight(w)


class TestStreamGenerator:
    def test_batch_size_and_composition(self):
        graph = random_digraph(seed=1)
        generator = StreamGenerator(graph, seed=2, insertion_ratio=0.7)
        batch = generator.next_batch(20)
        assert batch.size == 20
        assert len(batch.insertions) == 14
        assert len(batch.deletions) == 6

    def test_composition_override(self):
        graph = random_digraph(seed=1)
        generator = StreamGenerator(graph, seed=2)
        batch = generator.next_batch(10, insertion_ratio=0.0)
        assert len(batch.insertions) == 0
        assert len(batch.deletions) == 10

    def test_deletions_exist_in_graph(self):
        graph = random_digraph(seed=3)
        batch = StreamGenerator(graph, seed=4).next_batch(16)
        assert all(graph.has_edge(e.u, e.v) for e in batch.deletions)

    def test_insertions_are_fresh(self):
        graph = random_digraph(seed=5)
        batch = StreamGenerator(graph, seed=6).next_batch(16)
        assert all(not graph.has_edge(e.u, e.v) for e in batch.insertions)

    def test_no_insert_of_just_deleted_edge(self):
        graph = random_digraph(seed=7)
        batch = StreamGenerator(graph, seed=8).next_batch(30, insertion_ratio=0.5)
        deleted = {e.key() for e in batch.deletions}
        assert all(e.key() not in deleted for e in batch.insertions)

    def test_deterministic(self):
        a = StreamGenerator(random_digraph(seed=9), seed=10).next_batch(12)
        b = StreamGenerator(random_digraph(seed=9), seed=10).next_batch(12)
        assert [e.key() for e in a.insertions] == [e.key() for e in b.insertions]
        assert [e.key() for e in a.deletions] == [e.key() for e in b.deletions]

    def test_stream_applies_batches(self):
        graph = random_digraph(seed=11)
        edges_before = graph.num_edges
        generator = StreamGenerator(graph, seed=12, insertion_ratio=1.0)
        batches = list(generator.stream(8, 3))
        assert len(batches) == 3
        assert graph.num_edges == edges_before + 24

    def test_successive_batches_consistent(self):
        """After applying batch k, batch k+1 must still be valid."""
        graph = random_digraph(seed=13)
        generator = StreamGenerator(graph, seed=14, insertion_ratio=0.5)
        for batch in generator.stream(10, 5):
            batch.validate()

    def test_symmetric_graph_sampling(self):
        graph = random_symmetric_graph(seed=15)
        generator = StreamGenerator(graph, seed=16, insertion_ratio=0.5)
        batch = generator.next_batch(10)
        # Deletions reference one direction of an existing symmetric edge.
        assert all(graph.has_edge(e.u, e.v) for e in batch.deletions)
        # Applying via the graph mirrors automatically.
        graph.apply_batch(
            [(e.u, e.v, e.w) for e in batch.insertions],
            [e.key() for e in batch.deletions],
        )
        for e in batch.insertions:
            assert graph.has_edge(e.v, e.u)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            StreamGenerator(random_digraph(), insertion_ratio=1.5)

    def test_too_many_deletions_rejected(self):
        graph = random_digraph(n=10, m=5, seed=17)
        generator = StreamGenerator(graph, seed=18)
        with pytest.raises(ValueError):
            generator.next_batch(100, insertion_ratio=0.0)

    def test_unweighted_insertions(self):
        graph = random_digraph(seed=19)
        generator = StreamGenerator(graph, seed=20, weighted=False)
        batch = generator.next_batch(10, insertion_ratio=1.0)
        assert all(e.w == 1.0 for e in batch.insertions)
