"""Tests for delta-encoded versioning and CommonGraph slices."""

import numpy as np
import pytest

from repro.graph.dynamic import DeltaVersionStore, DynamicGraph
from repro.streams import StreamGenerator

from conftest import random_digraph


class TestDeltaVersionStore:
    def _stream(self, store, graph, batches=3):
        generator = StreamGenerator(graph, seed=5, insertion_ratio=0.5)
        for _ in range(batches):
            batch = generator.next_batch(8)
            graph.apply_batch(
                [(e.u, e.v, e.w) for e in batch.insertions],
                [e.key() for e in batch.deletions],
            )
            store.record()

    def test_reconstruct_base(self):
        graph = random_digraph(seed=1)
        base_edges = sorted(graph.edges())
        store = DeltaVersionStore(graph)
        self._stream(store, graph)
        assert sorted(store.reconstruct(store.versions()[0]).edges()) == base_edges

    def test_reconstruct_latest_matches_live(self):
        graph = random_digraph(seed=2)
        store = DeltaVersionStore(graph)
        self._stream(store, graph)
        latest = store.reconstruct(store.versions()[-1])
        assert sorted(latest.edges()) == sorted(graph.edges())

    def test_reconstruct_intermediate(self):
        graph = random_digraph(seed=3)
        store = DeltaVersionStore(graph)
        snapshots = {graph.version: sorted(graph.edges())}
        generator = StreamGenerator(graph, seed=6, insertion_ratio=0.5)
        for _ in range(3):
            batch = generator.next_batch(6)
            graph.apply_batch(
                [(e.u, e.v, e.w) for e in batch.insertions],
                [e.key() for e in batch.deletions],
            )
            store.record()
            snapshots[graph.version] = sorted(graph.edges())
        for version, expected in snapshots.items():
            assert sorted(store.reconstruct(version).edges()) == expected

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_base_is_an_independent_copy_of_the_live_edge_set(self, symmetric):
        # The base version shares the graph's arenas; later batch splices,
        # express edits and compactions must leave it reading the same.
        graph = DynamicGraph.from_edges(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 3, 4.0)],
            symmetric=symmetric,
        )
        graph.apply_batch([(0, 2, 5.0), (4, 1, 6.0)], [(1, 2)])
        graph.add_edge(2, 4, 7.0)
        graph.remove_edge(0, 1)
        store = DeltaVersionStore(graph)
        base_version = graph.version
        want = graph.snapshot().compact()
        assert store.reconstruct(base_version) == want

        graph.apply_batch([(1, 3, 8.0)], [(2, 3)])
        store.record()
        graph.add_edge(3, 0, 9.0)
        store.record()
        graph.remove_edge(4, 1)
        store.record()
        graph.apply_batch([(u, 5 + u, 1.5) for u in range(5)], [(0, 2)])
        store.record()
        assert graph.store_stats()["compactions"] >= 1
        got = store.reconstruct(base_version).compact()
        assert got.num_vertices == want.num_vertices
        for name in (
            "out_offsets", "out_targets", "out_weights",
            "in_offsets", "in_sources", "in_weights",
        ):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_unknown_version_rejected(self):
        graph = random_digraph(seed=4)
        store = DeltaVersionStore(graph)
        with pytest.raises(KeyError):
            store.reconstruct(999)

    def test_delta_bytes_grow(self):
        graph = random_digraph(seed=5)
        store = DeltaVersionStore(graph)
        assert store.stats()["delta_bytes"] == 0
        self._stream(store, graph)
        assert store.stats()["delta_bytes"] > 0

    def test_vertex_growth_tracked(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        store = DeltaVersionStore(graph)
        graph.apply_batch([(1, 7, 2.0)], [])
        store.record()
        assert store.reconstruct(graph.version).num_vertices == 8


class TestBoundedRetention:
    def _stream(self, store, graph, batches=5, seed=5):
        generator = StreamGenerator(graph, seed=seed, insertion_ratio=0.5)
        for _ in range(batches):
            batch = generator.next_batch(8)
            graph.apply_batch(
                [(e.u, e.v, e.w) for e in batch.insertions],
                [e.key() for e in batch.deletions],
            )
            store.record()

    def test_keep_versions_bounds_history(self):
        graph = random_digraph(seed=20)
        store = DeltaVersionStore(graph, keep_versions=3)
        self._stream(store, graph)
        assert len(store.versions()) == 3
        assert store.versions() == [3, 4, 5]

    def test_evicted_version_raises(self):
        graph = random_digraph(seed=21)
        store = DeltaVersionStore(graph, keep_versions=2)
        self._stream(store, graph)
        with pytest.raises(KeyError):
            store.reconstruct(0)

    def test_retained_versions_reconstruct_exactly(self):
        graph = random_digraph(seed=22)
        store = DeltaVersionStore(graph, keep_versions=3)
        snapshots = {}
        generator = StreamGenerator(graph, seed=7, insertion_ratio=0.5)
        for _ in range(5):
            batch = generator.next_batch(6)
            graph.apply_batch(
                [(e.u, e.v, e.w) for e in batch.insertions],
                [e.key() for e in batch.deletions],
            )
            store.record()
            snapshots[graph.version] = sorted(graph.edges())
        for version in store.versions():
            assert sorted(store.reconstruct(version).edges()) == snapshots[version]

    def test_stats_shape(self):
        graph = random_digraph(seed=23)
        store = DeltaVersionStore(graph, keep_versions=3)
        self._stream(store, graph)
        stats = store.stats()
        assert stats["keep_versions"] == 3
        assert stats["versions_held"] == 3
        assert stats["oldest_version"] == 3
        assert stats["newest_version"] == 5
        assert stats["evicted_versions"] == 3
        assert stats["delta_records"] > 0
        assert stats["delta_bytes"] > 0

    def test_keep_versions_validated(self):
        graph = random_digraph(seed=24)
        with pytest.raises(ValueError):
            DeltaVersionStore(graph, keep_versions=0)


def _edge_list(columns):
    """``(u, v, w)`` tuples of a ``CommonSlice`` edge-column triple."""
    return list(zip(*(c.tolist() for c in columns)))


class TestCommonSlice:
    def test_common_plus_additions_reconstructs_each_version(self):
        graph = random_digraph(seed=30)
        store = DeltaVersionStore(graph)
        generator = StreamGenerator(graph, seed=31, insertion_ratio=0.5)
        for _ in range(4):
            batch = generator.next_batch(8)
            graph.apply_batch(
                [(e.u, e.v, e.w) for e in batch.insertions],
                [e.key() for e in batch.deletions],
            )
            store.record()
        versions = store.versions()
        slice_ = store.common_slice(versions)
        common = set(_edge_list(slice_.common_edges))
        for version in versions:
            additions = _edge_list(slice_.additions[version])
            expected = sorted(store.reconstruct(version).edges())
            assert sorted(list(common) + additions) == expected, f"version {version}"
            # Additions are genuinely outside the shared prefix.
            assert not common.intersection(additions)

    def test_common_vertices_is_min(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        store = DeltaVersionStore(graph)
        graph.apply_batch([(1, 9, 2.0)], [])
        store.record()
        slice_ = store.common_slice(store.versions())
        assert slice_.common_vertices == 2
        assert slice_.graphs[store.versions()[-1]].num_vertices == 10

    def test_reweighted_edge_not_common(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 3.0)], 3)
        store = DeltaVersionStore(graph)
        # Reweight = delete + insert in one batch (per paper §2.1).
        graph.apply_batch([(0, 1, 7.0)], [(0, 1)])
        store.record()
        slice_ = store.common_slice(store.versions())
        common = _edge_list(slice_.common_edges)
        assert (1, 2, 3.0) in common
        assert all((u, v) != (0, 1) for u, v, _ in common)
        v0, v1 = store.versions()
        assert (0, 1, 1.0) in _edge_list(slice_.additions[v0])
        assert (0, 1, 7.0) in _edge_list(slice_.additions[v1])

    def test_run_rewritten_at_its_old_pointers_is_not_common(self):
        # Vertex 5's run changes weight in the last batch, which compacts
        # the out-arena and lands the run back at its old (start, degree):
        # equal pointers across a compaction do not mean an equal run.
        graph = DynamicGraph.from_edges(
            [(0, 1, 2.0), (4, 2, 1.0), (2, 3, 3.0), (4, 5, 1.0),
             (5, 0, 2.0), (1, 1, 2.0), (1, 3, 1.0)],
            6,
        )
        store = DeltaVersionStore(graph)
        for ins, dels in [
            ([(2, 4, 3.0)], [(1, 1)]),
            ([(5, 5, 3.0), (4, 2, 2.0)], [(2, 3), (4, 2)]),
            ([(1, 2, 2.0)], [(4, 5)]),
            ([(4, 5, 1.0), (5, 5, 1.0)], [(5, 5), (1, 2)]),
        ]:
            graph.apply_batch(ins, dels)
            store.record()
        before, after = store.reconstruct(2), store.reconstruct(4)
        assert after.out_targets is not before.out_targets
        assert before.out_starts[5] == after.out_starts[5]
        assert before.out_degrees[5] == after.out_degrees[5]
        slice_ = store.common_slice([2, 4])
        common = _edge_list(slice_.common_edges)
        assert common == sorted(set(before.edges()) & set(after.edges()))
        assert (5, 5, 3.0) in _edge_list(slice_.additions[2])
        assert (5, 5, 1.0) in _edge_list(slice_.additions[4])

