"""Unit tests for the dynamic (host-side) graph."""

import pytest

from repro.graph.dynamic import (
    DynamicGraph,
    GraphMutationError,
    build_symmetric_graph,
)


class TestMutation:
    def test_add_edge(self):
        graph = DynamicGraph(3)
        graph.add_edge(0, 1, 2.0)
        assert graph.has_edge(0, 1)
        assert graph.edge_weight(0, 1) == 2.0
        assert graph.num_edges == 1

    def test_add_duplicate_rejected(self):
        graph = DynamicGraph(3)
        graph.add_edge(0, 1)
        with pytest.raises(GraphMutationError):
            graph.add_edge(0, 1, 5.0)

    def test_remove_edge_returns_weight(self):
        graph = DynamicGraph(3)
        graph.add_edge(0, 1, 7.0)
        assert graph.remove_edge(0, 1) == 7.0
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 0

    def test_remove_missing_rejected(self):
        graph = DynamicGraph(3)
        with pytest.raises(GraphMutationError):
            graph.remove_edge(0, 1)

    def test_vertex_growth_on_insert(self):
        graph = DynamicGraph(2)
        graph.add_edge(0, 9)
        assert graph.num_vertices == 10

    def test_version_bumps(self):
        graph = DynamicGraph(3)
        v0 = graph.version
        graph.add_edge(0, 1)
        graph.remove_edge(0, 1)
        assert graph.version == v0 + 2

    def test_apply_batch_single_version_bump(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)], 3)
        v0 = graph.version
        graph.apply_batch([(2, 0, 3.0)], [(0, 1)])
        assert graph.version == v0 + 1
        assert graph.has_edge(2, 0)
        assert not graph.has_edge(0, 1)

    def test_apply_batch_weight_change_idiom(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        graph.apply_batch([(0, 1, 9.0)], [(0, 1)])
        assert graph.edge_weight(0, 1) == 9.0

    def test_degrees(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], 3)
        assert graph.out_degree(0) == 2
        assert graph.in_degree(2) == 2
        assert graph.out_degree(2) == 0


class TestSymmetric:
    def test_add_mirrors(self):
        graph = DynamicGraph(3, symmetric=True)
        graph.add_edge(0, 1, 2.0)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.num_edges == 2

    def test_remove_mirrors(self):
        graph = DynamicGraph(3, symmetric=True)
        graph.add_edge(0, 1, 2.0)
        graph.remove_edge(0, 1)
        assert graph.num_edges == 0

    def test_remove_via_mirror_direction(self):
        graph = DynamicGraph(3, symmetric=True)
        graph.add_edge(0, 1, 2.0)
        graph.remove_edge(1, 0)
        assert graph.num_edges == 0

    def test_self_loop_not_doubled(self):
        graph = DynamicGraph(3, symmetric=True)
        graph.add_edge(1, 1, 2.0)
        assert graph.num_edges == 1


class TestSnapshots:
    def test_snapshot_matches_edges(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]
        graph = DynamicGraph.from_edges(edges, 3)
        snap = graph.snapshot()
        assert sorted(snap.edges()) == sorted(edges)

    def test_snapshot_is_isolated_from_mutation(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        snap = graph.snapshot()
        graph.remove_edge(0, 1)
        assert snap.has_edge(0, 1)

    def test_from_csr_round_trip(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.5), (1, 0, 2.5)], 2)
        again = DynamicGraph.from_csr(graph.snapshot())
        assert sorted(again.edges()) == sorted(graph.edges())


class TestBuildSymmetricGraph:
    """The shared symmetric-build helper (host, CLI, benchmarks)."""

    def test_reverse_duplicates_collapse(self):
        graph = build_symmetric_graph([(0, 1, 2.0), (1, 0, 2.0), (1, 2, 3.0)])
        assert graph.symmetric
        # One undirected edge per pair, mirrored into both directions.
        assert graph.num_edges == 4
        assert graph.edge_weight(0, 1) == 2.0
        assert graph.edge_weight(1, 0) == 2.0

    def test_num_vertices_floor_applied(self):
        graph = build_symmetric_graph([(0, 1, 1.0)], num_vertices=10)
        assert graph.num_vertices == 10

    def test_grows_past_floor(self):
        graph = build_symmetric_graph([(0, 7, 1.0)], num_vertices=3)
        assert graph.num_vertices == 8

    def test_conflicting_weight_warns_and_keeps_first(self):
        with pytest.warns(UserWarning, match="conflicts"):
            graph = build_symmetric_graph([(0, 1, 2.0), (1, 0, 9.0)])
        assert graph.edge_weight(0, 1) == 2.0
        assert graph.edge_weight(1, 0) == 2.0

    def test_conflicting_weight_raise_mode(self):
        with pytest.raises(GraphMutationError, match="conflicts"):
            build_symmetric_graph(
                [(0, 1, 2.0), (1, 0, 9.0)], on_conflict="raise"
            )

    def test_conflicting_weight_silent_mode(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            graph = build_symmetric_graph(
                [(0, 1, 2.0), (1, 0, 9.0)], on_conflict="silent"
            )
        assert graph.edge_weight(0, 1) == 2.0

    def test_matching_duplicate_is_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            graph = build_symmetric_graph([(0, 1, 2.0), (1, 0, 2.0)])
        assert graph.num_edges == 2

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            build_symmetric_graph([], on_conflict="explode")

    def test_self_loop_kept_once(self):
        graph = build_symmetric_graph([(2, 2, 1.0), (2, 2, 1.0)])
        assert graph.num_edges == 1
