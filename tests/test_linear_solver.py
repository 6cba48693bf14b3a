"""Tests for the linear-equation-solver DAIC application."""

import numpy as np
import pytest

from repro.algorithms import LinearSystemSolver, make_algorithm
from repro.algorithms.base import AlgorithmKind
from repro.algorithms.linear import reference_solve
from repro.core.engine import GraphPulseEngine
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.streams import Edge, StreamGenerator, UpdateBatch


def contractive_graph(n=30, m=90, seed=2, budget=0.8) -> DynamicGraph:
    """Random digraph whose out-weight sums stay below ``budget``."""
    rng = np.random.default_rng(seed)
    raw = generators.erdos_renyi(n, m, seed=seed, weighted=False)
    out_count = {}
    for u, _, _ in raw:
        out_count[u] = out_count.get(u, 0) + 1
    edges = [
        (u, v, budget / out_count[u] * (0.4 + 0.6 * rng.random()))
        for u, v, _ in raw
    ]
    return DynamicGraph.from_edges(edges, n)


class TestInterface:
    def test_kind(self):
        alg = LinearSystemSolver()
        assert alg.kind is AlgorithmKind.ACCUMULATIVE
        assert not alg.degree_dependent
        assert alg.weight_scaled_propagation

    def test_factory(self):
        alg = make_algorithm("linear", constants={2: 3.0})
        assert isinstance(alg, LinearSystemSolver)
        assert alg.constants == {2: 3.0}

    def test_propagate_scales_by_weight(self):
        alg = LinearSystemSolver()
        assert alg.propagate(2.0, 0.25, None) == 0.5
        assert alg.propagation_factor(None) == 1.0

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            LinearSystemSolver(tolerance=0)

    def test_constant_out_of_range(self):
        graph = contractive_graph(n=5, m=8)
        alg = LinearSystemSolver(constants={99: 1.0})
        with pytest.raises(ValueError):
            alg.initial_events(graph.snapshot())

    def test_non_contractive_rejected(self):
        graph = DynamicGraph.from_edges([(0, 1, 0.7), (0, 2, 0.7)], 3)
        alg = LinearSystemSolver()
        with pytest.raises(ValueError, match="contraction"):
            alg.initial_events(graph.snapshot())

    def test_contraction_check_can_be_disabled(self):
        graph = DynamicGraph.from_edges([(0, 1, 0.7), (0, 2, 0.7)], 3)
        alg = LinearSystemSolver(check_contraction=False)
        assert alg.initial_events(graph.snapshot()) == [(0, 1.0)]


class TestStaticSolve:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense_solver(self, seed):
        graph = contractive_graph(seed=seed)
        alg = LinearSystemSolver(constants={0: 1.0, 5: -2.0}, tolerance=1e-10)
        result = GraphPulseEngine(alg).compute(graph.snapshot())
        expected = reference_solve(graph.snapshot(), alg.constants)
        assert np.allclose(result.states, expected, atol=1e-6)

    def test_chain_closed_form(self):
        """x0 = 1; each hop scales by 0.5: x_k = 0.5^k."""
        graph = DynamicGraph.from_edges([(i, i + 1, 0.5) for i in range(4)], 5)
        alg = LinearSystemSolver(constants={0: 1.0}, tolerance=1e-12)
        result = GraphPulseEngine(alg).compute(graph.snapshot())
        assert np.allclose(result.states, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_negative_constants(self):
        graph = contractive_graph(seed=4)
        alg = LinearSystemSolver(constants={1: -1.0}, tolerance=1e-10)
        result = GraphPulseEngine(alg).compute(graph.snapshot())
        expected = reference_solve(graph.snapshot(), alg.constants)
        assert np.allclose(result.states, expected, atol=1e-6)


class TestStreamingSolve:
    def test_streaming_matches_dense(self):
        """The non-degree-dependent accumulative deletion path: negative
        events only for the deleted edges, no sink expansion."""
        graph = contractive_graph(seed=5)
        alg = LinearSystemSolver(constants={0: 1.0}, tolerance=1e-11)
        engine = JetStreamEngine(graph, alg)
        engine.initial_compute()
        rng = np.random.default_rng(6)
        for _ in range(3):
            live = sorted(graph.edges())
            u, v, w = live[int(rng.integers(0, len(live)))]
            batch = UpdateBatch(
                deletions=[Edge(u, v)],
                insertions=[Edge(u, v, w * 0.5)],  # weight change idiom
            )
            engine.apply_batch(batch)
            expected = reference_solve(graph.snapshot(), alg.constants)
            assert np.allclose(engine.states, expected, atol=1e-6)

    def test_insertion_only(self):
        graph = contractive_graph(seed=7)
        alg = LinearSystemSolver(constants={0: 1.0}, tolerance=1e-11)
        engine = JetStreamEngine(graph, alg)
        engine.initial_compute()
        # A fresh light edge keeps the operator contractive.
        free = [
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(graph.num_vertices)
            if u != v and not graph.has_edge(u, v)
        ]
        u, v = free[0]
        engine.apply_batch(UpdateBatch(insertions=[Edge(u, v, 0.01)]))
        expected = reference_solve(graph.snapshot(), alg.constants)
        assert np.allclose(engine.states, expected, atol=1e-6)

    def test_deletion_only(self):
        graph = contractive_graph(seed=8)
        alg = LinearSystemSolver(constants={0: 1.0}, tolerance=1e-11)
        engine = JetStreamEngine(graph, alg)
        engine.initial_compute()
        u, v, _ = sorted(graph.edges())[0]
        engine.apply_batch(UpdateBatch(deletions=[Edge(u, v)]))
        expected = reference_solve(graph.snapshot(), alg.constants)
        assert np.allclose(engine.states, expected, atol=1e-6)
