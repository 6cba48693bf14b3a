"""Additional property-based coverage: SSWP, BFS, adsorption, linear
solver streaming; VAP/DAP delete-coalescing invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import reference
from repro.algorithms import make_algorithm
from repro.algorithms.linear import LinearSystemSolver, reference_solve
from repro.core.config import AcceleratorConfig
from repro.core.events import Event
from repro.core.metrics import RoundWork
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph.dynamic import DynamicGraph
from repro.oracle import CoalescingQueue
from repro.streams import Edge, UpdateBatch

from test_properties import graph_and_batch, build_graph

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestMoreStreamingEqualsStatic:
    @SETTINGS
    @given(data=graph_and_batch(), policy=st.sampled_from(list(DeletePolicy)))
    def test_sswp(self, data, policy):
        n, edges, batch = data
        graph = build_graph(n, edges, symmetric=False)
        engine = JetStreamEngine(graph, make_algorithm("sswp", source=0), policy=policy)
        engine.initial_compute()
        result = engine.apply_batch(batch)
        assert np.array_equal(result.states, reference.sswp(graph.snapshot(), 0))

    @SETTINGS
    @given(data=graph_and_batch(), policy=st.sampled_from(list(DeletePolicy)))
    def test_bfs(self, data, policy):
        n, edges, batch = data
        graph = build_graph(n, edges, symmetric=False)
        engine = JetStreamEngine(graph, make_algorithm("bfs", source=0), policy=policy)
        engine.initial_compute()
        result = engine.apply_batch(batch)
        assert np.array_equal(result.states, reference.bfs(graph.snapshot(), 0))

    @SETTINGS
    @given(data=graph_and_batch())
    def test_adsorption(self, data):
        n, edges, batch = data
        graph = build_graph(n, edges, symmetric=False)
        algorithm = make_algorithm("adsorption")
        engine = JetStreamEngine(graph, algorithm)
        engine.initial_compute()
        result = engine.apply_batch(batch)
        expected = reference.adsorption(graph.snapshot(), algorithm.injections)
        assert algorithm.states_close(result.states, expected)

    @SETTINGS
    @given(data=graph_and_batch(max_n=10))
    def test_linear_solver(self, data):
        n, edges, batch = data
        # Rescale weights so the operator stays contractive through the
        # batch (budget covers the inserted edges too).
        degree = {}
        for u, v, _ in edges:
            degree[u] = degree.get(u, 0) + 1
        for e in batch.insertions:
            degree[e.u] = degree.get(e.u, 0) + 1
        scaled = [(u, v, 0.9 / degree[u]) for u, v, _ in edges]
        graph = build_graph(n, scaled, symmetric=False)
        scaled_batch = UpdateBatch(
            insertions=[Edge(e.u, e.v, 0.9 / degree[e.u]) for e in batch.insertions],
            deletions=batch.deletions,
        )
        algorithm = LinearSystemSolver(constants={0: 1.0}, tolerance=1e-11)
        engine = JetStreamEngine(graph, algorithm)
        engine.initial_compute()
        result = engine.apply_batch(scaled_batch)
        expected = reference_solve(graph.snapshot(), algorithm.constants)
        assert np.allclose(result.states, expected, atol=1e-6)


class TestDeleteCoalescingInvariants:
    @SETTINGS
    @given(
        payloads=st.lists(
            st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_vap_keeps_most_progressed(self, payloads):
        queue = CoalescingQueue(
            make_algorithm("sssp", source=0),
            AcceleratorConfig(),
            DeletePolicy.VAP,
            16,
        )
        work = RoundWork()
        for i, payload in enumerate(payloads):
            queue.insert(Event(3, payload, 1, i), work)
        [batch] = queue.drain_round()
        assert len(batch) == 1
        assert batch[0].payload == min(payloads)

    @SETTINGS
    @given(
        sources=st.lists(
            st.integers(min_value=0, max_value=7), min_size=1, max_size=12
        )
    )
    def test_dap_overflow_preserves_every_source(self, sources):
        queue = CoalescingQueue(
            make_algorithm("sssp", source=0),
            AcceleratorConfig(),
            DeletePolicy.DAP,
            16,
        )
        queue.set_delete_coalescing(False)
        work = RoundWork()
        for source in sources:
            queue.insert(Event(3, 1.0, 1, source), work)
        [batch] = queue.drain_round()
        assert sorted(e.source for e in batch) == sorted(sources)

