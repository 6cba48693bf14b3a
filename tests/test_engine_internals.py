"""White-box tests of engine internals: request flags, delete phase,
dependency maintenance, and phase scheduling details."""

import math

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.config import AcceleratorConfig
from repro.core.engine import EngineCore, MAX_ROUNDS
from repro.core.events import NO_SOURCE, EventBatch
from repro.core.metrics import PhaseStats, RunMetrics
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.streams import Edge, UpdateBatch


def make_core(algorithm_name="sssp", policy=DeletePolicy.DAP, csr=None):
    algorithm = make_algorithm(algorithm_name, source=0)
    core = EngineCore(algorithm, AcceleratorConfig(), policy)
    csr = csr or CSRGraph(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0)])
    core.allocate(csr.num_vertices)
    core.bind_graph(csr)
    return core


class TestRequestFlag:
    def test_request_forces_propagation_without_change(self):
        """A request event must make an unchanged vertex re-send its state
        along all out-edges (§3.4)."""
        core = make_core()
        queue = core.new_queue()
        phase = PhaseStats("test")
        work = phase.new_round()
        # Converge first.
        queue.insert_batch(EventBatch.from_arrays([0], [0.0]), work)
        core.run_regular(queue, phase)
        assert core.states[3] == 9.0
        # Reset vertex 2 by hand; a request to vertex 1 must restore it.
        core.states[2] = math.inf
        core.states[3] = math.inf
        request = EventBatch.from_arrays([1], [core.algorithm.identity], 2)
        queue.insert_batch(request, work)
        core.run_regular(queue, phase)
        assert core.states[2] == 5.0
        assert core.states[3] == 9.0

    def test_request_to_identity_vertex_is_harmless(self):
        core = make_core()
        queue = core.new_queue()
        phase = PhaseStats("test")
        work = phase.new_round()
        request = EventBatch.from_arrays([2], [core.algorithm.identity], 2)
        queue.insert_batch(request, work)
        core.run_regular(queue, phase)
        # Nothing was reachable/known: states untouched.
        assert math.isinf(core.states[2])
        assert math.isinf(core.states[3])


class TestDeletePhase:
    def _converged_core(self, policy):
        core = make_core(policy=policy)
        queue = core.new_queue()
        phase = PhaseStats("init")
        work = phase.new_round()
        queue.insert_batch(EventBatch.from_arrays([0], [0.0]), work)
        core.run_regular(queue, phase)
        return core

    @pytest.mark.parametrize("policy", list(DeletePolicy))
    def test_delete_resets_chain(self, policy):
        core = self._converged_core(policy)
        queue = core.new_queue()
        queue.set_delete_coalescing(policy.coalesces_deletes)
        phase = PhaseStats("delete")
        work = phase.new_round()
        payload = 0.0 if policy is DeletePolicy.BASE else 2.0
        queue.insert_batch(EventBatch.from_arrays([1], [payload], 1, 0), work)
        impacted = core.run_delete(queue, phase)
        assert impacted == [1, 2, 3]
        assert all(math.isinf(core.states[v]) for v in (1, 2, 3))
        assert phase.vertices_reset == 3

    def test_dap_discards_mismatched_source(self):
        core = self._converged_core(DeletePolicy.DAP)
        queue = core.new_queue()
        queue.set_delete_coalescing(False)
        phase = PhaseStats("delete")
        work = phase.new_round()
        # Vertex 1's dependency is 0; a delete claiming source 3 must drop.
        queue.insert_batch(EventBatch.from_arrays([1], [2.0], 1, 3), work)
        impacted = core.run_delete(queue, phase)
        assert impacted == []
        assert phase.deletes_discarded == 1
        assert core.states[1] == 2.0

    def test_vap_discards_less_progressed(self):
        core = self._converged_core(DeletePolicy.VAP)
        queue = core.new_queue()
        phase = PhaseStats("delete")
        work = phase.new_round()
        # Vertex 1 holds 2.0; a deleted path that contributed 50 is moot.
        queue.insert_batch(EventBatch.from_arrays([1], [50.0], 1, 0), work)
        impacted = core.run_delete(queue, phase)
        assert impacted == []
        assert phase.deletes_discarded == 1

    def test_vap_resets_less_progressed_receiver(self):
        core = self._converged_core(DeletePolicy.VAP)
        queue = core.new_queue()
        phase = PhaseStats("delete")
        work = phase.new_round()
        # Vertex 1 holds 2.0; VAP cannot rule out that it rests on a deleted
        # path that contributed 1.0 (an equal one: test_delete_resets_chain).
        queue.insert_batch(EventBatch.from_arrays([1], [1.0], 1, 0), work)
        impacted = core.run_delete(queue, phase)
        assert impacted == [1, 2, 3]
        assert math.isinf(core.states[1])

    @pytest.mark.parametrize("policy", [DeletePolicy.BASE, DeletePolicy.VAP])
    def test_identity_receiver_discarded(self, policy):
        core = make_core(policy=policy)  # never converged: all Identity
        queue = core.new_queue()
        phase = PhaseStats("delete")
        work = phase.new_round()
        queue.insert_batch(EventBatch.from_arrays([1], [2.0], 1, 0), work)
        impacted = core.run_delete(queue, phase)
        assert impacted == []
        assert phase.deletes_discarded == 1
        assert phase.vertices_reset == 0


class TestDependencyMaintenance:
    def test_dependency_updates_on_better_path(self):
        graph = DynamicGraph.from_edges([(0, 1, 10.0), (0, 2, 1.0)], 3)
        engine = JetStreamEngine(
            graph, make_algorithm("sssp", source=0), policy=DeletePolicy.DAP
        )
        engine.initial_compute()
        assert engine.core.dependency[1] == 0
        engine.apply_batch(UpdateBatch(insertions=[Edge(2, 1, 2.0)]))
        assert engine.core.states[1] == 3.0
        assert engine.core.dependency[1] == 2

    def test_dependency_cleared_on_reset(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = JetStreamEngine(
            graph, make_algorithm("sssp", source=0), policy=DeletePolicy.DAP
        )
        engine.initial_compute()
        engine.apply_batch(UpdateBatch(deletions=[Edge(0, 1)]))
        assert engine.core.dependency[1] == NO_SOURCE

    def test_non_dap_policies_skip_dependency(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = JetStreamEngine(
            graph, make_algorithm("sssp", source=0), policy=DeletePolicy.VAP
        )
        engine.initial_compute()
        assert engine.core.dependency[1] == NO_SOURCE  # never written


class TestStateManagement:
    def test_allocate_resets_all(self):
        core = make_core()
        core.states[:] = 1.0
        core.allocate(4)
        assert np.all(np.isinf(core.states))

    def test_grow_preserves_prefix(self):
        core = make_core()
        core.states[1] = 42.0
        core.grow(10)
        assert core.states.shape[0] == 10
        assert core.states[1] == 42.0
        assert math.isinf(core.states[9])

    def test_grow_shrink_noop(self):
        core = make_core()
        core.grow(2)
        assert core.states.shape[0] == 4

    def test_set_slice_assignment_validates(self):
        core = make_core()
        with pytest.raises(ValueError):
            core.set_slice_assignment(np.zeros(2, dtype=np.int64))

    def test_load_states_roundtrip(self):
        core = make_core()
        base = np.array([0.0, 2.0, 5.0, 9.0])
        deps = np.array([NO_SOURCE, 0, 1, 2], dtype=core.dependency.dtype)
        core.load_states(base, deps)
        assert np.array_equal(core.states[:4], base)
        assert np.array_equal(core.dependency[:4], deps)

    def test_load_states_grows_and_seeds_identity_past_prefix(self):
        core = make_core()
        core.grow(6)
        core.states[:] = 1.0
        base = np.array([0.0, 2.0, 5.0, 9.0])
        core.load_states(base)
        assert np.array_equal(core.states[:4], base)
        assert np.all(np.isinf(core.states[4:]))

    def test_adsorption_prop_factor_on_arena_snapshot_matches_compact(self):
        """Adsorption's per-source factor divides by out-weight sums; on
        an arena snapshot (runs rewritten out of vertex order, dead slots
        between them) they are summed in logical CSR order, so the factor
        is bit-identical to the compact graph's."""
        rng = np.random.default_rng(7)
        src, dst = rng.integers(0, 40, size=(2, 300))
        keep = np.unique(src * 40 + dst, return_index=True)[1]
        graph = DynamicGraph.from_arrays(src[keep], dst[keep], rng.random(len(keep)), 40)
        graph.apply_batch([(u, 39, 0.3) for u in range(0, 38, 3) if not graph.has_edge(u, 39)])
        graph.apply_batch(
            [(0, v, 0.7) for v in range(1, 39, 5) if not graph.has_edge(0, v)]
        )
        arena = graph.snapshot()
        compact = CSRGraph.from_arrays(40, *arena.edge_arrays())
        assert not np.array_equal(arena.out_starts, compact.out_starts)
        factors = []
        for csr in (arena, compact):
            core = EngineCore(
                make_algorithm("adsorption", injections={0: 1.0}),
                AcceleratorConfig(),
                DeletePolicy.BASE,
            )
            core.allocate(40)
            core.bind_graph(csr)
            factors.append(core._prop_factor)
        assert factors[0].tobytes() == factors[1].tobytes()


class TestPhaseScheduling:
    def test_selective_delete_then_reevaluation(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)], 3)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(
            UpdateBatch(insertions=[Edge(0, 2, 5.0)], deletions=[Edge(1, 2)])
        )
        names = [p.name for p in result.metrics.phases]
        assert names == ["delete-propagation", "reevaluation"]
        # The delete phase precedes insertions: vertex 2 was reset, then
        # restored by the inserted edge.
        assert result.states[2] == 5.0

    def test_insertion_only_keeps_delete_phase_empty(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], 2)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        result = engine.apply_batch(UpdateBatch(insertions=[Edge(1, 0, 9.0)]))
        delete_phase = result.metrics.find("delete-propagation")
        assert delete_phase.vertices_reset == 0

    def test_max_rounds_guard_exists(self):
        assert MAX_ROUNDS >= 10_000
