"""Scalar oracle <-> array engine parity (the tentpole invariant).

The structure-of-arrays engine (``VectorQueue`` + the array
``run_regular``/``run_delete`` rounds) must be a *bit-identical* drop-in
for the boxed-event reference engine of :mod:`repro.oracle`: same final states, same per-round
``RoundWork`` vectors (hence identical modelled cycles/energy), same phase
extras, same queue lifetime statistics. These property-style tests sweep
every algorithm × delete policy over seeded random graphs and streams,
including multi-slice and partial-drain configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core.config import AcceleratorConfig
from repro.core.engine import GraphPulseEngine
from repro.core.policies import DeletePolicy
from repro.core.streaming import JetStreamEngine
from repro.graph.dynamic import DynamicGraph
from repro.oracle import on_oracle
from repro.streams import StreamGenerator

from conftest import make_graph_for

ALGORITHMS = ["sssp", "bfs", "cc", "sswp", "pagerank", "adsorption"]
POLICIES = [DeletePolicy.BASE, DeletePolicy.VAP, DeletePolicy.DAP]


def on_substrate(engine, engine_mode: str):
    """``engine`` on the scalar oracle (``"scalar"``) or as built."""
    return on_oracle(engine) if engine_mode == "scalar" else engine


def assert_run_parity(scalar, vector, context: str = "") -> None:
    """States bit-identical; every work vector and queue stat equal."""
    assert scalar.states.tobytes() == vector.states.tobytes(), (
        f"{context}: states diverge"
    )
    srows = scalar.metrics.to_rows()
    vrows = vector.metrics.to_rows()
    assert srows == vrows, f"{context}: per-round work vectors diverge"
    for sp, vp in zip(scalar.metrics.phases, vector.metrics.phases):
        assert sp.name == vp.name, context
        assert sp.vertices_reset == vp.vertices_reset, f"{context}: {sp.name}"
        assert sp.deletes_discarded == vp.deletes_discarded, f"{context}: {sp.name}"
        assert sp.request_events == vp.request_events, f"{context}: {sp.name}"
    assert scalar.queue_stats == vector.queue_stats, (
        f"{context}: queue lifetime stats diverge"
    )


def run_static_pair(name: str, config=None, n: int = 60, m: int = 240, seed: int = 7):
    algorithm = make_algorithm(name, source=0)
    graph = make_graph_for(algorithm, n=n, m=m, seed=seed)
    results = []
    for engine_mode in ("scalar", "auto"):
        engine = on_substrate(
            GraphPulseEngine(make_algorithm(name, source=0), config), engine_mode
        )
        results.append(engine.compute(graph.snapshot()))
    return results


def run_stream_pair(
    name: str,
    policy: DeletePolicy,
    config=None,
    n: int = 50,
    m: int = 200,
    seed: int = 11,
    num_batches: int = 3,
    batch_size: int = 12,
):
    results = []
    for engine_mode in ("scalar", "auto"):
        algorithm = make_algorithm(name, source=0)
        graph = make_graph_for(algorithm, n=n, m=m, seed=seed)
        engine = on_substrate(
            JetStreamEngine(graph, algorithm, config, policy=policy), engine_mode
        )
        stream = StreamGenerator(graph, seed=seed + 1)
        runs = [engine.initial_compute()]
        for _ in range(num_batches):
            runs.append(engine.apply_batch(stream.next_batch(batch_size)))
        results.append(runs)
    return results


class TestStaticParity:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_static_compute(self, name):
        scalar, vector = run_static_pair(name)
        assert_run_parity(scalar, vector, f"static/{name}")

    @pytest.mark.parametrize("name", ["sssp", "cc", "pagerank"])
    def test_static_compute_sliced(self, name):
        config = AcceleratorConfig(queue_bytes=25 * 8)
        scalar, vector = run_static_pair(name, config, n=100, m=400, seed=21)
        assert_run_parity(scalar, vector, f"static-sliced/{name}")

    def test_static_compute_linear(self):
        # Contractive operator: normalize each row's out-weight sum below 1.
        from collections import defaultdict

        from repro.graph import generators

        raw = generators.erdos_renyi(40, 160, seed=5)
        row_sum = defaultdict(float)
        for u, _, w in raw:
            row_sum[u] += abs(w)
        edges = [(u, v, 0.8 * w / row_sum[u]) for u, v, w in raw]
        graph = DynamicGraph.from_edges(edges, 40)
        results = []
        for engine_mode in ("scalar", "auto"):
            engine = on_substrate(
                GraphPulseEngine(make_algorithm("linear")), engine_mode
            )
            results.append(engine.compute(graph.snapshot()))
        assert_run_parity(*results, "static/linear")


class TestStreamingParity:
    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_streaming(self, name, policy):
        scalar_runs, vector_runs = run_stream_pair(name, policy)
        for index, (scalar, vector) in enumerate(zip(scalar_runs, vector_runs)):
            assert scalar.impacted == vector.impacted, (
                f"stream/{name}/{policy.name}/batch{index}: impacted diverge"
            )
            assert_run_parity(
                scalar, vector, f"stream/{name}/{policy.name}/batch{index}"
            )

    @pytest.mark.parametrize("name", ["sssp", "cc", "pagerank"])
    def test_streaming_sliced(self, name):
        config = AcceleratorConfig(queue_bytes=20 * 14)
        scalar_runs, vector_runs = run_stream_pair(
            name, DeletePolicy.DAP, config, n=80, m=320, seed=41
        )
        for index, (scalar, vector) in enumerate(zip(scalar_runs, vector_runs)):
            assert scalar.impacted == vector.impacted
            assert_run_parity(scalar, vector, f"stream-sliced/{name}/batch{index}")


class TestQueueGeometryParity:
    """Row-batch accounting under non-default queue geometry.

    The array round assigns each producer to the row batch
    ``vertex // queue_row_vertices``; the oracle builds one line/page set
    per drained row. Every round's ``vertex_lines``/``edge_lines``/
    ``dram_pages`` must agree whatever the row width and page size.
    """

    @pytest.mark.parametrize("row_vertices", [4, 16])
    @pytest.mark.parametrize("name", ["sssp", "pagerank"])
    def test_line_and_page_counts(self, name, row_vertices):
        config = AcceleratorConfig(queue_row_vertices=row_vertices, dram_page_bytes=512)
        scalar_runs, vector_runs = run_stream_pair(
            name, DeletePolicy.DAP, config, n=120, m=600, seed=61
        )
        fields = ("vertex_lines", "edge_lines", "dram_pages")
        totals = dict.fromkeys(fields, 0)
        for index, (scalar, vector) in enumerate(zip(scalar_runs, vector_runs)):
            context = f"geometry/{name}/{row_vertices}/batch{index}"
            want = [[row[f] for f in fields] for row in scalar.metrics.to_rows()]
            got = [[row[f] for f in fields] for row in vector.metrics.to_rows()]
            assert got == want, context
            assert_run_parity(scalar, vector, context)
            for row in want:
                for field, value in zip(fields, row):
                    totals[field] += value
        assert all(totals.values()), totals


class TestEngineSelection:
    def test_scalar_flag_forces_boxed_queue(self):
        from repro.core.queue import VectorQueue
        from repro.oracle import CoalescingQueue

        algorithm = make_algorithm("sssp", source=0)
        graph = make_graph_for(algorithm, n=10, m=30, seed=1)
        engine = on_oracle(JetStreamEngine(graph, algorithm))
        engine.initial_compute()
        assert isinstance(engine.core.new_queue(), CoalescingQueue)
        vec = JetStreamEngine(
            make_graph_for(algorithm, n=10, m=30, seed=1), algorithm
        )
        vec.initial_compute()
        assert isinstance(vec.core.new_queue(), VectorQueue)

    def test_vectorized_requires_hooks(self):
        from repro.algorithms.base import Algorithm
        from repro.core.engine import EngineCore

        class NoHooks(type(make_algorithm("sssp"))):
            reduce_ufunc = None

        class NoKernels(type(make_algorithm("sssp"))):
            propagate_arrays = Algorithm.propagate_arrays
            more_progressed_arrays = Algorithm.more_progressed_arrays

        # A core without the array hooks raises at construction, naming them.
        for num_engines in (None, 4):
            with pytest.raises(ValueError, match="reduce_ufunc"):
                EngineCore(NoHooks(source=0), num_engines=num_engines)
        with pytest.raises(
            ValueError, match="propagate_arrays, more_progressed_arrays"
        ):
            JetStreamEngine(
                make_graph_for(NoKernels(source=0), n=10, m=30, seed=1),
                NoKernels(source=0),
            )

    def test_unknown_engine_rejected(self):
        from repro.core.engine import EngineCore

        # num_engines is the only engine option: at least one engine, and
        # the substrate keyword is gone.
        for num_engines in (0, -1):
            with pytest.raises(ValueError):
                EngineCore(make_algorithm("sssp"), num_engines=num_engines)
        with pytest.raises(TypeError):
            EngineCore(make_algorithm("sssp"), engine="sharded")
