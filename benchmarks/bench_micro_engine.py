"""Microbenchmarks of the core machinery (real repeated timings).

Unlike the table/figure benches (single deterministic model evaluations),
these measure the Python implementation's own throughput: queue insertion
and coalescing, static convergence, and incremental batch application.
"""

import itertools
import sys
from pathlib import Path

import pytest

from repro.algorithms import make_algorithm
from repro.core.config import AcceleratorConfig
from repro.core.engine import GraphPulseEngine
from repro.core.events import Event, EventBatch
from repro.core.metrics import RoundWork
from repro.core.policies import DeletePolicy
from repro.core.queue import VectorQueue
from repro.core.streaming import JetStreamEngine
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.host import Accelerator
from repro.oracle import CoalescingQueue
from repro.streams import StreamGenerator

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
import gen  # noqa: E402  (benchmarks/e2e/gen.py: the e2e input generator)


@pytest.fixture(scope="module")
def medium_graph_edges():
    edges = generators.rmat(2048, 12288, seed=17)
    return generators.ensure_reachable_core(edges, 2048, seed=18)


def test_queue_insert_throughput(benchmark):
    algorithm = make_algorithm("sssp", source=0)
    queue = CoalescingQueue(algorithm, AcceleratorConfig(), DeletePolicy.DAP, 4096)
    events = [Event(v % 4096, float(v % 97), 0, v % 64) for v in range(10_000)]

    def insert_all():
        work = RoundWork()
        for event in events:
            queue.insert(event, work)
        queue.drain_round()

    benchmark(insert_all)


@pytest.mark.parametrize("k", [1, 1_000, 100_000])
def test_vector_queue_insert_batch(benchmark, k):
    """``VectorQueue.insert_batch`` on ``k`` R-MAT-skewed targets.

    One round of the array engine: a batch onto empty cells, then the
    drain. ``k=1`` is the serve fall-through shape, where the number of
    NumPy calls is the cost; at ``k=100_000`` the passes over the batch are.
    """
    num_vertices = 16_384
    algorithm = make_algorithm("sssp", source=0)
    queue = VectorQueue(algorithm, AcceleratorConfig(), DeletePolicy.DAP, num_vertices)
    edges = generators.rmat(num_vertices, k, seed=23)
    batch = EventBatch.from_arrays(
        [v for _, v, _ in edges],
        [w for _, _, w in edges],
        sources=[u for u, _, _ in edges],
    )

    def insert_and_drain():
        work = RoundWork()
        queue.insert_batch(batch, work)
        queue.drain_round()
        return work

    work = benchmark(insert_and_drain)
    benchmark.extra_info["events"] = k
    benchmark.extra_info["coalesce_ops"] = work.coalesce_ops


def test_queue_coalesce_heavy(benchmark):
    """All events target 16 vertices — worst-case coalescing pressure."""
    algorithm = make_algorithm("sssp", source=0)
    queue = CoalescingQueue(algorithm, AcceleratorConfig(), DeletePolicy.DAP, 64)
    events = [Event(v % 16, float(v % 97), 0, v % 8) for v in range(10_000)]

    def insert_all():
        work = RoundWork()
        for event in events:
            queue.insert(event, work)
        queue.drain_round()

    benchmark(insert_all)


def test_static_sssp_convergence(benchmark, medium_graph_edges):
    graph = DynamicGraph.from_edges(medium_graph_edges, 2048)
    csr = graph.snapshot()

    def converge():
        return GraphPulseEngine(make_algorithm("sssp", source=0)).compute(csr)

    result = benchmark(converge)
    assert result.metrics.events_processed > 0


def test_incremental_batch_sssp(benchmark, medium_graph_edges):
    def run_batch():
        graph = DynamicGraph.from_edges(medium_graph_edges, 2048)
        engine = JetStreamEngine(graph, make_algorithm("sssp", source=0))
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=19)
        return engine.apply_batch(stream.next_batch(64))

    result = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    assert result.graph_version > 0


def test_incremental_batch_pagerank(benchmark, medium_graph_edges):
    def run_batch():
        graph = DynamicGraph.from_edges(medium_graph_edges, 2048)
        engine = JetStreamEngine(graph, make_algorithm("pagerank", tolerance=1e-4))
        engine.initial_compute()
        stream = StreamGenerator(graph, seed=20)
        return engine.apply_batch(stream.next_batch(64))

    result = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    assert result.metrics.events_processed > 0


@pytest.fixture(scope="module")
def e2e_inputs():
    """The end-to-end benchmark's rmat-131k graph and insert pool."""
    return gen.make_inputs(0)


@pytest.mark.parametrize("k", [1, 25, 500], ids=lambda k: f"k={k}")
def test_push_updates_run(benchmark, e2e_inputs, k):
    """``Session.push_updates`` + ``run`` of a k-insert + k-delete SSSP batch.

    k=500 is the ``batch-sel`` write, k=25 the ``serve-ingest`` batch, and
    k=1 the shape where the fixed count of NumPy calls per batch is the
    cost. Batches are tuple lists, as the e2e benchmark sends them; they
    alternate a swap of base for pool edges and its inverse, so the graph
    is back at its base every second call.
    """
    inputs = e2e_inputs
    session = Accelerator().load_graph(
        inputs.base_edges, num_vertices=inputs.num_vertices
    )
    session.configure("sssp", source=0)
    session.run()
    stream = gen.make_stream(inputs, "micro", 1, k)
    ins, dels = stream.ins[0], stream.dels[0]
    swaps = itertools.cycle(
        [
            (inputs.edge_tuples(ins), inputs.key_tuples(dels)),
            (inputs.edge_tuples(dels), inputs.key_tuples(ins)),
        ]
    )

    def write():
        session.push_updates(*next(swaps))
        return session.run()

    result = benchmark(write)
    benchmark.extra_info["records"] = 2 * k
    assert result.graph_version > 0
    session.close()
