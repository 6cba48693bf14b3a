"""Every graph reader gives the same answer on an arena snapshot as on its
compact twin.

A :class:`DynamicGraph` snapshot shares the store's edge arenas: each
vertex's run sits wherever its last rewrite put it, with dead slots
between runs. Its compact twin holds the same edges back to back in vertex
order. The static engine, the reference oracles, the BSP substrate and
the KickStarter / GraphBolt baselines built on it, and the partitioner
must not see the difference — states, ``RunMetrics`` and work counters
alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import reference
from repro.algorithms import make_algorithm
from repro.algorithms.base import AlgorithmKind
from repro.baselines import GraphBolt, KickStarter
from repro.baselines.bsp import BSPEngine, run_pull_refinement
from repro.core.engine import GraphPulseEngine
from repro.core.metrics import SoftwareWork
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.graph.partition import partition_graph
from repro.streams import UpdateBatch

NUM_VERTICES = 60


def _random_edges(rng, count: int):
    u, v = rng.integers(0, NUM_VERTICES, size=(2, count))
    keep = np.unique(u * NUM_VERTICES + v, return_index=True)[1]
    keep = keep[u[keep] != v[keep]]
    return u[keep], v[keep], rng.integers(1, 9, size=len(keep)).astype(np.float64)


def _fresh_insertions(rng, graph: DynamicGraph, symmetric: bool):
    """Up to 40 absent edges, no undirected pair twice on a symmetric graph."""
    seen, rows = set(), []
    for a, b in rng.integers(0, NUM_VERTICES, size=(40, 2)).tolist():
        key = (min(a, b), max(a, b)) if symmetric else (a, b)
        if a != b and key not in seen and not graph.has_edge(a, b):
            seen.add(key)
            rows.append((a, b, 2.0))
    return rows


def _forward(graph: DynamicGraph, symmetric: bool):
    """The live edges, one orientation per undirected edge when symmetric."""
    src, dst, wgt = graph.edge_arrays()
    keep = src < dst if symmetric else np.ones(len(src), dtype=bool)
    return src[keep], dst[keep], wgt[keep]


def _arena_and_twin(symmetric: bool):
    """A store whose runs were rewritten out of vertex order over dead
    slots, and a freshly loaded store of the same edges."""
    rng = np.random.default_rng(11)
    u, v, w = _random_edges(rng, 500)
    keep = u < v if symmetric else np.ones(len(u), dtype=bool)
    graph = DynamicGraph.from_arrays(
        u[keep], v[keep], w[keep], NUM_VERTICES, symmetric=symmetric
    )
    for _ in range(3):
        src, dst, _ = _forward(graph, symmetric)
        gone = rng.choice(len(src), size=15, replace=False)
        graph.apply_batch(
            _fresh_insertions(rng, graph, symmetric),
            list(zip(src[gone].tolist(), dst[gone].tolist())),
        )
    assert graph._out.dead > 0 and graph._in.dead > 0
    twin = DynamicGraph.from_arrays(
        *_forward(graph, symmetric), NUM_VERTICES, symmetric=symmetric
    )
    return graph, twin


def _algorithm(name: str):
    if name == "adsorption":
        return make_algorithm(name, injections={0: 1.0, 7: 2.0})
    return make_algorithm(name, source=0)


@pytest.mark.parametrize("name", ["sssp", "bfs", "cc", "pagerank", "adsorption"])
def test_arena_snapshot_reads_like_its_compact_twin(name):
    algorithm = _algorithm(name)
    symmetric = algorithm.needs_symmetric or name == "adsorption"
    graph, twin_graph = _arena_and_twin(symmetric)
    arena = graph.snapshot()
    compact = CSRGraph.from_arrays(NUM_VERTICES, *arena.edge_arrays())
    assert not np.array_equal(arena.out_starts, compact.out_starts)
    pair = (arena, compact)

    # Static engine, one engine and sharded accounting: states and
    # RunMetrics (the counters sim.cycles is priced from).
    for num_engines in (None, 4):
        runs = [
            GraphPulseEngine(_algorithm(name), num_engines=num_engines).compute(csr)
            for csr in pair
        ]
        assert runs[0].states.tobytes() == runs[1].states.tobytes()
        assert runs[0].metrics == runs[1].metrics
        assert runs[0].queue_stats == runs[1].queue_stats

    # Reference oracles.
    refs = [reference.compute_reference(algorithm, csr) for csr in pair]
    assert refs[0].tobytes() == refs[1].tobytes()

    # BSP substrate, with its software work counters.
    bsp = BSPEngine(algorithm)
    results = []
    for csr in pair:
        states = np.full(NUM_VERTICES, algorithm.identity)
        work = SoftwareWork()
        if algorithm.kind is AlgorithmKind.SELECTIVE:
            frontier = set()
            for v, payload in algorithm.initial_events(csr):
                if algorithm.reduce(states[v], payload) != states[v]:
                    states[v] = payload
                    frontier.add(v)
            bsp.run_selective(csr, states, frontier, work)
        else:
            deltas = np.zeros(NUM_VERTICES)
            for v, payload in algorithm.initial_events(csr):
                deltas[v] += payload
            bsp.run_accumulative(csr, states, deltas, work)
            seeds = range(0, NUM_VERTICES, 7)
            run_pull_refinement(algorithm, csr, states, deltas.copy(), seeds, work)
        results.append((states.tobytes(), work))
    assert results[0] == results[1]

    # The streaming baselines over each store, one batch each.
    src, dst, _ = _forward(graph, symmetric)
    batch = UpdateBatch(deletions=list(zip(src[:3].tolist(), dst[:3].tolist())))
    baseline = KickStarter if algorithm.kind is AlgorithmKind.SELECTIVE else GraphBolt
    streams = []
    for store in (graph, twin_graph):
        system = baseline(store, _algorithm(name))
        first = system.initial_compute()
        second = system.apply_batch(batch)
        streams.append(
            (first.states.tobytes(), first.work, second.states.tobytes(), second.work)
        )
    assert streams[0] == streams[1]

    # Edge-cut partitioner.
    parts = [partition_graph(csr, 4) for csr in pair]
    assert parts[0].assignment.tobytes() == parts[1].assignment.tobytes()
    assert (parts[0].slice_sizes, parts[0].cut_edges) == (
        parts[1].slice_sizes,
        parts[1].cut_edges,
    )
