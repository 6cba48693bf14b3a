"""Seeded property tests for the incremental array-native graph store.

The :class:`DynamicGraph` store keeps each CSR direction as an edge arena
and rewrites only the touched vertices' runs, copy-on-write at the arena
tail. These tests drive randomized batch sequences — inserts, deletes,
weight changes, vertex growth, symmetric mirroring — and assert every
snapshot reads *identically* (edge arrays, logical offsets, adjacency,
lookups, edge pages) to a from-scratch :class:`CSRGraph` over an
independently tracked edge dict — the latest one and every earlier one
still held, across arena growth and compaction. Batches arrive as tuple
lists and as ``(n, 3)`` / ``(m, 2)`` arrays; poisoned batches (a missing
delete, a duplicate insert, a re-insert without its delete, a mirrored
pair) must be refused whole, leaving no trace in the store.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DeltaVersionStore, DynamicGraph, GraphMutationError

INITIAL_VERTICES = 24
INITIAL_EDGES = 70
NUM_BATCHES = 12
BATCH_SIZE = 14


def assert_csr_identical(actual: CSRGraph, expected: CSRGraph) -> None:
    """``actual`` reads exactly like ``expected`` through every public
    reader, whatever its slot layout (arena runs or compact)."""
    assert actual.num_vertices == expected.num_vertices
    assert actual.num_edges == expected.num_edges
    for got, want in zip(actual.edge_arrays(), expected.edge_arrays()):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(actual.out_offsets, expected.out_offsets)
    np.testing.assert_array_equal(actual.in_offsets, expected.in_offsets)
    compact = actual.compact()
    for name in ("out_targets", "out_weights", "in_sources", "in_weights"):
        np.testing.assert_array_equal(getattr(compact, name), getattr(expected, name))
    for u in range(expected.num_vertices):
        assert list(actual.out_edges(u)) == list(expected.out_edges(u))
        assert list(actual.in_edges(u)) == list(expected.in_edges(u))
        assert actual.edge_pages(u, PAGE_BYTES) == expected.edge_pages(u, PAGE_BYTES)
        for v, w in expected.out_edges(u):
            assert actual.has_edge(u, v) and actual.edge_weight(u, v) == w
        absent = expected.num_vertices - 1 - u
        assert actual.has_edge(u, absent) == expected.has_edge(u, absent)


#: A small DRAM page, so edge runs straddle several pages.
PAGE_BYTES = 64


def oracle_csr(expected: dict, num_vertices: int) -> CSRGraph:
    """From-scratch CSR over the independently tracked edge dict."""
    keys = np.array(list(expected), dtype=np.int64).reshape(-1, 2)
    weights = np.array(list(expected.values()), dtype=np.float64)
    return CSRGraph.from_arrays(num_vertices, keys[:, 0], keys[:, 1], weights)


def assert_degrees(graph: DynamicGraph, model: "_Model") -> None:
    """Every vertex's out- and in-degree equal the model's, with or
    without pending edits."""
    out = np.zeros(graph.num_vertices, dtype=np.int64)
    into = np.zeros(graph.num_vertices, dtype=np.int64)
    for u, v in model.edges:
        out[u] += 1
        into[v] += 1
    assert [graph.out_degree(u) for u in range(graph.num_vertices)] == out.tolist()
    assert [graph.in_degree(v) for v in range(graph.num_vertices)] == into.tolist()


class _Model:
    """Independent mirror of the expected edge set (the test's oracle)."""

    def __init__(self, symmetric: bool):
        self.symmetric = symmetric
        self.edges: dict = {}

    def insert(self, u: int, v: int, w: float) -> None:
        self.edges[(u, v)] = w
        if self.symmetric and u != v:
            self.edges[(v, u)] = w

    def delete(self, u: int, v: int) -> None:
        del self.edges[(u, v)]
        if self.symmetric and u != v:
            del self.edges[(v, u)]

    def contains(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (
            self.symmetric and (v, u) in self.edges
        )


def _random_batch(rng, model: _Model, max_vertex: int, grow: bool):
    """A valid (insertions, deletions) pair against the model state."""
    deletions = []
    live = list(model.edges)
    picked = set()
    if live:
        idx = rng.choice(len(live), size=min(BATCH_SIZE // 2, len(live)), replace=False)
        for i in np.sort(idx):
            u, v = live[int(i)]
            if (u, v) in picked or (v, u) in picked:
                continue
            picked.add((u, v))
            deletions.append((u, v))
    insertions = []
    staged = set()
    for _ in range(BATCH_SIZE):
        if grow and rng.random() < 0.3:
            u = int(rng.integers(0, max_vertex + 9))
            v = int(rng.integers(0, max_vertex + 9))
        else:
            u = int(rng.integers(0, max_vertex))
            v = int(rng.integers(0, max_vertex))
        if model.contains(u, v) and (u, v) not in picked and (v, u) not in picked:
            continue  # duplicate insert (and not freed by a deletion)
        if (u, v) in staged or (model.symmetric and (v, u) in staged):
            continue
        if model.contains(u, v):
            # Freed by this batch's deletion: weight-change idiom.
            if (u, v) not in picked and not (model.symmetric and (v, u) in picked):
                continue
        staged.add((u, v))
        insertions.append((u, v, float(rng.integers(1, 12))))
    return insertions, deletions


def _apply_to_model(model: _Model, insertions, deletions) -> None:
    for u, v in deletions:
        model.delete(u, v)
    for u, v, w in insertions:
        model.insert(u, v, w)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
@pytest.mark.parametrize("grow", [False, True], ids=["fixed", "growing"])
def test_incremental_store_matches_from_scratch_rebuild(seed, symmetric, grow):
    """Every snapshot still held stays identical to its version's oracle
    while later batches rewrite runs at the arena tail, grow the arena and
    compact it; degrees match the model after every single edit and every
    batch."""
    rng = np.random.default_rng((seed, symmetric, grow, 99))
    graph = DynamicGraph(INITIAL_VERTICES, symmetric=symmetric)
    model = _Model(symmetric)
    for _ in range(INITIAL_EDGES):
        u = int(rng.integers(0, INITIAL_VERTICES))
        v = int(rng.integers(0, INITIAL_VERTICES))
        if model.contains(u, v):
            continue
        w = float(rng.integers(1, 12))
        graph.add_edge(u, v, w)
        model.insert(u, v, w)
        assert_degrees(graph, model)
    held = [(graph.snapshot(), oracle_csr(model.edges, graph.num_vertices))]
    capacities = [len(graph._out.minors)]
    dead_held = False

    for _ in range(NUM_BATCHES):
        insertions, deletions = _random_batch(rng, model, graph.num_vertices, grow)
        graph.apply_batch(insertions, deletions)
        _apply_to_model(model, insertions, deletions)
        assert_degrees(graph, model)
        dead_held |= graph._out.dead > 0

        held.append((graph.snapshot(), oracle_csr(model.edges, graph.num_vertices)))
        capacities.append(len(graph._out.minors))
        for snap, oracle in held:
            assert_csr_identical(snap, oracle)
        # The in-tree comparator path must agree with the true oracle too.
        assert_csr_identical(graph.rebuild_snapshot(), held[-1][1])

    # Each program outgrows the arena's first size and compacts dead runs
    # away more than once, while snapshots over dead slots were held.
    assert max(capacities) > capacities[0]
    assert graph.store_stats()["compactions"] >= 2 and dead_held
    if grow:
        # Growth mode must have grown the vertex range well past its start.
        assert graph.num_vertices > 32


def _store_state(graph: DynamicGraph):
    """Everything a refused batch must leave as it was (store flushed)."""
    arrays = [
        a.copy()
        for csr in (graph._out, graph._in)
        for a in (
            csr.minors[: csr.tail],
            csr.weights[: csr.tail],
            csr.start,
            csr.degree,
            np.array([csr.tail, csr.dead, len(csr.minors)]),
        )
    ]
    return (
        graph.num_edges,
        arrays,
        graph.version,
        graph.mutation_stamp,
        graph.num_vertices,
        graph.store_stats(),
    )


def _assert_same_state(after, before) -> None:
    num_edges, arrays, *scalars = after
    assert num_edges == before[0]
    for got, want in zip(arrays, before[1]):
        np.testing.assert_array_equal(got, want)
    assert scalars == list(before[2:])


def _fresh_pair(rng, model: _Model, n: int, taken) -> tuple:
    """A ``(u, v)`` pair, ``u != v``, that is neither live nor in ``taken``."""
    while True:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and not model.contains(u, v) and (u, v) not in taken:
            return u, v


def _poisoned(rng, model: _Model, insertions, deletions, n: int, kind: str):
    """The valid batch plus one update that makes the whole batch invalid.

    The poison goes last, so a store that applied updates one by one would
    already have mutated when it reached it.
    """
    ins, dels = list(insertions), list(deletions)
    freed = set(dels) | {(v, u) for u, v in dels}
    taken = freed | {(u, v) for u, v, _ in ins} | {(v, u) for u, v, _ in ins}
    if kind == "missing-delete":
        dels.append(_fresh_pair(rng, model, n, taken))
    elif kind in ("duplicate-insert", "weight-change-reinsert"):
        # A live edge the batch does not delete: re-inserting it at any
        # weight is a duplicate, not a weight change.
        live = sorted(key for key in model.edges if key not in freed)
        u, v = live[int(rng.integers(0, len(live)))]
        w = model.edges[(u, v)] + (1.0 if kind == "weight-change-reinsert" else 0.0)
        ins.append((u, v, w))
    elif kind == "mirror-pair":
        # Symmetric: both orientations of one fresh edge mirror onto each
        # other. Directed: the same fresh edge twice.
        u, v = _fresh_pair(rng, model, n, taken)
        ins += [(u, v, 1.0), (v, u, 1.0) if model.symmetric else (u, v, 2.0)]
    else:  # pragma: no cover - parametrization typo
        raise AssertionError(kind)
    return np.array(ins, dtype=np.float64).reshape(-1, 3), np.array(
        dels, dtype=np.int64
    ).reshape(-1, 2)


REJECTS = [
    "missing-delete",
    "duplicate-insert",
    "weight-change-reinsert",
    "mirror-pair",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
@pytest.mark.parametrize("grow", [False, True], ids=["fixed", "growing"])
def test_array_batches_match_model_and_refusals_leave_no_trace(seed, symmetric, grow):
    """``apply_batch`` on ``(n, 3)`` / ``(m, 2)`` arrays, against the model.

    Before every valid batch a poisoned copy of it is refused whole: edge
    count, pending edits, both CSR directions, version, mutation stamp and store counters stay
    exactly as they were. Single-edge mutations (the lazy path) interleave
    so batch checks meet pending edits. ``edges_spliced`` counts the net
    splice: a re-insert at the stored weight cancels its deletion.
    """
    rng = np.random.default_rng((seed, symmetric, grow, 25))
    graph = DynamicGraph(INITIAL_VERTICES, symmetric=symmetric)
    model = _Model(symmetric)
    for _ in range(INITIAL_EDGES):
        u, v = (int(x) for x in rng.integers(0, INITIAL_VERTICES, size=2))
        if not model.contains(u, v):
            w = float(rng.integers(1, 12))
            graph.add_edge(u, v, w)
            model.insert(u, v, w)

    for batch_i in range(NUM_BATCHES):
        if batch_i % 2:
            # A pending single edit the next batch check must flush.
            u, v = _fresh_pair(rng, model, graph.num_vertices, set())
            graph.add_edge(u, v, 5.0)
            model.insert(u, v, 5.0)
            assert_degrees(graph, model)
        insertions, deletions = _random_batch(rng, model, graph.num_vertices, grow)
        ins = np.array(insertions, dtype=np.float64).reshape(-1, 3)
        dels = np.array(deletions, dtype=np.int64).reshape(-1, 2)

        graph.snapshot()  # flush, so the arrays are comparable
        before = _store_state(graph)
        kind = REJECTS[batch_i % len(REJECTS)]
        with pytest.raises(GraphMutationError):
            graph.apply_batch(
                *_poisoned(rng, model, insertions, deletions, graph.num_vertices, kind)
            )
        _assert_same_state(_store_state(graph), before)

        expected_splice = _net_splice(model, insertions, deletions)
        spliced = graph.store_stats()["edges_spliced"]
        graph.apply_batch(ins, dels)
        _apply_to_model(model, insertions, deletions)
        assert graph.store_stats()["edges_spliced"] - spliced == expected_splice
        assert graph.num_edges == len(model.edges)
        assert_degrees(graph, model)
        oracle = oracle_csr(model.edges, graph.num_vertices)
        assert_csr_identical(graph.snapshot(), oracle)


def _net_splice(model: _Model, insertions, deletions) -> int:
    """Directed edges a batch splices: every deleted and inserted edge
    once, less both halves of each re-insert at the stored weight."""

    def directed(u, v):
        return {(u, v), (v, u)} if model.symmetric else {(u, v)}

    dels = set().union(*(directed(u, v) for u, v in deletions))
    ins = {key: w for u, v, w in insertions for key in directed(u, v)}
    same = sum(1 for key, w in ins.items() if key in dels and model.edges[key] == w)
    return len(dels) + len(ins) - 2 * same


def test_snapshot_cache_and_copy_on_write_isolation():
    graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)])
    first = graph.snapshot()
    assert graph.snapshot() is first  # cache hit, no rebuild
    stats = graph.store_stats()
    assert stats["snapshot_cache_hits"] == 1
    assert stats["snapshot_builds"] == 1

    before = first.compact()
    graph.apply_batch([(0, 2, 9.0)], [(1, 2)])  # new runs fit past the load's tail
    second = graph.snapshot()
    assert second is not first
    assert second.out_targets is first.out_targets  # one arena, written past first's runs
    assert graph.store_stats()["compactions"] == 0
    middle = second.compact()
    graph.apply_batch([(1, 0, 4.0)], [(0, 1)])  # the out-runs no longer fit
    third = graph.snapshot()
    assert third.out_targets is not second.out_targets
    assert graph.store_stats()["compactions"] == 1  # the in-runs still fit
    # The old snapshots must be untouched by the splices (copy-on-write).
    assert_csr_identical(first, before)
    assert_csr_identical(second, middle)
    assert second.has_edge(0, 2) and not second.has_edge(1, 2)
    assert third.has_edge(1, 0) and not third.has_edge(0, 1)


def test_rebuild_snapshot_always_rebuilds():
    graph = DynamicGraph(4)
    graph.add_edge(0, 1, 1.0)
    a, b = graph.rebuild_snapshot(), graph.rebuild_snapshot()
    assert a is not b and a == b == graph.snapshot()
    assert graph.store_stats()["full_rebuilds"] == 2


class TestDeltaVersionStore:
    def _build(self, seed=5, num_batches=6):
        rng = np.random.default_rng(seed)
        model = _Model(symmetric=False)
        for _ in range(25):
            u = int(rng.integers(0, 10))
            v = int(rng.integers(0, 10))
            if model.contains(u, v):
                continue
            model.insert(u, v, float(rng.integers(1, 9)))
        graph = DynamicGraph.from_edges(
            [(u, v, w) for (u, v), w in model.edges.items()], 10
        )
        store = DeltaVersionStore(graph)
        saved = [(graph.version, dict(model.edges), graph.num_vertices)]
        for _ in range(num_batches):
            insertions, deletions = _random_batch(rng, model, graph.num_vertices, True)
            graph.apply_batch(insertions, deletions)
            store.record()
            _apply_to_model(model, insertions, deletions)
            saved.append((graph.version, dict(model.edges), graph.num_vertices))
        return store, saved

    def _check(self, store, version, edges, num_vertices):
        assert_csr_identical(
            store.reconstruct(version), oracle_csr(edges, num_vertices)
        )

    def test_monotone_replay_rolls_forward(self):
        store, saved = self._build()
        for version, edges, n in saved:
            self._check(store, version, edges, n)

    def test_repeated_and_backward_access(self):
        store, saved = self._build()
        last_version = saved[-1][0]
        store.reconstruct(last_version)
        # Reconstruction must not depend on access order: each version
        # twice in a row, then a jump from the newest back to an old one.
        for version, edges, n in saved:
            self._check(store, version, edges, n)
            self._check(store, version, edges, n)
        self._check(store, last_version, saved[-1][1], saved[-1][2])
        self._check(store, saved[1][0], saved[1][1], saved[1][2])

    def test_unknown_version_raises(self):
        store, saved = self._build()
        with pytest.raises(KeyError):
            store.reconstruct(saved[-1][0] + 1000)

    @pytest.mark.parametrize("keep", [None, 3], ids=["keep-all", "keep-3"])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
    def test_batches_and_singles_match_model(self, keep, symmetric):
        """Every retained version and every common slice equal a dict
        model. Single-edge deltas (the served express path, vertex growth
        included) sit between batches, so retention folds many one-record
        deltas as well as whole batches."""
        rng = np.random.default_rng((keep or 0, symmetric, 31))
        model, initial = _Model(symmetric), []
        for _ in range(INITIAL_EDGES):
            u, v = (int(x) for x in rng.integers(0, INITIAL_VERTICES, size=2))
            if not model.contains(u, v):
                w = float(rng.integers(1, 12))
                initial.append((u, v, w))
                model.insert(u, v, w)
        graph = DynamicGraph.from_edges(initial, INITIAL_VERTICES, symmetric=symmetric)
        store = DeltaVersionStore(graph, keep_versions=keep)
        saved = {graph.version: (dict(model.edges), graph.num_vertices)}
        for step in range(30):
            if step % 4 == 0:
                insertions, deletions = _random_batch(rng, model, graph.num_vertices, True)
                graph.apply_batch(insertions, deletions)
                store.record()
                _apply_to_model(model, insertions, deletions)
            elif step % 3 and model.edges:
                live = sorted(model.edges)
                u, v = live[int(rng.integers(0, len(live)))]
                graph.remove_edge(u, v)
                store.record()
                model.delete(u, v)
            else:
                u, v = _fresh_pair(rng, model, graph.num_vertices + 2, set())
                graph.add_edge(u, v, 3.0)
                store.record()
                model.insert(u, v, 3.0)
            saved[graph.version] = (dict(model.edges), graph.num_vertices)
            if step % 5 == 4:
                held = store.versions()
                for version in held:
                    self._check(store, version, *saved[version])
                self._check_slice(store.common_slice(held), saved)
        evicted = 0 if keep is None else len(saved) - keep
        assert store.stats()["evicted_versions"] == evicted
        # Versions on both sides of a compaction were checked above.
        assert graph.store_stats()["compactions"] >= 1

    @staticmethod
    def _check_slice(slice_, saved) -> None:
        """``common_slice`` against the dict definition of a common edge."""
        edge_sets = [saved[v][0] for v in slice_.versions]
        common = {
            key: w
            for key, w in edge_sets[0].items()
            if all(edges.get(key) == w for edges in edge_sets)
        }
        assert _edge_tuples(slice_.common_edges) == [
            (u, v, w) for (u, v), w in sorted(common.items())
        ]
        for version, edges in zip(slice_.versions, edge_sets):
            assert _edge_tuples(slice_.additions[version]) == [
                (u, v, w) for (u, v), w in sorted(edges.items()) if (u, v) not in common
            ]
            assert slice_.graphs[version].num_vertices == saved[version][1]
        assert slice_.common_vertices == min(saved[v][1] for v in slice_.versions)

    def test_retention_folds_in_bulk_and_stays_bounded(self):
        """Single-edge writes at ``keep_versions=2`` hold two versions, each
        exact, while the oldest diff is dropped on every write."""
        i = np.arange(640)
        graph = DynamicGraph.from_arrays(i // 16, 100 + i % 16, 1.0 + i % 5)
        store = DeltaVersionStore(graph, keep_versions=2)
        for k in range(50):
            before = graph.snapshot().compact()
            graph.add_edge(k, 200 + k, 2.0)
            store.record()
            assert store.stats()["versions_held"] == 2
            older, newer = store.versions()
            assert_csr_identical(store.reconstruct(older), before)
            assert_csr_identical(store.reconstruct(newer), graph.snapshot().compact())
        assert store.stats()["evicted_versions"] == 49
        assert store.stats()["base_edges"] == graph.num_edges - 1

    def test_evicted_arenas_are_freed_and_the_head_shares_its_arena(self):
        """A retained version pins only the arena arrays it indexes: once
        retention has evicted every version over the first arena, that
        arena is freed. The newest version reads the live arena, uncopied."""
        i = np.arange(64)
        graph = DynamicGraph.from_arrays(i // 8, 10 + i % 8, 1.0 + i % 3)
        first = weakref.ref(graph.snapshot().out_targets)
        store = DeltaVersionStore(graph, keep_versions=2)
        assert store.reconstruct(graph.version).out_targets is first()
        k = 0
        while graph.snapshot().out_targets is first():
            graph.apply_batch([(k, 30 + k, 1.0)], [])
            store.record()
            k += 1
        assert first() is not None  # the version before the compaction holds it
        graph.apply_batch([(k, 30 + k, 1.0)], [])
        store.record()
        gc.collect()
        assert first() is None
        head = store.reconstruct(graph.version)
        assert head.out_targets is graph.snapshot().out_targets
        assert head.in_sources is graph.snapshot().in_sources
        arenas = {
            id(a): a.nbytes
            for version in store.versions()
            for csr in [store.reconstruct(version)]
            for a in (csr.out_targets, csr.out_weights, csr.in_sources, csr.in_weights)
        }
        assert store.stats()["arena_bytes"] == sum(arenas.values())


def _edge_tuples(columns):
    """``(u, v, w)`` tuples of a ``(src, dst, wgt)`` column triple."""
    return list(zip(*(c.tolist() for c in columns)))


def test_single_edits_are_pending_until_a_flush():
    graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
    graph.add_edge(2, 0, 3.0)
    graph.remove_edge(0, 1)
    graph.add_edge(0, 1, 4.0)  # a weight change made of two singles
    assert graph.edge_weight(0, 1) == 4.0
    assert graph.edge_weight(1, 2) == 2.0  # answered by the arrays
    assert graph.num_edges == 3
    with pytest.raises(KeyError):
        graph.edge_weight(2, 1)
    # An id past the 31-bit key stride must not alias another edge's key.
    assert not graph.has_edge(0, (1 << 31) + 2)  # same key bits as (1, 2)
    with pytest.raises(GraphMutationError):
        graph.add_edge(0, 1 << 31)
    assert graph.store_stats()["flushes"] == 0
    graph.snapshot()
    assert graph.store_stats()["flushes"] == 1
    assert graph.store_stats()["edges_spliced"] == 3  # 2->0, and 0->1 out and in
    assert sorted(graph.edges()) == [(0, 1, 4.0), (1, 2, 2.0), (2, 0, 3.0)]
    graph.snapshot()
    assert graph.store_stats()["flushes"] == 1  # nothing left pending


@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
def test_adjacency_queries_read_pending_edits_without_a_flush(symmetric):
    """Adjacency answers from the arrays plus the pending edits: the stored
    run in key order less the edited keys, then the pending inserts in
    edit order. Nothing is spliced to answer it."""
    graph = DynamicGraph.from_edges(
        [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (4, 2, 5.0)], symmetric=symmetric
    )
    graph.add_edge(0, 6, 6.0)  # grows the vertex range past the offsets
    graph.remove_edge(0, 2)
    graph.add_edge(0, 5, 7.0)
    graph.remove_edge(0, 1)
    graph.add_edge(0, 1, 8.0)  # weight change: moves 0->1 behind the run
    graph.add_edge(3, 2, 9.0)
    assert list(graph.out_edges(0)) == [(3, 3.0), (6, 6.0), (5, 7.0), (1, 8.0)]
    assert graph.out_degree(0) == 4
    assert list(graph.in_edges(2)) == [(4, 5.0), (3, 9.0)]
    assert graph.in_degree(2) == 2
    assert list(graph.out_edges(6)) == ([(0, 6.0)] if symmetric else [])
    assert graph.in_degree(6) == 1 and graph.out_degree(6) == int(symmetric)
    assert list(graph.in_edges(1)) == [(0, 8.0)]
    assert graph.store_stats()["flushes"] == 0
    assert graph.store_stats()["edges_spliced"] == 0
    # The same answers once the edits are spliced, now in key order.
    graph.snapshot()
    assert list(graph.out_edges(0)) == [(1, 8.0), (3, 3.0), (5, 7.0), (6, 6.0)]
    assert graph.out_degree(0) == 4 and graph.in_degree(2) == 2
