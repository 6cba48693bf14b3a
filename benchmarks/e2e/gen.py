"""Seeded, vectorised input generator for the end-to-end benchmark.

One R-MAT draw yields a duplicate-free *edge universe*; a random split of
it gives the base graph (``rmat-131k``) and a held-out insert pool, so
inserts come from the same distribution as the graph they land in. Every
batch swaps ``k`` uniformly chosen live edges (deletes) for ``k`` pool
edges (inserts): the live set stays a uniform sample of the universe, so
graph size and degree skew do not drift while the clock runs — a faster
commit is timed on the same graph shape as a slower one.

The universe is one fixed graph, as ``rmat-131k`` is in the repo's
``BENCH_*`` suites; ``--seed`` draws the op streams and the read vertices.
Measured over ten seeds, a graph drawn per seed put 7% (interquartile, of
the median) on ``batch-sel`` throughput against 4% with the graph fixed,
which is this machine's own run-to-run noise.

Everything here runs before the clock starts. ``StreamGenerator`` is never
used: its ``next_batch`` is O(E) per call.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Tuple

import numpy as np

from repro.graph import generators

GRAPH_SEED = 17
NUM_VERTICES = 16_384
BASE_EDGES = 131_072
POOL_EDGES = 65_536
ROOT = 0


@dataclass
class Inputs:
    """The edge universe plus which of its rows form the base graph.

    ``u``/``v``/``w`` are parallel arrays over the universe; ``base`` and
    ``pool`` are disjoint row-index arrays into them.
    """

    seed: int
    num_vertices: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    base: np.ndarray
    pool: np.ndarray
    #: The base graph as ``(u, v, w)`` tuples: the "edges in hand" that
    #: every set-up starts from.
    base_edges: List[Tuple[int, int, float]] = field(default_factory=list)
    input_s: float = 0.0

    def edge_tuples(self, rows: np.ndarray) -> List[Tuple[int, int, float]]:
        """Universe rows as the ``(u, v, w)`` tuples the host API takes."""
        return list(
            zip(self.u[rows].tolist(), self.v[rows].tolist(), self.w[rows].tolist())
        )

    def key_tuples(self, rows: np.ndarray) -> List[Tuple[int, int]]:
        """Universe rows as ``(u, v)`` deletion keys."""
        return list(zip(self.u[rows].tolist(), self.v[rows].tolist()))


@dataclass
class OpStream:
    """Pre-drawn update batches: row ``b`` inserts ``ins[b]``, deletes ``dels[b]``.

    Both hold universe row indices, ``k`` per batch. Deletes of a batch are
    live before it and inserts are not, so a batch is also valid as the
    interleaved single-update sequence ``ins[b,0], dels[b,0], ins[b,1], ...``
    (see :meth:`singles`).
    """

    ins: np.ndarray
    dels: np.ndarray

    @property
    def num_batches(self) -> int:
        return int(self.ins.shape[0])

    @property
    def batch_records(self) -> int:
        return 2 * int(self.ins.shape[1])

    def singles(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flatten to one update per op: ``(rows, is_insert)``."""
        rows = np.stack([self.ins, self.dels], axis=2).reshape(-1)
        is_insert = np.tile(np.array([True, False]), rows.shape[0] // 2)
        return rows, is_insert


def _reachable(num_vertices: int, u: np.ndarray, v: np.ndarray, root: int) -> np.ndarray:
    """Boolean reachability from ``root`` (frontier BFS over a CSR)."""
    order = np.argsort(u, kind="stable")
    targets = v[order]
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=num_vertices), out=offsets[1:])
    seen = np.zeros(num_vertices, dtype=bool)
    seen[root] = True
    frontier = np.array([root], dtype=np.int64)
    while frontier.size:
        starts, stops = offsets[frontier], offsets[frontier + 1]
        lengths = stops - starts
        # Concatenated out-edge index ranges of the whole frontier.
        idx = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(
            int(lengths.sum())
        )
        nxt = np.unique(targets[idx])
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return seen


def make_inputs(seed: int) -> Inputs:
    """Build the universe, base graph and insert pool; ``seed`` is kept
    for :func:`make_stream`."""
    t0 = perf_counter()
    rng = np.random.default_rng([GRAPH_SEED, 1])
    drawn = generators.rmat(NUM_VERTICES, BASE_EDGES + POOL_EDGES, seed=GRAPH_SEED)
    u = np.fromiter((e[0] for e in drawn), dtype=np.int64, count=len(drawn))
    v = np.fromiter((e[1] for e in drawn), dtype=np.int64, count=len(drawn))
    w = np.fromiter((e[2] for e in drawn), dtype=np.float64, count=len(drawn))
    split = rng.permutation(len(drawn))
    base, pool = split[:BASE_EDGES], split[BASE_EDGES:]

    # Same job as generators.ensure_reachable_core (which takes ~5 s here):
    # give every vertex the root cannot reach one in-edge from a vertex it
    # can, so SSSP from the root has work to do everywhere.
    seen = _reachable(NUM_VERTICES, u[base], v[base], ROOT)
    stranded = np.flatnonzero(~seen)
    anchors = rng.choice(np.flatnonzero(seen), size=stranded.size)
    stitch_w = rng.integers(1, 64, size=stranded.size).astype(np.float64)
    # A stitch edge may coincide with a pool edge; the universe must stay
    # duplicate-free, so the pool gives that edge up.
    stitch_keys = anchors * NUM_VERTICES + stranded
    pool = pool[~np.isin(u[pool] * NUM_VERTICES + v[pool], stitch_keys)]
    first_stitch = len(drawn)
    u = np.concatenate([u, anchors])
    v = np.concatenate([v, stranded])
    w = np.concatenate([w, stitch_w])
    base = np.concatenate([base, np.arange(first_stitch, len(u))])
    inputs = Inputs(
        seed=seed, num_vertices=NUM_VERTICES, u=u, v=v, w=w, base=base, pool=pool
    )
    inputs.base_edges = inputs.edge_tuples(base)
    inputs.input_s = perf_counter() - t0
    return inputs


def make_stream(inputs: Inputs, name: str, num_batches: int, k: int) -> OpStream:
    """Draw ``num_batches`` balanced batches of ``k`` inserts + ``k`` deletes.

    ``name`` salts the RNG so each workload gets its own stream from one
    seed. Deleted edges return to the pool and may be re-inserted later.
    """
    rng = np.random.default_rng([inputs.seed, 2, zlib.crc32(name.encode())])
    live, pool = inputs.base.copy(), inputs.pool.copy()
    ins = np.empty((num_batches, k), dtype=np.int64)
    dels = np.empty((num_batches, k), dtype=np.int64)
    for b in range(num_batches):
        li = rng.choice(live.size, size=k, replace=False)
        pi = rng.choice(pool.size, size=k, replace=False)
        dels[b], ins[b] = live[li], pool[pi]
        live[li], pool[pi] = ins[b], dels[b]
    return OpStream(ins=ins, dels=dels)


def live_rows(inputs: Inputs, stream: OpStream, singles_done: int) -> np.ndarray:
    """Universe rows that are live after the first ``singles_done`` updates.

    Counted in single updates in :meth:`OpStream.singles` order, so a whole
    number of batches is ``batches * stream.batch_records``.
    """
    mask = np.zeros(inputs.u.size, dtype=bool)
    mask[inputs.base] = True
    full, rest = divmod(singles_done, stream.batch_records)
    for b in range(full):
        mask[stream.dels[b]] = False
        mask[stream.ins[b]] = True
    if rest:
        # A partly applied batch: its first ``rest`` interleaved singles.
        tail = np.stack([stream.ins[full], stream.dels[full]], axis=1).reshape(-1)[:rest]
        mask[tail[0::2]] = True
        mask[tail[1::2]] = False
    return np.flatnonzero(mask)
