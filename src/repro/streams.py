"""Streaming-update batches and workload generation.

Graph updates arrive as a stream of edge insertions/deletions, collected
into batches and applied between query evaluations (§2.1, Fig. 1). The
paper's evaluation uses 100K-edge batches at 70% insertions / 30% deletions
(Table 3) and sweeps both the size (Fig. 13) and the composition (Fig. 14).

A batch is one pair of arrays from the host API to the graph store's CSR
splice: ``(n, 3)`` float64 insertion rows ``(u, v, w)`` and ``(m, 2)``
int64 deletion keys ``(u, v)``. :func:`insertion_rows` and
:func:`deletion_rows` convert a tuple sequence once and validate vertex
ids and insertion weights (:func:`finite_weight` checks one weight);
:class:`Edge` lists are views derived on demand for the software
baselines, :mod:`repro.graph.io` and tests.

:class:`StreamGenerator` produces consistent batches against a
:class:`~repro.graph.dynamic.DynamicGraph`: deletions sample edges that
currently exist, insertions are fresh edges, and no edge appears twice in
one batch.
"""

from __future__ import annotations

import math
from itertools import repeat
from numbers import Real
from typing import Iterator, List, NamedTuple, Optional, Set, Tuple

import numpy as np

#: Vertex ids must be below this bound: it keeps them exact in float64
#: insertion rows and keeps the store's ``u << shift | v`` keys in int64.
VERTEX_ID_LIMIT = 1 << 31


class Edge(NamedTuple):
    """A directed edge ``u -> v`` with weight ``w``."""

    u: int
    v: int
    w: float = 1.0

    def key(self) -> Tuple[int, int]:
        """The ``(u, v)`` identity of the edge (weights don't identify)."""
        return (self.u, self.v)


def _check_ids(ids: np.ndarray) -> None:
    """ValueError unless every entry of ``ids`` is a non-negative integer
    below :data:`VERTEX_ID_LIMIT` (booleans are not ids)."""
    if ids.dtype.kind not in "iuf":
        raise ValueError(f"vertex ids must be integers, not {ids.dtype}")
    if ids.size and not (
        ids.min() >= 0
        and ids.max() < VERTEX_ID_LIMIT
        and (ids.dtype.kind != "f" or (np.floor(ids) == ids).all())
    ):
        ok = (ids >= 0) & (ids < VERTEX_ID_LIMIT) & (np.floor(ids) == ids)
        bad = ids[~ok][0].item()
        raise ValueError(
            f"vertex id {bad!r} is not a non-negative integer below 2**31"
        )


def vertex_ids(ids: np.ndarray) -> np.ndarray:
    """``ids`` as int64, checked like :func:`_check_ids`."""
    _check_ids(ids)
    return ids.astype(np.int64, copy=False)


def vertex_id(x) -> int:
    """One vertex id as an int, checked like :func:`vertex_ids`."""
    if isinstance(x, (bool, np.bool_)):
        raise ValueError("vertex ids must be integers, not booleans")
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"vertex id {x!r} is not an integer") from None
    if i != x or not 0 <= i < VERTEX_ID_LIMIT:
        raise ValueError(f"vertex id {x!r} is not a non-negative integer below 2**31")
    return i


def finite_weight(w) -> float:
    """One edge weight as a float: a finite real number, not a boolean.

    A NaN or infinite weight would poison every state it reaches (a NaN
    distance never compares better, so no later insert repairs it).
    """
    if isinstance(w, (bool, np.bool_)) or not isinstance(w, Real):
        raise ValueError(f"edge weight {w!r} is not a number")
    try:
        if math.isfinite(w):
            return float(w)
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"edge weight {w!r} is not finite")


def insertion_rows(insertions) -> np.ndarray:
    """Insertions as an ``(n, 3)`` float64 array of ``(u, v, w)`` rows.

    Takes such an array as is, or converts a sequence of ``(u, v, w)``
    tuples / :class:`Edge` objects once. Raises ``ValueError`` for another
    shape, for vertex ids that are not non-negative integers and for
    weights that are not finite.
    """
    rows = np.asarray(insertions)
    if rows.size == 0:
        return np.empty((0, 3), dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("insertions must be (u, v, w) rows")
    _check_ids(rows[:, :2])
    rows = rows.astype(np.float64, copy=False)
    finite = np.isfinite(rows[:, 2])
    if not finite.all():
        bad = rows[:, 2][~finite][0].item()
        raise ValueError(f"edge weight {bad!r} is not finite")
    return rows


def deletion_rows(deletions) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Deletions as ``(m, 2)`` int64 ``(u, v)`` keys, plus weights if given.

    Takes ``(u, v)`` keys or ``(u, v, w)`` rows — an array, or a sequence
    of tuples / :class:`Edge` objects, converted once. The weights of
    three-column input are returned (``StreamGenerator`` deletions carry
    the live weight), otherwise ``None``; the graph ignores them, since a
    deletion removes whatever weight is stored. Raises ``ValueError`` like
    :func:`insertion_rows`.
    """
    rows = np.asarray(deletions)
    if rows.size == 0:
        return np.empty((0, 2), dtype=np.int64), None
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise ValueError("deletions must be (u, v) keys or (u, v, w) rows")
    keys = vertex_ids(rows[:, :2])
    return keys, rows[:, 2].astype(np.float64) if rows.shape[1] == 3 else None


def _has_repeated_key(keys: np.ndarray) -> bool:
    """True if some ``(u, v)`` row of an id array occurs twice."""
    if len(keys) < 2:
        return False
    packed = np.sort((keys[:, 0].astype(np.int64) << 31) | keys[:, 1].astype(np.int64))
    return bool((packed[1:] == packed[:-1]).any())


class UpdateBatch:
    """One batch of streaming updates (Δ in Fig. 1), held as arrays.

    ``ins`` holds the ``(n, 3)`` float64 insertion rows ``(u, v, w)``,
    ``dels`` the ``(m, 2)`` int64 deletion keys, ``del_weights`` the
    deletions' weights when the caller gave ``(u, v, w)`` deletion rows
    (``None`` otherwise). The constructor takes arrays as is and converts
    tuple or :class:`Edge` sequences once (:func:`insertion_rows`,
    :func:`deletion_rows`); it raises ``ValueError`` for invalid vertex
    ids. Duplicates are refused by :meth:`validate` and, against the live
    edge set, by :meth:`DynamicGraph.check_batch`.
    """

    __slots__ = ("ins", "dels", "del_weights")

    def __init__(self, insertions=(), deletions=()):
        self.ins = insertion_rows(insertions)
        self.dels, self.del_weights = deletion_rows(deletions)

    @property
    def size(self) -> int:
        """Total number of edge updates in the batch."""
        return len(self.ins) + len(self.dels)

    @property
    def insertion_ratio(self) -> float:
        """Fraction of the batch that is insertions."""
        return len(self.ins) / self.size if self.size else 0.0

    @property
    def insertions(self) -> List[Edge]:
        """The insertions as :class:`Edge` objects (a fresh list per call)."""
        u, v = self.ins[:, :2].astype(np.int64).T.tolist()
        return list(map(Edge, u, v, self.ins[:, 2].tolist()))

    @property
    def deletions(self) -> List[Edge]:
        """The deletions as :class:`Edge` objects (weight 1.0 when the
        caller gave none)."""
        u, v = self.dels.T.tolist()
        w = repeat(1.0) if self.del_weights is None else self.del_weights.tolist()
        return list(map(Edge, u, v, w))

    def validate(self) -> None:
        """Check internal consistency: no update named twice in the batch."""
        if _has_repeated_key(self.ins[:, :2]):
            raise ValueError("duplicate insertion in batch")
        if _has_repeated_key(self.dels):
            raise ValueError("duplicate deletion in batch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdateBatch(+{len(self.ins)}, -{len(self.dels)})"


class StreamGenerator:
    """Generates a reproducible stream of update batches for a graph.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.dynamic.DynamicGraph` the stream mutates.
        The generator tracks the live edge set; callers must apply each
        produced batch to the graph (``graph.apply_batch``) before asking
        for the next one (the engines do this).
    seed:
        RNG seed; streams are fully deterministic.
    insertion_ratio:
        Fraction of each batch that is insertions (paper default 0.7).
    weighted:
        Whether inserted edges get random integer weights (else 1.0).
    """

    def __init__(
        self,
        graph,
        seed: int = 0,
        insertion_ratio: float = 0.7,
        weighted: bool = True,
        max_weight: int = 64,
    ):
        if not 0.0 <= insertion_ratio <= 1.0:
            raise ValueError("insertion_ratio must be within [0, 1]")
        self.graph = graph
        self.rng = np.random.default_rng(seed)
        self.insertion_ratio = insertion_ratio
        self.weighted = weighted
        self.max_weight = max_weight

    def next_batch(
        self, size: int, insertion_ratio: Optional[float] = None
    ) -> UpdateBatch:
        """Produce the next batch of ``size`` edge updates.

        Deletions are sampled uniformly from the current edge set and
        carry their live weights; insertions are fresh ``(u, v)`` pairs
        not currently present and not deleted in this same batch
        (re-inserting a just-deleted edge would be a weight update, which
        the paper models explicitly as two separate batch entries — we
        keep batches unambiguous instead).
        """
        ratio = self.insertion_ratio if insertion_ratio is None else insertion_ratio
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("insertion_ratio must be within [0, 1]")
        num_ins = int(round(size * ratio))
        num_del = size - num_ins

        deletions = self._sample_deletions(num_del)
        deleted_keys = set(zip(*deletions[:, :2].astype(np.int64).T.tolist()))
        insertions = self._sample_insertions(num_ins, deleted_keys)
        batch = UpdateBatch(insertions=insertions, deletions=deletions)
        batch.validate()
        return batch

    def stream(self, batch_size: int, num_batches: int) -> Iterator[UpdateBatch]:
        """Yield ``num_batches`` batches, applying each to the graph.

        Convenience for examples/tests that don't drive an engine: the graph
        is mutated here so successive batches stay consistent.
        """
        for _ in range(num_batches):
            batch = self.next_batch(batch_size)
            self.graph.apply_batch(batch.ins, batch.dels)
            yield batch

    # ------------------------------------------------------------------
    def _sample_deletions(self, count: int) -> np.ndarray:
        """``count`` live edges as ``(u, v, w)`` rows, sampled in CSR order."""
        src, dst, wgt = self.graph.edge_arrays()
        if self.graph.symmetric:
            # Sample each undirected edge once; the engine mirrors deletes.
            once = src < dst
            src, dst, wgt = src[once], dst[once], wgt[once]
        if count > len(src):
            raise ValueError(
                f"cannot delete {count} edges from a graph with {len(src)}"
            )
        if count == 0:
            return np.empty((0, 3), dtype=np.float64)
        picks = self.rng.choice(len(src), size=count, replace=False)
        return np.column_stack([src[picks], dst[picks], wgt[picks]]).astype(np.float64)

    def _sample_insertions(
        self, count: int, excluded: Set[Tuple[int, int]]
    ) -> List[Tuple[int, int, float]]:
        n = self.graph.num_vertices
        out: List[Tuple[int, int, float]] = []
        chosen: Set[Tuple[int, int]] = set()
        attempts = 0
        limit = 200 * max(1, count) + 1000
        while len(out) < count:
            attempts += 1
            if attempts > limit:
                raise RuntimeError("could not find enough fresh edges to insert")
            u = int(self.rng.integers(0, n))
            v = int(self.rng.integers(0, n))
            if u == v:
                continue
            key = (u, v)
            mirror = (v, u)
            if key in chosen or key in excluded:
                continue
            if self.graph.symmetric and (mirror in chosen or mirror in excluded):
                continue
            if self.graph.has_edge(u, v):
                continue
            w = float(self.rng.integers(1, self.max_weight)) if self.weighted else 1.0
            out.append((u, v, w))
            chosen.add(key)
        return out
