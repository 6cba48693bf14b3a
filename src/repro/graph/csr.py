"""Compressed Sparse Row graph storage.

GraphPulse/JetStream store the graph structure in CSR format (§4.7).
JetStream additionally requires *incoming*-edge access for the
re-approximation phase (request events travel along in-edges), so the
snapshot holds both an out-CSR and an in-CSR.

The class is immutable: mutation happens on
:class:`repro.graph.dynamic.DynamicGraph`, which emits fresh snapshots —
mirroring the paper's model where the host swaps a new CSR pointer into
accelerator memory after each batch.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int, float]

#: Bytes per vertex-state entry assumed by the locality helpers (a
#: double-precision value; the DAP variant widens this, handled by the
#: timing model, not here).
VERTEX_STATE_BYTES = 8

#: Bytes per CSR edge entry (4-byte target id + 4-byte weight).
EDGE_ENTRY_BYTES = 8


class CSRGraph:
    """Immutable directed graph in dual (out + in) CSR form.

    Each direction is a set of per-vertex *runs* in one slot array:
    vertex ``u``'s out-edges are ``out_targets[s : s + d]`` (weights
    ``out_weights[s : s + d]``) with ``s = out_starts[u]`` and
    ``d = out_degrees[u]``, sorted by target id; likewise ``in_starts`` /
    ``in_degrees`` / ``in_sources`` / ``in_weights`` for in-edges. A graph
    built here (or by :meth:`from_arrays`) is *compact*: its runs lie back
    to back in vertex order, so ``starts`` are its CSR offsets. A
    :class:`~repro.graph.dynamic.DynamicGraph` snapshot shares the store's
    edge arena instead, whose runs lie in any order with dead and spare
    slots between them; :meth:`compact` gathers one back to back.

    ``out_offsets`` / ``in_offsets`` are the *logical* offsets — those of
    the compact CSR the paper's host hands the accelerator, a cumsum of the
    degrees. The architectural model reads them for edge addresses, so the
    accounting does not depend on the store's layout. They index the slot
    arrays of a compact graph only.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(src, dst, weight)`` triples. Parallel edges are
        allowed by the storage but rejected by :class:`DynamicGraph`.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "out_starts",
        "out_degrees",
        "out_targets",
        "out_weights",
        "in_starts",
        "in_degrees",
        "in_sources",
        "in_weights",
        "_out_offsets",
        "_in_offsets",
        "_compact",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        edge_list = list(edges)
        count = len(edge_list)
        self._assign(
            *_compact_parts(
                num_vertices,
                np.fromiter((e[0] for e in edge_list), dtype=np.int64, count=count),
                np.fromiter((e[1] for e in edge_list), dtype=np.int64, count=count),
                np.fromiter((e[2] for e in edge_list), dtype=np.float64, count=count),
            )
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, edges: Sequence[Edge], num_vertices: int = None) -> "CSRGraph":
        """Build a graph from an edge list, inferring the vertex count."""
        edges = list(edges)
        if num_vertices is None:
            num_vertices = 0
            for u, v, _ in edges:
                num_vertices = max(num_vertices, u + 1, v + 1)
        return cls(num_vertices, edges)

    @classmethod
    def from_arrays(
        cls, num_vertices: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray
    ) -> "CSRGraph":
        """Build a compact graph from parallel ``(src, dst, weight)`` arrays.

        The array-native equivalent of ``CSRGraph(num_vertices, edges)``:
        same validation and the same deterministic ``(src, dst)`` ordering,
        without materialising Python tuples.
        """
        return cls._from_parts(
            *_compact_parts(
                num_vertices,
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(wgt, dtype=np.float64),
            )
        )

    @classmethod
    def _from_parts(
        cls, num_vertices: int, num_edges: int, out, in_, offsets=None
    ) -> "CSRGraph":
        """Trusted constructor from ``(starts, degrees, minors, weights)``
        per direction (no validation).

        ``offsets`` — the ``(out, in)`` CSR offsets — marks a compact
        graph; the :class:`~repro.graph.dynamic.DynamicGraph` store passes
        none for its arena snapshots. Callers own the invariants: each run
        sorted by minor id, both directions describing the same edges.
        """
        graph = object.__new__(cls)
        graph._assign(num_vertices, num_edges, out, in_, offsets)
        return graph

    def _assign(self, num_vertices: int, num_edges: int, out, in_, offsets) -> None:
        self.num_vertices = int(num_vertices)
        self.num_edges = int(num_edges)
        self.out_starts, self.out_degrees, self.out_targets, self.out_weights = out
        self.in_starts, self.in_degrees, self.in_sources, self.in_weights = in_
        self._out_offsets, self._in_offsets = offsets or (None, None)
        self._compact = offsets is not None

    def compact(self) -> "CSRGraph":
        """This graph with each direction's runs back to back in vertex
        order — the compact CSR, whose ``out_offsets`` index its arrays
        (``self`` when already compact)."""
        if self._compact:
            return self
        return CSRGraph.from_arrays(self.num_vertices, *self.edge_arrays())

    @property
    def out_offsets(self) -> np.ndarray:
        """Logical out-offsets (see the class docstring), cached."""
        if self._out_offsets is None:
            self._out_offsets = _offsets(self.out_degrees)
        return self._out_offsets

    @property
    def in_offsets(self) -> np.ndarray:
        """Logical in-offsets (see the class docstring), cached."""
        if self._in_offsets is None:
            self._in_offsets = _offsets(self.in_degrees)
        return self._in_offsets

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        return int(self.out_degrees[u])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        return int(self.in_degrees[v])

    def out_edges(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(target, weight)`` for each outgoing edge of ``u``."""
        start = int(self.out_starts[u])
        for i in range(start, start + int(self.out_degrees[u])):
            yield int(self.out_targets[i]), float(self.out_weights[i])

    def in_edges(self, v: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(source, weight)`` for each incoming edge of ``v``."""
        start = int(self.in_starts[v])
        for i in range(start, start + int(self.in_degrees[v])):
            yield int(self.in_sources[i]), float(self.in_weights[i])

    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of the outgoing edges of ``u`` as an array view."""
        start = self.out_starts[u]
        return self.out_targets[start : start + self.out_degrees[u]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of the incoming edges of ``v`` as an array view."""
        start = self.in_starts[v]
        return self.in_sources[start : start + self.in_degrees[v]]

    def _find(self, u: int, v: int) -> int:
        """Slot of edge ``u -> v`` (the first, for parallel edges), or -1."""
        start = int(self.out_starts[u])
        stop = start + int(self.out_degrees[u])
        i = start + int(np.searchsorted(self.out_targets[start:stop], v))
        return i if i < stop and self.out_targets[i] == v else -1

    def has_edge(self, u: int, v: int) -> bool:
        """True if a directed edge ``u -> v`` exists (binary search)."""
        return self._find(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v`` (first match); raises if absent.

        Targets are sorted per source, so the leftmost binary-search hit
        is the same "first match" a linear scan returns (parallel edges
        keep their lexsort order).
        """
        i = self._find(u, v)
        if i < 0:
            raise KeyError(f"no edge {u} -> {v}")
        return float(self.out_weights[i])

    def out_weight_sums(self) -> np.ndarray:
        """Per-vertex sum of out-edge weights (Adsorption's normaliser).

        Differences of one prefix sum over the weights in logical (compact
        CSR) order, so every reader rounds the sums identically whatever
        the slot layout.
        """
        if not self.num_edges:
            return np.zeros(self.num_vertices, dtype=np.float64)
        weights = self.out_weights[run_indices(self.out_starts, self.out_degrees)]
        cumulative = np.concatenate(([0.0], np.cumsum(weights)))
        offsets = self.out_offsets
        return cumulative[offsets[1:]] - cumulative[offsets[:-1]]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge set as parallel ``(src, dst, weight)`` arrays.

        Array-native replacement for :meth:`edges` on hot paths; rows are
        in CSR order (sorted by source, then target). On a compact graph
        ``dst``/``weight`` are views of its arrays — treat all three as
        read-only.
        """
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees)
        if self._compact:
            return src, self.out_targets, self.out_weights
        idx = run_indices(self.out_starts, self.out_degrees)
        return src, self.out_targets[idx], self.out_weights[idx]

    def edges(self) -> Iterator[Edge]:
        """Yield every edge as ``(src, dst, weight)`` in CSR order."""
        src, dst, wgt = self.edge_arrays()
        return zip(src.tolist(), dst.tolist(), wgt.tolist())

    def reversed(self) -> "CSRGraph":
        """Graph with every edge direction flipped.

        The reversed out-CSR *is* this graph's in-CSR (both are sorted the
        same way), so this is an O(1) view swap.
        """
        return CSRGraph._from_parts(
            self.num_vertices,
            self.num_edges,
            (self.in_starts, self.in_degrees, self.in_sources, self.in_weights),
            (self.out_starts, self.out_degrees, self.out_targets, self.out_weights),
            (self._in_offsets, self._out_offsets) if self._compact else None,
        )

    def symmetrized(self) -> "CSRGraph":
        """Graph with each edge present in both directions (for CC).

        Duplicate ``(u, v)`` rows collapse to the first occurrence and a
        mirror is added only where absent, with the forward weight — the
        same first-occurrence-wins semantics as the old dict construction,
        computed with sorted-key membership instead of per-edge Python.
        """
        src, dst, wgt = self.edge_arrays()
        n = max(self.num_vertices, 1)
        key = src * n + dst  # sorted: edge_arrays yields CSR (src, dst) order
        if len(key):
            keep = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            src, dst, wgt, key = src[keep], dst[keep], wgt[keep], key[keep]
        mirror_key = dst * n + src
        pos = np.searchsorted(key, mirror_key)
        present = np.zeros(len(mirror_key), dtype=bool)
        in_range = pos < len(key)
        present[in_range] = key[pos[in_range]] == mirror_key[in_range]
        missing = ~present
        return CSRGraph.from_arrays(
            self.num_vertices,
            np.concatenate([src, dst[missing]]),
            np.concatenate([dst, src[missing]]),
            np.concatenate([wgt, wgt[missing]]),
        )

    # ------------------------------------------------------------------
    # Locality helpers used by the architectural model
    # ------------------------------------------------------------------
    def vertex_page(self, v: int, page_bytes: int) -> int:
        """DRAM page index holding the state of vertex ``v``."""
        return (v * VERTEX_STATE_BYTES) // page_bytes

    def edge_pages(self, u: int, page_bytes: int) -> range:
        """Range of DRAM page indices holding the out-edge list of ``u``."""
        start = int(self.out_offsets[u]) * EDGE_ENTRY_BYTES
        stop = max(start + 1, int(self.out_offsets[u + 1]) * EDGE_ENTRY_BYTES)
        return range(start // page_bytes, (stop - 1) // page_bytes + 1)

    # ------------------------------------------------------------------
    # Dunder utilities
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and sorted(self.edges()) == sorted(other.edges())
        )

    def __hash__(self):  # CSRGraph is conceptually immutable but unhashable
        raise TypeError("CSRGraph is not hashable")


def _compact_parts(num_vertices: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray):
    """Validated :meth:`CSRGraph._from_parts` arguments of a compact graph."""
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    if src.shape != dst.shape or src.shape != wgt.shape:
        raise ValueError("src/dst/wgt arrays must have equal length")
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    if len(src) and (src.max() >= num_vertices or dst.max() >= num_vertices):
        raise ValueError("edge endpoint out of range")
    if not _in_key_order(src, dst):
        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
    # The rows are in (src, dst) order now, so one stable sort by
    # destination puts the in-direction in (dst, src) order.
    order = np.argsort(dst, kind="stable")
    out = _build_csr(num_vertices, src, dst, wgt)
    in_ = _build_csr(num_vertices, dst[order], src[order], wgt[order])
    return int(num_vertices), len(src), _runs(*out), _runs(*in_), (out[0], in_[0])


def _in_key_order(src: np.ndarray, dst: np.ndarray) -> bool:
    """True when the rows are already sorted by ``(src, dst)``."""
    step = np.diff(src)
    return bool((step >= 0).all() and ((step > 0) | (np.diff(dst) >= 0)).all())


def _offsets(degrees: np.ndarray) -> np.ndarray:
    """CSR offsets of runs of ``degrees`` laid back to back."""
    offsets = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return offsets


def _runs(offsets: np.ndarray, minors: np.ndarray, weights: np.ndarray):
    """``(starts, degrees, minors, weights)`` of a direction stored back to back."""
    return offsets[:-1], np.diff(offsets), minors, weights


def _build_csr(
    num_vertices: int, majors: np.ndarray, minors: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and fresh minor/weight arrays of one direction whose rows
    are already sorted by ``(major, minor)``."""
    offsets = _offsets(np.bincount(majors, minlength=num_vertices))
    return offsets, minors.astype(np.int64), weights.astype(np.float64)


def run_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Gather indices for multiple CSR ``[start, start + length)`` runs.

    The runs are concatenated in order — equivalent to
    ``np.concatenate([np.arange(s, s + l) ...])`` without the Python loop.
    Every frontier expansion (engine kernels, streaming seed expansion)
    goes through this one function.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    exclusive = np.cumsum(lengths) - lengths
    indices = np.repeat(starts - exclusive, lengths)
    indices += np.arange(total, dtype=np.int64)
    return indices


def edges_from_arrays(
    src: Sequence[int], dst: Sequence[int], wgt: Sequence[float]
) -> List[Edge]:
    """Zip parallel arrays into an edge list (convenience for generators)."""
    return [(int(u), int(v), float(w)) for u, v, w in zip(src, dst, wgt)]
