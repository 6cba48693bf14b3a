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
        "out_offsets",
        "out_targets",
        "out_weights",
        "in_offsets",
        "in_sources",
        "in_weights",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        edge_list = list(edges)
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self.num_vertices = int(num_vertices)
        self.num_edges = len(edge_list)

        src = np.fromiter((e[0] for e in edge_list), dtype=np.int64, count=len(edge_list))
        dst = np.fromiter((e[1] for e in edge_list), dtype=np.int64, count=len(edge_list))
        wgt = np.fromiter((e[2] for e in edge_list), dtype=np.float64, count=len(edge_list))
        if len(edge_list) and (src.min() < 0 or dst.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if len(edge_list) and (src.max() >= num_vertices or dst.max() >= num_vertices):
            raise ValueError("edge endpoint out of range")

        self.out_offsets, self.out_targets, self.out_weights = _build_csr(
            num_vertices, src, dst, wgt
        )
        self.in_offsets, self.in_sources, self.in_weights = _build_csr(
            num_vertices, dst, src, wgt
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
        """Build a graph from parallel ``(src, dst, weight)`` arrays.

        The array-native equivalent of ``CSRGraph(num_vertices, edges)``:
        same validation and the same deterministic ``(src, dst)`` ordering,
        without materialising Python tuples.
        """
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        wgt = np.asarray(wgt, dtype=np.float64)
        if src.shape != dst.shape or src.shape != wgt.shape:
            raise ValueError("src/dst/wgt arrays must have equal length")
        if len(src) and (src.min() < 0 or dst.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        if len(src) and (src.max() >= num_vertices or dst.max() >= num_vertices):
            raise ValueError("edge endpoint out of range")
        return cls._from_parts(
            int(num_vertices),
            len(src),
            *_build_csr(num_vertices, src, dst, wgt),
            *_build_csr(num_vertices, dst, src, wgt),
        )

    @classmethod
    def _from_parts(
        cls,
        num_vertices: int,
        num_edges: int,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_weights: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_weights: np.ndarray,
    ) -> "CSRGraph":
        """Trusted constructor from prebuilt CSR arrays (no validation).

        Used by the incremental :class:`~repro.graph.dynamic.DynamicGraph`
        store, whose spliced arrays are maintained in exactly the
        ``_build_csr`` order, and by :meth:`reversed`. Callers own the
        invariants: offsets monotone, targets sorted per source, both
        directions describing the same edge multiset.
        """
        graph = object.__new__(cls)
        graph.num_vertices = int(num_vertices)
        graph.num_edges = int(num_edges)
        graph.out_offsets = out_offsets
        graph.out_targets = out_targets
        graph.out_weights = out_weights
        graph.in_offsets = in_offsets
        graph.in_sources = in_sources
        graph.in_weights = in_weights
        return graph

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    def out_degree(self, u: int) -> int:
        """Number of outgoing edges of ``u``."""
        return int(self.out_offsets[u + 1] - self.out_offsets[u])

    def in_degree(self, v: int) -> int:
        """Number of incoming edges of ``v``."""
        return int(self.in_offsets[v + 1] - self.in_offsets[v])

    def out_edges(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(target, weight)`` for each outgoing edge of ``u``."""
        start, stop = self.out_offsets[u], self.out_offsets[u + 1]
        for i in range(start, stop):
            yield int(self.out_targets[i]), float(self.out_weights[i])

    def in_edges(self, v: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(source, weight)`` for each incoming edge of ``v``."""
        start, stop = self.in_offsets[v], self.in_offsets[v + 1]
        for i in range(start, stop):
            yield int(self.in_sources[i]), float(self.in_weights[i])

    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of the outgoing edges of ``u`` as an array view."""
        return self.out_targets[self.out_offsets[u] : self.out_offsets[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of the incoming edges of ``v`` as an array view."""
        return self.in_sources[self.in_offsets[v] : self.in_offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True if a directed edge ``u -> v`` exists (binary search)."""
        start, stop = self.out_offsets[u], self.out_offsets[u + 1]
        i = start + np.searchsorted(self.out_targets[start:stop], v)
        return bool(i < stop and self.out_targets[i] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v`` (first match); raises if absent.

        Targets are sorted per source by ``_build_csr``, so the leftmost
        binary-search hit is the same "first match" the old linear scan
        returned (parallel edges keep their lexsort order).
        """
        start, stop = self.out_offsets[u], self.out_offsets[u + 1]
        i = start + np.searchsorted(self.out_targets[start:stop], v)
        if i < stop and self.out_targets[i] == v:
            return float(self.out_weights[i])
        raise KeyError(f"no edge {u} -> {v}")

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge set as parallel ``(src, dst, weight)`` arrays.

        Array-native replacement for :meth:`edges` on hot paths; rows are
        in CSR order (sorted by source, then target). ``dst``/``weight``
        are views of the CSR arrays — treat all three as read-only.
        """
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64),
            np.diff(self.out_offsets),
        )
        return src, self.out_targets, self.out_weights

    def edges(self) -> Iterator[Edge]:
        """Yield every edge as ``(src, dst, weight)`` in CSR order."""
        for u in range(self.num_vertices):
            start, stop = self.out_offsets[u], self.out_offsets[u + 1]
            for i in range(start, stop):
                yield u, int(self.out_targets[i]), float(self.out_weights[i])

    def reversed(self) -> "CSRGraph":
        """Graph with every edge direction flipped.

        The reversed out-CSR *is* this graph's in-CSR (both are built by
        the same ``_build_csr`` sort), so this is an O(1) view swap.
        """
        return CSRGraph._from_parts(
            self.num_vertices,
            self.num_edges,
            self.in_offsets,
            self.in_sources,
            self.in_weights,
            self.out_offsets,
            self.out_targets,
            self.out_weights,
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


def _build_csr(
    num_vertices: int, src: np.ndarray, dst: np.ndarray, wgt: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build offsets/targets/weights arrays sorted by source then target."""
    if len(src) == 0:
        return (
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    order = np.lexsort((dst, src))
    src, dst, wgt = src[order], dst[order], wgt[order]
    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, dst.astype(np.int64), wgt.astype(np.float64)


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
    return np.arange(total, dtype=np.int64) + np.repeat(starts - exclusive, lengths)


def edges_from_arrays(
    src: Sequence[int], dst: Sequence[int], wgt: Sequence[float]
) -> List[Edge]:
    """Zip parallel arrays into an edge list (convenience for generators)."""
    return [(int(u), int(v), float(w)) for u, v, w in zip(src, dst, wgt)]
