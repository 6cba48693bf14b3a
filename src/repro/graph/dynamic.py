"""Mutable, versioned graph — the array-native host-side graph store.

The paper (§4.7) leaves evolving-edge-list maintenance to a software graph
versioning framework on the host (e.g. GraphOne / Version Traveler) and has
the host hand the accelerator a fresh CSR pointer after every batch.
:class:`DynamicGraph` plays that role here: it applies
:class:`repro.streams.UpdateBatch` mutations, bumps a version counter, and
emits immutable :class:`~repro.graph.csr.CSRGraph` snapshots.

Storage is one *edge arena* per direction (RisGraph-style indexed
adjacency with slack, in array form): parallel minor-id and weight slot
arrays, per-vertex ``start`` / ``degree`` arrays, a tail index and a
dead-slot count. Vertex ``u``'s out-edges are one *run* of slots sorted
by target id (its in-edges one run of the in-arena, sorted by source id).
Membership and weight lookups are a binary search inside one out-run,
vectorised over a batch.

Two mutation paths share one splice. A *batch* is checked whole, as
arrays, against the flushed store (:meth:`DynamicGraph.check_batch`:
nothing mutates unless the whole batch passes), then spliced into both
directions at once (:meth:`DynamicGraph.apply_batch`). *Single* edges
(:meth:`~DynamicGraph.add_edge` / :meth:`~DynamicGraph.remove_edge`, the
express lane's path) are recorded as pending edits, indexed by source and
by target, and folded into the arenas lazily when a snapshot or batch
check needs them, or by the single-edge path itself once they outgrow a
bound tied to the edge count (:data:`_PENDING_SHARE`). Adjacency and degree
queries do not flush: they read a vertex's stored run (or degree) and its
pending edits, so the express lane classifies against the store itself.
Either way a splice gathers only the touched vertices' runs, merges the
deletions out and the insertions in, and writes each new run afresh at
the arena tail — copy-on-write per run — so its cost scales with the
touched runs, not with E. A direction whose new runs do not fit, or whose
dead slots would outnumber its live ones, compacts into fresh arrays.

A snapshot is the arenas themselves plus O(V) copies of ``start`` /
``degree``: no O(E) array is built. Later splices write only past every
existing snapshot's runs, and compaction only into fresh arrays, so every
snapshot stays valid. Snapshots are cached per mutation state, so
back-to-back ``snapshot()`` calls (the streaming orchestrator takes one
before and one after each batch) cost nothing. Their logical offsets —
those of the compact CSR the paper's host would hand over — are a cumsum
of the degrees (:attr:`CSRGraph.out_offsets`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, run_indices
from repro.streams import (
    VERTEX_ID_LIMIT,
    UpdateBatch,
    finite_weight,
    insertion_rows,
    vertex_ids,
)

Edge = Tuple[int, int, float]

#: Parallel ``(src, dst, weight)`` columns of a directed edge set.
EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


class GraphMutationError(ValueError):
    """Raised for invalid mutations (missing edge delete, duplicate insert)."""


#: Composite-key stride: ids are below ``VERTEX_ID_LIMIT == 2**31``, so
#: ``major << 31 | minor`` fits an int64 and sorts by (major, minor).
_SHIFT = 31
_MASK = VERTEX_ID_LIMIT - 1

#: Arena slots per live edge after a bulk load or a compaction. A direction
#: compacts when a splice's new runs would not fit, or when its dead slots
#: would outnumber ``_SLACK - 1`` times its live ones, so it holds about
#: this many slots per live edge at most.
_SLACK = 2

#: The single-edge path flushes once more than ``max(_PENDING_FLOOR,
#: num_edges // _PENDING_SHARE)`` edits (``num_edges`` as of the first of
#: them) are pending. A flush costs a fixed ~0.1-0.4 ms of array work
#: plus its edited runs, so the floor amortises it to about a
#: microsecond per edit on any graph; the share caps the pending dicts
#: (~200 bytes per edit across both indexes) at a few bytes per stored
#: edge, and with them the per-vertex filtering every adjacency read of
#: an edited vertex pays. Without it a stream of express updates, which
#: never flush, grows them without bound.
_PENDING_FLOOR = 256
_PENDING_SHARE = 64


def _mirrored(rows: np.ndarray) -> np.ndarray:
    """Each ``(u, v, ...)`` row followed by its reverse; self-loops once."""
    reverse = rows.copy()
    reverse[:, 0], reverse[:, 1] = rows[:, 1], rows[:, 0]
    both = np.stack([rows, reverse], axis=1).reshape(-1, rows.shape[1])
    keep = np.ones(len(both), dtype=bool)
    keep[1::2] = rows[:, 0] != rows[:, 1]
    return both[keep]


def build_symmetric_graph(
    edges: Iterable[Edge],
    num_vertices: int = 0,
    on_conflict: str = "warn",
) -> "DynamicGraph":
    """Build a symmetric :class:`DynamicGraph` from a directed edge list.

    A symmetric graph mirrors every insertion, so an input that lists both
    ``(u, v)`` and ``(v, u)`` would double-insert; such reverse (and exact)
    duplicates collapse to one undirected edge, first occurrence wins. When
    a discarded duplicate carries a *different* weight the collapse is
    lossy — ``on_conflict`` selects the response: ``"warn"`` (default)
    emits a :class:`UserWarning`, ``"raise"`` raises
    :class:`GraphMutationError`, ``"silent"`` keeps the old quiet
    behaviour.

    ``edges`` may be an ``(n, 3)`` array. ``num_vertices`` is a floor on
    the vertex count, for inputs whose trailing vertices have no edges.
    """
    if on_conflict not in ("warn", "raise", "silent"):
        raise ValueError(
            f"on_conflict must be 'warn', 'raise', or 'silent', "
            f"not {on_conflict!r}"
        )
    if not isinstance(edges, (list, tuple, np.ndarray)):
        edges = list(edges)
    rows = insertion_rows(edges)
    u, v, w = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2]
    undirected = (np.minimum(u, v) << _SHIFT) | np.maximum(u, v)
    _, first, inverse = np.unique(undirected, return_index=True, return_inverse=True)
    if on_conflict != "silent":
        kept_at = first[inverse]
        lossy = (kept_at != np.arange(len(w))) & (w != w[kept_at])
        for i in np.flatnonzero(lossy):
            kept = w[kept_at[i]]
            msg = (
                f"duplicate edge {u[i]}->{v[i]} weight {w[i]} conflicts with "
                f"already-kept weight {kept}; first occurrence wins"
            )
            if on_conflict == "raise":
                raise GraphMutationError(msg)
            warnings.warn(msg, stacklevel=2)
    return DynamicGraph.from_arrays(
        u[first], v[first], w[first], num_vertices, symmetric=True
    )


@dataclass(frozen=True)
class CheckedBatch:
    """A batch checked against one store state, ready to splice.

    :meth:`DynamicGraph.check_batch` builds it without mutating anything;
    :meth:`DynamicGraph.apply_batch` splices it. ``insertions`` and
    ``deletions`` are the directed edges in batch order — on a symmetric
    graph each followed by its mirror — and the deletions carry the stored
    weights. ``keep_ins`` / ``keep_dels`` drop the re-inserts at the
    stored weight and their deletions: such a pair changes nothing.
    """

    #: ``mutation_stamp`` the check ran against.
    stamp: int
    #: Vertex count after the batch (insertions may add vertices).
    num_vertices: int
    insertions: EdgeArrays
    deletions: EdgeArrays
    keep_ins: np.ndarray
    keep_dels: np.ndarray


class _DirectedCSR:
    """One direction of the dual-CSR store: an edge arena.

    ``minors`` / ``weights`` are parallel slot arrays; vertex ``major``'s
    edges are the *run* ``minors[s : s + d]`` (weights ``weights[s : s +
    d]``) with ``s = start[major]`` and ``d = degree[major]``, sorted by
    minor id. Runs lie anywhere below ``tail``; the other slots below it
    are ``dead`` (old copies of rewritten runs). A splice writes each
    touched vertex's new run afresh at the tail, so no slot a snapshot's
    run covers is ever written again: snapshots share ``minors`` /
    ``weights`` and copy ``start`` / ``degree``. When the new runs do not
    fit, or the dead slots would outnumber the live ones, the live runs
    move to fresh arrays with :data:`_SLACK` slots per live edge — never
    into an array a snapshot holds.
    """

    __slots__ = ("minors", "weights", "start", "degree", "tail", "dead")

    def __init__(self, num_vertices: int):
        self.minors = np.empty(0, dtype=np.int64)
        self.weights = np.empty(0, dtype=np.float64)
        self.start = np.zeros(num_vertices, dtype=np.int64)
        self.degree = np.zeros(num_vertices, dtype=np.int64)
        self.tail = 0
        self.dead = 0

    def rebuild(
        self,
        majors: np.ndarray,
        minors: np.ndarray,
        weights: np.ndarray,
        num_vertices: int,
    ) -> np.ndarray:
        """Bulk (re)build from unsorted parallel arrays, runs back to back
        in vertex order with :data:`_SLACK` slots per edge; returns the
        sorted composite keys."""
        keys = (majors.astype(np.int64) << _SHIFT) | minors.astype(np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        live = len(keys)
        self.minors = np.empty(_SLACK * live, dtype=np.int64)
        self.weights = np.empty(_SLACK * live, dtype=np.float64)
        np.bitwise_and(keys, _MASK, out=self.minors[:live])
        self.weights[:live] = np.asarray(weights, dtype=np.float64)[order]
        self.degree = np.bincount(majors, minlength=num_vertices).astype(np.int64)
        self.start = np.cumsum(self.degree) - self.degree
        self.tail, self.dead = live, 0
        return keys

    def grow(self, num_vertices: int) -> None:
        """Extend ``start`` / ``degree`` to newly created (isolated) vertices."""
        missing = num_vertices - len(self.degree)
        if missing > 0:
            self.start = np.concatenate([self.start, np.zeros(missing, dtype=np.int64)])
            self.degree = np.concatenate([self.degree, np.zeros(missing, dtype=np.int64)])

    def parts(self):
        """This state as :meth:`CSRGraph._from_parts` direction arguments."""
        return self.start.copy(), self.degree.copy(), self.minors, self.weights

    def ordered(self) -> EdgeArrays:
        """Fresh ``(major, minor, weight)`` columns in key order."""
        idx = run_indices(self.start, self.degree)
        majors = np.repeat(np.arange(len(self.degree), dtype=np.int64), self.degree)
        return majors, self.minors[idx], self.weights[idx]

    def splice(
        self,
        touched: np.ndarray,
        del_keys: np.ndarray,
        ins_keys: np.ndarray,
        ins_weights: np.ndarray,
    ) -> Tuple[int, bool]:
        """Rewrite the runs of the sorted ``touched`` majors: remove
        ``del_keys`` and merge ``ins_keys`` (both sorted composite keys).

        Every deleted key must be present and every inserted key absent
        (the caller has checked both). Gathers only the touched runs and
        writes them at the tail; the new degrees are the old ones less
        the batch's per-major deletions plus its insertions. Returns the
        slots written (compaction included) and whether it compacted.
        """
        old_degree = self.degree[touched]
        idx = run_indices(self.start[touched], old_degree)
        minors, weights = self.minors[idx], self.weights[idx]
        keys = np.repeat(touched, old_degree)
        keys <<= _SHIFT
        keys |= minors
        # Positions in the gathered runs: each deletion's own, each
        # insertion's in the merged runs (past the kept keys below it).
        del_pos = keys.searchsorted(del_keys)
        ins_pos = keys.searchsorted(ins_keys)
        ins_pos += np.arange(len(ins_keys)) - del_pos.searchsorted(ins_pos)
        keep = np.ones(len(idx), dtype=bool)
        keep[del_pos] = False
        degree = (
            old_degree
            - np.bincount(touched.searchsorted(del_keys >> _SHIFT), minlength=len(touched))
            + np.bincount(touched.searchsorted(ins_keys >> _SHIFT), minlength=len(touched))
        )
        need = len(idx) - len(del_keys) + len(ins_keys)
        self.degree[touched] = 0
        self.dead += len(idx)
        written, compacted = need, False
        live = self.tail - self.dead
        if self.tail + need > len(self.minors) or self.dead > (_SLACK - 1) * (live + need):
            written += self._compact(live + need)
            compacted = True
        tail = self.tail
        kept = np.ones(need, dtype=bool)
        kept[ins_pos] = False
        run_minors = self.minors[tail : tail + need]
        run_weights = self.weights[tail : tail + need]
        run_minors[kept] = minors[keep]
        run_weights[kept] = weights[keep]
        run_minors[ins_pos] = ins_keys & _MASK
        run_weights[ins_pos] = ins_weights
        self.start[touched] = tail + np.cumsum(degree) - degree
        self.degree[touched] = degree
        self.tail = tail + need
        return written, compacted

    def _compact(self, live_after: int) -> int:
        """Move the live runs back to back, in vertex order, into fresh
        arrays sized :data:`_SLACK` slots per edge of ``live_after``;
        returns the slots moved."""
        live = self.tail - self.dead
        minors = np.empty(_SLACK * live_after, dtype=np.int64)
        weights = np.empty(_SLACK * live_after, dtype=np.float64)
        idx = run_indices(self.start, self.degree)
        np.take(self.minors, idx, out=minors[:live])
        np.take(self.weights, idx, out=weights[:live])
        self.start = np.cumsum(self.degree) - self.degree
        self.minors, self.weights, self.tail, self.dead = minors, weights, live, 0
        return live

    def find(self, major: int, minor: int) -> int:
        """Slot of edge ``major -> minor``, -1 if it is not stored."""
        if major >= len(self.degree):
            return -1
        start = self.start.item(major)
        stop = start + self.degree.item(major)
        minors = self.minors
        i = start + int(minors[start:stop].searchsorted(minor))
        return i if i < stop and minors.item(i) == minor else -1

    def lookup(self, majors: np.ndarray, minors: np.ndarray) -> EdgeArrays:
        """``(live, slot, weight)`` of each edge ``majors[i] -> minors[i]``:
        one binary search inside each run, vectorised over the probes. An
        absent edge's slot is its insertion point in the run and its weight
        is meaningless."""
        n, table = len(self.degree), self.minors
        inside = majors < n
        if not len(table) or not inside.any():
            zeros = np.zeros(len(majors), dtype=np.int64)
            return np.zeros(len(majors), dtype=bool), zeros, np.zeros(len(majors))
        clipped = np.minimum(majors, n - 1)
        base = self.start[clipped]
        count = self.degree[clipped] * inside
        stop = base + count
        # Branchless lower bound: halve every run's window in lockstep.
        for _ in range(int(count.max() - 1).bit_length()):
            half = count >> 1
            base += half * (table.take(base + half, mode="clip") < minors)
            count -= half
        base += (count > 0) & (table.take(base, mode="clip") < minors)
        live = (base < stop) & (table.take(base, mode="clip") == minors)
        return live, base, self.weights.take(base, mode="clip")

    def degree_of(self, major: int, edits: Optional[Dict[int, Optional[float]]]) -> int:
        """Live degree of ``major``: the stored one, corrected by each
        pending edit that adds or removes a stored minor."""
        degree = self.degree.item(major) if major < len(self.degree) else 0
        for minor, w in (edits or {}).items():
            degree += (w is not None) - (self.find(major, minor) >= 0)
        return degree

    def adjacent(
        self, major: int, edits: Optional[Dict[int, Optional[float]]]
    ) -> Iterator[Tuple[int, float]]:
        """Live ``(minor, weight)`` pairs of ``major``: the stored run in
        minor order, skipping minors with a pending edit, then the pending
        inserts in edit order."""
        run = iter(())
        if major < len(self.degree):  # start/degree grow only at a flush
            start = self.start.item(major)
            stop = start + self.degree.item(major)
            run = zip(self.minors[start:stop].tolist(), self.weights[start:stop].tolist())
        if not edits:
            yield from run
            return
        for minor, w in run:
            if minor not in edits:
                yield minor, w
        for minor, w in edits.items():
            if w is not None:
                yield minor, w


class DynamicGraph:
    """Array-native graph supporting batched edge insertion and deletion.

    Parameters
    ----------
    num_vertices:
        Initial vertex count. Grows automatically when an inserted edge
        references a larger id (vertex addition is modelled as the first
        edge touching the vertex, per §2.1).
    symmetric:
        When true every mutation is mirrored, keeping the edge set
        symmetric. Used for Connected Components, whose tag/request
        propagation must travel both directions.
    """

    def __init__(self, num_vertices: int = 0, symmetric: bool = False):
        self.num_vertices = int(num_vertices)
        self.symmetric = bool(symmetric)
        self.version = 0
        self._out = _DirectedCSR(self.num_vertices)  # major=src, minor=dst
        self._in = _DirectedCSR(self.num_vertices)  # major=dst, minor=src
        #: Single-edge edits not yet spliced into the arrays, indexed both
        #: ways: ``_pending_out[u][v]`` and ``_pending_in[v][u]`` hold the
        #: weight, ``None`` for a deletion. Emptied by every flush.
        self._pending_out: Dict[int, Dict[int, Optional[float]]] = {}
        self._pending_in: Dict[int, Dict[int, Optional[float]]] = {}
        #: Edits recorded since the last flush, and the count past which
        #: the single-edge path flushes; :meth:`_edit` restarts both once a
        #: flush has emptied the edits (see :data:`_PENDING_SHARE`).
        self._pending_edits = 0
        self._pending_limit = _PENDING_FLOOR
        self._num_edges = 0
        #: Monotone mutation stamp, moved only by a change to the edge set
        #: or vertex count; keys the snapshot cache.
        self._mutations = 0
        self._snapshot_cache: Optional[Tuple[int, CSRGraph]] = None
        #: Host-side store instrumentation (exposed via
        #: :meth:`store_stats` and the host session facade).
        self._stats = {
            "batches_applied": 0,
            "edges_spliced": 0,
            "flushes": 0,
            "snapshot_builds": 0,
            "snapshot_cache_hits": 0,
            "full_rebuilds": 0,
            "compactions": 0,
            "slots_written": 0,
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], num_vertices: int = 0, symmetric: bool = False
    ) -> "DynamicGraph":
        """Build a graph from an initial edge list (version 0).

        ``edges`` is an ``(n, 3)`` array or an iterable of ``(u, v, w)``
        tuples, converted to rows once and bulk-loaded like
        :meth:`from_arrays`.
        """
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        rows = insertion_rows(edges)
        return cls.from_arrays(
            rows[:, 0], rows[:, 1], rows[:, 2], num_vertices, symmetric
        )

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        wgt: np.ndarray,
        num_vertices: int = 0,
        symmetric: bool = False,
    ) -> "DynamicGraph":
        """Bulk-build from parallel arrays (no per-edge Python mutation).

        Duplicate directed edges (after symmetric mirroring) raise
        :class:`GraphMutationError`, invalid vertex ids ``ValueError``;
        the vertex count grows to cover the largest referenced id.
        """
        src = vertex_ids(np.asarray(src))
        dst = vertex_ids(np.asarray(dst))
        wgt = np.asarray(wgt, dtype=np.float64)
        n = int(num_vertices)
        if len(src):
            n = max(n, int(src.max()) + 1, int(dst.max()) + 1)
        if symmetric and len(src):
            mirror = src != dst  # self-loops are their own mirror
            src, dst = (
                np.concatenate([src, dst[mirror]]),
                np.concatenate([dst, src[mirror]]),
            )
            wgt = np.concatenate([wgt, wgt[mirror]])
        graph = cls(n, symmetric=symmetric)
        keys = graph._out.rebuild(src, dst, wgt, n)
        if (keys[1:] == keys[:-1]).any():
            raise GraphMutationError(
                "duplicate edge in bulk load; model weight change as "
                "delete followed by insert (per paper §2.1)"
            )
        graph._in.rebuild(dst, src, wgt, n)
        graph._num_edges = len(keys)
        return graph

    @classmethod
    def from_csr(cls, csr: CSRGraph, symmetric: bool = False) -> "DynamicGraph":
        """Build a dynamic graph mirroring a CSR snapshot."""
        src, dst, wgt = csr.edge_arrays()
        return cls.from_arrays(
            src, dst, wgt, csr.num_vertices, symmetric=symmetric
        )

    # ------------------------------------------------------------------
    # Single-edge mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, w: float = 1.0) -> None:
        """Insert directed edge ``u -> v`` (and mirror when symmetric)."""
        if not (0 <= u < VERTEX_ID_LIMIT and 0 <= v < VERTEX_ID_LIMIT):
            raise GraphMutationError("vertex ids must be non-negative and below 2**31")
        w = finite_weight(w)
        if self._weight(u, v) is not None:
            raise GraphMutationError(
                f"edge {u}->{v} already exists; model weight change as "
                "delete followed by insert (per paper §2.1)"
            )
        self.add_checked_edge(u, v, w)

    def add_checked_edge(self, u: int, v: int, w: float) -> None:
        """:meth:`add_edge` for a caller that has already checked what it
        checks: valid ids, a finite weight and no live ``u -> v``."""
        self._grow(max(u, v) + 1)
        self._insert_one(u, v, w)
        if self.symmetric and u != v:
            self._insert_one(v, u, w)
        self.version += 1
        if self._pending_edits > self._pending_limit:
            self._flush()

    def remove_edge(self, u: int, v: int) -> float:
        """Delete directed edge ``u -> v``; returns its weight."""
        w = self._remove_one(u, v)
        if self.symmetric and u != v:
            self._remove_one(v, u)
        self.version += 1
        if self._pending_edits > self._pending_limit:
            self._flush()
        return w

    def _insert_one(self, u: int, v: int, w: float) -> None:
        self._edit(u, v, w)
        self._num_edges += 1

    def _remove_one(self, u: int, v: int) -> float:
        w = self._weight(u, v)
        if w is None:
            raise GraphMutationError(f"cannot delete missing edge {u}->{v}")
        self._edit(u, v, None)
        self._num_edges -= 1
        return w

    def _edit(self, u: int, v: int, w: Optional[float]) -> None:
        """Record a pending edit of ``u -> v`` in both indexes."""
        if not self._pending_out:
            self._pending_edits = 0
            self._pending_limit = max(_PENDING_FLOOR, self._num_edges // _PENDING_SHARE)
        self._pending_out.setdefault(u, {})[v] = w
        self._pending_in.setdefault(v, {})[u] = w
        self._pending_edits += 1
        self._mutations += 1

    def _weight(self, u: int, v: int) -> Optional[float]:
        """Live weight of ``u -> v``, ``None`` if absent: the pending edit
        if there is one, else one binary search inside ``u``'s out-run."""
        edits = self._pending_out.get(u)
        if edits is not None and v in edits:
            return edits[v]
        if not (0 <= u < VERTEX_ID_LIMIT and 0 <= v < VERTEX_ID_LIMIT):
            return None
        i = self._out.find(u, v)
        return self._out.weights.item(i) if i >= 0 else None

    def _grow(self, n: int) -> None:
        if n > self.num_vertices:
            self.num_vertices = n
            self._mutations += 1

    # ------------------------------------------------------------------
    # Batched mutation: checked whole, spliced eagerly
    # ------------------------------------------------------------------
    def check_batch(self, batch: UpdateBatch) -> CheckedBatch:
        """Check a whole batch against the live edge set; mutate nothing.

        The check runs on the *directed* batch, mirrors included, so a symmetric graph refuses a
        batch naming both ``(u, v)`` and ``(v, u)`` here instead of
        halfway through the mutation. Raises :class:`GraphMutationError`
        for a deletion of an edge that is not live, an insertion of a live
        edge the batch does not also delete (a weight change is delete +
        insert, §2.1), or a directed edge named twice on one side.
        :meth:`_DirectedCSR.lookup` answers every membership and weight
        question: a binary search inside each probed out-run.
        """
        rows, keys = batch.ins, batch.dels
        if self.symmetric:
            rows, keys = _mirrored(rows), _mirrored(keys)
        iu, iv = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
        iw = rows[:, 2].copy()
        du, dv = keys[:, 0].copy(), keys[:, 1].copy()
        self._flush()
        m = len(du)
        live, pos, weights = self._out.lookup(
            np.concatenate([du, iu]), np.concatenate([dv, iv])
        )
        if not live[:m].all():
            i = int(np.argmin(live[:m]))
            raise GraphMutationError(f"batch deletes missing edge {du[i]}->{dv[i]}")
        self._refuse_repeats(pos[:m], du, dv, "deletes")
        self._refuse_repeats((iu << _SHIFT) | iv, iu, iv, "inserts")

        keep_ins, keep_dels = np.ones(len(iu), dtype=bool), np.ones(m, dtype=bool)
        ins_live, ins_pos = live[m:], pos[m:]
        if ins_live.any():
            # A live edge may be inserted only when the batch deletes it.
            stale = ins_live & ~np.isin(ins_pos, pos[:m])
            if stale.any():
                i = int(np.argmax(stale))
                raise GraphMutationError(
                    f"batch inserts existing edge {iu[i]}->{iv[i]}; model a "
                    "weight change as delete followed by insert (per paper §2.1)"
                )
            # Re-inserting the stored weight changes nothing: splice neither half.
            same = ins_live & (iw == weights[m:])
            if same.any():
                keep_ins = ~same
                keep_dels = ~np.isin(pos[:m], ins_pos[same])
        num_vertices = self.num_vertices
        if len(rows):
            num_vertices = max(num_vertices, int(rows[:, :2].max()) + 1)
        return CheckedBatch(
            stamp=self._mutations,
            num_vertices=num_vertices,
            insertions=(iu, iv, iw),
            deletions=(du, dv, weights[:m]),
            keep_ins=keep_ins,
            keep_dels=keep_dels,
        )

    def _refuse_repeats(self, keys, u, v, verb: str) -> None:
        """GraphMutationError if an edge key occurs twice in ``keys``."""
        if len(keys) < 2:
            return
        ordered = np.sort(keys)
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            i = int(np.flatnonzero(keys == ordered[1:][repeated][0])[0])
            why = " (a symmetric graph mirrors every edge)" if self.symmetric else ""
            raise GraphMutationError(f"batch {verb} edge {u[i]}->{v[i]} twice{why}")

    def apply_batch(self, insertions, deletions=()) -> None:
        """Apply a batch, deletions before insertions; bumps version.

        The order matches the engine's phase schedule (delete phase precedes
        insertion processing, Algorithm 5/6) and allows a weight change to be
        expressed as ``delete(u, v)`` + ``insert(u, v, w')`` in one batch; a
        re-insert at the stored weight is a no-op. The whole batch is
        checked (:meth:`check_batch`) before anything mutates, then both
        CSR directions are spliced straight from its key arrays.
        ``insertions`` may instead be a :class:`CheckedBatch` of the
        current state: the engine checks before its delete phase and
        applies after it.
        """
        if isinstance(insertions, CheckedBatch):
            checked = insertions
            if checked.stamp != self._mutations:
                raise GraphMutationError("batch was checked against an older state")
        else:
            checked = self.check_batch(UpdateBatch(insertions, deletions))
        iu, iv, iw = checked.insertions
        du, dv, _ = checked.deletions
        if len(iu) or len(du) or checked.num_vertices > self.num_vertices:
            self._mutations += 1
        self._num_edges += len(iu) - len(du)
        self.num_vertices = checked.num_vertices
        self._grow_offsets()
        keep_i, keep_d = checked.keep_ins, checked.keep_dels
        self._splice(du[keep_d], dv[keep_d], iu[keep_i], iv[keep_i], iw[keep_i])
        self.version += 1
        self._stats["batches_applied"] += 1

    # ------------------------------------------------------------------
    # Splice: fold mutations into the CSR arrays
    # ------------------------------------------------------------------
    def _grow_offsets(self) -> None:
        self._out.grow(self.num_vertices)
        self._in.grow(self.num_vertices)

    def _splice(self, del_u, del_v, ins_u, ins_v, ins_w) -> None:
        """Delete and insert directed edges in both CSR directions.

        Deletions must be live, insertions absent once the deletions are
        gone, and no edge may repeat on either side.
        """
        if not (len(del_u) or len(ins_u)):
            return
        for csr, del_major, del_minor, ins_major, ins_minor in (
            (self._out, del_u, del_v, ins_u, ins_v),
            (self._in, del_v, del_u, ins_v, ins_u),
        ):
            ins_keys = (ins_major << _SHIFT) | ins_minor
            order = np.argsort(ins_keys)
            written, compacted = csr.splice(
                np.union1d(del_major, ins_major),
                np.sort((del_major << _SHIFT) | del_minor),
                ins_keys[order],
                ins_w[order],
            )
            self._stats["slots_written"] += written
            self._stats["compactions"] += compacted
        self._stats["edges_spliced"] += len(del_u) + len(ins_u)

    def _flush(self) -> None:
        """Splice the pending single-edge edits into both directions.

        Pending edits are net-resolved against the arrays: an edge deleted
        and re-added with its old weight is a no-op, a weight change is one
        delete plus one insert. Python cost is O(pending); array cost is
        the edited vertices' runs, rewritten at each direction's tail.
        """
        self._grow_offsets()
        if not self._pending_out:
            return
        pending = self._pending_out.items()
        pairs = [(u, v) for u, edits in pending for v in edits]
        t_u, t_v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        edits = [w for _, row in pending for w in row.values()]
        cur_has = np.array([w is not None for w in edits], dtype=bool)
        cur_w = np.array([0.0 if w is None else w for w in edits], dtype=np.float64)
        in_base, _, base_w = self._out.lookup(t_u, t_v)
        changed = cur_w != base_w
        dels = in_base & (~cur_has | changed)
        ins = cur_has & (~in_base | changed)
        self._splice(t_u[dels], t_v[dels], t_u[ins], t_v[ins], cur_w[ins])
        self._stats["flushes"] += 1
        self._pending_out.clear()
        self._pending_in.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """True if edge ``u -> v`` is present."""
        return self._weight(u, v) is not None

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of ``u -> v``; raises ``KeyError`` if absent."""
        w = self._weight(u, v)
        if w is None:
            raise KeyError((u, v))
        return w

    def out_degree(self, u: int) -> int:
        """Current out-degree of ``u``: the stored degree plus ``u``'s
        pending edits, without a flush."""
        return self._out.degree_of(u, self._pending_out.get(u))

    def in_degree(self, v: int) -> int:
        """Current in-degree of ``v``, like :meth:`out_degree`."""
        return self._in.degree_of(v, self._pending_in.get(v))

    def out_edges(self, u: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(target, weight)`` pairs for ``u``'s out-edges.

        No flush: the stored run arrives in CSR order (sorted by target
        id) less the targets with a pending edit, then ``u``'s pending
        inserts in edit order. O(degree + ``u``'s pending edits).
        """
        return self._out.adjacent(u, self._pending_out.get(u))

    def in_edges(self, v: int) -> Iterator[Tuple[int, float]]:
        """Yield ``(source, weight)`` pairs for ``v``'s in-edges, ordered
        like :meth:`out_edges` (stored run by source id, then pending)."""
        return self._in.adjacent(v, self._pending_in.get(v))

    @property
    def mutation_stamp(self) -> int:
        """Monotone counter bumped by every mutation (incl. vertex growth).

        Unlike :attr:`version` it does not move for an empty batch, so
        caches of the edge set (snapshots, served read snapshots) can key
        staleness on it exactly.
        """
        return self._mutations

    @property
    def num_edges(self) -> int:
        """Number of directed edges currently stored."""
        return self._num_edges

    def edges(self) -> Iterator[Edge]:
        """Yield every directed edge ``(u, v, w)`` in CSR order."""
        src, dst, wgt = self.edge_arrays()
        return zip(src.tolist(), dst.tolist(), wgt.tolist())

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live edge set as parallel ``(src, dst, wgt)`` arrays.

        Rows are in CSR (src, dst) order; the returned arrays are fresh
        (safe to mutate): one gather of the out-runs.
        """
        self._flush()
        return self._out.ordered()

    def store_stats(self) -> Dict[str, int]:
        """Incremental-store instrumentation counters (copy)."""
        return dict(self._stats)

    # ------------------------------------------------------------------
    # Snapshots for the accelerator
    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """Immutable CSR snapshot of the current version.

        Splices the pending mutations into the arenas and hands them to
        the snapshot with copies of the per-vertex ``start`` / ``degree``
        arrays — O(V), no O(E) array. Later splices write only past every
        snapshot's runs or into fresh arrays, so older snapshots stay
        isolated; repeated calls without intervening mutations hit a cache.
        """
        if (
            self._snapshot_cache is not None
            and self._snapshot_cache[0] == self._mutations
        ):
            self._stats["snapshot_cache_hits"] += 1
            return self._snapshot_cache[1]
        self._flush()
        csr = CSRGraph._from_parts(
            self.num_vertices, self._num_edges, self._out.parts(), self._in.parts()
        )
        self._stats["snapshot_builds"] += 1
        self._snapshot_cache = (self._mutations, csr)
        return csr

    def rebuild_snapshot(self) -> CSRGraph:
        """From-scratch CSR rebuild (the pre-incremental snapshot path).

        Kept as the property-test oracle and the benchmark comparator:
        iterates every edge in Python and lets ``CSRGraph.__init__`` sort
        the full edge list, exactly like the old dict-of-dicts store.
        """
        self._stats["full_rebuilds"] += 1
        return CSRGraph(self.num_vertices, self.edges())


@dataclass
class CommonSlice:
    """A version set decomposed into a shared prefix plus per-version adds.

    ``common_edges`` is the directed edge set present *with the same
    weight* in every requested version; ``additions[v]`` are the edges of
    version ``v`` outside that set. By construction
    ``common_edges + additions[v]`` is exactly version ``v``'s edge set,
    so any monotonic selective query can converge on the common graph once
    and extend per version by pure insertions (CommonGraph work sharing).
    Edge sets are ``(src, dst, wgt)`` columns in sorted ``(u, v)`` order.
    """

    #: Requested versions, ascending.
    versions: List[int]
    #: Directed edges shared by every version.
    common_edges: EdgeArrays
    #: Vertex count of the common graph (minimum over the versions).
    common_vertices: int
    #: version -> edges of that version not in ``common_edges``.
    additions: Dict[int, EdgeArrays]
    #: version -> that version's graph (its vertex count is ``num_vertices``).
    graphs: Dict[int, CSRGraph]


class _Version(NamedTuple):
    version: int
    num_vertices: int
    num_edges: int
    #: Per direction (out, in): the vertices whose pointers the next version
    #: changed, their ``(start, degree)`` here as a ``(2, k)`` array, and
    #: the arena ``minors`` / ``weights`` arrays this version's pointers index.
    runs: tuple


def _directions(csr: CSRGraph):
    out = (csr.out_starts, csr.out_degrees, csr.out_targets, csr.out_weights)
    return out, (csr.in_starts, csr.in_degrees, csr.in_sources, csr.in_weights)


def _undo(prev, cur) -> tuple:
    """The pointers of direction ``prev`` that ``cur`` changed (a pointer
    ``cur`` kept indexes the same run in ``prev``'s arena, compacted or not)."""
    start, degree, minors, weights = prev
    n = len(start)
    ids = ((cur[0][:n] != start) | (cur[1][:n] != degree)).nonzero()[0]
    return ids, np.array([start[ids], degree[ids]]), minors, weights


def _out_runs(csr: CSRGraph, majors: np.ndarray) -> Tuple[np.ndarray, EdgeArrays]:
    """The out-runs of the sorted ``majors`` in ``csr``: their sorted
    ``u << 31 | v`` keys and ``(src, dst, wgt)`` columns."""
    majors = majors[majors < csr.num_vertices]
    degree = csr.out_degrees[majors]
    idx = run_indices(csr.out_starts[majors], degree)
    src, dst = np.repeat(majors, degree), csr.out_targets[idx]
    return (src << _SHIFT) | dst, (src, dst, csr.out_weights[idx])


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each of ``keys`` would sit in ``sorted_keys``, and whether it
    is there: a membership test that sorts nothing."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < sorted_keys.shape[0]
    found[found] = sorted_keys[at[found]] == keys[found]
    return at, found


class DeltaVersionStore:
    """Graph version history as per-vertex run pointers: a multi-versioned
    CSR (LLAMA-style) in the Version Traveler role of §4.7.

    No arena slot under a snapshot's run is written again, so a version is
    each vertex's ``(start, degree)`` per direction plus the arena arrays
    they index, which it keeps alive. The newest version is its snapshot;
    each older one holds the pointers the next one changed and is rebuilt
    by rolling the newest pointers back. ``keep_versions`` bounds retention:
    the oldest versions are dropped and raise ``KeyError``; ``None`` keeps all.
    """

    def __init__(self, graph: DynamicGraph, keep_versions: Optional[int] = None):
        if keep_versions is not None and keep_versions < 1:
            raise ValueError("keep_versions must be >= 1 (or None)")
        self.graph = graph
        self.keep_versions = keep_versions
        self._head = graph.version, graph.snapshot()
        self._older: List[_Version] = []
        self._evicted_versions = 0

    def record(self) -> None:
        """Record the graph's current version. Its (cached) snapshot becomes
        the head; the previous head keeps the pointers this one changed."""
        version, head = self._head
        csr = self.graph.snapshot()
        runs = tuple(map(_undo, _directions(head), _directions(csr)))
        self._older.append(_Version(version, head.num_vertices, head.num_edges, runs))
        self._head = self.graph.version, csr
        if self.keep_versions is not None and len(self._older) >= self.keep_versions:
            del self._older[0]
            self._evicted_versions += 1

    def versions(self) -> List[int]:
        """All reconstructible versions, oldest first."""
        return [held.version for held in self._older] + [self._head[0]]

    def _index(self, version: int) -> int:
        try:
            return self.versions().index(version)
        except ValueError:
            raise KeyError(f"version {version} not recorded") from None

    def reconstruct(self, version: int) -> CSRGraph:
        """The CSR of ``version``: the newest snapshot's pointers rolled back
        through the newer versions' diffs, over the arenas they index (no
        edge copied or sorted). Raises ``KeyError`` for a version never
        recorded or evicted."""
        i, head = self._index(version), self._head[1]
        if i == len(self._older):
            return head
        held, directions = self._older[i], []
        for d, (start, degree, _, _) in enumerate(_directions(head)):
            pointers = np.stack([start, degree])
            for newer in reversed(self._older[i:]):
                ids, values, *arena = newer.runs[d]
                pointers[:, ids] = values
            directions.append((*pointers[:, : held.num_vertices], *arena))
        return CSRGraph._from_parts(held.num_vertices, held.num_edges, *directions)

    def common_slice(self, versions: Iterable[int]) -> CommonSlice:
        """Decompose ``versions`` into a common graph + per-version adds.

        An edge is common when every requested version holds it with the
        same weight. Only the out-runs of vertices added or changed between
        the oldest and newest requested version are compared (all of them
        across a compaction): any other vertex has one run in the range.
        Raises ``KeyError`` if any version is unrecorded or evicted.
        """
        vers = sorted({int(v) for v in versions})
        if not vers:
            raise ValueError("versions must be non-empty")
        lo, hi = self._index(vers[0]), self._index(vers[-1])
        csrs = [self.reconstruct(ver) for ver in vers]
        added = np.arange(csrs[0].num_vertices, csrs[-1].num_vertices)
        changed = [held.runs[0][0] for held in self._older[lo:hi]]
        touched = np.unique(np.concatenate([added, *changed]))
        if csrs[-1].out_targets is not csrs[0].out_targets:
            # A compaction can rewrite a run at its old pointers.
            touched = np.arange(csrs[-1].num_vertices)
        runs = [_out_runs(csr, touched) for csr in csrs]
        keys, (_, _, weights) = runs[0]
        for other_keys, (_, _, other_weights) in runs[1:]:
            at, same = _lookup(other_keys, keys)
            same[same] = other_weights[at[same]] == weights[same]
            keys, weights = keys[same], weights[same]
        additions = {}
        for ver, (ver_keys, columns) in zip(vers, runs):
            extra = ~_lookup(keys, ver_keys)[1]
            additions[ver] = tuple(column[extra] for column in columns)
        # The oldest version's edges, less its touched runs' uncommon ones.
        src, dst, wgt = csrs[0].edge_arrays()
        common = ~np.isin(src, touched)
        common[~common] = _lookup(keys, runs[0][0])[1]
        return CommonSlice(
            versions=vers,
            common_edges=(src[common], dst[common], wgt[common]),
            common_vertices=min(csr.num_vertices for csr in csrs),
            additions=additions,
            graphs=dict(zip(vers, csrs)),
        )

    def stats(self) -> Dict[str, Optional[int]]:
        """Retention/footprint counters for ops surfaces: ``delta_records``
        and ``delta_bytes`` measure the pointer diffs, ``arena_bytes`` the
        arena arrays the held versions index (each once)."""
        held, head = self.versions(), self._head[1]
        diffs = [r for older in self._older for r in older.runs]
        arenas = {id(a): a.nbytes for r in diffs + list(_directions(head)) for a in r[2:]}
        return {
            "versions_held": len(held),
            "oldest_version": held[0],
            "newest_version": held[-1],
            "delta_records": sum(len(r[0]) for r in diffs),
            "delta_bytes": sum(ids.nbytes + values.nbytes for ids, values, _, _ in diffs),
            "arena_bytes": sum(arenas.values()),
            "evicted_versions": self._evicted_versions,
            "keep_versions": self.keep_versions,
            "base_edges": (self._older[0] if self._older else head).num_edges,
        }
