"""Sharded multi-engine execution over graph slices (§4.7, Table 1).

The paper's accelerator runs **8 event-driven engines in parallel**: the
graph is sliced (PuLP edge-cut — here :func:`repro.graph.partition.
partition_graph`), each engine owns one slice's vertices and its own
coalescing queue, and events crossing slices travel through the 16×16
crossbar NoC (§4.4). This module reproduces that organization on the
vectorized SoA substrate:

* :class:`ShardedQueueGroup` — one :class:`~repro.core.queue.VectorQueue`
  per engine plus the vertex→engine map, presenting the same queue
  interface the orchestration layers already use;
* :class:`InterEngineChannel` — cross-engine event routing with NoC flit
  and contention accounting via :class:`repro.sim.noc.CrossbarModel`;
* :func:`regular_shard_kernel` / :func:`delete_shard_kernel` — the array
  round kernels, the only array implementation of a round: the
  single-engine vectorized path calls them inline over the whole drain,
  both sharded backends call them per engine;
* :func:`run_shard_round` — the multi-shard caller: split the merged
  drain by owner, dispatch to the engine core's persistent executor,
  merge back in canonical order. The round loop itself (drain, accounting,
  tracing, delete bookkeeping) is ``EngineCore``'s one array driver.

**Execution backends.** ``backend="thread"`` (default) runs shard kernels
on one persistent :class:`ThreadShardExecutor` per engine core — the
NumPy kernels release or spend little time under the GIL, and shards
write disjoint rows of the shared state arrays. ``backend="process"``
runs one long-lived worker process per pool slot
(:class:`ProcessShardExecutor`, ``spawn`` start method): the hot state —
vertex states, the DAP dependency array, the CSR out-arrays, hoisted
propagation factors, and the queue cell arrays — lives in
``multiprocessing.shared_memory`` segments (:mod:`repro.core.shm`), so
workers reduce and expand directly against the same physical memory the
main process merges and drains. Round inputs (the merged drain batch and
per-shard selections) and outputs (generated-event arrays plus the
:class:`~repro.core.metrics.RoundWork` vector) travel over a pipe per
worker; queue drains, canonical merges, and all accounting stay in the
main process. Idle process pools are parked in a warm cache keyed by
width and revived for the next engine core of the same shape
(:func:`acquire_shard_executor` / :func:`release_shard_executor`).

**Determinism contract.** Both backends are *bit-identical* to the
single-engine vectorized path — final states, per-round
:class:`~repro.core.metrics.RoundWork` vectors, phase extras, and queue
lifetime statistics — for any shard assignment and any worker count. Each
round, per-engine drains are merged into one batch in canonical
shard-then-vertex order (vertex ids are globally sorted; every vertex
lives in exactly one shard, so this is simultaneously ascending-vertex
order — the oracle's drain order), per-engine generated events are merged
back in the producing vertex's drain position order (the oracle's
generation order), and cross-shard deliveries coalesce into each
destination queue in that fixed order regardless of which worker finished
first. Shard results are always reassembled by shard id — never by
completion order — so the merge sees the same operand order on one
thread, eight threads, or eight processes. Because floating-point
reduction order is preserved exactly, results do not drift by even one
ulp (``tests/test_sharded_parity.py`` sweeps both backends).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.events import NO_SOURCE, Event, EventBatch
from repro.core.metrics import PhaseStats, RoundWork
from repro.core.policies import DeletePolicy
from repro.core.queue import VectorQueue
from repro.graph.csr import run_indices
from repro.graph.partition import extend_assignment
from repro.obs.metrics import REGISTRY as METRICS
from repro.obs.tracer import work_attrs
from repro.sim.noc import CrossbarModel

from repro.algorithms.base import AlgorithmKind


def _default_workers(num_engines: int) -> int:
    return max(1, min(num_engines, os.cpu_count() or 1))


def _run_tasks(pool: Optional[ThreadPoolExecutor], tasks):
    """Run thunks (serially or on ``pool``), returning results in task order.

    Collecting results in submission order — never completion order — is
    one half of the determinism contract; the other half is the canonical
    merge the callers apply to those results.
    """
    if pool is None:
        return [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]


def _timed_task(task, slot, clock):
    """Wrap a shard thunk to record its wall-clock window into ``slot``.

    Only used when tracing is enabled; ``perf_counter`` is monotonic
    across threads, so worker-side stamps compare with the main thread's.
    """

    def run():
        slot[0] = clock()
        try:
            return task()
        finally:
            slot[1] = clock()

    return run


def noc_snapshot(phase: PhaseStats):
    """The phase's NoC counters now, for :func:`noc_delta_attrs` later."""
    return (
        phase.noc_events_local,
        phase.noc_events_remote,
        phase.noc_flits,
        phase.noc_cycles,
    )


def noc_delta_attrs(phase: PhaseStats, snapshot) -> dict:
    """One round's NoC traffic as span attributes (counters since ``snapshot``)."""
    return {
        "noc_events_local": phase.noc_events_local - snapshot[0],
        "noc_events_remote": phase.noc_events_remote - snapshot[1],
        "noc_flits": phase.noc_flits - snapshot[2],
        "noc_cycles": phase.noc_cycles - snapshot[3],
    }


class InterEngineChannel:
    """Cross-engine event traffic accounting (§4.4 crossbar, §4.7 slices).

    Every generated event is delivered either to the producing engine's own
    queue (local) or across the NoC to another engine (remote). Remote
    traffic is charged flits and contended cycles through
    :class:`~repro.sim.noc.CrossbarModel`, per round, and accumulated both
    here (lifetime, per-engine) and on the active
    :class:`~repro.core.metrics.PhaseStats` (``noc_*`` counters).
    """

    def __init__(self, config, event_bytes: int, num_engines: int):
        self.model = CrossbarModel(config, event_bytes=event_bytes)
        self.num_engines = num_engines
        self.events_local = 0
        self.events_remote = 0
        self.flits = 0
        self.cycles = 0.0
        self.sent = np.zeros(num_engines, dtype=np.int64)
        self.received = np.zeros(num_engines, dtype=np.int64)

    def record(
        self,
        src_engine: np.ndarray,
        dst_engine: np.ndarray,
        phase: Optional[PhaseStats] = None,
    ) -> None:
        """Account one round's deliveries (``src_engine`` < 0 = host-injected)."""
        remote = (src_engine >= 0) & (src_engine != dst_engine)
        n_remote = int(np.count_nonzero(remote))
        n_local = int(src_engine.shape[0]) - n_remote
        self.events_local += n_local
        self.events_remote += n_remote
        flits = 0
        cycles = 0.0
        if n_remote:
            estimate = self.model.round_cycles(n_remote)
            flits = estimate.flits
            cycles = estimate.contended_cycles
            self.flits += flits
            self.cycles += cycles
            np.add.at(self.sent, src_engine[remote], 1)
            np.add.at(self.received, dst_engine[remote], 1)
        if phase is not None:
            phase.noc_events_local += n_local
            phase.noc_events_remote += n_remote
            phase.noc_flits += flits
            phase.noc_cycles += cycles
        if METRICS.enabled:
            METRICS.record_noc(n_local, n_remote, flits)

    def stats(self) -> Dict[str, object]:
        """Lifetime channel counters."""
        return {
            "events_local": self.events_local,
            "events_remote": self.events_remote,
            "flits": self.flits,
            "cycles": self.cycles,
            "sent_per_engine": self.sent.tolist(),
            "received_per_engine": self.received.tolist(),
        }


class ShardedQueueGroup:
    """Per-engine :class:`VectorQueue` bank behind the single-queue API.

    The orchestration layers (static compute, streaming phases, seed
    buffers) talk to this group exactly as they talk to one queue: inserts
    are routed to the owning engine's queue by the vertex→engine map,
    preserving arrival order per vertex so per-cell coalescing folds in the
    oracle's order; drains are merged in canonical order by
    :meth:`drain_round_merged`.

    Lifetime statistics aggregate to the oracle's exactly: inserts and
    coalesces are disjoint sums, and peak occupancy is sampled across the
    whole bank after each logical insert — the same observation points the
    single queue uses.
    """

    def __init__(
        self,
        algorithm,
        config,
        policy: DeletePolicy = DeletePolicy.DAP,
        num_vertices: int = 0,
        shard_of: Optional[np.ndarray] = None,
        num_engines: int = 8,
        workers: Optional[int] = None,
        queue_array_factory=None,
    ):
        if num_engines < 1:
            raise ValueError("num_engines must be >= 1")
        self.algorithm = algorithm
        self.config = config
        self.policy = policy
        self.num_engines = num_engines
        if shard_of is None:
            shard_of = np.arange(num_vertices, dtype=np.int64) % num_engines
        shard_of = np.asarray(shard_of, dtype=np.int64).copy()
        if shard_of.shape[0] < num_vertices:
            shard_of = extend_assignment(shard_of, num_vertices, num_engines)
        if shard_of.size and (shard_of.max() >= num_engines or shard_of.min() < 0):
            raise ValueError("shard assignment references an engine out of range")
        self.shard_of = shard_of
        self.queues = [
            VectorQueue(
                algorithm,
                config,
                policy,
                num_vertices=num_vertices,
                array_factory=queue_array_factory,
            )
            for _ in range(num_engines)
        ]
        self.event_bytes = policy.event_bytes(config)
        self.channel = InterEngineChannel(config, self.event_bytes, num_engines)
        self.workers = workers if workers is not None else _default_workers(num_engines)
        self.active_slice = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------
    def set_delete_coalescing(self, enabled: bool) -> None:
        """Enable/disable delete coalescing on every engine's queue."""
        for queue in self.queues:
            queue.set_delete_coalescing(enabled)

    def engine_of(self, vertex: int) -> int:
        """Engine owning ``vertex``."""
        return int(self.shard_of[vertex])

    # ------------------------------------------------------------------
    # Insertion / routing
    # ------------------------------------------------------------------
    def _ensure_covers(self, num_vertices: int) -> None:
        """Extend the vertex→engine map for vertices created mid-stream.

        Uses the same deterministic lightest-shard rule as
        :func:`repro.graph.partition.extend_assignment`, so the engine-side
        plan (extended by :meth:`EngineCore.grow`) and this group agree on
        every new vertex's owner.
        """
        if num_vertices <= self.shard_of.shape[0]:
            return
        self.shard_of = extend_assignment(self.shard_of, num_vertices, self.num_engines)

    def insert(self, event: Event, work: RoundWork) -> None:
        """Insert one boxed event (seeding/tests; hot paths use batches)."""
        self.insert_batch(EventBatch.from_events([event]), work)

    def seed(self, events: Iterable[Event], work: RoundWork) -> None:
        """Bulk-insert initial events (the Initializer module, §4.6)."""
        self.insert_batch(EventBatch.from_events(list(events)), work)

    def insert_batch(self, batch: EventBatch, work: RoundWork) -> None:
        """Route ``batch`` to the owning engines' queues in shard order.

        Splitting by owner preserves per-vertex arrival order (every event
        for a vertex lands in the same sub-batch), so each queue's
        scatter-reduce folds the exact event sequence the single-queue
        oracle folds, and all ``work`` counters sum to the oracle's.
        """
        k = len(batch)
        if k == 0:
            return
        self._ensure_covers(int(batch.targets.max()) + 1)
        owner = self.shard_of[batch.targets]
        for engine_id in range(self.num_engines):
            mask = owner == engine_id
            if mask.any():
                self.queues[engine_id].insert_batch(batch.take(mask), work)
        self._sample_peak()

    def route_generated(
        self, batch: EventBatch, work: RoundWork, phase: PhaseStats
    ) -> None:
        """Deliver engine-generated events, charging inter-engine NoC traffic."""
        k = len(batch)
        if k == 0:
            return
        self._ensure_covers(int(batch.targets.max()) + 1)
        dst = self.shard_of[batch.targets]
        src = np.where(
            batch.sources >= 0, self.shard_of[np.maximum(batch.sources, 0)], -1
        )
        self.channel.record(src, dst, phase)
        for engine_id in range(self.num_engines):
            mask = dst == engine_id
            if mask.any():
                self.queues[engine_id].insert_batch(batch.take(mask), work)
        self._sample_peak()

    def _sample_peak(self) -> None:
        occupancy = self.occupancy()
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        if METRICS.enabled:
            METRICS.record_queue_occupancy(occupancy, self.peak_occupancy)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pending(self) -> bool:
        """True when any engine's queue holds events."""
        return any(queue.pending() for queue in self.queues)

    def active_pending(self) -> bool:
        """True when the active slice holds events (per-engine queues are
        single-slice, so this equals :meth:`pending`)."""
        return self.pending()

    def activate_next_slice(self, work: Optional[RoundWork] = None) -> bool:
        """Single-slice no-op mirroring the oracle queue's behaviour."""
        return self.pending()

    def drain_round_merged(
        self, max_rows: Optional[int] = None, pool=None
    ) -> Tuple[EventBatch, np.ndarray]:
        """Drain every engine's queue and merge in canonical order.

        Per-engine drains run concurrently on ``pool`` (serially when it is
        ``None`` — the process backend drains in the main process); the
        merge is a stable sort by target vertex id. Vertices are disjoint
        across engines, so this reconstructs exactly the single queue's
        drain order (cells first, then overflow events per target in
        arrival order), and the returned row starts are the global row
        boundaries. ``max_rows`` computes the allowed row window over the
        union of all engines' pending targets — the same window the oracle
        drains.
        """
        allowed: Optional[np.ndarray] = None
        row_width = self.config.queue_row_vertices
        if max_rows is not None:
            pending = [q.pending_targets() for q in self.queues]
            pending = [p for p in pending if p.size]
            if not pending:
                return EventBatch.empty(), np.empty(0, dtype=np.int64)
            rows = np.unique(np.concatenate(pending) // row_width)
            allowed = rows[:max_rows]

        scratch = [RoundWork() for _ in self.queues]

        def drain_task(queue, work):
            def run():
                return queue.drain_round(work, allowed_rows=allowed)

            return run

        parts = _run_tasks(
            pool, [drain_task(q, w) for q, w in zip(self.queues, scratch)]
        )
        batches = [batch for batch, _ in parts if len(batch)]
        if not batches:
            return EventBatch.empty(), np.empty(0, dtype=np.int64)
        merged = EventBatch.concat(batches)
        order = np.argsort(merged.targets, kind="stable")
        out = merged.take(order)
        out_rows = out.targets // row_width
        row_start = np.empty(len(out), dtype=bool)
        row_start[0] = True
        np.not_equal(out_rows[1:], out_rows[:-1], out=row_start[1:])
        return out, np.flatnonzero(row_start)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Queued events across every engine's queue."""
        return sum(queue.occupancy() for queue in self.queues)

    def lifetime_stats(self) -> Dict[str, int]:
        """Lifetime counters, aggregated to match the single-queue oracle."""
        return {
            "total_inserts": sum(q.total_inserts for q in self.queues),
            "total_coalesces": sum(q.total_coalesces for q in self.queues),
            "peak_occupancy": self.peak_occupancy,
            "slice_switches": 0,
        }

    def channel_stats(self) -> Dict[str, object]:
        """Lifetime inter-engine NoC counters."""
        return self.channel.stats()


# ----------------------------------------------------------------------
# Array round kernels (the one implementation of a round)
# ----------------------------------------------------------------------
def regular_shard_kernel(
    ctx: dict,
    targets: np.ndarray,
    payloads: np.ndarray,
    flags: np.ndarray,
    sources: np.ndarray,
    work: RoundWork,
):
    """Computation-phase work over the drained rows it is handed.

    ``ctx`` carries the algorithm/policy plus the state, dependency,
    propagation-factor, and CSR out-arrays — heap views in the main
    process, shared-memory attachments inside worker processes. The rows
    are one round's drain in ascending-vertex order with unique targets
    (the queue coalesced all regular events per vertex): the whole round
    for the single-engine inline call, one engine's rows for a shard.

    Gathers states, reduces element-wise, scatters the changed values
    back, and expands the frontier (changed or request-flagged vertices
    with out-edges). Adds its counters to ``work`` and returns
    ``(producers, gen_t, gen_p, gen_s)``: the local row positions of the
    propagating vertices and the generated events in generation order.
    """
    algorithm = ctx["algorithm"]
    states = ctx["states"]
    offsets = ctx["offsets"]
    out_targets = ctx["out_targets"]
    out_weights = ctx["out_weights"]
    old = states[targets]
    new = algorithm.reduce_ufunc(old, payloads)
    changed = new != old
    tc = targets[changed]
    states[tc] = new[changed]
    if ctx["policy"].tracks_dependency:
        ctx["dependency"][tc] = sources[changed]
    prop = changed | ((flags & 2) != 0)
    start_all = offsets[targets]
    deg_all = offsets[targets + 1] - start_all
    idx = np.flatnonzero(prop & (deg_all > 0))
    v = targets[idx]
    start = start_all[idx]
    deg = deg_all[idx]
    if algorithm.kind is AlgorithmKind.ACCUMULATIVE:
        # Linear fast path: forwarded delta is the incoming delta scaled
        # by the hoisted per-source factor.
        threshold = algorithm.propagation_threshold
        base = (new[idx] - old[idx]) * ctx["prop_factor"][v]
        if algorithm.weight_scaled_propagation:
            eidx = run_indices(start, deg)
            values = np.repeat(base, deg) * out_weights[eidx]
            keep = (values > threshold) | (values < -threshold)
            gen_t = out_targets[eidx][keep]
            gen_p = values[keep]
            gen_s = np.repeat(v, deg)[keep]
        else:
            keepv = (base > threshold) | (base < -threshold)
            dg = deg[keepv]
            eidx = run_indices(start[keepv], dg)
            gen_t = out_targets[eidx]
            gen_p = np.repeat(base[keepv], dg)
            gen_s = np.repeat(v[keepv], dg)
    else:
        # Selective: propagation basis is the post-write state.
        eidx = run_indices(start, deg)
        gen_t = out_targets[eidx]
        gen_p = algorithm.propagate_arrays(np.repeat(new[idx], deg), out_weights[eidx])
        gen_s = np.repeat(v, deg)
    k = int(targets.shape[0])
    work.events_processed += k
    work.vertex_reads += k
    work.vertex_writes += int(tc.shape[0])
    work.edges_read += int(deg.sum())
    work.events_generated += int(gen_t.shape[0])
    return idx, gen_t, gen_p, gen_s


_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def delete_shard_kernel(
    ctx: dict,
    targets: np.ndarray,
    payloads: np.ndarray,
    flags: np.ndarray,
    sources: np.ndarray,
    work: RoundWork,
):
    """Recovery-phase work over the drained rows it is handed.

    Duplicate targets (the DAP overflow buffer drains uncoalesced events)
    are resolved per group: the winner is the first event that passes the
    policy impact test against the pre-round state — the same event the
    scalar loop resets on, since every later duplicate then fails the
    identity check. Groups never span engines (a vertex lives in exactly
    one shard). Resets the impacted vertices and expands delete
    propagation along their out-edges. Same conventions as
    :func:`regular_shard_kernel`; the returned producers are the winning
    rows, *including* those without out-edges.
    """
    k = int(targets.shape[0])
    if k == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_F, _EMPTY_I
    algorithm = ctx["algorithm"]
    policy = ctx["policy"]
    states = ctx["states"]
    offsets = ctx["offsets"]
    identity = algorithm.identity
    dap = policy is DeletePolicy.DAP
    st = states[targets]
    cond = st != identity
    if dap:
        cond &= ctx["dependency"][targets] == sources
    if policy is DeletePolicy.VAP:
        cond &= ~algorithm.more_progressed_arrays(st, payloads)
    gfirst = np.empty(k, dtype=bool)
    gfirst[0] = True
    np.not_equal(targets[1:], targets[:-1], out=gfirst[1:])
    gstarts = np.flatnonzero(gfirst)
    pos = np.where(cond, np.arange(k), k)
    win = np.minimum.reduceat(pos, gstarts)
    win = win[win < np.append(gstarts[1:], k)]
    v = targets[win]
    # Reset (tag) the impacted vertices — Algorithm 4, line 11.
    states[v] = identity
    if dap:
        ctx["dependency"][v] = NO_SOURCE
    start_all = offsets[v]
    deg_all = offsets[v + 1] - start_all
    sub = np.flatnonzero(deg_all > 0)
    deg = deg_all[sub]
    total = int(deg.sum())
    eidx = run_indices(start_all[sub], deg)
    if policy is DeletePolicy.BASE:
        # BASE carries no value (Algorithm 4 queues <v, 0>).
        gen_p = np.zeros(total, dtype=np.float64)
    else:
        # VAP/DAP carry the contribution computed from the
        # pre-reset state (§5.1, §5.2).
        gen_p = algorithm.propagate_arrays(
            np.repeat(st[win][sub], deg), ctx["out_weights"][eidx]
        )
    work.events_processed += k
    work.vertex_reads += k
    work.vertex_writes += int(win.shape[0])
    work.edges_read += total
    work.events_generated += total
    return win, ctx["out_targets"][eidx], gen_p, np.repeat(v[sub], deg)


#: Round kernel per phase kind (the ``kind`` of the worker ``round`` op).
ROUND_KERNELS = {"regular": regular_shard_kernel, "delete": delete_shard_kernel}


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------
class ShardWorkerError(RuntimeError):
    """A shard worker process failed or died mid-protocol."""


class ThreadShardExecutor:
    """Persistent shard thread pool (``backend="thread"``).

    One pool per engine core, reused across every round, phase, and
    streaming batch of the run — previously a ``ThreadPoolExecutor`` was
    created and torn down per kernel invocation — and shut down
    deterministically by ``EngineCore.close()`` (or its GC finalizer on
    abandoned engines, covering exception paths).
    """

    backend = "thread"

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
            if self.workers > 1
            else None
        )
        self._closed = False

    @property
    def pool(self) -> Optional[ThreadPoolExecutor]:
        """The raw pool (None = serial), also used for parallel drains."""
        return self._pool

    def run_tasks(self, tasks):
        return _run_tasks(self._pool, tasks)

    def alive(self) -> bool:
        return not self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _build_worker_context(payload: dict, cache) -> dict:
    """Materialize a kernel context from a bind payload (worker side)."""
    specs = payload["arrays"]
    cache.retain(spec["name"] for spec in specs.values() if spec is not None)
    arrays = {
        key: (cache.attach(spec) if spec is not None else None)
        for key, spec in specs.items()
    }
    return {"algorithm": payload["algorithm"], "policy": payload["policy"], **arrays}


def _process_worker_main(conn) -> None:
    """Entry point of one shard worker process (``spawn`` start method).

    Serves a tiny request/reply protocol on its pipe: ``bind`` (attach the
    shared arrays and cache the algorithm/policy), ``round`` (run the
    kernel for each assigned shard), ``unbind`` (drop attachments when the
    pool is parked in the warm cache), ``close``. Any kernel exception is
    shipped back as a formatted traceback instead of killing the worker.
    """
    from repro.core.shm import AttachmentCache

    cache = AttachmentCache()
    ctx: Optional[dict] = None
    clock = time.perf_counter
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "close":
                try:
                    conn.send(("ok",))
                except (BrokenPipeError, OSError):
                    pass
                break
            try:
                if op == "bind":
                    ctx = _build_worker_context(message[1], cache)
                    reply = ("ok",)
                elif op == "unbind":
                    ctx = None
                    cache.close_all()
                    reply = ("ok",)
                elif op == "round":
                    _, kind, jobs, batch_arrays, timed = message
                    kernel = ROUND_KERNELS[kind]
                    out = []
                    for shard_id, sel in jobs:
                        sw = RoundWork()
                        t0 = clock() if timed else 0.0
                        result = kernel(ctx, *(a[sel] for a in batch_arrays), sw)
                        t1 = clock() if timed else 0.0
                        out.append((shard_id, result, sw, t0, t1))
                    reply = ("ok", out)
                else:
                    reply = ("error", f"unknown worker op {op!r}")
            except BaseException:
                reply = ("error", traceback.format_exc())
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        cache.close_all()
        conn.close()


class ProcessShardExecutor:
    """Persistent worker-process pool (``backend="process"``).

    Spawns ``workers`` long-lived processes, each holding attachments to
    the engine's shared-memory arrays between rounds. Shard *s* of an
    *n*-engine round runs on worker ``s % workers``; replies are
    reassembled by shard id, so result order — and therefore the canonical
    merges — is independent of worker scheduling. The executor never
    creates or unlinks segments; a dead worker at most costs its pipe, and
    segment cleanup stays entirely with the main process.
    """

    backend = "process"

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        ctx = multiprocessing.get_context("spawn")
        self._procs = []
        self._conns = []
        self._closed = False
        for index in range(self.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_process_worker_main,
                args=(child,),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)

    @property
    def pool(self) -> None:
        """Queue drains run in the main process on this backend."""
        return None

    def alive(self) -> bool:
        return not self._closed and all(proc.is_alive() for proc in self._procs)

    # ------------------------------------------------------------------
    def _send(self, index: int, message) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerError(f"shard worker {index} died: {exc}") from exc

    def _recv(self, index: int):
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(f"shard worker {index} died: {exc}") from exc
        if reply[0] == "error":
            raise ShardWorkerError(f"shard worker {index} failed:\n{reply[1]}")
        return reply

    def _broadcast(self, message) -> None:
        for index in range(self.workers):
            self._send(index, message)
        for index in range(self.workers):
            self._recv(index)

    # ------------------------------------------------------------------
    def bind(self, payload: dict) -> None:
        """Ship the attach recipe + algorithm/policy to every worker."""
        self._broadcast(("bind", payload))

    def unbind(self) -> None:
        """Drop worker attachments (before parking in the warm cache)."""
        self._broadcast(("unbind",))

    def run_round(self, kind: str, num_engines: int, sels, batch_arrays, timed: bool):
        """Execute one round's shard kernels; results keyed by shard id."""
        jobs: List[list] = [[] for _ in range(self.workers)]
        for shard_id in range(num_engines):
            jobs[shard_id % self.workers].append((shard_id, sels[shard_id]))
        for index in range(self.workers):
            self._send(index, ("round", kind, jobs[index], batch_arrays, timed))
        results = [None] * num_engines
        works = [None] * num_engines
        times = [(0.0, 0.0)] * num_engines
        for index in range(self.workers):
            reply = self._recv(index)
            for shard_id, result, sw, t0, t1 in reply[1]:
                results[shard_id] = result
                works[shard_id] = sw
                times[shard_id] = (t0, t1)
        return results, works, times

    def close(self, timeout: float = 5.0) -> None:
        if self._closed:
            return
        self._closed = True
        for conn, proc in zip(self._conns, self._procs):
            if proc.is_alive():
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass


# Warm pool cache: spawning a process pool costs interpreter startup per
# worker, so idle pools are parked here (keyed by width) instead of torn
# down, and revived for the next engine core of the same shape. Parked
# pools hold no attachments (release_* unbinds first).
_PROCESS_POOL_CACHE: Dict[int, List[ProcessShardExecutor]] = {}


def acquire_shard_executor(backend: str, workers: int):
    """Create (or revive from the warm cache) an executor for ``backend``."""
    if backend == "process":
        cached = _PROCESS_POOL_CACHE.get(workers)
        while cached:
            executor = cached.pop()
            if executor.alive():
                if METRICS.enabled:
                    METRICS.record_shard_pool("process", "reuse", workers)
                return executor
            executor.close()
        executor = ProcessShardExecutor(workers)
        if METRICS.enabled:
            METRICS.record_shard_pool("process", "spawn", executor.workers)
        return executor
    executor = ThreadShardExecutor(workers)
    if METRICS.enabled:
        METRICS.record_shard_pool("thread", "spawn", executor.workers)
    return executor


def release_shard_executor(executor) -> None:
    """Return an executor at end of run: park process pools, close threads."""
    if executor.backend != "process":
        executor.close()
        return
    if not executor.alive():
        executor.close()
        return
    try:
        executor.unbind()
    except ShardWorkerError:
        executor.close()
        return
    _PROCESS_POOL_CACHE.setdefault(executor.workers, []).append(executor)


def _shutdown_executor_cache() -> None:
    for executors in _PROCESS_POOL_CACHE.values():
        while executors:
            executors.pop().close()


atexit.register(_shutdown_executor_cache)


def _dispatch_shards(executor, kind, ctx, sels, batch_arrays, shard_works, timed, clock):
    """Run one round's kernel per shard on ``executor``; per-shard order out.

    Thread backend: closures over the heap context run on the persistent
    pool, kernels filling ``shard_works`` in place. Process backend: one
    message per worker carries its shards' selections plus the round batch,
    and each worker's returned work vectors merge into ``shard_works``.
    Returns ``(results, task_times)`` indexed by shard id.
    """
    num_engines = len(sels)
    if executor.backend == "process":
        results, works, times = executor.run_round(
            kind, num_engines, sels, batch_arrays, timed
        )
        for shard_id in range(num_engines):
            shard_works[shard_id].merge(works[shard_id])
        return results, times

    kernel = ROUND_KERNELS[kind]

    def shard_task(sel, sw):
        def run():
            return kernel(ctx, *(a[sel] for a in batch_arrays), sw)

        return run

    tasks = [shard_task(sels[s], shard_works[s]) for s in range(num_engines)]
    task_times = [[0.0, 0.0] for _ in range(num_engines)]
    if timed:
        tasks = [
            _timed_task(task, slot, clock) for task, slot in zip(tasks, task_times)
        ]
    return executor.run_tasks(tasks), task_times


def run_shard_round(
    executor, kind, ctx, shard_of, batch, shard_works, tracer, round_span
):
    """One round as the multi-shard caller of the array kernels.

    Splits the canonically merged drain ``batch`` by owning engine, runs
    the ``kind`` kernel per shard on ``executor`` (disjoint rows of the
    shared state arrays — heap-shared across threads, shm-shared across
    worker processes), and merges the results back into the single-engine
    order: producer positions ascending, generated events by producing
    vertex. A vertex produces from at most one drain position per round
    and positions ascend with vertex id, so the stable sort on the source
    id *is* the oracle's generation order. Returns the same
    ``(producers, gen_t, gen_p, gen_s)`` the inline kernel call returns.
    """
    owner = shard_of[batch.targets]
    sels = [np.flatnonzero(owner == s) for s in range(len(shard_works))]
    results, task_times = _dispatch_shards(
        executor,
        kind,
        ctx,
        sels,
        (batch.targets, batch.payloads, batch.flags, batch.sources),
        shard_works,
        timed=round_span is not None,
        clock=getattr(tracer, "clock", None),
    )
    if round_span is not None:
        for s, sw in enumerate(shard_works):
            tracer.emit(
                "engine",
                f"engine-{s}",
                task_times[s][0],
                task_times[s][1],
                parent=round_span,
                engine=s,
                **work_attrs(sw),
            )
    producers = np.sort(np.concatenate([sel[r[0]] for sel, r in zip(sels, results)]))
    gen_s = np.concatenate([r[3] for r in results])
    order = np.argsort(gen_s, kind="stable")
    return (
        producers,
        np.concatenate([r[1] for r in results])[order],
        np.concatenate([r[2] for r in results])[order],
        gen_s[order],
    )
