"""The array round kernels and their per-engine accounting (§4.4, §4.7).

The paper's accelerator runs **8 event-driven engines**: the graph is
sliced (PuLP edge-cut — here :func:`repro.graph.partition.
partition_graph`), each engine owns one slice's vertices, and events
crossing slices travel through the 16×16 crossbar NoC (§4.4). What the
reproduction needs from those engines is *accounting* — per-engine work,
load balance and crossbar traffic (Table 1) — so ``num_engines=n``
executes the same single array round as a one-engine run and
attributes its work to the engine owning each vertex:

* :func:`regular_shard_kernel` / :func:`delete_shard_kernel` — the array
  round kernels, the only array implementation of a round;
* :func:`engine_round_work` — one round's per-engine
  :class:`~repro.core.metrics.RoundWork`, an ``np.bincount`` over the
  owners of the vertices the round processed, wrote, expanded and
  produced from;
* :class:`InterEngineChannel` — flits and contended cycles, via
  :class:`repro.sim.noc.CrossbarModel`, for generated events whose
  producer and target live on different engines.

Because nothing is split or merged, states, per-round work vectors, phase
extras and queue statistics of a sharded run are those of the one-engine
run by construction (``tests/test_sharded_parity.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.events import NO_SOURCE
from repro.core.metrics import PhaseStats, RoundWork
from repro.core.policies import DeletePolicy
from repro.graph.csr import run_indices
from repro.obs.tracer import NOC_FIELDS
from repro.sim.noc import CrossbarModel

from repro.algorithms.base import AlgorithmKind


def noc_snapshot(phase: PhaseStats):
    """The phase's NoC counters now, for :func:`noc_delta_attrs` later."""
    return [getattr(phase, field) for field in NOC_FIELDS]


def noc_delta_attrs(phase: PhaseStats, snapshot) -> dict:
    """One round's NoC traffic as span attributes (counters since ``snapshot``)."""
    return {
        field: getattr(phase, field) - before
        for field, before in zip(NOC_FIELDS, snapshot)
    }


class InterEngineChannel:
    """Cross-engine event traffic accounting (§4.4 crossbar, §4.7 slices).

    Every generated event is delivered either to the producing engine's own
    queue (local) or across the NoC to another engine (remote). Remote
    traffic is charged flits and contended cycles through
    :class:`~repro.sim.noc.CrossbarModel`, per round, on the active
    :class:`~repro.core.metrics.PhaseStats` (``noc_*`` counters).
    """

    def __init__(self, config, event_bytes: int):
        self.model = CrossbarModel(config, event_bytes=event_bytes)

    def record(
        self, src_engine: np.ndarray, dst_engine: np.ndarray, phase: PhaseStats
    ) -> None:
        """Account one round's deliveries from ``src_engine`` to ``dst_engine``."""
        n_remote = int(np.count_nonzero(src_engine != dst_engine))
        n_local = int(src_engine.shape[0]) - n_remote
        flits = 0
        cycles = 0.0
        if n_remote:
            estimate = self.model.round_cycles(n_remote)
            flits = estimate.flits
            cycles = estimate.contended_cycles
        phase.noc_events_local += n_local
        phase.noc_events_remote += n_remote
        phase.noc_flits += flits
        phase.noc_cycles += cycles


def engine_round_work(
    owner: np.ndarray,
    num_engines: int,
    targets: np.ndarray,
    written: np.ndarray,
    expanded: np.ndarray,
    degrees: np.ndarray,
    gen_s: np.ndarray,
) -> List[RoundWork]:
    """One round's work split by owning engine (the kernels' counters).

    ``targets`` are the drained events, ``written`` the vertices whose
    state the kernel wrote, ``expanded``/``degrees`` the vertices whose
    out-edges it read, and ``gen_s`` the producer of every generated event.
    """

    def per_engine(vertices, weights=None):
        return np.bincount(owner[vertices], weights, minlength=num_engines)

    processed = per_engine(targets)
    writes = per_engine(written)
    edges = per_engine(expanded, degrees).astype(np.int64)
    generated = per_engine(gen_s)
    return [
        RoundWork(
            events_processed=int(processed[e]),
            vertex_reads=int(processed[e]),
            vertex_writes=int(writes[e]),
            edges_read=int(edges[e]),
            events_generated=int(generated[e]),
        )
        for e in range(num_engines)
    ]


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
    """Computation-phase work over one round's drained rows.

    ``ctx`` carries the algorithm/policy plus the state, dependency,
    propagation-factor arrays and the CSR out-runs (``starts``,
    ``degrees``, ``out_targets``, ``out_weights``), and ``gen_sources``:
    whether anything reads the generated events' producers (the DAP queue,
    §5.2, or per-engine accounting). The rows are the round's drain in
    ascending-vertex order with unique targets (the queue coalesced all
    regular events per vertex).

    Gathers states, reduces element-wise, scatters the changed values
    back, and expands the frontier (changed or request-flagged vertices
    with out-edges). Adds its counters to ``work`` and returns
    ``(producers, degrees, written, gen_t, gen_p, gen_s)``: the propagating
    vertices (ascending) and their out-degrees, the vertices whose state
    changed, and the generated events in generation order. A generated
    event carries no flag; ``gen_s`` is its producer, or ``None`` when
    ``gen_sources`` is off.
    """
    algorithm = ctx["algorithm"]
    states = ctx["states"]
    starts = ctx["starts"]
    degrees = ctx["degrees"]
    out_targets = ctx["out_targets"]
    out_weights = ctx["out_weights"]
    gen_sources = ctx["gen_sources"]
    gen_s = None
    old = states[targets]
    new = algorithm.reduce_ufunc(old, payloads)
    changed = new != old
    tc = targets[changed]
    states[tc] = new[changed]
    if ctx["policy"].tracks_dependency:
        ctx["dependency"][tc] = sources[changed]
    prop = changed | ((flags & 2) != 0)
    deg_all = degrees[targets]
    idx = np.flatnonzero(prop & (deg_all > 0))
    v = targets[idx]
    start = starts[v]
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
            if gen_sources:
                gen_s = np.repeat(v, deg)[keep]
        else:
            keepv = (base > threshold) | (base < -threshold)
            dg = deg[keepv]
            eidx = run_indices(start[keepv], dg)
            gen_t = out_targets[eidx]
            gen_p = np.repeat(base[keepv], dg)
            if gen_sources:
                gen_s = np.repeat(v[keepv], dg)
    else:
        # Selective: propagation basis is the post-write state.
        eidx = run_indices(start, deg)
        gen_t = out_targets[eidx]
        gen_p = algorithm.propagate_arrays(np.repeat(new[idx], deg), out_weights[eidx])
        if gen_sources:
            gen_s = np.repeat(v, deg)
    k = int(targets.shape[0])
    work.events_processed += k
    work.vertex_reads += k
    work.vertex_writes += int(tc.shape[0])
    work.edges_read += int(deg.sum())
    work.events_generated += int(gen_t.shape[0])
    return v, deg, tc, gen_t, gen_p, gen_s


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
    """Recovery-phase work over one round's drained rows.

    Duplicate targets (the DAP overflow buffer drains uncoalesced events)
    are resolved per group: the winner is the first event that passes the
    policy impact test against the pre-round state — the same event the
    scalar loop resets on, since every later duplicate then fails the
    identity check. Resets the impacted vertices and expands delete
    propagation along their out-edges. Same conventions as
    :func:`regular_shard_kernel`; the returned producers are the reset
    vertices, *including* those without out-edges, and so are the written
    ones.
    """
    k = int(targets.shape[0])
    if k == 0:
        return _EMPTY_I, _EMPTY_I, _EMPTY_I, _EMPTY_I, _EMPTY_F, None
    algorithm = ctx["algorithm"]
    policy = ctx["policy"]
    states = ctx["states"]
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
    deg_all = ctx["degrees"][v]
    sub = np.flatnonzero(deg_all > 0)
    deg = deg_all[sub]
    total = int(deg.sum())
    eidx = run_indices(ctx["starts"][v[sub]], deg)
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
    gen_s = np.repeat(v[sub], deg) if ctx["gen_sources"] else None
    return v, deg_all, v, ctx["out_targets"][eidx], gen_p, gen_s
