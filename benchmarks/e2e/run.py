#!/usr/bin/env python3
"""The repo's one end-to-end benchmark (see README.md beside this file).

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace {0,1}] [--prefix OPS]

Each workload is a closed loop: the caller sends its next op only after
the previous one returned, because writes answer only after publish
(read-your-writes), so that is how callers of this API behave. The load
comes from this one process with at most two threads.

* ``--trace 0`` measures a timed window with tracing off and reports the
  end-to-end metrics.
* ``--trace 1`` replays a fixed op prefix with the outside-in tracer of
  ``spans.py`` and reports the per-layer metrics.
* With neither, both run, for every workload unless ``--workload`` names
  one.

Every metric is printed by name with its unit, the whole result is written
to ``out/result.json``, and the last line of standard output is one JSON
object (the shape BENCHMARK.json's contract fixes when one workload runs
with ``--trace`` given).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no system to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from targets import (  # noqa: E402
    SESSION_NAME,
    AppTarget,
    DaemonTarget,
    SessionTarget,
    assert_nothing_left_behind,
    stat_fields,
)
from spans import Tracer, instrument_app, instrument_session  # noqa: E402

from repro.algorithms.base import AlgorithmKind  # noqa: E402
from repro.graph.dynamic import DynamicGraph  # noqa: E402
from repro.reference import compute_reference  # noqa: E402
from repro.sim.timing import AcceleratorTimingModel  # noqa: E402

OUT_DIR = HERE / "out"
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

WARMUP_S = 2.0
#: Set-up is repeated at least this often, and until the set-ups have
#: taken this long together: a 0.3 s set-up needs more samples than a 1 s one.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
READ_VERTICES = 3
#: Reads an in-process caller makes after each write. The first finds the
#: caches cold after the engine ran (3-4x a warm read, and the number that
#: moves most with what else the host is doing); the median read is a
#: warm one, as it is for the daemon's reader, which loops on a snapshot.
READS_PER_WRITE = 8
#: A window's ops are cut into this many runs of equal op count, and an
#: end-to-end timing is its best decile over them (see ``best_decile``).
CHUNKS = 40
CONNECT_SAMPLES = 50
DRIFT_BAND = (0.9, 1.1)


@dataclass(frozen=True)
class Workload:
    """One row of the workload table in README.md."""

    algorithm: str
    #: Where the ops go: an in-process ``Session`` or the serve daemon.
    served: bool
    #: Name salting the op stream.
    stream: str
    #: Inserts (= deletes) drawn per batch; singles flatten the batches.
    k: int
    single: bool
    #: Stream length is sized for this many write ops per second, several
    #: times today's rate, so a faster commit does not run out of ops.
    max_ops_per_s: int
    #: Op count of the traced run's fixed prefix.
    prefix: int


WORKLOADS: Dict[str, Workload] = {
    "batch-sel": Workload(
        algorithm="sssp", served=False, stream="batch-sel", k=500, single=False,
        max_ops_per_s=250, prefix=150,
    ),
    "batch-acc": Workload(
        algorithm="pagerank", served=False, stream="batch-acc", k=50, single=False,
        max_ops_per_s=150, prefix=50,
    ),
    "serve-updates": Workload(
        algorithm="sssp", served=True, stream="serve-updates", k=500, single=True,
        max_ops_per_s=10_000, prefix=150,
    ),
    "serve-ingest": Workload(
        algorithm="sssp", served=True, stream="serve-ingest", k=25, single=False,
        max_ops_per_s=1_000, prefix=150,
    ),
}


class Ops:
    """A workload's write ops, indexable: ``ops[i]`` is what op ``i`` sends."""

    def __init__(self, inputs: gen.Inputs, wl: Workload, num_ops: int):
        self.single = wl.single
        per_batch = 2 * wl.k if wl.single else 1
        self.stream = gen.make_stream(inputs, wl.stream, -(-num_ops // per_batch), wl.k)
        if wl.single:
            self._rows, self._is_insert = self.stream.singles()
            self.records_per_op = 1
        else:
            self.records_per_op = self.stream.batch_records
        self.count = self.stream.num_batches * per_batch

    def __getitem__(self, i: int):
        if self.single:
            return int(self._rows[i]), bool(self._is_insert[i])
        return self.stream.ins[i], self.stream.dels[i]


# ----------------------------------------------------------------------
# /proc readings of the system-under-test process
# ----------------------------------------------------------------------
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of ``pid`` so far."""
    fields = stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_own_peak_rss() -> None:
    """Restart this process's VmHWM so one workload's peak is its own."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="utf-8") as refs:
            refs.write("5")
    except OSError:
        pass  # not permitted here: the peak then covers the whole process


# ----------------------------------------------------------------------
# The closed loops
# ----------------------------------------------------------------------
def percentile(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def chunks(count: int) -> np.ndarray:
    """Edges of ``CHUNKS`` consecutive runs of equal size over ``count`` ops."""
    return np.linspace(0, count, min(CHUNKS, max(count, 1)) + 1).astype(int)


def chunk_medians(latencies: List[float]) -> np.ndarray:
    edges = chunks(len(latencies))
    return np.array([np.median(latencies[a:b]) for a, b in zip(edges, edges[1:]) if b > a])


def chunk_rates(starts: List[float], end: float) -> np.ndarray:
    """Ops per second of each chunk, which lasts from the start of its
    first op to the start of the next chunk's (``end`` for the last)."""
    if not starts:
        return np.array([])
    edges = chunks(len(starts))
    return np.diff(edges) / np.diff(np.append(starts, end)[edges])


def best_decile(per_chunk: np.ndarray, better: str) -> float:
    """The value a tenth of the chunks beat: the 10th percentile of chunk
    latencies, the 90th of chunk rates.

    What else the shared host runs only ever slows a chunk down, for
    seconds at a time, so the best chunks are the program's own speed; over
    the same runs they spread half as much as whole-window medians do.
    """
    if not per_chunk.size:
        return 0.0
    return float(np.percentile(per_chunk, 10 if better == "lower" else 90))


def drift_ratio(write_lat: List[float]) -> float:
    """``write_p50_ms`` of the last third of the chunks over the first's."""
    medians = chunk_medians(write_lat)
    third = len(medians) // 3
    if not third:
        return 0.0
    return best_decile(medians[-third:], "lower") / best_decile(medians[:third], "lower")


def read_vertices(seed: int, inputs: gen.Inputs) -> List[List[int]]:
    """The vertex triples the reads look up, cycled through."""
    rng = np.random.default_rng([seed, 3])
    return rng.integers(0, inputs.num_vertices, size=(1024, READ_VERTICES)).tolist()


class Failures:
    """Ops attempted and failed; the first few errors are kept to print."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Failed ops the serve layer refused with 429 QUEUE_FULL.
        self.rejected = 0
        self.errors: List[str] = []

    def attempt(self, fn: Callable, arg) -> bool:
        """Run ``fn(arg)``, count the outcome and say whether it succeeded."""
        self.attempted += 1
        try:
            fn(arg)
            return True
        except Exception as exc:  # any failure of the system is a failed op
            if getattr(exc, "status", None) == 429 or "-> 429" in str(exc):
                self.rejected += 1
            self.fail(repr(exc))
            return False

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


class Reader(threading.Thread):
    """Connection B: reads in a closed loop until told to stop."""

    def __init__(self, target, vertices: List[List[int]]):
        super().__init__(name="bench-reader", daemon=True)
        self.target = target
        self.vertices = vertices
        self.stop = threading.Event()
        #: ``(start, latency, error-or-None)`` of every read attempted.
        self.samples: List[Tuple[float, float, Optional[str]]] = []
        #: ``seq -> digest`` as observed; a seq seen with two digests, or a
        #: seq that goes backwards, is a torn or stale read.
        self.observed: Dict[int, str] = {}

    def run(self) -> None:
        last_seq, j = -1, 0
        while not self.stop.is_set():
            error = None
            t0 = perf_counter()
            try:
                reply = self.target.read(self.vertices[j % len(self.vertices)])
            except Exception as exc:  # any failure of the system is a failed op
                error = repr(exc)
            latency = perf_counter() - t0
            j += 1
            if error is None:
                seq, digest = reply["seq"], reply["digest"]
                if seq < last_seq or self.observed.setdefault(seq, digest) != digest:
                    error = f"torn or stale read at seq {seq}"
                last_seq = max(last_seq, seq)
            self.samples.append((t0, latency, error))

    def finish(self, failures: Failures, t_start: float, t_end: float) -> List[Tuple[float, float]]:
        """Stop; count the reads begun in ``[t_start, t_end)`` into
        ``failures`` and return ``(start, latency)`` of the good ones."""
        self.stop.set()
        self.join()
        good = []
        for start, latency, error in self.samples:
            if not t_start <= start < t_end:
                continue
            failures.attempted += 1
            if error is None:
                good.append((start, latency))
            else:
                failures.fail(error)
        return good


@dataclass
class Window:
    """What one timed window (or one prefix pass) measured."""

    writes_done: int  # including warm-up: how far into the stream we are
    #: Latencies of the ops that succeeded, in the order they were sent.
    write_lat: List[float]
    read_lat: List[float]
    wall_s: float
    cpu_s: float
    encode_s: float
    exhausted: bool
    observed: Dict[int, str]
    #: When each op of ``write_lat`` / ``read_lat`` was sent, and when the
    #: window ended (timed windows only).
    write_start: List[float] = field(default_factory=list)
    read_start: List[float] = field(default_factory=list)
    t_end: float = 0.0


def run_window(
    target, ops: Ops, vertices: List[List[int]], seconds: float, failures: Failures
) -> Window:
    """Warm up, then run the closed loop for ``seconds`` of wall clock.

    In-process targets alternate one write and ``READS_PER_WRITE`` reads on
    this thread. The daemon gets writes from this thread (connection A)
    while a :class:`Reader` loops on connection B.
    """
    reader = Reader(target, vertices) if isinstance(target, DaemonTarget) else None
    if reader is not None:
        reader.start()
    write_lat: List[float] = []
    read_lat: List[float] = []
    write_start: List[float] = []
    read_start: List[float] = []
    encode_s = 0.0
    i = 0
    try:
        deadline = perf_counter() + WARMUP_S
        while perf_counter() < deadline and i < ops.count:
            failures.attempt(target.write, target.encode(ops[i]))
            if reader is None:
                for _ in range(READS_PER_WRITE):
                    failures.attempt(target.read, vertices[i % len(vertices)])
            i += 1
        # Warm-up ops are not part of the run's failure share.
        failures.attempted = failures.failed = 0
        cpu0, t_start = cpu_seconds(target.pid), perf_counter()
        deadline = t_start + seconds
        while perf_counter() < deadline and i < ops.count:
            t0 = perf_counter()
            payload = target.encode(ops[i])
            t1 = perf_counter()
            ok = failures.attempt(target.write, payload)
            t2 = perf_counter()
            encode_s += t1 - t0
            if ok:
                write_start.append(t0)
                write_lat.append(t2 - t1)
            if reader is None:
                row = vertices[i % len(vertices)]
                for _ in range(READS_PER_WRITE):
                    t3 = perf_counter()
                    if failures.attempt(target.read, row):
                        read_start.append(t3)
                        read_lat.append(perf_counter() - t3)
            i += 1
        t_end = perf_counter()
        cpu_s = cpu_seconds(target.pid) - cpu0
    finally:
        if reader is not None:
            reader.stop.set()
    if reader is not None:
        good = reader.finish(failures, t_start, t_end)
        read_start = [start for start, _ in good]
        read_lat = [latency for _, latency in good]
    return Window(
        writes_done=i,
        write_lat=write_lat,
        read_lat=read_lat,
        wall_s=t_end - t_start,
        cpu_s=cpu_s,
        encode_s=encode_s,
        exhausted=t_end < deadline,
        observed=reader.observed if reader is not None else {},
        write_start=write_start,
        read_start=read_start,
        t_end=t_end,
    )


def run_prefix(
    target,
    ops: Ops,
    vertices: List[List[int]],
    count: int,
    failures: Failures,
    tracer: Optional[Tracer] = None,
    root: str = "client",
    reads: int = 1,
) -> Window:
    """Replay ops ``0..count`` one by one: a write, then ``reads`` reads.

    The second read of an op finds the snapshot's digest cached
    (``read_warm``); the first one pays for it.

    With a ``tracer`` every call is a root span ``<root>.write`` /
    ``<root>.read`` / ``<root>.read_warm``, so the wrapped layer boundaries
    underneath become its children.
    """

    def call(kind: str, fn: Callable, arg, latencies: Optional[List[float]]) -> None:
        span = tracer.open(f"{root}.{kind}") if tracer is not None else None
        t0 = perf_counter()
        ok = failures.attempt(fn, arg)
        latency = perf_counter() - t0
        if span is not None:
            tracer.close(span)
        if ok and latencies is not None:
            latencies.append(latency)

    write_lat: List[float] = []
    read_lat: List[float] = []
    encode_s = 0.0
    cpu0, t_start = cpu_seconds(target.pid), perf_counter()
    for i in range(count):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        payload = target.encode(ops[i])
        encode_s += perf_counter() - t0
        row = vertices[i % len(vertices)]
        call("write", target.write, payload, write_lat)
        if reads >= 1:
            call("read", target.read, row, read_lat)
        if reads >= 2:
            call("read_warm", target.read, row, None)
    return Window(
        writes_done=count,
        write_lat=write_lat,
        read_lat=read_lat,
        wall_s=perf_counter() - t_start,
        cpu_s=cpu_seconds(target.pid) - cpu0,
        encode_s=encode_s,
        exhausted=False,
        observed={},
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def expected_states(inputs: gen.Inputs, ops: Ops, writes_done: int, algorithm) -> np.ndarray:
    """The reference result on the graph the op stream should have left.

    The graph is rebuilt from the generator's own bookkeeping, not read
    back from the system, so a store that lost an edge fails the check.
    """
    rows = gen.live_rows(inputs, ops.stream, writes_done * ops.records_per_op)
    graph = DynamicGraph.from_arrays(
        inputs.u[rows], inputs.v[rows], inputs.w[rows], inputs.num_vertices
    )
    return compute_reference(algorithm, graph.snapshot())


def states_correct(algorithm, got: np.ndarray, want: np.ndarray, runs: int) -> bool:
    """Bit-equal for selective algorithms; the parity suites' drift budget
    (``tests/test_long_streams.py``: 500 thresholds per engine run) for
    accumulative ones, whose truncation error grows with every batch."""
    if algorithm.kind is not AlgorithmKind.ACCUMULATIVE:
        return bool(np.array_equal(got, want))
    budget = algorithm.propagation_threshold * 500 * (runs + 2)
    return bool(np.allclose(got, want, atol=budget, rtol=budget))


def check_session(target, inputs, ops: Ops, writes_done: int) -> Optional[str]:
    algorithm = target.session._engine.algorithm
    want = expected_states(inputs, ops, writes_done, algorithm)
    if not states_correct(algorithm, target.final_states(), want, writes_done):
        return f"final {algorithm.name} states differ from the reference"
    return None


def check_daemon(
    target: DaemonTarget, inputs, ops: Ops, writes_done: int, observed: Dict[int, str]
) -> Optional[str]:
    """Replay the daemon's applied-write log through an oracle ``Session``.

    As the torn-read checker of ``tests/test_serve.py`` does: every
    ``(seq, digest)`` a reader saw, and the final one, must equal the
    oracle's digest at that seq. The oracle's final state must also be the
    reference result for the stream this client sent.
    """
    log = target.get_json(f"/sessions/{SESSION_NAME}/log")
    final = target.read([0])
    if log["dropped"] or len(log["log"]) != writes_done or final["seq"] != writes_done:
        return (
            f"daemon applied {len(log['log'])} writes (seq {final['seq']}), "
            f"client was acknowledged {writes_done}"
        )
    observed = dict(observed)
    observed[final["seq"]] = final["digest"]
    oracle = SessionTarget(inputs, target.algorithm)
    oracle.setup()
    try:
        session = oracle.session
        for entry in log["log"]:
            payload = entry["payload"]
            if entry["kind"] == "update":
                session.apply_update(
                    int(payload["u"]), int(payload["v"]), float(payload["w"]), op=payload["op"]
                )
            else:
                session.push_updates(
                    [(int(u), int(v), float(w)) for u, v, w in payload["insertions"]],
                    [(int(u), int(v)) for u, v in payload["deletions"]],
                )
                session.run()
            seen = observed.get(entry["seq"])
            if seen is not None:
                digest = hashlib.sha1(session.read_results().tobytes()).hexdigest()
                if seen != digest:
                    return f"read at seq {entry['seq']} saw a state the oracle never had"
        return check_session(oracle, inputs, ops, writes_done)
    finally:
        oracle.close()


# ----------------------------------------------------------------------
# One workload, tracing off: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, inputs: gen.Inputs, seconds: float, seed: int) -> dict:
    wl = WORKLOADS[name]
    ops = Ops(inputs, wl, int(wl.max_ops_per_s * (seconds + WARMUP_S)))
    vertices = read_vertices(seed, inputs)
    make = DaemonTarget if wl.served else SessionTarget
    failures = Failures()
    reset_own_peak_rss()
    target = None
    try:
        # Set-up is done several times and the median reported; the last
        # one built is the one measured.
        setups: List[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            if target is not None:
                target.close()
            target = make(inputs, wl.algorithm, wl.single)
            t0 = perf_counter()
            target.setup()
            setups.append(perf_counter() - t0)
        window = run_window(target, ops, vertices, seconds, failures)
        rss = peak_rss_mb(target.pid)
        if wl.served:
            problem = check_daemon(target, inputs, ops, window.writes_done, window.observed)
        else:
            problem = check_session(target, inputs, ops, window.writes_done)
    finally:
        if target is not None:
            target.close()
        assert_nothing_left_behind()

    flags = []
    if problem is not None:
        # A wrong final state invalidates every op that led to it.
        failures.failed = failures.attempted
        flags.append(problem)
    if window.exhausted:
        flags.append("op stream ran out before the window ended")
    flags.extend(failures.errors)
    records = len(window.write_lat) * ops.records_per_op
    drift = drift_ratio(window.write_lat)
    if drift and not DRIFT_BAND[0] <= drift <= DRIFT_BAND[1]:
        flags.append(f"write_p50_ms drifted by {drift:.3f} across the window")
    write_rates = chunk_rates(window.write_start, window.t_end) * ops.records_per_op
    read_rates = chunk_rates(window.read_start, window.t_end)
    metrics = {
        "setup_s": statistics.median(setups),
        "write_records_per_s": best_decile(write_rates, "higher"),
        "write_p50_ms": best_decile(chunk_medians(window.write_lat), "lower") * 1e3,
        "reads_per_s": best_decile(read_rates, "higher"),
        "read_p50_ms": best_decile(chunk_medians(window.read_lat), "lower") * 1e3,
        "peak_rss_mb": rss,
    }
    return {
        "metrics": {key: metrics[key] for key in END_TO_END},
        "samples": {"write": len(window.write_lat), "read": len(window.read_lat)},
        "info": {
            "window_s": window.wall_s,
            # The same four over the whole window, host noise and all.
            "window.write_records_per_s": records / window.wall_s,
            "window.write_p50_ms": percentile(window.write_lat, 50) * 1e3,
            "window.reads_per_s": len(window.read_lat) / window.wall_s,
            "window.read_p50_ms": percentile(window.read_lat, 50) * 1e3,
            "gen.drift_ratio": drift,
            "cpu_ms_per_record": window.cpu_s * 1e3 / max(records, 1),
            "client.write_p90_ms": percentile(window.write_lat, 90) * 1e3,
            "client.write_p99_ms": percentile(window.write_lat, 99) * 1e3,
            "client.read_p90_ms": percentile(window.read_lat, 90) * 1e3,
            "client.encode_us": window.encode_s / max(len(window.write_lat), 1) * 1e6,
            "setup_runs_s": setups,
        },
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "correct": failures.failed == 0,
        "flags": flags,
    }


# ----------------------------------------------------------------------
# One workload, traced: the per-layer metrics
# ----------------------------------------------------------------------
def trace(name: str, inputs: gen.Inputs, seed: int, prefix: Optional[int]) -> dict:
    """Replay the fixed op prefix untraced, then traced (, then served).

    The untraced pass is the denominator of ``bench.trace_overhead_ratio``.
    For ``serve-*`` both of those passes go through an in-process
    ``ServeApp``; a third pass sends the same writes to the daemon, and the
    ``http`` layer is the difference between the daemon's round trips and
    the in-process handler times.
    """
    wl = WORKLOADS[name]
    count = prefix or wl.prefix
    ops = Ops(inputs, wl, count)
    vertices = read_vertices(seed, inputs)
    in_process = AppTarget if wl.served else SessionTarget
    failures = Failures()
    tracer = Tracer()
    run_results: list = []
    express_results: list = []
    targets: list = []
    daemon = None
    connect_ms = 0.0

    def fresh(kind):
        target = kind(inputs, wl.algorithm, wl.single)
        targets.append(target)
        target.setup()
        return target

    try:
        plain_target = fresh(in_process)
        reads = 2 if wl.served else 1
        plain = run_prefix(plain_target, ops, vertices, count, failures, reads=reads)

        traced_target = fresh(in_process)
        session = traced_target.session
        instrument_session(tracer, session, run_results, express_results)
        if wl.served:
            instrument_app(tracer, traced_target.app, traced_target.served)
        store0 = session.graph_store_stats()
        lane0 = session.express_stats()
        bytes0 = session.transfer_stats().total
        traced = run_prefix(
            traced_target, ops, vertices, count, failures, tracer=tracer, reads=reads
        )
        store1 = session.graph_store_stats()
        lane1 = session.express_stats()
        bytes1 = session.transfer_stats().total

        same = np.array_equal(plain_target.final_states(), traced_target.final_states())
        problem = None if same else "traced and untraced passes ended in different states"
        problem = problem or check_session(traced_target, inputs, ops, count)

        client = plain  # whose latencies a caller would see
        if wl.served:
            daemon = fresh(DaemonTarget)
            connect = []
            for _ in range(CONNECT_SAMPLES):
                t0 = perf_counter()
                conn = daemon.connect()
                daemon.request("GET", "/healthz", conn=conn)
                connect.append(perf_counter() - t0)
                conn.close()
            connect_ms = statistics.median(connect) * 1e3
            daemon.request_bytes = daemon.response_bytes = 0
            daemon.decode_s = 0.0
            # Same traffic shape as the timed window: writes on connection
            # A while a reader loops on connection B.
            reader = Reader(daemon, vertices)
            reader.start()
            try:
                t0 = perf_counter()
                client = run_prefix(
                    daemon, ops, vertices, count, failures, tracer=tracer, root="http", reads=0
                )
            finally:
                reader.stop.set()
            for start, latency in reader.finish(failures, t0, perf_counter()):
                tracer.record("http.read", start, start + latency)
                client.read_lat.append(latency)
            problem = problem or check_daemon(daemon, inputs, ops, count, reader.observed)
    finally:
        for target in targets:
            target.close()
        assert_nothing_left_behind()

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{name}.jsonl")
    if problem is not None:
        failures.failed = failures.attempted
        failures.errors.insert(0, problem)

    self_s = tracer.self_seconds()
    calls = tracer.calls()

    def per_write(span_name: str, scale: float) -> float:
        return self_s.get(span_name, 0.0) / count * scale

    def per_call(span_name: str, scale: float) -> float:
        return self_s.get(span_name, 0.0) / calls[span_name] * scale if calls.get(span_name) else 0.0

    def mean(values: List[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    # Coverage is judged on the in-process pass: the daemon pass's ``http.*``
    # round trips have no children, their share is computed by difference.
    root_s = sum(s.duration for s in tracer.spans if s.name.startswith("client."))
    layer_s = sum(
        s.self_s for s in tracer.spans if not s.name.startswith(("client.", "http."))
    )
    # ``serve.handle_read`` spans split by which client read caused them.
    reads = [s for s in tracer.spans if s.name == "serve.handle_read" and s.parent is not None]
    first_read = [s.self_s for s in reads if s.parent.name == "client.read"]
    warm_read = [s.self_s for s in reads if s.parent.name == "client.read_warm"]

    events = sum(r.metrics.events_processed for r in run_results)
    engine_s = self_s.get("core.engine.run_regular", 0.0) + self_s.get("core.engine.run_delete", 0.0)
    model = AcceleratorTimingModel()
    reports = [model.run_time(r.metrics, stream_records=ops.records_per_op) for r in run_results]
    serve_self = sum(
        self_s.get(n, 0.0) for n in ("serve.submit", "serve.handle_update", "serve.handle_ingest")
    )
    metrics = {
        "core.engine.run_regular_ms": per_write("core.engine.run_regular", 1e3),
        "core.engine.run_delete_ms": per_write("core.engine.run_delete", 1e3),
        "core.engine.bind_graph_ms": per_write("core.engine.bind_graph", 1e3),
        "core.engine.ns_per_event": engine_s / events * 1e9 if events else 0.0,
        "core.engine.events_processed": events,
        "core.engine.rounds": sum(len(p.rounds) for r in run_results for p in r.metrics.phases),
        "graph.dynamic.apply_batch_ms": per_write("graph.dynamic.apply_batch", 1e3),
        "graph.dynamic.snapshot_ms": per_write("graph.dynamic.snapshot", 1e3),
        "graph.dynamic.edges_spliced": store1["edges_spliced"] - store0["edges_spliced"],
        "graph.dynamic.snapshot_builds": store1["snapshot_builds"] - store0["snapshot_builds"],
        "graph.dynamic.snapshot_cache_hits": store1["snapshot_cache_hits"] - store0["snapshot_cache_hits"],
        "graph.dynamic.full_rebuilds": store1["full_rebuilds"] - store0["full_rebuilds"],
        "core.streaming.apply_batch_self_ms": per_write("core.streaming.apply_batch", 1e3),
        "core.streaming.vertices_reset": sum(r.vertices_reset for r in run_results),
        "core.fastpath.apply_us": per_write("core.fastpath.apply", 1e6),
        "core.fastpath.classify_us": mean([r.classify_s for r in express_results]) * 1e6,
        "core.fastpath.safe_ratio": mean([float(r.safe) for r in express_results]),
        "core.fastpath.fallthroughs": lane1["engine_fallthroughs"] - lane0["engine_fallthroughs"],
        "core.fastpath.resyncs": lane1["resyncs"] - lane0["resyncs"],
        "core.fastpath.edges_scanned": sum(r.edges_scanned for r in express_results),
        "host.push_updates_ms": per_write("host.push_updates", 1e3),
        "host.run_self_ms": per_write("host.run", 1e3),
        "host.apply_update_self_us": per_write("host.apply_update", 1e6),
        "host.read_results_us": per_call("host.read_results", 1e6),
        "host.bytes_transferred": bytes1 - bytes0,
        "serve.write_self_ms": serve_self / count * 1e3,
        "serve.read_first_us": mean(first_read) * 1e6,
        "serve.read_warm_us": mean(warm_read) * 1e6,
        "serve.rejected": failures.rejected,
        "http.write_self_ms": (mean(client.write_lat) - mean(plain.write_lat)) * 1e3 if daemon else 0.0,
        "http.read_self_ms": (mean(client.read_lat) - mean(plain.read_lat)) * 1e3 if daemon else 0.0,
        "http.connect_ms": connect_ms,
        "http.request_bytes": daemon.request_bytes if daemon else 0,
        "http.response_bytes": daemon.response_bytes if daemon else 0,
        "sim.cycles": sum(r.total_cycles for r in reports),
        "sim.time_ms": sum(r.time_ms for r in reports),
        "gen.input_s": inputs.input_s,
        "gen.drift_ratio": drift_ratio(client.write_lat),
        "cpu_ms_per_record": client.cpu_s * 1e3 / max(len(client.write_lat) * ops.records_per_op, 1),
        "client.encode_us": client.encode_s / count * 1e6,
        "client.decode_us": daemon.decode_s / count * 1e6 if daemon else 0.0,
        "client.write_p90_ms": percentile(client.write_lat, 90) * 1e3,
        "client.write_p99_ms": percentile(client.write_lat, 99) * 1e3,
        "client.read_p90_ms": percentile(client.read_lat, 90) * 1e3,
        "bench.trace_overhead_ratio": traced.wall_s / plain.wall_s,
        "bench.trace_coverage": layer_s / root_s if root_s else 0.0,
        "failed_share": failures.failed / max(failures.attempted, 1),
    }
    return {
        "metrics": {key: metrics[key] for key in PER_LAYER},
        "samples": {"write": len(client.write_lat), "read": len(client.read_lat)},
        "info": {"prefix_ops": count, "spans": len(tracer.spans)},
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "correct": failures.failed == 0,
        "flags": list(failures.errors),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_line(result: dict) -> dict:
    """The object BENCHMARK.json's contract wants as the last stdout line."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": UNITS[key]} for key, value in result["metrics"].items()
        },
    }


def print_result(name: str, phase: str, result: dict) -> None:
    samples = result["samples"]
    print(f"== {name} [{phase}]  attempted={result['attempted']} failed={result['failed']}")
    for key, value in {**result["metrics"], **result["info"]}.items():
        note = ""
        if "write_p" in key:
            note = f"  (n={samples['write']})"
        elif "read_p" in key:
            note = f"  (n={samples['read']})"
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:40s} {shown:>14s} {UNITS.get(key, ''):10s}{note}")
    for flag in result["flags"]:
        print(f"  FLAG: {flag}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both phases")
    parser.add_argument(
        "--prefix", type=int, help="traced-run op count (default: the workload's own)"
    )
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    phases = ["window", "traced"] if args.trace is None else [["window"], ["traced"]][args.trace]

    inputs = gen.make_inputs(args.seed)
    # The in-process workloads share this heap. Without this every full
    # collection the system triggers would also walk the benchmark's own
    # 200k input tuples, and be timed as the system's.
    gc.collect()
    gc.freeze()
    print(
        f"inputs: seed={args.seed} vertices={inputs.num_vertices} "
        f"base_edges={inputs.base.size} pool={inputs.pool.size} gen.input_s={inputs.input_s:.3f}"
    )
    results: Dict[str, dict] = {}
    for name in names:
        results[name] = {}
        for phase in phases:
            if phase == "window":
                result = measure(name, inputs, args.seconds, args.seed)
            else:
                result = trace(name, inputs, args.seed, args.prefix)
            results[name][phase] = result
            print_result(name, phase, result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "result.json").write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": results}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    if len(names) == 1 and len(phases) == 1:
        last = contract_line(results[names[0]][phases[0]])
    else:
        last = {
            name: {phase: contract_line(result) for phase, result in by_phase.items()}
            for name, by_phase in results.items()
        }
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
