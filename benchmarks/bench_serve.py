"""Many-client load test of the ``repro serve`` streaming service.

Drives a real :class:`~repro.serve.ServeServer` (loopback HTTP, one
session, SSSP/DAP on an RMAT graph) with the three traffic shapes the
service interleaves, and records the sustained rates the ROADMAP's
"millions of users" direction is tracked by:

* **serve/mixed_ingest** — several ingest clients stream pre-generated
  insert batches through ``POST /ingest`` *while* read clients hammer
  ``GET /read``. Throughput is sustained batches/s across all clients;
  the read side of the same phase reports p50/p99 latency, served from
  published immutable snapshots (reads never wait on an applying batch).
* **serve/express** — one client streams single-edge heavy-weight
  inserts through ``POST /update`` (always classified safe): sustained
  update ops/s including HTTP + queue overhead.
* **serve/mixed_read** — the mixed phase's read side: reads/s across the
  read clients.
* **serve/express_keepalive**, **serve/read_keepalive** — the same two
  shapes from a client that keeps one connection open, as real clients
  and ``benchmarks/e2e`` do. The other clients here open a connection
  per request, which cannot see a per-response stall on a persistent
  connection (the 44 ms Nagle/delayed-ACK stall never showed in this
  file). The express phase runs a second time over one connection; the
  mixed phase gains one keep-alive reader whose median round trip is
  ``read_keepalive/p50_us``.
* **serve/mixed_ingest_traced** — the mixed phase again with request
  tracing armed (a request span with stage marks per request, written to
  a JSONL trace). The phase also feeds its trace through the ``repro
  trace requests`` analyzer and records the slow-decile
  stage-attribution share and the server-side p99s.

Each shape's ``exact`` row is a request count (update records applied,
express updates, reads served), fixed by the workload configuration and
never by timing, so it stays meaningful although client interleaving
varies run to run. **serve/express/results_read_bytes** is the state the
two express phases read back to publish snapshots: 0, since a heavy
insert improves no state and its snapshot reuses the previous array.
Every rate and latency is an ``info`` row: the mixed phase's rates are
bimodal from run to run on a 2-core host, and none of them is gated.

Run and gated only by ``repro bench check --suite serve``
(``--quick`` for the small grid).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path

import http.client
import urllib.parse
import urllib.request

import numpy as np

from repro.graph import generators
from repro.obs.bench_gate import row
from repro.serve import ServeApp, ServeServer

REPO_ROOT = Path(__file__).resolve().parent.parent

ALGORITHM = "sssp"
SEED = 29
#: Far above any converged SSSP distance: inserts classify safe and
#: batches converge in O(batch) work, keeping the load shape stable.
HEAVY_WEIGHT = 1.0e9


def config(quick: bool) -> dict:
    if quick:
        return {
            "graph": "rmat-2k",
            "num_vertices": 2_048,
            "num_edges": 12_288,
            "ingest_clients": 2,
            "batches_per_client": 10,
            "batch_size": 20,
            "read_clients": 2,
            "reads_per_client": 50,
            "express_updates": 100,
        }
    return {
        "graph": "rmat-131k",
        "num_vertices": 16_384,
        "num_edges": 131_072,
        "ingest_clients": 4,
        "batches_per_client": 25,
        "batch_size": 50,
        "read_clients": 4,
        "reads_per_client": 300,
        "express_updates": 1_000,
    }


def build_edges(cfg: dict):
    return generators.ensure_reachable_core(
        generators.rmat(cfg["num_vertices"], cfg["num_edges"], seed=17),
        cfg["num_vertices"],
        seed=18,
    )


def fresh_edge_batches(cfg: dict, base_edges, client: int, count: int, size: int):
    """Deterministic per-client insert batches of globally fresh edges.

    Client ``c`` draws source vertices ``u ≡ c (mod clients)`` so no two
    clients can generate the same ``(u, v)`` pair, and each client tracks
    what it already produced — every generated edge is fresh for the
    whole run regardless of apply interleaving.
    """
    existing = {(int(u), int(v)) for u, v, _ in base_edges}
    rng = np.random.default_rng(SEED + client)
    n, clients = cfg["num_vertices"], cfg["ingest_clients"]
    batches = []
    for _ in range(count):
        batch = []
        while len(batch) < size:
            u = int(rng.integers(0, n // clients)) * clients + client
            if u >= n:
                continue
            v = int(rng.integers(0, n))
            if u == v or (u, v) in existing:
                continue
            existing.add((u, v))
            batch.append([u, v, HEAVY_WEIGHT])
        batches.append(batch)
    return batches


def fresh_single_updates(cfg: dict, base_edges, count: int):
    """Fresh heavy single-edge inserts for the express workload."""
    existing = {(int(u), int(v)) for u, v, _ in base_edges}
    rng = np.random.default_rng(SEED + 1000)
    n = cfg["num_vertices"]
    updates = []
    while len(updates) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or (u, v) in existing:
            continue
        existing.add((u, v))
        updates.append({"u": u, "v": v, "w": HEAVY_WEIGHT, "op": "insert"})
    return updates


class Client:
    """Minimal JSON-over-HTTP client against the loopback server."""

    def __init__(self, base_url: str):
        self.base = base_url

    def post(self, path: str, body: dict) -> dict:
        data = json.dumps(body).encode("utf-8")
        request = urllib.request.Request(self.base + path, data=data, method="POST")
        request.add_header("Content-Type", "application/json")
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read().decode("utf-8"))

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.base + path, timeout=120) as response:
            return json.loads(response.read().decode("utf-8"))

    def close(self) -> None:
        pass  # nothing outlives a request


class KeepAliveClient:
    """The same two calls over one persistent connection."""

    def __init__(self, base_url: str):
        url = urllib.parse.urlsplit(base_url)
        self.conn = http.client.HTTPConnection(url.hostname, url.port, timeout=120)

    def _call(self, method: str, path: str, data=None) -> dict:
        self.conn.request(method, path, body=data)
        response = self.conn.getresponse()
        raw = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> {response.status}: {raw[:200]!r}")
        return json.loads(raw.decode("utf-8"))

    def post(self, path: str, body: dict) -> dict:
        return self._call("POST", path, json.dumps(body).encode("utf-8"))

    def get(self, path: str) -> dict:
        return self._call("GET", path)

    def close(self) -> None:
        self.conn.close()


def run_mixed_phase(
    base_url: str, cfg: dict, batches_by_client, session: str = "bench"
) -> dict:
    """Concurrent ingest + read clients; returns both sides' rates."""
    # The last reader is the keep-alive one, reported on its own.
    read_latencies = [[] for _ in range(cfg["read_clients"] + 1)]
    ingest_latencies = [[] for _ in range(cfg["ingest_clients"])]
    errors = []

    def ingest_worker(client_id: int):
        client = Client(base_url)
        try:
            for batch in batches_by_client[client_id]:
                t0 = time.perf_counter()
                client.post(f"/sessions/{session}/ingest", {"insertions": batch})
                ingest_latencies[client_id].append(time.perf_counter() - t0)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(repr(exc))

    def read_worker(client_id: int):
        keepalive = client_id == cfg["read_clients"]
        client = KeepAliveClient(base_url) if keepalive else Client(base_url)
        try:
            for _ in range(cfg["reads_per_client"]):
                t0 = time.perf_counter()
                client.get(f"/sessions/{session}/read?vertices=0")
                read_latencies[client_id].append(time.perf_counter() - t0)
        except Exception as exc:  # pragma: no cover
            errors.append(repr(exc))
        finally:
            client.close()

    threads = [
        threading.Thread(target=ingest_worker, args=(c,))
        for c in range(cfg["ingest_clients"])
    ] + [
        threading.Thread(target=read_worker, args=(c,))
        for c in range(cfg["read_clients"] + 1)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"load clients failed: {errors[:3]}")

    total_batches = cfg["ingest_clients"] * cfg["batches_per_client"]
    total_records = total_batches * cfg["batch_size"]
    keepalive_latencies = read_latencies.pop()
    latencies = sorted(lat for per in read_latencies for lat in per)
    ingests = sorted(lat for per in ingest_latencies for lat in per)
    reads_total = len(latencies)
    return {
        "elapsed_s": elapsed,
        "batches": total_batches,
        "records_applied": total_records,
        "batches_per_s": total_batches / elapsed,
        "reads_total": reads_total,
        "reads_per_s": reads_total / elapsed,
        "read_p50_us": statistics.median(latencies) * 1e6,
        "read_p99_us": latencies[int(0.99 * (reads_total - 1))] * 1e6,
        "read_max_us": latencies[-1] * 1e6,
        "reads_keepalive": len(keepalive_latencies),
        "read_keepalive_p50_us": statistics.median(keepalive_latencies) * 1e6,
        "ingest_p50_us": statistics.median(ingests) * 1e6,
        "ingest_p99_us": ingests[int(0.99 * (len(ingests) - 1))] * 1e6,
    }


def run_express_phase(client, updates) -> dict:
    t0 = time.perf_counter()
    for update in updates:
        client.post("/sessions/bench/update", update)
    elapsed = time.perf_counter() - t0
    return {"updates": len(updates), "updates_per_s": len(updates) / elapsed}


def results_read_bytes(base_url: str) -> int:
    """State bytes the ``bench`` session has read back for snapshots."""
    return Client(base_url).get("/sessions/bench/stats")["transfers"]["results_read"]


def run_traced_phase(server, cfg: dict, base_edges, untraced: dict) -> dict:
    """The mixed workload again with request tracing armed.

    Runs on its own session (fresh edge pools) with a tracer on the
    server that writes every request span to a real JSONL trace, then
    feeds that trace through the ``repro trace requests`` analyzer.
    The session was created untraced, so, as in the untraced phase, its
    engine runs emit no spans: the phase prices request tracing alone.
    Reports the tracing overhead vs the untraced mixed phase and how
    closely the analyzer's server-side p99s reproduce the
    client-observed ones.
    """
    from repro.obs import JsonlSink, SlowRequestSink, Tracer, analyze_requests

    trace_path = REPO_ROOT / "BENCH_serve.trace.jsonl.tmp"
    ring = SlowRequestSink(slow_threshold_s=0.050)
    tracer = Tracer([JsonlSink(str(trace_path)), ring])
    accelerator = server.app.accelerator
    untraced_tracer, accelerator.tracer = accelerator.tracer, tracer
    try:
        batches_by_client = [
            fresh_edge_batches(
                cfg, base_edges, c, cfg["batches_per_client"], cfg["batch_size"]
            )
            for c in range(cfg["ingest_clients"])
        ]
        traced = run_mixed_phase(
            server.url, cfg, batches_by_client, session="bench-traced"
        )
        # A request span ends after its response bytes go out: wait for
        # every client-acknowledged request to end before closing.
        expected = (
            cfg["ingest_clients"] * cfg["batches_per_client"]
            + (cfg["read_clients"] + 1) * cfg["reads_per_client"]
        )
        deadline = time.monotonic() + 5.0
        while ring.requests < expected and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        accelerator.tracer = untraced_tracer
        tracer.close()  # flushes and closes the trace
    analysis = analyze_requests(str(trace_path))
    trace_path.unlink()

    def route_p99_us(route: str) -> float:
        rows = [r for r in analysis["routes"] if r["route"] == route]
        return rows[0]["p99_ms"] * 1e3 if rows else 0.0

    # Analyzer-reconstructed p99s (server recv→respond) over the
    # client-observed ones. The gap is loopback HTTP + client stack:
    # negligible for multi-ms ingest batches, dominant for microsecond
    # snapshot reads.
    traced.update(
        overhead=1.0 - traced["batches_per_s"] / untraced["batches_per_s"],
        schema_errors=len(analysis["errors"]),
        attribution_min_share=analysis["attribution"]["min_share"],
        read_p99_ratio=route_p99_us("read") / traced["read_p99_us"],
        ingest_p99_ratio=route_p99_us("ingest") / traced["ingest_p99_us"],
    )
    return traced


def collect(quick: bool) -> dict:
    cfg = config(quick)
    base_edges = build_edges(cfg)
    app = ServeApp(queue_bound=256)
    server = ServeServer(app, port=0).start()
    try:
        edges = [(int(u), int(v), float(w)) for u, v, w in base_edges]
        app.create_session(edges, ALGORITHM, name="bench", source=0)
        batches_by_client = [
            fresh_edge_batches(
                cfg, base_edges, c, cfg["batches_per_client"], cfg["batch_size"]
            )
            for c in range(cfg["ingest_clients"])
        ]
        mixed = run_mixed_phase(server.url, cfg, batches_by_client)
        # Back-to-back with the untraced phase (and before the express
        # load perturbs the process) so the overhead number is a fair
        # tracing-on vs tracing-off comparison.
        app.create_session(edges, ALGORITHM, name="bench-traced", source=0)
        traced = run_traced_phase(server, cfg, base_edges, mixed)
        updates = fresh_single_updates(
            cfg, base_edges, 2 * cfg["express_updates"]
        )
        results_read = results_read_bytes(server.url)
        express = run_express_phase(
            Client(server.url), updates[: cfg["express_updates"]]
        )
        keepalive_client = KeepAliveClient(server.url)
        try:
            keepalive = run_express_phase(
                keepalive_client, updates[cfg["express_updates"] :]
            )
        finally:
            keepalive_client.close()
        results_read = results_read_bytes(server.url) - results_read
    finally:
        server.stop()
    rows = [
        row("mixed_ingest", "exact", mixed["records_applied"]),
        row("mixed_read", "exact", mixed["reads_total"]),
        row("read_keepalive", "exact", mixed["reads_keepalive"]),
        row("express", "exact", express["updates"]),
        row("express_keepalive", "exact", keepalive["updates"]),
        row("express/results_read_bytes", "exact", results_read),
        row("mixed_ingest_traced", "exact", traced["records_applied"]),
        row("mixed_ingest/batches_per_s", "info", mixed["batches_per_s"]),
        row("mixed_ingest/p50_us", "info", mixed["ingest_p50_us"]),
        row("mixed_read/reads_per_s", "info", mixed["reads_per_s"]),
        row("mixed_read/p50_us", "info", mixed["read_p50_us"]),
        row("mixed_read/p99_us", "info", mixed["read_p99_us"]),
        row("read_keepalive/p50_us", "info", mixed["read_keepalive_p50_us"]),
        row("express/updates_per_s", "info", express["updates_per_s"]),
        row("express_keepalive/updates_per_s", "info", keepalive["updates_per_s"]),
    ]
    rows += [
        row(f"mixed_ingest_traced/{name}", "info", traced[name])
        for name in (
            "batches_per_s",
            "overhead",
            "schema_errors",
            "attribution_min_share",
            "read_p99_ratio",
            "ingest_p99_ratio",
        )
    ]
    return {"suite": "serve", "quick": quick, "rows": rows}
