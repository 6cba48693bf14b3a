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
* **serve/read** — the mixed phase's read side as its own gated row:
  reads/s across the read clients.
* **serve/express_keepalive**, **serve/read_keepalive** — the same two
  shapes from a client that keeps one connection open, as real clients
  and ``benchmarks/e2e`` do. The other clients here open a connection
  per request, which cannot see a per-response stall on a persistent
  connection (the 44 ms Nagle/delayed-ACK stall never showed in this
  file). The express phase runs a second time over one connection; the
  mixed phase gains one keep-alive reader whose median round trip is
  ``read_keepalive_p50_us``.
* **serve/mixed_traced** — the mixed phase again with request tracing
  armed (a request span with stage marks per request, written to a JSONL
  trace): the gated row is the traced ingest rate, so a tracing-overhead
  regression trips the gate like any other slowdown. The phase also
  feeds its trace through the ``repro trace requests`` analyzer and
  records the slow-decile stage-attribution share and the server-side
  read p99.

The regression-gate ``events`` column uses exact request counts (update
records applied, express updates, reads served) — all fixed by the
workload configuration, never by timing — so the determinism check
stays meaningful even though client interleaving varies run to run.

Usable two ways:

* ``python benchmarks/bench_serve.py`` — standalone, writes
  ``BENCH_serve.json`` at the repo root. ``REPRO_BENCH_QUICK=1`` shrinks
  the graph and request counts for CI smoke runs.
* ``repro bench check --suite serve`` — re-runs :func:`collect` and
  gates rates and exact request counts against the committed baseline.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import http.client
import urllib.parse
import urllib.request

import numpy as np

from repro.graph import generators
from repro.serve import ServeApp, ServeServer

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serve.json"

ALGORITHM = "sssp"
SEED = 29
#: Far above any converged SSSP distance: inserts classify safe and
#: batches converge in O(batch) work, keeping the load shape stable.
HEAVY_WEIGHT = 1.0e9


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


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
    safe = 0
    t0 = time.perf_counter()
    for update in updates:
        reply = client.post("/sessions/bench/update", update)
        safe += int(reply["safe"])
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": elapsed,
        "updates": len(updates),
        "updates_per_s": len(updates) / elapsed,
        "safe": safe,
    }


def run_traced_phase(server, cfg: dict, base_edges, untraced: dict) -> dict:
    """The mixed workload again with request tracing armed.

    Runs on its own session (fresh edge pools) with a tracer on the
    server that writes every request span to a real JSONL trace, then
    feeds that trace through the ``repro trace requests`` analyzer.
    The session was created untraced, so, as in the untraced phase, its
    engine runs emit no spans: the phase prices request tracing alone.
    Reports the tracing overhead vs the untraced mixed phase and how
    closely the analyzer's server-side read p99 reproduces the
    client-observed one — the two acceptance numbers of the
    request-tracing layer.
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

    def ratio(server_us: float, client_us: float) -> float:
        return server_us / client_us if client_us > 0 else 0.0

    server_read_p99 = route_p99_us("read")
    server_ingest_p99 = route_p99_us("ingest")
    traced.update(
        overhead=1.0 - traced["batches_per_s"] / untraced["batches_per_s"],
        analyzer={
            "requests": analysis["requests"],
            "schema_errors": len(analysis["errors"]),
            "attribution": analysis["attribution"],
            "routes": analysis["routes"],
        },
        # Analyzer-reconstructed p99s (server recv→respond) over the
        # client-observed ones. The gap is loopback HTTP + client stack:
        # negligible for multi-ms ingest batches (the acceptance ratio),
        # dominant for microsecond snapshot reads.
        server_read_p99_us=server_read_p99,
        read_p99_ratio=ratio(server_read_p99, traced["read_p99_us"]),
        server_ingest_p99_us=server_ingest_p99,
        ingest_p99_ratio=ratio(server_ingest_p99, traced["ingest_p99_us"]),
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
        express = run_express_phase(
            Client(server.url), updates[: cfg["express_updates"]]
        )
        keepalive_client = KeepAliveClient(server.url)
        try:
            express_keepalive = run_express_phase(
                keepalive_client, updates[cfg["express_updates"] :]
            )
        finally:
            keepalive_client.close()
        stats = Client(server.url).get("/sessions/bench/stats")
    finally:
        server.stop()
    return {
        "format": "repro-serve-bench",
        "version": 1,
        "quick": quick,
        "config": cfg,
        "results": {
            "mixed": mixed,
            "express": express,
            "express_keepalive": express_keepalive,
            "mixed_traced": traced,
        },
        "final_stats": stats,
    }


def render(report: dict) -> str:
    mixed = report["results"]["mixed"]
    express = report["results"]["express"]
    keepalive = report["results"]["express_keepalive"]
    cfg = report["config"]
    lines = [
        f"serve load test — {cfg['graph']}, {cfg['ingest_clients']} ingest + "
        f"{cfg['read_clients']} read clients",
        f"  mixed ingest : {mixed['batches_per_s']:>8.1f} batches/s "
        f"({mixed['records_applied']} records in {mixed['elapsed_s']:.2f} s)",
        f"  mixed reads  : {mixed['reads_per_s']:>8.1f} reads/s   "
        f"p50 {mixed['read_p50_us']:.0f} us  p99 {mixed['read_p99_us']:.0f} us",
        f"  express      : {express['updates_per_s']:>8.1f} updates/s "
        f"({express['safe']}/{express['updates']} safe)",
        f"  keep-alive   : {keepalive['updates_per_s']:>8.1f} updates/s   "
        f"read p50 {mixed['read_keepalive_p50_us']:.0f} us (one connection)",
    ]
    traced = report["results"].get("mixed_traced")
    if traced:
        attribution = traced["analyzer"]["attribution"]
        lines.append(
            f"  traced ingest: {traced['batches_per_s']:>8.1f} batches/s "
            f"({traced['overhead'] * 100:+.1f}% vs untraced), "
            f"{traced['analyzer']['requests']} requests logged, "
            f"slow-decile attribution {attribution['min_share'] * 100:.1f}% min"
        )
        lines.append(
            f"  traced p99   : ingest server {traced['server_ingest_p99_us']:.0f} "
            f"vs client {traced['ingest_p99_us']:.0f} us "
            f"(ratio {traced['ingest_p99_ratio']:.2f}); read server "
            f"{traced['server_read_p99_us']:.0f} vs client "
            f"{traced['read_p99_us']:.0f} us (ratio {traced['read_p99_ratio']:.2f})"
        )
    return "\n".join(lines)


def main() -> int:
    quick = quick_mode()
    report = collect(quick)
    print(render(report))
    if not quick:
        OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nreport written to {OUTPUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
