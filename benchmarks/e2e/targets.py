"""The three ways the benchmark drives the system under test.

* :class:`SessionTarget` — the in-process host API (``repro.host.Session``).
* :class:`AppTarget` — an in-process ``ServeApp`` with no sockets; only the
  traced run uses it, to see the serve layer's spans.
* :class:`DaemonTarget` — a ``repro serve --port 0`` subprocess launched
  with default flags, driven over two keep-alive HTTP connections.

All three expose ``setup() / encode(op) / write(payload) / read(vertices) /
close()``. An *op* is ``(row, is_insert)`` when a serve target was built
with ``single=True`` and ``(insert_rows, delete_rows)`` otherwise, in
universe rows of :class:`gen.Inputs`. ``write`` and ``read`` raise on any
failure.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from repro.core.shm import leaked_system_segments
from repro.host import Accelerator
from repro.serve import ServeApp

REPO_ROOT = Path(__file__).resolve().parents[2]
SESSION_NAME = "bench"
SOURCE = 0
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0


def stat_fields(pid) -> List[str]:
    """``/proc/<pid>/stat`` after the parenthesised command: field 0 is
    the state, 1 the parent pid, 11 and 12 user and system ticks."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
        return stat.read().rsplit(")", 1)[1].split()


def surviving_children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(stat_fields(entry)[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we were looking
        if ppid == me:
            children.append(int(entry))
    return children


def assert_nothing_left_behind() -> None:
    """No child process and no shared-memory segment outlives a workload."""
    children = surviving_children()
    if children:
        raise RuntimeError(f"child processes survived: {children}")
    leaked = leaked_system_segments()
    if leaked:
        raise RuntimeError(f"shared-memory segments leaked: {leaked}")


class SessionTarget:
    """In-process ``Session``: the caller is the system's own process.

    Its ops are batches; ``single`` is taken so that the three targets are
    built alike (the daemon check replays single updates through
    ``session`` itself).
    """

    def __init__(self, inputs, algorithm: str, single: bool = False):
        self.inputs = inputs
        self.algorithm = algorithm
        self.pid = os.getpid()
        self.session = None

    def setup(self) -> None:
        session = Accelerator().load_graph(
            self.inputs.base_edges, num_vertices=self.inputs.num_vertices
        )
        session.configure(self.algorithm, source=SOURCE)
        session.run()
        self.session = session

    def encode(self, op):
        return self.inputs.edge_tuples(op[0]), self.inputs.key_tuples(op[1])

    def write(self, payload) -> None:
        self.session.push_updates(*payload)
        self.session.run()

    def read(self, vertices: List[int]) -> List[float]:
        states = self.session.read_results()
        return [float(states[v]) for v in vertices]

    def final_states(self):
        return self.session.read_results()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def serve_payload(inputs, op, single: bool) -> dict:
    """The JSON body of ``POST /update`` (single) or ``POST /ingest`` (batch)."""
    if single:
        row, insert = op
        return {
            "u": int(inputs.u[row]),
            "v": int(inputs.v[row]),
            "w": float(inputs.w[row]),
            "op": "insert" if insert else "delete",
        }
    ins, dels = op
    return {
        "insertions": [list(edge) for edge in inputs.edge_tuples(ins)],
        "deletions": [list(key) for key in inputs.key_tuples(dels)],
    }


class AppTarget:
    """In-process ``ServeApp``: the serve layer without HTTP."""

    def __init__(self, inputs, algorithm: str, single: bool):
        self.inputs = inputs
        self.algorithm = algorithm
        self.single = single
        self.pid = os.getpid()
        self.app: Optional[ServeApp] = None
        self.served = None

    def setup(self) -> None:
        self.app = ServeApp()
        self.served = self.app.create_session(
            self.inputs.base_edges,
            self.algorithm,
            name=SESSION_NAME,
            source=SOURCE,
            num_vertices=self.inputs.num_vertices,
        )

    @property
    def session(self):
        return self.served.session

    def encode(self, op) -> dict:
        return serve_payload(self.inputs, op, self.single)

    def write(self, payload: dict) -> dict:
        if self.single:
            return self.app.handle_update(SESSION_NAME, payload)
        return self.app.handle_ingest(SESSION_NAME, payload)

    def read(self, vertices: List[int]) -> dict:
        return self.app.handle_read(SESSION_NAME, vertices)

    def final_states(self):
        return self.served.read_snapshot().states

    def close(self) -> None:
        if self.app is not None:
            self.app.close()
            self.app = None


class DaemonTarget:
    """A ``repro serve`` subprocess and the client's two connections."""

    def __init__(self, inputs, algorithm: str, single: bool):
        self.inputs = inputs
        self.algorithm = algorithm
        self.single = single
        self.proc: Optional[subprocess.Popen] = None
        self.pid = -1
        self.port = -1
        self._write_conn: Optional[http.client.HTTPConnection] = None
        self._read_conn: Optional[http.client.HTTPConnection] = None
        self.request_bytes = 0
        self.response_bytes = 0
        #: Seconds spent JSON-decoding write responses (client.decode_us).
        self.decode_s = 0.0

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + os.pathsep + inherited if inherited else src
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.pid = self.proc.pid
        # readline() has no timeout: a watchdog kills a daemon that never
        # announces its port, which ends the read with EOF.
        watchdog = threading.Timer(DAEMON_START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            while True:
                line = self.proc.stderr.readline()
                if not line:
                    raise RuntimeError("repro serve exited before listening")
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    break
        finally:
            watchdog.cancel()
        self._write_conn = self.connect()
        self._read_conn = self.connect()
        body = json.dumps(
            {
                "name": SESSION_NAME,
                "algorithm": self.algorithm,
                "source": SOURCE,
                "num_vertices": self.inputs.num_vertices,
                "edges": self.inputs.base_edges,
            }
        ).encode("utf-8")
        self.request("POST", "/sessions", body, expect=201)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120.0)

    def close(self) -> None:
        """``POST /shutdown``, wait for exit, kill on timeout."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None and self.port > 0:
                try:
                    conn = self.connect()
                    conn.request("POST", "/shutdown")
                    conn.getresponse().read()
                    conn.close()
                except (OSError, http.client.HTTPException):
                    pass  # unreachable daemon: the kill below still runs
            try:
                proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stderr.close()
            for conn in (self._write_conn, self._read_conn):
                if conn is not None:
                    conn.close()

    # -- requests ------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        conn: Optional[http.client.HTTPConnection] = None,
        expect: int = 200,
    ) -> bytes:
        conn = conn or self._write_conn
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.status != expect:
            raise RuntimeError(f"{method} {path} -> {response.status}: {raw[:200]!r}")
        return raw

    def get_json(self, path: str) -> dict:
        return json.loads(self.request("GET", path))

    def encode(self, op) -> bytes:
        return json.dumps(serve_payload(self.inputs, op, self.single)).encode("utf-8")

    def write(self, payload: bytes) -> dict:
        route = "update" if self.single else "ingest"
        raw = self.request("POST", f"/sessions/{SESSION_NAME}/{route}", payload)
        self.request_bytes += len(payload)
        self.response_bytes += len(raw)
        t0 = perf_counter()
        reply = json.loads(raw)
        self.decode_s += perf_counter() - t0
        return reply

    def read(self, vertices: List[int]) -> dict:
        query = ",".join(str(v) for v in vertices)
        raw = self.request(
            "GET",
            f"/sessions/{SESSION_NAME}/read?vertices={query}",
            conn=self._read_conn,
        )
        self.response_bytes += len(raw)
        return json.loads(raw)
