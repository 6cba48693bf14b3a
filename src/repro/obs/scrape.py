"""Live metrics scrape endpoint (stdlib ``http.server``).

Serves the process-wide :data:`~repro.obs.metrics.REGISTRY` (or any
registry handed in) while a run executes:

* ``GET /metrics``      — Prometheus text exposition (format 0.0.4);
* ``GET /metrics.json`` — the JSON snapshot (``repro-metrics`` v1).

The server runs a :class:`~http.server.ThreadingHTTPServer` on a daemon
thread, so scrapes never block the engines — each request takes the
registry lock only long enough to copy a snapshot. Activated by
``repro query|stream --metrics-port N`` (port 0 picks a free port;
:attr:`MetricsServer.port` reports the bound one).

The route table, the disconnect-tolerant response writer and the
transport settings are exposed as :func:`metrics_payload`,
:func:`send_payload` and :class:`PayloadHandler` so other stdlib HTTP
hosts (the ``repro serve`` service) can mount the same ``/metrics``
endpoints on their own server instead of running a second one.

Transport
---------
A response leaves as **one** socket write: :class:`PayloadHandler` gives
the handler a buffered ``wfile``, :func:`send_payload` puts status line,
headers and body into it and flushes once, and accepted sockets have
``TCP_NODELAY`` set. With the stdlib default (``wbufsize = 0``) headers
and body are two ``send`` calls; on a keep-alive connection Nagle holds
the second until the client ACKs the first, and the client's delayed ACK
arrives ~40 ms later — every response then costs 44 ms however little
work it took.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsServer", "PayloadHandler", "metrics_payload", "send_payload"]

PROMETHEUS_CTYPE = "text/plain; version=0.0.4; charset=utf-8"


def metrics_payload(
    registry: MetricsRegistry, path: str
) -> Optional[Tuple[str, bytes]]:
    """Resolve a metrics route to ``(content_type, body)``.

    Returns ``None`` for paths the metrics endpoint does not own, so a
    host server can fall through to its own routes.
    """
    if path in ("/metrics", "/"):
        return PROMETHEUS_CTYPE, registry.to_prometheus().encode("utf-8")
    if path == "/metrics.json":
        body = json.dumps(registry.snapshot(), indent=2) + "\n"
        return "application/json", body.encode("utf-8")
    return None


def send_payload(
    handler: BaseHTTPRequestHandler,
    status: int,
    ctype: str,
    body: bytes,
    head_only: bool = False,
) -> bool:
    """Write one complete HTTP response, tolerating client disconnects.

    Headers and body go into the handler's buffered ``wfile`` and reach
    the socket in the single flush below (see the module docstring), so
    returning means the whole response was handed to the kernel.

    Scrapers and load balancers routinely drop the connection mid-write
    (timeouts, shutdown races); with a plain handler that surfaces as an
    unhandled ``BrokenPipeError``/``ConnectionResetError`` traceback per
    request on a long-running host. Returns ``False`` when the client
    went away, ``True`` on a complete write.
    """
    try:
        handler.send_response(status)
        handler.send_header("Content-Type", ctype)
        handler.send_header("Content-Length", str(len(body)))
        if handler.close_connection:
            # The connection ends after this response (the client asked,
            # or the request's framing was unreadable): say so.
            handler.send_header("Connection", "close")
        handler.end_headers()
        if not head_only:
            handler.wfile.write(body)
        handler.wfile.flush()
    except (BrokenPipeError, ConnectionResetError, TimeoutError):
        handler.close_connection = True
        return False
    return True


class PayloadHandler(BaseHTTPRequestHandler):
    """Transport settings of every HTTP response this repo serves.

    Persistent connections, a ``wfile`` buffer that holds a whole
    response (64 KiB is also loopback's segment size; a larger body
    follows its headers as further writes, which ``TCP_NODELAY`` does not
    delay), and no Nagle on accepted sockets. All responses go through
    :func:`send_payload`, which always sends a ``Content-Length``.
    """

    protocol_version = "HTTP/1.1"
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    def handle_expect_100(self) -> bool:
        # The interim response must not wait in the buffer: the client
        # sends its body only after seeing it.
        proceed = super().handle_expect_100()
        self.wfile.flush()
        return proceed

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass


class _Handler(PayloadHandler):
    registry: MetricsRegistry  # set on the per-server subclass

    def _respond(self, head_only: bool) -> None:
        path = self.path.split("?", 1)[0]
        payload = metrics_payload(self.registry, path)
        if payload is None:
            body = b"unknown path (try /metrics)\n"
            send_payload(self, 404, "text/plain", body, head_only)
            return
        ctype, body = payload
        send_payload(self, 200, ctype, body, head_only)

    def do_GET(self):  # noqa: N802 (http.server API)
        self._respond(head_only=False)

    def do_HEAD(self):  # noqa: N802 (http.server API)
        self._respond(head_only=True)


class MetricsServer:
    """Background HTTP server exposing one registry's metrics.

    Usage::

        with MetricsServer(REGISTRY, port=9102) as server:
            print("scrape at", server.url)
            ...  # run the workload

    ``start``/``stop`` are also available for explicit lifecycle control;
    both are idempotent.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        self.registry = registry
        self.host = host
        self._requested_port = port
        self._bound_port: Optional[int] = None
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0``; survives :meth:`stop`).

        Before the first :meth:`start` this is the requested port; after
        a start it is the actually bound one, and it stays valid after
        ``stop()`` so late log lines / test assertions don't read a stale
        ``0`` back.
        """
        if self._server is not None:
            return self._server.server_address[1]
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    @property
    def url(self) -> str:
        """The scrape URL of the Prometheus endpoint."""
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        if self._server is not None:
            return self
        handler = type("_BoundHandler", (_Handler,), {"registry": self.registry})
        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._bound_port = self._server.server_address[1]
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
