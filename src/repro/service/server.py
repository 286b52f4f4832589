"""The HTTP layer: :class:`ConflictService` and its request handler.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` accepts
connections (one cheap handler thread each, HTTP/1.1 keep-alive so a
client pays connection setup once), the handler parses/validates, and
every *decision* route runs on that handler thread once the
:class:`~repro.service.admission.AdmissionController` admits it, which
bounds how many decide at once and how many wait.  ``GET /healthz`` and
``GET /metrics`` skip admission: they must keep working precisely when
the queue is full.
They are still instrumented (their own ``service.requests_total`` route
label and a ``service.http`` span), and ``/metrics`` responses are
size-capped — inline must never mean invisible or unbounded.

Every request carries a **request id**: client-supplied via the
``X-Request-Id`` header (or a ``request_id`` body field), else minted by
the server.  The id is echoed in the ``X-Request-Id`` response header
and the JSON body, bound as the thread's tracing request context for the
duration of handling (so every span — including those from the
decision and from batch pool processes — carries it), stamped into the
access log, and appended to degraded-verdict notes.

``GET /metrics`` is content-negotiated: the default stays the JSON
snapshot shape this repo's own tooling reads, while ``Accept:
text/plain`` (or ``application/openmetrics-text``) yields Prometheus
text exposition 0.0.4 rendered from the very same registry snapshot —
the p50/p95/p99 a dashboard computes are the ones ``repro report`` and
``bench_serve.py`` compute.

With ``access_log_path`` set (``repro serve --access-log``), every
request appends one JSONL record: id, route, status, verdict, cache
hit/miss, queue wait, execution and total timings, and outcome.

Status codes are part of the API contract (``docs/SERVICE.md``):

====== =========================================================
200    decided — including *degraded* verdicts (``"unknown"`` with
       a ``reason``); a blown deadline is an answer, not an error
400    malformed body / spec / parameters
404    unknown path, 405 wrong method, 413 oversized body
429    admission queue full (overload; retry with backoff)
503    draining — the server is finishing admitted work and exiting
====== =========================================================

Drain (:meth:`ConflictService.drain`, wired to SIGTERM by ``repro
serve``) is ordered so that no admitted request is ever lost: admission
closes (new work → 503) → every in-flight request, admitted decisions
included, has its response written → the listener stops → a final cache
snapshot is written.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    ReproError,
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
    ServiceProtocolError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.sinks import JsonlSink
from repro.obs.trace import request_context, span
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.protocol import mint_request_id, normalize_request_id
from repro.service.state import ServiceState

__all__ = ["ConflictService"]


class _ServiceHTTPServer(ThreadingHTTPServer):
    # Handler threads must never block process exit (an idle keep-alive
    # connection would otherwise pin shutdown for its socket timeout);
    # response completeness on drain is guaranteed by the service's own
    # in-flight tracking, not by joining handler threads.
    daemon_threads = True
    block_on_close = False

    service: "ConflictService"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1.0"
    # Headers and body go out as separate writes; without TCP_NODELAY,
    # Nagle + delayed ACK turns every keep-alive round-trip into ~40ms.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        if self.path == "/healthz":
            self._serve_introspection("healthz")
        elif self.path == "/metrics":
            self._serve_introspection("metrics")
        elif self.path in _POST_ROUTES:
            self._send(405, {"error": f"{self.path} requires POST"})
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def _serve_introspection(self, route: str) -> None:
        """``/healthz`` and ``/metrics``: inline, but instrumented.

        These routes bypass admission by design (they must answer while
        the queue is full), which historically also meant they bypassed
        telemetry entirely — no counter, no span, no access-log record.
        A scrape storm was invisible to the thing being scraped.
        """
        service = self.server.service
        started = time.perf_counter()
        try:
            request_id = normalize_request_id(
                self.headers.get("X-Request-Id")
            )
        except ServiceProtocolError as exc:
            self._send(400, {"error": str(exc)})
            return
        service.state.registry.inc("service.requests_total", route=route)
        status = 200
        with request_context(request_id):
            with span("service.http", route=route, method="GET") as sp:
                if route == "healthz":
                    self._send(
                        200,
                        service.state.health(draining=service.draining),
                        request_id=request_id,
                    )
                else:
                    status = self._send_metrics(request_id)
                sp.set("status", status)
        total_ms = (time.perf_counter() - started) * 1000.0
        service.state.registry.observe(
            "service.request_ms", total_ms, route=route
        )
        service.log_access(
            {
                "type": "access",
                "ts": time.time(),
                "request_id": request_id,
                "method": "GET",
                "route": route,
                "status": status,
                "total_ms": total_ms,
                "outcome": "ok" if status < 400 else "error",
            }
        )

    def _send_metrics(self, request_id: str | None) -> int:
        """``GET /metrics`` with content negotiation and a size cap."""
        service = self.server.service
        snapshot = service.state.metrics_snapshot()
        cap = service.config.max_metrics_bytes
        accept = self.headers.get("Accept", "")
        if "text/plain" in accept or "openmetrics" in accept:
            gauges = dict(snapshot.get("gauges", {}))
            # The JSON form's top-level convenience fields become plain
            # gauges in the exposition — scrapers have no "extra keys".
            gauges["service.uptime_s"] = snapshot.get("uptime_s", 0.0)
            gauges["service.cache_entries"] = snapshot.get("cache_entries", 0)
            body = render_prometheus(
                {
                    "counters": snapshot.get("counters", {}),
                    "gauges": gauges,
                    "histograms": snapshot.get("histograms", {}),
                }
            ).encode("utf-8")
            if len(body) > cap:
                cut = body[:cap].rfind(b"\n")
                body = (
                    body[: cut + 1]
                    + b"# repro: exposition truncated at max_metrics_bytes\n"
                )
            self._send_raw(
                200, body, PROMETHEUS_CONTENT_TYPE, request_id=request_id
            )
            return 200
        body = json.dumps(snapshot).encode("utf-8")
        if len(body) > cap:
            self._send(
                500,
                {
                    "error": (
                        "metrics snapshot exceeds max_metrics_bytes "
                        f"({cap}); scrape the Prometheus form or raise the cap"
                    )
                },
                request_id=request_id,
            )
            return 500
        self._send_raw(200, body, "application/json", request_id=request_id)
        return 200

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        route = _POST_ROUTES.get(self.path)
        if route is None:
            if self.path in ("/healthz", "/metrics"):
                self._send(405, {"error": f"{self.path} requires GET"})
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        started = time.perf_counter()
        payload = self._read_json()
        if payload is None:
            return  # error response already sent
        try:
            request_id = normalize_request_id(
                self.headers.get("X-Request-Id") or payload.get("request_id")
            )
        except ServiceProtocolError as exc:
            self._send(400, {"error": str(exc)})
            return
        if request_id is None:
            request_id = mint_request_id()
        service.state.registry.inc("service.requests_total", route=route)
        service.begin_request()
        status = 200
        outcome = "ok"
        result: dict | None = None
        timings: dict[str, float] = {}
        try:
            with request_context(request_id):
                with span("service.http", route=route, method="POST") as sp:
                    try:
                        handler = getattr(service.state, route)
                        result = service.admission.run(
                            lambda: handler(payload, request_id=request_id),
                            timings,
                        )
                        self._send(200, result, request_id=request_id)
                    except ServiceOverloaded as exc:
                        status, outcome = 429, "overloaded"
                        self._send(
                            429,
                            {"error": str(exc), "request_id": request_id},
                            retry_after=True,
                            request_id=request_id,
                        )
                    except ServiceDraining as exc:
                        status, outcome = 503, "draining"
                        self._send(
                            503,
                            {"error": str(exc), "request_id": request_id},
                            request_id=request_id,
                        )
                    except ServiceProtocolError as exc:
                        status, outcome = 400, "bad_request"
                        self._send(
                            400,
                            {"error": str(exc), "request_id": request_id},
                            request_id=request_id,
                        )
                    except ReproError as exc:
                        # Bad operands (XPath syntax, illegal delete-at-
                        # root, ...) are the client's error even though
                        # the engine raised them.
                        status, outcome = 400, "bad_request"
                        self._send(
                            400,
                            {"error": str(exc), "request_id": request_id},
                            request_id=request_id,
                        )
                    sp.set("status", status)
        finally:
            total_ms = (time.perf_counter() - started) * 1000.0
            service.state.registry.observe(
                "service.request_ms", total_ms, route=route
            )
            record = {
                "type": "access",
                "ts": time.time(),
                "request_id": request_id,
                "method": "POST",
                "route": route,
                "status": status,
                "total_ms": total_ms,
                "outcome": outcome,
            }
            if isinstance(result, dict):
                record["verdict"] = result.get("verdict")
                record["cached"] = result.get("cached")
                record["reason"] = result.get("reason")
                record["degraded"] = bool(result.get("degraded"))
            record.update(timings)
            service.log_access(record)
            service.end_request()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _read_json(self) -> dict | None:
        service = self.server.service
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            self._send(411, {"error": "Content-Length required"})
            return None
        if length > service.config.max_body_bytes:
            self._send(
                413,
                {"error": f"body exceeds {service.config.max_body_bytes} bytes"},
            )
            return None
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            self._send(400, {"error": f"body is not valid JSON: {exc}"})
            return None
        if not isinstance(payload, dict):
            self._send(400, {"error": "body must be a JSON object"})
            return None
        return payload

    def _send(
        self,
        status: int,
        payload: dict,
        retry_after: bool = False,
        request_id: str | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        if retry_after:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def _send_raw(
        self,
        status: int,
        body: bytes,
        content_type: str,
        request_id: str | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(body)

    def setup(self) -> None:
        super().setup()
        # Bounds how long an idle keep-alive connection pins its handler
        # thread (they are daemonic, so this is hygiene, not liveness).
        self.connection.settimeout(self.server.service.config.request_timeout_s)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.service.config.log_requests:
            super().log_message(format, *args)


_POST_ROUTES = {
    "/v1/check": "check",
    "/v1/matrix": "matrix",
    "/v1/schedule": "schedule",
}


class ConflictService:
    """The daemon: HTTP front, admission control, warm state, drain.

    Lifecycle::

        service = ConflictService(ServiceConfig(port=0))
        service.start()              # bind + snapshot timer
        service.serve_forever()      # blocks (or start_background())
        ...
        service.drain()              # SIGTERM path; idempotent

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self, config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.state = ServiceState(self.config, registry)
        self.admission = AdmissionController(
            self.config.workers, self.config.queue_depth, self.state.registry
        )
        self._httpd: _ServiceHTTPServer | None = None
        self._snapshot_stop = threading.Event()
        self._snapshot_thread: threading.Thread | None = None
        self._serve_thread: threading.Thread | None = None
        self._drain_lock = threading.Lock()
        self._drained = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._access_sink: JsonlSink | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start the snapshot timer."""
        if self._httpd is not None:
            raise ServiceError("service already started")
        httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        httpd.service = self
        self._httpd = httpd
        if self.config.access_log_path:
            self._access_sink = JsonlSink(self.config.access_log_path)
        if self.config.cache_path:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop,
                name="repro-service-snapshot",
                daemon=True,
            )
            self._snapshot_thread.start()

    def serve_forever(self) -> None:
        """Accept requests until :meth:`drain` (blocking)."""
        if self._httpd is None:
            raise ServiceError("call start() before serve_forever()")
        self._httpd.serve_forever(poll_interval=0.1)

    def start_background(self) -> threading.Thread:
        """:meth:`start` + :meth:`serve_forever` on a daemon thread."""
        if self._httpd is None:
            self.start()
        thread = threading.Thread(
            target=self.serve_forever, name="repro-service-accept", daemon=True
        )
        thread.start()
        self._serve_thread = thread
        return thread

    @property
    def host(self) -> str:
        return self._httpd.server_address[0] if self._httpd else self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self._httpd.server_address[1] if self._httpd else self.config.port

    @property
    def draining(self) -> bool:
        return self.admission.closed

    def drain(self, *, snapshot: bool = True) -> None:
        """Graceful shutdown: reject new work, lose nothing admitted.

        Safe to call from a signal handler's thread or repeatedly; the
        second and later calls are no-ops.
        """
        with self._drain_lock:
            if self._drained:
                return
            self._drained = True
            self.admission.close()          # new requests -> 503
            self._await_inflight()          # every admitted one answered
            if self._httpd is not None:
                self._httpd.shutdown()      # stop the accept loop
                self._httpd.server_close()
            self._snapshot_stop.set()
            if self._snapshot_thread is not None:
                self._snapshot_thread.join()
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=5.0)
            if snapshot:
                self.state.maybe_snapshot(force=True)
            if self._access_sink is not None:
                self._access_sink.close()

    def log_access(self, record: dict) -> None:
        """Append one access-log record (no-op without ``--access-log``).

        Emission after drain is dropped by the sink's own closed check —
        a handler thread racing drain must not crash writing its record.
        """
        sink = self._access_sink
        if sink is not None:
            sink.emit(record)

    # ------------------------------------------------------------------
    # In-flight tracking (handler threads call these around POST work)
    # ------------------------------------------------------------------

    def begin_request(self) -> None:
        with self._inflight_cv:
            self._inflight += 1
            self.state.registry.set_gauge("service.inflight", self._inflight)

    def end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self.state.registry.set_gauge("service.inflight", self._inflight)
            self._inflight_cv.notify_all()

    def _await_inflight(self) -> None:
        with self._inflight_cv:
            self._inflight_cv.wait_for(lambda: self._inflight == 0)

    def _snapshot_loop(self) -> None:
        while not self._snapshot_stop.wait(self.config.snapshot_interval_s):
            self.state.maybe_snapshot()
