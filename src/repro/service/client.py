"""A small blocking client for the conflict service.

Stdlib :mod:`http.client` over one keep-alive connection, so a warm
client pays TCP setup once and each request is one round-trip.  Accepts
operation specs as plain dicts *or* as live
:class:`~repro.operations.ops.Read` / ``Insert`` / ``Delete`` objects
(converted with :func:`repro.service.protocol.op_to_spec`), so library
code and JSON-holding callers use the same API::

    with ServiceClient(port=service.port) as client:
        client.check(Read("bib/book/title"), Delete("bib/book"))
        client.matrix({"titles": {"op": "read", "xpath": "bib/book/title"},
                       "purge":  {"op": "delete", "xpath": "bib/book"}})

Server-side rejections come back as the matching exception:
:class:`~repro.errors.ServiceOverloaded` (429),
:class:`~repro.errors.ServiceDraining` (503),
:class:`~repro.errors.ServiceProtocolError` (400), and
:class:`~repro.errors.ServiceError` for anything else non-2xx.

**Request correlation**: construct with ``ServiceClient(request_id=...)``
to stamp every request from this client with one id, or pass
``request_id=`` per call to tag a single request.  The id travels as the
``X-Request-Id`` header, comes back in the response body and header, and
shows up in the server's spans, access log, and degraded-verdict notes —
so "why was *my* request slow/degraded?" is a grep, not an archaeology
dig.  Clients that don't pass one get a server-minted id back.

**Retries**: reconnects after a dropped keep-alive connection follow a
capped jittered exponential backoff (:class:`~repro.service.retry.
RetryPolicy`; the old behavior was one immediate retry, which lost races
against a server restart every time).  ``busy_retries=N`` additionally
retries 429/503 responses up to N times, honoring the server's
``Retry-After`` header over the computed backoff; the default ``0``
keeps the historical contract that overload raises
:class:`~repro.errors.ServiceOverloaded` immediately.
"""

from __future__ import annotations

import http.client
import json
import socket
from collections.abc import Mapping

from repro.errors import (
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
    ServiceProtocolError,
)
from repro.service import protocol
from repro.service.config import DEFAULT_PORT
from repro.service.retry import RetryPolicy, parse_retry_after

__all__ = ["ServiceClient"]

#: Spec forms accepted wherever an operation is expected.
OpLike = Mapping | protocol.Operation


def _spec(op: OpLike) -> dict:
    if isinstance(op, Mapping):
        return dict(op)
    return protocol.op_to_spec(op)


class ServiceClient:
    """Blocking JSON client over one persistent HTTP/1.1 connection.

    Not thread-safe (one underlying connection); give each thread its
    own client.  Usable as a context manager.
    """

    def __init__(
        self,
        port: int = DEFAULT_PORT,
        host: str = "127.0.0.1",
        timeout: float = 60.0,
        request_id: str | None = None,
        retry: RetryPolicy | None = None,
        busy_retries: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.request_id = request_id
        self.retry = retry if retry is not None else RetryPolicy()
        self.busy_retries = busy_retries
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def check(
        self,
        first: OpLike,
        second: OpLike,
        *,
        kind: str | None = None,
        budget: int | None = None,
        deadline_ms: float | None = None,
        max_steps: int | None = None,
        witness: bool = False,
        request_id: str | None = None,
    ) -> dict:
        """``POST /v1/check``: decide one pair; returns the verdict payload."""
        body: dict = {"first": _spec(first), "second": _spec(second)}
        self._knobs(body, kind, budget, deadline_ms, max_steps)
        if witness:
            body["witness"] = True
        return self._request(
            "POST", "/v1/check", body, request_id=request_id
        )

    def matrix(self, ops: Mapping[str, OpLike], **knobs) -> dict:
        """``POST /v1/matrix``: decide every pair of a named catalogue."""
        return self._catalogue_request("/v1/matrix", ops, knobs)

    def schedule(self, ops: Mapping[str, OpLike], **knobs) -> dict:
        """``POST /v1/schedule``: interference-free phases for a catalogue."""
        return self._catalogue_request("/v1/schedule", ops, knobs)

    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """``GET /metrics``: the server's merged metrics snapshot (JSON)."""
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """``GET /metrics`` in Prometheus text exposition form."""
        return self._request_text(
            "GET", "/metrics", accept="text/plain; version=0.0.4"
        )

    def _catalogue_request(
        self, path: str, ops: Mapping[str, OpLike], knobs: dict
    ) -> dict:
        body: dict = {"ops": {name: _spec(op) for name, op in ops.items()}}
        self._knobs(
            body,
            knobs.pop("kind", None),
            knobs.pop("budget", None),
            knobs.pop("deadline_ms", None),
            knobs.pop("max_steps", None),
        )
        if "index" in knobs:
            body["index"] = knobs.pop("index")
        request_id = knobs.pop("request_id", None)
        if knobs:
            raise ServiceProtocolError(
                f"unknown request option(s): {', '.join(sorted(knobs))}"
            )
        return self._request("POST", path, body, request_id=request_id)

    @staticmethod
    def _knobs(body, kind, budget, deadline_ms, max_steps) -> None:
        if kind is not None:
            body["kind"] = kind
        if budget is not None:
            body["budget"] = budget
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if max_steps is not None:
            body["max_steps"] = max_steps

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            conn.connect()
            # Mirror the server's TCP_NODELAY: request headers and body
            # are separate writes, and Nagle + delayed ACK would add
            # ~40ms to every round-trip on the persistent connection.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._conn = conn
        return self._conn

    def _roundtrip(
        self,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict[str, str],
    ) -> tuple[http.client.HTTPResponse, bytes]:
        # Transparent reconnect retries: the server (or an intermediary)
        # may have closed the idle keep-alive connection, or the server
        # may be mid-restart.  Each retry reconnects after the policy's
        # capped jittered exponential backoff.
        last = self.retry.attempts - 1
        for attempt in range(self.retry.attempts):
            try:
                conn = self._connection()
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                return response, response.read()
            except (
                http.client.RemoteDisconnected,
                http.client.CannotSendRequest,
                BrokenPipeError,
                ConnectionResetError,
            ):
                self.close()
                if attempt == last:
                    raise
            except (ConnectionRefusedError, socket.timeout, OSError) as exc:
                self.close()
                raise ServiceError(
                    f"cannot reach service at {self.host}:{self.port}: {exc}"
                ) from exc
            self.retry.sleep(attempt)
        raise ServiceError("unreachable")  # pragma: no cover

    def _headers(
        self, payload: bytes | None, request_id: str | None
    ) -> dict[str, str]:
        headers: dict[str, str] = {}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        rid = request_id if request_id is not None else self.request_id
        if rid is not None:
            headers["X-Request-Id"] = rid
        return headers

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        request_id: str | None = None,
    ) -> dict:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = self._headers(payload, request_id)
        # 429/503 are the server shedding load; with busy_retries > 0 we
        # back off (honoring its Retry-After estimate) and try again
        # instead of surfacing the rejection to the caller immediately.
        for busy_attempt in range(self.busy_retries + 1):
            response, data = self._roundtrip(method, path, payload, headers)
            if (
                response.status in (429, 503)
                and busy_attempt < self.busy_retries
            ):
                self.retry.sleep(
                    busy_attempt,
                    retry_after_s=parse_retry_after(
                        response.getheader("Retry-After")
                    ),
                )
                continue
            break
        try:
            result = json.loads(data) if data else {}
        except json.JSONDecodeError as exc:
            raise ServiceProtocolError(
                f"service returned invalid JSON ({exc}): {data[:200]!r}"
            ) from exc
        if response.status < 400:
            return result
        message = result.get("error", f"HTTP {response.status}")
        if response.status == 429:
            raise ServiceOverloaded(message)
        if response.status == 503:
            raise ServiceDraining(message)
        if response.status == 400:
            raise ServiceProtocolError(message)
        raise ServiceError(f"HTTP {response.status}: {message}")

    def _request_text(
        self,
        method: str,
        path: str,
        accept: str,
        request_id: str | None = None,
    ) -> str:
        headers = self._headers(None, request_id)
        headers["Accept"] = accept
        response, data = self._roundtrip(method, path, None, headers)
        if response.status >= 400:
            raise ServiceError(
                f"HTTP {response.status}: {data[:200].decode('utf-8', 'replace')}"
            )
        return data.decode("utf-8")

    def close(self) -> None:
        """Drop the underlying connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
