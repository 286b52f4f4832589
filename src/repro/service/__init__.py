"""``repro.service`` — the long-running conflict-analysis server.

Every other entry point in this library is one-shot: a CLI invocation or
a script builds its caches from cold, answers, and throws the warmth
away.  This package keeps the warmth alive.  A :class:`ConflictService`
is a stdlib-only HTTP/JSON daemon that owns

* one process-global warm :class:`repro.compile.PatternCompiler` (every
  request after the first hits compiled artifacts),
* one persistent
  :class:`repro.conflicts.verdict_cache.VerdictCache` (loaded — with
  corrupt-snapshot salvage — on boot, snapshotted atomically to disk on
  a timer and again on drain),
* an admission-control layer: each decision runs on its request's
  handler thread, at most ``workers`` at once with at most
  ``queue_depth`` more waiting, so overload answers ``429`` immediately
  instead of queueing unboundedly or hanging, and
* a graceful drain path (SIGTERM under ``repro serve``): stop accepting,
  finish every admitted request, take a final snapshot.

Endpoints: ``POST /v1/check``, ``POST /v1/matrix``, ``POST /v1/schedule``,
``GET /healthz``, ``GET /metrics``.  Requests carry an optional
``deadline_ms`` that maps onto a per-decision
:class:`repro.resilience.Budget`; a blown budget degrades the verdict to
``"unknown"`` with a machine-readable ``reason`` and HTTP 200 — a slow
decision is an answer, not a server error.

Operationally, every request is correlated end-to-end by a request id
(client-supplied ``X-Request-Id`` or server-minted, echoed in body and
header, present in spans/access-log/degraded reasons), ``GET /metrics``
content-negotiates between the JSON snapshot and Prometheus text
exposition, and ``--access-log`` writes one JSONL record per request
that ``repro report`` aggregates into latency/hit-rate tables.

In-process use (tests, notebooks, the demo)::

    from repro.service import ConflictService, ServiceClient, ServiceConfig

    service = ConflictService(ServiceConfig(port=0))   # 0 = ephemeral port
    service.start_background()
    with ServiceClient(port=service.port) as client:
        client.check({"op": "read", "xpath": "bib/book/title"},
                     {"op": "delete", "xpath": "bib/book"})
    service.drain()

See ``docs/SERVICE.md`` for the wire schemas and operational notes.
"""

from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.server import ConflictService
from repro.service.state import ServiceState

__all__ = [
    "ConflictService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceState",
]
