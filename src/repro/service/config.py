"""Service configuration: one frozen dataclass, mirroring ``repro serve``.

Every knob the daemon honors lives here so the CLI, tests, benchmarks,
and embedded servers construct identical services from the same value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conflicts.semantics import ConflictKind
from repro.errors import ServiceError

__all__ = ["DEFAULT_PORT", "ServiceConfig"]

#: Default TCP port for ``repro serve`` (unassigned in the IANA registry).
DEFAULT_PORT = 8466


@dataclass(frozen=True)
class ServiceConfig:
    """The :class:`~repro.service.server.ConflictService` knobs as one value.

    Args:
        host: interface to bind (default loopback — this daemon sits
            *behind* an update pipeline, not on the public internet).
        port: TCP port; ``0`` binds an ephemeral port (read it back from
            :attr:`ConflictService.port` — tests and the benchmark do).
        workers: concurrent decisions.  This bounds *decisions*, not
            connections: each HTTP handler thread decides its own
            request once one of these slots is free.
        queue_depth: admitted requests that may wait for a decision
            slot.  A request that finds ``workers + queue_depth``
            already admitted is rejected with 429 immediately —
            overload sheds, it never hangs.
        cache_path: verdict-cache snapshot file.  Loaded (salvaging
            corruption) on boot when it exists, written atomically every
            ``snapshot_interval_s`` while entries accumulate, and once
            more on drain.  ``None`` keeps the cache memory-only.
        snapshot_interval_s: seconds between periodic snapshots; only
            written when the entry count changed since the last one.
        kind: default conflict semantics for requests that don't say.
        exhaustive_cap: default witness-size cap (the CLI's ``--budget``).
        default_deadline_ms: per-decision deadline applied when a request
            carries no ``deadline_ms`` of its own.  ``None`` = unbounded.
        decide_retries: in-service re-attempts of a decision that died
            with an unexpected exception (in practice: injected
            ``worker_crash`` faults) before it degrades to ``unknown``
            with reason ``worker_crash`` — the thread-pool analogue of
            the batch engine's chunk retry machinery.
        max_body_bytes: request-body size limit (413 above it).
        request_timeout_s: per-connection socket timeout; bounds how long
            an idle keep-alive connection pins a handler thread.
        log_requests: emit the default ``BaseHTTPRequestHandler`` access
            log lines to stderr (quiet by default).
        access_log_path: structured JSONL access/decision log (the CLI's
            ``--access-log``).  One record per request — request id,
            route, status, verdict, cache hit, queue wait, phase timings,
            outcome — appended through a :class:`~repro.obs.sinks.JsonlSink`
            and closed on drain.  ``None`` disables it.
        max_metrics_bytes: response-size cap for ``GET /metrics``.  The
            Prometheus text form is truncated at the last complete line
            (with a trailing marker comment) when it would exceed this;
            an oversized JSON form is replaced with an error body.  The
            introspection routes answer inline on the listener thread,
            so an unbounded response is a drain/latency hazard.
        shard_id: this process's shard number when it runs as one shard
            of a ``repro cluster serve`` deployment (``None`` = the
            plain single-process service).  Shard mode derives a
            per-shard snapshot location from ``cache_path``
            (``<path>.shard<N>``), stamps the shard into ``/healthz``
            and metric labels, and arms the cluster-level fault
            injection points (``shard_kill`` / ``shard_hang``).
        shard_generation: how many times the supervisor has restarted
            this shard (0 = first boot).  Injected fault keys embed it,
            so a chaos rule like ``shard_kill:1:only=shard1|gen0`` kills
            the original process exactly once and lets the restarted
            generation live — deterministic drills converge instead of
            crash-looping.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 4
    queue_depth: int = 64
    cache_path: str | None = None
    snapshot_interval_s: float = 30.0
    kind: ConflictKind = ConflictKind.NODE
    exhaustive_cap: int = 5
    default_deadline_ms: float | None = None
    decide_retries: int = 1
    max_body_bytes: int = 8 * 1024 * 1024
    request_timeout_s: float = 30.0
    log_requests: bool = False
    access_log_path: str | None = None
    max_metrics_bytes: int = 4 * 1024 * 1024
    shard_id: int | None = None
    shard_generation: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServiceError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ServiceError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.snapshot_interval_s <= 0:
            raise ServiceError(
                "snapshot_interval_s must be positive, got "
                f"{self.snapshot_interval_s}"
            )
        if self.decide_retries < 0:
            raise ServiceError(
                f"decide_retries must be >= 0, got {self.decide_retries}"
            )
        if self.max_metrics_bytes < 1024:
            raise ServiceError(
                "max_metrics_bytes must be >= 1024, got "
                f"{self.max_metrics_bytes}"
            )
        if self.shard_id is not None and self.shard_id < 0:
            raise ServiceError(
                f"shard_id must be >= 0, got {self.shard_id}"
            )
        if self.shard_generation < 0:
            raise ServiceError(
                f"shard_generation must be >= 0, got {self.shard_generation}"
            )
