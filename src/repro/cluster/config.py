"""Cluster configuration: one frozen dataclass, mirroring ``repro cluster serve``.

Every knob of the sharded tier lives here — supervisor (restart backoff,
crash-loop circuit breaker), health probing (interval, hysteresis
thresholds), and routing (per-shard timeout, hash-ring replicas) — so
the CLI, tests, benchmarks, and embedded clusters construct identical
deployments from the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ClusterError

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """The knobs of a :class:`~repro.cluster.router.ClusterRouter` deployment.

    Args:
        host: interface the *router* binds (shards always bind loopback).
        port: router TCP port; ``0`` binds an ephemeral port (read it
            back from :attr:`ClusterRouter.port`).
        shards: number of supervised shard processes.
        workers_per_shard: concurrent decisions inside each shard.
        queue_depth: each shard's admission queue depth.
        cache_path: shared verdict-cache base path; every shard derives
            its own ``<path>.shard<N>`` snapshot from it (see
            :meth:`~repro.conflicts.verdict_cache.VerdictCache.shard_snapshot_path`),
            so no two shards ever write one file.  ``None`` keeps all
            shard caches memory-only.
        snapshot_interval_s: per-shard periodic snapshot interval.
        default_deadline_ms: per-decision deadline each shard applies to
            requests that carry none.
        probe_interval_s: seconds between ``/healthz`` liveness probes
            of each shard.
        probe_timeout_s: per-probe socket timeout.
        unhealthy_after: consecutive probe-or-request failures after
            which a shard stops receiving routed traffic.
        healthy_after: consecutive probe successes after which an
            unhealthy shard rejoins the routing set.
        shard_timeout_s: per-forwarded-request socket timeout; a shard
            that hangs past it is treated as failed for that request and
            the request fails over.
        restart_backoff_base_s: delay before the first restart of a
            crashed shard; doubles per consecutive crash.
        restart_backoff_cap_s: upper bound on the restart delay.
        restart_backoff_jitter: fraction of each restart delay that is
            randomized away (decorrelates simultaneous restarts).
        crash_loop_threshold: crashes within ``crash_loop_window_s``
            that trip the circuit breaker — the supervisor stops
            restarting the shard (state ``open_circuit``) instead of
            burning CPU on a shard that dies on arrival.
        crash_loop_window_s: sliding window for the crash-loop count.
        circuit_reset_s: seconds an open circuit waits before allowing
            one probing restart attempt (half-open).
        boot_timeout_s: how long a shard may take to print its listening
            line before the boot attempt counts as a crash.
        hash_replicas: virtual nodes per shard on the consistent-hash
            ring (more = smoother key distribution).
        log_requests: pass ``--log-requests`` through to the shards.
        shard_env: extra environment variables for shard processes
            (drills use it to hand shards a ``REPRO_FAULTS`` spec
            without arming the router's own process).
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 3
    workers_per_shard: int = 2
    queue_depth: int = 64
    cache_path: str | None = None
    snapshot_interval_s: float = 30.0
    default_deadline_ms: float | None = None
    probe_interval_s: float = 0.5
    probe_timeout_s: float = 2.0
    unhealthy_after: int = 3
    healthy_after: int = 2
    shard_timeout_s: float = 30.0
    restart_backoff_base_s: float = 0.25
    restart_backoff_cap_s: float = 5.0
    restart_backoff_jitter: float = 0.2
    crash_loop_threshold: int = 5
    crash_loop_window_s: float = 30.0
    circuit_reset_s: float = 5.0
    boot_timeout_s: float = 30.0
    hash_replicas: int = 64
    log_requests: bool = False
    shard_env: dict[str, str] | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ClusterError(f"port must be in [0, 65535], got {self.port}")
        if self.shards < 1:
            raise ClusterError(f"shards must be >= 1, got {self.shards}")
        if self.workers_per_shard < 1:
            raise ClusterError(
                f"workers_per_shard must be >= 1, got {self.workers_per_shard}"
            )
        if self.unhealthy_after < 1 or self.healthy_after < 1:
            raise ClusterError(
                "unhealthy_after and healthy_after must be >= 1"
            )
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ClusterError(
                "probe_interval_s and probe_timeout_s must be positive"
            )
        if self.restart_backoff_base_s < 0 or self.restart_backoff_cap_s < 0:
            raise ClusterError("restart backoff delays must be non-negative")
        if not 0.0 <= self.restart_backoff_jitter <= 1.0:
            raise ClusterError(
                "restart_backoff_jitter must be in [0, 1], got "
                f"{self.restart_backoff_jitter}"
            )
        if self.crash_loop_threshold < 1:
            raise ClusterError(
                f"crash_loop_threshold must be >= 1, got "
                f"{self.crash_loop_threshold}"
            )
        if self.hash_replicas < 1:
            raise ClusterError(
                f"hash_replicas must be >= 1, got {self.hash_replicas}"
            )
