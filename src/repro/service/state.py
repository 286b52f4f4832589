"""The warm engine behind the service endpoints.

:class:`ServiceState` owns what makes a daemon worth running over a
subprocess-per-query:

* the **process-global compiler** — every interned pattern, bitset mask
  table, matching word, and trunk derived for one request serves every
  later request (``repro.compile``'s repeated-catalogue win, kept warm
  forever);
* the **persistent verdict cache** — pair verdicts accumulate across
  requests *and* process restarts: loaded (salvaging corruption) on
  boot, snapshotted atomically on a timer and on drain;
* the **per-request budget mapping** — ``deadline_ms`` becomes a
  :class:`repro.resilience.Budget` on a per-request detector config, so
  a blown deadline degrades that one decision to ``"unknown"`` with a
  ``reason`` (HTTP 200; a 5xx would mean the *server* failed, and it
  did not);
* **crash containment** — a decision that dies with an unexpected
  exception (in practice, injected ``worker_crash`` faults) is retried
  ``decide_retries`` times, then degraded to ``unknown`` with reason
  ``worker_crash``, mirroring the batch engine's quarantine semantics.

Detectors themselves are built per request: they are cheap shells around
the shared compiler, and the service-level :class:`VerdictCache` (keyed
by canonical forms + config fingerprint, budget knobs excluded) is what
carries answers across requests — including witnesses' expensive
recomputation being skipped entirely on a hit.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Mapping

from repro.compile.compiler import global_compiler
from repro.conflicts.batch import BatchAnalyzer, op_key
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import ConflictReport, Verdict
from repro.conflicts.verdict_cache import VerdictCache
from repro.errors import ServiceProtocolError
from repro.obs.metrics import MetricsRegistry, global_metrics
from repro.resilience import faults
from repro.service import protocol
from repro.service.config import ServiceConfig
from repro.xml.serializer import serialize

__all__ = ["ServiceState"]


class ServiceState:
    """Warm caches + decision logic shared by every request (thread-safe)."""

    def __init__(
        self, config: ServiceConfig, registry: MetricsRegistry | None = None
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.compiler = global_compiler()
        self.snapshot_path = self._snapshot_path()
        self.cache = self._load_cache()
        self.started_at = time.monotonic()
        self._snapshot_lock = threading.Lock()
        self._snapshotted_entries = len(self.cache)
        self.registry.set_gauge("service.cache_entries", len(self.cache))
        if config.shard_id is not None:
            self.registry.set_gauge(
                "service.shard_generation",
                config.shard_generation,
                shard=config.shard_id,
            )

    def _snapshot_path(self) -> str | None:
        """Where this process snapshots its verdict cache.

        In shard mode the shared ``cache_path`` is specialized to
        ``<path>.shard<N>`` — every shard of a cluster is handed the
        *same* base path and derives its own file, so no two shards can
        ever race on one snapshot.
        """
        path = self.config.cache_path
        if path and self.config.shard_id is not None:
            return VerdictCache.shard_snapshot_path(path, self.config.shard_id)
        return path

    def _load_cache(self) -> VerdictCache:
        path = self.snapshot_path
        if path and os.path.exists(path):
            cache = VerdictCache.load(path)  # salvages corrupt snapshots
            cache.shard_id = self.config.shard_id
            self.registry.inc("service.cache_loaded_entries", len(cache))
            return cache
        return VerdictCache(shard_id=self.config.shard_id)

    # ------------------------------------------------------------------
    # Decisions (run on the request's handler thread once admitted)
    # ------------------------------------------------------------------

    def check(self, payload: Mapping, request_id: str | None = None) -> dict:
        """Decide one pair: ``POST /v1/check``."""
        if "first" not in payload or "second" not in payload:
            raise ServiceProtocolError(
                "check body must carry 'first' and 'second' operation specs"
            )
        first = protocol.op_from_spec(payload["first"], name="first")
        second = protocol.op_from_spec(payload["second"], name="second")
        config = self._detector_config(payload)
        key_a, key_b = op_key(first), op_key(second)
        fault_key = f"{key_a}|{key_b}"
        faults.inject_shard_fault(self._shard_fault_key("check", fault_key))
        if key_a[0] == key_b[0] == "Read":
            return self._check_payload(
                verdict=Verdict.NO_CONFLICT.value,
                kind=config.kind.value,
                method="read-read-trivial",
                request_id=request_id,
            )
        key = VerdictCache.pair_key(config.fingerprint(), key_a, key_b)
        hit = self.cache.get(key)
        if hit is not None:
            self.registry.inc("service.verdict_cache_hits")
            return self._check_payload(
                verdict=hit.value,
                kind=config.kind.value,
                method="verdict-cache",
                cached=True,
                request_id=request_id,
            )
        self.registry.inc("service.verdict_cache_misses")
        report = self._decide(first, second, config, fault_key, request_id=request_id)
        if report.reason is None:
            self.cache.put(key, report.verdict)
            self.registry.set_gauge("service.cache_entries", len(self.cache))
        witness = None
        if report.witness is not None and payload.get("witness"):
            witness = {
                "sketch": report.witness.sketch(),
                "xml": serialize(report.witness),
            }
        return self._check_payload(
            verdict=report.verdict.value,
            kind=report.kind.value,
            method=report.method,
            reason=report.reason,
            notes=list(report.notes),
            witness=witness,
            request_id=request_id,
        )

    def matrix(self, payload: Mapping, request_id: str | None = None) -> dict:
        """Decide a whole catalogue: ``POST /v1/matrix``."""
        analyzer, matrix = self._analyze(payload)
        return {
            "command": "matrix",
            "request_id": request_id,
            **matrix.to_dict(),
            "quarantine": analyzer.quarantine,
        }

    def schedule(self, payload: Mapping, request_id: str | None = None) -> dict:
        """Catalogue → interference-free phases: ``POST /v1/schedule``."""
        analyzer, matrix = self._analyze(payload)
        batches = analyzer.schedule()
        return {
            "command": "schedule",
            "request_id": request_id,
            "batches": batches,
            "quarantine": analyzer.quarantine,
            "stats": {
                "operations": len(matrix.names),
                "batches": len(batches),
                "largest_batch": max((len(b) for b in batches), default=0),
                "degraded": matrix.degraded_count(),
            },
        }

    def _analyze(self, payload: Mapping):
        if "ops" not in payload:
            raise ServiceProtocolError("body must carry an 'ops' catalogue")
        catalogue = protocol.catalogue_from_specs(payload["ops"])
        faults.inject_shard_fault(
            self._shard_fault_key("matrix", "|".join(sorted(catalogue)))
        )
        config = self._detector_config(payload)
        # One fresh detector per request, on the shared compiler and the
        # shared verdict cache; jobs stays 1 because request concurrency
        # is the admission layer's job — forking pools per HTTP request
        # would fight it (and the thread it runs on).
        detector = ConflictDetector(
            config=config, compiler=self.compiler, registry=self.registry
        )
        analyzer = BatchAnalyzer(
            detector=detector,
            jobs=1,
            cache=self.cache,
            registry=self.registry,
            index=bool(payload.get("index", True)),
            containment=bool(payload.get("containment", True)),
        )
        matrix = analyzer.analyze(catalogue)
        self.registry.set_gauge("service.cache_entries", len(self.cache))
        return analyzer, matrix

    def _shard_fault_key(self, route: str, detail: str) -> str:
        """The cluster fault-injection key for one request on this shard.

        Embeds the shard id and its restart generation so chaos rules
        can target ``only=shard1|gen0`` — the original process of shard
        1, but not its restarted successor.  Single-process services
        inject under ``shard-`` so a cluster-targeted spec never fires
        on them by accident.
        """
        shard = (
            self.config.shard_id if self.config.shard_id is not None else "-"
        )
        return (
            f"shard{shard}|gen{self.config.shard_generation}|{route}|{detail}"
        )

    def _detector_config(self, payload: Mapping) -> DetectorConfig:
        return protocol.detector_config_from(
            payload,
            kind=self.config.kind,
            exhaustive_cap=self.config.exhaustive_cap,
            default_deadline_ms=self.config.default_deadline_ms,
        )

    def _decide(
        self,
        first,
        second,
        config: DetectorConfig,
        fault_key: str,
        request_id: str | None = None,
    ) -> ConflictReport:
        """One pair decision with in-service crash retry.

        ``fault_key`` matches the batch engine's pair key, so a
        ``REPRO_FAULTS`` spec targets service decisions and pool workers
        alike; ``salt`` is the attempt number, so ``first``-scoped crash
        rules fire once and the retry recovers — the suite stays green
        under the CI fault-injection job.
        """
        last_error: Exception | None = None
        for attempt in range(self.config.decide_retries + 1):
            try:
                faults.inject_worker_fault(fault_key, salt=attempt)
                detector = ConflictDetector(
                    config=config, compiler=self.compiler, registry=self.registry
                )
                return detector.detect(first, second)
            except ServiceProtocolError:
                raise
            except Exception as exc:  # noqa: BLE001 - degrade, never 500
                last_error = exc
                self.registry.inc("service.decide_crashes")
        self.registry.inc("service.decisions_degraded", reason="worker_crash")
        notes = [f"decision crashed {type(last_error).__name__}: {last_error}"]
        if request_id is not None:
            # The degraded verdict must be traceable back to the request
            # that hit it even when the report is read out of context
            # (batch quarantine listings, access-log grep, bug reports).
            notes.append(f"request_id={request_id}")
        return ConflictReport(
            verdict=Verdict.UNKNOWN,
            kind=config.kind,
            method="degraded",
            notes=notes,
            reason="worker_crash",
        )

    @staticmethod
    def _check_payload(
        *,
        verdict: str,
        kind: str,
        method: str,
        reason: str | None = None,
        notes: list[str] | None = None,
        witness: dict | None = None,
        cached: bool = False,
        request_id: str | None = None,
    ) -> dict:
        return {
            "command": "check",
            "request_id": request_id,
            "verdict": verdict,
            "kind": kind,
            "method": method,
            "reason": reason,
            "degraded": reason is not None,
            "notes": notes or [],
            "witness": witness,
            "cached": cached,
        }

    # ------------------------------------------------------------------
    # Introspection (served inline by the HTTP layer, never queued)
    # ------------------------------------------------------------------

    def health(self, *, draining: bool = False) -> dict:
        payload = {
            "status": "draining" if draining else "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "cache_entries": len(self.cache),
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
        }
        if self.config.shard_id is not None:
            payload["shard_id"] = self.config.shard_id
            payload["shard_generation"] = self.config.shard_generation
        return payload

    def metrics_snapshot(self) -> dict:
        """``GET /metrics``: service + engine + compile counters, one view.

        The service registry (request/admission/cache counters, plus
        every per-request detector's ``conflict.*`` instruments — they
        are constructed on this registry) is overlaid
        on the process-global one, which carries the shared compiler's
        ``compile.<family>.{hits,misses,evictions}`` traffic.
        """
        merged = global_metrics().merged_with(self.registry)
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "cache_entries": len(self.cache),
            **merged,
        }

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def maybe_snapshot(self, *, force: bool = False) -> bool:
        """Write the verdict cache to disk if configured and worthwhile.

        Periodic snapshots are skipped while the entry count is unchanged
        (the overwhelmingly common idle case); ``force=True`` (drain)
        writes whenever there is anything at all to persist.  Atomicity
        and parent-directory creation are :meth:`VerdictCache.save`'s
        contract.
        """
        path = self.snapshot_path
        if not path:
            return False
        with self._snapshot_lock:
            entries = len(self.cache)
            if not force and entries == self._snapshotted_entries:
                return False
            self.cache.save(path)
            self._snapshotted_entries = entries
            self.registry.inc("service.snapshots_written")
            return True
