"""Admission control: a bound on concurrent decisions, and a bound on waiters.

The server's HTTP layer is threaded (one cheap handler thread per
connection), and each decision runs on the handler thread that received
its request.  Decisions are CPU-bound and NP-hard in the general case,
so :meth:`AdmissionController.run` bounds them.  A request meets one of
three states:

* fewer than ``workers + queue_depth`` requests are admitted → admitted;
  it waits for one of ``workers`` decision slots, then decides;
* ``workers + queue_depth`` requests are already admitted →
  :class:`~repro.errors.ServiceOverloaded` is raised *immediately*
  (HTTP 429).  Shedding at admission keeps the tail latency of admitted
  work flat and means overload can never manifest as a hang;
* the controller is closed (drain) →
  :class:`~repro.errors.ServiceDraining` (HTTP 503).

Admission is a promise: once :meth:`AdmissionController.run` admits a
request, that request *will* decide — :meth:`close` only rejects new
ones.  The server counts a request in flight from before admission until
its response is written, so waiting for that count to reach zero covers
every admitted decision; the drain path relies on exactly this.

Each admitted request's wait for a slot and its execution are timed:
they feed the ``service.queue_wait_ms`` / ``service.exec_ms`` histograms
and, through :meth:`~AdmissionController.run`'s ``timings`` mapping, the
access log's ``queue_wait_ms`` / ``decide_ms``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from typing import TypeVar

from repro.errors import ServiceDraining, ServiceOverloaded
from repro.obs.metrics import MetricsRegistry

__all__ = ["AdmissionController"]

T = TypeVar("T")


class AdmissionController:
    """Bounded admission in front of ``workers`` decision slots."""

    def __init__(
        self,
        workers: int,
        queue_depth: int,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.workers = workers
        self.queue_depth = queue_depth
        self._registry = registry if registry is not None else MetricsRegistry()
        self._slots = threading.Semaphore(workers)
        self._lock = threading.Lock()
        self._admitted = 0  # admitted and not yet finished
        self._waiting = 0  # admitted and waiting for a slot
        self._closed = False

    def run(self, fn: Callable[[], T], timings: dict | None = None) -> T:
        """Admit ``fn`` or reject it at once; run it on this thread.

        When ``fn`` was admitted, ``timings`` (if given) receives its
        ``queue_wait_ms`` and ``decide_ms``, even when ``fn`` raised.

        Raises:
            ServiceDraining: the controller is closed (drain in progress).
            ServiceOverloaded: ``workers + queue_depth`` requests are
                already admitted.
        """
        with self._lock:
            if self._closed:
                self._registry.inc("service.rejected_total", reason="draining")
                raise ServiceDraining("service is draining; not accepting work")
            if self._admitted >= self.workers + self.queue_depth:
                self._registry.inc("service.rejected_total", reason="overload")
                raise ServiceOverloaded(
                    f"admission queue full ({self.queue_depth} waiting); "
                    "retry later"
                )
            self._admitted += 1
            self._wait_change(+1)
        self._registry.inc("service.admitted_total")
        queued_at = time.perf_counter()
        try:
            with self._slots:
                started = time.perf_counter()
                with self._lock:
                    self._wait_change(-1)
                try:
                    return fn()
                finally:
                    queue_wait_ms = (started - queued_at) * 1000.0
                    decide_ms = (time.perf_counter() - started) * 1000.0
                    self._registry.observe("service.queue_wait_ms", queue_wait_ms)
                    self._registry.observe("service.exec_ms", decide_ms)
                    if timings is not None:
                        timings["queue_wait_ms"] = queue_wait_ms
                        timings["decide_ms"] = decide_ms
        finally:
            with self._lock:
                self._admitted -= 1

    def _wait_change(self, delta: int) -> None:
        """Move the waiting count (caller holds ``_lock``) and its gauge."""
        self._waiting += delta
        self._registry.set_gauge("service.queue_depth", self._waiting)

    def close(self) -> None:
        """Stop admitting new work; already-admitted requests still run."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed
