"""The shard supervisor: fork, watch, restart — without crash-looping.

:class:`ShardSupervisor` owns N ``repro serve`` shard processes.  Each
shard is a full single-process conflict service (warm compiler, admission
control, graceful drain) booted with ``--shard-id N`` on an ephemeral
port and its own per-shard verdict-cache snapshot derived from the shared
``cache_path`` — so shards never contend on a file, and a restarted shard
reloads *its own* accumulated verdicts.

Supervision is a per-shard state machine::

    stopped → starting → live ─┬─(exit observed)→ backoff → starting → …
                               └─(crash-loop)→ open_circuit → starting → …

* **Crash → backoff.**  A shard process that exits (SIGKILL'd by a chaos
  drill, OOM-killed, or plain crashed) is restarted after an
  exponentially growing, jittered delay — immediate restart of a sick
  process just synchronizes the next failure.  The backoff attempt
  counter resets once a shard stays up past the crash-loop window.
* **Crash loop → circuit breaker.**  ``crash_loop_threshold`` exits
  within ``crash_loop_window_s`` open the circuit: the supervisor stops
  restarting (state ``open_circuit``) for ``circuit_reset_s``, then
  allows a single half-open boot attempt.  A shard that dies on arrival
  costs one boot per reset period instead of a hot restart loop, and the
  router simply routes around it.
* **Generations.**  Every boot increments the shard's *generation*,
  passed to the child as ``REPRO_SHARD_GENERATION``.  Fault-injection
  keys embed it, so a drill rule like ``shard_kill:1:only=shard1|gen0``
  kills exactly one incarnation and the drill converges.

The boot handshake reuses the ``repro serve`` CLI contract: the child
prints one parseable ``listening on http://host:port`` line; a boot that
neither prints it within ``boot_timeout_s`` nor keeps running is counted
as a crash and enters the same backoff machinery.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.cluster.config import ClusterConfig
from repro.errors import ClusterError
from repro.obs.metrics import MetricsRegistry

__all__ = ["ShardSupervisor", "ShardHandle"]

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Supervisor state-machine states (see module docstring).
STATES = ("stopped", "starting", "live", "backoff", "open_circuit")


class ShardHandle:
    """Mutable supervision record for one shard (guard with the
    supervisor's lock)."""

    __slots__ = (
        "shard_id",
        "state",
        "proc",
        "port",
        "generation",
        "restarts",
        "backoff_attempt",
        "restart_at",
        "crash_times",
        "last_exit_code",
        "booted_at",
    )

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.state = "stopped"
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.generation = -1  # first boot makes it 0
        self.restarts = 0
        self.backoff_attempt = 0
        self.restart_at = 0.0
        self.crash_times: deque[float] = deque()
        self.last_exit_code: int | None = None
        self.booted_at = 0.0

    def is_live(self) -> bool:
        """Live, with a process that has not exited.

        The monitor notices an exit only on its next tick; polling here
        keeps a dead shard from counting as live in between.
        """
        return (
            self.state == "live"
            and self.proc is not None
            and self.proc.poll() is None
        )

    def view(self) -> dict:
        """A detached JSON-able snapshot for ``/healthz``."""
        return {
            "state": self.state,
            "port": self.port,
            "generation": self.generation,
            "restarts": self.restarts,
            "last_exit_code": self.last_exit_code,
        }


class ShardSupervisor:
    """Boots and babysits the shard processes (see module docstring)."""

    def __init__(
        self,
        config: ClusterConfig,
        registry: MetricsRegistry | None = None,
        on_shard_live: Callable[[int, int], None] | None = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.on_shard_live = on_shard_live
        self._lock = threading.Lock()
        self._handles = {
            shard_id: ShardHandle(shard_id)
            for shard_id in range(config.shards)
        }
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._rng = random.Random()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Boot every shard (concurrently) and start the monitor loop.

        A shard whose first boot fails is not fatal: it enters the same
        backoff/restart machinery as a crash.  Only *zero* shards coming
        up raises — an all-dead cluster cannot serve its first request.
        """
        boots = []
        for handle in self._handles.values():
            thread = threading.Thread(
                target=self._boot, args=(handle,), daemon=True,
                name=f"repro-shard-boot-{handle.shard_id}",
            )
            thread.start()
            boots.append(thread)
        for thread in boots:
            thread.join(timeout=self.config.boot_timeout_s + 5.0)
        if not self.live_shards():
            self.stop(graceful=False)
            raise ClusterError(
                f"none of {self.config.shards} shard(s) finished booting"
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    def stop(self, *, graceful: bool = True, timeout_s: float = 30.0) -> None:
        """Stop supervision and the shards.

        ``graceful=True`` SIGTERMs each shard — ``repro serve`` drains:
        admitted requests finish and a final cache snapshot is written —
        and escalates to SIGKILL only past ``timeout_s``.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            procs = [
                (handle, handle.proc)
                for handle in self._handles.values()
                if handle.proc is not None and handle.proc.poll() is None
            ]
        sig = signal.SIGTERM if graceful else signal.SIGKILL
        for _, proc in procs:
            try:
                proc.send_signal(sig)
            except (ProcessLookupError, OSError):
                pass
        deadline = time.monotonic() + timeout_s
        for handle, proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
            with self._lock:
                handle.state = "stopped"
                handle.port = None
        self._set_live_gauge()

    # ------------------------------------------------------------------
    # Introspection (router + tests)
    # ------------------------------------------------------------------

    def endpoints(self) -> dict[int, tuple[str, int]]:
        """``{shard_id: (host, port)}`` for every *live* shard."""
        with self._lock:
            return {
                handle.shard_id: ("127.0.0.1", handle.port)
                for handle in self._handles.values()
                if handle.is_live() and handle.port is not None
            }

    def live_shards(self) -> list[int]:
        with self._lock:
            return sorted(
                handle.shard_id
                for handle in self._handles.values()
                if handle.is_live()
            )

    def generation(self, shard_id: int) -> int:
        with self._lock:
            return self._handles[shard_id].generation

    def snapshot(self) -> dict[int, dict]:
        """Per-shard supervision views for ``/healthz``."""
        with self._lock:
            return {
                shard_id: handle.view()
                for shard_id, handle in sorted(self._handles.items())
            }

    def wait_all_live(self, timeout_s: float) -> bool:
        """Block until every shard is live (True) or ``timeout_s`` passes."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if len(self.live_shards()) == self.config.shards:
                return True
            time.sleep(0.05)
        return len(self.live_shards()) == self.config.shards

    # ------------------------------------------------------------------
    # Chaos hooks (tests, drills, benchmarks)
    # ------------------------------------------------------------------

    def kill(self, shard_id: int, *, hard: bool = True) -> bool:
        """Kill one shard process (SIGKILL, or SIGTERM with ``hard=False``).

        Returns True if a running process was signalled.  The exit is
        recorded before returning (when the process dies promptly), so a
        caller that kills and then asserts on generations/restarts never
        races the monitor — this is the benchmark's and the drills' way
        of losing a shard mid-workload.
        """
        with self._lock:
            handle = self._handles[shard_id]
            proc = handle.proc
        if proc is None or proc.poll() is not None:
            return False
        try:
            proc.send_signal(signal.SIGKILL if hard else signal.SIGTERM)
        except (ProcessLookupError, OSError):
            return False
        try:
            exit_code = proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            # Still draining (SIGTERM path); the monitor will reap it.
            return True
        # Claim the exit under the lock — the same claim the monitor
        # makes — so exactly one of us records the crash.
        with self._lock:
            claimed = handle.state == "live" and handle.proc is proc
            if claimed:
                handle.state = "exited"
        if claimed:
            self._record_crash(handle, exit_code=exit_code)
        return True

    # ------------------------------------------------------------------
    # Boot + monitor internals
    # ------------------------------------------------------------------

    def _shard_command(self, handle: ShardHandle) -> list[str]:
        config = self.config
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(config.workers_per_shard),
            "--queue-depth", str(config.queue_depth),
            "--shard-id", str(handle.shard_id),
            "--snapshot-interval", str(config.snapshot_interval_s),
        ]
        if config.cache_path:
            cmd += ["--cache", config.cache_path]
        if config.default_deadline_ms is not None:
            cmd += ["--timeout", str(config.default_deadline_ms / 1000.0)]
        if config.log_requests:
            cmd.append("--log-requests")
        return cmd

    def _boot(self, handle: ShardHandle) -> None:
        """One boot attempt: fork, await the listening line, go live."""
        with self._lock:
            if self._stop.is_set():
                return
            handle.state = "starting"
            handle.generation += 1
            generation = handle.generation
        env = dict(os.environ)
        if self.config.shard_env:
            env.update(self.config.shard_env)
        env["REPRO_SHARD_GENERATION"] = str(generation)
        try:
            proc = subprocess.Popen(
                self._shard_command(handle),
                stdout=subprocess.PIPE,
                stderr=None,  # inherit: shard tracebacks must reach CI logs
                text=True,
                env=env,
            )
        except OSError as exc:
            self._record_crash(handle, exit_code=None, note=str(exc))
            return
        with self._lock:
            handle.proc = proc
        port = self._await_listening(proc)
        if port is None:
            try:
                proc.kill()
            except OSError:
                pass
            self._record_crash(handle, exit_code=proc.poll())
            return
        with self._lock:
            handle.port = port
            handle.state = "live"
            handle.booted_at = time.monotonic()
        self.registry.set_gauge(
            "cluster.shard_generation", generation, shard=handle.shard_id
        )
        self._set_live_gauge()
        if self.on_shard_live is not None:
            self.on_shard_live(handle.shard_id, generation)

    def _await_listening(self, proc: subprocess.Popen) -> int | None:
        """Parse the child's listening line, bounded by ``boot_timeout_s``.

        A helper thread owns the blocking reads; after the handshake it
        keeps draining the child's stdout so the pipe never fills up and
        wedges the shard mid-print.
        """
        found: list[int] = []
        handshake = threading.Event()

        def _reader() -> None:
            for line in proc.stdout:  # type: ignore[union-attr]
                if not handshake.is_set():
                    matched = _LISTENING.search(line)
                    if matched:
                        found.append(int(matched.group(2)))
                        handshake.set()
            handshake.set()  # EOF: the child died before listening

        thread = threading.Thread(target=_reader, daemon=True)
        thread.start()
        handshake.wait(timeout=self.config.boot_timeout_s)
        return found[0] if found else None

    def _record_crash(
        self,
        handle: ShardHandle,
        exit_code: int | None,
        note: str | None = None,
    ) -> None:
        """A shard exited (or failed to boot): backoff or open the circuit."""
        now = time.monotonic()
        config = self.config
        with self._lock:
            handle.proc = None
            handle.port = None
            handle.last_exit_code = exit_code
            handle.crash_times.append(now)
            while (
                handle.crash_times
                and now - handle.crash_times[0] > config.crash_loop_window_s
            ):
                handle.crash_times.popleft()
            # A shard that stayed up past the window earned a fresh
            # backoff curve; consecutive fast crashes keep climbing it.
            if (
                handle.booted_at
                and now - handle.booted_at > config.crash_loop_window_s
            ):
                handle.backoff_attempt = 0
            if len(handle.crash_times) >= config.crash_loop_threshold:
                handle.state = "open_circuit"
                handle.restart_at = now + config.circuit_reset_s
                self.registry.inc(
                    "cluster.shard_circuit_open_total", shard=handle.shard_id
                )
            else:
                delay = min(
                    config.restart_backoff_cap_s,
                    config.restart_backoff_base_s
                    * (2.0 ** handle.backoff_attempt),
                )
                if config.restart_backoff_jitter > 0:
                    delay *= (
                        1.0
                        - config.restart_backoff_jitter * self._rng.random()
                    )
                handle.backoff_attempt += 1
                handle.state = "backoff"
                handle.restart_at = now + delay
        self.registry.inc("cluster.shard_crashes_total", shard=handle.shard_id)
        self._set_live_gauge()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(0.05):
            now = time.monotonic()
            crashed: list[tuple[ShardHandle, int | None]] = []
            restart: list[ShardHandle] = []
            with self._lock:
                for handle in self._handles.values():
                    if handle.state == "live" and handle.proc is not None:
                        code = handle.proc.poll()
                        if code is not None:
                            # Claim the exit (kill() makes the same
                            # claim) so the crash is recorded once.
                            handle.state = "exited"
                            crashed.append((handle, code))
                    elif (
                        handle.state in ("backoff", "open_circuit")
                        and now >= handle.restart_at
                    ):
                        # Claim the restart under the lock so the next
                        # tick cannot start a second boot of this shard.
                        handle.state = "starting"
                        handle.restarts += 1
                        restart.append(handle)
            for handle, code in crashed:
                if self._stop.is_set():
                    return
                self._record_crash(handle, exit_code=code)
            for handle in restart:
                if self._stop.is_set():
                    return
                self.registry.inc(
                    "cluster.shard_restarts_total", shard=handle.shard_id
                )
                threading.Thread(
                    target=self._boot,
                    args=(handle,),
                    daemon=True,
                    name=f"repro-shard-boot-{handle.shard_id}",
                ).start()

    def _set_live_gauge(self) -> None:
        self.registry.set_gauge(
            "cluster.shards_live", len(self.live_shards())
        )
        self.registry.set_gauge("cluster.shards_total", self.config.shards)
