"""Deterministic fault injection for the conflict engine's recovery paths.

Retry loops, quarantines, and corrupt-snapshot salvage are only trusted
if they are *exercised* — so this module lets CI (and local runs) inject
failures into well-defined points of the engine with deterministic,
seeded decisions:

* ``worker_crash`` — raise :class:`~repro.errors.InjectedFault` (or hard
  ``os._exit`` with ``mode=hard``) inside a batch-pool worker right
  before a pair is decided, driving the chunk retry / split / quarantine
  machinery;
* ``slow_decide``  — sleep before deciding a pair, driving chunk
  timeouts and deadline budgets;
* ``cache_corrupt`` — corrupt the bytes of a
  :meth:`~repro.conflicts.verdict_cache.VerdictCache.save` snapshot,
  driving the salvage path in ``VerdictCache.load``.

Three **cluster-level** rules drive the sharded service tier
(:mod:`repro.cluster`); their injection-site keys embed the shard id and
restart generation (``shard<N>|gen<G>|<route>|...``), so a drill can
target one process of one shard deterministically:

* ``shard_kill`` — ``os._exit(23)`` inside a shard process at request
  admission, simulating a SIGKILL/OOM-kill mid-request; the router must
  fail the request over and the supervisor must restart the shard.
  ``only=shard1|gen0`` kills shard 1's original process exactly once —
  the restarted generation no longer matches, so drills converge;
* ``shard_hang`` — sleep ``delay=`` seconds inside a shard before
  serving a request, driving the router's per-shard timeout + failover;
* ``probe_flap`` — fires in the *router's* health prober (keys
  ``shard<N>|probe<K>``), making a healthy shard's probe report failure,
  driving the unhealthy-marking / recovery hysteresis.

Activation is environment-driven so no production code path changes::

    REPRO_FAULTS="worker_crash:0.1,slow_decide:0.05,cache_corrupt" \
    REPRO_FAULTS_SEED=1234 python -m pytest ...

or programmatic (tests)::

    from repro.resilience import faults
    faults.install(faults.FaultInjector.parse("worker_crash:1:only=poison"))
    ...
    faults.uninstall()

Rule grammar — comma-separated rules, each ``name[:rate[:opt[:opt...]]]``:

* ``rate`` — probability in ``[0, 1]`` (default ``1``, i.e. always).
* ``only=SUBSTR`` — fire only when the injection-site key contains
  ``SUBSTR`` (keys embed the operands' canonical forms, so a distinctive
  label targets one poison operation).
* ``first`` — fire only on the first attempt (``salt == 0``); retried
  work succeeds, so whole-suite fault runs exercise the retry path while
  still converging to fault-free results.
* ``hard`` — (``worker_crash``) kill the worker process with
  ``os._exit`` instead of raising, simulating a segfault/OOM-kill.
* ``mode=truncate`` / ``mode=garbage`` — (``cache_corrupt``) cut the
  snapshot mid-entry vs. append a non-JSON suffix (the default; it loses
  no entries, so salvage recovers everything).
* ``delay=SECONDS`` — (``slow_decide``) sleep duration (default 0.05).

**Determinism.**  Whether a rule fires for a given key is a pure
function of ``(seed, fault name, key, salt)`` via SHA-256 — stable
across processes, platforms, and ``PYTHONHASHSEED``.  The ``salt``
(typically the retry attempt number) lets callers make retries
independent draws while keeping each draw reproducible.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.errors import ConflictEngineError, InjectedFault

__all__ = [
    "FaultRule",
    "FaultInjector",
    "current",
    "install",
    "uninstall",
    "match",
    "inject_worker_fault",
    "inject_shard_fault",
]

#: Environment variables consulted by :func:`current`.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

#: Fault names with injection points wired into the engine.
KNOWN_FAULTS = (
    "worker_crash",
    "slow_decide",
    "cache_corrupt",
    "shard_kill",
    "shard_hang",
    "probe_flap",
)


@dataclass(frozen=True)
class FaultRule:
    """One parsed fault rule (see the module docstring for the grammar)."""

    name: str
    rate: float = 1.0
    only: str | None = None
    first_attempt_only: bool = False
    mode: str | None = None
    delay_s: float = 0.05

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        parts = [part.strip() for part in text.strip().split(":")]
        if not parts or not parts[0]:
            raise ConflictEngineError(f"empty fault rule in spec: {text!r}")
        name = parts[0]
        if name not in KNOWN_FAULTS:
            raise ConflictEngineError(
                f"unknown fault {name!r} (known: {', '.join(KNOWN_FAULTS)})"
            )
        rate = 1.0
        options = parts[1:]
        if options and _is_float(options[0]):
            rate = float(options[0])
            if not 0.0 <= rate <= 1.0:
                raise ConflictEngineError(
                    f"fault {name!r}: rate {rate} outside [0, 1]"
                )
            options = options[1:]
        only: str | None = None
        first = False
        mode: str | None = None
        delay_s = 0.05
        for option in options:
            if option == "first":
                first = True
            elif option == "hard":
                mode = "hard"
            elif option.startswith("only="):
                only = option[len("only="):]
            elif option.startswith("mode="):
                mode = option[len("mode="):]
            elif option.startswith("delay="):
                delay_s = float(option[len("delay="):])
            else:
                raise ConflictEngineError(
                    f"fault {name!r}: unknown option {option!r}"
                )
        return cls(
            name=name,
            rate=rate,
            only=only,
            first_attempt_only=first,
            mode=mode,
            delay_s=delay_s,
        )

    def render(self) -> str:
        """Re-serialize to the rule grammar (``parse(render())`` round-trips)."""
        parts = [self.name]
        if self.rate != 1.0:
            parts.append(str(self.rate))
        if self.only is not None:
            parts.append(f"only={self.only}")
        if self.first_attempt_only:
            parts.append("first")
        if self.mode == "hard":
            parts.append("hard")
        elif self.mode is not None:
            parts.append(f"mode={self.mode}")
        if self.delay_s != 0.05:
            parts.append(f"delay={self.delay_s}")
        return ":".join(parts)


class FaultInjector:
    """A seeded set of fault rules with deterministic fire decisions."""

    def __init__(self, rules: dict[str, FaultRule], seed: int = 0) -> None:
        self._rules = dict(rules)
        self.seed = seed

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Parse a ``REPRO_FAULTS``-style comma-separated rule spec."""
        rules: dict[str, FaultRule] = {}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            rule = FaultRule.parse(chunk)
            rules[rule.name] = rule
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls, environ: "os._Environ[str] | dict" = os.environ) -> "FaultInjector | None":
        """Build an injector from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``.

        Returns ``None`` when ``REPRO_FAULTS`` is unset or empty.
        """
        spec = environ.get(ENV_SPEC, "").strip()
        if not spec:
            return None
        seed = int(environ.get(ENV_SEED, "0") or "0")
        return cls.parse(spec, seed=seed)

    def rule(self, fault: str) -> FaultRule | None:
        return self._rules.get(fault)

    def spec(self) -> str:
        """The comma-separated rule spec (``parse(spec(), seed)`` round-trips).

        Lets the batch engine ship a programmatically installed injector to
        ``spawn`` pool workers, which inherit the environment but not the
        parent's in-process state.
        """
        return ",".join(
            rule.render() for _, rule in sorted(self._rules.items())
        )

    def match(self, fault: str, key: str, salt: int = 0) -> FaultRule | None:
        """The rule for ``fault`` if it fires for ``key``, else ``None``.

        Deterministic: the same ``(seed, fault, key, salt)`` always
        produces the same decision.
        """
        rule = self._rules.get(fault)
        if rule is None:
            return None
        if rule.only is not None and rule.only not in key:
            return None
        if rule.first_attempt_only and salt != 0:
            return None
        if rule.rate >= 1.0:
            return rule
        if rule.rate <= 0.0:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{fault}:{key}:{salt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return rule if fraction < rule.rate else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(rules={sorted(self._rules)}, seed={self.seed})"


# ----------------------------------------------------------------------
# Process-wide injector: lazily loaded from the environment; tests may
# install/uninstall programmatically.  Workers started with ``fork``
# inherit the parent's loaded injector; ``spawn`` workers re-read the
# (inherited) environment on first use, so both start methods inject.
# ----------------------------------------------------------------------

_INJECTOR: FaultInjector | None = None
_LOADED = False


def current() -> FaultInjector | None:
    """The active injector, loading from the environment on first call."""
    global _INJECTOR, _LOADED
    if not _LOADED:
        _INJECTOR = FaultInjector.from_env()
        _LOADED = True
    return _INJECTOR


def install(injector: FaultInjector) -> None:
    """Install ``injector`` process-wide (overrides the environment)."""
    global _INJECTOR, _LOADED
    _INJECTOR = injector
    _LOADED = True


def uninstall() -> None:
    """Drop any installed injector; the next :func:`current` re-reads env."""
    global _INJECTOR, _LOADED
    _INJECTOR = None
    _LOADED = False


def match(fault: str, key: str, salt: int = 0) -> FaultRule | None:
    """Convenience: ``current().match(...)`` with the no-injector fast path."""
    injector = current()
    if injector is None:
        return None
    rule = injector.match(fault, key, salt)
    if rule is not None:
        _count(fault)
    return rule


def inject_worker_fault(key: str, salt: int = 0) -> None:
    """The batch-pool worker's injection point, called once per pair.

    Applies ``slow_decide`` (sleep) then ``worker_crash`` (raise
    :class:`InjectedFault`, or ``os._exit(17)`` under ``mode=hard``) when
    the active injector fires for ``key``.  No-op without an injector.
    """
    injector = current()
    if injector is None:
        return
    slow = injector.match("slow_decide", key, salt)
    if slow is not None:
        _count("slow_decide")
        import time

        time.sleep(slow.delay_s)
    crash = injector.match("worker_crash", key, salt)
    if crash is not None:
        _count("worker_crash")
        if crash.mode == "hard":
            os._exit(17)
        raise InjectedFault(
            f"injected worker_crash (attempt {salt}) while deciding {key!r}"
        )


def inject_shard_fault(key: str, salt: int = 0) -> None:
    """The shard process's injection point, called once per request.

    Applies ``shard_hang`` (sleep ``delay=`` seconds — long enough to
    trip the router's per-shard timeout and drive failover) then
    ``shard_kill`` (``os._exit(23)``, the moral equivalent of a SIGKILL
    landing mid-request).  Keys are ``shard<N>|gen<G>|<route>|...``; see
    :meth:`repro.service.state.ServiceState._shard_fault_key`.  No-op
    without an injector.
    """
    injector = current()
    if injector is None:
        return
    hang = injector.match("shard_hang", key, salt)
    if hang is not None:
        _count("shard_hang")
        import time

        time.sleep(hang.delay_s)
    kill = injector.match("shard_kill", key, salt)
    if kill is not None:
        _count("shard_kill")
        os._exit(23)


def _count(fault: str) -> None:
    from repro.obs.metrics import global_metrics

    global_metrics().inc("faults.injected", fault=fault)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
