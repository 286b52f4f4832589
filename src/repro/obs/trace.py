"""Zero-dependency tracing spans for the conflict engine.

A *span* is a named, timed region of work with structured attributes::

    with span("linear.read_insert", read_size=8) as sp:
        ...
        sp.set("witness_size", witness.size)

Spans nest: a thread-local stack records the current depth and parent, so
a trace of one query reads as an indented tree (dispatch → algorithm →
matching).  Finished spans are emitted as plain dicts to pluggable sinks
(:mod:`repro.obs.sinks`).

**Disabled is the default and costs almost nothing.**  When tracing is
off, :func:`span` returns a shared no-op context manager — one module
global read plus one truthiness check per call site, no allocation, no
clock read.  The engine is instrumented unconditionally and relies on this
property; ``benchmarks/bench_obs.py`` measures it.

Enabling:

* programmatically — :func:`enable` (optionally with sinks), :func:`disable`,
  or the scoped :func:`tracing` context manager;
* from the environment — set ``REPRO_TRACE`` before the process starts:
  ``REPRO_TRACE=1`` (or ``mem``) traces into an in-memory ring buffer,
  any other value is treated as a JSON-lines output path.

**Request correlation.**  A thread-local *request id* can be bound with
:func:`request_context` (or :func:`set_request_id`); while bound, every
finished span's record carries ``"request_id"``, so all spans produced on
behalf of one service request — on its handler thread and in the batch
engine's pool processes, which re-bind the id — grep together from one
JSONL file.  Unbound (the CLI, tests, library
use), records simply omit the key.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

from repro.obs.sinks import JsonlSink, RingBufferSink, SpanSink

__all__ = [
    "Span",
    "span",
    "enabled",
    "enable",
    "disable",
    "tracing",
    "active_sinks",
    "current_request_id",
    "set_request_id",
    "request_context",
]


class Span:
    """One named, timed, attributed region of work.

    Created by :func:`span`; use as a context manager.  ``set`` attaches
    attributes while the span is open.  Timing uses ``perf_counter`` for
    duration and wall-clock epoch seconds for the start timestamp.
    """

    __slots__ = ("name", "attrs", "depth", "start_time", "duration_s", "_t0")

    def __init__(self, name: str, attrs: dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.start_time = 0.0
        self.duration_s = 0.0
        self._t0 = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        stack = _span_stack()
        self.depth = len(stack)
        stack.append(self)
        self.start_time = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:  # type: ignore[no-untyped-def]
        self.duration_s = time.perf_counter() - self._t0
        stack = _span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        record = self.to_dict()
        for sink in _sinks:
            sink.emit(record)

    def to_dict(self) -> dict:
        """The JSON-lines record shape for this span."""
        record = {
            "name": self.name,
            "start": self.start_time,
            "dur_ms": self.duration_s * 1000.0,
            "depth": self.depth,
            "thread": threading.get_ident(),
            "attrs": dict(self.attrs),
        }
        request_id = getattr(_tls, "request_id", None)
        if request_id is not None:
            record["request_id"] = request_id
        return record


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()
    name = ""
    attrs: dict[str, object] = {}
    depth = 0
    duration_s = 0.0

    def set(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:  # type: ignore[no-untyped-def]
        pass


_NOOP = _NoopSpan()
_enabled = False
_sinks: list[SpanSink] = []
_tls = threading.local()


def _span_stack() -> list[Span]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_request_id() -> str | None:
    """The request id bound to this thread, or ``None``."""
    return getattr(_tls, "request_id", None)


def set_request_id(request_id: str | None) -> None:
    """Bind (or with ``None``, clear) this thread's request id.

    Prefer the scoped :func:`request_context` where the work has clear
    boundaries; this raw form exists for places that cannot wrap a block
    — pool worker initializers bind the id for the worker's lifetime.
    """
    _tls.request_id = request_id


@contextmanager
def request_context(request_id: str | None) -> Iterator[str | None]:
    """Bind ``request_id`` to this thread for the duration of the block.

    Restores whatever was bound before on exit, so nested service calls
    (or a request handled inline on an already-bound thread) unwind
    correctly.  ``None`` passes through as a no-op binding.
    """
    previous = getattr(_tls, "request_id", None)
    _tls.request_id = request_id
    try:
        yield request_id
    finally:
        _tls.request_id = previous


def span(name: str, **attrs: object):  # type: ignore[no-untyped-def]
    """Open a span named ``name`` with initial attributes.

    Returns a live :class:`Span` when tracing is enabled, else the shared
    no-op — call sites never branch on :func:`enabled` themselves.
    """
    if not _enabled:
        return _NOOP
    return Span(name, dict(attrs))


def enabled() -> bool:
    """Is tracing currently on?"""
    return _enabled


def enable(*sinks: SpanSink) -> None:
    """Turn tracing on, emitting to ``sinks``.

    With no sinks given: keep the previously configured sinks, or install
    a fresh :class:`RingBufferSink` if there are none.
    """
    global _enabled
    if sinks:
        _sinks[:] = list(sinks)
    elif not _sinks:
        _sinks[:] = [RingBufferSink()]
    _enabled = True


def disable() -> None:
    """Turn tracing off and detach (closing) the configured sinks."""
    global _enabled
    _enabled = False
    for sink in _sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()
    _sinks.clear()


def active_sinks() -> tuple[SpanSink, ...]:
    """The currently attached sinks (empty when disabled)."""
    return tuple(_sinks)


@contextmanager
def tracing(*sinks: SpanSink) -> Iterator[SpanSink]:
    """Scoped tracing: enable on entry, restore the prior state on exit.

    Yields the first active sink (a fresh ring buffer when none given), so
    tests can write ``with tracing() as ring: ...; ring.spans()``.
    """
    global _enabled
    prev_enabled = _enabled
    prev_sinks = list(_sinks)
    if not sinks:
        sinks = (RingBufferSink(),)
    enable(*sinks)
    try:
        yield _sinks[0]
    finally:
        _enabled = prev_enabled
        _sinks[:] = prev_sinks


def _init_from_env(value: str | None) -> None:
    """Apply the ``REPRO_TRACE`` convention (called once at import)."""
    if not value:
        return
    if value.lower() in ("1", "true", "mem", "memory"):
        enable(RingBufferSink())
    else:
        enable(JsonlSink(value))


_init_from_env(os.environ.get("REPRO_TRACE"))
