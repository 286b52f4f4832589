"""Benchmark-owned spans around the public entry points of each layer.

The program is not edited: :class:`Tracer` wraps the layer functions in
place (module attributes, methods and class methods) and restores them on
:meth:`Tracer.uninstall`.  Each wrapper records, per layer, the number of
calls, the total time, the *self* time (total minus the time of nested
layer spans on the same thread) and, where a layer can waste work, how
many calls had a useful outcome.  Spans are aggregated in memory and read
with :meth:`Tracer.snapshot`.

Layers (module, entry point):

==============  ====================================================
canonicalize    ``conflicts.batch.CanonicalOp.from_operation``
profile         ``conflicts.index.profile_pattern`` (as bound in batch)
compile         ``compile.PatternCompiler.precompile``
index           ``conflicts.index.PatternIndex.discharge``
containment     ``conflicts.index.result_containment`` (as bound in batch)
cache           ``conflicts.batch.VerdictCache.get`` / ``.put``
decide.<path>   ``conflicts.detector.ConflictDetector.detect``
assemble        ``BatchAnalyzer._make_unit`` / ``._fill_unit``
pool            ``BatchAnalyzer._decide_parallel`` / ``._make_pool``
==============  ====================================================
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro import Read, Verdict
from repro.compile.compiler import PatternCompiler
from repro.conflicts import batch, detector, index


class LayerStat:
    """Aggregated spans of one layer on one thread."""

    __slots__ = ("calls", "total_s", "self_s", "outcomes", "outcome_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: calls per outcome label, and their summed wall time
        self.outcomes: Counter = Counter()
        self.outcome_s: Counter = Counter()
        self.durations: list[float] = []


def decide_path(args: tuple) -> str:
    """``linear`` / ``general`` / ``complex``, as the detector routes it."""
    first, second = args[1], args[2]
    read = first if isinstance(first, Read) else second if isinstance(second, Read) else None
    if read is None:
        return "decide.complex"
    return "decide.linear" if read.pattern.is_linear else "decide.general"


def decide_outcome(report) -> tuple:
    return (
        ("unknown",) if report.verdict is Verdict.UNKNOWN else ()
    ) + (("witness",) if report.witness is not None else ())


def _hit(result) -> tuple:
    return ("hit",) if result is not None and result is not False else ()


#: (owner, attribute, layer name or name function, outcome function,
#: keep per-call durations)
TARGETS = (
    (batch.CanonicalOp, "from_operation", "canonicalize", None, False),
    (batch, "profile_pattern", "profile", None, False),
    (PatternCompiler, "precompile", "compile", None, False),
    (index.PatternIndex, "discharge", "index", _hit, False),
    (batch, "result_containment", "containment", _hit, False),
    (batch.VerdictCache, "get", "cache", _hit, False),
    (batch.VerdictCache, "put", "cache.put", None, False),
    (detector.ConflictDetector, "detect", decide_path, decide_outcome, True),
    (batch.BatchAnalyzer, "_make_unit", "assemble", None, False),
    (batch.BatchAnalyzer, "_fill_unit", "assemble", None, False),
    (batch.BatchAnalyzer, "_decide_parallel", "pool", None, False),
    (batch.BatchAnalyzer, "_make_pool", "pool.start", None, False),
)


class Tracer:
    """Installs the layer spans; thread-safe, one table per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, LayerStat]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _table(self) -> dict[str, LayerStat]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def _wrap(self, fn, layer, outcome, keep):
        tracer = self

        def span(*args, **kwargs):
            table = tracer._table()
            stack = tracer._local.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                name = layer(args) if callable(layer) else layer
                stat = table.get(name)
                if stat is None:
                    stat = table[name] = LayerStat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - child
                if keep:
                    stat.durations.append(elapsed)
            if outcome is not None:
                for label in outcome(result):
                    stat.outcomes[label] += 1
                    stat.outcome_s[label] += elapsed
            return result

        return span

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, layer, outcome, keep in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, outcome, keep))
            else:
                wrapped = self._wrap(raw, layer, outcome, keep)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        """Drop every recorded span (call only while no span is open)."""
        with self._lock:
            for table in self._tables:
                table.clear()

    def snapshot(self) -> dict:
        """Per-layer totals merged across threads."""
        merged: dict[str, dict] = {}
        with self._lock:
            tables = [dict(table) for table in self._tables]
        for table in tables:
            for name, stat in table.items():
                out = merged.setdefault(
                    name,
                    {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "outcomes": Counter(), "outcome_s": Counter(),
                     "durations": []},
                )
                out["calls"] += stat.calls
                out["total_s"] += stat.total_s
                out["self_s"] += stat.self_s
                out["outcomes"].update(stat.outcomes)
                out["outcome_s"].update(stat.outcome_s)
                out["durations"].extend(stat.durations)
        return merged


def layer_metrics(snap: dict) -> dict:
    """Per-layer metrics from one :meth:`Tracer.snapshot` (ms, counts, rates).

    ``covered_ms`` is the summed self time of every span: the part of the
    traced interval some layer accounts for.
    """

    def stat(name: str) -> dict:
        return snap.get(name) or {
            "calls": 0, "total_s": 0.0, "self_s": 0.0,
            "outcomes": Counter(), "outcome_s": Counter(), "durations": [],
        }

    def rate(name: str) -> float:
        entry = stat(name)
        return entry["outcomes"]["hit"] / entry["calls"] if entry["calls"] else 0.0

    out = {}
    for layer in ("canonicalize", "profile", "index", "containment", "assemble"):
        out[f"{layer}.calls"] = stat(layer)["calls"]
        out[f"{layer}.self_ms"] = stat(layer)["self_s"] * 1000.0
    out["compile.precompile_ms"] = stat("compile")["self_s"] * 1000.0
    out["index.discharge_rate"] = rate("index")
    out["containment.hit_rate"] = rate("containment")
    out["cache.lookups"] = stat("cache")["calls"]
    out["cache.hit_rate"] = rate("cache")
    witness_calls, witness_s, decide_s = 0, 0.0, 0.0
    for path in ("linear", "general", "complex"):
        entry = stat(f"decide.{path}")
        durations = sorted(entry["durations"])
        out[f"decide.calls.{path}"] = entry["calls"]
        out[f"decide.self_ms.{path}"] = entry["self_s"] * 1000.0
        out[f"decide.p50_ms.{path}"] = (
            durations[(len(durations) - 1) // 2] * 1000.0 if durations else 0.0
        )
        out[f"decide.unknown.{path}"] = entry["outcomes"]["unknown"]
        witness_calls += entry["outcomes"]["witness"]
        witness_s += entry["outcome_s"]["witness"]
        decide_s += entry["total_s"]
    out["witness.calls"] = witness_calls
    out["witness.ms"] = witness_s * 1000.0
    out["decide.nowitness_ms"] = (decide_s - witness_s) * 1000.0
    out["pool.starts"] = stat("pool.start")["calls"]
    out["covered_ms"] = sum(entry["self_s"] for entry in snap.values()) * 1000.0
    return out
