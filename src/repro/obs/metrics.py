"""Named counters, gauges and quantile histograms for the conflict engine.

The engine's telemetry used to be scattered — ``SearchStats`` dataclasses
threaded through the general engine, bare ``cache_hits`` attributes on the
detector, ad-hoc ``ConflictReport.stats`` dicts.  This module gives all of
it one home: a :class:`MetricsRegistry` of named instruments with optional
``{label=value}`` dimensions, a process-wide default registry for
module-level code, and per-instance registries where isolation matters
(each :class:`~repro.conflicts.detector.ConflictDetector` owns one, so two
detectors never mix their query statistics).

Metric names follow a ``subsystem.metric`` convention; dimensions are
rendered Prometheus-style into the key (``conflict.queries_total{path=linear}``).
The well-known names are catalogued in ``docs/OBSERVABILITY.md``.  The
resilience layer adds its own families: ``conflict.budget_exceeded{reason=}``
(budget-degraded decisions), ``faults.injected{fault=}`` (fired fault
rules), and the batch engine's hardening counters
(``batch.chunk_timeouts`` / ``batch.chunk_crashes`` /
``batch.chunk_retries`` / ``batch.chunk_splits`` /
``batch.chunks_quarantined{reason=}`` / ``batch.pairs_degraded{reason=}``)
— see ``docs/RESILIENCE.md``.

Histograms are **fixed log-bucket** distributions, not just summaries:
each observation lands in one of a fixed family of exponentially sized
buckets (:data:`BUCKETS_PER_DECADE` per factor of ten), so

* :meth:`Histogram.quantile` answers p50/p95/p99 with error bounded by
  one bucket width (≈ 26% relative) — enough to tell a 1 ms path from a
  10 ms path, which is the load-bearing question;
* merging two histograms (:meth:`Histogram.absorb`) is **lossless** —
  bucket counts add — so per-worker latency distributions combine across
  thread pools and process pools without approximation;
* the snapshot form stays a compatible superset of the old
  ``{"count", "sum", "min", "max"}`` summary (those keys are still
  present and still mean the same thing).

Design constraints:

* **Zero dependencies** — plain dicts, no client library.
* **Cheap increments** — ``inc``/``observe`` take no lock; CPython dict
  operations are GIL-atomic, and the worst a cross-thread race can do is
  drop an increment, which is acceptable for telemetry.  ``snapshot`` and
  ``reset`` do lock so exports are internally consistent.
* **Batched hot loops** — code that counts per-candidate or per-node
  events accumulates locally (e.g. in ``SearchStats``) and adds once per
  query, so the registry never sits inside a tight loop.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "BUCKETS_PER_DECADE",
    "Histogram",
    "MetricsRegistry",
    "bucket_index",
    "bucket_bounds",
    "histogram_delta",
    "metric_key",
    "quantile_from_snapshot",
    "global_metrics",
    "reset_global_metrics",
]


def metric_key(name: str, labels: dict[str, object] | None = None) -> str:
    """Render ``name`` plus label dimensions into a registry key.

    ``metric_key("q", {"path": "linear"})`` → ``"q{path=linear}"``.
    Labels are sorted so the same dimensions always yield the same key.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


# ----------------------------------------------------------------------
# Log-bucket histograms
# ----------------------------------------------------------------------

#: Buckets per factor of ten.  10 gives a relative bucket width of
#: ``10**0.1 ≈ 1.26`` — a quantile read off a bucket boundary is within
#: ~26% of the exact value, at ~90 buckets for the whole microsecond-to-
#: minute latency range.
BUCKETS_PER_DECADE = 10

#: Sentinel bucket index for non-positive observations (log undefined).
#: Far below any reachable log bucket so sorted-index walks stay correct.
ZERO_BUCKET = -(10**9)

_LOG_FACTOR = BUCKETS_PER_DECADE / math.log(10.0)

#: Summary keys derived at snapshot time; ignored by :meth:`Histogram.absorb`.
_DERIVED_KEYS = ("p50", "p95", "p99")


def bucket_index(value: float) -> int:
    """The fixed log-bucket index holding ``value``.

    Bucket ``i`` covers ``(10**(i/N), 10**((i+1)/N)]`` with
    ``N = BUCKETS_PER_DECADE``; values ``<= 0`` land in the dedicated
    :data:`ZERO_BUCKET`.
    """
    if value <= 0.0:
        return ZERO_BUCKET
    return math.floor(math.log(value) * _LOG_FACTOR)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``(lower, upper]`` bounds of bucket ``index`` (zero bucket: [0, 0])."""
    if index == ZERO_BUCKET:
        return (0.0, 0.0)
    return (
        10.0 ** (index / BUCKETS_PER_DECADE),
        10.0 ** ((index + 1) / BUCKETS_PER_DECADE),
    )


class Histogram:
    """One fixed log-bucket distribution (see the module docstring).

    The mutable state is four scalars plus a sparse ``{index: count}``
    bucket dict; ``observe`` is a handful of dict/float operations and
    takes no lock (a cross-thread race can at worst drop an observation).
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile (``0 <= q <= 1``), accurate to one bucket.

        Returns the upper bound of the bucket holding the exact empirical
        quantile, clamped into ``[min, max]`` — so the answer never
        exceeds an observed value and single-valued histograms are exact.
        ``None`` when nothing was observed.
        """
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                upper = bucket_bounds(index)[1]
                return min(max(upper, self.min), self.max)
        return self.max  # unreachable unless counts raced; stay safe

    def absorb(self, other: "Histogram | dict") -> None:
        """Merge another histogram (or its snapshot dict) in, losslessly.

        Bucket counts add exactly, so absorb is associative and
        commutative — the property the cross-worker metric transport and
        ``repro cache``-style merges rely on.  A legacy summary-only
        snapshot (no ``"buckets"``) is folded in by bucketing its mean
        ``count`` times: the summary scalars stay exact and the
        distribution mass lands within one bucket of the mean.
        """
        if isinstance(other, Histogram):
            count, total = other.count, other.sum
            low, high = other.min, other.max
            buckets: dict = other.buckets
        else:
            count = int(other.get("count", 0))
            total = float(other.get("sum", 0.0))
            low = float(other.get("min", math.inf))
            high = float(other.get("max", -math.inf))
            raw = other.get("buckets")
            if raw is None:
                mean = total / count if count else 0.0
                buckets = {bucket_index(mean): count} if count else {}
            else:
                buckets = {int(k): int(v) for k, v in raw.items()}
        if count == 0:
            return
        self.count += count
        self.sum += total
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        for index, bucket_count in buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    def snapshot(self) -> dict:
        """The detached JSON-able form: old summary keys + buckets + quantiles.

        Shape (a compatible superset of the pre-bucketing summary)::

            {"count": int, "sum": float, "min": float, "max": float,
             "buckets": {"<index>": int},          # sparse, JSON string keys
             "p50": float, "p95": float, "p99": float}

        The ``p*`` keys are derived for human and dashboard convenience;
        :meth:`absorb` ignores them and recomputes from the buckets.
        """
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }
        for key, q in zip(_DERIVED_KEYS, (0.50, 0.95, 0.99)):
            out[key] = self.quantile(q)
        return out

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Histogram":
        """Rebuild a live histogram from its :meth:`snapshot` form."""
        hist = cls()
        hist.absorb(snapshot)
        return hist


def quantile_from_snapshot(snapshot: dict | None, q: float) -> float | None:
    """The ``q``-quantile of a snapshot-form histogram (``None`` if empty).

    This is how consumers that only hold the wire form — ``repro report``
    over JSONL files, ``bench_serve.py`` over a ``GET /metrics`` response —
    read quantiles from the exact same buckets the registry holds.
    """
    if not snapshot:
        return None
    return Histogram.from_snapshot(snapshot).quantile(q)


def histogram_delta(current: dict, base: dict | None) -> dict | None:
    """The snapshot-form difference ``current - base`` (bucket-exact).

    Used by pool workers to ship per-chunk histogram increments: bucket
    counts and ``count``/``sum`` subtract exactly; ``min``/``max`` cannot
    be recovered for a window, so the *running* extrema are shipped —
    absorbing them repeatedly is idempotent (``min``/``max`` converge to
    the whole-run values), keeping merged summaries correct.  Returns
    ``None`` when nothing changed.
    """
    base = base or {}
    count = int(current.get("count", 0)) - int(base.get("count", 0))
    if count <= 0:
        return None
    base_buckets = base.get("buckets") or {}
    buckets = {}
    for key, value in (current.get("buckets") or {}).items():
        diff = int(value) - int(base_buckets.get(key, 0))
        if diff:
            buckets[key] = diff
    return {
        "count": count,
        "sum": float(current.get("sum", 0.0)) - float(base.get("sum", 0.0)),
        "min": current.get("min", math.inf),
        "max": current.get("max", -math.inf),
        "buckets": buckets,
    }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------

    def inc(self, name: str, value: int = 1, **labels: object) -> None:
        """Add ``value`` to the counter ``name`` (created at 0 on first use)."""
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into the log-bucket histogram ``name``."""
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms.setdefault(key, Histogram())
        hist.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels: object) -> float | None:
        """Current value of a gauge, or ``None`` if never set."""
        return self._gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels: object) -> dict | None:
        """Snapshot dict of a histogram, or ``None`` if never observed."""
        hist = self._histograms.get(metric_key(name, labels))
        return hist.snapshot() if hist is not None else None

    def quantile(self, name: str, q: float, **labels: object) -> float | None:
        """The ``q``-quantile of a histogram (``None`` if never observed)."""
        hist = self._histograms.get(metric_key(name, labels))
        return hist.quantile(q) if hist is not None else None

    def snapshot(self) -> dict:
        """A consistent, detached export of every instrument.

        Shape::

            {"counters": {key: int},
             "gauges": {key: float},
             "histograms": {key: <Histogram.snapshot() dict>}}
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: v.snapshot() for k, v in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every instrument back to its initial (absent) state."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def absorb(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot`-shaped export into this registry.

        Counters sum and histograms merge bucket-exactly, so absorb is
        associative and commutative over them (the property test in
        ``tests/test_obs.py`` holds it to that); gauges are point-in-time
        values, so the incoming write wins, same as :meth:`set_gauge`.
        This is how metrics cross process boundaries: batch workers ship
        snapshot deltas back (a registry holds a lock and cannot be
        pickled), and the parent folds them in here.
        """
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            self._gauges.update(snapshot.get("gauges", {}))
            for key, hist in snapshot.get("histograms", {}).items():
                mine = self._histograms.get(key)
                if mine is None:
                    mine = self._histograms.setdefault(key, Histogram())
                mine.absorb(hist)

    def merged_with(self, other: "MetricsRegistry") -> dict:
        """Snapshot of ``self`` overlaid with ``other``.

        Counters sum, histograms merge losslessly, ``other``'s gauges
        win.  Used by the CLI and the service's ``/metrics`` to print one
        unified view from the global registry plus a private one.
        """
        merged = MetricsRegistry()
        merged.absorb(self.snapshot())
        merged.absorb(other.snapshot())
        return merged.snapshot()


#: Process-wide default registry.  Module-level engine code (matching,
#: embedding, the general search) records here; per-detector state lives
#: in each detector's own registry.
_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL


def reset_global_metrics() -> None:
    """Reset the process-wide registry (tests, benchmark isolation)."""
    _GLOBAL.reset()
