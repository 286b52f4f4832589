"""Aggregate trace/access JSONL files into latency and hit-rate reports.

This is the offline half of the telemetry story: the service (or a CLI
run with ``--trace``) writes JSON-lines records, and ``repro report``
turns one or more of those files into the tables an operator actually
wants — per-phase p50/p95/p99, per-detector-path breakdowns, and
per-route/verdict access summaries with their verdict-cache hit rates.

Two record shapes are understood, distinguished per line:

* **span records** (``Span.to_dict``): have ``"name"`` and ``"dur_ms"``.
  Grouped by span name; ``detector.dispatch`` spans additionally break
  down by their ``attrs.path`` (linear/general/complex).
* **access records** (the service's ``--access-log``): have
  ``"type": "access"``.  Grouped by route; verdict and outcome counts,
  queue-wait and total-latency percentiles, cache hit rate.

Unknown lines (malformed JSON, other record types) are counted, not
fatal — a report over a file that a crashed process half-wrote should
still render the parseable prefix, same contract as ``JsonlSink``.

Percentiles here are **exact** (computed from the raw per-record
durations, nearest-rank), which is what makes the test suite's
"histogram quantile within one bucket of exact" check meaningful: the
live registry answers from log buckets, this module answers from the
raw stream, and the two must agree to bucket resolution.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable

__all__ = [
    "load_records",
    "exact_percentile",
    "build_report",
    "render_report",
]


def load_records(paths: Iterable[str]) -> tuple[list[dict], list[dict], int]:
    """Read JSONL files into (span_records, access_records, skipped_count).

    Lines that fail to parse or match neither shape are skipped (counted
    in the third element) so partial files degrade gracefully.
    """
    spans: list[dict] = []
    access: list[dict] = []
    skipped = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    skipped += 1
                    continue
                if not isinstance(record, dict):
                    skipped += 1
                elif record.get("type") == "access":
                    access.append(record)
                elif "name" in record and "dur_ms" in record:
                    spans.append(record)
                else:
                    skipped += 1
    return spans, access, skipped


def exact_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile of raw values (``None`` on empty input)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _duration_stats(values: list[float]) -> dict:
    """The standard per-group latency summary used throughout the report."""
    return {
        "count": len(values),
        "total_ms": sum(values),
        "p50_ms": exact_percentile(values, 0.50),
        "p95_ms": exact_percentile(values, 0.95),
        "p99_ms": exact_percentile(values, 0.99),
        "max_ms": max(values) if values else None,
    }


def _ratio(hits: int, total: int) -> float | None:
    return hits / total if total else None


def build_report(
    spans: list[dict],
    access: list[dict],
    skipped: int = 0,
) -> dict:
    """The full aggregate as one JSON-able dict (the ``--json`` output).

    Shape::

        {"records": {"spans": N, "access": N, "skipped": N},
         "phases": {span_name: {count, total_ms, p50_ms, p95_ms, p99_ms, max_ms}},
         "detectors": {path: {... same keys ..., "verdicts": {verdict: N}}},
         "routes": {route: {count, errors, degraded, cache_hit_rate,
                            p50_ms, p95_ms, p99_ms,
                            queue_wait_p95_ms, verdicts: {verdict: N}}},
         "request_ids": {"spans_with_id": N, "access_with_id": N,
                         "distinct": N}}

    Keys hold ``None``/empty subtables rather than disappearing, so
    consumers can index without existence checks.
    """
    phases: dict[str, list[float]] = {}
    detector_durations: dict[str, list[float]] = {}
    detector_verdicts: dict[str, dict[str, int]] = {}
    request_ids: set[str] = set()
    spans_with_id = 0

    for record in spans:
        name = str(record["name"])
        duration = float(record["dur_ms"])
        phases.setdefault(name, []).append(duration)
        rid = record.get("request_id")
        if rid:
            spans_with_id += 1
            request_ids.add(str(rid))
        attrs = record.get("attrs") or {}
        if name == "detector.dispatch":
            path = str(attrs.get("path", "unknown"))
            detector_durations.setdefault(path, []).append(duration)
            verdict = attrs.get("verdict")
            if verdict is not None:
                by_verdict = detector_verdicts.setdefault(path, {})
                by_verdict[str(verdict)] = by_verdict.get(str(verdict), 0) + 1

    routes: dict[str, dict] = {}
    access_with_id = 0
    for record in access:
        route = str(record.get("route", "unknown"))
        bucket = routes.setdefault(
            route,
            {
                "count": 0,
                "durations": [],
                "queue_waits": [],
                "errors": 0,
                "degraded": 0,
                "cache_lookups": 0,
                "cache_hits": 0,
                "verdicts": {},
            },
        )
        bucket["count"] += 1
        total_ms = record.get("total_ms")
        if isinstance(total_ms, int | float):
            bucket["durations"].append(float(total_ms))
        queue_wait = record.get("queue_wait_ms")
        if isinstance(queue_wait, int | float):
            bucket["queue_waits"].append(float(queue_wait))
        status = record.get("status")
        if isinstance(status, int) and status >= 400:
            bucket["errors"] += 1
        if record.get("degraded"):
            bucket["degraded"] += 1
        cached = record.get("cached")
        if cached is not None:
            bucket["cache_lookups"] += 1
            if cached:
                bucket["cache_hits"] += 1
        verdict = record.get("verdict")
        if verdict is not None:
            bucket["verdicts"][str(verdict)] = (
                bucket["verdicts"].get(str(verdict), 0) + 1
            )
        rid = record.get("request_id")
        if rid:
            access_with_id += 1
            request_ids.add(str(rid))

    report_routes = {}
    for route, bucket in sorted(routes.items()):
        durations = bucket["durations"]
        report_routes[route] = {
            "count": bucket["count"],
            "errors": bucket["errors"],
            "degraded": bucket["degraded"],
            "cache_hit_rate": _ratio(
                bucket["cache_hits"], bucket["cache_lookups"]
            ),
            "p50_ms": exact_percentile(durations, 0.50),
            "p95_ms": exact_percentile(durations, 0.95),
            "p99_ms": exact_percentile(durations, 0.99),
            "queue_wait_p95_ms": exact_percentile(bucket["queue_waits"], 0.95),
            "verdicts": dict(sorted(bucket["verdicts"].items())),
        }

    return {
        "records": {
            "spans": len(spans),
            "access": len(access),
            "skipped": skipped,
        },
        "phases": {
            name: _duration_stats(values)
            for name, values in sorted(phases.items())
        },
        "detectors": {
            path: {
                **_duration_stats(values),
                "verdicts": dict(
                    sorted(detector_verdicts.get(path, {}).items())
                ),
            }
            for path, values in sorted(detector_durations.items())
        },
        "routes": report_routes,
        "request_ids": {
            "spans_with_id": spans_with_id,
            "access_with_id": access_with_id,
            "distinct": len(request_ids),
        },
    }


def _fmt(value: float | None, width: int = 9) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def _fmt_rate(value: float | None) -> str:
    return "-" if value is None else f"{value * 100.0:.1f}%"


def render_report(report: dict) -> str:
    """The human-readable table form of :func:`build_report`'s output."""
    lines: list[str] = []
    records = report["records"]
    lines.append(
        f"records: {records['spans']} spans, {records['access']} access"
        + (f", {records['skipped']} skipped" if records["skipped"] else "")
    )

    if report["phases"]:
        lines.append("")
        lines.append("per-phase latency (ms)")
        header = (
            f"  {'phase':<28} {'count':>7} {'p50':>9} {'p95':>9}"
            f" {'p99':>9} {'max':>9}"
        )
        lines.append(header)
        for name, stats in report["phases"].items():
            lines.append(
                f"  {name:<28} {stats['count']:>7}"
                f" {_fmt(stats['p50_ms'])} {_fmt(stats['p95_ms'])}"
                f" {_fmt(stats['p99_ms'])} {_fmt(stats['max_ms'])}"
            )

    if report["detectors"]:
        lines.append("")
        lines.append("detector paths (ms)")
        for path, stats in report["detectors"].items():
            verdicts = ", ".join(
                f"{v}={n}" for v, n in stats["verdicts"].items()
            )
            lines.append(
                f"  {path:<28} {stats['count']:>7}"
                f" {_fmt(stats['p50_ms'])} {_fmt(stats['p95_ms'])}"
                f" {_fmt(stats['p99_ms'])} {_fmt(stats['max_ms'])}"
                + (f"  [{verdicts}]" if verdicts else "")
            )

    if report["routes"]:
        lines.append("")
        lines.append("routes (ms)")
        for route, stats in report["routes"].items():
            verdicts = ", ".join(
                f"{v}={n}" for v, n in stats["verdicts"].items()
            )
            lines.append(
                f"  {route:<28} {stats['count']:>7}"
                f" {_fmt(stats['p50_ms'])} {_fmt(stats['p95_ms'])}"
                f" {_fmt(stats['p99_ms'])}"
                f"  errors={stats['errors']} degraded={stats['degraded']}"
                f" cache={_fmt_rate(stats['cache_hit_rate'])}"
                + (f"  [{verdicts}]" if verdicts else "")
            )

    ids = report["request_ids"]
    if ids["distinct"]:
        lines.append("")
        lines.append(
            f"request ids: {ids['distinct']} distinct"
            f" ({ids['spans_with_id']} spans, {ids['access_with_id']} access)"
        )

    return "\n".join(lines)
