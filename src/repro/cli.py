"""Command-line interface: ``python -m repro <command> ...``.

The subcommands expose the library's main entry points:

* ``eval``      — evaluate an XPath pattern against a document;
* ``check``     — decide a read-update conflict (the core question);
* ``commute``   — decide whether two updates commute (exact for linear
  updates without value tests);
* ``matrix``    — decide every pair of a named operation catalogue;
* ``schedule``  — partition a catalogue into interference-free batches;
* ``analyze``   — dependence analysis / optimization of a pidgin program;
* ``validate``  — DTD validation of a document;
* ``serve``     — run the long-running conflict-analysis server
  (``docs/SERVICE.md``): warm caches, admission control, graceful
  SIGTERM drain;
* ``cluster serve`` — the fault-tolerant sharded tier: N supervised
  shard processes behind a health-checked consistent-hash router
  (``docs/SERVICE.md``, "Sharding & failover");
* ``cache``     — operate on verdict-cache snapshots: ``inspect`` one,
  or ``merge`` several into one;
* ``replay``    — run a replication scenario file (``docs/REPLICATION.md``)
  against the in-process engine or a live service/cluster endpoint:
  exit ``0`` when the session converged, ``1`` when replicas diverged.

Exit codes for the decision commands (``check``/``commute``/``matrix``/
``schedule``): ``0`` = no conflict / valid, ``1`` = conflict / invalid,
``2`` = undecided within the search budget, ``3`` = *degraded* — the
resilience layer forced at least one conservative ``UNKNOWN`` (budget
timeout, step limit, or worker crash; the reason travels in the verdict).
Precedence when several apply: ``1`` > ``3`` > ``2`` > ``0``.

The decision commands take ``--timeout SECONDS`` and ``--max-steps N``
(cooperative per-decision budgets: exceeding either yields ``UNKNOWN``
with reason ``timeout``/``step_limit`` instead of running away);
``matrix`` and ``schedule`` additionally take ``--retries N`` for the
worker-pool quarantine machinery (see ``docs/RESILIENCE.md``).

``matrix`` and ``schedule`` read the catalogue as JSON — a mapping from
operation name to spec::

    {"titles":  {"op": "read",   "xpath": "bib/book/title"},
     "restock": {"op": "insert", "xpath": "bib/book", "xml": "<restock/>"},
     "purge":   {"op": "delete", "xpath": "bib/book"}}

Both take ``--jobs N`` (decide undecided unique pairs across N worker
processes; ``0`` = all cores) and ``--cache FILE`` (load a verdict-cache
snapshot if it exists, save it back after).  ``check``, ``commute``,
``matrix`` and ``schedule`` accept ``--json`` for machine-readable
output with a stable schema (verdict, kind, method, notes, witness
sketch, stats).

Every subcommand additionally accepts the observability flags
(``docs/OBSERVABILITY.md``):

* ``--stats`` — after the command, print the per-query breakdown: which
  algorithm path ran, the tracing spans at or above ``--stats-min-ms``,
  and a counter snapshot (detector-local + engine-global);
* ``--trace FILE`` — write every tracing span as one JSON object per line
  to ``FILE`` (append mode).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from repro import obs
from repro.conflicts.batch import BatchAnalyzer, Operation
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import ConflictKind, ConflictReport, Verdict
from repro.conflicts.verdict_cache import VerdictCache
from repro.errors import ReproError
from repro.lang.analysis import (
    dependence_graph,
    find_redundant_reads,
    hoist_reads,
    optimize,
)
from repro.lang.parser import parse_program
from repro.operations.ops import Delete, Insert, Read, UpdateOp
from repro.patterns.xpath import parse_xpath
from repro.schema.dtd import DTD
from repro.schema.validator import validate as dtd_validate
from repro.xml.parser import parse as parse_xml
from repro.xml.serializer import serialize

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    sinks: list = []
    ring: obs.RingBufferSink | None = None
    if args.trace:
        try:
            sinks.append(obs.JsonlSink(args.trace))
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 64
    if args.stats:
        ring = obs.RingBufferSink()
        sinks.append(ring)
    if not sinks:
        try:
            return args.handler(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 64
    with obs.tracing(*sinks):
        try:
            code = args.handler(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 64
        if ring is not None:
            _print_stats(args, ring)
    return code


def _print_stats(args: argparse.Namespace, ring: obs.RingBufferSink) -> None:
    """The ``--stats`` per-query breakdown (path, spans, counters)."""
    detector: ConflictDetector | None = getattr(args, "_detector", None)
    print("--- stats ---")
    if detector is not None:
        counters = detector.metrics()["counters"]
        paths = sorted(
            key.split("path=", 1)[1].rstrip("}")
            for key in counters
            if key.startswith("conflict.queries_total{")
        )
        if paths:
            print(f"path: {', '.join(paths)}")
    threshold = args.stats_min_ms
    print(f"spans (>= {threshold:g} ms):")
    shown = 0
    for record in ring.spans():
        if record["dur_ms"] < threshold:
            continue
        shown += 1
        indent = "  " * record["depth"]
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(record["attrs"].items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        print(f"  {indent}{record['name']:<28} {record['dur_ms']:8.3f} ms{suffix}")
    if not shown:
        print("  (none)")
    merged = obs.global_metrics().snapshot()
    if detector is not None:
        merged = obs.global_metrics().merged_with(detector.metrics_registry)
    print("counters:")
    if not merged["counters"]:
        print("  (none)")
    for key in sorted(merged["counters"]):
        print(f"  {key:<44} {merged['counters'][key]}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conflict detection for XPath-driven XML updates "
        "(Raghavachari & Shmueli, EDBT 2006).",
    )
    # Observability flags, shared by every subcommand via a parent parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--stats",
        action="store_true",
        help="print a per-query breakdown after the command (path taken, "
        "tracing spans, counter snapshot)",
    )
    common.add_argument(
        "--stats-min-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="only show spans at least this long in --stats output",
    )
    common.add_argument(
        "--trace",
        metavar="FILE",
        help="append tracing spans to FILE as JSON-lines",
    )
    sub = parser.add_subparsers(required=True, parser_class=argparse.ArgumentParser)

    def add_command(name: str, **kwargs):  # type: ignore[no-untyped-def]
        return sub.add_parser(name, parents=[common], **kwargs)

    p_eval = add_command("eval", help="evaluate an XPath pattern on a document")
    p_eval.add_argument("--xpath", required=True)
    _add_document_args(p_eval)
    p_eval.add_argument(
        "--subtrees", action="store_true", help="print the selected subtrees"
    )
    p_eval.set_defaults(handler=_cmd_eval)

    p_check = add_command("check", help="decide a read-update conflict")
    p_check.add_argument("--read", required=True, help="read XPath")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--insert", help="insert XPath")
    group.add_argument("--delete", help="delete XPath")
    p_check.add_argument(
        "--xml", default="<x/>", help="XML inserted by --insert (default <x/>)"
    )
    p_check.add_argument(
        "--kind",
        choices=[k.value for k in ConflictKind],
        default="node",
        help="conflict semantics (default: node)",
    )
    p_check.add_argument(
        "--budget", type=int, default=5,
        help="witness-size cap for branching reads (default 5)",
    )
    _add_resilience_args(p_check)
    p_check.add_argument(
        "--witness", action="store_true", help="print a witness document"
    )
    p_check.add_argument(
        "--schema",
        help="path to a DTD: only documents valid against it count as "
        "witnesses (schema-constrained detection; exit 2 when no valid "
        "witness is found within the budget)",
    )
    _add_json_arg(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_commute = add_command(
        "commute",
        help="decide whether two updates commute (exact for identical "
        "updates and for linear ones without value tests)",
    )
    for index in ("1", "2"):
        group2 = p_commute.add_mutually_exclusive_group(required=True)
        group2.add_argument(f"--insert{index}", help=f"update {index}: insert XPath")
        group2.add_argument(f"--delete{index}", help=f"update {index}: delete XPath")
        p_commute.add_argument(
            f"--xml{index}", default="<x/>", help=f"XML for --insert{index}"
        )
    p_commute.add_argument(
        "--budget",
        type=int,
        default=4,
        help="size cap of the witness search that branching and value-test "
        "pairs take (exit 2 when it finds no witness)",
    )
    _add_resilience_args(p_commute)
    p_commute.add_argument("--witness", action="store_true")
    _add_json_arg(p_commute)
    p_commute.set_defaults(handler=_cmd_commute)

    p_matrix = add_command(
        "matrix", help="decide every pair of a named operation catalogue"
    )
    _add_catalogue_args(p_matrix)
    p_matrix.add_argument(
        "--render", action="store_true",
        help="print the full matrix table (default prints pair verdicts)",
    )
    p_matrix.set_defaults(handler=_cmd_matrix)

    p_schedule = add_command(
        "schedule",
        help="partition a catalogue into interference-free parallel batches",
    )
    _add_catalogue_args(p_schedule)
    p_schedule.set_defaults(handler=_cmd_schedule)

    p_analyze = add_command("analyze", help="analyze a pidgin update program")
    p_analyze.add_argument("program", help="path to the program ('-' for stdin)")
    p_analyze.add_argument(
        "--optimize", action="store_true", help="apply read-CSE and print the result"
    )
    p_analyze.add_argument(
        "--hoist", action="store_true",
        help="hoist reads above non-conflicting updates and print the result",
    )
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_validate = add_command("validate", help="validate a document against a DTD")
    p_validate.add_argument("--dtd", required=True, help="path to DTD text")
    _add_document_args(p_validate)
    p_validate.set_defaults(handler=_cmd_validate)

    p_serve = add_command(
        "serve",
        help="run the long-running conflict-analysis HTTP server",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 8466; 0 binds an ephemeral port, printed "
        "on the 'listening' line for scripts to parse)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="concurrent decisions (default 4)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="admitted-but-waiting requests before new ones get 429 "
        "(default 64)",
    )
    p_serve.add_argument(
        "--cache", metavar="FILE",
        help="persistent verdict-cache snapshot: loaded (with salvage) on "
        "boot, written periodically and on drain",
    )
    p_serve.add_argument(
        "--snapshot-interval", type=float, default=30.0, metavar="SECONDS",
        help="seconds between periodic cache snapshots (default 30)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-decision deadline applied to requests that carry "
        "no deadline_ms of their own",
    )
    p_serve.add_argument(
        "--log-requests", action="store_true",
        help="emit an access-log line per request to stderr",
    )
    p_serve.add_argument(
        "--access-log", metavar="FILE",
        help="append one structured JSONL record per request (id, route, "
        "verdict, cache hit, queue wait, timings, outcome); aggregate "
        "with 'repro report'",
    )
    p_serve.add_argument(
        "--shard-id", type=int, default=None, metavar="N",
        help="run as shard N of a cluster: the cache snapshot becomes "
        "<path>.shardN, /healthz reports the shard identity, and the "
        "cluster fault rules (shard_kill/shard_hang) arm against this "
        "shard's keys.  Set by 'repro cluster serve'; the shard "
        "generation is read from $REPRO_SHARD_GENERATION",
    )
    p_serve.set_defaults(handler=_cmd_serve)

    p_cluster = add_command(
        "cluster",
        help="run the fault-tolerant sharded service tier",
    )
    cluster_sub = p_cluster.add_subparsers(
        required=True, dest="cluster_command",
        parser_class=argparse.ArgumentParser,
    )
    p_cluster_serve = cluster_sub.add_parser(
        "serve",
        help="supervise N shard processes behind a health-checked "
        "consistent-hash router (docs/SERVICE.md, 'Sharding & failover')",
    )
    p_cluster_serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface the router binds (default loopback)",
    )
    p_cluster_serve.add_argument(
        "--port", type=int, default=0,
        help="router TCP port (default 0: ephemeral, printed on the "
        "'listening' line for scripts to parse)",
    )
    p_cluster_serve.add_argument(
        "--shards", type=int, default=3, metavar="N",
        help="supervised shard processes (default 3)",
    )
    p_cluster_serve.add_argument(
        "--workers-per-shard", type=int, default=2, metavar="N",
        help="concurrent decisions inside each shard (default 2)",
    )
    p_cluster_serve.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="each shard's admission queue depth (default 64)",
    )
    p_cluster_serve.add_argument(
        "--cache", metavar="FILE",
        help="shared verdict-cache base path; shard N persists to "
        "FILE.shardN",
    )
    p_cluster_serve.add_argument(
        "--snapshot-interval", type=float, default=30.0, metavar="SECONDS",
        help="per-shard periodic cache snapshot interval (default 30)",
    )
    p_cluster_serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-decision deadline forwarded to each shard",
    )
    p_cluster_serve.add_argument(
        "--probe-interval", type=float, default=0.5, metavar="SECONDS",
        help="seconds between shard liveness probes (default 0.5)",
    )
    p_cluster_serve.add_argument(
        "--unhealthy-after", type=int, default=3, metavar="K",
        help="consecutive probe-or-request failures that evict a shard "
        "from routing (default 3)",
    )
    p_cluster_serve.add_argument(
        "--healthy-after", type=int, default=2, metavar="K",
        help="consecutive probe successes that restore an evicted shard "
        "(default 2)",
    )
    p_cluster_serve.add_argument(
        "--log-requests", action="store_true",
        help="emit access-log lines from the router and every shard",
    )
    p_cluster_serve.set_defaults(handler=_cmd_cluster_serve)
    p_cluster.set_defaults(handler=_cmd_cluster_serve)

    p_report = add_command(
        "report",
        help="aggregate trace/access JSONL files into latency and "
        "hit-rate tables",
    )
    p_report.add_argument(
        "files", nargs="+", metavar="FILE",
        help="JSONL inputs: --trace span files and/or --access-log files "
        "(mixed freely; unknown lines are skipped)",
    )
    _add_json_arg(p_report)
    p_report.set_defaults(handler=_cmd_report)

    p_cache = add_command(
        "cache", help="inspect or merge verdict-cache snapshots"
    )
    cache_sub = p_cache.add_subparsers(
        required=True, dest="cache_command", parser_class=argparse.ArgumentParser
    )
    p_inspect = cache_sub.add_parser(
        "inspect", help="entry count, version, and per-kind breakdown"
    )
    p_inspect.add_argument("snapshot", help="path to a snapshot file")
    _add_json_arg(p_inspect)
    p_merge = cache_sub.add_parser(
        "merge", help="merge N snapshots into one (existing entries win)"
    )
    p_merge.add_argument(
        "--out", required=True, metavar="FILE",
        help="path the merged snapshot is written to (parents created)",
    )
    p_merge.add_argument(
        "snapshots", nargs="+", help="input snapshot files, in priority order"
    )
    _add_json_arg(p_merge)
    p_cache.set_defaults(handler=_cmd_cache)

    p_replay = add_command(
        "replay",
        help="run a replication scenario (see docs/REPLICATION.md)",
    )
    p_replay.add_argument("scenario", help="path to a scenario JSON file")
    p_replay.add_argument(
        "--resolver",
        metavar="NAME",
        help="override the scenario's resolver "
        "(local-wins, remote-wins, last-writer-wins)",
    )
    p_replay.add_argument(
        "--service-port",
        type=int,
        metavar="PORT",
        help="classify pairs through a live repro serve / cluster serve "
        "endpoint on this port instead of in-process",
    )
    p_replay.add_argument(
        "--service-host",
        default="127.0.0.1",
        metavar="HOST",
        help="host of the service endpoint (default 127.0.0.1)",
    )
    p_replay.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        help="per-pair deadline forwarded to the service backend",
    )
    _add_json_arg(p_replay)
    p_replay.set_defaults(handler=_cmd_replay)

    return parser


def _add_document_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="path to an XML document")
    group.add_argument("--xml-text", help="inline XML document text")


def _add_json_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-decision deadline; an exceeded decision degrades to "
        "UNKNOWN with reason 'timeout' (exit code 3)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="per-decision search-step cap; an exceeded decision degrades "
        "to UNKNOWN with reason 'step_limit' (exit code 3)",
    )


def _add_catalogue_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ops", required=True, metavar="FILE",
        help="JSON catalogue: {name: {op: read|insert|delete, xpath, xml?}} "
        "('-' reads stdin)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for undecided pairs (1 = serial, 0 = all cores)",
    )
    parser.add_argument(
        "--kind",
        choices=[k.value for k in ConflictKind],
        default="node",
        help="conflict semantics for read-update pairs (default: node)",
    )
    parser.add_argument(
        "--budget", type=int, default=5,
        help="witness-size cap for branching/commutativity queries (default 5)",
    )
    parser.add_argument(
        "--cache", metavar="FILE",
        help="verdict-cache snapshot: loaded if it exists, saved back after",
    )
    _add_resilience_args(parser)
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-dispatches of a crashed/timed-out single-pair chunk before "
        "the pair is quarantined as UNKNOWN (default 2)",
    )
    parser.add_argument(
        "--no-index", action="store_true",
        help="disable the static pattern index pre-pass (every non-trivial "
        "pair goes through cache + decision procedure)",
    )
    _add_json_arg(parser)


def _load_document(args: argparse.Namespace):  # type: ignore[no-untyped-def]
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            return parse_xml(handle.read())
    return parse_xml(args.xml_text)


def _cmd_eval(args: argparse.Namespace) -> int:
    doc = _load_document(args)
    pattern = parse_xpath(args.xpath)
    read = Read(pattern)
    nodes = sorted(read.apply(doc))
    print(f"{len(nodes)} node(s) selected: {nodes}")
    if args.subtrees:
        for node in nodes:
            print(f"  #{node}: {serialize(doc, node=node)}")
    return 0


def _make_update(path: str | None, delete_path: str | None, xml: str) -> UpdateOp:
    if path is not None:
        return Insert(path, xml)
    assert delete_path is not None
    return Delete(delete_path)


_VERDICT_EXIT = {
    Verdict.NO_CONFLICT: 0,
    Verdict.CONFLICT: 1,
    Verdict.UNKNOWN: 2,
}

#: Exit code for a degraded run: the resilience layer forced at least one
#: conservative UNKNOWN (timeout / step_limit / worker_crash).
EXIT_DEGRADED = 3


def _report_exit_code(report: ConflictReport) -> int:
    if report.verdict is Verdict.UNKNOWN and report.degraded:
        return EXIT_DEGRADED
    return _VERDICT_EXIT[report.verdict]


def _report_payload(command: str, report: ConflictReport) -> dict:
    """The stable ``--json`` schema for one conflict decision."""
    witness = None
    if report.witness is not None:
        witness = {
            "sketch": report.witness.sketch(),
            "xml": serialize(report.witness),
        }
    return {
        "command": command,
        "verdict": report.verdict.value,
        "kind": report.kind.value,
        "method": report.method,
        "reason": report.reason,
        "notes": list(report.notes),
        "witness": witness,
        "stats": dict(report.stats),
    }


def _report_exit(
    report: ConflictReport, show_witness: bool, as_json: bool = False,
    command: str = "check",
) -> int:
    if as_json:
        print(json.dumps(_report_payload(command, report), indent=2))
        return _report_exit_code(report)
    print(f"verdict: {report.verdict.value}   (method: {report.method})")
    if report.degraded:
        print(f"degraded: {report.reason}")
    for note in report.notes:
        print(f"note: {note}")
    if show_witness and report.witness is not None:
        print("witness document:")
        for line in report.witness.sketch().splitlines():
            print(f"  {line}")
        print(f"as XML: {serialize(report.witness)}")
    return _report_exit_code(report)


def _cmd_check(args: argparse.Namespace) -> int:
    read = Read(args.read)
    update = _make_update(args.insert, args.delete, args.xml)
    if args.schema:
        from repro.schema.conflicts import decide_conflict_under_schema

        with open(args.schema, encoding="utf-8") as handle:
            dtd = DTD.parse(handle.read())
        report = decide_conflict_under_schema(
            read, update, dtd, ConflictKind(args.kind),
            max_size=max(args.budget, 6),
        )
        return _report_exit(report, args.witness, args.json)
    detector = ConflictDetector(
        kind=ConflictKind(args.kind),
        exhaustive_cap=args.budget,
        deadline_s=args.timeout,
        max_steps=args.max_steps,
    )
    args._detector = detector  # _print_stats reads its metrics for --stats
    report = detector.read_update(read, update)
    return _report_exit(report, args.witness, args.json)


def _cmd_commute(args: argparse.Namespace) -> int:
    detector = ConflictDetector(
        exhaustive_cap=args.budget,
        deadline_s=args.timeout,
        max_steps=args.max_steps,
    )
    args._detector = detector  # _print_stats reads its metrics for --stats
    first = _make_update(args.insert1, args.delete1, args.xml1)
    second = _make_update(args.insert2, args.delete2, args.xml2)
    report = detector.update_update(first, second)
    return _report_exit(report, args.witness, args.json, command="commute")


def _load_catalogue(path: str) -> dict[str, Operation]:
    """Parse the ``matrix``/``schedule`` JSON catalogue format.

    The spec grammar is shared with the service wire protocol
    (:mod:`repro.service.protocol`), so a catalogue file works unchanged
    as the ``ops`` object of a ``POST /v1/matrix`` body.
    """
    from repro.service.protocol import catalogue_from_specs

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"catalogue is not valid JSON: {exc}") from exc
    return catalogue_from_specs(data)


def _make_analyzer(args: argparse.Namespace) -> BatchAnalyzer:
    cache = None
    if args.cache and os.path.exists(args.cache):
        cache = VerdictCache.load(args.cache)
    config = DetectorConfig(
        kind=ConflictKind(args.kind),
        exhaustive_cap=args.budget,
        deadline_s=args.timeout,
        max_steps=args.max_steps,
    )
    return BatchAnalyzer(
        config,
        jobs=args.jobs,
        cache=cache,
        retries=args.retries,
        index=not args.no_index,
    )


def _matrix_exit(matrix) -> int:  # type: ignore[no-untyped-def]
    counts = matrix.counts()
    if counts[Verdict.CONFLICT.value]:
        return 1
    if matrix.degraded_count():
        return EXIT_DEGRADED
    if counts[Verdict.UNKNOWN.value]:
        return 2
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    catalogue = _load_catalogue(args.ops)
    analyzer = _make_analyzer(args)
    matrix = analyzer.analyze(catalogue)
    if args.cache:
        analyzer.cache.save(args.cache)
    if args.json:
        payload = {
            "command": "matrix",
            "jobs": analyzer.jobs,
            "quarantine": analyzer.quarantine,
            **matrix.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return _matrix_exit(matrix)
    counts = matrix.counts()
    statically = matrix.discharge_counts()["index"]
    degraded_count = matrix.degraded_count()
    degraded = f", {degraded_count} degraded" if degraded_count else ""
    static = f", {statically} discharged statically" if statically else ""
    print(
        f"{len(matrix.names)} operation(s), {sum(counts.values())} pair(s): "
        f"{counts['conflict']} conflict, {counts['no-conflict']} compatible, "
        f"{counts['unknown']} unknown{degraded}{static}"
    )
    if args.render:
        print(matrix.render())
    else:
        # The listing follows the --json shape: one line per name pair on
        # small catalogues, one per group pair (with its multiplicity) on
        # large ones.
        for entry in matrix.to_dict()["verdicts"]:
            if entry["verdict"] != Verdict.NO_CONFLICT.value:
                times = f" (x{entry['multiplicity']})" if "multiplicity" in entry else ""
                suffix = f" (degraded: {entry['reason']})" if entry["reason"] else ""
                print(
                    f"  {entry['first']} <-> {entry['second']}: "
                    f"{entry['verdict']}{times}{suffix}"
                )
    if analyzer.quarantine:
        print("quarantined pairs (conservative UNKNOWN, not cached):")
        for entry in analyzer.quarantine:
            print(
                f"  {entry['first']} <-> {entry['second']}: {entry['reason']}"
            )
    return _matrix_exit(matrix)


def _cmd_schedule(args: argparse.Namespace) -> int:
    catalogue = _load_catalogue(args.ops)
    analyzer = _make_analyzer(args)
    matrix = analyzer.analyze(catalogue)
    if args.cache:
        analyzer.cache.save(args.cache)
    batches = analyzer.schedule()
    # Degraded pairs are scheduled conservatively (UNKNOWN = may conflict),
    # so the batches are safe either way — but exit 3 tells callers some
    # separation may be unnecessary and a re-run could merge phases.
    degraded_count = matrix.degraded_count()
    exit_code = EXIT_DEGRADED if degraded_count else 0
    if args.json:
        payload = {
            "command": "schedule",
            "jobs": analyzer.jobs,
            "batches": batches,
            "quarantine": analyzer.quarantine,
            "stats": {
                "operations": len(catalogue),
                "batches": len(batches),
                "largest_batch": max((len(b) for b in batches), default=0),
                "degraded": degraded_count,
            },
        }
        print(json.dumps(payload, indent=2))
        return exit_code
    print(f"{len(batches)} phase(s) for {len(catalogue)} operation(s):")
    for index, batch in enumerate(batches, start=1):
        print(f"  phase {index}: {', '.join(batch)}")
    if analyzer.quarantine:
        print("quarantined pairs (treated as may-conflict):")
        for entry in analyzer.quarantine:
            print(
                f"  {entry['first']} <-> {entry['second']}: {entry['reason']}"
            )
    return exit_code


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.program == "-":
        source = sys.stdin.read()
    else:
        with open(args.program, encoding="utf-8") as handle:
            source = handle.read()
    program = parse_program(source)
    report = dependence_graph(program)
    print(f"{len(program)} statement(s); may-conflict edges:")
    for edge in report.edges:
        if edge.reason == "definition":
            continue
        print(
            f"  [{edge.earlier}] <-> [{edge.later}] ({edge.reason}) "
            f"on ${edge.variable}"
        )
    redundant = find_redundant_reads(report)
    for r in redundant:
        print(f"redundant read: [{r.duplicate}] duplicates [{r.original}]")
    if args.optimize:
        result = optimize(program)
        print("optimized program:")
        for statement in result.program:
            print(f"  {statement}")
        if result.aliases:
            print(f"aliases: {result.aliases}")
    if args.hoist:
        hoisted = hoist_reads(program)
        print("hoisted program:")
        for statement in hoisted.program:
            print(f"  {statement}")
        if hoisted.moves:
            print(f"moves (old index -> new index): {hoisted.moves}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.dtd, encoding="utf-8") as handle:
        dtd = DTD.parse(handle.read())
    doc = _load_document(args)
    violations = dtd_validate(doc, dtd)
    if not violations:
        print("valid")
        return 0
    print(f"{len(violations)} violation(s):")
    for violation in violations:
        print(f"  {violation}")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the one-shot commands should not pay for the
    # service stack (http.server, admission machinery) at startup.
    import signal
    import threading

    from repro.service import ConflictService, ServiceConfig
    from repro.service.config import DEFAULT_PORT

    try:
        shard_generation = int(os.environ.get("REPRO_SHARD_GENERATION", "0"))
    except ValueError:
        shard_generation = 0
    config = ServiceConfig(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_path=args.cache,
        snapshot_interval_s=args.snapshot_interval,
        default_deadline_ms=(
            args.timeout * 1000.0 if args.timeout is not None else None
        ),
        log_requests=args.log_requests,
        access_log_path=args.access_log,
        shard_id=args.shard_id,
        shard_generation=shard_generation,
    )
    service = ConflictService(config)
    service.start()
    # Scripts (the CI smoke job, the SIGTERM test) parse this line for
    # the bound port, so its shape is part of the CLI contract.
    print(
        f"repro service listening on http://{service.host}:{service.port}",
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    serve_thread = threading.Thread(
        target=service.serve_forever, name="repro-serve", daemon=True
    )
    serve_thread.start()
    # Polling wait keeps the main thread responsive to signals on every
    # platform (a bare Event.wait() can swallow the wakeup mid-acquire).
    while not stop.wait(0.2):
        pass
    print("repro service draining: finishing admitted requests", flush=True)
    service.drain()
    print("repro service stopped", flush=True)
    return 0


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster import ClusterConfig, ClusterRouter

    # REPRO_FAULTS in this process would arm the *router*; chaos drills
    # want the shard children armed instead.  REPRO_FAULTS_FOR_SHARDS is
    # forwarded to every shard as its REPRO_FAULTS (seed rides along).
    shard_env: dict[str, str] = {}
    shard_faults = os.environ.get("REPRO_FAULTS_FOR_SHARDS")
    if shard_faults:
        shard_env["REPRO_FAULTS"] = shard_faults
        seed = os.environ.get("REPRO_FAULTS_SEED")
        if seed:
            shard_env["REPRO_FAULTS_SEED"] = seed

    config = ClusterConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        queue_depth=args.queue_depth,
        cache_path=args.cache,
        snapshot_interval_s=args.snapshot_interval,
        default_deadline_ms=(
            args.timeout * 1000.0 if args.timeout is not None else None
        ),
        probe_interval_s=args.probe_interval,
        unhealthy_after=args.unhealthy_after,
        healthy_after=args.healthy_after,
        log_requests=args.log_requests,
        shard_env=shard_env or None,
    )
    router = ClusterRouter(config)
    router.start()
    # Same contract as 'repro serve': scripts parse this line for the port.
    print(
        f"repro cluster listening on http://{router.host}:{router.port} "
        f"({config.shards} shard(s))",
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    serve_thread = threading.Thread(
        target=router.serve_forever, name="repro-cluster-serve", daemon=True
    )
    serve_thread.start()
    while not stop.wait(0.2):
        pass
    print("repro cluster draining: finishing admitted requests", flush=True)
    router.drain()
    print("repro cluster stopped", flush=True)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import build_report, load_records, render_report

    spans, access, skipped = load_records(args.files)
    report = build_report(spans, access, skipped)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_command == "inspect":
        return _cmd_cache_inspect(args)
    return _cmd_cache_merge(args)


def _kind_counts(entries: list[dict]) -> dict[str, int]:
    """Pair-kind histogram (``"Delete/Read": 3``) from exported entries.

    The first element of an exported canonical key is the operation's
    class name, so the breakdown needs no re-parsing of the snapshot.
    """
    counts: dict[str, int] = {}
    for entry in entries:
        pair = "/".join(sorted((entry["a"][0], entry["b"][0])))
        counts[pair] = counts.get(pair, 0) + 1
    return dict(sorted(counts.items()))


def _cmd_cache_inspect(args: argparse.Namespace) -> int:
    import warnings

    from repro.errors import CacheCorruptWarning

    try:
        with open(args.snapshot, encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read snapshot: {exc}") from exc
    try:
        version = json.loads(raw).get("version")
    except (json.JSONDecodeError, AttributeError):
        version = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = VerdictCache.load(args.snapshot)
    salvage = [
        str(w.message) for w in caught
        if isinstance(w.message, CacheCorruptWarning)
    ]
    entries = cache.export()
    verdict_counts: dict[str, int] = {}
    for entry in entries:
        verdict_counts[entry["verdict"]] = (
            verdict_counts.get(entry["verdict"], 0) + 1
        )
    configs = {tuple(entry["config"]) for entry in entries}
    if args.json:
        payload = {
            "command": "cache-inspect",
            "snapshot": args.snapshot,
            "version": version,
            "corrupt": bool(salvage),
            "salvage": salvage[0] if salvage else None,
            "entries": len(entries),
            "configs": len(configs),
            "by_kind": _kind_counts(entries),
            "by_verdict": dict(sorted(verdict_counts.items())),
        }
        print(json.dumps(payload, indent=2))
        return 1 if salvage else 0
    state = "corrupt (salvaged)" if salvage else f"version {version}"
    print(
        f"{args.snapshot}: {state}, {len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'}, "
        f"{len(configs)} distinct config(s)"
    )
    for message in salvage:
        print(f"  salvage: {message}")
    for pair, count in _kind_counts(entries).items():
        print(f"  {pair:<16} {count}")
    for verdict, count in sorted(verdict_counts.items()):
        print(f"  verdict {verdict:<16} {count}")
    return 1 if salvage else 0


def _cmd_cache_merge(args: argparse.Namespace) -> int:
    merged = VerdictCache()
    inputs = []
    for path in args.snapshots:
        try:
            cache = VerdictCache.load(path)
        except OSError as exc:
            raise ReproError(f"cannot read snapshot: {exc}") from exc
        added = merged.merge(cache)
        inputs.append({"snapshot": path, "entries": len(cache), "added": added})
    merged.save(args.out)
    if args.json:
        payload = {
            "command": "cache-merge",
            "out": args.out,
            "entries": len(merged),
            "inputs": inputs,
        }
        print(json.dumps(payload, indent=2))
        return 0
    for item in inputs:
        print(
            f"{item['snapshot']}: {item['entries']} entr"
            f"{'y' if item['entries'] == 1 else 'ies'}, "
            f"{item['added']} new"
        )
    print(f"wrote {len(merged)} entr{'y' if len(merged) == 1 else 'ies'} "
          f"to {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.errors import ConvergenceError
    from repro.replication import ServiceBackend, load_scenario, run_scenario

    scenario = load_scenario(args.scenario)
    backend = None
    if args.service_port is not None:
        backend = ServiceBackend(
            port=args.service_port,
            host=args.service_host,
            deadline_ms=args.deadline_ms,
        )
    try:
        result = run_scenario(
            scenario, backend=backend, resolver=args.resolver, strict=False
        )
    except ConvergenceError as exc:
        # Only a mid-scenario assert can still raise here (strict=False
        # covers the final report); treat it the same as a diverged run.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if backend is not None:
            backend.close()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.converged and result.error is None else 1
    status = "converged" if result.converged else "DIVERGED"
    print(
        f"{result.name}: {status} "
        f"({result.replicas} replicas, resolver {result.resolver}, "
        f"verdicts {result.verdict_source})"
    )
    print(
        f"  edits {result.edits}, syncs {result.syncs} "
        f"(+{result.syncs_skipped} skipped), "
        f"pairs {result.pairs_classified} classified / "
        f"{result.pairs_conflicting} conflicting / "
        f"{result.pairs_unproven} unproven"
    )
    if result.resolutions:
        breakdown = ", ".join(
            f"{outcome}={count}"
            for outcome, count in sorted(result.resolutions.items())
        )
        print(f"  resolutions: {breakdown}")
    if result.rounds_to_converge is not None:
        print(f"  rounds to converge: {result.rounds_to_converge}")
    if result.lost_updates:
        print(f"  LOST UPDATES: {result.lost_updates}")
    if result.error:
        print(f"  error: {result.error}")
    return 0 if result.converged and result.error is None else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
