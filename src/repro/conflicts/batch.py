"""Batch conflict analysis: whole-catalogue decisions at scale (Section 7).

The paper's motivating consumer is a compiler asking *set-level*
questions: given a catalogue of named reads and updates, which pairs may
interfere?  Deciding the O(n²) pair matrix one
:class:`~repro.conflicts.detector.ConflictDetector` call at a time
repeats work the catalogue view makes unnecessary:

* a structurally identical pair is decided again for every duplicate;
* nothing runs concurrently.

:class:`BatchAnalyzer` owns the catalogue, so it can do better:

* **plan per shape** — each name computes only its canonical key
  (:func:`op_key`) and joins the matrix group of that key; each group
  is canonicalized and profiled once (one :class:`CanonicalOp` per
  group, not per name), and precompiled once, when one of its pairs
  first reaches a decision;
* **skip read/read pairs** — two reads never conflict, so the matrix
  answers a pair of read groups itself and only group pairs that hold an
  update become decision units;
* **dedup** — pairs are grouped by canonical pair key and each unique
  key is decided exactly once, on the operations of its two groups;
* **share** — verdicts live in a
  :class:`~repro.conflicts.verdict_cache.VerdictCache` that can be
  exported, merged across analyzers, and snapshotted to disk, so
  repeated analyses (and future runs) skip decided pairs;
* **parallelize** — undecided unique pairs are chunked across a process
  pool (``jobs`` workers) that receives each referenced group's
  operation once, as an initializer argument (inherited under ``fork``,
  pickled under ``spawn``); each worker decides with its own detector
  and ships its metrics back into the parent's ``repro.obs`` registry;
* **maintain incrementally** — :meth:`BatchAnalyzer.add_op` /
  :meth:`BatchAnalyzer.remove_op` re-decide only the affected
  row/column instead of rebuilding the
  :class:`~repro.conflicts.matrix.ConflictMatrix`, whose cells the
  analyzer fills one per canonical group pair;
* **survive failures** — chunks are dispatched individually with a
  wall-clock timeout, crashed or wedged chunks are split and retried
  with backoff until the poison pair is isolated, and exhausted pairs
  are *quarantined*: a conservative ``UNKNOWN`` verdict tagged with a
  machine-readable reason (``timeout`` / ``step_limit`` /
  ``worker_crash``) that is reported in the matrix and in
  :attr:`BatchAnalyzer.quarantine` but never written to the verdict
  cache (see :mod:`repro.resilience`).

:func:`reference_matrix` keeps the straightforward serial per-pair loop:
it is the ground truth the equivalence tests (and ``bench_matrix.py``)
compare against, and exactly what this library did before the batch
engine existed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro import obs
from repro.compile.compiler import global_compiler
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.index import PatternIndex, StaticProfile, profile_pattern, result_containment
from repro.conflicts.matrix import ConflictMatrix
from repro.conflicts.semantics import ConflictKind, Verdict
from repro.conflicts.verdict_cache import OpKey, PairKey, VerdictCache
from repro.errors import ConflictEngineError
from repro.obs.metrics import MetricsRegistry, histogram_delta
from repro.obs.trace import current_request_id, set_request_id
from repro.operations.ops import Delete, Insert, Read, UpdateOp
from repro.resilience import faults
from repro.xml.isomorphism import canonical_form

__all__ = [
    "Operation",
    "op_key",
    "CanonicalOp",
    "VerdictCache",
    "ConflictMatrix",
    "BatchAnalyzer",
    "reference_matrix",
]

#: A named operation: any of Read / Insert / Delete.
Operation = Read | UpdateOp


def op_key(op: Operation) -> OpKey:
    """The canonical identity of ``op``: ``(kind, pattern form, subtree
    form or None)``.

    Structurally identical operations get equal keys, so they share one
    matrix group, one verdict-cache entry per partner and one decision.
    """
    if isinstance(op, Insert):
        return ("Insert", op.pattern.canonical_form(), canonical_form(op.subtree))
    if isinstance(op, Read | Delete):
        return (type(op).__name__, op.pattern.canonical_form(), None)
    raise TypeError(f"not an operation: {type(op).__name__!r}")


@dataclass(frozen=True)
class CanonicalOp:
    """One canonical group's identity and static profile.

    The analyzer builds one per group, from the group's first operation:
    structurally identical operations collapse to one :attr:`key`, which
    makes pair dedup and verdict sharing possible.
    """

    #: The canonical identity, as :func:`op_key` returns it.
    key: OpKey
    #: Static index keys, computed here so the pattern index consults a
    #: precomputed profile per pair instead of re-walking the pattern.
    #: Excluded from equality/hash: it is derived from ``key``.
    profile: StaticProfile = field(compare=False)

    @classmethod
    def from_operation(
        cls, op: Operation, key: OpKey | None = None
    ) -> "CanonicalOp":
        """Canonicalize and profile ``op``; a caller that already holds
        ``op_key(op)`` passes it as ``key``."""
        if key is None:
            key = op_key(op)
        return cls(key=key, profile=profile_pattern(key[0], op.pattern))

    @property
    def kind(self) -> str:
        """``"Read"``, ``"Insert"`` or ``"Delete"``."""
        return self.key[0]

    @property
    def is_read(self) -> bool:
        return self.key[0] == "Read"


# ----------------------------------------------------------------------
# Worker-side machinery (module level so both fork and spawn can pickle
# the entry points).  Each pool worker builds one detector at startup and
# keeps it, with the operands of the pool's pairs.
# ----------------------------------------------------------------------

_WORKER: dict = {}


def _worker_init(
    config: DetectorConfig,
    operands: list[tuple[Operation, OpKey]],
    fault_spec: str | None = None,
    fault_seed: int = 0,
    request_id: str | None = None,
) -> None:
    # The operands arrive as initializer arguments: a forked worker
    # inherits them, a spawned one unpickles them.  The detector decides
    # on the process-global compiler: under ``fork`` the worker inherits
    # it, with every operand precompiled when the analyzer compiles on
    # it (the analyzer precompiles each group a decided pair references
    # before it starts the pool); under ``spawn`` it starts cold and
    # compiles each operand on first use.
    detector = ConflictDetector(config=config)
    _WORKER["detector"] = detector
    _WORKER["operands"] = operands
    _WORKER["counter_base"] = {}
    _WORKER["hist_base"] = {}
    # Bind the request id that created this pool for the worker's whole
    # lifetime: under ``fork`` the parent's thread-local does not cross
    # into the worker's main thread, and under ``spawn`` nothing crosses
    # at all — explicit transport via initargs covers both.
    set_request_id(request_id)
    if fault_spec:
        # A programmatically installed injector does not survive ``spawn``
        # (fresh interpreter, same environment); the analyzer re-serializes
        # it into the initializer payload so both start methods inject.
        faults.install(faults.FaultInjector.parse(fault_spec, seed=fault_seed))


def _decide_chunk(
    payload: tuple[list[tuple[int, int, int]], int],
) -> tuple[list[tuple[int, str, "str | None"]], dict, int]:
    """Decide one chunk of ``(pair, operand, operand)`` index triples.

    Operands travel once per pool (as initializer arguments), so chunks
    and results are tiny integer tuples — important when operands carry
    multi-kilobyte document fragments.  The attempt number travels with
    the chunk so injected faults can distinguish retries.  Returns
    ``(pair, verdict, degradation reason)`` rows + a snapshot-shaped
    metric delta (counter increments and bucket-exact histogram
    increments since the previous chunk, ready for
    :meth:`MetricsRegistry.absorb` in the parent — the worker's latency
    distributions merge losslessly into the parent's, which is where the
    service's p50/p95/p99 over pool-decided work comes from).
    """
    chunk, attempt = payload
    detector: ConflictDetector = _WORKER["detector"]
    operands: list[tuple[Operation, OpKey]] = _WORKER["operands"]
    out = []
    for pair_index, index_a, index_b in chunk:
        (op_a, key_a), (op_b, key_b) = operands[index_a], operands[index_b]
        # Fault rules target pairs through ``only=SUBSTR`` substring
        # matches against this key, so a distinctive label in one
        # operand's pattern singles out its pairs.
        faults.inject_worker_fault(f"{key_a}|{key_b}", salt=attempt)
        report = detector.detect(op_a, op_b)
        out.append((pair_index, report.verdict.value, report.reason))
    metrics = detector.metrics()
    counters = metrics["counters"]
    base = _WORKER["counter_base"]
    counter_delta = {
        k: v - base.get(k, 0) for k, v in counters.items() if v != base.get(k, 0)
    }
    _WORKER["counter_base"] = counters
    histograms = metrics["histograms"]
    hist_base = _WORKER["hist_base"]
    hist_delta = {}
    for key, snapshot in histograms.items():
        diff = histogram_delta(snapshot, hist_base.get(key))
        if diff is not None:
            hist_delta[key] = diff
    _WORKER["hist_base"] = histograms
    delta = {"counters": counter_delta, "histograms": hist_delta}
    return out, delta, os.getpid()


def _preferred_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_START_METHOD", "").strip()
    if override:
        if override not in methods:
            raise ConflictEngineError(
                f"REPRO_START_METHOD={override!r} is not available on this "
                f"platform (choices: {', '.join(methods)})"
            )
        return multiprocessing.get_context(override)
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class _Unit:
    """One unordered pair of canonical *groups*, at least one of them an
    update group, awaiting a verdict.

    The analyzer decides per distinct pair of canonical forms; a unit
    carries the name-pair multiplicity it stands for and the matrix cell
    (a pair of group ids) its verdict fills.  Its operands are the
    operations of those two groups.
    """

    key: PairKey
    canon_a: CanonicalOp
    canon_b: CanonicalOp
    rep: tuple[str, str]
    multiplicity: int
    cell: tuple[int, int]


@dataclass
class _Chunk:
    """One unit of pool work: index triples plus its retry attempt."""

    triples: list[tuple[int, int, int]]
    attempt: int = 0


class BatchAnalyzer:
    """Whole-catalogue conflict analysis with caching and a worker pool.

    Args:
        config: detector configuration for every decision (defaults to
            :class:`DetectorConfig`'s defaults).  Ignored when
            ``detector`` is given (its configuration is snapshotted).
        detector: an existing detector to decide with in-process; its
            own registry, not ``registry``, counts those decisions.
        jobs: worker processes for undecided unique pairs.  ``None`` or
            ``1`` decides serially in-process; ``0`` or negative means
            ``os.cpu_count()``.
        cache: a shared :class:`VerdictCache`; pass one instance to many
            analyzers (or preload it from disk) to pool verdicts.
        registry: metrics registry (``batch.*`` counters plus the
            detector counters of every serial or pooled decision).
            Private by default, like the detector's; pass
            :func:`repro.obs.global_metrics` to pool.
        retries: how many times a *single-pair* chunk is re-dispatched
            after a worker crash or chunk timeout before the pair is
            quarantined as ``UNKNOWN`` with a machine-readable reason.
            Multi-pair chunks are split in half instead of retried
            whole, so one poison pair cannot take its chunkmates down.
        chunk_timeout_s: wall-clock limit on waiting for one chunk's
            result.  On expiry the pool is torn down and rebuilt (the
            wedged worker may never return), undelivered chunks are
            re-queued, and the late chunk enters the retry/split path
            with reason ``"timeout"``.  ``None`` waits forever.
        retry_backoff_s: base of the exponential backoff slept before
            re-dispatching a failed single-pair chunk
            (``retry_backoff_s * 2**attempt``).
        index: apply the static pattern index (:mod:`repro.conflicts.index`)
            as a pre-pass, discharging provably-independent read/update
            pairs in O(1) before they reach the verdict cache, the
            compiler, or the pool.  Sound by construction and checked
            continuously by the index-on/index-off differential suite.
        containment: propagate ``NO_CONFLICT`` verdicts from a read to
            reads it subsumes (result-set containment), saving one
            decision per subsumed pattern.  Only applies to the NODE
            conflict kind and test-free linear subsumed reads.

    Typical use::

        analyzer = BatchAnalyzer(jobs=8)
        matrix = analyzer.analyze(operations)     # dict of name -> op
        batches = analyzer.schedule()             # interference-free phases
        analyzer.add_op("audit", Read("bib//price"))   # one new row only
        analyzer.cache.save("verdicts.json")      # warm-start future runs
    """

    #: Below this many undecided unique pairs the pool is not worth its
    #: startup cost and decisions stay in-process.
    MIN_PARALLEL_PAIRS = 4

    #: At most this many subsuming-read candidates are examined per
    #: containment child, bounding the planner to O(children × cap)
    #: memoized homomorphism checks.
    CONTAINMENT_CANDIDATES = 64

    def __init__(
        self,
        config: DetectorConfig | None = None,
        *,
        detector: ConflictDetector | None = None,
        jobs: int | None = None,
        cache: VerdictCache | None = None,
        registry: MetricsRegistry | None = None,
        retries: int = 2,
        chunk_timeout_s: float | None = 120.0,
        retry_backoff_s: float = 0.05,
        index: bool = True,
        containment: bool = True,
    ) -> None:
        if detector is not None:
            config = detector.config
        self.config = config if config is not None else DetectorConfig()
        self._detector = detector
        if jobs is None:
            jobs = 1
        elif jobs <= 0:
            jobs = os.cpu_count() or 1
        self.jobs = jobs
        if retries < 0:
            raise ConflictEngineError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.chunk_timeout_s = chunk_timeout_s
        self.retry_backoff_s = retry_backoff_s
        self.cache = cache if cache is not None else VerdictCache()
        self._metrics = registry if registry is not None else MetricsRegistry()
        # One compile cache for the whole batch, shared with the serial
        # detector; forked pool workers inherit the process-global one.
        # A supplied detector's compiler wins so its warm artifacts keep
        # serving.
        self._compiler = (
            detector.compiler if detector is not None else global_compiler()
        )
        self.index = bool(index)
        self.containment = bool(containment)
        self._pattern_index = (
            PatternIndex(
                kind=self.config.kind, exhaustive_cap=self.config.exhaustive_cap
            )
            if self.index
            else None
        )
        self._containment_memo: dict[tuple[OpKey, OpKey], bool] = {}
        self._operations: dict[str, Operation] = {}
        # Matrix group id -> the group's first operation and its
        # canonical form: the one operand identity behind deciding,
        # caching, fault keys and pool shipping.
        self._groups: dict[int, tuple[Operation, CanonicalOp]] = {}
        # Ids of the groups already precompiled on ``self._compiler``.
        self._precompiled: set[int] = set()
        self._matrix = ConflictMatrix()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The live registry (shared, not a copy)."""
        return self._metrics

    def metrics(self) -> dict:
        """Snapshot of this analyzer's metrics registry."""
        return self._metrics.snapshot()

    # ------------------------------------------------------------------
    # The batch API
    # ------------------------------------------------------------------

    @property
    def matrix(self) -> ConflictMatrix:
        """The current matrix (live — maintained by add_op/remove_op)."""
        return self._matrix

    @property
    def operations(self) -> dict[str, Operation]:
        """The current catalogue (a copy; mutate via add_op/remove_op)."""
        return dict(self._operations)

    @property
    def quarantine(self) -> list[dict]:
        """The matrix's degraded pairs, as :meth:`ConflictMatrix.degraded_pairs`.

        Each entry is ``{"first", "second", "reason"}`` with reason one of
        ``"timeout"``, ``"step_limit"``, or ``"worker_crash"``.  These pairs
        carry a conservative ``UNKNOWN`` verdict in the matrix and were
        *not* written to the verdict cache, so a re-run (with a bigger
        budget, or without the faulty infrastructure) will decide them
        for real.
        """
        return [
            {"first": first, "second": second, "reason": reason}
            for first, second, reason in self._matrix.degraded_pairs()
        ]

    def analyze(
        self,
        operations: "Mapping[str, Operation] | Iterable[tuple[str, Operation]]",
    ) -> ConflictMatrix:
        """Decide every pair of ``operations`` and return the matrix.

        Accepts a mapping or an iterable of ``(name, operation)`` pairs;
        duplicate names are an error (two different operations would
        silently shadow each other in the matrix).  Replaces any
        previously analyzed catalogue.  A rejected catalogue (a duplicate
        name or a non-operation) leaves the previous one in place.
        """
        ops = self._normalize_catalogue(operations)
        keys = {name: op_key(op) for name, op in ops.items()}
        with obs.span("batch.analyze", operations=len(ops), jobs=self.jobs):
            self._operations = ops
            self._groups = {}
            self._precompiled = set()
            self._matrix = ConflictMatrix()
            for name, key in keys.items():
                self._join(name, key)
            fingerprint = self.config.fingerprint()
            groups = self._matrix.group_ids()
            reads = {group for group in groups if self._groups[group][1].is_read}
            units = []
            for i, first in enumerate(groups):
                for second in groups[i:]:
                    if first in reads and second in reads:
                        continue  # the matrix answers read/read pairs itself
                    unit = self._make_unit(fingerprint, (first, second))
                    if unit is not None:
                        units.append(unit)
            read_names = sum(key[0] == "Read" for key in keys.values())
            self._resolve_units(
                units, read_names * (read_names - 1) // 2, containment=self.containment
            )
        return self._matrix

    def add_op(self, name: str, operation: Operation) -> ConflictMatrix:
        """Add one operation, deciding only the matrix cells it lacks.

        A new canonical form gets one cell per existing group: its row.
        An operation structurally identical to one already in the
        catalogue joins that operation's group and shares its cells, so
        at most the group's own pair is decided (when the group had one
        member) and no existing pair changes.  A rejected operation leaves
        the analyzer as it was.
        """
        if name in self._operations:
            raise ConflictEngineError(
                f"duplicate operation name {name!r}: remove it first or "
                "pick a distinct name"
            )
        key = op_key(operation)
        with obs.span("batch.add_op", existing=len(self._operations)):
            self._operations[name] = operation
            group = self._join(name, key)
            fingerprint = self.config.fingerprint()
            units = []
            # ``has_cell`` holds for read/read pairs, so only pairs with
            # an update group become units.
            for other in self._matrix.group_ids():
                if not self._matrix.has_cell((other, group)):
                    unit = self._make_unit(fingerprint, (other, group))
                    if unit is not None:
                        units.append(unit)
            trivial = self._trivial_pairs_joined(group) if key[0] == "Read" else 0
            self._resolve_units(units, trivial, containment=False)
            self._metrics.inc("batch.incremental_adds")
        return self._matrix

    def remove_op(self, name: str) -> ConflictMatrix:
        """Remove one operation and its row/column from the matrix."""
        if name not in self._operations:
            raise ConflictEngineError(f"unknown operation name {name!r}")
        del self._operations[name]
        emptied = self._matrix.remove(name)
        if emptied is not None:
            del self._groups[emptied]
            self._precompiled.discard(emptied)
        self._metrics.inc("batch.incremental_removes")
        return self._matrix

    def schedule(self) -> list[list[str]]:
        """Partition the analyzed catalogue into interference-free batches.

        Greedy first-fit coloring of the may-conflict graph in catalogue
        order: each operation joins the earliest batch containing no
        operation it may conflict with (``UNKNOWN`` counts as a conflict,
        so scheduling stays sound).  See :meth:`ConflictMatrix.schedule`.
        """
        return self._matrix.schedule()

    # ------------------------------------------------------------------
    # Decision pipeline: triage -> dedup -> cache -> decide -> fill
    # ------------------------------------------------------------------

    def _normalize_catalogue(
        self,
        operations: "Mapping[str, Operation] | Iterable[tuple[str, Operation]]",
    ) -> dict[str, Operation]:
        if isinstance(operations, Mapping):
            return dict(operations)
        out: dict[str, Operation] = {}
        for name, op in operations:
            if name in out:
                raise ConflictEngineError(
                    f"duplicate operation name {name!r} in catalogue"
                )
            out[name] = op
        return out

    def _join(self, name: str, key: OpKey) -> int:
        """Add ``name`` to the matrix group of ``key``; the group id.

        A new group is canonicalized and profiled once, from this name's
        operation and its already computed ``key``; it is precompiled
        later, and only if one of its pairs reaches a decision
        (:meth:`_precompile_groups`).  A name joining an existing group
        costs nothing more.
        """
        group = self._matrix.add(name, key, read=key[0] == "Read")
        if group not in self._groups:
            operation = self._operations[name]
            self._groups[group] = (
                operation,
                CanonicalOp.from_operation(operation, key=key),
            )
        return group

    def _trivial_pairs_joined(self, group: int) -> int:
        """How many read/read name pairs a read that just joined ``group``
        adds to ``batch.pairs_total`` and ``batch.pairs_trivial``: the
        multiplicity of the read/read group pairs it made cover a name
        pair.  A new group makes one with every other read group, a group
        that grew to two makes its own pair, a larger group makes none."""
        own = self._matrix.multiplicity((group, group))
        if own == 0:  # a new group, whose only member is this read
            return sum(
                self._matrix.multiplicity((other, group))
                for other in self._matrix.group_ids()
                if self._groups[other][1].is_read
            )
        return 1 if own == 1 else 0

    def _make_unit(self, fingerprint: tuple, pair: tuple[int, int]) -> "_Unit | None":
        """The unit deciding the matrix cell of a group pair (``None``: a
        group of one has no pair of its own)."""
        multiplicity = self._matrix.multiplicity(pair)
        if multiplicity == 0:
            return None
        canon_a, canon_b = self._groups[pair[0]][1], self._groups[pair[1]][1]
        return _Unit(
            key=VerdictCache.pair_key(fingerprint, canon_a.key, canon_b.key),
            canon_a=canon_a,
            canon_b=canon_b,
            rep=self._matrix.representative(pair),
            multiplicity=multiplicity,
            cell=pair,
        )

    def _resolve_units(
        self, units: "list[_Unit]", trivial: int, *, containment: bool
    ) -> None:
        """Triage units (index → cache), then decide the rest.

        ``trivial`` is the multiplicity of the read/read pairs the matrix
        answers itself; they get no unit and are only counted.  Index-
        and containment-discharged units never reach the compiler, the
        verdict cache, or the pool; their multiplicities land in the
        ``batch.pairs_discharged`` counter.  Counter semantics match the
        historical per-name-pair pipeline exactly: totals are multiplicity
        sums, ``pairs_unique`` counts distinct undecided canonical pairs,
        and ``pairs_decided`` counts real engine decisions only.
        """
        total = trivial
        cached = discharged_index = 0
        pending: dict[PairKey, _Unit] = {}
        established: dict[PairKey, tuple[_Unit, str, Verdict]] = {}
        start = time.perf_counter()
        for unit in units:
            total += unit.multiplicity
            if self._pattern_index is not None:
                why = self._pattern_index.discharge(
                    unit.canon_a.profile, unit.canon_b.profile
                )
                if why is not None:
                    self._fill_unit(unit, Verdict.NO_CONFLICT, None, why)
                    discharged_index += unit.multiplicity
                    established[unit.key] = (unit, why, Verdict.NO_CONFLICT)
                    continue
            hit = self.cache.get(unit.key)
            if hit is not None:
                self._fill_unit(unit, hit, None, "cached")
                cached += unit.multiplicity
                established[unit.key] = (unit, "cached", hit)
                continue
            pending[unit.key] = unit
        self._metrics.observe(
            "batch.stage_ms", (time.perf_counter() - start) * 1000.0, stage="index"
        )
        self._metrics.inc("batch.pairs_total", total)
        self._metrics.inc("batch.pairs_trivial", trivial)
        self._metrics.inc("batch.pairs_cached", cached)
        self._metrics.inc("batch.pairs_unique", len(pending))
        if discharged_index:
            self._metrics.inc(
                "batch.pairs_discharged", discharged_index, reason="index"
            )

        resolved: dict[PairKey, str] = {}
        deferred: dict[PairKey, tuple[PairKey, str]] = {}
        if containment and self.config.kind is ConflictKind.NODE and pending:
            start = time.perf_counter()
            resolved, deferred = self._plan_containment(pending, established)
            self._metrics.observe(
                "batch.stage_ms",
                (time.perf_counter() - start) * 1000.0,
                stage="containment",
            )
        discharged_containment = 0
        for key, origin in resolved.items():
            unit = pending.pop(key)
            self._fill_unit(unit, Verdict.NO_CONFLICT, None, origin)
            discharged_containment += unit.multiplicity

        start = time.perf_counter()
        round_one = [unit for key, unit in pending.items() if key not in deferred]
        outcomes = self._decide_unique(round_one)
        fallback: list[_Unit] = []
        for key, (parent_key, parent_name) in deferred.items():
            parent = outcomes.get(parent_key)
            if (
                parent is not None
                and parent[0] is Verdict.NO_CONFLICT
                and parent[1] is None
            ):
                unit = pending.pop(key)
                self._fill_unit(
                    unit, Verdict.NO_CONFLICT, None, f"containment:{parent_name}"
                )
                discharged_containment += unit.multiplicity
            else:
                # The hoped-for parent verdict did not materialize (a
                # conflict, or a degraded run): decide the child for real.
                fallback.append(pending[key])
        if fallback:
            outcomes.update(self._decide_unique(fallback))
        self._metrics.observe(
            "batch.stage_ms", (time.perf_counter() - start) * 1000.0, stage="decide"
        )
        if discharged_containment:
            self._metrics.inc(
                "batch.pairs_discharged", discharged_containment, reason="containment"
            )
        for key, unit in pending.items():
            verdict, reason = outcomes[key]
            if reason is None:
                self.cache.put(key, verdict)
            # Degraded verdicts never enter the cache: they reflect this
            # run's budget/faults, not the pair, and a cached UNKNOWN
            # would mask the real answer on every future run.
            self._fill_unit(unit, verdict, reason, "decided")

    def _plan_containment(
        self,
        pending: "dict[PairKey, _Unit]",
        established: "dict[PairKey, tuple[_Unit, str, Verdict]]",
    ) -> tuple[dict, dict]:
        """Plan containment propagation over the pending read/update units.

        For each update, a *child* read (linear, test-free) whose result
        set is contained in a *parent* read with an established or pending
        ``NO_CONFLICT`` against the same update inherits that verdict.
        Returns ``(resolved, deferred)``: children discharged immediately
        from an established parent, and children waiting on a parent that
        is decided in round one.  The parent pool is restricted to reads
        whose ``NO_CONFLICT`` is the *true* answer for the original pair
        (index-discharged, or exact-engine-decided: test-free and linear,
        or a test-free update partner) so propagation never launders a
        stripped-pattern approximation into a dependent verdict.
        """

        def orient(unit: _Unit) -> "tuple[CanonicalOp, CanonicalOp] | None":
            a, b = unit.canon_a, unit.canon_b
            if a.is_read and not b.is_read:
                return a, b
            if b.is_read and not a.is_read:
                return b, a
            return None

        groups: dict[object, list[dict]] = {}

        def add_entry(key: PairKey, unit: _Unit, fixed: "str | None") -> None:
            oriented = orient(unit)
            if oriented is None:
                return
            read, update = oriented
            read_name = unit.rep[0] if unit.canon_a.is_read else unit.rep[1]
            groups.setdefault(update.key, []).append(
                {
                    "key": key,
                    "unit": unit,
                    "read": read,
                    "update": update,
                    "read_name": read_name,
                    "fixed": fixed,
                }
            )

        for key, unit in pending.items():
            add_entry(key, unit, None)
        for key, (unit, origin, verdict) in established.items():
            if verdict is Verdict.NO_CONFLICT:
                add_entry(key, unit, origin)

        resolved: dict[PairKey, str] = {}
        deferred: dict[PairKey, tuple[PairKey, str]] = {}
        parents_used: set[PairKey] = set()
        for entries in groups.values():
            if len(entries) < 2:
                continue
            parents = [
                entry
                for entry in entries
                if not entry["read"].profile.has_tests
                and (
                    (entry["fixed"] or "").startswith("index:")
                    or entry["read"].profile.is_linear
                    or not entry["update"].profile.has_tests
                )
            ][: self.CONTAINMENT_CANDIDATES]
            for entry in entries:
                if entry["fixed"] is not None:
                    continue
                child_key = entry["key"]
                child_profile = entry["read"].profile
                if not child_profile.is_linear or child_profile.has_tests:
                    continue
                if child_key in parents_used:
                    continue
                for parent in parents:
                    if parent["key"] == child_key:
                        continue
                    if parent["read"].key == entry["read"].key:
                        continue
                    if parent["fixed"] is None and (
                        parent["key"] in deferred or parent["key"] in resolved
                    ):
                        continue
                    if not self._result_contains(
                        parent["read"],
                        parent["read_name"],
                        entry["read"],
                        entry["read_name"],
                    ):
                        continue
                    if parent["fixed"] is None:
                        # Both pending: keep the subsumption forest acyclic
                        # even for result-equivalent patterns by breaking
                        # ties on the canonical key.
                        if self._result_contains(
                            entry["read"],
                            entry["read_name"],
                            parent["read"],
                            parent["read_name"],
                        ) and not parent["read"].key < entry["read"].key:
                            continue
                    origin = f"containment:{parent['read_name']}"
                    if parent["fixed"] is not None:
                        resolved[child_key] = origin
                    else:
                        deferred[child_key] = (parent["key"], parent["read_name"])
                        parents_used.add(parent["key"])
                    break
        return resolved, deferred

    def _result_contains(
        self,
        general: CanonicalOp,
        general_name: str,
        specific: CanonicalOp,
        specific_name: str,
    ) -> bool:
        memo_key = (general.key, specific.key)
        hit = self._containment_memo.get(memo_key)
        if hit is None:
            hit = result_containment(
                self._operations[general_name].pattern,
                self._operations[specific_name].pattern,
            )
            self._containment_memo[memo_key] = hit
        return hit

    def _fill_unit(
        self, unit: "_Unit", verdict: Verdict, reason: "str | None", origin: str
    ) -> None:
        self._matrix.fill(unit.cell, verdict, reason, origin)
        if reason is not None:
            self._metrics.inc("batch.pairs_degraded", unit.multiplicity, reason=reason)

    def _precompile_groups(self, units: "list[_Unit]") -> None:
        """Precompile every group of ``units`` not precompiled yet.

        Runs when the units reach the decide stage, so the serial detector,
        or a pool forked next, starts on a warm compile cache for each
        operand it decides; a group whose pairs are all read/read,
        discharged or cached is never compiled.
        """
        for unit in units:
            for group in unit.cell:
                if group not in self._precompiled:
                    self._precompiled.add(group)
                    self._compiler.precompile(self._groups[group][0])
                    self._metrics.inc("batch.ops_precompiled")

    def _decide_unique(
        self, units: "list[_Unit]"
    ) -> dict[PairKey, tuple[Verdict, "str | None"]]:
        if not units:
            return {}
        self._precompile_groups(units)
        if self.jobs > 1 and len(units) >= self.MIN_PARALLEL_PAIRS:
            try:
                return self._decide_parallel(units)
            except OSError:  # pool unavailable (sandboxes, process limits)
                self._metrics.inc("batch.pool_failures")
        return self._decide_serial(units)

    def _decide_serial(
        self, units: "list[_Unit]"
    ) -> dict[PairKey, tuple[Verdict, "str | None"]]:
        if self._detector is None:
            self._detector = ConflictDetector(
                config=self.config,
                compiler=self._compiler,
                registry=self._metrics,
            )
        out: dict[PairKey, tuple[Verdict, str | None]] = {}
        with obs.span("batch.decide_serial", pairs=len(units)):
            for unit in units:
                first, second = unit.cell
                report = self._detector.detect(
                    self._groups[first][0], self._groups[second][0]
                )
                out[unit.key] = (report.verdict, report.reason)
        self._metrics.inc("batch.pairs_decided", len(units))
        return out

    def _make_pool(
        self,
        context: multiprocessing.context.BaseContext,
        jobs: int,
        operands: list[tuple[Operation, OpKey]],
    ) -> "multiprocessing.pool.Pool":
        injector = faults.current()
        return context.Pool(
            processes=jobs,
            initializer=_worker_init,
            initargs=(
                self.config,
                operands,
                injector.spec() if injector is not None else None,
                injector.seed if injector is not None else 0,
                current_request_id(),
            ),
        )

    def _handle_chunk_failure(
        self,
        chunk: _Chunk,
        reason: str,
        queue: "deque[_Chunk]",
        out: dict[PairKey, tuple[Verdict, "str | None"]],
        units: "list[_Unit]",
    ) -> None:
        """Route one failed chunk: split, retry with backoff, or quarantine.

        Multi-pair chunks are bisected (both halves re-dispatched at
        ``attempt + 1``), so repeated failures binary-search the poison
        pair out of its chunkmates in O(log n) rounds.  A single-pair
        chunk is retried up to ``self.retries`` times with exponential
        backoff, then quarantined: a conservative ``UNKNOWN`` verdict
        carrying the machine-readable failure reason.
        """
        if len(chunk.triples) > 1:
            self._metrics.inc("batch.chunk_splits")
            mid = len(chunk.triples) // 2
            queue.appendleft(_Chunk(chunk.triples[mid:], chunk.attempt + 1))
            queue.appendleft(_Chunk(chunk.triples[:mid], chunk.attempt + 1))
        elif chunk.attempt < self.retries:
            self._metrics.inc("batch.chunk_retries")
            time.sleep(self.retry_backoff_s * (2 ** chunk.attempt))
            queue.appendleft(_Chunk(chunk.triples, chunk.attempt + 1))
        else:
            for pair_index, _, _ in chunk.triples:
                out[units[pair_index].key] = (Verdict.UNKNOWN, reason)
            self._metrics.inc(
                "batch.chunks_quarantined", len(chunk.triples), reason=reason
            )

    def _decide_parallel(
        self, units: "list[_Unit]"
    ) -> dict[PairKey, tuple[Verdict, "str | None"]]:
        jobs = min(self.jobs, len(units))
        # Ship each referenced group's operation once, with the pool
        # initializer; chunks and results are integer triples into that
        # list, so per-chunk IPC stays tiny even with multi-kilobyte
        # fragments.
        slot: dict[int, int] = {}  # group id -> its index in operands
        for unit in units:
            for group in unit.cell:
                slot.setdefault(group, len(slot))
        operands = [
            (self._groups[group][0], self._groups[group][1].key) for group in slot
        ]
        triples = [
            (pair_index, slot[unit.cell[0]], slot[unit.cell[1]])
            for pair_index, unit in enumerate(units)
        ]
        # Round-robin chunks spread structurally similar (often equally
        # expensive) neighbors across workers; several chunks per worker
        # lets fast workers steal the tail.
        chunk_count = min(len(triples), jobs * 4)
        chunk_lists: list[list] = [[] for _ in range(chunk_count)]
        for index, triple in enumerate(triples):
            chunk_lists[index % chunk_count].append(triple)
        queue: deque[_Chunk] = deque(_Chunk(chunk) for chunk in chunk_lists)
        out: dict[PairKey, tuple[Verdict, str | None]] = {}
        workers_seen: set[int] = set()
        with obs.span("batch.decide_parallel", pairs=len(units), jobs=jobs):
            context = _preferred_context()
            pool = self._make_pool(context, jobs, operands)
            try:
                # Dispatch loop with per-chunk failure isolation.  Chunks
                # are submitted individually (apply_async) so a crashed or
                # wedged chunk is identifiable and can be split/retried
                # without losing its siblings' results.
                inflight: deque[tuple[_Chunk, "multiprocessing.pool.AsyncResult"]]
                inflight = deque()
                while queue or inflight:
                    # Inflight is capped at the worker count: pool task
                    # pickup is FIFO, so with at most ``jobs`` outstanding
                    # chunks the head of the deque is guaranteed to be
                    # executing (not queued behind a stalled sibling) when
                    # its ``get(timeout=...)`` fires.  A larger window would
                    # charge queue-wait to the timeout and quarantine
                    # healthy chunks stuck behind a wedged worker.
                    while queue and len(inflight) < jobs:
                        chunk = queue.popleft()
                        inflight.append(
                            (
                                chunk,
                                pool.apply_async(
                                    _decide_chunk, ((chunk.triples, chunk.attempt),)
                                ),
                            )
                        )
                    chunk, result = inflight.popleft()
                    try:
                        rows, delta, worker_pid = result.get(
                            timeout=self.chunk_timeout_s
                        )
                    except multiprocessing.TimeoutError:
                        # The worker may be wedged for good (deadlock,
                        # livelock, injected stall): terminate the whole
                        # pool — undelivered in-flight chunks are re-queued
                        # untouched — and rebuild it before continuing.
                        self._metrics.inc("batch.chunk_timeouts")
                        pool.terminate()
                        pool.join()
                        for other, _ in inflight:
                            queue.append(other)
                        inflight.clear()
                        pool = self._make_pool(context, jobs, operands)
                        self._handle_chunk_failure(
                            chunk, "timeout", queue, out, units
                        )
                    except Exception as exc:
                        # The worker raised (or died): the exception comes
                        # back through the async result and the pool has
                        # already replaced the worker, so only this chunk
                        # needs routing.  Pool-level OS errors get a fresh
                        # pool too, defensively.
                        self._metrics.inc("batch.chunk_crashes")
                        if isinstance(exc, OSError):
                            pool.terminate()
                            pool.join()
                            for other, _ in inflight:
                                queue.append(other)
                            inflight.clear()
                            pool = self._make_pool(context, jobs, operands)
                        self._handle_chunk_failure(
                            chunk, "worker_crash", queue, out, units
                        )
                    else:
                        for pair_index, value, reason in rows:
                            out[units[pair_index].key] = (Verdict(value), reason)
                        self._metrics.absorb(delta)
                        self._metrics.inc("batch.worker_chunks")
                        self._metrics.inc(
                            "batch.worker_pairs", len(rows), worker=worker_pid
                        )
                        workers_seen.add(worker_pid)
            finally:
                pool.terminate()
                pool.join()
        self._metrics.set_gauge("batch.workers_used", len(workers_seen))
        self._metrics.inc("batch.pairs_decided", len(units))
        return out


def reference_matrix(
    operations: "Mapping[str, Operation]",
    detector: ConflictDetector | None = None,
) -> ConflictMatrix:
    """The serial per-pair reference implementation (ground truth).

    Decides every ordered-relevant pair through one detector call, with
    no batching, dedup, or verdict sharing — the pre-batch-engine
    behavior.  Every name is its own matrix group, so no verdict is
    shared between names.  The equivalence tests and ``bench_matrix.py``
    compare :class:`BatchAnalyzer` output against this, verdict for
    verdict.
    """
    detector = detector if detector is not None else ConflictDetector()
    names = list(operations)
    matrix = ConflictMatrix()
    groups = [matrix.add(name, name) for name in names]
    for i, first_name in enumerate(names):
        for j in range(i + 1, len(names)):
            report = detector.detect(operations[first_name], operations[names[j]])
            matrix.fill((groups[i], groups[j]), report.verdict)
    return matrix
