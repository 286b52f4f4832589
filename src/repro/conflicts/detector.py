"""The unified conflict detector — the library's main entry point.

:class:`ConflictDetector` routes a conflict query to the right algorithm:

* linear read pattern → the exact PTIME algorithms of Section 4
  (:mod:`repro.conflicts.linear`), regardless of whether the update pattern
  branches (Corollaries 1 and 2);
* branching read pattern → the general engine
  (:mod:`repro.conflicts.general`): sound heuristics, then bounded
  exhaustive search, complete when the budget covers the Lemma 11 bound;
* update-update queries → the value-semantics commutativity engine
  (:mod:`repro.conflicts.complex`).

Patterns carrying value tests (``[quantity < 10]``) are stripped before
detection — removing a test only widens what a pattern can match, so the
analysis is a sound over-approximation (it may report a conflict that the
tests would have ruled out, never the reverse); a note records when this
happened.

Typical use::

    detector = ConflictDetector()
    report = detector.read_insert(Read("a/*/A"), Insert("a/B", "<C/>"))
    if report.verdict is Verdict.NO_CONFLICT:
        ...  # safe to reorder / cache
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

from repro import obs
from repro.compile.compiler import PatternCompiler, global_compiler
from repro.conflicts.complex import detect_update_update
from repro.conflicts.general import DEFAULT_EXHAUSTIVE_CAP, decide_conflict
from repro.conflicts.linear import (
    detect_read_delete_linear,
    detect_read_insert_linear,
)
from repro.conflicts.semantics import ConflictKind, ConflictReport, Verdict
from repro.errors import BudgetExceeded
from repro.obs.metrics import MetricsRegistry
from repro.operations.ops import Delete, Insert, Read, UpdateOp
from repro.resilience.budget import Budget, budget_scope

__all__ = ["ConflictDetector", "DetectorConfig"]


@dataclass(frozen=True)
class DetectorConfig:
    """The :class:`ConflictDetector` constructor knobs as one value.

    Consolidates the keyword arguments so configurations can be
    stored, compared, and shipped across process boundaries (the batch
    engine sends one to every worker; the dataclass is picklable, unlike
    a detector with its registry lock).  ``ConflictDetector(config=cfg)``
    and ``cfg.build()`` both construct an equivalent detector.
    """

    kind: ConflictKind = ConflictKind.NODE
    exhaustive_cap: int | None = DEFAULT_EXHAUSTIVE_CAP
    use_heuristics: bool = True
    cache: bool = True
    minimize_witnesses: bool = False
    trace: bool = False
    deadline_s: float | None = None
    max_steps: int | None = None

    def fingerprint(self) -> tuple[str, int | None, bool]:
        """The knobs that can change a *verdict* (cache-key component).

        ``cache``/``trace``/``minimize_witnesses`` only affect speed and
        report decoration, so two configs differing only in those may
        share cached verdicts.  The resilience budget
        (``deadline_s``/``max_steps``) is also excluded: budget-degraded
        ``UNKNOWN`` verdicts are *never cached* (see :meth:`_cache_put`),
        so every cached answer is budget-independent and caches built
        under different budgets can safely share entries.
        """
        return (self.kind.value, self.exhaustive_cap, self.use_heuristics)

    def build(self, registry: MetricsRegistry | None = None) -> "ConflictDetector":
        """Construct a detector with this configuration."""
        return ConflictDetector(config=self, registry=registry)


class ConflictDetector:
    """Detect conflicts between read/insert/delete operations.

    Args:
        kind: which conflict semantics to decide (default: node conflicts,
            the paper's focus).
        exhaustive_cap: size cap for the general case's witness
            enumeration; ``None`` disables enumeration (heuristics only).
        use_heuristics: whether the general case tries the fast candidate
            family before enumerating.
        cache: memoize query answers by the operands' canonical forms
            (default on).  Program analysis repeats structurally identical
            queries constantly; a cached answer also keeps an expensive
            general-case NO_CONFLICT from being recomputed.
        minimize_witnesses: shrink every returned witness with the
            marking/reparenting minimizer (Lemmas 9-11) before reporting.
            Off by default — minimization costs several re-checks — but
            valuable when witnesses are shown to humans.
        registry: metrics registry receiving this detector's counters
            (``conflict.queries_total{path=...}``, ``cache.hits``, ...).
            Each detector gets a private registry by default so two
            instances never mix statistics; pass
            :func:`repro.obs.global_metrics` to pool them.
        trace: turn the process-wide tracing switch on (equivalent to
            :func:`repro.obs.enable`; the ``REPRO_TRACE`` env var is the
            non-invasive alternative).  ``False`` leaves the current
            state untouched rather than disabling it.
        deadline_s: per-decision wall-clock budget in seconds.  A query
            whose search outlives it degrades to ``UNKNOWN`` with
            ``reason="timeout"`` instead of running unboundedly (the
            general decision is NP-hard; see ``docs/RESILIENCE.md``).
            ``None`` (the default) imposes no deadline.
        max_steps: per-decision checkpoint allowance; exceeding it
            degrades to ``UNKNOWN`` with ``reason="step_limit"``.
        compiler: the :class:`repro.compile.PatternCompiler` whose compile
            cache the decisions run through.  ``None`` (the default)
            shares :func:`repro.compile.global_compiler`; pass a private
            one (e.g. ``PatternCompiler(maxsize=64, registry=...)``) to
            isolate its memos and ``compile.*`` counters.  The batch
            engine shares one across its per-chunk detectors.
        config: a :class:`DetectorConfig` carrying all the knobs at once;
            when given it overrides the individual keyword arguments.
    """

    def __init__(
        self,
        kind: ConflictKind = ConflictKind.NODE,
        exhaustive_cap: int | None = DEFAULT_EXHAUSTIVE_CAP,
        use_heuristics: bool = True,
        cache: bool = True,
        minimize_witnesses: bool = False,
        registry: MetricsRegistry | None = None,
        trace: bool = False,
        deadline_s: float | None = None,
        max_steps: int | None = None,
        compiler: PatternCompiler | None = None,
        config: DetectorConfig | None = None,
    ) -> None:
        if config is not None:
            kind = config.kind
            exhaustive_cap = config.exhaustive_cap
            use_heuristics = config.use_heuristics
            cache = config.cache
            minimize_witnesses = config.minimize_witnesses
            trace = config.trace
            deadline_s = config.deadline_s
            max_steps = config.max_steps
        self.kind = kind
        self.exhaustive_cap = exhaustive_cap
        self.use_heuristics = use_heuristics
        self.minimize_witnesses = minimize_witnesses
        self.deadline_s = deadline_s
        self.max_steps = max_steps
        self._cache: dict[tuple, ConflictReport] | None = {} if cache else None
        self._metrics = registry if registry is not None else MetricsRegistry()
        self._compiler = compiler if compiler is not None else global_compiler()
        if trace:
            obs.enable()

    @property
    def config(self) -> DetectorConfig:
        """This detector's knobs as a :class:`DetectorConfig` snapshot.

        ``trace`` is reported as ``False``: the constructor flag flips a
        process-wide switch rather than detector state, so rebuilding
        from the snapshot must not re-flip it.
        """
        return DetectorConfig(
            kind=self.kind,
            exhaustive_cap=self.exhaustive_cap,
            use_heuristics=self.use_heuristics,
            cache=self._cache is not None,
            minimize_witnesses=self.minimize_witnesses,
            trace=False,
            deadline_s=self.deadline_s,
            max_steps=self.max_steps,
        )

    @property
    def compiler(self) -> PatternCompiler:
        """The compile cache this detector consults (shared or private)."""
        return self._compiler

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The live registry behind :meth:`metrics` (shared, not a copy)."""
        return self._metrics

    @property
    def cache_hits(self) -> int:
        """Number of queries answered from the cache (read-only)."""
        return self._metrics.counter("cache.hits")

    @property
    def cache_misses(self) -> int:
        """Number of enabled-cache lookups that missed (read-only)."""
        return self._metrics.counter("cache.misses")

    def metrics(self) -> dict:
        """Snapshot of this detector's metrics registry.

        Shape as :meth:`repro.obs.MetricsRegistry.snapshot`: counters
        include ``conflict.queries_total{path=linear|general|complex}``,
        ``cache.hits`` and ``cache.misses``.
        """
        return self._metrics.snapshot()

    # ------------------------------------------------------------------
    # Polymorphic entry point
    # ------------------------------------------------------------------

    def detect(
        self, first: Read | UpdateOp, second: Read | UpdateOp
    ) -> ConflictReport:
        """Decide any pair of operations, dispatching on operand types.

        * read / read — trivially compatible (reads have no effect), so
          the answer is ``NO_CONFLICT`` without consulting any engine;
        * read / update (either order) — a read-update conflict query;
        * update / update — a commutativity (value-semantics) query.

        The typed entry points (:meth:`read_insert`, :meth:`read_delete`,
        :meth:`read_update`, :meth:`update_update`) remain the precise
        API; ``detect`` is for callers that hold heterogeneous operation
        sets — the batch engine decides every catalogue pair through it.
        """
        first_read = isinstance(first, Read)
        second_read = isinstance(second, Read)
        if first_read and second_read:
            return ConflictReport(
                verdict=Verdict.NO_CONFLICT,
                kind=self.kind,
                method="read-read-trivial",
            )
        if first_read:
            return self.read_update(first, second)  # type: ignore[arg-type]
        if second_read:
            return self.read_update(second, first)  # type: ignore[arg-type]
        if isinstance(first, Insert | Delete) and isinstance(second, Insert | Delete):
            return self.update_update(first, second)
        raise TypeError(
            f"cannot detect conflicts between {type(first).__name__!r} "
            f"and {type(second).__name__!r}"
        )

    # ------------------------------------------------------------------
    # Read-update queries
    # ------------------------------------------------------------------

    def read_insert(self, read: Read, insert: Insert) -> ConflictReport:
        """May ``insert`` change what ``read`` returns, on *some* document?

        Exact for linear reads even with value tests: tests are
        existential over text children, so they never constrain a witness
        we are free to build — only the embedding into the fixed inserted
        tree ``X``, which the cut-edge check evaluates test-aware.
        """
        notes: list[str] = []
        if not read.pattern.is_linear:
            read, insert, notes = self._strip(read, insert)
        report = self._dispatch(read, insert)
        report.notes.extend(notes)
        return report

    def read_delete(self, read: Read, delete: Delete) -> ConflictReport:
        """May ``delete`` change what ``read`` returns, on *some* document?

        Exact for linear reads even with value tests (see
        :meth:`read_insert`).
        """
        notes = []
        if not read.pattern.is_linear:
            read, delete, notes = self._strip(read, delete)
        report = self._dispatch(read, delete)
        report.notes.extend(notes)
        return report

    def read_update(self, read: Read, update: UpdateOp) -> ConflictReport:
        """Dispatch on the update's type."""
        if isinstance(update, Insert):
            return self.read_insert(read, update)
        if isinstance(update, Delete):
            return self.read_delete(read, update)
        raise TypeError(f"unsupported update type {type(update)!r}")

    # ------------------------------------------------------------------
    # Update-update queries
    # ------------------------------------------------------------------

    def update_update(self, op1: UpdateOp, op2: UpdateOp) -> ConflictReport:
        """May the two updates fail to commute (value semantics)?"""
        with obs.span("detector.dispatch", path="complex") as sp:
            self._metrics.inc("conflict.queries_total", path="complex")
            op1_stripped, op2_stripped, notes = self._strip(op1, op2)
            key = self._cache_key("update-update", op1_stripped, op2_stripped)
            report = self._cache_get(key)
            if report is None:
                decide_t0 = time.perf_counter()
                try:
                    with budget_scope(self._new_budget()):
                        report = detect_update_update(
                            op1_stripped,
                            op2_stripped,
                            exhaustive_cap=self.exhaustive_cap,
                            use_heuristics=self.use_heuristics,
                        )
                except BudgetExceeded as exc:
                    report = self._degraded_report(exc, ConflictKind.VALUE)
                self._metrics.observe(
                    "conflict.decide_ms",
                    (time.perf_counter() - decide_t0) * 1000.0,
                    path="complex",
                    verdict=report.verdict.value,
                )
                self._cache_put(key, report)
            else:
                sp.set("cached", True)
            sp.set("verdict", report.verdict.value)
            report.notes.extend(notes)
            return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dispatch(self, read: Read, update: UpdateOp) -> ConflictReport:
        path = "linear" if read.pattern.is_linear else "general"
        with obs.span(
            "detector.dispatch",
            path=path,
            read_size=read.pattern.size,
            update_size=update.pattern.size,
        ) as sp:
            self._metrics.inc("conflict.queries_total", path=path)
            key = self._cache_key("read-update", read, update)
            cached = self._cache_get(key)
            if cached is not None:
                sp.set("cached", True)
                sp.set("verdict", cached.verdict.value)
                return cached
            decide_t0 = time.perf_counter()
            try:
                with budget_scope(self._new_budget()):
                    report = self._decide_read_update(read, update)
            except BudgetExceeded as exc:
                report = self._degraded_report(exc, self.kind)
                sp.set("degraded", report.reason)
            # Freshly decided only: cache hits return above, so this
            # distribution is about real decision cost per path/verdict —
            # the paper's Section 6 cost question — not lookup noise.
            self._metrics.observe(
                "conflict.decide_ms",
                (time.perf_counter() - decide_t0) * 1000.0,
                path=path,
                verdict=report.verdict.value,
            )
            self._cache_put(key, report)
            sp.set("verdict", report.verdict.value)
            return report

    def _decide_read_update(self, read: Read, update: UpdateOp) -> ConflictReport:
        if read.pattern.is_linear:
            if isinstance(update, Insert):
                report = detect_read_insert_linear(
                    read, update, self.kind, compiler=self._compiler
                )
            else:
                report = detect_read_delete_linear(
                    read, update, self.kind, compiler=self._compiler
                )
        else:
            report = decide_conflict(
                read,
                update,
                self.kind,
                exhaustive_cap=self.exhaustive_cap,
                use_heuristics=self.use_heuristics,
                compiler=self._compiler,
            )
        if self.minimize_witnesses and report.witness is not None:
            from repro.conflicts.witness_min import minimize_witness

            with obs.span("detector.minimize_witness"):
                report.witness = minimize_witness(
                    report.witness, read, update, self.kind
                )
        return report

    # ------------------------------------------------------------------
    # Resilience budget
    # ------------------------------------------------------------------

    def _new_budget(self) -> Budget | None:
        """A fresh per-decision budget, or ``None`` when unconfigured.

        ``None`` still *shadows* any caller-armed budget inside the
        decision (see :func:`repro.resilience.budget_scope`), so a
        detector configured without limits keeps its completeness
        guarantees regardless of the calling context.
        """
        if self.deadline_s is None and self.max_steps is None:
            return None
        return Budget(deadline_s=self.deadline_s, max_steps=self.max_steps)

    def _degraded_report(
        self, exc: BudgetExceeded, kind: ConflictKind
    ) -> ConflictReport:
        """The conservative ``UNKNOWN`` verdict for an over-budget decision."""
        self._metrics.inc("conflict.budget_exceeded", reason=exc.reason)
        return ConflictReport(
            verdict=Verdict.UNKNOWN,
            kind=kind,
            method="budget",
            notes=[f"decision aborted by resilience budget: {exc}"],
            stats={"budget_steps": exc.steps},
            reason=exc.reason,
        )

    # ------------------------------------------------------------------
    # Query cache
    # ------------------------------------------------------------------
    #
    # Program analysis asks the same question over and over (real programs
    # reuse a handful of paths), and a single general-case NO_CONFLICT
    # answer can cost an exhaustive enumeration.  Queries are keyed by the
    # *canonical forms* of the operands, so structurally identical
    # operations share answers regardless of object identity.

    def _cache_key(self, tag: str, first, second) -> tuple | None:  # type: ignore[no-untyped-def]
        if self._cache is None:
            return None

        def op_key(op):  # type: ignore[no-untyped-def]
            from repro.xml.isomorphism import canonical_form

            subtree = (
                canonical_form(op.subtree) if isinstance(op, Insert) else None
            )
            # Key on the *interned* pattern.  Interned identity is
            # (interner, generation, ident) — a compile-cache reset bumps
            # the generation and an eviction never reissues an ident, so a
            # stale detector-cache entry can only ever miss, never alias a
            # later pattern that happens to reuse the slot.
            pattern_key = self._compiler.intern(op.pattern)
            return (type(op).__name__, pattern_key, subtree)

        return (
            tag,
            self.kind,
            self.exhaustive_cap,
            self.use_heuristics,
            op_key(first),
            op_key(second),
        )

    def cached_entries(
        self,
    ) -> Iterator[tuple[tuple[str, int | None, bool], tuple, tuple, Verdict]]:
        """Yield ``(fingerprint, key_a, key_b, verdict)`` per cached answer.

        The fingerprint matches :meth:`DetectorConfig.fingerprint` and the
        operand keys are the canonical forms used internally, so a
        :class:`repro.conflicts.batch.VerdictCache` can absorb a
        detector's accumulated answers without re-deriving anything.
        """
        if self._cache is None:
            return

        def plain(op_key: tuple) -> tuple:
            # Internal keys hold InternedPattern handles; exported keys are
            # canonical strings (stable across processes and compiler
            # generations).
            name, pattern_key, subtree = op_key
            return (name, pattern_key.key, subtree)

        for key, report in self._cache.items():
            _tag, kind, cap, heuristics, key_a, key_b = key
            yield (kind.value, cap, heuristics), plain(key_a), plain(key_b), report.verdict

    def _cache_get(self, key: tuple | None) -> ConflictReport | None:
        # ``key is None`` means caching is disabled for this detector; such
        # lookups are neither hits nor misses and must not move counters.
        if key is None or self._cache is None:
            return None
        with obs.span("detector.cache.lookup") as sp:
            hit = self._cache.get(key)
            if hit is None:
                self._metrics.inc("cache.misses")
                sp.set("outcome", "miss")
                return None
            self._metrics.inc("cache.hits")
            sp.set("outcome", "hit")
            return self._copy_report(hit)

    def _cache_put(self, key: tuple | None, report: ConflictReport) -> None:
        # Budget-degraded UNKNOWNs are never cached: they reflect this
        # run's budget, not the pair, and caching them would let a tight
        # budget poison future (or differently-budgeted) queries.  This
        # is also what keeps DetectorConfig.fingerprint budget-free.
        if report.reason is not None:
            return
        if key is not None and self._cache is not None:
            with obs.span("detector.cache.store"):
                self._metrics.inc("cache.stores")
                self._cache[key] = self._copy_report(report)

    @staticmethod
    def _copy_report(report: ConflictReport) -> ConflictReport:
        # The witness tree is copied too: reports cross the cache boundary
        # in both directions, and a caller mutating a returned witness must
        # not be able to poison the cached original (or vice versa).
        return ConflictReport(
            verdict=report.verdict,
            kind=report.kind,
            witness=report.witness.copy() if report.witness is not None else None,
            method=report.method,
            notes=list(report.notes),
            stats=dict(report.stats),
            reason=report.reason,
        )

    @staticmethod
    def _strip(first, second):  # type: ignore[no-untyped-def]
        """Strip value tests from both operations' patterns, noting it."""
        notes: list[str] = []

        def strip_op(op):  # type: ignore[no-untyped-def]
            if not op.pattern.has_value_tests():
                return op
            notes.append(
                "value tests were stripped from a pattern; the verdict is a "
                "sound over-approximation (conflicts may be spurious, "
                "no-conflict verdicts are exact)"
            )
            stripped = op.pattern.strip_value_tests()
            if isinstance(op, Read):
                return Read(stripped)
            if isinstance(op, Insert):
                return Insert(stripped, op.subtree)
            return Delete(stripped)

        return strip_op(first), strip_op(second), notes
