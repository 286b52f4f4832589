"""The unified conflict detector — the library's main entry point.

:class:`ConflictDetector` routes a conflict query to the right algorithm:

* linear read pattern → the exact PTIME algorithms of Section 4
  (:mod:`repro.conflicts.linear`), regardless of whether the update pattern
  branches (Corollaries 1 and 2);
* branching read pattern → the general engine
  (:mod:`repro.conflicts.general`): the PTIME trunk prefilter, then (for
  node semantics) the PTIME chain rule, which decides the read's
  root-to-leaf chains on the linear path, then sound heuristics, then
  bounded exhaustive search, complete when the budget covers the
  Lemma 11 bound;
* update-update queries → the value-semantics commutativity engine
  (:mod:`repro.conflicts.complex`): identical operations and linear
  updates without value tests are decided exactly, by commutation rules
  that extend the paper; the rest go to a bounded search that answers
  ``CONFLICT`` or ``UNKNOWN``.

Patterns carrying value tests (``[quantity < 10]``) are stripped before
the branching-read engine and the update-update search — removing a test
only widens what a pattern can match, so the analysis is a sound
over-approximation (it may report a conflict that the tests would have
ruled out, never the reverse); a note records when this happened.

Typical use::

    detector = ConflictDetector()
    report = detector.read_insert(Read("a/*/A"), Insert("a/B", "<C/>"))
    if report.verdict is Verdict.NO_CONFLICT:
        ...  # safe to reorder / cache
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro import obs
from repro.compile.compiler import PatternCompiler, global_compiler
from repro.conflicts.complex import detect_update_update
from repro.conflicts.general import DEFAULT_EXHAUSTIVE_CAP, decide_conflict
from repro.conflicts.linear import (
    detect_read_delete_linear,
    detect_read_insert_linear,
)
from repro.conflicts.semantics import (
    ConflictKind,
    ConflictReport,
    Verdict,
    strip_value_tests,
)
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
    deadline_s: float | None = None
    max_steps: int | None = None

    def fingerprint(self) -> tuple[str, int | None, bool]:
        """The knobs that can change a *verdict* (cache-key component).

        The resilience budget (``deadline_s``/``max_steps``) is excluded:
        budget-degraded ``UNKNOWN`` verdicts are *never cached* (the batch
        engine and the service keep every verdict that carries a
        ``reason`` out of their
        :class:`~repro.conflicts.verdict_cache.VerdictCache`), so every
        cached answer is budget-independent and caches built under
        different budgets can safely share entries.
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
        registry: metrics registry receiving this detector's counters
            (``conflict.queries_total{path=...}``, ...).  Each detector
            gets a private registry by default so two instances never mix
            statistics; pass :func:`repro.obs.global_metrics` to pool
            them.
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
        registry: MetricsRegistry | None = None,
        deadline_s: float | None = None,
        max_steps: int | None = None,
        compiler: PatternCompiler | None = None,
        config: DetectorConfig | None = None,
    ) -> None:
        if config is not None:
            kind = config.kind
            exhaustive_cap = config.exhaustive_cap
            use_heuristics = config.use_heuristics
            deadline_s = config.deadline_s
            max_steps = config.max_steps
        self.kind = kind
        self.exhaustive_cap = exhaustive_cap
        self.use_heuristics = use_heuristics
        self.deadline_s = deadline_s
        self.max_steps = max_steps
        self._metrics = registry if registry is not None else MetricsRegistry()
        self._compiler = compiler if compiler is not None else global_compiler()

    @property
    def config(self) -> DetectorConfig:
        """This detector's knobs as a :class:`DetectorConfig` snapshot."""
        return DetectorConfig(
            kind=self.kind,
            exhaustive_cap=self.exhaustive_cap,
            use_heuristics=self.use_heuristics,
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

    def metrics(self) -> dict:
        """Snapshot of this detector's metrics registry.

        Shape as :meth:`repro.obs.MetricsRegistry.snapshot`: counters
        include ``conflict.queries_total{path=linear|general|complex}``
        and ``conflict.budget_exceeded{reason=...}``; the
        ``conflict.decide_ms{path,verdict}`` histogram times every
        decision.
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
            read, insert, notes = strip_value_tests(read, insert)
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
            read, delete, notes = strip_value_tests(read, delete)
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
        """May the two updates fail to commute (value semantics)?

        The operations go to :func:`detect_update_update` as given: its
        exact rules apply only to patterns without value tests, and only
        the search behind them runs on stripped patterns.
        """
        return self._decide(
            "complex",
            ConflictKind.VALUE,
            lambda: detect_update_update(
                op1,
                op2,
                exhaustive_cap=self.exhaustive_cap,
                use_heuristics=self.use_heuristics,
                compiler=self._compiler,
            ),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _dispatch(self, read: Read, update: UpdateOp) -> ConflictReport:
        return self._decide(
            "linear" if read.pattern.is_linear else "general",
            self.kind,
            lambda: self._decide_read_update(read, update),
            read_size=read.pattern.size,
            update_size=update.pattern.size,
        )

    def _decide(
        self,
        path: str,
        kind: ConflictKind,
        decide: Callable[[], ConflictReport],
        **attrs: object,
    ) -> ConflictReport:
        """Run one decision under a fresh budget, counted and timed per path."""
        with obs.span("detector.dispatch", path=path, **attrs) as sp:
            self._metrics.inc("conflict.queries_total", path=path)
            decide_t0 = time.perf_counter()
            try:
                with budget_scope(self._new_budget()):
                    report = decide()
            except BudgetExceeded as exc:
                report = self._degraded_report(exc, kind)
                sp.set("degraded", report.reason)
            self._metrics.observe(
                "conflict.decide_ms",
                (time.perf_counter() - decide_t0) * 1000.0,
                path=path,
                verdict=report.verdict.value,
            )
            sp.set("verdict", report.verdict.value)
            return report

    def _decide_read_update(self, read: Read, update: UpdateOp) -> ConflictReport:
        if not read.pattern.is_linear:
            return decide_conflict(
                read,
                update,
                self.kind,
                exhaustive_cap=self.exhaustive_cap,
                use_heuristics=self.use_heuristics,
                compiler=self._compiler,
            )
        if isinstance(update, Insert):
            return detect_read_insert_linear(
                read, update, self.kind, compiler=self._compiler
            )
        return detect_read_delete_linear(
            read, update, self.kind, compiler=self._compiler
        )

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

