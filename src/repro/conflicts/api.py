"""The unified catalogue-analysis facade: :func:`analyze`.

One entrypoint for catalogue analysis, over the
:class:`~repro.conflicts.batch.BatchAnalyzer` engine.  Configuration lives
in one frozen :class:`AnalysisConfig` that composes the per-decision
:class:`~repro.conflicts.detector.DetectorConfig` with the batch-level
knobs that used to be scattered across constructor kwargs::

    import repro

    matrix = repro.analyze(ops)                            # ConflictMatrix
    batches = repro.analyze(ops, mode="schedule")          # list[list[str]]
    pairs = repro.analyze(ops, mode="pairs")               # [(a, b, Verdict)]

    config = repro.AnalysisConfig(jobs=8, containment=False)
    matrix = repro.analyze(ops, config=config)

``docs/BATCH_ANALYSIS.md`` has the migration table for code written
against the older catalogue front ends.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.conflicts.batch import BatchAnalyzer, Operation
from repro.conflicts.matrix import ConflictMatrix
from repro.conflicts.detector import DetectorConfig
from repro.conflicts.semantics import Verdict
from repro.conflicts.verdict_cache import VerdictCache
from repro.obs.metrics import MetricsRegistry

__all__ = ["AnalysisConfig", "analyze"]

_MODES = ("matrix", "schedule", "pairs")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything :func:`analyze` needs, in one place.

    Attributes:
        detector: per-decision configuration (conflict kind, witness
            budget, heuristics) — the former first positional argument of
            ``BatchAnalyzer``.
        index: apply the static pattern index pre-pass
            (:mod:`repro.conflicts.index`).
        containment: propagate verdicts across subsumed read patterns.
        jobs: worker processes for undecided unique pairs (``None``/``1``
            serial, ``0`` or negative means all cores).
        cache: a shared :class:`VerdictCache` for warm starts.
        retries: re-dispatches of a failed single-pair chunk before
            quarantine.
        chunk_timeout_s: wall-clock limit per parallel chunk.
        retry_backoff_s: base of the exponential retry backoff.
        registry: metrics registry (private per call when ``None``).
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    index: bool = True
    containment: bool = True
    jobs: int | None = None
    cache: VerdictCache | None = None
    retries: int = 2
    chunk_timeout_s: float | None = 120.0
    retry_backoff_s: float = 0.05
    registry: MetricsRegistry | None = None

    def analyzer(self) -> BatchAnalyzer:
        """Build a :class:`BatchAnalyzer` configured from this object."""
        return BatchAnalyzer(
            self.detector,
            jobs=self.jobs,
            cache=self.cache,
            registry=self.registry,
            retries=self.retries,
            chunk_timeout_s=self.chunk_timeout_s,
            retry_backoff_s=self.retry_backoff_s,
            index=self.index,
            containment=self.containment,
        )


def analyze(
    operations: "Mapping[str, Operation] | Iterable[tuple[str, Operation]]",
    *,
    mode: str = "matrix",
    config: AnalysisConfig | None = None,
) -> "ConflictMatrix | list[list[str]] | list[tuple[str, str, Verdict]]":
    """Analyze a named operation catalogue.

    Args:
        operations: mapping of name → operation (or an iterable of
            ``(name, operation)`` pairs; duplicate names are an error).
        mode: what to return —

            * ``"matrix"`` (default): the full :class:`ConflictMatrix`;
            * ``"schedule"``: interference-free batches of names
              (greedy first-fit coloring of the may-conflict graph);
            * ``"pairs"``: a flat ``[(first, second, Verdict), ...]``
              list over all unordered name pairs in catalogue order.
        config: an :class:`AnalysisConfig`; defaults apply when omitted.

    Returns:
        Per ``mode`` above.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}: expected one of {_MODES}")
    if config is None:
        config = AnalysisConfig()
    analyzer = config.analyzer()
    matrix = analyzer.analyze(operations)
    if mode == "matrix":
        return matrix
    if mode == "schedule":
        return analyzer.schedule()
    return list(matrix.pairs())
