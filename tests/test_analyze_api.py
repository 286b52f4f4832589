"""Tests for the unified :func:`repro.analyze` facade."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.conflicts.api import AnalysisConfig, analyze
from repro.conflicts.batch import BatchAnalyzer, ConflictMatrix
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import ConflictKind, Verdict
from repro.errors import ReproError
from repro.operations.ops import Delete, Insert, Read

OPERATIONS = {
    "titles": Read("bib/book/title"),
    "quantities": Read("//quantity"),
    "restock": Insert("bib/book", "<restock/>"),
    "purge": Delete("bib/book"),
    "strip-markers": Delete("bib/book/restock"),
}


class TestAnalyzeFacade:
    def test_exported_at_top_level(self):
        assert repro.analyze is analyze
        assert repro.AnalysisConfig is AnalysisConfig

    def test_matrix_mode_default(self):
        result = analyze(OPERATIONS)
        assert isinstance(result, ConflictMatrix)
        reference = BatchAnalyzer(detector=ConflictDetector(), jobs=1).analyze(
            OPERATIONS
        )
        for name_a in OPERATIONS:
            for name_b in OPERATIONS:
                assert result.verdict(name_a, name_b) is reference.verdict(
                    name_a, name_b
                )

    def test_schedule_mode(self):
        batches = analyze(OPERATIONS, mode="schedule")
        assert isinstance(batches, list)
        assert sorted(name for batch in batches for name in batch) == sorted(
            OPERATIONS
        )
        analyzer = BatchAnalyzer(detector=ConflictDetector(), jobs=1)
        analyzer.analyze(OPERATIONS)
        assert batches == analyzer.schedule()

    def test_pairs_mode(self):
        pairs = analyze(OPERATIONS, mode="pairs")
        names = list(OPERATIONS)
        expected = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
        assert [(a, b) for a, b, _ in pairs] == expected
        matrix = analyze(OPERATIONS)
        for first, second, verdict in pairs:
            assert isinstance(verdict, Verdict)
            assert matrix.verdict(first, second) is verdict

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            analyze(OPERATIONS, mode="heatmap")

    def test_config_controls_detector(self):
        config = AnalysisConfig(
            detector=DetectorConfig(kind=ConflictKind.NODE, max_steps=1)
        )
        matrix = analyze(OPERATIONS, config=config)
        assert matrix.degraded_count() > 0

    def test_config_index_off(self):
        """``index=False`` discharges nothing statically.  ``containment``
        is accepted and changes nothing, even where a read (``a/b/c``) is
        result-contained in another (``a//c``)."""
        matrix = analyze(OPERATIONS, config=AnalysisConfig(index=False))
        assert matrix.discharge_counts()["index"] == 0
        ops = {
            "g": Read("a//c"),
            "s": Read("a/b/c"),
            "d": Delete("a/b/c"),
            "o": Read("a/x/c"),
            "i": Insert("a/b", "<d/>"),
        }
        default = analyze(ops)
        ignored = analyze(ops, config=AnalysisConfig(containment=False))
        assert ignored.to_dict() == default.to_dict()
        assert ignored.discharge_counts() == default.discharge_counts()

    def test_config_defaults(self):
        config = AnalysisConfig()
        assert config.index
        assert config.jobs is None and config.cache is None
        assert config.retries == 2

    def test_config_builds_analyzer(self):
        analyzer = AnalysisConfig(jobs=1).analyzer()
        assert isinstance(analyzer, BatchAnalyzer)
        assert analyzer.jobs == 1


    def test_overflowing_value_test_is_a_repro_error(self):
        with pytest.raises(ReproError, match="out of range"):
            analyze({
                "cheap": Read(f"shop/item[price < 1{'0' * 400}]"),
                "purge": Delete("shop/item"),
            })


class TestLegacyShims:
    """The deprecated catalogue front ends are gone; the facade warns of nothing."""

    def test_analyze_emits_no_deprecation_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            analyze(OPERATIONS)
