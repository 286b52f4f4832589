"""Tests for the :class:`ConflictDetector` facade."""

from __future__ import annotations

import pytest

from repro.conflicts.detector import ConflictDetector
from repro.conflicts.semantics import ConflictKind, Verdict, is_witness
from repro.conflicts.witness_min import minimize_witness
from repro.operations.ops import Delete, Insert, Read


class TestDispatch:
    def test_linear_read_uses_ptime(self):
        report = ConflictDetector().read_insert(Read("*//C"), Insert("*/B", "<C/>"))
        assert report.method == "linear-ptime"
        assert report.verdict is Verdict.CONFLICT

    def test_branching_read_uses_general_engine(self):
        report = ConflictDetector().read_insert(
            Read("a[b/c]"), Insert("a/b", "<c/>")
        )
        assert report.method in ("heuristic", "exhaustive")
        assert report.verdict is Verdict.CONFLICT

    def test_read_update_dispatches_on_type(self):
        detector = ConflictDetector()
        insert_report = detector.read_update(Read("a/b"), Insert("a", "<b/>"))
        delete_report = detector.read_update(Read("a/b"), Delete("a/b"))
        assert insert_report.verdict is Verdict.CONFLICT
        assert delete_report.verdict is Verdict.CONFLICT

    def test_read_update_rejects_other_types(self):
        with pytest.raises(TypeError):
            ConflictDetector().read_update(Read("a"), "not an update")  # type: ignore[arg-type]

    def test_update_update(self):
        report = ConflictDetector().update_update(
            Insert("a/b", "<c/>"), Insert("a/b/c", "<d/>")
        )
        assert report.verdict is Verdict.CONFLICT


class TestSemanticsParameter:
    def test_tree_semantics(self):
        detector = ConflictDetector(kind=ConflictKind.TREE)
        report = detector.read_insert(Read("a"), Insert("a/B", "<x/>"))
        assert report.verdict is Verdict.CONFLICT

    def test_node_semantics_differs(self):
        detector = ConflictDetector(kind=ConflictKind.NODE)
        report = detector.read_insert(Read("a"), Insert("a/B", "<x/>"))
        assert report.verdict is Verdict.NO_CONFLICT


class TestValueTestStripping:
    def test_stripping_noted(self):
        detector = ConflictDetector()
        report = detector.read_insert(
            Read("bib/book[.//quantity < 10]"),
            Insert("bib/book", "<restock/>"),
        )
        assert any("stripped" in note for note in report.notes)

    def test_stripped_analysis_is_conservative(self):
        """Value tests can only narrow matches, so a NO_CONFLICT verdict on
        stripped patterns is exact; a CONFLICT may be spurious.

        The cap must cover this instance's Lemma 11 bound (6) for a
        definitive verdict.
        """
        detector = ConflictDetector(exhaustive_cap=6)
        report = detector.read_delete(
            Read("a/b[c < 5]"), Delete("a/z")
        )
        assert report.verdict is Verdict.NO_CONFLICT

    def test_no_note_without_value_tests(self):
        report = ConflictDetector().read_insert(Read("a/b"), Insert("a", "<b/>"))
        assert not any("stripped" in note for note in report.notes)


class TestWitnessMinimization:
    def test_minimized_witnesses_respect_bound(self):
        from repro.conflicts.general import witness_size_bound

        read, delete = Read("a//c"), Delete("a/b")
        report = ConflictDetector().read_delete(read, delete)
        assert report.verdict is Verdict.CONFLICT
        minimized = minimize_witness(report.witness, read, delete)
        assert minimized.size <= witness_size_bound(read, delete)
        assert is_witness(minimized, read, delete, ConflictKind.NODE)

    def test_minimization_never_smaller_than_needed(self):
        read, delete = Read("a//c"), Delete("a/b")
        report = ConflictDetector().read_delete(read, delete)
        minimized = minimize_witness(report.witness, read, delete)
        assert minimized.size <= report.witness.size


class TestWitnessesAlwaysVerify:
    @pytest.mark.parametrize(
        "read,insert",
        [
            ("*//C", "*/B"),
            ("a/b/c", "a/b"),
            ("a//x", "a//b"),
        ],
    )
    def test_insert_witnesses(self, read, insert):
        r, i = Read(read), Insert(insert, "<C><x/></C>")
        report = ConflictDetector().read_insert(r, i)
        if report.verdict is Verdict.CONFLICT and report.witness is not None:
            assert is_witness(report.witness, r, i, ConflictKind.NODE)

    def test_paper_program_fragment(self):
        """The Section 1 fragment, end to end through the facade."""
        detector = ConflictDetector()
        insert = Insert("*/B", "<C/>")
        assert detector.read_insert(Read("*//A"), insert).verdict is Verdict.NO_CONFLICT
        assert detector.read_insert(Read("*//C"), insert).verdict is Verdict.CONFLICT
        assert detector.read_insert(Read("*//D"), insert).verdict is Verdict.NO_CONFLICT
        assert detector.read_insert(Read("*/*/A"), insert).verdict is Verdict.NO_CONFLICT


class TestDetectorConfig:
    def test_defaults_match_constructor_defaults(self):
        from repro.conflicts.detector import DetectorConfig

        built = DetectorConfig().build()
        plain = ConflictDetector()
        assert built.config == plain.config

    def test_build_applies_knobs(self):
        from repro.conflicts.detector import DetectorConfig

        config = DetectorConfig(
            kind=ConflictKind.TREE, exhaustive_cap=3, use_heuristics=False
        )
        detector = config.build()
        assert detector.kind is ConflictKind.TREE
        assert detector.exhaustive_cap == 3
        assert detector.use_heuristics is False
        assert detector.config == config

    def test_config_overrides_keyword_knobs(self):
        from repro.conflicts.detector import DetectorConfig

        detector = ConflictDetector(
            exhaustive_cap=9, config=DetectorConfig(exhaustive_cap=2)
        )
        assert detector.exhaustive_cap == 2

    def test_fingerprint_tracks_verdict_knobs_only(self):
        from repro.conflicts.detector import DetectorConfig

        base = DetectorConfig()
        assert base.fingerprint() != DetectorConfig(exhaustive_cap=2).fingerprint()
        assert base.fingerprint() != DetectorConfig(
            kind=ConflictKind.TREE
        ).fingerprint()

    def test_frozen(self):
        from repro.conflicts.detector import DetectorConfig

        with pytest.raises(Exception):
            DetectorConfig().exhaustive_cap = 1


class TestPolymorphicDetect:
    def test_read_read_trivial(self):
        report = ConflictDetector().detect(Read("a/b"), Read("a/b"))
        assert report.verdict is Verdict.NO_CONFLICT
        assert report.method == "read-read-trivial"

    def test_read_update_either_order(self):
        detector = ConflictDetector()
        read, delete = Read("bib/book/title"), Delete("bib/book")
        assert detector.detect(read, delete).verdict is Verdict.CONFLICT
        assert detector.detect(delete, read).verdict is Verdict.CONFLICT

    def test_update_update(self):
        detector = ConflictDetector()
        report = detector.detect(Insert("a/b", "<c/>"), Delete("a/b/c"))
        assert report.verdict is Verdict.CONFLICT

    def test_matches_specific_entry_points(self):
        detector = ConflictDetector()
        read, insert = Read("*//C"), Insert("*/B", "<C/>")
        assert (
            detector.detect(read, insert).verdict
            is detector.read_insert(read, insert).verdict
        )

    def test_rejects_non_operations(self):
        with pytest.raises(TypeError):
            ConflictDetector().detect(Read("a"), "delete a/b")
