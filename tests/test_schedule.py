"""Tests for conflict matrices and parallel scheduling."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.conflicts.api import analyze
from repro.conflicts.batch import BatchAnalyzer
from repro.conflicts.detector import ConflictDetector
from repro.conflicts.semantics import Verdict
from repro.operations.ops import Delete, Insert, Read
from repro.xml.isomorphism import isomorphic
from repro.xml.random_trees import bookstore

#: One detector for the catalogue tests: a cap of 4 keeps the
#: update-update searches cheap.
DETECTOR = ConflictDetector(exhaustive_cap=4)

OPERATIONS = {
    "titles": Read("bib/book/title"),
    "quantities": Read("//quantity"),
    "restock": Insert("bib/book", "<restock/>"),
    "purge": Delete("bib/book"),
    "strip-markers": Delete("bib/book/restock"),
}


def matrix_of(operations, detector=DETECTOR):
    return BatchAnalyzer(detector=detector).analyze(operations)


def schedule_of(operations, detector=DETECTOR):
    analyzer = BatchAnalyzer(detector=detector)
    analyzer.analyze(operations)
    return analyzer.schedule()


class TestConflictMatrix:
    def test_reads_never_conflict(self):
        matrix = analyze(
            {"r1": Read("a/b"), "r2": Read("a/b"), "r3": Read("//x")}
        )
        for a, b in itertools.combinations(["r1", "r2", "r3"], 2):
            assert matrix.verdict(a, b) is Verdict.NO_CONFLICT

    def test_symmetry(self):
        matrix = matrix_of(OPERATIONS)
        for a in OPERATIONS:
            for b in OPERATIONS:
                assert matrix.verdict(a, b) == matrix.verdict(b, a)

    def test_self_pairs_compatible(self):
        matrix = matrix_of(OPERATIONS)
        for name in OPERATIONS:
            assert matrix.verdict(name, name) is Verdict.NO_CONFLICT

    def test_known_verdicts(self):
        matrix = matrix_of(OPERATIONS)
        # Purging books removes titles and quantities.
        assert matrix.verdict("titles", "purge") is Verdict.CONFLICT
        assert matrix.verdict("quantities", "purge") is Verdict.CONFLICT
        # Restock markers do not touch titles.
        assert matrix.verdict("titles", "restock") is Verdict.NO_CONFLICT

    def test_compatible_with(self):
        matrix = matrix_of(OPERATIONS)
        assert "restock" in matrix.compatible_with("titles")
        assert "purge" not in matrix.compatible_with("titles")

    def test_render_contains_all_names(self):
        matrix = matrix_of(OPERATIONS)
        text = matrix.render()
        for name in OPERATIONS:
            assert name[:8] in text


class TestParallelSchedule:
    def test_batches_partition_operations(self):
        batches = schedule_of(OPERATIONS)
        flat = [name for batch in batches for name in batch]
        assert sorted(flat) == sorted(OPERATIONS)

    def test_batches_internally_conflict_free(self):
        matrix = matrix_of(OPERATIONS)
        for batch in schedule_of(OPERATIONS):
            for a, b in itertools.combinations(batch, 2):
                assert not matrix.may_conflict(a, b), (a, b)

    def test_compatible_reads_share_a_batch(self):
        batches = analyze(
            {"r1": Read("a/b"), "r2": Read("a//c"), "r3": Read("//d")},
            mode="schedule",
        )
        assert len(batches) == 1

    def test_conflicting_operations_separated(self):
        batches = analyze(
            {"read": Read("//quantity"), "purge": Delete("bib/book")},
            mode="schedule",
        )
        assert len(batches) == 2

    def test_batch_members_commute_on_a_real_document(self):
        """Executing the updates in either order gives isomorphic trees.

        The order-invariance check is ground truth on its own; the engine
        (whose capped search may leave the pair ``UNKNOWN``) must at least
        never call a commuting pair a conflict.
        """
        operations = {
            "restock": Insert("bib/book[.//quantity]", "<restock/>"),
            "tag": Insert("bib/book/title", "<checked/>"),
        }
        matrix = matrix_of(operations)
        assert matrix.verdict("restock", "tag") is not Verdict.CONFLICT
        doc = bookstore(10, seed=3)
        order_a = operations["tag"].apply(
            operations["restock"].apply(doc).tree
        ).tree
        order_b = operations["restock"].apply(
            operations["tag"].apply(doc).tree
        ).tree
        assert isomorphic(order_a, order_b)


class TestEdgeCases:
    def test_empty_catalogue(self):
        matrix = analyze({})
        assert matrix.names == []
        assert list(matrix.pairs()) == []
        assert analyze({}, mode="schedule") == []

    def test_single_operation(self):
        matrix = analyze({"only": Delete("a/b")})
        assert matrix.names == ["only"]
        assert list(matrix.pairs()) == []
        assert analyze({"only": Delete("a/b")}, mode="schedule") == [["only"]]

    def test_duplicate_names_rejected(self):
        from repro.errors import ConflictEngineError

        pairs = [("op", Read("a/b")), ("op", Read("a/c"))]
        with pytest.raises(ConflictEngineError):
            BatchAnalyzer().analyze(pairs)

    def test_unknown_treated_as_conflict(self):
        """Undecided pairs must not share a batch (sound scheduling)."""
        from repro.conflicts.detector import DetectorConfig

        # Branching inserts: the bounded search leaves the pair open.
        catalogue = {
            "i1": Insert("a[c]/b", "<x/>"),
            "i2": Insert("a[e]/b", "<y/>"),
        }
        analyzer = BatchAnalyzer(DetectorConfig(exhaustive_cap=1))
        matrix = analyzer.analyze(catalogue)
        assert matrix.verdict("i1", "i2") is Verdict.UNKNOWN
        assert matrix.may_conflict("i1", "i2")
        assert analyzer.schedule() == [["i1"], ["i2"]]


class TestRandomCatalogues:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_catalogues_schedule_validly(self, seed):
        from repro.workloads.generators import random_delete, random_insert, random_read

        rng = random.Random(seed)
        operations = {}
        for index in range(5):
            roll = rng.random()
            if roll < 0.4:
                operations[f"op{index}"] = random_read(3, ("a", "b"), seed=rng)
            elif roll < 0.7:
                operations[f"op{index}"] = random_insert(
                    2, alphabet=("a", "b"), seed=rng, linear=True
                )
            else:
                operations[f"op{index}"] = random_delete(
                    2, ("a", "b"), seed=rng, linear=True
                )
        detector = ConflictDetector(exhaustive_cap=3)
        matrix = matrix_of(operations, detector)
        batches = schedule_of(operations, detector)
        for batch in batches:
            for a, b in itertools.combinations(batch, 2):
                assert not matrix.may_conflict(a, b), f"seed {seed}"
